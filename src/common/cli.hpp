// Tiny command-line flag parser for the bench and example binaries.
//
// Every harness binary accepts the same kinds of knobs: `--quick` (shrink
// the workload for smoke runs), `--sigma=1.5`, `--epochs 10`, `--out
// table.csv`. This parser supports exactly that surface:
//   * long flags only (`--name`), with `--name=value` or `--name value`;
//   * typed lookups with defaults (flag absent -> default returned);
//   * boolean flags are presence-only (`--quick`), or explicit
//     `--quick=false` to override a script that appends flags;
//   * `--help` text generated from the registered flag descriptions;
//   * unknown flags are an error (a typo must not silently run the full
//     three-hour sweep with defaults), and so is a malformed or
//     out-of-range value of an option registered as numeric.
//
// Usage:
//   CliParser cli("bench_table1", "Regenerates Table I.");
//   cli.add_flag("quick", "Reduced sample counts for smoke testing");
//   cli.add_option("sigma", "Override noise sigma", "calibrated",
//                  CliParser::Value::kNumber);
//   if (!cli.parse(argc, argv)) return cli.exit_code();
//   bool quick = cli.get_bool("quick");
//   double sigma = cli.get_double("sigma", -1.0);
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace gbo {

class CliParser {
 public:
  CliParser(std::string program, std::string description);

  /// Registers a presence/boolean flag.
  void add_flag(const std::string& name, const std::string& help);

  /// What an option's value must parse as. parse() checks kInt / kNumber
  /// values up front and rejects a malformed or out-of-range one exactly
  /// like an unknown flag: the message on stderr, parse() == false and
  /// exit_code() == 2 — so no binary can end in an uncaught exception
  /// from a later get_int / get_double.
  enum class Value { kText, kInt, kNumber };

  /// Registers a value-carrying option. `default_desc` is only for --help
  /// display; typed defaults are supplied at get_* time.
  void add_option(const std::string& name, const std::string& help,
                  const std::string& default_desc = "",
                  Value type = Value::kText);

  /// Parses argv. Returns false if parsing failed or --help was requested;
  /// in both cases the appropriate text was printed and exit_code() tells
  /// the caller what to return from main (0 for --help, 2 for errors).
  bool parse(int argc, const char* const* argv);

  bool get_bool(const std::string& name) const;
  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  /// Typed lookups; a malformed or out-of-range value throws
  /// std::invalid_argument (unreachable for options registered with the
  /// matching Value type, which parse() has already checked).
  double get_double(const std::string& name, double fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;

  /// True if the option appeared on the command line (vs falling back).
  bool has(const std::string& name) const;

  /// Positional arguments (everything that is not a --flag).
  const std::vector<std::string>& positional() const { return positional_; }

  int exit_code() const { return exit_code_; }

  /// The generated --help text (exposed for tests).
  std::string help_text() const;

 private:
  struct Spec {
    std::string name;
    std::string help;
    std::string default_desc;
    bool is_flag = false;
    Value type = Value::kText;
  };

  const Spec* find_spec(const std::string& name) const;
  /// The parse error of `raw` as an integer / a number ("" when valid).
  std::string int_error(const std::string& name, const std::string& raw,
                        std::int64_t* out) const;
  std::string number_error(const std::string& name, const std::string& raw,
                           double* out) const;
  std::optional<std::string> raw_value(const std::string& name) const;

  std::string program_;
  std::string description_;
  std::vector<Spec> specs_;
  std::vector<std::pair<std::string, std::string>> values_;  // name -> raw
  std::vector<std::string> positional_;
  int exit_code_ = 0;
};

/// Registers the serving binaries' shared observability flags (currently
/// `--trace-out`, the Chrome trace JSON path prefix). The serve demos and
/// benches all export traces the same way; registering the flag here keeps
/// its name and help text in exactly one place.
void add_serve_trace_flags(CliParser& cli);

}  // namespace gbo
