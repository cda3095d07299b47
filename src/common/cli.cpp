#include "common/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace gbo {

CliParser::CliParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void CliParser::add_flag(const std::string& name, const std::string& help) {
  specs_.push_back(Spec{name, help, "", /*is_flag=*/true});
}

void CliParser::add_option(const std::string& name, const std::string& help,
                           const std::string& default_desc, Value type) {
  specs_.push_back(Spec{name, help, default_desc, /*is_flag=*/false, type});
}

const CliParser::Spec* CliParser::find_spec(const std::string& name) const {
  for (const auto& s : specs_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::optional<std::string> CliParser::raw_value(const std::string& name) const {
  for (const auto& [k, v] : values_) {
    if (k == name) return v;
  }
  return std::nullopt;
}

std::string CliParser::help_text() const {
  std::ostringstream os;
  os << program_ << " — " << description_ << "\n\nOptions:\n";
  std::size_t width = 4;  // "help"
  for (const auto& s : specs_) width = std::max(width, s.name.size());
  for (const auto& s : specs_) {
    os << "  --" << s.name << std::string(width - s.name.size() + 2, ' ')
       << s.help;
    if (!s.default_desc.empty()) os << " (default: " << s.default_desc << ")";
    os << "\n";
  }
  os << "  --help" << std::string(width - 4 + 2, ' ')
     << "Print this message and exit\n";
  return os.str();
}

bool CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    std::string name = body;
    std::optional<std::string> inline_value;
    if (auto eq = body.find('='); eq != std::string::npos) {
      name = body.substr(0, eq);
      inline_value = body.substr(eq + 1);
    }
    if (name == "help") {
      std::fputs(help_text().c_str(), stdout);
      exit_code_ = 0;
      return false;
    }
    const Spec* spec = find_spec(name);
    if (spec == nullptr) {
      std::fprintf(stderr, "%s: unknown flag --%s (see --help)\n",
                   program_.c_str(), name.c_str());
      exit_code_ = 2;
      return false;
    }
    std::string value;
    if (inline_value) {
      value = *inline_value;
    } else if (spec->is_flag) {
      value = "true";
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::fprintf(stderr, "%s: --%s requires a value\n", program_.c_str(),
                   name.c_str());
      exit_code_ = 2;
      return false;
    }
    std::string error;
    if (spec->type == Value::kInt) {
      std::int64_t v;
      error = int_error(name, value, &v);
    } else if (spec->type == Value::kNumber) {
      double v;
      error = number_error(name, value, &v);
    }
    if (!error.empty()) {
      std::fprintf(stderr, "%s\n", error.c_str());
      exit_code_ = 2;
      return false;
    }
    values_.emplace_back(name, std::move(value));
  }
  return true;
}

bool CliParser::get_bool(const std::string& name) const {
  auto raw = raw_value(name);
  if (!raw) return false;
  return *raw != "false" && *raw != "0" && *raw != "no";
}

std::string CliParser::get_string(const std::string& name,
                                  const std::string& fallback) const {
  auto raw = raw_value(name);
  return raw ? *raw : fallback;
}

std::string CliParser::number_error(const std::string& name,
                                    const std::string& raw,
                                    double* out) const {
  char* end = nullptr;
  *out = std::strtod(raw.c_str(), &end);
  if (end == raw.c_str() || *end != '\0')
    return program_ + ": --" + name + " expects a number, got '" + raw + "'";
  return "";
}

std::string CliParser::int_error(const std::string& name,
                                 const std::string& raw,
                                 std::int64_t* out) const {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(raw.c_str(), &end, 10);
  if (end == raw.c_str() || *end != '\0')
    return program_ + ": --" + name + " expects an integer, got '" + raw +
           "'";
  // strtoll clamps an overflowing value to LLONG_MIN/LLONG_MAX.
  if (errno == ERANGE)
    return program_ + ": --" + name + " is out of range, got '" + raw + "'";
  *out = v;
  return "";
}

double CliParser::get_double(const std::string& name, double fallback) const {
  auto raw = raw_value(name);
  if (!raw) return fallback;
  double v;
  if (std::string error = number_error(name, *raw, &v); !error.empty())
    throw std::invalid_argument(error);
  return v;
}

std::int64_t CliParser::get_int(const std::string& name,
                                std::int64_t fallback) const {
  auto raw = raw_value(name);
  if (!raw) return fallback;
  std::int64_t v;
  if (std::string error = int_error(name, *raw, &v); !error.empty())
    throw std::invalid_argument(error);
  return v;
}

bool CliParser::has(const std::string& name) const {
  return raw_value(name).has_value();
}

void add_serve_trace_flags(CliParser& cli) {
  cli.add_option("trace-out", "Chrome trace JSON path prefix (empty disables)",
                 "");
}

}  // namespace gbo
