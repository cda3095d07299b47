// Serving metrics: request latency quantiles, queue depth, batch-size
// histogram, throughput, per-worker arena accounting, and — for SLO runs —
// the control-plane ledger (shed/degrade/retry counters, per-priority
// virtual latency percentiles, shed-set fingerprints) that bench_serve
// writes into BENCH_serve.json / BENCH_serve_slo.json.
#pragma once

#include "common/json.hpp"
#include "serve/queue.hpp"
#include "tensor/arena.hpp"
#include "tensor/tensor.hpp"

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace gbo::serve {

/// Fixed-width hex rendering ("0x%016llx") of a 64-bit fingerprint. Json
/// numbers are doubles, so every hash in the bench artifacts and demo
/// output travels as this string form; the gates compare them verbatim.
std::string hex64(std::uint64_t v);

/// Nearest-rank latency quantiles over a sample set (microseconds).
struct LatencyStats {
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double mean_us = 0.0;
  double max_us = 0.0;
  std::size_t count = 0;

  /// Computes from an unsorted sample vector (copied; empty -> all zero).
  static LatencyStats compute(std::vector<std::uint64_t> samples);

  Json to_json() const;
};

/// Arena accounting aggregated over the worker pool.
struct ArenaSummary {
  std::size_t system_allocs = 0;      // lifetime total across workers
  std::size_t steady_allocs = 0;      // allocations during the last run()
  std::size_t high_water_bytes = 0;   // max single-worker bump high water
  std::size_t reserved_bytes = 0;     // total bytes held across workers

  Json to_json() const;
};

/// The SLO control plane's ledger for one run (DESIGN.md §7). The plan-side
/// fields are deterministic in (trace, policy); the exec-side fields are
/// what the workers actually did and must mirror the plan — the
/// `plan_exec_consistent` gate compares them.
struct SloSummary {
  bool enabled = false;

  // ---- plan side (virtual clock, deterministic) ----
  std::size_t admitted = 0;          // pushed into the queue
  std::size_t served = 0;
  std::size_t served_primary = 0;
  std::size_t served_canary = 0;     // full fidelity, swap candidate version
  std::size_t degraded_ladder = 0;
  std::size_t degraded_breaker = 0;
  std::size_t degraded_fallback = 0;
  std::size_t shed_expired = 0;
  std::size_t shed_overload = 0;
  std::size_t rejected_capacity = 0;
  std::size_t evicted = 0;
  std::size_t retried_requests = 0;
  std::size_t faults_injected = 0;
  std::size_t late_virtual = 0;      // served past deadline (not in-SLO)
  std::size_t breaker_opens = 0;
  std::size_t ladder_transitions = 0;
  int final_ladder_level = 0;
  int max_ladder_level = 0;
  std::size_t max_virtual_depth = 0;
  std::uint64_t deadline_us = 0;
  std::uint64_t shed_set_hash = 0;   // planner fingerprint
  LatencyStats virtual_latency;      // served requests, virtual clock
  std::array<LatencyStats, kNumPriorities> virtual_by_priority;

  // ---- execution side (what the workers actually did) ----
  std::size_t exec_delivered = 0;    // payload rows written
  std::size_t exec_shed = 0;         // diverted at pop + skipped at admission
  std::size_t exec_retried = 0;
  std::size_t exec_faults = 0;
  std::size_t exec_fallbacks = 0;
  std::size_t exec_degraded = 0;     // served on the degraded backend
  std::size_t exec_stalls = 0;
  std::uint64_t exec_shed_set_hash = 0;  // runtime fingerprint
  std::array<LatencyStats, kNumPriorities> real_by_priority;  // delivered

  Json to_json() const;
};

/// The hot-swap rollout ledger of one run (DESIGN.md §11): what the canary
/// controller planned and the provenance of every delivered payload. All
/// fields are deterministic in (trace, policies).
struct SwapSummary {
  bool enabled = false;
  bool rolled_back = false;
  std::uint32_t from_version = 0;
  std::uint32_t to_version = 0;
  std::uint8_t canary_replica = 0;
  std::uint64_t start_us = 0;        // canary cutover (virtual clock)
  std::uint64_t verdict_us = 0;      // promote/rollback instant
  std::size_t canary_served = 0;     // health-evaluated canary requests
  std::size_t canary_faults = 0;     // health failures among them
  std::size_t breaker_opens = 0;
  bool latency_breach = false;
  std::size_t cutovers = 0;          // planned replica cutovers
  std::uint64_t version_hash = 0;    // (id, version) provenance fingerprint
  /// Delivered payloads per pinned version, version ascending.
  std::vector<std::pair<std::uint32_t, std::size_t>> served_by_version;

  Json to_json() const;
};

/// Everything one InferenceServer::run produced.
struct ServeReport {
  std::size_t requests = 0;
  std::size_t completed = 0;
  std::size_t workers = 0;
  double wall_s = 0.0;
  double throughput_rps = 0.0;
  /// Wall-clock latency over delivered requests (all requests in non-SLO
  /// runs; shed/rejected requests have no latency sample).
  LatencyStats latency;
  RequestQueue::DepthStats queue;
  /// batch_hist[b] = number of micro-batches of size b (index 0 unused).
  std::vector<std::size_t> batch_hist;
  double mean_batch = 0.0;
  /// Backend::run invocations and mean rows per invocation; tracks the
  /// micro-batcher (mean_batch above counts queue batches, which a batch
  /// mixing routes or versions splits into several calls).
  std::size_t exec_calls = 0;
  double mean_exec_batch = 0.0;
  /// Execution mode frozen at warmup: "fused" or "fused_per_sample" (noisy
  /// configs batching on per-request RNG streams, DESIGN.md §6). For SLO
  /// runs this is the primary backend's mode.
  std::string fusion;
  ArenaSummary arena;
  /// Control-plane ledger; enabled only for SLO runs.
  SloSummary slo;
  /// Hot-swap rollout ledger; enabled only for swap runs (DESIGN.md §11).
  SwapSummary swap;
  /// Payload provenance of a swap run: versions[id] = registry version that
  /// produced request id's payload row. Empty for non-swap runs.
  std::vector<std::uint32_t> versions;

  /// Per-request payloads, [requests, out_dim] — row r is request r's
  /// logits (all-zero for shed/rejected requests). Bitwise identical across
  /// worker counts and batch policies for the same (seed, trace, policy);
  /// the determinism gates compare these.
  Tensor outputs;
  /// Per-request completion latency (actual enqueue -> completion), us;
  /// 0 for requests that were never delivered.
  std::vector<std::uint64_t> latencies_us;

  /// Metrics document (outputs and the raw latency vector are elided).
  Json to_json() const;
};

/// Shared human-readable rendering of ServeReport. The serve demos route
/// their report printing through these (one fixed column schema) instead of
/// hand-rolled printf blocks, so the text output cannot drift between
/// binaries or from the JSON schema above.
std::vector<std::string> report_header();
std::vector<std::string> report_row(const std::string& label,
                                    const ServeReport& r);

/// One-line execution summary for an SLO run: delivered/shed counts plus
/// the runtime shed-set fingerprint (newline-terminated).
std::string slo_exec_summary(const std::string& label, const ServeReport& r);

/// Shared rendering of a swap run's per-version payload provenance — one
/// row per registered version that delivered payloads, same fixed-schema
/// discipline as report_header/report_row so demos and benches cannot
/// drift into ad-hoc printf blocks. Empty rows for non-swap runs.
std::vector<std::string> version_report_header();
std::vector<std::vector<std::string>> version_report_rows(
    const ServeReport& r);

}  // namespace gbo::serve
