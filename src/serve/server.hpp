// The online-inference server: traffic replay -> queue -> micro-batcher ->
// worker pool -> per-request responses + metrics.
//
// Architecture (DESIGN.md §4):
//
//   make_trace(cfg)            seeded Poisson/burst arrival trace
//        |
//   plan / route_plan          the one decision ledger (policy.hpp;
//        |                     trivial when the SLO policy is disabled)
//   detail::Executor           replays the ledger's arrivals in real time
//        |                     into R per-replica RequestQueues (one
//        |                     producer); a single server is R = 1
//   RequestQueue::pop_batch    dynamic micro-batching (max_batch /
//        |                     max_wait_us)
//   worker pool                R * num_workers long-lived workers on the
//        |                     shared ThreadPool; each owns an EvalContext
//        |                     with a ScratchArena, so steady-state request
//        |                     processing allocates nothing
//   Backend::run               analytic (host net) or pulse-level
//                              (HardwareNetwork) execution
//
// The worker pool reuses common/thread_pool: one parallel_for dispatches
// R * num_workers + 1 blocks (block 0 replays the trace, the rest are worker
// loops). Because the pool claims blocks in order, the producer always
// starts first; with a single-thread pool the trace is replayed to
// completion and then drained sequentially — degenerate latencies, but the
// same payloads, which is the point: outputs depend only on
// (seed, request id), never on worker count, pool size, or batching.
//
// Execution modes (serve/backend.hpp FusionMode, frozen at warmup): every
// micro-batch executes as one whole-tensor call; a stochastic backend's
// call carries ctx.row_rngs[i] = root.fork(request id) per row, and every
// noise site draws row i's noise from that stream (EvalContext::streams(),
// DESIGN.md §6) — bitwise row-equal to unit execution either way.
// Responses land in pre-sized per-request slots, so workers never contend
// on result storage.
#pragma once

#include "data/dataset.hpp"
#include "nn/eval_context.hpp"
#include "serve/backend.hpp"
#include "serve/metrics.hpp"
#include "serve/policy.hpp"
#include "serve/swap.hpp"
#include "serve/traffic.hpp"

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

namespace gbo::serve {

struct ServeConfig {
  BatchPolicy batch;
  std::size_t num_workers = 1;
  /// Root seed of the per-request noise forks (stochastic backends).
  std::uint64_t seed = 1;
  /// SLO control plane (DESIGN.md §7); disabled by default, in which case
  /// every request is admitted and served on the primary (the trivial
  /// ledger, policy.hpp).
  SloPolicy slo;
};

/// The one way to describe a server: a fluent builder over the backends,
/// dataset, config, and replica topology. Both the single-replica
/// InferenceServer and the multi-replica ReplicaGroup (serve/router.hpp)
/// construct from the same spec, so there is exactly one validation and
/// normalization path instead of one per constructor overload.
///
///   ServerSpec{}.primary(b).degraded(d).dataset(ds).config(cfg).replicas(4)
///
/// Referenced backends and the dataset must outlive whatever is built from
/// the spec; the spec itself only borrows them.
class ServerSpec {
 public:
  ServerSpec& primary(const Backend& b) { primary_ = &b; return *this; }
  ServerSpec& degraded(const Backend& b) { degraded_ = &b; return *this; }
  ServerSpec& dataset(const data::Dataset& ds) { dataset_ = &ds; return *this; }
  ServerSpec& config(const ServeConfig& cfg) { cfg_ = cfg; return *this; }
  ServerSpec& replicas(std::size_t n) { replicas_ = n; return *this; }
  ServerSpec& router(const RouterPolicy& rp) { router_ = rp; return *this; }
  /// Model-version registry (DESIGN.md §11). The server pins every
  /// registered snapshot at warmup and can then resolve a request's pinned
  /// version lock-free on the hot path. Borrowed, like the backends.
  ServerSpec& registry(const ModelRegistry& r) { registry_ = &r; return *this; }
  /// Canary hot-swap rollout executed by a ReplicaGroup built from this
  /// spec. Requires registry() with both versions registered; the
  /// single-replica InferenceServer rejects a spec with a swap enabled.
  ServerSpec& swap(const SwapPolicy& sp) { swap_ = sp; return *this; }

  /// Everything wrong with the spec, reported in one pass: errors make the
  /// spec unbuildable (constructors throw std::invalid_argument listing all
  /// of them); warnings describe the clamps normalized_config() applies
  /// (num_workers == 0 -> 1, max_batch == 0 -> 1, replicas == 0 -> 1).
  /// Replaces the old constructors' scattered first-wins clamp logging.
  struct Validation {
    std::vector<std::string> errors;
    std::vector<std::string> warnings;
    bool ok() const { return errors.empty(); }
  };
  Validation validate() const;

  /// The config with every validate() clamp applied.
  ServeConfig normalized_config() const;
  /// The replica count with every validate() clamp applied.
  std::size_t normalized_replicas() const;

  const Backend* primary_backend() const { return primary_; }
  const Backend* degraded_backend() const { return degraded_; }
  const data::Dataset* dataset_ref() const { return dataset_; }
  const ServeConfig& config_ref() const { return cfg_; }
  std::size_t num_replicas() const { return replicas_; }
  const RouterPolicy& router_policy() const { return router_; }
  const ModelRegistry* model_registry() const { return registry_; }
  const SwapPolicy& swap_policy() const { return swap_; }

 private:
  const Backend* primary_ = nullptr;
  const Backend* degraded_ = nullptr;
  const data::Dataset* dataset_ = nullptr;
  ServeConfig cfg_;
  std::size_t replicas_ = 1;
  RouterPolicy router_;
  const ModelRegistry* registry_ = nullptr;
  SwapPolicy swap_;
};

struct RouterReport;  // serve/router.hpp

namespace detail {

/// The one serving executor behind InferenceServer and ReplicaGroup
/// (DESIGN.md §4, §10): it replays a decision ledger onto R per-replica
/// queues drained by R * num_workers worker blocks. Not a public entry
/// point; build an InferenceServer or a ReplicaGroup instead.
class Executor {
 public:
  /// Validates `spec` in one pass and throws std::invalid_argument listing
  /// every problem, adding what the entry point needs: a single server
  /// (`group` false) takes one replica and no swap, a group needs the SLO
  /// control plane. Clamp warnings are logged.
  Executor(const ServerSpec& spec, bool group);

  const ServeConfig& config() const { return cfg_; }
  std::size_t num_replicas() const { return replicas_; }

  /// Sizes every worker's arena and gather buffers by running one maximal
  /// micro-batch (and one unit batch) through each backend, pins and warms
  /// every registry version, and freezes the fusion modes.
  void warmup();

  /// Replays `p` in real time and serves the trace to completion: the
  /// plan's control log, then the arrivals (kRoute only when p carries an
  /// assignment), then the workers drain. Fills the ServeReport and each
  /// ReplicaStats row's exec-side fields.
  RouterReport execute(const std::vector<Arrival>& trace, const Plan& p);

 private:
  struct Worker {
    ScratchArena arena;
    nn::EvalContext ctx;
    Tensor gather;                        // request-batch input staging
    std::vector<std::size_t> in_shape;    // [B, sample dims...] template
    std::vector<std::size_t> batch_hist;  // index = batch size
    std::size_t served = 0;
    std::size_t exec_calls = 0;           // Backend::run invocations
    // Route partitions, reused across batches (capacity settles at
    // max_batch, so steady-state batches allocate nothing).
    std::vector<Request> primary_group;
    std::vector<Request> degraded_group;
    // Exec-side accounting, merged into the report after the run.
    std::vector<std::pair<std::uint64_t, std::uint8_t>> shed_log;
    std::size_t retried = 0;    // requests served after >= 1 failed attempt
    std::size_t faults = 0;     // failed primary attempts observed
    std::size_t fallbacks = 0;  // retries exhausted, served degraded
    std::size_t degraded = 0;   // served on the degraded backend (any mode)
    std::size_t stalls = 0;     // injected worker stalls
    Worker() { ctx.arena = &arena; }
  };

  void warmup_backend(const Backend& backend, FusionMode mode);
  /// Executes group[0..n) (all routed to `backend` under `mode`) and writes
  /// each request's logits row into out_rows[id]. Takes a pointer + count
  /// so contiguous same-version runs of a batch execute without
  /// re-partitioning into fresh vectors (hot path stays zero-alloc).
  void exec_rows(Worker& w, const Backend& backend, FusionMode mode,
                 const Request* group, std::size_t n, float* out_rows);
  /// The backend / frozen fusion mode serving primary-class requests pinned
  /// to `version` (0 = the spec's primary backend; otherwise a registry
  /// snapshot pinned at warmup). Lock-free: flat vector lookups.
  const Backend& backend_for_version(std::uint32_t version) const;
  FusionMode mode_for_version(std::uint32_t version) const;
  /// The batch processor: takes injected stalls and retry backoff, splits
  /// the popped batch by planned ServeMode between the primary (per pinned
  /// version) and degraded backends. `decisions` is the ledger indexed by
  /// global request id; it supplies each delivery's virtual completion time
  /// for the causal trace (DESIGN.md §9).
  void process_batch(Worker& w, const std::vector<Request>& batch,
                     float* out_rows, std::uint64_t* completion_us,
                     const std::chrono::steady_clock::time_point& t0,
                     const FaultInjector& injector,
                     const std::vector<Decision>& decisions);
  /// One worker's drain loop: pops until `queue` closes, diverting
  /// pre-marked sheds into the worker's shed log.
  void drain_queue(Worker& w, RequestQueue& queue, float* out_rows,
                   std::uint64_t* completion_us,
                   const std::chrono::steady_clock::time_point& t0,
                   const FaultInjector& injector,
                   const std::vector<Decision>& decisions);

  const Backend& backend_;
  const Backend* degraded_ = nullptr;  // SLO fallback; null = use primary
  const data::Dataset& dataset_;
  /// Hot-swap version resolution (DESIGN.md §11). warmup() pins every
  /// registry snapshot into pinned_ (index = version - 1) and warms its
  /// caches, so a cutover never packs, binarizes, or allocates on the
  /// serving path — the incoming version is already steady-state.
  const ModelRegistry* registry_ = nullptr;
  std::vector<std::shared_ptr<const ModelSnapshot>> pinned_;
  std::vector<FusionMode> pinned_modes_;
  ServeConfig cfg_;
  std::size_t replicas_ = 1;
  Rng root_;
  /// Worker w of replica r is workers_[r * num_workers + w]; every replica
  /// shares the payload seed, so a request's payload does not depend on
  /// which replica serves it.
  std::vector<std::unique_ptr<Worker>> workers_;
  /// Process-order sequence of popped batches; the trace id of kBatch
  /// spans and kBatchMember events (timing-class, worker-count dependent).
  std::atomic<std::uint64_t> batch_seq_{0};
  std::size_t out_dim_ = 0;
  bool warmed_ = false;
  // Fusion modes frozen at warmup (primary and degraded backends).
  FusionMode mode_ = FusionMode::kFused;
  FusionMode dmode_ = FusionMode::kFused;
};

}  // namespace detail

class InferenceServer {
 public:
  /// The only constructor: the spec must validate() clean and describe a
  /// single replica (ReplicaGroup is the multi-replica entry point);
  /// otherwise std::invalid_argument lists every problem at once.
  explicit InferenceServer(const ServerSpec& spec)
      : exec_(spec, /*group=*/false) {}

  /// Sizes every worker's arena and gather buffers by running one maximal
  /// micro-batch (and one unit batch) through the backend, and freezes the
  /// backend's deterministic/stochastic execution mode (so the backend's
  /// hook configuration must be settled by now). Called lazily by run();
  /// call it explicitly so the first run's arena stats are already
  /// steady-state.
  void warmup() { exec_.warmup(); }

  /// Replays the trace in real time and serves it to completion. An empty
  /// trace (or empty dataset) returns an empty report with a warning.
  ///
  /// The run is planned first: plan() decides every admit / shed /
  /// degrade / retry outcome on the virtual clock (DESIGN.md §7; every
  /// request is served when cfg.slo is disabled), then the real replay
  /// executes the plan — planned rejections are bounced at admission,
  /// planned sheds are pushed marked and diverted at pop time, and
  /// fault/retry behaviour is re-derived live from the same seeded
  /// FaultInjector. Payloads and the shed set are bitwise identical at any
  /// worker count.
  ServeReport run(const std::vector<Arrival>& trace);

 private:
  detail::Executor exec_;
};

}  // namespace gbo::serve
