// Online-serving benchmark: drives the serve/ runtime (seeded traffic ->
// request queue -> dynamic micro-batcher -> worker pool) against both
// execution backends and writes BENCH_serve.json.
//
// Per scenario it reports request latency (p50/p95/p99/mean), throughput,
// queue depth, the micro-batch size histogram, arena accounting, and the
// frozen-weight cache counters — and enforces four hard gates:
//   * determinism: replaying the identical (seed, trace) pair must produce
//     bitwise-identical per-request payloads at 1 worker and at --workers
//     workers (and at max_batch vs unit batches) on both the analytic and
//     the pulse-level backend;
//   * zero-alloc steady state: after the warm-up run, a full serving run
//     must not grow any worker arena (steady_allocs == 0);
//   * zero-pack steady state (DESIGN.md §6): a steady-state run must
//     perform no weight packs and no binarizations — the per-layer caches
//     stamped with the weight version counters amortize both to the warmup;
//   * noisy fusion: stochastic scenarios must execute fused
//     (fusion == "fused_per_sample") with mean exec batch > 1, instead of
//     degenerating to unit batches.
// Any gate failure exits nonzero, so CI can sit on `bench_serve --smoke`.
//
// Timing caveat: latency numbers are only meaningful when the thread pool
// can run the trace producer and at least one worker concurrently
// (GBO_NUM_THREADS >= 2). At 1 thread the runtime degenerates to
// replay-then-drain — payloads identical, latencies inflated by design.
#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/logging.hpp"
#include "common/thread_pool.hpp"
#include "crossbar/crossbar_layers.hpp"
#include "crossbar/hw_deploy.hpp"
#include "models/mlp.hpp"
#include "models/vgg9.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "quant/binary_weight.hpp"
#include "serve/policy.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_binary.hpp"
#include "tensor/ops.hpp"

#include <cstdio>
#include <string>

namespace {

using namespace gbo;

Tensor random_tensor(std::vector<std::size_t> shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(std::move(shape));
  ops::fill_uniform(t, rng, -1.0f, 1.0f);
  return t;
}

data::Dataset random_dataset(std::size_t n, std::size_t features,
                             std::uint64_t seed) {
  data::Dataset ds;
  ds.images = random_tensor({n, features}, seed);
  ds.labels.assign(n, 0);
  return ds;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  for (std::size_t i = 0; i < a.numel(); ++i)
    if (a[i] != b[i]) return false;
  return true;
}

struct GateState {
  bool ok = true;
  void fail(const char* scenario, const char* what) {
    std::fprintf(stderr, "serve GATE FAILURE [%s]: %s\n", scenario, what);
    ok = false;
  }
};

/// Folds the 1-worker and measured N-worker trace snapshots into the
/// scenario's "trace" JSON section and enforces the DESIGN.md §9 gates:
/// no ring overflow, no steady-state ring allocations, and a causal
/// fingerprint that is bitwise identical across worker counts AND equal to
/// the planner-derived oracle. Timing fields stay out of the fingerprint,
/// so every gated quantity is machine-independent. With tracing compiled
/// out (GBO_TRACE=0) or env-disabled the section records enabled=false and
/// no gate fires.
Json trace_section(const char* name, const obs::TraceSnapshot& snap1,
                   const obs::TraceSnapshot& snapN,
                   std::uint64_t expected_fp, std::size_t expected_events,
                   std::uint64_t steady_ring_allocs,
                   const std::string& trace_out, GateState* gates) {
  Json tr = obs::trace_summary(snapN);
  const bool enabled = obs::runtime_enabled();
  tr.set("enabled", enabled);
  if (!enabled) return tr;

  const std::uint64_t fp1 = obs::causal_fingerprint(snap1.events);
  const std::uint64_t fpN = obs::causal_fingerprint(snapN.events);
  tr.set("causal_fingerprint_1w", serve::hex64(fp1));
  tr.set("expected_causal_fingerprint", serve::hex64(expected_fp));
  tr.set("expected_causal_events", expected_events);
  tr.set("steady_ring_allocs", steady_ring_allocs);

  const bool match_workers = fp1 == fpN;
  if (!match_workers)
    gates->fail(name, "causal fingerprint differs between 1 and N workers");
  const bool match_oracle = fpN == expected_fp;
  if (!match_oracle)
    gates->fail(name, "causal fingerprint diverged from the plan oracle");
  const bool no_drops = snap1.dropped == 0 && snapN.dropped == 0;
  if (!no_drops) gates->fail(name, "trace ring overflowed (events dropped)");
  const bool no_ring_allocs = steady_ring_allocs == 0;
  if (!no_ring_allocs)
    gates->fail(name, "tracing allocated ring memory during the measured run");
  tr.set("causal_match_1_vs_n", match_workers);
  tr.set("causal_matches_oracle", match_oracle);
  tr.set("no_drops", no_drops);
  tr.set("zero_steady_ring_allocs", no_ring_allocs);

  if (!trace_out.empty()) {
    const std::string path = trace_out + name + ".json";
    if (obs::write_chrome_trace(snapN, path,
                                std::string("bench_serve ") + name))
      std::printf("  [%s] wrote %s\n", name, path.c_str());
    else
      std::fprintf(stderr, "  [%s] failed to write %s\n", name, path.c_str());
  }
  return tr;
}

/// Runs one backend through the full ladder: 1 worker, N workers (the
/// measured configuration, warmed then replayed for steady-state stats,
/// with the frozen-weight cache counters diffed around the steady run),
/// and a unit-batch server to pin the batching-boundary invariance.
/// `stochastic` scenarios additionally gate that execution fused on
/// per-sample streams instead of degenerating to unit batches.
Json run_scenario(const char* name, const serve::Backend& backend,
                  const data::Dataset& ds,
                  const std::vector<serve::Arrival>& trace,
                  std::size_t workers, const serve::BatchPolicy& policy,
                  std::uint64_t seed, bool stochastic,
                  const std::string& trace_out, GateState* gates) {
  serve::ServeConfig cfg;
  cfg.batch = policy;
  cfg.seed = seed;

  cfg.num_workers = 1;
  serve::InferenceServer one(
      serve::ServerSpec{}.primary(backend).dataset(ds).config(cfg));
  obs::begin_session();
  const serve::ServeReport rep1 = one.run(trace);
  const obs::TraceSnapshot snap1 = obs::end_session();

  cfg.num_workers = workers;
  serve::InferenceServer many(
      serve::ServerSpec{}.primary(backend).dataset(ds).config(cfg));
  many.warmup();
  (void)many.run(trace);  // warm run: sizes arenas/pools along real paths
  const std::uint64_t packs0 = gemm::b_pack_count();
  const std::uint64_t bins0 = quant::binarize_count();
  const std::uint64_t bpacks0 = gemm::binary_pack_count();
  const std::uint64_t bmvms0 = gemm::binary_mvm_count();
  // The warm run also minted every worker's trace ring; the measured run
  // must not allocate any (the zero_steady_ring_allocs gate).
  obs::begin_session();
  const std::uint64_t rings0 = obs::ring_allocs();
  const serve::ServeReport rep = many.run(trace);
  const obs::TraceSnapshot snapN = obs::end_session();
  const std::uint64_t steady_rings = obs::ring_allocs() - rings0;
  const std::uint64_t steady_packs = gemm::b_pack_count() - packs0;
  const std::uint64_t steady_bins = quant::binarize_count() - bins0;
  const std::uint64_t steady_bpacks = gemm::binary_pack_count() - bpacks0;
  const std::uint64_t binary_mvms = gemm::binary_mvm_count() - bmvms0;

  const bool match = bitwise_equal(rep1.outputs, rep.outputs);
  if (!match) gates->fail(name, "outputs differ between 1 and N workers");
  const bool steady = rep.arena.steady_allocs == 0;
  if (!steady) gates->fail(name, "arena grew during the steady-state run");
  // Zero-pack steady state (DESIGN.md §6): with the version-stamped panel
  // and binarize caches warm, a steady-state run must touch neither.
  const bool zero_packs = steady_packs == 0 && steady_bins == 0;
  if (!zero_packs)
    gates->fail(name, "steady-state run packed or binarized weights");
  // Same amortization contract for the packed binary signs (DESIGN.md §8):
  // A-side code passes are per-request by design, but the cached weight
  // signs must never be rebuilt in steady state.
  const bool zero_bpacks = steady_bpacks == 0;
  if (!zero_bpacks)
    gates->fail(name, "steady-state run re-packed binary signs");
  // Stochastic configs must fuse their micro-batches on per-sample streams
  // (a regression to unit batches would forfeit the whole batching win).
  // Queue batch sizes are timing-dependent, so the gate compares execution
  // to the queue instead of to the wall clock: whatever batches the
  // micro-batcher formed must have executed as single fused calls
  // (mean_exec_batch keeps up with mean_batch), under the frozen
  // fused_per_sample mode. A runner so fast that every queue batch is a
  // unit batch cannot fail this spuriously.
  bool noisy_fused = true;
  if (stochastic) {
    noisy_fused = rep.fusion == "fused_per_sample" &&
                  rep.mean_exec_batch + 1e-9 >= rep.mean_batch;
    if (!noisy_fused)
      gates->fail(name, "stochastic scenario did not fuse micro-batches");
  }

  // Batching-boundary invariance is part of the contract for BOTH modes
  // (fused batches by kernel row-independence, per-sample streams by
  // construction) — replay with unit batches and demand identical payloads.
  bool batch_invariant = true;
  if (policy.max_batch > 1) {
    serve::ServeConfig unit = cfg;
    unit.batch.max_batch = 1;
    serve::InferenceServer us(
        serve::ServerSpec{}.primary(backend).dataset(ds).config(unit));
    batch_invariant = bitwise_equal(us.run(trace).outputs, rep.outputs);
    if (!batch_invariant)
      gates->fail(name, "outputs depend on the batching boundary");
  }

  std::printf(
      "  [%s] %zu req, %zu workers: p50=%.0fus p95=%.0fus p99=%.0fus "
      "tput=%.0f rps exec_batch=%.2f (%s) steady_allocs=%zu "
      "steady_packs=%zu %s\n",
      name, rep.completed, workers, rep.latency.p50_us, rep.latency.p95_us,
      rep.latency.p99_us, rep.throughput_rps, rep.mean_exec_batch,
      rep.fusion.c_str(), rep.arena.steady_allocs,
      static_cast<std::size_t>(steady_packs),
      match && steady && zero_packs && zero_bpacks && noisy_fused
          ? "OK" : "GATE-FAIL");

  Json j = rep.to_json();
  j.set("backend", backend.name());
  j.set("bitwise_1_vs_n_workers", match);
  j.set("batching_invariant", batch_invariant);
  j.set("arena_steady_state", steady);
  j.set("steady_weight_packs", steady_packs);
  j.set("steady_binarizes", steady_bins);
  j.set("steady_binary_packs", steady_bpacks);
  j.set("zero_steady_binary_packs", zero_bpacks);
  j.set("binary_mvms", binary_mvms);
  j.set("packs_per_request",
        rep.completed ? static_cast<double>(steady_packs) /
                            static_cast<double>(rep.completed)
                      : 0.0);
  j.set("zero_steady_packs", zero_packs);
  if (stochastic) j.set("noisy_fused", noisy_fused);
  // A disabled SLO policy plans the trivial ledger: every request admitted
  // and delivered exactly once, with no deadline or virtual clock.
  const serve::Plan plan = serve::plan(trace, cfg.slo, cfg.batch);
  j.set("trace",
        trace_section(name, snap1, snapN,
                      serve::expected_causal_fingerprint(plan),
                      serve::expected_causal_event_count(plan),
                      steady_rings, trace_out, gates));
  return j;
}

/// SLO control-plane scenario (DESIGN.md §7): a flash-crowd overload with
/// deterministic fault injection, served with the pulse backend as primary
/// and the analytic model as the fidelity-ladder fallback. Runs at 1 worker
/// and at `workers` workers and enforces the §7 hard gates:
///   * slo_payload_match      delivered payloads bitwise identical 1 vs N
///   * shed_set_deterministic runtime shed-set fingerprint == planner's, at
///                            both worker counts (cross-thread-pool equality
///                            is checked by tools/check_bench_gates.py over
///                            the 1t/4t JSON artifacts)
///   * zero_late_success      no served request past its deadline
///   * p99_bounded            served virtual p99 <= the deadline
///   * no_lost_requests       every planned-served request was delivered
///   * ladder_recovered       back to full fidelity after the burst
///   * overload_exercised     the burst actually shed + degraded work
///   * faults_retried         transients retried, the outage fell back and
///                            tripped the breaker
/// All gated quantities live on the virtual clock or are bitwise payload
/// comparisons — machine-independent by construction.
Json run_slo_scenario(const serve::Backend& primary,
                      const serve::Backend& degraded,
                      const data::Dataset& ds,
                      const std::vector<serve::Arrival>& trace,
                      std::size_t workers, const serve::ServeConfig& base,
                      const std::string& trace_out, GateState* gates) {
  const char* name = "slo_flash";
  const serve::Plan plan = serve::plan(trace, base.slo, base.batch);

  serve::ServeConfig cfg = base;
  cfg.num_workers = 1;
  serve::InferenceServer one(serve::ServerSpec{}
                                 .primary(primary)
                                 .degraded(degraded)
                                 .dataset(ds)
                                 .config(cfg));
  obs::begin_session();
  const serve::ServeReport rep1 = one.run(trace);
  const obs::TraceSnapshot snap1 = obs::end_session();
  cfg.num_workers = workers;
  serve::InferenceServer many(serve::ServerSpec{}
                                  .primary(primary)
                                  .degraded(degraded)
                                  .dataset(ds)
                                  .config(cfg));
  (void)many.run(trace);  // warm run: mints arenas + every worker trace ring
  obs::begin_session();
  const std::uint64_t rings0 = obs::ring_allocs();
  const serve::ServeReport rep = many.run(trace);
  const obs::TraceSnapshot snapN = obs::end_session();
  const std::uint64_t steady_rings = obs::ring_allocs() - rings0;

  const serve::PlanCounters& c = plan.counters;
  const bool payload_match = bitwise_equal(rep1.outputs, rep.outputs);
  if (!payload_match)
    gates->fail(name, "payloads differ between 1 and N workers");
  const bool shed_match = rep1.slo.exec_shed_set_hash == plan.shed_set_hash &&
                          rep.slo.exec_shed_set_hash == plan.shed_set_hash;
  if (!shed_match)
    gates->fail(name, "runtime shed set diverged from the plan");
  const bool zero_late = rep.slo.late_virtual == 0;
  if (!zero_late) gates->fail(name, "a served request missed its deadline");
  const bool p99_bounded =
      rep.slo.virtual_latency.p99_us > 0.0 &&
      rep.slo.virtual_latency.p99_us <=
          static_cast<double>(base.slo.deadline_us);
  if (!p99_bounded)
    gates->fail(name, "served virtual p99 exceeds the deadline");
  const bool no_lost = rep1.completed == c.served && rep.completed == c.served;
  if (!no_lost) gates->fail(name, "a planned-served request was not delivered");
  const bool recovered = rep.slo.final_ladder_level == 0;
  if (!recovered) gates->fail(name, "ladder did not recover after the burst");
  const bool overloaded = rep.slo.exec_shed > 0 &&
                          rep.slo.degraded_ladder > 0 &&
                          rep.slo.max_ladder_level >= 2;
  if (!overloaded)
    gates->fail(name, "flash crowd did not exercise the overload path");
  const bool faulted = rep.slo.exec_retried > 0 && rep.slo.exec_fallbacks > 0 &&
                       rep.slo.breaker_opens >= 1 &&
                       rep.slo.exec_retried == c.retried_requests &&
                       rep.slo.exec_faults == c.faults_injected;
  if (!faulted)
    gates->fail(name, "fault injection / retry accounting diverged");

  std::printf(
      "  [%s] %zu req: served=%zu shed=%zu (expired=%zu overload=%zu "
      "rejected=%zu evicted=%zu) degraded=%zu retried=%zu fallback=%zu "
      "breaker_opens=%zu vp99=%.0fus late=%zu ladder_max=%d->%d %s\n",
      name, rep.requests, rep.slo.served, rep.slo.exec_shed,
      rep.slo.shed_expired, rep.slo.shed_overload, rep.slo.rejected_capacity,
      rep.slo.evicted, rep.slo.exec_degraded, rep.slo.exec_retried,
      rep.slo.exec_fallbacks, rep.slo.breaker_opens,
      rep.slo.virtual_latency.p99_us, rep.slo.late_virtual,
      rep.slo.max_ladder_level, rep.slo.final_ladder_level,
      payload_match && shed_match && zero_late && p99_bounded && no_lost &&
              recovered && overloaded && faulted
          ? "OK"
          : "GATE-FAIL");

  Json j = rep.to_json();
  j.set("backend", primary.name() + "+" + degraded.name());
  j.set("slo_payload_match", payload_match);
  j.set("shed_set_deterministic", shed_match);
  j.set("zero_late_success", zero_late);
  j.set("p99_bounded", p99_bounded);
  j.set("no_lost_requests", no_lost);
  j.set("ladder_recovered", recovered);
  j.set("overload_exercised", overloaded);
  j.set("faults_retried", faulted);
  // SLO oracle: the full causal stream (admission verdicts, sheds, retries,
  // deliveries with virtual completion times, the control log)
  // reconstructed from the Plan alone.
  j.set("trace", trace_section(name, snap1, snapN,
                               serve::expected_causal_fingerprint(plan),
                               serve::expected_causal_event_count(plan),
                               steady_rings, trace_out, gates));
  return j;
}

/// Multi-replica router scenario (DESIGN.md §10): N replicas of a noisy
/// pulse backend behind the deterministic router, flash-crowd overload, one
/// replica down for the whole run. Gates, at 1 worker/replica and at
/// --workers workers/replica:
///   * router_payload_match   payloads bitwise identical 1 vs N workers
///   * routing_deterministic  runtime routing hash == route_plan()'s, both
///                            runs (1t/4t cross-artifact equality is checked
///                            by tools/check_bench_gates.py)
///   * replica_sheds_match    every replica's executed shed set == its §7
///                            plan row's fingerprint
///   * fleet_shed_match       fleet shed-set union == the plan's
///   * no_lost_requests       delivered == planned served, both runs
///   * replica_zero_allocs    no replica arena grew during the measured run
///   * outage_rerouted        the downed replica got zero traffic and the
///                            active set shrank below the deployment
///   * autoscale_bounded      active count within [min_replicas, alive]
///   * overload_exercised     the flash actually shed work fleet-wide
Json run_router_scenario(const serve::Backend& primary,
                         const serve::Backend& degraded,
                         const data::Dataset& ds,
                         const std::vector<serve::Arrival>& trace,
                         std::size_t workers, const serve::ServeConfig& base,
                         const serve::RouterPolicy& router,
                         std::size_t replicas, const std::string& trace_out,
                         GateState* gates) {
  const char* name = "router_flash";
  const serve::Plan plan =
      serve::route_plan(trace, base.slo, base.batch, router, replicas);

  serve::ServeConfig cfg = base;
  cfg.num_workers = 1;
  serve::ReplicaGroup one(serve::ServerSpec{}
                              .primary(primary)
                              .degraded(degraded)
                              .dataset(ds)
                              .config(cfg)
                              .replicas(replicas)
                              .router(router));
  obs::begin_session();
  const serve::RouterReport rep1 = one.run(trace);
  const obs::TraceSnapshot snap1 = obs::end_session();

  cfg.num_workers = workers;
  serve::ReplicaGroup many(serve::ServerSpec{}
                               .primary(primary)
                               .degraded(degraded)
                               .dataset(ds)
                               .config(cfg)
                               .replicas(replicas)
                               .router(router));
  (void)many.run(trace);  // warm run: mints every replica's arenas + rings
  obs::begin_session();
  const std::uint64_t rings0 = obs::ring_allocs();
  const serve::RouterReport rep = many.run(trace);
  const obs::TraceSnapshot snapN = obs::end_session();
  const std::uint64_t steady_rings = obs::ring_allocs() - rings0;

  const bool payload_match =
      bitwise_equal(rep1.serve.outputs, rep.serve.outputs);
  if (!payload_match)
    gates->fail(name, "payloads differ between 1 and N workers per replica");
  const bool routing_match = rep1.routing_hash == plan.routing_hash &&
                             rep.routing_hash == plan.routing_hash;
  if (!routing_match)
    gates->fail(name, "runtime routing hash diverged from the plan");
  bool replica_sheds = true, replica_steady = true;
  for (std::size_t r = 0; r < replicas; ++r) {
    replica_sheds = replica_sheds &&
                    rep1.replicas[r].exec_shed_set_hash ==
                        rep1.replicas[r].plan_shed_set_hash &&
                    rep.replicas[r].exec_shed_set_hash ==
                        rep.replicas[r].plan_shed_set_hash;
    replica_steady = replica_steady && rep.replicas[r].steady_allocs == 0;
  }
  if (!replica_sheds)
    gates->fail(name, "a replica's shed set diverged from its plan row");
  if (!replica_steady)
    gates->fail(name, "a replica arena grew during the measured run");
  const bool fleet_shed =
      rep1.serve.slo.exec_shed_set_hash == plan.shed_set_hash &&
      rep.serve.slo.exec_shed_set_hash == plan.shed_set_hash;
  if (!fleet_shed)
    gates->fail(name, "fleet shed-set union diverged from the plan");
  const bool no_lost = rep1.serve.completed == plan.counters.served &&
                       rep.serve.completed == plan.counters.served;
  if (!no_lost) gates->fail(name, "a planned-served request was not delivered");
  std::size_t n_alive = 0, down_assigned = 0, downed = 0;
  for (std::size_t r = 0; r < replicas; ++r) {
    if (plan.alive[r]) {
      ++n_alive;
    } else {
      ++downed;
      down_assigned += rep.replicas[r].assigned;
    }
  }
  const bool rerouted = downed > 0 && down_assigned == 0 &&
                        plan.active.size() < plan.replicas.size();
  if (!rerouted)
    gates->fail(name, "the outage did not reroute around the downed replica");
  const bool autoscaled = plan.active.size() >= router.min_replicas &&
                          plan.active.size() <= n_alive;
  if (!autoscaled)
    gates->fail(name, "autoscaler activated an out-of-bounds replica count");
  const bool overloaded = rep.serve.slo.exec_shed > 0;
  if (!overloaded)
    gates->fail(name, "flash crowd did not shed any work fleet-wide");

  std::printf(
      "  [%s] %zu req, %zu replicas (%zu alive, %zu active), %zu "
      "workers/replica: served=%zu shed=%zu routing=%s vp99=%.0fus %s\n",
      name, rep.serve.requests, plan.replicas.size(), n_alive,
      plan.active.size(), workers, rep.serve.slo.served,
      rep.serve.slo.exec_shed, serve::hex64(rep.routing_hash).c_str(),
      rep.serve.slo.virtual_latency.p99_us,
      payload_match && routing_match && replica_sheds && replica_steady &&
              fleet_shed && no_lost && rerouted && autoscaled && overloaded
          ? "OK"
          : "GATE-FAIL");

  Json j = rep.to_json();
  j.set("backend", primary.name() + "+" + degraded.name());
  j.set("plan_routing_hash", serve::hex64(plan.routing_hash));
  j.set("plan_shed_set_hash", serve::hex64(plan.shed_set_hash));
  j.set("router_payload_match", payload_match);
  j.set("routing_deterministic", routing_match);
  j.set("replica_sheds_match", replica_sheds);
  j.set("replica_zero_allocs", replica_steady);
  j.set("fleet_shed_match", fleet_shed);
  j.set("no_lost_requests", no_lost);
  j.set("outage_rerouted", rerouted);
  j.set("autoscale_bounded", autoscaled);
  j.set("overload_exercised", overloaded);
  // Fleet causal oracle: kRoute per request, the ledger and the control
  // log, reconstructed from the plan.
  j.set("trace", trace_section(name, snap1, snapN,
                               serve::expected_causal_fingerprint(plan),
                               serve::expected_causal_event_count(plan),
                               steady_rings, trace_out, gates));
  return j;
}

/// One leg of the hot-swap scenario (DESIGN.md §11): a canary rollout under
/// the flash crowd, run at 1 worker and `workers` workers per replica with
/// the full trace ladder, then compared row-for-row against the two pinned
/// single-version reference runs. Gates:
///   * swap_payload_match     payloads, versions, and the provenance hash
///                            bitwise identical 1 vs N workers per replica
///   * zero_dropped_by_swap   exec shed-set fingerprint == the version-blind
///                            plan's (== the no-swap fleet's shed set)
///   * provenance_exact       every delivered row bitwise equals the pinned
///                            run of exactly the version the plan pinned it
///                            to — no mixed-version payloads
///   * verdict_exercised      promote leg: all replicas cut over, candidate
///                            payloads delivered; rollback leg: the breaker
///                            opened, the canary cut back, post-verdict
///                            admissions pinned to the incumbent
///   * swap_zero_allocs/packs prepack-before-cutover: the measured swap run
///                            grows no arena and packs/binarizes nothing
/// plus the §9 trace gates (fingerprint 1w == Nw == plan oracle, including
/// the kSwap/kCanary events).
Json run_swap_leg(const char* name, const char* backend_label,
                  serve::ServerSpec spec,
                  const std::vector<serve::Arrival>& trace,
                  std::size_t workers, serve::ServeConfig cfg,
                  const serve::ServeReport& pin_from,
                  const serve::ServeReport& pin_to, bool expect_rollback,
                  const std::string& trace_out, GateState* gates) {
  cfg.num_workers = 1;
  serve::ReplicaGroup one(spec.config(cfg));
  const serve::Plan plan = one.plan_trace(trace);
  obs::begin_session();
  const serve::RouterReport rep1 = one.run(trace);
  const obs::TraceSnapshot snap1 = obs::end_session();

  cfg.num_workers = workers;
  serve::ReplicaGroup many(spec.config(cfg));
  (void)many.run(trace);  // warm run: arenas + rings + every pinned backend
  const std::uint64_t packs0 = gemm::b_pack_count();
  const std::uint64_t bins0 = quant::binarize_count();
  const std::uint64_t bpacks0 = gemm::binary_pack_count();
  obs::begin_session();
  const std::uint64_t rings0 = obs::ring_allocs();
  const serve::RouterReport rep = many.run(trace);
  const obs::TraceSnapshot snapN = obs::end_session();
  const std::uint64_t steady_rings = obs::ring_allocs() - rings0;
  const std::uint64_t steady_packs = gemm::b_pack_count() - packs0;
  const std::uint64_t steady_bins = quant::binarize_count() - bins0;
  const std::uint64_t steady_bpacks = gemm::binary_pack_count() - bpacks0;

  const serve::SwapSummary& sw = rep.serve.swap;
  const bool payload_match =
      bitwise_equal(rep1.serve.outputs, rep.serve.outputs) &&
      rep1.serve.versions == rep.serve.versions &&
      rep1.serve.swap.version_hash == sw.version_hash;
  if (!payload_match)
    gates->fail(name, "payloads or provenance differ between 1 and N workers");

  // The overlay is version-blind: the swap must not change who was shed.
  const bool zero_dropped =
      rep.serve.slo.exec_shed_set_hash == plan.shed_set_hash &&
      rep.serve.slo.exec_shed_set_hash == pin_from.slo.exec_shed_set_hash;
  if (!zero_dropped)
    gates->fail(name, "the swap changed the shed set (dropped live traffic)");

  // Zero mixed-version payloads: row-for-row attribution to the pinned runs.
  bool provenance_exact = rep.serve.versions == plan.swap.version_of;
  std::size_t to_rows = 0;
  const std::size_t out_dim = rep.serve.outputs.shape()[1];
  for (std::size_t i = 0; i < trace.size() && provenance_exact; ++i) {
    const bool is_to = plan.swap.version_of[i] == plan.swap.to_version;
    const Tensor& want = is_to ? pin_to.outputs : pin_from.outputs;
    for (std::size_t j = 0; j < out_dim; ++j)
      provenance_exact =
          provenance_exact && rep.serve.outputs.at(i, j) == want.at(i, j);
    if (is_to && plan.decisions[i].served() &&
        (plan.decisions[i].mode == serve::ServeMode::kPrimary ||
         plan.decisions[i].mode == serve::ServeMode::kCanary))
      ++to_rows;
  }
  if (!provenance_exact)
    gates->fail(name, "a payload row does not match its pinned version");

  bool verdict_ok;
  if (expect_rollback) {
    // The breaker must have opened, cut the canary back, and pinned every
    // post-verdict admission to the incumbent.
    verdict_ok = sw.rolled_back && sw.breaker_opens >= 1 && sw.cutovers == 2;
    for (std::size_t i = 0; i < trace.size(); ++i)
      if (trace[i].t_us >= sw.verdict_us)
        verdict_ok = verdict_ok &&
                     plan.swap.version_of[i] == plan.swap.from_version;
    if (!verdict_ok)
      gates->fail(name, "faulty candidate did not roll back cleanly");
  } else {
    // Promotion must have cut every active replica over and actually moved
    // payloads onto the candidate.
    verdict_ok = !sw.rolled_back && sw.cutovers == plan.active.size() &&
                 sw.canary_faults == 0 && to_rows > 0;
    if (!verdict_ok)
      gates->fail(name, "clean candidate did not promote fleet-wide");
  }

  bool replica_steady = true;
  for (const auto& r : rep.replicas)
    replica_steady = replica_steady && r.steady_allocs == 0;
  if (!replica_steady)
    gates->fail(name, "a replica arena grew during the swap run");
  const bool zero_packs =
      steady_packs == 0 && steady_bins == 0 && steady_bpacks == 0;
  if (!zero_packs)
    gates->fail(name, "swap run packed or binarized weights in steady state");

  std::printf(
      "  [%s] %zu req, %zu workers/replica: %s at %lluus, canary %zu/%zu "
      "faults, %zu cutovers, versions=%s %s\n",
      name, rep.serve.requests, workers,
      sw.rolled_back ? "ROLLBACK" : "promote",
      static_cast<unsigned long long>(sw.verdict_us), sw.canary_faults,
      sw.canary_served, sw.cutovers, serve::hex64(sw.version_hash).c_str(),
      payload_match && zero_dropped && provenance_exact && verdict_ok &&
              replica_steady && zero_packs
          ? "OK"
          : "GATE-FAIL");
  const auto vrows = serve::version_report_rows(rep.serve);
  for (const auto& row : vrows)
    std::printf("    v%s: served=%s %s\n", row[0].c_str(), row[1].c_str(),
                row[2].c_str());

  Json j = rep.to_json();
  j.set("backend", std::string(backend_label));
  j.set("plan_shed_set_hash", serve::hex64(plan.shed_set_hash));
  j.set("plan_version_hash", serve::hex64(plan.swap.version_hash));
  j.set("swap_payload_match", payload_match);
  j.set("zero_dropped_by_swap", zero_dropped);
  j.set("provenance_exact", provenance_exact);
  j.set("verdict_exercised", verdict_ok);
  j.set("swap_zero_allocs", replica_steady);
  j.set("swap_zero_packs", zero_packs);
  j.set("steady_weight_packs", steady_packs);
  j.set("steady_binarizes", steady_bins);
  j.set("trace", trace_section(name, snap1, snapN,
                               serve::expected_causal_fingerprint(plan),
                               serve::expected_causal_event_count(plan),
                               steady_rings, trace_out, gates));
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gbo;
  CliParser cli("bench_serve",
                "Online micro-batching serving benchmark (BENCH_serve.json).");
  cli.add_flag("smoke", "Shrink the traces so CI finishes in seconds");
  cli.add_option("json", "Output JSON path", "BENCH_serve.json");
  cli.add_option("slo-json", "SLO-scenario output JSON path",
                 "BENCH_serve_slo.json");
  cli.add_option("router-json", "Router-scenario output JSON path",
                 "BENCH_serve_router.json");
  cli.add_option("swap-json", "Hot-swap-scenario output JSON path",
                 "BENCH_serve_swap.json");
  cli.add_option("requests", "Analytic-scenario trace length", "auto",
                 CliParser::Value::kInt);
  cli.add_option("rate", "Mean arrival rate, requests/s", "auto",
                 CliParser::Value::kNumber);
  cli.add_option("workers", "Serving worker count", "4",
                 CliParser::Value::kInt);
  cli.add_option("trace-out",
                 "Chrome trace-event JSON path prefix; writes "
                 "<prefix><scenario>.json per scenario (empty disables)",
                 "");
  if (!cli.parse(argc, argv)) return cli.exit_code();
  set_log_level(LogLevel::kWarn);

  const bool smoke = cli.get_bool("smoke");
  const std::string json_path = cli.get_string("json", "BENCH_serve.json");
  const std::string slo_json_path =
      cli.get_string("slo-json", "BENCH_serve_slo.json");
  const std::string router_json_path =
      cli.get_string("router-json", "BENCH_serve_router.json");
  const std::string swap_json_path =
      cli.get_string("swap-json", "BENCH_serve_swap.json");
  const std::int64_t workers_arg = cli.get_int("workers", 4);
  const std::int64_t requests_arg = cli.get_int("requests", smoke ? 240 : 2000);
  if (workers_arg < 1 || requests_arg < 1) {
    std::fprintf(stderr,
                 "bench_serve: --workers and --requests must be at least 1\n");
    return 2;
  }
  const auto workers = static_cast<std::size_t>(workers_arg);
  const auto requests = static_cast<std::size_t>(requests_arg);
  const double rate = cli.get_double("rate", smoke ? 6000.0 : 10000.0);
  const std::string trace_out = cli.get_string("trace-out", "");

  ThreadPool& pool = ThreadPool::instance();
  std::printf("bench_serve: %zu requests @ %.0f rps, %zu workers, "
              "%zu pool threads\n",
              requests, rate, workers, pool.num_threads());

  Json doc = Json::object();
  doc.set("bench", "serve");
  doc.set("smoke", smoke);
  doc.set("num_threads", pool.num_threads());
  doc.set("workers", workers);
  doc.set("binary_kernel", gemm::binary_kernel_name());
  doc.set("cpu_features", gemm::cpu_features());
  doc.set("trace_enabled", obs::runtime_enabled());
  GateState gates;

  // -- analytic backends over a binary-weight MLP ---------------------------
  models::MlpConfig mcfg;
  mcfg.in_features = smoke ? 32 : 64;
  mcfg.hidden = smoke ? std::vector<std::size_t>{64, 64}
                      : std::vector<std::size_t>{128, 128, 128};
  mcfg.num_classes = 10;
  models::Mlp model = models::build_mlp(mcfg);
  model.net->set_training(false);
  data::Dataset ds = random_dataset(256, mcfg.in_features, 41);

  serve::TrafficConfig tcfg;
  tcfg.num_requests = requests;
  tcfg.rate_rps = rate;
  tcfg.burst_factor = 3.0;
  tcfg.burst_duty = 0.3;
  tcfg.burst_period_s = 0.01;
  tcfg.seed = 5;
  const auto trace = serve::make_trace(tcfg, ds.size());
  Json tj = Json::object();
  tj.set("requests", requests);
  tj.set("rate_rps", rate);
  tj.set("burst_factor", tcfg.burst_factor);
  tj.set("burst_duty", tcfg.burst_duty);
  doc.set("traffic", tj);

  serve::BatchPolicy policy;
  policy.max_batch = 8;
  policy.max_wait_us = 200;

  {
    serve::AnalyticBackend clean(*model.net, /*stochastic=*/false);
    doc.set("analytic_clean",
            run_scenario("analytic_clean", clean, ds, trace, workers, policy,
                         /*seed=*/17, /*stochastic=*/false, trace_out,
                         &gates));
  }
  {
    Rng crng(53);
    xbar::LayerNoiseController ctrl(model.encoded, /*sigma=*/1.0,
                                    model.base_pulses(), crng);
    ctrl.attach();
    ctrl.set_enabled_all(true);
    // Run at a non-base pulse count so every request crosses the PLA
    // re-quantization (now snapped in place): the steady-state arena gate
    // covers the full GBO-optimized serving path, not just the base
    // encoding.
    ctrl.set_specs(std::vector<enc::EncodingSpec>(
        model.encoded.size(),
        enc::EncodingSpec{enc::Scheme::kThermometer,
                          model.base_pulses() - 2}));
    serve::AnalyticBackend noisy(*model.net, /*stochastic=*/true);
    doc.set("analytic_noisy",
            run_scenario("analytic_noisy", noisy, ds, trace, workers, policy,
                         /*seed=*/17, /*stochastic=*/true, trace_out,
                         &gates));
    ctrl.detach();
  }

  // -- conv serving over a reduced VGG9: the scenario whose per-request
  // weight packing the panel caches amortize to zero (an MLP's weights are
  // below the panel floor; conv layers always stream packed panels) -------
  {
    models::Vgg9Config vcfg;
    vcfg.in_channels = 3;
    vcfg.image_size = 8;
    vcfg.width = 8;
    vcfg.seed = 11;
    models::Vgg9 vgg = models::build_vgg9(vcfg);
    vgg.net->set_training(false);
    data::Dataset vds;
    vds.images = random_tensor(
        {64, vcfg.in_channels, vcfg.image_size, vcfg.image_size}, 47);
    vds.labels.assign(64, 0);

    serve::TrafficConfig vtraffic = tcfg;
    vtraffic.num_requests = smoke ? 96 : 400;
    vtraffic.rate_rps = smoke ? 2000.0 : 4000.0;
    vtraffic.seed = 9;
    const auto vtrace = serve::make_trace(vtraffic, vds.size());

    {
      serve::AnalyticBackend clean(*vgg.net, /*stochastic=*/false);
      doc.set("conv_clean",
              run_scenario("conv_clean", clean, vds, vtrace, workers, policy,
                           /*seed=*/19, /*stochastic=*/false, trace_out,
                           &gates));
    }
    {
      Rng crng(59);
      xbar::LayerNoiseController ctrl(vgg.encoded, /*sigma=*/1.0,
                                      vgg.base_pulses(), crng);
      ctrl.attach();
      ctrl.set_enabled_all(true);
      serve::AnalyticBackend noisy(*vgg.net, /*stochastic=*/true);
      doc.set("conv_noisy",
              run_scenario("conv_noisy", noisy, vds, vtrace, workers, policy,
                           /*seed=*/19, /*stochastic=*/true, trace_out,
                           &gates));
      ctrl.detach();
    }
  }

  // -- pulse-level backend over deployed crossbar hardware ------------------
  {
    models::MlpConfig pcfg;
    pcfg.in_features = 24;
    // Two hidden layers so fc2 is crossbar-encoded: the pulse scenario then
    // actually streams per-sample read/output noise through an engine.
    pcfg.hidden = {32, 32};
    pcfg.num_classes = 10;
    pcfg.seed = 21;
    models::Mlp pulse_model = models::build_mlp(pcfg);
    pulse_model.net->set_training(false);
    data::Dataset pds = random_dataset(128, pcfg.in_features, 43);

    xbar::HwDeployConfig hw_cfg;
    hw_cfg.sigma = 0.5;
    hw_cfg.device.read_noise_sigma = 0.05;
    hw_cfg.device.adc_bits = 8;
    hw_cfg.device.program_variation = 0.05;
    xbar::HardwareNetwork hw(*pulse_model.net, pulse_model.encoded, hw_cfg);

    serve::TrafficConfig ptraffic = tcfg;
    ptraffic.num_requests = smoke ? 96 : 400;
    ptraffic.rate_rps = smoke ? 2000.0 : 4000.0;
    ptraffic.seed = 7;
    const auto ptrace = serve::make_trace(ptraffic, pds.size());

    serve::PulseBackend pulse(hw);
    doc.set("pulse", run_scenario("pulse", pulse, pds, ptrace, workers,
                                  policy, /*seed=*/29, /*stochastic=*/true,
                                  trace_out, &gates));
  }

  // -- SLO control plane under a flash crowd with injected faults ----------
  // (DESIGN.md §7): pulse backend as primary, the analytic model over the
  // same network as the fidelity-ladder fallback. The scenario is fixed by
  // --smoke alone (independent of --requests/--rate) so the 1t and 4t CI
  // artifacts describe the identical (seed, trace, policy) tuple and
  // check_bench_gates.py can demand equal shed-set fingerprints across
  // them.
  Json slo_doc = Json::object();
  slo_doc.set("bench", "serve_slo");
  slo_doc.set("smoke", smoke);
  slo_doc.set("num_threads", pool.num_threads());
  slo_doc.set("workers", workers);
  slo_doc.set("binary_kernel", gemm::binary_kernel_name());
  slo_doc.set("cpu_features", gemm::cpu_features());
  slo_doc.set("trace_enabled", obs::runtime_enabled());
  {
    models::MlpConfig scfg;
    scfg.in_features = 24;
    scfg.hidden = {32, 32};  // fc2 crossbar-encoded: real pulse execution
    scfg.num_classes = 10;
    scfg.seed = 21;
    models::Mlp slo_model = models::build_mlp(scfg);
    slo_model.net->set_training(false);
    data::Dataset sds = random_dataset(128, scfg.in_features, 43);

    xbar::HwDeployConfig hw_cfg;
    hw_cfg.sigma = 0.5;
    hw_cfg.device.read_noise_sigma = 0.05;
    hw_cfg.device.adc_bits = 8;
    hw_cfg.device.program_variation = 0.05;
    xbar::HardwareNetwork hw(*slo_model.net, slo_model.encoded, hw_cfg);
    serve::PulseBackend primary(hw);
    serve::AnalyticBackend fallback(*slo_model.net, /*stochastic=*/false);

    serve::TrafficConfig straffic;
    straffic.num_requests = smoke ? 320 : 1200;
    straffic.rate_rps = 900.0;
    straffic.shape = serve::TraceShape::kFlashCrowd;
    straffic.flash_factor = 14.0;
    straffic.flash_start_s = smoke ? 0.05 : 0.2;
    straffic.flash_ramp_s = 0.005;
    straffic.flash_hold_s = smoke ? 0.02 : 0.05;
    straffic.high_fraction = 0.2;
    straffic.low_fraction = 0.3;
    straffic.seed = 101;
    const auto strace = serve::make_trace(straffic, sds.size());
    Json stj = Json::object();
    stj.set("requests", straffic.num_requests);
    stj.set("rate_rps", straffic.rate_rps);
    stj.set("flash_factor", straffic.flash_factor);
    stj.set("shape", "flash_crowd");
    slo_doc.set("traffic", stj);

    serve::ServeConfig scfg2;
    scfg2.batch = policy;
    scfg2.seed = 29;
    scfg2.slo.enabled = true;
    scfg2.slo.deadline_us = 15000;
    // Headroom covers the worst batch cost (50 + 8 * (800 + 100) = 7250),
    // so pop-time shedding guarantees zero late completions.
    scfg2.slo.completion_headroom_us = 9000;
    scfg2.slo.queue.capacity = 64;
    scfg2.slo.queue.on_full = serve::QueuePolicy::OnFull::kDropOldest;
    scfg2.slo.cost.batch_fixed_us = 50;
    scfg2.slo.cost.primary_us = 800;
    scfg2.slo.cost.degraded_us = 100;
    scfg2.slo.cost.retry_penalty_us = 100;
    scfg2.slo.ladder.degrade_depth = 8;
    scfg2.slo.ladder.shed_depth = 30;
    scfg2.slo.ladder.recover_depth = 2;
    scfg2.slo.ladder.shed_floor = serve::Priority::kNormal;
    scfg2.slo.retry.max_attempts = 2;
    scfg2.slo.retry.backoff_us = 50;
    scfg2.slo.breaker.failure_threshold = 3;
    scfg2.slo.breaker.cooldown_us = 30000;
    scfg2.slo.fault.enabled = true;
    scfg2.slo.fault.seed = 555;
    scfg2.slo.fault.transient_rate = 0.08;
    scfg2.slo.fault.outage_start_id = 30;  // pre-flash: hits the level-0 path
    scfg2.slo.fault.outage_len = 12;

    slo_doc.set("slo_flash",
                run_slo_scenario(primary, fallback, sds, strace, workers,
                                 scfg2, trace_out, &gates));
  }

  // -- multi-replica serving behind the deterministic router ---------------
  // (DESIGN.md §10): the slo_flash model deployed as N noisy pulse-level
  // replicas, flash crowd + one replica in outage. Like the SLO scenario the
  // shape is fixed by --smoke alone, so the 1t and 4t artifacts describe
  // the identical (seed, trace, policy, replicas) tuple and
  // check_bench_gates.py can demand equal routing and shed fingerprints
  // across them.
  Json router_doc = Json::object();
  router_doc.set("bench", "serve_router");
  router_doc.set("smoke", smoke);
  router_doc.set("num_threads", pool.num_threads());
  router_doc.set("workers", workers);
  router_doc.set("binary_kernel", gemm::binary_kernel_name());
  router_doc.set("cpu_features", gemm::cpu_features());
  router_doc.set("trace_enabled", obs::runtime_enabled());
  {
    models::MlpConfig rcfg;
    rcfg.in_features = 24;
    rcfg.hidden = {32, 32};
    rcfg.num_classes = 10;
    rcfg.seed = 21;
    models::Mlp router_model = models::build_mlp(rcfg);
    router_model.net->set_training(false);
    data::Dataset rds = random_dataset(128, rcfg.in_features, 43);

    xbar::HwDeployConfig hw_cfg;
    hw_cfg.sigma = 0.5;
    hw_cfg.device.read_noise_sigma = 0.05;
    hw_cfg.device.adc_bits = 8;
    hw_cfg.device.program_variation = 0.05;
    xbar::HardwareNetwork hw(*router_model.net, router_model.encoded, hw_cfg);
    serve::PulseBackend primary(hw);
    serve::AnalyticBackend fallback(*router_model.net, /*stochastic=*/false);

    serve::TrafficConfig rtraffic;
    rtraffic.num_requests = smoke ? 320 : 1200;
    rtraffic.rate_rps = 1600.0;
    rtraffic.shape = serve::TraceShape::kFlashCrowd;
    rtraffic.flash_factor = 14.0;
    rtraffic.flash_start_s = smoke ? 0.05 : 0.2;
    rtraffic.flash_ramp_s = 0.005;
    rtraffic.flash_hold_s = smoke ? 0.02 : 0.05;
    rtraffic.high_fraction = 0.2;
    rtraffic.low_fraction = 0.3;
    rtraffic.seed = 101;
    const auto rtrace = serve::make_trace(rtraffic, rds.size());
    Json rtj = Json::object();
    rtj.set("requests", rtraffic.num_requests);
    rtj.set("rate_rps", rtraffic.rate_rps);
    rtj.set("flash_factor", rtraffic.flash_factor);
    rtj.set("shape", "flash_crowd");
    router_doc.set("traffic", rtj);

    serve::ServeConfig rcfg2;
    rcfg2.batch = policy;
    rcfg2.seed = 29;
    rcfg2.slo.enabled = true;
    rcfg2.slo.deadline_us = 15000;
    rcfg2.slo.completion_headroom_us = 9000;
    rcfg2.slo.queue.capacity = 64;
    rcfg2.slo.queue.on_full = serve::QueuePolicy::OnFull::kDropOldest;
    rcfg2.slo.cost.batch_fixed_us = 50;
    rcfg2.slo.cost.primary_us = 800;
    rcfg2.slo.cost.degraded_us = 100;
    rcfg2.slo.ladder.degrade_depth = 8;
    rcfg2.slo.ladder.shed_depth = 30;
    rcfg2.slo.ladder.recover_depth = 2;
    rcfg2.slo.ladder.shed_floor = serve::Priority::kNormal;

    serve::RouterPolicy router;
    router.strategy = serve::RouterPolicy::Strategy::kHash;
    router.seed = 71;
    router.min_replicas = 1;
    router.scale_depth = 24;  // autoscale off the planned queue depth
    // Replica 1 is down for the whole run (fault id == replica index).
    router.fault.enabled = true;
    router.fault.outage_start_id = 1;
    router.fault.outage_len = 1;

    router_doc.set("replicas", std::size_t{3});
    router_doc.set("strategy", "hash");
    router_doc.set("router_flash",
                   run_router_scenario(primary, fallback, rds, rtrace,
                                       workers, rcfg2, router, /*replicas=*/3,
                                       trace_out, &gates));
  }
  // -- zero-downtime weight hot-swap under the flash crowd -----------------
  // (DESIGN.md §11): an incumbent/candidate pair of equal topology but
  // different weights behind a 3-replica fleet; the canary controller swaps
  // replica 0 mid-trace, judges the candidate through the breaker, then
  // promotes fleet-wide (clean leg) or rolls back (seeded always-faulty
  // leg). Shape fixed by --smoke alone so the 1t and 4t artifacts describe
  // the identical tuple and check_bench_gates.py can demand equal
  // provenance/shed/causal fingerprints across them.
  Json swap_doc = Json::object();
  swap_doc.set("bench", "serve_swap");
  swap_doc.set("smoke", smoke);
  swap_doc.set("num_threads", pool.num_threads());
  swap_doc.set("workers", workers);
  swap_doc.set("binary_kernel", gemm::binary_kernel_name());
  swap_doc.set("cpu_features", gemm::cpu_features());
  swap_doc.set("trace_enabled", obs::runtime_enabled());
  {
    models::MlpConfig wcfg;
    wcfg.in_features = 24;
    wcfg.hidden = {32, 32};
    wcfg.num_classes = 10;
    wcfg.seed = 21;
    models::Mlp incumbent_model = models::build_mlp(wcfg);
    incumbent_model.net->set_training(false);
    wcfg.seed = 77;  // same topology, different weights: rows prove versions
    models::Mlp candidate_model = models::build_mlp(wcfg);
    candidate_model.net->set_training(false);
    models::MlpConfig dcfg = wcfg;
    dcfg.hidden = {16};
    dcfg.seed = 22;
    models::Mlp degraded_model = models::build_mlp(dcfg);
    degraded_model.net->set_training(false);
    data::Dataset wds = random_dataset(128, wcfg.in_features, 43);

    serve::AnalyticBackend incumbent(*incumbent_model.net,
                                     /*stochastic=*/false);
    serve::AnalyticBackend candidate(*candidate_model.net,
                                     /*stochastic=*/false);
    serve::AnalyticBackend degraded(*degraded_model.net, /*stochastic=*/false);
    serve::ModelRegistry registry;
    const std::uint32_t v1 = registry.register_model(incumbent, "incumbent");
    const std::uint32_t v2 = registry.register_model(candidate, "candidate");

    serve::TrafficConfig wtraffic;
    wtraffic.num_requests = smoke ? 320 : 1200;
    wtraffic.rate_rps = 1600.0;
    wtraffic.shape = serve::TraceShape::kFlashCrowd;
    wtraffic.flash_factor = 14.0;
    wtraffic.flash_start_s = smoke ? 0.05 : 0.2;
    wtraffic.flash_ramp_s = 0.005;
    wtraffic.flash_hold_s = smoke ? 0.02 : 0.05;
    wtraffic.high_fraction = 0.2;
    wtraffic.low_fraction = 0.3;
    wtraffic.seed = 101;
    const auto wtrace = serve::make_trace(wtraffic, wds.size());
    Json wtj = Json::object();
    wtj.set("requests", wtraffic.num_requests);
    wtj.set("rate_rps", wtraffic.rate_rps);
    wtj.set("flash_factor", wtraffic.flash_factor);
    wtj.set("shape", "flash_crowd");
    swap_doc.set("traffic", wtj);

    serve::ServeConfig wcfg2;
    wcfg2.batch = policy;
    wcfg2.seed = 29;
    wcfg2.slo.enabled = true;
    wcfg2.slo.deadline_us = 15000;
    wcfg2.slo.completion_headroom_us = 9000;
    wcfg2.slo.queue.capacity = 64;
    wcfg2.slo.queue.on_full = serve::QueuePolicy::OnFull::kDropOldest;
    wcfg2.slo.cost.batch_fixed_us = 50;
    wcfg2.slo.cost.primary_us = 800;
    wcfg2.slo.cost.degraded_us = 100;
    wcfg2.slo.ladder.degrade_depth = 8;
    wcfg2.slo.ladder.shed_depth = 30;
    wcfg2.slo.ladder.recover_depth = 2;
    wcfg2.slo.ladder.shed_floor = serve::Priority::kNormal;

    serve::RouterPolicy wrouter;
    wrouter.strategy = serve::RouterPolicy::Strategy::kRoundRobin;
    wrouter.seed = 71;

    serve::SwapPolicy swap;
    swap.enabled = true;
    swap.from_version = v1;
    swap.to_version = v2;
    swap.start_us = 30000;  // mid-trace, before the flash crowd hits
    swap.canary_replica = 0;
    swap.canary_requests = 8;
    swap.breaker.failure_threshold = 3;
    swap.breaker.cooldown_us = 5000;
    swap_doc.set("replicas", std::size_t{3});
    swap_doc.set("swap_policy", [&] {
      Json sj = Json::object();
      sj.set("from_version", v1);
      sj.set("to_version", v2);
      sj.set("start_us", swap.start_us);
      sj.set("canary_replica",
             static_cast<std::size_t>(swap.canary_replica));
      sj.set("canary_requests", swap.canary_requests);
      sj.set("breaker_failure_threshold", swap.breaker.failure_threshold);
      return sj;
    }());

    const auto fleet_spec = [&](const serve::SwapPolicy* sp) {
      serve::ServerSpec s = serve::ServerSpec{}
                                .primary(incumbent)
                                .degraded(degraded)
                                .dataset(wds)
                                .config(wcfg2)
                                .replicas(3)
                                .router(wrouter)
                                .registry(registry);
      if (sp != nullptr) s.swap(*sp);
      return s;
    };

    // Pinned single-version reference runs (no swap): the whole trace on
    // the incumbent, and on the candidate. The overlay is version-blind,
    // so all plans share outcomes and the row comparison is exact.
    serve::ServeConfig pcfg = wcfg2;
    pcfg.num_workers = workers;
    serve::ReplicaGroup pin_from(fleet_spec(nullptr).config(pcfg));
    const serve::RouterReport rv1 = pin_from.run(wtrace);
    serve::ReplicaGroup pin_to(serve::ServerSpec{}
                                   .primary(candidate)
                                   .degraded(degraded)
                                   .dataset(wds)
                                   .config(pcfg)
                                   .replicas(3)
                                   .router(wrouter));
    const serve::RouterReport rv2 = pin_to.run(wtrace);

    const std::string backend_label =
        incumbent.name() + "->" + candidate.name();
    swap_doc.set("swap_flash",
                 run_swap_leg("swap_flash", backend_label.c_str(),
                              fleet_spec(&swap), wtrace, workers, wcfg2,
                              rv1.serve, rv2.serve,
                              /*expect_rollback=*/false, trace_out, &gates));

    serve::SwapPolicy faulty = swap;
    faulty.candidate_fault.enabled = true;
    faulty.candidate_fault.transient_rate = 1.0;  // candidate always fails
    swap_doc.set("swap_rollback",
                 run_swap_leg("swap_rollback", backend_label.c_str(),
                              fleet_spec(&faulty), wtrace, workers, wcfg2,
                              rv1.serve, rv2.serve,
                              /*expect_rollback=*/true, trace_out, &gates));
  }
  swap_doc.set("gates_ok", gates.ok);
  if (!swap_doc.write_file(swap_json_path)) {
    std::fprintf(stderr, "failed to write %s\n", swap_json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", swap_json_path.c_str());

  slo_doc.set("gates_ok", gates.ok);
  if (!slo_doc.write_file(slo_json_path)) {
    std::fprintf(stderr, "failed to write %s\n", slo_json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", slo_json_path.c_str());

  router_doc.set("gates_ok", gates.ok);
  if (!router_doc.write_file(router_json_path)) {
    std::fprintf(stderr, "failed to write %s\n", router_json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", router_json_path.c_str());

  doc.set("gates_ok", gates.ok);
  if (!doc.write_file(json_path)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  if (!gates.ok) {
    std::fprintf(stderr, "bench_serve: gate failure\n");
    return 1;
  }
  return 0;
}
