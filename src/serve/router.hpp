// Sharded multi-replica serving behind a deterministic router (DESIGN.md
// §10).
//
// A ReplicaGroup places N replicas of a deployed backend pair — each
// replica with its own RequestQueue and worker set, all driven by the one
// serving executor (serve/server.hpp) — behind a router. Scale-out never
// buys back the determinism the single-replica runtime guarantees, because
// every routing decision is planned on the virtual clock before a
// wall-clock microsecond elapses:
//
//   * the routing function is pure in (seed, request id, policy, active
//     set) — round-robin striping or seeded hashing over the active
//     replicas (serve/policy.hpp RouterPolicy);
//   * replica liveness comes from the PR 6 fault injector with the replica
//     index as the fault id, so an outage window deterministically removes
//     a replica from the active set and the reroute it forces is part of
//     the plan, not a runtime race;
//   * each replica is a virtual lane of the SLO planner: route_plan()
//     (serve/policy.hpp) runs the §7 virtual-clock simulation over each
//     replica's share of the trace, writing into the one fleet ledger by
//     global request id, so per-replica shed sets, ladder trajectories,
//     and fault routing are bitwise identical at any worker count;
//   * queue-depth autoscaling is driven by the planner's own metrics: the
//     router activates the smallest replica count whose planned
//     per-replica max_virtual_depth stays within RouterPolicy::scale_depth
//     (and whose ladder never reaches the shed level) — replicas admit
//     work only when the planner says so;
//   * all replicas share the payload seed, and payloads depend only on
//     (seed, request id) — so a reroute (outage, autoscale step) can move
//     a request between replicas without changing a single output bit;
//   * the causal trace (DESIGN.md §9) gains one kRoute event per request
//     (id, replica, active count); the plan's one oracle covers the whole
//     fleet and is gated against the runtime's emitted events.
#pragma once

#include "serve/server.hpp"

#include <cstdint>
#include <vector>

namespace gbo::serve {

/// Per-replica accounting of a router run; plan-side fields come from the
/// plan's replica row, exec-side fields from what the replica's workers
/// actually did.
struct ReplicaStats {
  bool alive = true;
  bool active = false;
  std::size_t assigned = 0;        // requests routed here (plan)
  std::size_t delivered = 0;       // payload rows written (exec)
  std::size_t shed = 0;            // exec shed entries (admission + pop)
  std::uint64_t plan_shed_set_hash = 0;
  std::uint64_t exec_shed_set_hash = 0;  // must equal plan_shed_set_hash
  std::size_t max_virtual_depth = 0;
  int max_ladder_level = 0;
  std::size_t steady_allocs = 0;   // arena growth across the replica's run
};

/// Everything one ReplicaGroup::run produced: the aggregate ServeReport
/// (outputs indexed by global request id, fleet SloSummary) plus the
/// routing ledger and per-replica stats.
struct RouterReport {
  ServeReport serve;
  std::size_t total_replicas = 0;
  std::size_t active_replicas = 0;
  std::uint64_t routing_hash = 0;  // == Plan::routing_hash
  std::vector<ReplicaStats> replicas;

  Json to_json() const;
};

/// N replicas behind per-replica queues and worker sets, executed by one
/// flat worker pool (1 producer block + N * num_workers worker blocks — the
/// pool does not nest). The same executor runs a single InferenceServer as
/// a group of one. Constructed from the same ServerSpec as the
/// single-replica path:
///
///   ReplicaGroup group(ServerSpec{}.primary(b).degraded(d).dataset(ds)
///                          .config(cfg).replicas(4).router(policy));
///
/// Requires cfg.slo.enabled (routing decisions live on the virtual clock).
class ReplicaGroup {
 public:
  explicit ReplicaGroup(const ServerSpec& spec);

  std::size_t num_replicas() const { return exec_.num_replicas(); }

  /// Warms every replica (arena sizing, cache prepack, mode freeze).
  void warmup() { exec_.warmup(); }

  /// The plan run() would execute for this trace (pure; exposed so tests
  /// and benches can compare the execution against its oracle).
  Plan plan_trace(const std::vector<Arrival>& trace) const;

  /// Routes and serves the trace to completion. Payloads, per-replica shed
  /// sets, and the routing assignment are bitwise identical at any worker
  /// count and equal to plan_trace()'s ledger.
  RouterReport run(const std::vector<Arrival>& trace);

 private:
  detail::Executor exec_;
  RouterPolicy router_;
  SwapPolicy swap_;
};

}  // namespace gbo::serve
