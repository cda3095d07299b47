// The SLO control plane: admission control, deadlines, priority shedding,
// a fidelity ladder, and fault routing — decided on a virtual clock so the
// decision ledger is a pure function of (trace, policy), independent of
// worker count, pool size, and wall-clock jitter (DESIGN.md §7).
//
// Why a virtual clock: the serving determinism contract (DESIGN.md §4)
// promises bitwise-identical payloads at any worker count, and this PR
// extends it to *which requests were shed or degraded*. Wall-clock shedding
// can never satisfy that — a 1-worker drain and a 4-worker race see
// completely different clocks. Instead, `plan()` runs a deterministic
// discrete-event simulation of the serving loop over the arrival trace:
// virtual executors ("lanes") with a configured per-mode cost model stand
// in for the worker pool, and every control decision — bounded-queue
// admission, deadline shedding, ladder transitions, retry accounting, and
// circuit-breaker routing — is taken at virtual flush times. The simulation
// drives the *real* RequestQueue implementation (try_pop_batch under an
// explicit now), so planner decisions and runtime queue mechanics share one
// code path. The real server then executes the plan: planned-shed requests
// are still pushed and diverted at pop time (exercising the shed mechanism),
// planned-rejected requests are bounced at admission, and fault/retry
// outcomes are re-derived live from the same seeded FaultInjector — by
// construction they agree with the plan.
//
// The fidelity ladder: level 0 serves every request on the primary backend
// (e.g. pulse-level hardware); level 1 (queue depth >= degrade_depth) steps
// every batch down to the degraded backend (e.g. the analytic model);
// level 2 (depth >= shed_depth) additionally sheds everything below the
// priority floor at pop time. The ladder steps back down to level 0 when
// depth recovers to recover_depth (hysteresis, so it cannot flap on every
// batch). Mode is recorded per request.
//
// Deadline semantics: a request's deadline is arrival + deadline_us on the
// virtual clock. At pop time the planner sheds requests whose deadline
// falls inside `completion_headroom_us` of the flush instant — requests
// that could not finish in time are dropped *before* wasting backend work,
// which is what makes "zero late successes" a policy guarantee rather than
// an aspiration. Any request that still completes past its deadline
// (headroom configured too small) is counted late and not reported as an
// in-SLO success.
#pragma once

#include "obs/trace.hpp"
#include "serve/fault.hpp"
#include "serve/metrics.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"
#include "serve/swap.hpp"

#include <array>
#include <cstdint>
#include <vector>

namespace gbo::serve {

/// Virtual service-cost model (microseconds on the virtual clock). A batch
/// of n requests in mode m costs batch_fixed_us + n * per-request cost of
/// m, plus retry_penalty_us per failed primary attempt.
struct CostModel {
  std::uint64_t batch_fixed_us = 50;
  std::uint64_t primary_us = 400;
  std::uint64_t degraded_us = 80;
  std::uint64_t retry_penalty_us = 100;
};

/// Fidelity-ladder thresholds on virtual queue depth, with hysteresis.
struct LadderPolicy {
  std::size_t degrade_depth = 16;  // level >= 1 when depth reaches this
  std::size_t shed_depth = 64;     // level 2 when depth reaches this
  std::size_t recover_depth = 4;   // back to level 0 at or below this
  /// Lowest priority still served at ladder level 2 (everything below the
  /// floor is shed as kOverload).
  Priority shed_floor = Priority::kHigh;
};

/// Bounded retry against transient primary faults. backoff_us is real wall
/// time slept by the worker between attempts; the virtual clock charges
/// retry_penalty_us per failed attempt instead.
struct RetryPolicy {
  std::size_t max_attempts = 3;
  std::uint64_t backoff_us = 100;
};

struct SloPolicy {
  /// Off (the default), plan() ignores every field below and returns the
  /// trivial ledger: every request admitted and served on the primary at
  /// full fidelity, with no deadline, virtual clock, or transitions.
  bool enabled = false;
  /// Per-request deadline (virtual us after arrival); 0 disables deadlines.
  std::uint64_t deadline_us = 0;
  /// Shed-at-pop horizon: a request is shed when its deadline is within
  /// this margin of the virtual flush instant. Set it to at least the worst
  /// batch cost to guarantee zero late successes.
  std::uint64_t completion_headroom_us = 0;
  QueuePolicy queue;          // admission bound (0 = unbounded)
  std::size_t virtual_lanes = 1;  // virtual executors (NOT the worker count)
  CostModel cost;
  LadderPolicy ladder;
  RetryPolicy retry;
  BreakerPolicy breaker;
  FaultConfig fault;
};

/// Deterministic replica routing (DESIGN.md §10). The routing function is
/// pure in (seed, request id, policy, active-replica set): kRoundRobin
/// striping or seeded hashing over the active replicas. Replica liveness
/// comes from the PR 6 fault injector with the replica index as the fault
/// id, so outages — and the reroute they force — are part of the plan, not
/// a runtime race.
struct RouterPolicy {
  enum class Strategy : std::uint8_t { kRoundRobin = 0, kHash = 1 };
  Strategy strategy = Strategy::kRoundRobin;
  /// Autoscale floor: never activate fewer than this many replicas.
  std::size_t min_replicas = 1;
  /// Queue-depth autoscale target: the router activates the smallest
  /// replica count whose planned per-replica max_virtual_depth stays at or
  /// below this (and whose ladder never sheds). 0 disables autoscaling —
  /// every alive replica stays active.
  std::size_t scale_depth = 0;
  /// Seed of the kHash routing stream (independent of the payload seed).
  std::uint64_t seed = 1;
  /// Replica-outage model: replica r is down when
  /// FaultInjector(fault).in_outage(r). Disabled by default.
  FaultConfig fault;
};

/// One request's planned outcome.
struct Decision {
  enum class Outcome : std::uint8_t {
    kServed = 0,
    kRejected = 1,      // admission bound, kRejectNew (or outranked arrival)
    kEvicted = 2,       // admission bound, kDropOldest victim
    kShedExpired = 3,   // deadline (un)meetable at pop
    kShedOverload = 4,  // ladder level 2, below the priority floor
  };
  Outcome outcome = Outcome::kServed;
  ServeMode mode = ServeMode::kPrimary;  // meaningful when served
  Priority priority = Priority::kNormal;
  std::uint8_t attempts = 0;   // failed primary attempts before the outcome
  bool late = false;           // served but past its deadline (counted, not
                               // an in-SLO success)
  std::uint64_t v_pop_us = 0;  // virtual flush instant
  std::uint64_t v_done_us = 0; // virtual completion
  std::uint64_t deadline_us = 0;
  /// Model version pinned at admission (DESIGN.md §11). The simulation
  /// leaves 0 (the primary backend); apply_swap() stamps registry versions.
  std::uint32_t version = 0;

  bool served() const { return outcome == Outcome::kServed; }
  bool shed() const { return !served(); }
};

/// Aggregates over a plan; every field is deterministic in (trace, policy).
struct PlanCounters {
  std::size_t served = 0;
  std::size_t served_primary = 0;
  std::size_t served_canary = 0;  // full fidelity on a swap candidate version
  std::size_t degraded_ladder = 0;
  std::size_t degraded_breaker = 0;
  std::size_t degraded_fallback = 0;
  std::size_t shed_expired = 0;
  std::size_t shed_overload = 0;
  std::size_t rejected = 0;
  std::size_t evicted = 0;
  std::size_t retried_requests = 0;  // served after >= 1 failed attempt
  std::size_t faults_injected = 0;   // total failed primary attempts
  std::size_t late = 0;              // served past deadline
  std::size_t breaker_opens = 0;
  std::size_t ladder_transitions = 0;
  int final_ladder_level = 0;
  int max_ladder_level = 0;
  std::size_t max_virtual_depth = 0;
  std::size_t virtual_batches = 0;

  /// Folds a sibling replica's counters in: sums, with the ladder levels
  /// and max_virtual_depth maxed.
  PlanCounters& operator+=(const PlanCounters& o);
};

/// The decision ledger of one trace (DESIGN.md §7, §10, §11), built by
/// the planner's stages: routing (route_plan), the per-replica
/// virtual-clock simulation, and the optional hot-swap overlay
/// (apply_swap). Pure in its inputs: same inputs, identical plan.
struct Plan {
  /// One replica's slice of the ledger: what the autoscaler and
  /// ReplicaStats read.
  struct Replica {
    std::size_t assigned = 0;  // requests routed here
    PlanCounters counters;
    /// FNV-1a over this replica's non-served (id, outcome) pairs.
    std::uint64_t shed_set_hash = 0;
  };

  std::vector<Decision> decisions;  // index = global request id
  /// assignment[id] = replica serving request id (every request routes,
  /// including ones its replica then bounces at admission). Empty when
  /// unrouted (plan()): then neither the oracle nor the runtime emits kRoute.
  std::vector<std::uint8_t> assignment;
  std::vector<std::uint8_t> alive;   // per-replica liveness (outage model)
  std::vector<std::uint8_t> active;  // replicas receiving traffic, ascending
  /// FNV-1a over (id, replica) pairs in id order; 0 when unrouted.
  std::uint64_t routing_hash = 0;
  std::vector<Replica> replicas;  // index = replica
  /// Fleet counters: sums, with max_virtual_depth / ladder levels maxed.
  PlanCounters counters;
  /// The control log: ladder changes and breaker opens (replica-major
  /// sequence ids), then the swap cutovers and canary verdict — each tuple
  /// exactly the causal event the runtime replays for it (DESIGN.md §9).
  std::vector<obs::CausalTuple> control;
  LatencyStats virtual_latency;     // served requests, virtual clock
  std::array<LatencyStats, kNumPriorities> virtual_by_priority;
  /// FNV-1a over the (id, outcome) pairs of every non-served request in id
  /// order — the shed-set fingerprint the determinism gates compare.
  std::uint64_t shed_set_hash = 0;
  SwapPlan swap;  // hot-swap overlay; disabled unless apply_swap() ran
};

/// The unrouted planner: one replica, no assignment. Pure: same
/// (trace, slo, batch) always yields the identical plan. A disabled policy
/// yields the trivial ledger (see SloPolicy::enabled), whose causal oracle
/// is one (id, kAdmit, 0, 0) and one (id, kDeliver, 0, 0) per request.
Plan plan(const std::vector<Arrival>& trace, const SloPolicy& slo,
          const BatchPolicy& batch);

/// The routed planner (DESIGN.md §10): liveness under the router's outage
/// model, queue-depth autoscaling, the routing assignment, and every
/// replica's control decisions. Throws std::invalid_argument when
/// `replicas` exceeds 255 (the assignment is a byte per request).
Plan route_plan(const std::vector<Arrival>& trace, const SloPolicy& slo,
                const BatchPolicy& batch, const RouterPolicy& router,
                std::size_t replicas);

/// The deterministic routing function: which member of `active` (ascending
/// replica indices) serves request `id`.
std::uint8_t route_replica(const RouterPolicy& router, std::uint64_t id,
                           const std::vector<std::uint8_t>& active);

/// FNV-1a fingerprint of a shed set given as (id, outcome-code) pairs in
/// ascending id order; shared by the planner and the runtime's
/// execution-side accounting.
std::uint64_t shed_set_fingerprint(
    const std::vector<std::pair<std::uint64_t, std::uint8_t>>& shed);

/// ShedReason a non-served planned outcome maps to (kNone for kServed);
/// the server stamps it on the requests it pre-marks for pop-time shedding.
ShedReason shed_reason(Decision::Outcome outcome);

/// The causal-trace oracle (DESIGN.md §9): the exact fingerprint / event
/// count the runtime's causal event stream must reproduce when executing
/// this plan. Derived from the ledger alone — kRoute per request iff the
/// plan carries an assignment, admission verdicts, pop-time sheds, retry
/// attempts, delivery modes and versions with virtual completion times, and
/// the control log verbatim — never from anything the workers did, which
/// is what gives the trace gate independent teeth.
std::uint64_t expected_causal_fingerprint(const Plan& p);
std::size_t expected_causal_event_count(const Plan& p);

}  // namespace gbo::serve
