// Live model versioning and zero-downtime hot swap (DESIGN.md §11).
//
// The paper's premise is that crossbar weights are re-written over a
// device's life: NIA retraining and sigma recalibration produce new weight
// states that must reach deployed hardware. This module makes that operable
// under live traffic:
//
//   * ModelRegistry — immutable, refcounted model snapshots with
//     monotonically increasing version ids. A serving replica pins every
//     snapshot it may execute (shared_ptr) at warmup, so a version stays
//     alive for as long as any in-flight request is pinned to it and the
//     registry never mutates a snapshot after registration.
//   * SwapPolicy — the rollout schedule: cut one canary replica over to the
//     candidate version at a virtual instant, judge its health through the
//     §7 circuit breaker (deterministic candidate fault stream + optional
//     virtual-latency SLO), then either roll every remaining replica
//     forward or roll the canary back.
//   * apply_swap — the planner's last stage, a pure overlay on a routed
//     Plan (serve/policy.hpp). The virtual cost model is version-blind (a
//     candidate serves at primary cost), so the swap cannot perturb
//     admission, shedding, batching, or routing: the overlay only stamps
//     each request's pinned version, rewrites canary-window primary
//     decisions to ServeMode::kCanary, and logs the cutover schedule and
//     verdict onto the plan's control log. Everything — swap schedule,
//     canary verdict, per-request version assignment — is a pure function
//     of (trace, policies) and bitwise identical at any worker count.
//
// Pinning rule: a request executes on the version that was current for its
// replica at its ADMISSION instant (arrival on the virtual clock), no
// matter when it is popped. A cutover that lands while a request is queued
// must not move it — that is what "zero mixed-version payloads" means: the
// payload of request id is attributable to exactly one registered version,
// and bitwise equal to a run that served the whole trace pinned to that
// version at the same fidelity.
#pragma once

#include "serve/backend.hpp"
#include "serve/fault.hpp"
#include "serve/request.hpp"

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace gbo::serve {

struct Plan;  // serve/policy.hpp

/// One immutable registered model. The backend reference is borrowed (the
/// caller keeps the model alive, exactly like ServerSpec's backends); the
/// snapshot object itself is what the refcount protects — lookups hand out
/// shared_ptr so a version cannot be dropped while a replica still pins it.
struct ModelSnapshot {
  std::uint32_t version = 0;  // dense, monotonically increasing from 1
  const Backend* backend = nullptr;
  std::string label;
};

/// Append-only registry of model snapshots. Version ids are dense
/// (1, 2, 3, ...) so a replica can pin the whole registry into a flat
/// vector and resolve a request's version without locks on the hot path.
/// Thread-safe: register_model and lookups may race.
class ModelRegistry {
 public:
  /// Registers a new snapshot and returns its version id (>= 1). The
  /// backend must outlive the registry; versions above 255 are rejected
  /// (the causal trace folds the version into one byte, DESIGN.md §11).
  std::uint32_t register_model(const Backend& backend, std::string label);

  /// The snapshot for `version`, or nullptr when unregistered. The returned
  /// shared_ptr is the pin: hold it for as long as the version may execute.
  std::shared_ptr<const ModelSnapshot> snapshot(std::uint32_t version) const;

  bool has(std::uint32_t version) const { return snapshot(version) != nullptr; }
  /// Highest registered version id; 0 when empty.
  std::uint32_t latest() const;
  std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<const ModelSnapshot>> snaps_;
};

/// The rollout schedule and health-check policy for one canary swap.
struct SwapPolicy {
  bool enabled = false;
  std::uint32_t from_version = 0;  // version serving when the trace starts
  std::uint32_t to_version = 0;    // candidate being rolled out
  /// Virtual instant the canary replica cuts over to to_version.
  std::uint64_t start_us = 0;
  /// Replica that canaries the candidate. Must be active; an inactive
  /// choice deterministically falls back to the first active replica.
  std::uint8_t canary_replica = 0;
  /// Canary-served primary requests evaluated before the verdict (the
  /// breaker may cut the evaluation short by opening).
  std::size_t canary_requests = 16;
  /// Virtual-latency health threshold on canary-served requests; a served
  /// request whose virtual latency exceeds it counts as a health failure.
  /// 0 disables the latency check.
  std::uint64_t canary_latency_slo_us = 0;
  /// Health-check breaker (PR 6 semantics on the virtual clock): the
  /// rollout rolls back the moment the breaker opens over the canary's
  /// health stream, and promotes if it never does over at least one
  /// evaluated canary request.
  BreakerPolicy breaker;
  /// Deterministic fault stream attributed to the candidate version (pure
  /// in (seed, request id)): fails(id, 0) on a canary-served request is a
  /// health failure. This is how a seeded faulty candidate exercises the
  /// rollback path in tests and benches.
  FaultConfig candidate_fault;
};

/// One planned replica cutover.
struct SwapCutover {
  std::uint64_t at_us = 0;      // virtual instant
  std::uint8_t replica = 0;
  std::uint32_t version = 0;    // version the replica serves from at_us on
};

/// The planned swap trajectory: pure in (trace, router plan, policy).
struct SwapPlan {
  bool enabled = false;
  std::uint32_t from_version = 0;
  std::uint32_t to_version = 0;
  std::uint8_t canary_replica = 0;  // after the active-set fallback
  std::uint64_t start_us = 0;
  /// Virtual instant the verdict lands: v_done of the canary request that
  /// decided it (breaker open => rollback; evaluation exhausted without an
  /// open => promote). start_us when nothing was canary-served, and then
  /// the verdict is a rollback: no evidence, no promotion.
  std::uint64_t verdict_us = 0;
  bool rolled_back = false;
  std::size_t canary_served = 0;   // health-evaluated canary requests
  std::size_t canary_faults = 0;   // health failures among them
  std::size_t breaker_opens = 0;
  bool latency_breach = false;     // any failure came from the latency SLO
  std::vector<SwapCutover> cutovers;
  /// Pinned version per global request id (admission rule above).
  std::vector<std::uint32_t> version_of;
  /// FNV-1a over (id, version) pairs in id order — the version-provenance
  /// fingerprint the gates compare across worker counts and artifacts.
  std::uint64_t version_hash = 0;
};

/// Computes the swap trajectory for a routed plan and stamps it into the
/// ledger: Decision::version per request, canary-window primary decisions
/// rewritten to ServeMode::kCanary (served_primary/served_canary moved to
/// match, fleet-wide and on the canary's replica row), and one kSwap per
/// cutover (id=replica, a=version, arg=virtual us) plus the kCanary verdict
/// (id=canary replica, a=1 promote / 0 rollback, arg=verdict us) appended
/// to the control log. Outcomes, virtual times, the shed set and the
/// routing are untouched — the cost model is version-blind by design.
/// Applied once per plan. Throws std::invalid_argument when `p` carries no
/// routing assignment for the trace (the canary boundary is a replica).
/// Returns p.swap.
const SwapPlan& apply_swap(Plan& p, const std::vector<Arrival>& trace,
                           const SwapPolicy& policy);

}  // namespace gbo::serve
