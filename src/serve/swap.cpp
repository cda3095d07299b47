#include "serve/swap.hpp"

#include "common/logging.hpp"
#include "serve/policy.hpp"

#include <algorithm>
#include <stdexcept>

namespace gbo::serve {

std::uint32_t ModelRegistry::register_model(const Backend& backend,
                                            std::string label) {
  std::lock_guard<std::mutex> lock(mu_);
  if (snaps_.size() >= 255)
    throw std::invalid_argument(
        "serve: ModelRegistry holds at most 255 versions (the causal trace "
        "folds the version into one byte)");
  auto snap = std::make_shared<ModelSnapshot>();
  snap->version = static_cast<std::uint32_t>(snaps_.size() + 1);
  snap->backend = &backend;
  snap->label = std::move(label);
  snaps_.push_back(std::move(snap));
  return snaps_.back()->version;
}

std::shared_ptr<const ModelSnapshot> ModelRegistry::snapshot(
    std::uint32_t version) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (version == 0 || version > snaps_.size()) return nullptr;
  return snaps_[version - 1];
}

std::uint32_t ModelRegistry::latest() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::uint32_t>(snaps_.size());
}

std::size_t ModelRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snaps_.size();
}

const SwapPlan& apply_swap(Plan& p, const std::vector<Arrival>& trace,
                           const SwapPolicy& policy) {
  SwapPlan& sp = p.swap;
  if (!policy.enabled) return sp;
  if (p.assignment.size() != trace.size())
    throw std::invalid_argument(
        "serve: apply_swap needs a routed plan of this trace (route_plan): "
        "the canary boundary is a replica");
  sp.enabled = true;
  sp.from_version = policy.from_version;
  sp.to_version = policy.to_version;
  sp.start_us = policy.start_us;

  // The canary boundary is a replica; an inactive choice falls back to the
  // first active replica so the rollout stays total (and deterministic).
  sp.canary_replica = policy.canary_replica;
  if (std::find(p.active.begin(), p.active.end(), sp.canary_replica) ==
      p.active.end()) {
    log_warn("serve: swap canary replica ",
             static_cast<std::size_t>(policy.canary_replica),
             " is not active; canarying replica ",
             static_cast<std::size_t>(p.active.front()), " instead");
    sp.canary_replica = p.active.front();
  }

  // Health evaluation: feed the first canary_requests primary-served
  // requests of the canary replica (global-id order, arrivals at or after
  // start_us) through the breaker on the virtual clock. The candidate's
  // deterministic fault stream and the optional virtual-latency SLO are the
  // failure signal; the first breaker open is the rollback verdict and ends
  // the evaluation (and the canary window) at that request's completion.
  const FaultInjector candidate(policy.candidate_fault);
  CircuitBreaker breaker(policy.breaker);
  sp.verdict_us = sp.start_us;
  for (std::size_t id = 0; id < trace.size(); ++id) {
    if (sp.canary_served >= policy.canary_requests) break;
    if (p.assignment[id] != sp.canary_replica) continue;
    if (trace[id].t_us < sp.start_us) continue;
    const Decision& d = p.decisions[id];
    if (!d.served() || d.mode != ServeMode::kPrimary) continue;
    const std::uint64_t now = d.v_done_us;
    bool fail = candidate.fails(id, 0);
    if (policy.canary_latency_slo_us > 0 &&
        d.v_done_us - trace[id].t_us > policy.canary_latency_slo_us) {
      fail = true;
      sp.latency_breach = true;
    }
    (void)breaker.allow(now);
    if (fail) {
      breaker.record_failure(now);
      ++sp.canary_faults;
    } else {
      breaker.record_success(now);
    }
    ++sp.canary_served;
    sp.verdict_us = now;
    if (breaker.opens() > 0) {
      sp.rolled_back = true;
      break;
    }
  }
  sp.breaker_opens = breaker.opens();
  // No evidence is no promotion: with no canary request evaluated (none
  // primary-served on the canary replica at or after start_us), the
  // rollout rolls back at start_us instead of cutting every replica over.
  if (sp.canary_served == 0) sp.rolled_back = true;

  // The cutover schedule: the canary first, then — at the verdict — either
  // every other active replica forward or the canary back.
  sp.cutovers.push_back({sp.start_us, sp.canary_replica, sp.to_version});
  if (sp.rolled_back) {
    sp.cutovers.push_back({sp.verdict_us, sp.canary_replica, sp.from_version});
  } else {
    for (const std::uint8_t r : p.active)
      if (r != sp.canary_replica)
        sp.cutovers.push_back({sp.verdict_us, r, sp.to_version});
  }

  // Pin every request to the version current for its replica at admission
  // and stamp it into the ledger. Canary-window primary decisions become
  // ServeMode::kCanary (the fourth mode: full fidelity, candidate version);
  // outcomes, virtual times, and the shed set are untouched by construction.
  PlanCounters& canary_row = p.replicas[sp.canary_replica].counters;
  sp.version_of.resize(trace.size());
  std::vector<std::pair<std::uint64_t, std::uint8_t>> provenance;
  provenance.reserve(trace.size());
  for (std::size_t id = 0; id < trace.size(); ++id) {
    const std::uint64_t t = trace[id].t_us;
    const bool canary = p.assignment[id] == sp.canary_replica;
    std::uint32_t v;
    if (t < sp.start_us)
      v = sp.from_version;
    else if (t < sp.verdict_us)
      v = canary ? sp.to_version : sp.from_version;
    else
      v = sp.rolled_back ? sp.from_version : sp.to_version;
    sp.version_of[id] = v;
    provenance.emplace_back(id, static_cast<std::uint8_t>(v));
    Decision& d = p.decisions[id];
    d.version = v;
    const bool canary_window = canary && t >= sp.start_us && t < sp.verdict_us;
    if (canary_window && d.served() && d.mode == ServeMode::kPrimary) {
      d.mode = ServeMode::kCanary;
      for (PlanCounters* c : {&p.counters, &canary_row}) {
        --c->served_primary;
        ++c->served_canary;
      }
    }
  }
  sp.version_hash = shed_set_fingerprint(provenance);

  // The swap trajectory joins the control log the runtime replays.
  using obs::EventType;
  for (const SwapCutover& c : sp.cutovers)
    p.control.push_back({c.replica, static_cast<std::uint8_t>(EventType::kSwap),
                         static_cast<std::uint16_t>(c.version), c.at_us});
  p.control.push_back({sp.canary_replica,
                       static_cast<std::uint8_t>(EventType::kCanary),
                       static_cast<std::uint16_t>(sp.rolled_back ? 0 : 1),
                       sp.verdict_us});
  return sp;
}

}  // namespace gbo::serve
