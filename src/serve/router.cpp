#include "serve/router.hpp"

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "obs/trace.hpp"

#include <algorithm>
#include <array>

namespace gbo::serve {
namespace {

// Liveness under the outage model: replica r is down when the router's
// fault injector places r inside its outage window. A fleet with every
// replica down cannot route at all; replica 0 is kept up with a warning so
// the plan stays total (the SLO ladder still sheds what one replica cannot
// absorb).
std::vector<std::uint8_t> alive_mask(const RouterPolicy& router,
                                     std::size_t n) {
  std::vector<std::uint8_t> alive(n, 1);
  const FaultInjector injector(router.fault);
  bool any = false;
  for (std::size_t r = 0; r < n; ++r) {
    alive[r] = injector.in_outage(r) ? 0 : 1;
    any = any || alive[r] != 0;
  }
  if (!any) {
    log_warn("serve: router outage model downs every replica; keeping "
             "replica 0 up");
    alive[0] = 1;
  }
  return alive;
}

}  // namespace

std::uint8_t route_replica(const RouterPolicy& router, std::uint64_t id,
                           const std::vector<std::uint8_t>& active) {
  const std::size_t k = active.size();
  if (router.strategy == RouterPolicy::Strategy::kRoundRobin)
    return active[static_cast<std::size_t>(id % k)];
  // Seeded hash routing on the counter-fork contract (DESIGN.md §3): the
  // stream depends only on (router seed, request id), never on arrival
  // order or the worker observing it.
  Rng h = Rng(router.seed).fork(id);
  return active[static_cast<std::size_t>(h() % k)];
}

RouterPlan route_plan(const std::vector<Arrival>& trace, const SloPolicy& slo,
                      const BatchPolicy& batch, const RouterPolicy& router,
                      std::size_t replicas) {
  RouterPlan rp;
  rp.total_replicas = std::max<std::size_t>(1, replicas);
  rp.alive = alive_mask(router, rp.total_replicas);

  std::vector<std::uint8_t> alive_list;
  for (std::size_t r = 0; r < rp.total_replicas; ++r)
    if (rp.alive[r] != 0) alive_list.push_back(static_cast<std::uint8_t>(r));
  const std::size_t n_alive = alive_list.size();
  const std::size_t min_k =
      std::min(std::max<std::size_t>(1, router.min_replicas), n_alive);

  // Queue-depth autoscaling off the planner's own metrics: activate the
  // smallest replica count whose planned per-replica max_virtual_depth
  // stays within scale_depth and whose ladder never reaches the shed
  // level. scale_depth == 0 disables scaling (all alive replicas active).
  // Candidates grow the active set as a prefix of the alive list, so the
  // chosen assignment is reproducible from (trace, policy) alone.
  for (std::size_t k = router.scale_depth == 0 ? n_alive : min_k;; ++k) {
    rp.active.assign(alive_list.begin(),
                     alive_list.begin() + static_cast<std::ptrdiff_t>(k));
    rp.active_replicas = k;

    rp.assignment.resize(trace.size());
    std::vector<std::vector<Arrival>> sub(rp.total_replicas);
    std::vector<std::vector<std::uint64_t>> ids(rp.total_replicas);
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const std::uint8_t r = route_replica(router, i, rp.active);
      rp.assignment[i] = r;
      sub[r].push_back(trace[i]);
      ids[r].push_back(i);
    }
    rp.per_replica.clear();
    rp.per_replica.reserve(rp.total_replicas);
    bool fits = true;
    for (std::size_t r = 0; r < rp.total_replicas; ++r) {
      rp.per_replica.push_back(plan(sub[r], slo, batch, std::move(ids[r])));
      const PlanCounters& c = rp.per_replica.back().counters;
      fits = fits && c.max_virtual_depth <= router.scale_depth &&
             c.max_ladder_level < 2;
    }
    if (router.scale_depth == 0 || fits || k == n_alive) break;
  }

  // Merge the per-replica ledgers back into global-id order.
  rp.decisions.resize(trace.size());
  rp.counters = PlanCounters{};
  std::vector<std::pair<std::uint64_t, std::uint8_t>> routing, shed_set;
  routing.reserve(trace.size());
  for (const Plan& p : rp.per_replica) {
    for (std::size_t j = 0; j < p.decisions.size(); ++j)
      rp.decisions[p.id_of(j)] = p.decisions[j];
    rp.counters += p.counters;
  }
  std::vector<std::uint64_t> vlat;
  std::array<std::vector<std::uint64_t>, kNumPriorities> by_pri;
  vlat.reserve(rp.counters.served);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    routing.emplace_back(i, rp.assignment[i]);
    const Decision& d = rp.decisions[i];
    if (!d.served()) {
      shed_set.emplace_back(i, static_cast<std::uint8_t>(d.outcome));
    } else if (slo.enabled) {  // the trivial ledger has no virtual clock
      const std::uint64_t lat = d.v_done_us - trace[i].t_us;
      vlat.push_back(lat);
      by_pri[static_cast<std::size_t>(d.priority)].push_back(lat);
    }
  }
  rp.virtual_latency = LatencyStats::compute(std::move(vlat));
  for (std::size_t k = 0; k < kNumPriorities; ++k)
    rp.virtual_by_priority[k] = LatencyStats::compute(std::move(by_pri[k]));
  rp.routing_hash = shed_set_fingerprint(routing);
  rp.shed_set_hash = shed_set_fingerprint(shed_set);
  return rp;
}

namespace {

std::vector<obs::CausalTuple> router_causal_tuples(const RouterPlan& rp) {
  using obs::EventType;
  std::vector<obs::CausalTuple> tuples;
  tuples.reserve(3 * rp.assignment.size());
  for (std::size_t i = 0; i < rp.assignment.size(); ++i)
    tuples.push_back({i, static_cast<std::uint8_t>(EventType::kRoute),
                      rp.assignment[i], rp.active_replicas});
  // Transitions are renumbered replica-major so two replicas' ladder logs
  // cannot collide on (seq, level, v_us).
  std::size_t seq_off = 0;
  for (const Plan& p : rp.per_replica) {
    append_causal_decision_tuples(p, tuples);
    append_causal_transition_tuples(p, seq_off, tuples);
    seq_off += p.transitions.size();
  }
  append_causal_swap_tuples(rp.swap, tuples);  // no-op when no swap planned
  return tuples;
}

}  // namespace

std::uint64_t expected_causal_fingerprint(const RouterPlan& rp) {
  return obs::fingerprint_tuples(router_causal_tuples(rp));
}

std::size_t expected_causal_event_count(const RouterPlan& rp) {
  return router_causal_tuples(rp).size();
}

ReplicaGroup::ReplicaGroup(const ServerSpec& spec)
    : exec_(spec, /*group=*/true),
      router_(spec.router_policy()),
      swap_(spec.swap_policy()) {}

RouterPlan ReplicaGroup::plan_trace(const std::vector<Arrival>& trace) const {
  const ServeConfig& cfg = exec_.config();
  RouterPlan rp = route_plan(trace, cfg.slo, cfg.batch, router_,
                             exec_.num_replicas());
  // The hot-swap overlay (DESIGN.md §11) stamps pinned versions and the
  // canary rewrite onto the routed ledger. Pure like route_plan itself.
  if (swap_.enabled) apply_swap(rp, trace, swap_);
  return rp;
}

RouterReport ReplicaGroup::run(const std::vector<Arrival>& trace) {
  // The full fleet ledger — routing, autoscale, every per-replica control
  // decision — is fixed here on the virtual clock; the replay executes it.
  const RouterPlan rp = plan_trace(trace);
  RouterReport rep = exec_.execute(trace, rp);
  rep.active_replicas = rp.active_replicas;
  rep.routing_hash = rp.routing_hash;
  for (std::size_t r = 0; r < rep.replicas.size(); ++r) {
    ReplicaStats& rs = rep.replicas[r];
    const Plan& p = rp.per_replica[r];
    rs.alive = rp.alive[r] != 0;
    rs.active = std::find(rp.active.begin(), rp.active.end(),
                          static_cast<std::uint8_t>(r)) != rp.active.end();
    rs.assigned = p.decisions.size();
    rs.plan_shed_set_hash = p.shed_set_hash;
    rs.max_virtual_depth = p.counters.max_virtual_depth;
    rs.max_ladder_level = p.counters.max_ladder_level;
  }

  if (rp.swap.enabled) {
    SwapSummary& sw = rep.serve.swap;
    sw.enabled = true;
    sw.rolled_back = rp.swap.rolled_back;
    sw.from_version = rp.swap.from_version;
    sw.to_version = rp.swap.to_version;
    sw.canary_replica = rp.swap.canary_replica;
    sw.start_us = rp.swap.start_us;
    sw.verdict_us = rp.swap.verdict_us;
    sw.canary_served = rp.swap.canary_served;
    sw.canary_faults = rp.swap.canary_faults;
    sw.breaker_opens = rp.swap.breaker_opens;
    sw.latency_breach = rp.swap.latency_breach;
    sw.cutovers = rp.swap.cutovers.size();
    sw.version_hash = rp.swap.version_hash;
    // Payload provenance: the pinned version per request id, and how many
    // deliveries each version produced.
    rep.serve.versions = rp.swap.version_of;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      if (!rp.decisions[i].served()) continue;
      const std::uint32_t v = rp.swap.version_of[i];
      auto it = std::find_if(
          sw.served_by_version.begin(), sw.served_by_version.end(),
          [v](const std::pair<std::uint32_t, std::size_t>& e) {
            return e.first == v;
          });
      if (it == sw.served_by_version.end())
        sw.served_by_version.emplace_back(v, 1);
      else
        ++it->second;
    }
    std::sort(sw.served_by_version.begin(), sw.served_by_version.end());
  }
  return rep;
}

Json RouterReport::to_json() const {
  Json j = Json::object();
  j.set("total_replicas", total_replicas);
  j.set("active_replicas", active_replicas);
  j.set("routing_hash", hex64(routing_hash));
  Json reps = Json::array();
  for (const ReplicaStats& r : replicas) {
    Json jr = Json::object();
    jr.set("alive", r.alive);
    jr.set("active", r.active);
    jr.set("assigned", r.assigned);
    jr.set("delivered", r.delivered);
    jr.set("shed", r.shed);
    jr.set("plan_shed_set_hash", hex64(r.plan_shed_set_hash));
    jr.set("exec_shed_set_hash", hex64(r.exec_shed_set_hash));
    jr.set("max_virtual_depth", r.max_virtual_depth);
    jr.set("max_ladder_level", r.max_ladder_level);
    jr.set("steady_allocs", r.steady_allocs);
    reps.push_back(jr);
  }
  j.set("replicas", reps);
  j.set("serve", serve.to_json());
  return j;
}

}  // namespace gbo::serve
