#include "serve/router.hpp"

#include <algorithm>

namespace gbo::serve {

ReplicaGroup::ReplicaGroup(const ServerSpec& spec)
    : exec_(spec, /*group=*/true),
      router_(spec.router_policy()),
      swap_(spec.swap_policy()) {}

Plan ReplicaGroup::plan_trace(const std::vector<Arrival>& trace) const {
  const ServeConfig& cfg = exec_.config();
  Plan p = route_plan(trace, cfg.slo, cfg.batch, router_, exec_.num_replicas());
  // The hot-swap overlay (DESIGN.md §11) stamps pinned versions, the canary
  // rewrite and the cutover log onto the routed ledger. Pure like the rest.
  if (swap_.enabled) apply_swap(p, trace, swap_);
  return p;
}

RouterReport ReplicaGroup::run(const std::vector<Arrival>& trace) {
  // The full fleet ledger — routing, autoscale, every per-replica control
  // decision — is fixed here on the virtual clock; the replay executes it.
  const Plan p = plan_trace(trace);
  RouterReport rep = exec_.execute(trace, p);
  rep.active_replicas = p.active.size();
  rep.routing_hash = p.routing_hash;
  for (std::size_t r = 0; r < rep.replicas.size(); ++r) {
    ReplicaStats& rs = rep.replicas[r];
    const Plan::Replica& row = p.replicas[r];
    rs.alive = p.alive[r] != 0;
    rs.active = std::find(p.active.begin(), p.active.end(),
                          static_cast<std::uint8_t>(r)) != p.active.end();
    rs.assigned = row.assigned;
    rs.plan_shed_set_hash = row.shed_set_hash;
    rs.max_virtual_depth = row.counters.max_virtual_depth;
    rs.max_ladder_level = row.counters.max_ladder_level;
  }

  if (p.swap.enabled) {
    SwapSummary& sw = rep.serve.swap;
    sw.enabled = true;
    sw.rolled_back = p.swap.rolled_back;
    sw.from_version = p.swap.from_version;
    sw.to_version = p.swap.to_version;
    sw.canary_replica = p.swap.canary_replica;
    sw.start_us = p.swap.start_us;
    sw.verdict_us = p.swap.verdict_us;
    sw.canary_served = p.swap.canary_served;
    sw.canary_faults = p.swap.canary_faults;
    sw.breaker_opens = p.swap.breaker_opens;
    sw.latency_breach = p.swap.latency_breach;
    sw.cutovers = p.swap.cutovers.size();
    sw.version_hash = p.swap.version_hash;
    // Payload provenance: the pinned version per request id, and how many
    // deliveries each version produced.
    rep.serve.versions = p.swap.version_of;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      if (!p.decisions[i].served()) continue;
      const std::uint32_t v = p.swap.version_of[i];
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
