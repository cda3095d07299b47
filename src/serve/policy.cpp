#include "serve/policy.hpp"

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "obs/trace.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

namespace gbo::serve {

ShedReason shed_reason(Decision::Outcome outcome) {
  switch (outcome) {
    case Decision::Outcome::kRejected: return ShedReason::kCapacity;
    case Decision::Outcome::kEvicted: return ShedReason::kEvicted;
    case Decision::Outcome::kShedExpired: return ShedReason::kExpired;
    case Decision::Outcome::kShedOverload: return ShedReason::kOverload;
    case Decision::Outcome::kServed: break;
  }
  return ShedReason::kNone;
}

std::uint64_t shed_set_fingerprint(
    const std::vector<std::pair<std::uint64_t, std::uint8_t>>& shed) {
  // FNV-1a 64 over (id bytes little-endian, outcome code) in input order;
  // callers pass ascending ids so the fingerprint is order-canonical.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint8_t byte) {
    h ^= byte;
    h *= 1099511628211ull;
  };
  for (const auto& [id, code] : shed) {
    for (int b = 0; b < 8; ++b)
      mix(static_cast<std::uint8_t>((id >> (8 * b)) & 0xFF));
    mix(code);
  }
  return h;
}

PlanCounters& PlanCounters::operator+=(const PlanCounters& o) {
  served += o.served;
  served_primary += o.served_primary;
  served_canary += o.served_canary;
  degraded_ladder += o.degraded_ladder;
  degraded_breaker += o.degraded_breaker;
  degraded_fallback += o.degraded_fallback;
  shed_expired += o.shed_expired;
  shed_overload += o.shed_overload;
  rejected += o.rejected;
  evicted += o.evicted;
  retried_requests += o.retried_requests;
  faults_injected += o.faults_injected;
  late += o.late;
  breaker_opens += o.breaker_opens;
  ladder_transitions += o.ladder_transitions;
  virtual_batches += o.virtual_batches;
  final_ladder_level = std::max(final_ladder_level, o.final_ladder_level);
  max_ladder_level = std::max(max_ladder_level, o.max_ladder_level);
  max_virtual_depth = std::max(max_virtual_depth, o.max_virtual_depth);
  return *this;
}

namespace {

/// Ladder update at a flush instant, with hysteresis: level 2 persists
/// until depth drops below degrade_depth (then level 1), level 1 persists
/// until depth recovers to recover_depth (then level 0).
int ladder_step(const LadderPolicy& ladder, int level, std::size_t depth) {
  if (ladder.shed_depth != 0 && depth >= ladder.shed_depth) return 2;
  if (ladder.degrade_depth != 0 && depth >= ladder.degrade_depth)
    return std::max(level, 1);
  if (depth <= ladder.recover_depth) return 0;
  return level == 2 ? 1 : level;  // mid-band: step 2 -> 1, else hold
}

// The one simulation stage: runs the §7 virtual-clock control plane over
// one replica's requests `ids` (global request ids, ascending). Requests
// travel the queue under their global id and every decision lands in
// p.decisions at that id; ladder changes and breaker opens are appended to
// p.control under the next sequence id, which numbers the fleet's log
// replica-major because replicas are simulated in index order.
PlanCounters simulate(const std::vector<Arrival>& trace,
                      const std::vector<std::uint64_t>& ids,
                      const SloPolicy& slo, const BatchPolicy& batch,
                      Plan& p) {
  PlanCounters c;
  if (!slo.enabled) {
    // The trivial ledger: default decisions are served on the primary with
    // no deadline, attempts, or virtual completion.
    for (const std::uint64_t id : ids)
      p.decisions[id].priority = trace[id].priority;
    c.served = c.served_primary = ids.size();
    return c;
  }

  RequestQueue vq(slo.queue);
  const FaultInjector injector(slo.fault);
  CircuitBreaker breaker(slo.breaker);
  const std::size_t n_lanes = std::max<std::size_t>(1, slo.virtual_lanes);
  std::vector<std::uint64_t> lanes(n_lanes, 0);  // lane free-at times
  const std::size_t max_batch = std::max<std::size_t>(1, batch.max_batch);
  int level = 0;
  std::size_t logged_opens = 0;  // breaker opens already in the control log
  const auto log_control = [&p](obs::EventType type, std::uint16_t a,
                                std::uint64_t v_us) {
    p.control.push_back(
        {p.control.size(), static_cast<std::uint8_t>(type), a, v_us});
  };

  const auto ingest = [&](std::uint64_t id) {
    const Arrival& a = trace[id];
    Request r;
    r.id = id;
    r.sample = a.sample;
    r.enqueue_us = a.t_us;  // virtual clock: enqueue == arrival
    r.priority = a.priority;
    r.deadline_us = slo.deadline_us != 0 ? a.t_us + slo.deadline_us : 0;
    Decision& d = p.decisions[id];
    d.priority = a.priority;
    d.deadline_us = r.deadline_us;
    Request victim;
    switch (vq.push(r, &victim)) {
      case RequestQueue::PushResult::kAccepted:
        break;
      case RequestQueue::PushResult::kRejectedFull:
        d.outcome = Decision::Outcome::kRejected;
        d.v_pop_us = a.t_us;
        ++c.rejected;
        break;
      case RequestQueue::PushResult::kAcceptedEvicted: {
        Decision& ev = p.decisions[victim.id];
        ev.outcome = Decision::Outcome::kEvicted;
        ev.v_pop_us = a.t_us;
        ++c.evicted;
        break;
      }
    }
    c.max_virtual_depth = std::max(c.max_virtual_depth, vq.size());
  };

  std::vector<Request> out, shed;
  std::size_t i = 0;
  while (i < ids.size() || vq.size() > 0) {
    if (vq.size() == 0) {
      ingest(ids[i++]);
      continue;
    }
    // Next virtual flush on the soonest-free lane: immediately once a full
    // batch is queued, otherwise when the oldest member's coalescing wait
    // expires — exactly the real micro-batcher's flush rule.
    const std::size_t lane = static_cast<std::size_t>(
        std::min_element(lanes.begin(), lanes.end()) - lanes.begin());
    const std::uint64_t oldest = vq.oldest_enqueue_us();
    const std::uint64_t flush_t =
        vq.size() >= max_batch
            ? std::max(lanes[lane], oldest)
            : std::max(lanes[lane], oldest + batch.max_wait_us);
    // Arrivals at or before the flush instant are ingested first so the
    // planner's batch composition matches what a worker popping at flush_t
    // would have seen (ties break toward ingestion).
    if (i < ids.size() && trace[ids[i]].t_us <= flush_t) {
      ingest(ids[i++]);
      continue;
    }

    const std::uint64_t vnow = flush_t;
    const int prev_level = level;
    level = ladder_step(slo.ladder, level, vq.size());
    if (level != prev_level) {
      ++c.ladder_transitions;
      log_control(obs::EventType::kLadder,
                  static_cast<std::uint16_t>(level), vnow);
    }
    c.max_ladder_level = std::max(c.max_ladder_level, level);

    const Priority floor = level >= 2 ? slo.ladder.shed_floor : Priority::kLow;
    // Shed-at-pop horizon: anything whose deadline falls before
    // vnow + headroom cannot finish in time and is dropped unexecuted.
    const std::uint64_t horizon = vnow + slo.completion_headroom_us;
    out.clear();
    shed.clear();
    vq.try_pop_batch(batch, horizon, floor, out, shed);

    for (const Request& r : shed) {
      Decision& d = p.decisions[r.id];
      d.outcome = r.reason == ShedReason::kOverload
                      ? Decision::Outcome::kShedOverload
                      : Decision::Outcome::kShedExpired;
      d.v_pop_us = vnow;
      if (d.outcome == Decision::Outcome::kShedOverload)
        ++c.shed_overload;
      else
        ++c.shed_expired;
    }
    if (out.empty()) continue;  // pure-shed flush: no batch, lane unchanged

    std::uint64_t cost = slo.cost.batch_fixed_us;
    for (const Request& r : out) {
      Decision& d = p.decisions[r.id];
      d.outcome = Decision::Outcome::kServed;
      d.v_pop_us = vnow;
      if (level >= 1) {
        d.mode = ServeMode::kDegradedLadder;
        cost += slo.cost.degraded_us;
        ++c.degraded_ladder;
      } else if (!breaker.allow(vnow)) {
        d.mode = ServeMode::kDegradedBreaker;
        cost += slo.cost.degraded_us;
        ++c.degraded_breaker;
      } else {
        const std::size_t a =
            injector.attempts_to_success(r.id, slo.retry.max_attempts);
        d.attempts = static_cast<std::uint8_t>(a);
        cost += a * slo.cost.retry_penalty_us;
        if (a < slo.retry.max_attempts) {
          d.mode = ServeMode::kPrimary;
          cost += slo.cost.primary_us;
          breaker.record_success(vnow);
          ++c.served_primary;
          if (a > 0) {
            ++c.retried_requests;
            c.faults_injected += a;
          }
        } else {
          d.mode = ServeMode::kDegradedFallback;
          cost += slo.cost.degraded_us;
          breaker.record_failure(vnow);
          if (breaker.opens() > logged_opens) {
            ++logged_opens;
            log_control(obs::EventType::kBreaker, 1, vnow);
          }
          ++c.degraded_fallback;
          c.faults_injected += a;
        }
      }
    }
    const std::uint64_t v_done = vnow + cost;
    for (const Request& r : out) {
      Decision& d = p.decisions[r.id];
      d.v_done_us = v_done;
      if (d.deadline_us != 0 && v_done > d.deadline_us) {
        d.late = true;
        ++c.late;
      }
    }
    c.served += out.size();
    ++c.virtual_batches;
    lanes[lane] = v_done;
  }
  // One final control tick at drain: the ladder is evaluated on queue
  // depth, and a fully drained queue (depth 0) is the definition of
  // recovery — without this tick the level would freeze at whatever the
  // last mid-drain flush saw.
  const int drained = ladder_step(slo.ladder, level, 0);
  if (drained != level) {
    ++c.ladder_transitions;
    log_control(obs::EventType::kLadder, static_cast<std::uint16_t>(drained),
                *std::max_element(lanes.begin(), lanes.end()));
  }
  c.breaker_opens = breaker.opens();
  c.final_ladder_level = drained;
  return c;
}

// Non-served (id, outcome) pairs of `ids`, fingerprinted in id order.
std::uint64_t shed_hash(const Plan& p, const std::vector<std::uint64_t>& ids) {
  std::vector<std::pair<std::uint64_t, std::uint8_t>> shed_set;
  for (const std::uint64_t id : ids)
    if (!p.decisions[id].served())
      shed_set.emplace_back(
          id, static_cast<std::uint8_t>(p.decisions[id].outcome));
  return shed_set_fingerprint(shed_set);
}

// Simulates every replica's share of the trace (ids[r] = replica r's
// requests) into a fresh ledger: decisions, control log, replica rows and
// the fleet counters folded from them.
void simulate_fleet(const std::vector<Arrival>& trace,
                    const std::vector<std::vector<std::uint64_t>>& ids,
                    const SloPolicy& slo, const BatchPolicy& batch, Plan& p) {
  p.decisions.assign(trace.size(), Decision{});
  p.control.clear();
  p.replicas.assign(ids.size(), Plan::Replica{});
  p.counters = PlanCounters{};
  for (std::size_t r = 0; r < ids.size(); ++r) {
    Plan::Replica& row = p.replicas[r];
    row.assigned = ids[r].size();
    row.counters = simulate(trace, ids[r], slo, batch, p);
    row.shed_set_hash = shed_hash(p, ids[r]);
    p.counters += row.counters;
  }
}

// Virtual latency and the shed-set fingerprint, once, over the fleet ledger.
void summarize_fleet(const std::vector<Arrival>& trace, const SloPolicy& slo,
                     Plan& p) {
  std::vector<std::uint64_t> all;
  std::array<std::vector<std::uint64_t>, kNumPriorities> by_pri;
  all.reserve(p.counters.served);
  std::vector<std::pair<std::uint64_t, std::uint8_t>> shed_set;
  for (std::uint64_t id = 0; id < trace.size(); ++id) {
    const Decision& d = p.decisions[id];
    if (!d.served()) {
      shed_set.emplace_back(id, static_cast<std::uint8_t>(d.outcome));
    } else if (slo.enabled) {  // the trivial ledger has no virtual clock
      const std::uint64_t lat = d.v_done_us - trace[id].t_us;
      all.push_back(lat);
      by_pri[static_cast<std::size_t>(d.priority)].push_back(lat);
    }
  }
  p.virtual_latency = LatencyStats::compute(std::move(all));
  for (std::size_t k = 0; k < kNumPriorities; ++k)
    p.virtual_by_priority[k] = LatencyStats::compute(std::move(by_pri[k]));
  p.shed_set_hash = shed_set_fingerprint(shed_set);
}

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

// The causal events the runtime emits while executing a plan, rebuilt from
// the ledger. Must mirror the serving executor exactly: a kRoute per request
// when the plan is routed, the admit verdict per request (with deadline), a
// pop-time shed per non-served decision, one retry record per served
// request with failed primary attempts, the delivery (mode and version,
// virtual completion) per served request, and the control log verbatim.
std::vector<obs::CausalTuple> causal_tuples(const Plan& p) {
  using obs::EventType;
  std::vector<obs::CausalTuple> tuples;
  tuples.reserve(3 * p.decisions.size() + p.control.size());
  for (std::uint64_t id = 0; id < p.decisions.size(); ++id) {
    const Decision& d = p.decisions[id];
    if (!p.assignment.empty())
      tuples.push_back({id, static_cast<std::uint8_t>(EventType::kRoute),
                        p.assignment[id], p.active.size()});
    const bool bounced = d.outcome == Decision::Outcome::kRejected ||
                         d.outcome == Decision::Outcome::kEvicted;
    tuples.push_back({id, static_cast<std::uint8_t>(EventType::kAdmit),
                      bounced ? static_cast<std::uint16_t>(d.outcome)
                              : std::uint16_t{0},
                      d.deadline_us});
    if (d.served()) {
      if (d.attempts > 0)
        tuples.push_back({id, static_cast<std::uint8_t>(EventType::kRetry),
                          d.attempts, 0});
      // The delivery tuple folds the pinned model version into the high
      // byte of `a` (DESIGN.md §11): version 0 — every non-swap run —
      // reproduces the historical tuple bit for bit, and a swap run's
      // fingerprint attributes every payload to exactly one version.
      tuples.push_back(
          {id, static_cast<std::uint8_t>(EventType::kDeliver),
           static_cast<std::uint16_t>(
               static_cast<std::uint16_t>(d.mode) |
               static_cast<std::uint16_t>((d.version & 0xff) << 8)),
           d.v_done_us});
    } else if (!bounced) {
      tuples.push_back({id, static_cast<std::uint8_t>(EventType::kShed),
                        static_cast<std::uint16_t>(d.outcome), 0});
    }
  }
  tuples.insert(tuples.end(), p.control.begin(), p.control.end());
  return tuples;
}

}  // namespace

Plan plan(const std::vector<Arrival>& trace, const SloPolicy& slo,
          const BatchPolicy& batch) {
  Plan p;
  p.alive = {1};
  p.active = {0};
  std::vector<std::vector<std::uint64_t>> ids(1);
  ids[0].resize(trace.size());
  std::iota(ids[0].begin(), ids[0].end(), std::uint64_t{0});
  simulate_fleet(trace, ids, slo, batch, p);
  summarize_fleet(trace, slo, p);
  return p;
}

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

Plan route_plan(const std::vector<Arrival>& trace, const SloPolicy& slo,
                const BatchPolicy& batch, const RouterPolicy& router,
                std::size_t replicas) {
  if (replicas > 255)
    throw std::invalid_argument(
        "serve: route_plan supports at most 255 replicas (the assignment is "
        "a byte per request), got " + std::to_string(replicas));
  Plan p;
  const std::size_t n = std::max<std::size_t>(1, replicas);
  p.alive = alive_mask(router, n);
  std::vector<std::uint8_t> alive_list;
  for (std::size_t r = 0; r < n; ++r)
    if (p.alive[r] != 0) alive_list.push_back(static_cast<std::uint8_t>(r));
  const std::size_t n_alive = alive_list.size();
  const std::size_t min_k =
      std::min(std::max<std::size_t>(1, router.min_replicas), n_alive);

  // Queue-depth autoscaling off the planner's own metrics: activate the
  // smallest replica count whose planned per-replica max_virtual_depth
  // stays within scale_depth and whose ladder never reaches the shed
  // level. scale_depth == 0 disables scaling (all alive replicas active).
  // Candidates grow the active set as a prefix of the alive list, so the
  // chosen assignment is reproducible from (trace, policy) alone.
  p.assignment.resize(trace.size());
  for (std::size_t k = router.scale_depth == 0 ? n_alive : min_k;; ++k) {
    p.active.assign(alive_list.begin(),
                    alive_list.begin() + static_cast<std::ptrdiff_t>(k));
    std::vector<std::vector<std::uint64_t>> ids(n);
    for (std::uint64_t id = 0; id < trace.size(); ++id) {
      const std::uint8_t r = route_replica(router, id, p.active);
      p.assignment[id] = r;
      ids[r].push_back(id);
    }
    simulate_fleet(trace, ids, slo, batch, p);
    bool fits = true;
    for (const Plan::Replica& row : p.replicas)
      fits = fits && row.counters.max_virtual_depth <= router.scale_depth &&
             row.counters.max_ladder_level < 2;
    if (router.scale_depth == 0 || fits || k == n_alive) break;
  }
  summarize_fleet(trace, slo, p);

  std::vector<std::pair<std::uint64_t, std::uint8_t>> routing;
  routing.reserve(trace.size());
  for (std::uint64_t id = 0; id < trace.size(); ++id)
    routing.emplace_back(id, p.assignment[id]);
  p.routing_hash = shed_set_fingerprint(routing);
  return p;
}

std::uint64_t expected_causal_fingerprint(const Plan& p) {
  return obs::fingerprint_tuples(causal_tuples(p));
}

std::size_t expected_causal_event_count(const Plan& p) {
  return causal_tuples(p).size();
}

}  // namespace gbo::serve
