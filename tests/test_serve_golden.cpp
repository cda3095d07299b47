// Golden anchors for the serving planner (DESIGN.md §7, §9–§11): for fixed
// seeds, the causal-oracle fingerprint and event count, the shed-set,
// routing and version-provenance fingerprints, each replica's shed hash and
// assigned count, and every PlanCounters field are pinned to committed
// constants. Planner-only and pure (no backend, no worker pool, no trace
// session), so it runs in every CI leg, tracing compiled in or out.
//
// A constant here changes only by an explicit re-baseline: any planner edit
// that moves one of them changed which requests were admitted, shed,
// degraded, routed or pinned, or how the causal trace describes it.
#include "serve/policy.hpp"
#include "serve/traffic.hpp"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace gbo {
namespace {

using Values = std::vector<std::pair<std::string, std::uint64_t>>;

serve::TrafficConfig flash_traffic(double rate_rps) {
  serve::TrafficConfig cfg;
  cfg.num_requests = 220;
  cfg.rate_rps = rate_rps;
  cfg.shape = serve::TraceShape::kFlashCrowd;
  cfg.flash_factor = 14.0;
  cfg.flash_start_s = 0.05;
  cfg.flash_ramp_s = 0.005;
  cfg.flash_hold_s = 0.02;
  cfg.high_fraction = 0.2;
  cfg.low_fraction = 0.3;
  cfg.seed = 101;
  return cfg;
}

serve::BatchPolicy batch_policy() {
  serve::BatchPolicy batch;
  batch.max_batch = 8;
  batch.max_wait_us = 200;
  return batch;
}

// Deadlines, a drop-oldest bound, the full ladder, retries against seeded
// transient faults and an outage that trips the breaker.
serve::SloPolicy overload_policy() {
  serve::SloPolicy slo;
  slo.enabled = true;
  slo.deadline_us = 15000;
  slo.completion_headroom_us = 9000;
  slo.queue.capacity = 64;
  slo.queue.on_full = serve::QueuePolicy::OnFull::kDropOldest;
  slo.cost.batch_fixed_us = 50;
  slo.cost.primary_us = 800;
  slo.cost.degraded_us = 100;
  slo.cost.retry_penalty_us = 100;
  slo.ladder.degrade_depth = 8;
  slo.ladder.shed_depth = 30;
  slo.ladder.recover_depth = 2;
  slo.ladder.shed_floor = serve::Priority::kNormal;
  slo.retry.max_attempts = 2;
  slo.retry.backoff_us = 50;
  slo.breaker.failure_threshold = 3;
  slo.breaker.cooldown_us = 30000;
  slo.fault.enabled = true;
  slo.fault.seed = 555;
  slo.fault.transient_rate = 0.08;
  slo.fault.outage_start_id = 30;
  slo.fault.outage_len = 12;
  return slo;
}

// The rollout scenarios run fault-free so the canary evaluates primary
// traffic and the verdict lands mid-trace, with admissions on both sides.
serve::SloPolicy swap_policy_slo() {
  serve::SloPolicy slo = overload_policy();
  slo.fault.enabled = false;
  return slo;
}

serve::SwapPolicy mid_trace_swap() {
  serve::SwapPolicy sp;
  sp.enabled = true;
  sp.from_version = 1;
  sp.to_version = 2;
  sp.start_us = 20000;
  sp.canary_replica = 0;
  sp.canary_requests = 8;
  sp.breaker.failure_threshold = 3;
  sp.breaker.cooldown_us = 5000;
  return sp;
}

void add_counters(Values& v, const serve::PlanCounters& c) {
  v.emplace_back("served", c.served);
  v.emplace_back("served_primary", c.served_primary);
  v.emplace_back("served_canary", c.served_canary);
  v.emplace_back("degraded_ladder", c.degraded_ladder);
  v.emplace_back("degraded_breaker", c.degraded_breaker);
  v.emplace_back("degraded_fallback", c.degraded_fallback);
  v.emplace_back("shed_expired", c.shed_expired);
  v.emplace_back("shed_overload", c.shed_overload);
  v.emplace_back("rejected", c.rejected);
  v.emplace_back("evicted", c.evicted);
  v.emplace_back("retried_requests", c.retried_requests);
  v.emplace_back("faults_injected", c.faults_injected);
  v.emplace_back("late", c.late);
  v.emplace_back("breaker_opens", c.breaker_opens);
  v.emplace_back("ladder_transitions", c.ladder_transitions);
  v.emplace_back("final_ladder_level",
                 static_cast<std::uint64_t>(c.final_ladder_level));
  v.emplace_back("max_ladder_level",
                 static_cast<std::uint64_t>(c.max_ladder_level));
  v.emplace_back("max_virtual_depth", c.max_virtual_depth);
  v.emplace_back("virtual_batches", c.virtual_batches);
}

void add_latency(Values& v, const serve::LatencyStats& l) {
  v.emplace_back("vlat.count", l.count);
  v.emplace_back("vlat.p50_us", static_cast<std::uint64_t>(l.p50_us));
  v.emplace_back("vlat.p99_us", static_cast<std::uint64_t>(l.p99_us));
  v.emplace_back("vlat.max_us", static_cast<std::uint64_t>(l.max_us));
}

Values observe(const serve::Plan& p) {
  Values v;
  v.emplace_back("causal_fp", serve::expected_causal_fingerprint(p));
  v.emplace_back("causal_events", serve::expected_causal_event_count(p));
  v.emplace_back("shed_set_hash", p.shed_set_hash);
  if (!p.assignment.empty()) {
    v.emplace_back("routing_hash", p.routing_hash);
    v.emplace_back("active_replicas", p.active.size());
    for (std::size_t r = 0; r < p.replicas.size(); ++r) {
      const std::string row = "replica" + std::to_string(r);
      v.emplace_back(row + ".assigned", p.replicas[r].assigned);
      v.emplace_back(row + ".shed_set_hash", p.replicas[r].shed_set_hash);
    }
  }
  add_counters(v, p.counters);
  add_latency(v, p.virtual_latency);
  if (p.swap.enabled) {
    v.emplace_back("version_hash", p.swap.version_hash);
    v.emplace_back("verdict_us", p.swap.verdict_us);
    v.emplace_back("rolled_back", p.swap.rolled_back ? 1u : 0u);
    v.emplace_back("canary_served", p.swap.canary_served);
    v.emplace_back("cutovers", p.swap.cutovers.size());
  }
  return v;
}

// Compares name by name; a mismatch prints the observed table in the form
// of the constants below, which is what a deliberate re-baseline pastes.
void expect_golden(const Values& got, const Values& want) {
  bool same = got.size() == want.size();
  for (std::size_t i = 0; same && i < got.size(); ++i)
    same = got[i] == want[i];
  if (same) return;
  std::string table;
  char line[160];
  for (const auto& [name, value] : got) {
    std::snprintf(line, sizeof(line), "      {\"%s\", 0x%016" PRIx64 "ull},\n",
                  name.c_str(), value);
    table += line;
  }
  ADD_FAILURE() << "planner golden values moved; observed:\n" << table;
  for (std::size_t i = 0; i < got.size() && i < want.size(); ++i)
    EXPECT_EQ(got[i], want[i]) << "entry " << i;
}

TEST(ServeGolden, TrivialLedger) {
  const auto trace = serve::make_trace(flash_traffic(900.0), 32);
  serve::SloPolicy slo = overload_policy();
  slo.enabled = false;
  const serve::Plan p = serve::plan(trace, slo, batch_policy());
  expect_golden(observe(p), {
      {"causal_fp", 0xd47c671425815127ull},
      {"causal_events", 0x00000000000001b8ull},
      {"shed_set_hash", 0x14650fb0739d0383ull},
      {"served", 0x00000000000000dcull},
      {"served_primary", 0x00000000000000dcull},
      {"served_canary", 0x0000000000000000ull},
      {"degraded_ladder", 0x0000000000000000ull},
      {"degraded_breaker", 0x0000000000000000ull},
      {"degraded_fallback", 0x0000000000000000ull},
      {"shed_expired", 0x0000000000000000ull},
      {"shed_overload", 0x0000000000000000ull},
      {"rejected", 0x0000000000000000ull},
      {"evicted", 0x0000000000000000ull},
      {"retried_requests", 0x0000000000000000ull},
      {"faults_injected", 0x0000000000000000ull},
      {"late", 0x0000000000000000ull},
      {"breaker_opens", 0x0000000000000000ull},
      {"ladder_transitions", 0x0000000000000000ull},
      {"final_ladder_level", 0x0000000000000000ull},
      {"max_ladder_level", 0x0000000000000000ull},
      {"max_virtual_depth", 0x0000000000000000ull},
      {"virtual_batches", 0x0000000000000000ull},
      {"vlat.count", 0x0000000000000000ull},
      {"vlat.p50_us", 0x0000000000000000ull},
      {"vlat.p99_us", 0x0000000000000000ull},
      {"vlat.max_us", 0x0000000000000000ull},
  });
}

TEST(ServeGolden, SloFlashCrowd) {
  const auto trace = serve::make_trace(flash_traffic(900.0), 32);
  const serve::Plan p = serve::plan(trace, overload_policy(), batch_policy());
  expect_golden(observe(p), {
      {"causal_fp", 0x2d86c2db1584c132ull},
      {"causal_events", 0x00000000000001c2ull},
      {"shed_set_hash", 0x0ff5c2c53d84a3fbull},
      {"served", 0x00000000000000bcull},
      {"served_primary", 0x000000000000001eull},
      {"served_canary", 0x0000000000000000ull},
      {"degraded_ladder", 0x0000000000000078ull},
      {"degraded_breaker", 0x0000000000000023ull},
      {"degraded_fallback", 0x0000000000000003ull},
      {"shed_expired", 0x0000000000000004ull},
      {"shed_overload", 0x000000000000001cull},
      {"rejected", 0x0000000000000000ull},
      {"evicted", 0x0000000000000000ull},
      {"retried_requests", 0x0000000000000002ull},
      {"faults_injected", 0x0000000000000008ull},
      {"late", 0x0000000000000000ull},
      {"breaker_opens", 0x0000000000000001ull},
      {"ladder_transitions", 0x0000000000000004ull},
      {"final_ladder_level", 0x0000000000000000ull},
      {"max_ladder_level", 0x0000000000000002ull},
      {"max_virtual_depth", 0x0000000000000025ull},
      {"virtual_batches", 0x000000000000003bull},
      {"vlat.count", 0x00000000000000bcull},
      {"vlat.p50_us", 0x00000000000004feull},
      {"vlat.p99_us", 0x0000000000000fbfull},
      {"vlat.max_us", 0x0000000000001201ull},
  });
}

TEST(ServeGolden, RoutedFleetWithOutageAndAutoscale) {
  const auto trace = serve::make_trace(flash_traffic(1600.0), 32);
  serve::RouterPolicy router;
  router.scale_depth = 24;
  router.fault.enabled = true;
  router.fault.outage_start_id = 1;  // replica 1 down
  router.fault.outage_len = 1;
  const serve::Plan rp =
      serve::route_plan(trace, overload_policy(), batch_policy(), router, 4);
  expect_golden(observe(rp), {
      {"causal_fp", 0xad245ff2138246b2ull},
      {"causal_events", 0x00000000000002aaull},
      {"shed_set_hash", 0x90065f87d793932aull},
      {"routing_hash", 0x6c88b00ca999b482ull},
      {"active_replicas", 0x0000000000000003ull},
      {"replica0.assigned", 0x000000000000004aull},
      {"replica0.shed_set_hash", 0x90065f87d793932aull},
      {"replica1.assigned", 0x0000000000000000ull},
      {"replica1.shed_set_hash", 0x14650fb0739d0383ull},
      {"replica2.assigned", 0x0000000000000049ull},
      {"replica2.shed_set_hash", 0x14650fb0739d0383ull},
      {"replica3.assigned", 0x0000000000000049ull},
      {"replica3.shed_set_hash", 0x14650fb0739d0383ull},
      {"served", 0x00000000000000daull},
      {"served_primary", 0x000000000000002full},
      {"served_canary", 0x0000000000000000ull},
      {"degraded_ladder", 0x0000000000000034ull},
      {"degraded_breaker", 0x000000000000006eull},
      {"degraded_fallback", 0x0000000000000009ull},
      {"shed_expired", 0x0000000000000002ull},
      {"shed_overload", 0x0000000000000000ull},
      {"rejected", 0x0000000000000000ull},
      {"evicted", 0x0000000000000000ull},
      {"retried_requests", 0x0000000000000004ull},
      {"faults_injected", 0x0000000000000016ull},
      {"late", 0x0000000000000000ull},
      {"breaker_opens", 0x0000000000000003ull},
      {"ladder_transitions", 0x0000000000000006ull},
      {"final_ladder_level", 0x0000000000000000ull},
      {"max_ladder_level", 0x0000000000000001ull},
      {"max_virtual_depth", 0x0000000000000014ull},
      {"virtual_batches", 0x0000000000000087ull},
      {"vlat.count", 0x00000000000000daull},
      {"vlat.p50_us", 0x00000000000001f4ull},
      {"vlat.p99_us", 0x0000000000001a1eull},
      {"vlat.max_us", 0x0000000000001b7eull},
  });
}

TEST(ServeGolden, SwapPromotes) {
  const auto trace = serve::make_trace(flash_traffic(1600.0), 32);
  serve::Plan rp = serve::route_plan(trace, swap_policy_slo(),
                                           batch_policy(), {}, 3);
  serve::apply_swap(rp, trace, mid_trace_swap());
  ASSERT_FALSE(rp.swap.rolled_back);
  expect_golden(observe(rp), {
      {"causal_fp", 0x7b297b19709d13fcull},
      {"causal_events", 0x000000000000029eull},
      {"shed_set_hash", 0x35c59fe01ff327a1ull},
      {"routing_hash", 0x24acf6f78c1c812eull},
      {"active_replicas", 0x0000000000000003ull},
      {"replica0.assigned", 0x000000000000004aull},
      {"replica0.shed_set_hash", 0x32cb28eb192e24abull},
      {"replica1.assigned", 0x0000000000000049ull},
      {"replica1.shed_set_hash", 0x903ac9357e33b6dfull},
      {"replica2.assigned", 0x0000000000000049ull},
      {"replica2.shed_set_hash", 0x14650fb0739d0383ull},
      {"served", 0x00000000000000d9ull},
      {"served_primary", 0x000000000000005bull},
      {"served_canary", 0x0000000000000008ull},
      {"degraded_ladder", 0x0000000000000076ull},
      {"degraded_breaker", 0x0000000000000000ull},
      {"degraded_fallback", 0x0000000000000000ull},
      {"shed_expired", 0x0000000000000003ull},
      {"shed_overload", 0x0000000000000000ull},
      {"rejected", 0x0000000000000000ull},
      {"evicted", 0x0000000000000000ull},
      {"retried_requests", 0x0000000000000000ull},
      {"faults_injected", 0x0000000000000000ull},
      {"late", 0x0000000000000000ull},
      {"breaker_opens", 0x0000000000000000ull},
      {"ladder_transitions", 0x0000000000000006ull},
      {"final_ladder_level", 0x0000000000000000ull},
      {"max_ladder_level", 0x0000000000000001ull},
      {"max_virtual_depth", 0x0000000000000017ull},
      {"virtual_batches", 0x0000000000000063ull},
      {"vlat.count", 0x00000000000000d9ull},
      {"vlat.p50_us", 0x000000000000073aull},
      {"vlat.p99_us", 0x00000000000017d4ull},
      {"vlat.max_us", 0x000000000000186eull},
      {"version_hash", 0x6ba4155b1d7837e0ull},
      {"verdict_us", 0x0000000000009305ull},
      {"rolled_back", 0x0000000000000000ull},
      {"canary_served", 0x0000000000000008ull},
      {"cutovers", 0x0000000000000003ull},
  });
}

TEST(ServeGolden, SwapRollsBack) {
  const auto trace = serve::make_trace(flash_traffic(1600.0), 32);
  serve::SwapPolicy sp = mid_trace_swap();
  sp.candidate_fault.enabled = true;
  sp.candidate_fault.transient_rate = 1.0;
  serve::Plan rp = serve::route_plan(trace, swap_policy_slo(),
                                           batch_policy(), {}, 3);
  serve::apply_swap(rp, trace, sp);
  ASSERT_TRUE(rp.swap.rolled_back);
  expect_golden(observe(rp), {
      {"causal_fp", 0x90d17ffc84efaa65ull},
      {"causal_events", 0x000000000000029dull},
      {"shed_set_hash", 0x35c59fe01ff327a1ull},
      {"routing_hash", 0x24acf6f78c1c812eull},
      {"active_replicas", 0x0000000000000003ull},
      {"replica0.assigned", 0x000000000000004aull},
      {"replica0.shed_set_hash", 0x32cb28eb192e24abull},
      {"replica1.assigned", 0x0000000000000049ull},
      {"replica1.shed_set_hash", 0x903ac9357e33b6dfull},
      {"replica2.assigned", 0x0000000000000049ull},
      {"replica2.shed_set_hash", 0x14650fb0739d0383ull},
      {"served", 0x00000000000000d9ull},
      {"served_primary", 0x0000000000000060ull},
      {"served_canary", 0x0000000000000003ull},
      {"degraded_ladder", 0x0000000000000076ull},
      {"degraded_breaker", 0x0000000000000000ull},
      {"degraded_fallback", 0x0000000000000000ull},
      {"shed_expired", 0x0000000000000003ull},
      {"shed_overload", 0x0000000000000000ull},
      {"rejected", 0x0000000000000000ull},
      {"evicted", 0x0000000000000000ull},
      {"retried_requests", 0x0000000000000000ull},
      {"faults_injected", 0x0000000000000000ull},
      {"late", 0x0000000000000000ull},
      {"breaker_opens", 0x0000000000000000ull},
      {"ladder_transitions", 0x0000000000000006ull},
      {"final_ladder_level", 0x0000000000000000ull},
      {"max_ladder_level", 0x0000000000000001ull},
      {"max_virtual_depth", 0x0000000000000017ull},
      {"virtual_batches", 0x0000000000000063ull},
      {"vlat.count", 0x00000000000000d9ull},
      {"vlat.p50_us", 0x000000000000073aull},
      {"vlat.p99_us", 0x00000000000017d4ull},
      {"vlat.max_us", 0x000000000000186eull},
      {"version_hash", 0x11fab8e15e25060eull},
      {"verdict_us", 0x00000000000067f4ull},
      {"rolled_back", 0x0000000000000001ull},
      {"canary_served", 0x0000000000000003ull},
      {"cutovers", 0x0000000000000002ull},
  });
}

}  // namespace
}  // namespace gbo
