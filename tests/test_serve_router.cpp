// Multi-replica serving (DESIGN.md §10): the deterministic routing
// function, route_plan()'s autoscale/outage ledger, the 1-vs-N-worker
// routing fingerprint contract of ReplicaGroup::run, the ServerSpec
// builder (validation in one pass, equivalence with the deprecated
// constructors), and the replica-outage reroute built on the fault
// injector (serve/fault.hpp).
#include "common/thread_pool.hpp"
#include "models/mlp.hpp"
#include "serve/policy.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

namespace gbo {
namespace {

struct ThreadGuard {
  std::size_t saved = ThreadPool::instance().num_threads();
  ~ThreadGuard() { ThreadPool::instance().set_num_threads(saved); }
};

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

void expect_bitwise_equal(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.numel(); ++i)
    ASSERT_EQ(a[i], b[i]) << "i=" << i;
}

// ---- the routing function -------------------------------------------------

TEST(ServeRouter, RouteReplicaIsPureAndCoversActiveSet) {
  const std::vector<std::uint8_t> active = {0, 2, 3};
  serve::RouterPolicy rr;
  rr.strategy = serve::RouterPolicy::Strategy::kRoundRobin;
  for (std::uint64_t id = 0; id < 9; ++id)
    EXPECT_EQ(serve::route_replica(rr, id, active), active[id % 3]);

  serve::RouterPolicy hp;
  hp.strategy = serve::RouterPolicy::Strategy::kHash;
  hp.seed = 71;
  std::vector<std::size_t> hits(4, 0);
  for (std::uint64_t id = 0; id < 256; ++id) {
    const std::uint8_t r = serve::route_replica(hp, id, active);
    // Purity: the same (seed, id, active set) always routes identically.
    EXPECT_EQ(serve::route_replica(hp, id, active), r);
    EXPECT_NE(std::find(active.begin(), active.end(), r), active.end());
    ++hits[r];
  }
  EXPECT_EQ(hits[1], 0u);  // inactive replica receives nothing
  for (const std::uint8_t r : active)
    EXPECT_GT(hits[r], 0u);  // seeded hash spreads over every active replica
}

// ---- end-to-end fleet fixtures --------------------------------------------

constexpr std::uint64_t kServeSeed = 29;

serve::TrafficConfig flash_traffic() {
  serve::TrafficConfig cfg;
  cfg.num_requests = 220;
  cfg.rate_rps = 1600.0;
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

serve::ServeConfig fleet_config() {
  serve::ServeConfig cfg;
  cfg.batch.max_batch = 8;
  cfg.batch.max_wait_us = 200;
  cfg.seed = kServeSeed;
  cfg.slo.enabled = true;
  cfg.slo.deadline_us = 15000;
  cfg.slo.completion_headroom_us = 9000;
  cfg.slo.queue.capacity = 64;
  cfg.slo.queue.on_full = serve::QueuePolicy::OnFull::kDropOldest;
  cfg.slo.cost.batch_fixed_us = 50;
  cfg.slo.cost.primary_us = 800;
  cfg.slo.cost.degraded_us = 100;
  cfg.slo.ladder.degrade_depth = 8;
  cfg.slo.ladder.shed_depth = 30;
  cfg.slo.ladder.recover_depth = 2;
  cfg.slo.ladder.shed_floor = serve::Priority::kNormal;
  return cfg;
}

serve::RouterPolicy outage_router() {
  serve::RouterPolicy router;
  router.strategy = serve::RouterPolicy::Strategy::kRoundRobin;
  router.min_replicas = 1;
  router.scale_depth = 24;
  router.fault.enabled = true;
  router.fault.outage_start_id = 1;  // replica 1 down (fault id == replica)
  router.fault.outage_len = 1;
  return router;
}

struct FleetFixture {
  models::Mlp primary_model;
  models::Mlp degraded_model;
  data::Dataset ds;
  serve::AnalyticBackend primary;
  serve::AnalyticBackend degraded;

  FleetFixture()
      : primary_model(make_model({24, 24}, 31)),
        degraded_model(make_model({12}, 32)),
        ds(random_dataset(32, 16, 61)),
        primary(*primary_model.net, /*stochastic=*/false),
        degraded(*degraded_model.net, /*stochastic=*/false) {}

  static models::Mlp make_model(std::vector<std::size_t> hidden,
                                std::uint64_t seed) {
    models::MlpConfig cfg;
    cfg.in_features = 16;
    cfg.hidden = std::move(hidden);
    cfg.num_classes = 4;
    cfg.seed = seed;
    models::Mlp m = models::build_mlp(cfg);
    m.net->set_training(false);
    return m;
  }

  serve::ServerSpec spec(const serve::ServeConfig& cfg, std::size_t replicas,
                         const serve::RouterPolicy& router) const {
    return serve::ServerSpec{}
        .primary(primary)
        .degraded(degraded)
        .dataset(ds)
        .config(cfg)
        .replicas(replicas)
        .router(router);
  }
};

TEST(ServeRouter, RoutePlanRespectsOutageAutoscaleAndHashes) {
  const FleetFixture f;
  const auto trace = serve::make_trace(flash_traffic(), f.ds.size());
  const serve::ServeConfig cfg = fleet_config();
  const serve::RouterPolicy router = outage_router();

  const serve::Plan rp =
      serve::route_plan(trace, cfg.slo, cfg.batch, router, 4);
  ASSERT_EQ(rp.replicas.size(), 4u);
  ASSERT_EQ(rp.alive.size(), 4u);
  EXPECT_EQ(rp.alive[1], 0u);  // the outage window covers replica 1
  EXPECT_EQ(rp.alive[0], 1u);
  // The active set is a subset of the alive set within policy bounds.
  EXPECT_GE(rp.active.size(), router.min_replicas);
  EXPECT_LE(rp.active.size(), 3u);
  for (const std::uint8_t r : rp.active) EXPECT_TRUE(rp.alive[r]);
  // Every request routes to an active replica; none to the downed one.
  ASSERT_EQ(rp.assignment.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_NE(rp.assignment[i], 1u);
    EXPECT_EQ(rp.assignment[i], serve::route_replica(router, i, rp.active));
  }
  // Replaying the plan reproduces it bit for bit (purity).
  const serve::Plan again =
      serve::route_plan(trace, cfg.slo, cfg.batch, router, 4);
  EXPECT_EQ(again.routing_hash, rp.routing_hash);
  EXPECT_EQ(again.shed_set_hash, rp.shed_set_hash);
  EXPECT_EQ(serve::expected_causal_fingerprint(again),
            serve::expected_causal_fingerprint(rp));
}

TEST(ServeRouter, RoutePlanRejectsMoreThan255Replicas) {
  const auto trace = serve::make_trace(flash_traffic(), 32);
  const serve::ServeConfig cfg = fleet_config();
  // The assignment is a byte per request: replica 256 would alias replica 0.
  EXPECT_THROW(serve::route_plan(trace, cfg.slo, cfg.batch, {}, 256),
               std::invalid_argument);
  const serve::Plan p = serve::route_plan(trace, cfg.slo, cfg.batch, {}, 255);
  EXPECT_EQ(p.replicas.size(), 255u);
  // Round-robin over all 255 replicas: request i lands on replica i.
  ASSERT_LT(trace.size(), 255u);
  EXPECT_EQ(p.assignment.back(), trace.size() - 1);
}

TEST(ServeRouter, FleetPayloadsAndFingerprintsMatchAcrossWorkerCounts) {
  ThreadGuard guard;
  const FleetFixture f;
  const auto trace = serve::make_trace(flash_traffic(), f.ds.size());
  serve::ServeConfig cfg = fleet_config();
  const serve::RouterPolicy router = outage_router();

  serve::ReplicaGroup probe(f.spec(cfg, 3, router));
  const serve::Plan rp = probe.plan_trace(trace);

  ThreadPool::instance().set_num_threads(1);
  cfg.num_workers = 1;
  serve::ReplicaGroup g1(f.spec(cfg, 3, router));
  const serve::RouterReport r1 = g1.run(trace);
  ThreadPool::instance().set_num_threads(4);
  cfg.num_workers = 4;
  serve::ReplicaGroup g4(f.spec(cfg, 3, router));
  const serve::RouterReport r4 = g4.run(trace);

  // The §10 contract: payloads, the routing assignment, and every
  // per-replica shed set are bitwise identical at any worker count and
  // equal to the plan oracle.
  expect_bitwise_equal(r1.serve.outputs, r4.serve.outputs);
  EXPECT_EQ(r1.routing_hash, rp.routing_hash);
  EXPECT_EQ(r4.routing_hash, rp.routing_hash);
  ASSERT_EQ(r1.replicas.size(), 3u);
  ASSERT_EQ(r4.replicas.size(), 3u);
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(r1.replicas[r].exec_shed_set_hash,
              rp.replicas[r].shed_set_hash);
    EXPECT_EQ(r4.replicas[r].exec_shed_set_hash,
              rp.replicas[r].shed_set_hash);
    EXPECT_EQ(r1.replicas[r].assigned, r4.replicas[r].assigned);
    EXPECT_EQ(r1.replicas[r].delivered, r4.replicas[r].delivered);
  }
  EXPECT_EQ(r1.serve.slo.exec_shed_set_hash, rp.shed_set_hash);
  EXPECT_EQ(r4.serve.slo.exec_shed_set_hash, rp.shed_set_hash);
  EXPECT_EQ(r1.serve.completed, rp.counters.served);
  EXPECT_EQ(r4.serve.completed, rp.counters.served);
  // The flash crowd actually exercised the shed machinery fleet-wide.
  EXPECT_GT(r4.serve.slo.exec_shed, 0u);
}

TEST(ServeRouter, OutageRerouteKeepsDeliveredPayloadBits) {
  ThreadGuard guard;
  ThreadPool::instance().set_num_threads(2);
  const FleetFixture f;
  const auto trace = serve::make_trace(flash_traffic(), f.ds.size());
  serve::ServeConfig cfg = fleet_config();
  cfg.num_workers = 2;

  serve::RouterPolicy healthy = outage_router();
  healthy.fault = serve::FaultConfig{};  // all replicas alive
  serve::ReplicaGroup gh(f.spec(cfg, 3, healthy));
  const serve::Plan ph = gh.plan_trace(trace);
  const serve::RouterReport rh = gh.run(trace);

  serve::ReplicaGroup go(f.spec(cfg, 3, outage_router()));
  const serve::Plan po = go.plan_trace(trace);
  const serve::RouterReport ro = go.run(trace);

  // The outage reroutes every request that would have hit replica 1.
  EXPECT_EQ(ro.replicas[1].assigned, 0u);
  EXPECT_GT(rh.replicas[1].assigned, 0u);
  EXPECT_LT(ro.active_replicas, rh.active_replicas);
  // Payload purity across the reroute: payloads depend only on
  // (seed, request id, served mode), so a request served at primary
  // fidelity in BOTH runs carries the identical bits even though the
  // outage moved it between replicas (the ladder may legitimately degrade
  // different requests under the redistributed load).
  const std::size_t out_dim = rh.serve.outputs.shape()[1];
  std::size_t both = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (!ph.decisions[i].served() || !po.decisions[i].served()) continue;
    if (ph.decisions[i].mode != serve::ServeMode::kPrimary ||
        po.decisions[i].mode != serve::ServeMode::kPrimary)
      continue;
    ++both;
    for (std::size_t j = 0; j < out_dim; ++j)
      ASSERT_EQ(rh.serve.outputs.at(i, j), ro.serve.outputs.at(i, j))
          << "request " << i;
  }
  EXPECT_GT(both, 0u);
}

TEST(ServeRouter, GroupOfOneMatchesSingleServer) {
  // One executor serves both entry points: a single InferenceServer is a
  // ReplicaGroup of one replica that routes nothing. Built from the same SLO
  // spec (with seeded faults, so retries, fallbacks and the breaker run
  // too), both must agree bit for bit at every worker count.
  ThreadGuard guard;
  ThreadPool::instance().set_num_threads(4);
  const FleetFixture f;
  const auto trace = serve::make_trace(flash_traffic(), f.ds.size());
  serve::ServeConfig cfg = fleet_config();
  cfg.slo.retry.max_attempts = 2;
  cfg.slo.retry.backoff_us = 20;
  cfg.slo.fault.enabled = true;
  cfg.slo.fault.seed = 555;
  cfg.slo.fault.transient_rate = 0.08;
  cfg.slo.fault.outage_start_id = 30;
  cfg.slo.fault.outage_len = 12;
  for (const std::size_t workers : {1u, 4u}) {
    SCOPED_TRACE(workers);
    cfg.num_workers = workers;
    serve::InferenceServer single(f.spec(cfg, 1, serve::RouterPolicy{}));
    serve::ReplicaGroup group(f.spec(cfg, 1, serve::RouterPolicy{}));
    const serve::ServeReport a = single.run(trace);
    const serve::RouterReport g = group.run(trace);
    const serve::ServeReport& b = g.serve;
    expect_bitwise_equal(a.outputs, b.outputs);
    const serve::SloSummary& x = a.slo;
    const serve::SloSummary& y = b.slo;
    ASSERT_TRUE(x.enabled && y.enabled);
    EXPECT_EQ(x.shed_set_hash, y.shed_set_hash);
    EXPECT_EQ(x.exec_shed_set_hash, y.exec_shed_set_hash);
    EXPECT_EQ(x.exec_shed_set_hash, x.shed_set_hash);
    EXPECT_EQ(x.admitted, y.admitted);
    EXPECT_EQ(x.served, y.served);
    EXPECT_EQ(x.served_primary, y.served_primary);
    EXPECT_EQ(x.degraded_ladder, y.degraded_ladder);
    EXPECT_EQ(x.degraded_breaker, y.degraded_breaker);
    EXPECT_EQ(x.degraded_fallback, y.degraded_fallback);
    EXPECT_EQ(x.shed_expired, y.shed_expired);
    EXPECT_EQ(x.shed_overload, y.shed_overload);
    EXPECT_EQ(x.rejected_capacity, y.rejected_capacity);
    EXPECT_EQ(x.evicted, y.evicted);
    EXPECT_EQ(x.retried_requests, y.retried_requests);
    EXPECT_EQ(x.faults_injected, y.faults_injected);
    EXPECT_EQ(x.late_virtual, y.late_virtual);
    EXPECT_EQ(x.breaker_opens, y.breaker_opens);
    EXPECT_EQ(x.ladder_transitions, y.ladder_transitions);
    EXPECT_EQ(x.max_ladder_level, y.max_ladder_level);
    EXPECT_EQ(x.max_virtual_depth, y.max_virtual_depth);
    EXPECT_EQ(x.exec_delivered, y.exec_delivered);
    EXPECT_EQ(x.exec_shed, y.exec_shed);
    EXPECT_EQ(x.exec_retried, y.exec_retried);
    EXPECT_EQ(x.exec_faults, y.exec_faults);
    EXPECT_EQ(x.exec_fallbacks, y.exec_fallbacks);
    EXPECT_EQ(x.exec_degraded, y.exec_degraded);
    // The scenario must actually exercise the control plane.
    EXPECT_GT(x.shed_expired + x.shed_overload + x.evicted, 0u);
    EXPECT_GT(x.faults_injected, 0u);
    ASSERT_EQ(g.replicas.size(), 1u);
    EXPECT_EQ(g.replicas[0].exec_shed_set_hash, x.exec_shed_set_hash);
    EXPECT_EQ(g.replicas[0].delivered, a.completed);
  }
}

// ---- ServerSpec builder ---------------------------------------------------

TEST(ServerSpecBuilder, SingleReplicaSpecIsReproducible) {
  ThreadGuard guard;
  ThreadPool::instance().set_num_threads(2);
  const FleetFixture f;
  const auto trace = serve::make_trace(flash_traffic(), f.ds.size());
  serve::ServeConfig cfg = fleet_config();
  cfg.num_workers = 2;

  // ServerSpec::validate() is the only construction path (the deprecated
  // pre-spec constructor shims are gone): two servers built from the same
  // spec must be byte-for-byte equivalent — identical payloads and shed
  // fingerprints — and spec evaluation order must not matter.
  serve::InferenceServer first(serve::ServerSpec{}
                                   .primary(f.primary)
                                   .degraded(f.degraded)
                                   .dataset(f.ds)
                                   .config(cfg));
  serve::InferenceServer second(serve::ServerSpec{}
                                    .config(cfg)
                                    .dataset(f.ds)
                                    .degraded(f.degraded)
                                    .primary(f.primary));
  const serve::ServeReport a = first.run(trace);
  const serve::ServeReport b = second.run(trace);
  expect_bitwise_equal(a.outputs, b.outputs);
  EXPECT_EQ(a.slo.exec_shed_set_hash, b.slo.exec_shed_set_hash);
  EXPECT_EQ(a.completed, b.completed);

  serve::ServeConfig plain;
  plain.batch.max_batch = 8;
  plain.batch.max_wait_us = 100;
  plain.num_workers = 2;
  plain.seed = kServeSeed;
  serve::TrafficConfig tcfg;
  tcfg.num_requests = 60;
  tcfg.rate_rps = 20000.0;
  tcfg.seed = 13;
  const auto ptrace = serve::make_trace(tcfg, f.ds.size());
  serve::InferenceServer plain0(
      serve::ServerSpec{}.primary(f.primary).dataset(f.ds).config(plain));
  serve::InferenceServer plain1(
      serve::ServerSpec{}.primary(f.primary).dataset(f.ds).config(plain));
  expect_bitwise_equal(plain0.run(ptrace).outputs,
                       plain1.run(ptrace).outputs);
}

TEST(ServerSpecBuilder, ValidateReportsEveryProblemAtOnce) {
  // An empty spec has no primary and no dataset: both errors must surface
  // in ONE validation pass, not one-at-a-time.
  const serve::ServerSpec empty;
  const auto v = empty.validate();
  EXPECT_FALSE(v.ok());
  ASSERT_GE(v.errors.size(), 2u);

  // Warnings collect the legacy clamp-with-warning behaviour in the same
  // pass: zero workers, zero max_batch, zero replicas, floor above count.
  const FleetFixture f;
  serve::ServeConfig cfg = fleet_config();
  cfg.num_workers = 0;
  cfg.batch.max_batch = 0;
  serve::RouterPolicy router;
  router.min_replicas = 9;
  const serve::ServerSpec clamped = f.spec(cfg, 0, router);
  const auto vc = clamped.validate();
  EXPECT_TRUE(vc.ok());
  EXPECT_GE(vc.warnings.size(), 3u);
  const serve::ServeConfig norm = clamped.normalized_config();
  EXPECT_EQ(norm.num_workers, 1u);
  EXPECT_EQ(norm.batch.max_batch, 1u);
  EXPECT_EQ(clamped.normalized_replicas(), 1u);

  // The replica cap is a validate() error like any other, reported in the
  // same pass as the missing backend and dataset.
  const auto vr = serve::ServerSpec{}.config(fleet_config()).replicas(256)
                      .validate();
  EXPECT_EQ(vr.errors.size(), 3u);
  EXPECT_TRUE(std::any_of(vr.errors.begin(), vr.errors.end(),
                          [](const std::string& e) {
                            return e.find("255") != std::string::npos;
                          }));
  EXPECT_TRUE(serve::ServerSpec{}.config(fleet_config()).replicas(255)
                  .validate().errors.size() == 2u);

  // The throwing constructor reports every error in one message.
  serve::ServeConfig no_slo = fleet_config();
  no_slo.slo.enabled = false;
  const serve::ServerSpec bad =
      serve::ServerSpec{}.config(no_slo).replicas(4);
  try {
    serve::InferenceServer server(bad);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("primary"), std::string::npos) << what;
    EXPECT_NE(what.find("dataset"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace gbo
