// Serving-runtime demo, one CLI over three scenarios:
//
//   plain   a trained binary-weight MLP behind the online inference server:
//           dynamic micro-batching under bursty Poisson traffic on the clean
//           and noisy analytic backends, then the pulse-level deployed
//           crossbar (DESIGN.md §4).
//   slo     a flash-crowd overload with deterministic fault injection: the
//           control plane's admission control, deadline sheds, fidelity
//           ladder, retries and circuit breaker, planned on the virtual
//           clock and executed at 1 and 4 workers (DESIGN.md §7).
//   router  N replicas behind the deterministic router, driven through an
//           outage with queue-depth autoscaling (DESIGN.md §10).
//
//   ./serve_demo [--scenario plain|slo|router] [--trace-out PREFIX]
//
// Every scenario prints its determinism checks and exits nonzero when any
// of them reads NO. With --trace-out, the measured runs are exported as
// Chrome trace-event JSON (<prefix><run>.json) loadable in chrome://tracing
// or Perfetto.
#include "common/cli.hpp"
#include "common/logging.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "crossbar/crossbar_layers.hpp"
#include "crossbar/hw_deploy.hpp"
#include "models/mlp.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "serve/policy.hpp"
#include "serve/router.hpp"
#include "tensor/ops.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

namespace {

using namespace gbo;

/// Prints one check line and folds it into the scenario's exit status.
struct Checks {
  bool ok = true;
  void report(const char* what, bool pass) {
    std::printf("  %-44s %s\n", what, pass ? "yes" : "NO");
    ok = ok && pass;
  }
  int exit_code() const { return ok ? 0 : 1; }
};

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

void write_trace(const obs::TraceSnapshot& snap, const std::string& prefix,
                 const std::string& slug) {
  if (prefix.empty() || !obs::runtime_enabled()) return;
  const std::string path = prefix + slug + ".json";
  if (obs::write_chrome_trace(snap, path, "serve_demo " + slug))
    std::printf("  wrote %s\n", path.c_str());
}

data::Dataset random_dataset(std::size_t rows, std::size_t features,
                             std::uint64_t seed) {
  data::Dataset ds;
  Rng rng(seed);
  ds.images = Tensor({rows, features});
  ops::fill_uniform(ds.images, rng, -1.0f, 1.0f);
  ds.labels.assign(rows, 0);
  return ds;
}

models::Mlp eval_mlp(std::size_t in, std::vector<std::size_t> hidden,
                     std::uint64_t seed) {
  models::MlpConfig mcfg;
  mcfg.in_features = in;
  mcfg.hidden = std::move(hidden);
  mcfg.num_classes = 10;
  mcfg.seed = seed;
  models::Mlp m = models::build_mlp(mcfg);
  m.net->set_training(false);
  return m;
}

/// Flash crowd over a steady rate with a 20/50/30 high/normal/low priority
/// mix: the burst goes far beyond sustained capacity, which is what
/// exercises the ladder, the shedder and the autoscaler.
serve::TrafficConfig flash_traffic(std::size_t n, double rate, double factor,
                                   double start_s) {
  serve::TrafficConfig t;
  t.num_requests = n;
  t.rate_rps = rate;
  t.shape = serve::TraceShape::kFlashCrowd;
  t.flash_factor = factor;
  t.flash_start_s = start_s;
  t.flash_ramp_s = 0.005;
  t.flash_hold_s = 0.02;
  t.high_fraction = 0.2;
  t.low_fraction = 0.3;
  t.seed = 101;
  return t;
}

/// Deadlines, a bounded drop-oldest queue and the fidelity ladder.
serve::ServeConfig slo_config(std::uint64_t primary_us) {
  serve::ServeConfig cfg;
  cfg.batch.max_batch = 8;
  cfg.batch.max_wait_us = 200;
  cfg.seed = 29;
  cfg.slo.enabled = true;
  cfg.slo.deadline_us = 15000;
  cfg.slo.completion_headroom_us = 9000;
  cfg.slo.queue.capacity = 64;
  cfg.slo.queue.on_full = serve::QueuePolicy::OnFull::kDropOldest;
  cfg.slo.cost.primary_us = primary_us;
  cfg.slo.cost.degraded_us = 100;
  cfg.slo.ladder.degrade_depth = 8;
  cfg.slo.ladder.shed_depth = 30;
  cfg.slo.ladder.recover_depth = 2;
  cfg.slo.ladder.shed_floor = serve::Priority::kNormal;
  return cfg;
}

int run_plain(const std::string& trace_out) {
  models::Mlp model = eval_mlp(32, {64, 64}, 11);
  const data::Dataset ds = random_dataset(256, 32, 3);

  // 2k requests at ~8k rps with 3x bursts 30% of the time.
  serve::TrafficConfig tcfg;
  tcfg.num_requests = 2000;
  tcfg.rate_rps = 8000.0;
  tcfg.burst_factor = 3.0;
  tcfg.burst_duty = 0.3;
  tcfg.burst_period_s = 0.01;
  const auto trace = serve::make_trace(tcfg, ds.size());

  serve::ServeConfig scfg;
  scfg.batch.max_batch = 8;
  scfg.batch.max_wait_us = 200;
  scfg.num_workers = 4;

  std::printf("Serving %zu requests on %zu workers (%zu pool threads)...\n\n",
              trace.size(), scfg.num_workers,
              ThreadPool::instance().num_threads());

  // Each backend: a 1-worker reference run, then the measured 4-worker
  // server after a warm run that sizes its arenas along real paths.
  Table table(serve::report_header());
  Checks checks;
  auto row = [&](const char* name, const char* slug,
                 const serve::Backend& backend,
                 const std::vector<serve::Arrival>& tr) {
    serve::ServeConfig one = scfg;
    one.num_workers = 1;
    const serve::ServeReport ref =
        serve::InferenceServer(
            serve::ServerSpec{}.primary(backend).dataset(ds).config(one))
            .run(tr);
    serve::InferenceServer server(
        serve::ServerSpec{}.primary(backend).dataset(ds).config(scfg));
    server.warmup();
    (void)server.run(tr);
    obs::begin_session();
    const serve::ServeReport r = server.run(tr);
    const obs::TraceSnapshot snap = obs::end_session();
    table.add_row(serve::report_row(name, r));
    const std::string what = std::string(name) + " payloads same at 1/4w:";
    checks.report(what.c_str(), same_bits(ref.outputs, r.outputs));
    write_trace(snap, trace_out, slug);
  };

  {
    serve::AnalyticBackend clean(*model.net, /*stochastic=*/false);
    row("analytic clean", "analytic_clean", clean, trace);
  }
  {
    Rng crng(11);
    xbar::LayerNoiseController ctrl(model.encoded, /*sigma=*/1.0,
                                    model.base_pulses(), crng);
    ctrl.attach();
    ctrl.set_enabled_all(true);
    serve::AnalyticBackend noisy(*model.net, /*stochastic=*/true);
    row("analytic noisy", "analytic_noisy", noisy, trace);
    ctrl.detach();
  }
  {
    xbar::HwDeployConfig hw_cfg;
    hw_cfg.sigma = 0.5;
    hw_cfg.device.read_noise_sigma = 0.05;
    hw_cfg.device.adc_bits = 8;
    xbar::HardwareNetwork hw(*model.net, model.encoded, hw_cfg);
    serve::PulseBackend pulse(hw);
    serve::TrafficConfig slow = tcfg;  // pulse sim is ~10x heavier per req
    slow.num_requests = 400;
    slow.rate_rps = 2000.0;
    row("pulse hardware", "pulse", pulse, serve::make_trace(slow, ds.size()));
  }

  std::printf("\n%s", table.to_text().c_str());
  std::printf(
      "\nPayloads are bitwise reproducible from (seed, trace) at any worker\n"
      "count or batch boundary; see bench_serve --smoke for the gates.\n");
  return checks.exit_code();
}

int run_slo(const std::string& trace_out) {
  // The pulse-level deployed crossbar is the primary backend; the clean
  // analytic host network is the degraded fallback the fidelity ladder and
  // the breaker route to.
  models::Mlp model = eval_mlp(24, {32, 32}, 21);
  const data::Dataset ds = random_dataset(128, 24, 43);
  xbar::HwDeployConfig hw_cfg;
  hw_cfg.sigma = 0.5;
  hw_cfg.device.read_noise_sigma = 0.05;
  hw_cfg.device.adc_bits = 8;
  hw_cfg.device.program_variation = 0.05;
  xbar::HardwareNetwork hw(*model.net, model.encoded, hw_cfg);
  serve::PulseBackend primary(hw);
  serve::AnalyticBackend fallback(*model.net, /*stochastic=*/false);

  const auto trace =
      serve::make_trace(flash_traffic(320, 900.0, 14.0, 0.05), ds.size());
  serve::ServeConfig cfg = slo_config(800);
  cfg.slo.retry.max_attempts = 2;
  cfg.slo.retry.backoff_us = 50;
  cfg.slo.breaker.failure_threshold = 3;
  cfg.slo.breaker.cooldown_us = 30000;
  cfg.slo.fault.enabled = true;
  cfg.slo.fault.seed = 555;
  cfg.slo.fault.transient_rate = 0.08;
  cfg.slo.fault.outage_start_id = 30;  // sustained outage before the flash
  cfg.slo.fault.outage_len = 12;

  // --- The plan: what WILL happen, before anything runs. ---------------
  const serve::Plan plan = serve::plan(trace, cfg.slo, cfg.batch);
  const serve::PlanCounters& c = plan.counters;
  std::printf("Planned on the virtual clock (%zu requests):\n", trace.size());
  std::printf(
      "  served %zu (primary %zu, ladder-degraded %zu, breaker-degraded %zu,"
      " fallback %zu)\n",
      c.served, c.served_primary, c.degraded_ladder, c.degraded_breaker,
      c.degraded_fallback);
  std::printf(
      "  shed %zu (expired %zu, overload %zu) rejected %zu evicted %zu\n",
      c.shed_expired + c.shed_overload, c.shed_expired, c.shed_overload,
      c.rejected, c.evicted);
  std::printf(
      "  faults %zu over %zu retried requests, breaker opened %zux,"
      " ladder peaked at level %d (final %d), peak depth %zu\n",
      c.faults_injected, c.retried_requests, c.breaker_opens,
      c.max_ladder_level, c.final_ladder_level, c.max_virtual_depth);
  std::printf("  shed-set fingerprint %s\n\n",
              serve::hex64(plan.shed_set_hash).c_str());

  Table lat({"priority", "served", "virtual p50 us", "p95 us", "p99 us"});
  const char* pri_names[] = {"high", "normal", "low"};
  for (std::size_t k = 0; k < serve::kNumPriorities; ++k) {
    const serve::LatencyStats& s = plan.virtual_by_priority[k];
    lat.add_row({pri_names[k], std::to_string(s.count),
                 Table::fmt(s.p50_us, 0), Table::fmt(s.p95_us, 0),
                 Table::fmt(s.p99_us, 0)});
  }
  std::printf("%s\n", lat.to_text().c_str());

  // --- Execution: the runtime honors the plan at any worker count. -----
  std::printf("Executing on %zu pool threads...\n",
              ThreadPool::instance().num_threads());
  serve::ServeReport reps[2];
  obs::TraceSnapshot snaps[2];
  const std::size_t workers[2] = {1, 4};
  for (int k = 0; k < 2; ++k) {
    cfg.num_workers = workers[k];
    serve::InferenceServer server(serve::ServerSpec{}
                                      .primary(primary)
                                      .degraded(fallback)
                                      .dataset(ds)
                                      .config(cfg));
    obs::begin_session();
    reps[k] = server.run(trace);
    snaps[k] = obs::end_session();
  }
  std::printf("%s", serve::slo_exec_summary("1 worker", reps[0]).c_str());
  std::printf("%s", serve::slo_exec_summary("4 workers", reps[1]).c_str());

  Checks checks;
  checks.report("payloads bitwise identical at 1/4 workers:",
                same_bits(reps[0].outputs, reps[1].outputs));
  checks.report("shed-set fingerprints match the plan:",
                reps[0].slo.exec_shed_set_hash == plan.shed_set_hash &&
                    reps[1].slo.exec_shed_set_hash == plan.shed_set_hash);
  if (obs::runtime_enabled()) {
    // The causal half of the trace stream (admissions, sheds, retries,
    // deliveries, ladder/breaker transitions on the virtual clock) hashes
    // identically at any worker count and matches the plan-derived oracle.
    const std::uint64_t fp1 = obs::causal_fingerprint(snaps[0].events);
    const std::uint64_t fp4 = obs::causal_fingerprint(snaps[1].events);
    std::printf("  causal trace fingerprint %s\n", serve::hex64(fp4).c_str());
    checks.report("causal fingerprint same at 1/4 workers:", fp1 == fp4);
    checks.report("causal fingerprint matches the plan oracle:",
                  fp4 == serve::expected_causal_fingerprint(plan));
    write_trace(snaps[1], trace_out, "slo");
  }
  std::printf(
      "\nThe shed set is a pure function of (seed, trace, policy): rerun\n"
      "this demo on any machine, at any GBO_NUM_THREADS, and every\n"
      "fingerprint and payload above is bitwise unchanged. See\n"
      "bench_serve --smoke --slo-json for the CI gates.\n");
  return checks.exit_code();
}

int run_router(const std::string& trace_out) {
  models::Mlp model = eval_mlp(24, {32, 32}, 21);
  models::Mlp small = eval_mlp(24, {16}, 22);
  const data::Dataset ds = random_dataset(128, 24, 43);
  serve::AnalyticBackend primary(*model.net, /*stochastic=*/false);
  serve::AnalyticBackend fallback(*small.net, /*stochastic=*/false);

  const auto trace =
      serve::make_trace(flash_traffic(360, 1800.0, 10.0, 0.04), ds.size());
  serve::ServeConfig cfg = slo_config(500);
  cfg.num_workers = 2;

  serve::RouterPolicy router;
  router.strategy = serve::RouterPolicy::Strategy::kRoundRobin;
  router.min_replicas = 1;
  router.scale_depth = 24;  // autoscale off planned queue depth
  // Replica 1 is down for the run (fault id == replica index).
  router.fault.enabled = true;
  router.fault.outage_start_id = 1;
  router.fault.outage_len = 1;

  serve::ReplicaGroup group(serve::ServerSpec{}
                                .primary(primary)
                                .degraded(fallback)
                                .dataset(ds)
                                .config(cfg)
                                .replicas(4)
                                .router(router));

  // The fleet plan, before anything runs.
  const serve::Plan rp = group.plan_trace(trace);
  std::printf(
      "Planned %zu requests across %zu deployed replicas "
      "(%zu alive -> %zu activated by the autoscaler):\n",
      trace.size(), rp.replicas.size(),
      static_cast<std::size_t>(
          std::count(rp.alive.begin(), rp.alive.end(), std::uint8_t{1})),
      rp.active.size());
  std::printf("  routing hash %s, fleet shed-set hash %s\n\n",
              serve::hex64(rp.routing_hash).c_str(),
              serve::hex64(rp.shed_set_hash).c_str());

  std::printf("Executing on %zu pool threads...\n",
              ThreadPool::instance().num_threads());
  obs::begin_session();
  const serve::RouterReport rep = group.run(trace);
  const obs::TraceSnapshot snap = obs::end_session();

  Table t({"replica", "alive", "active", "assigned", "delivered", "shed",
           "shed hash == plan", "steady allocs"});
  bool per_replica_ok = true;
  for (std::size_t r = 0; r < rep.replicas.size(); ++r) {
    const serve::ReplicaStats& rs = rep.replicas[r];
    const bool ok = rs.exec_shed_set_hash == rs.plan_shed_set_hash;
    per_replica_ok = per_replica_ok && ok;
    t.add_row({std::to_string(r), rs.alive ? "yes" : "no",
               rs.active ? "yes" : "no", std::to_string(rs.assigned),
               std::to_string(rs.delivered), std::to_string(rs.shed),
               ok ? "yes" : "NO", std::to_string(rs.steady_allocs)});
  }
  std::printf("%s\n", t.to_text().c_str());
  std::printf("%s", serve::slo_exec_summary("fleet", rep.serve).c_str());

  Checks checks;
  checks.report("routing hash matches the plan:",
                rep.routing_hash == rp.routing_hash);
  checks.report("per-replica shed sets match their plan rows:",
                per_replica_ok);
  if (obs::runtime_enabled()) {
    const std::uint64_t fp = obs::causal_fingerprint(snap.events);
    std::printf("  causal trace fingerprint %s\n", serve::hex64(fp).c_str());
    checks.report("causal fingerprint matches the fleet oracle:",
                  fp == serve::expected_causal_fingerprint(rp));
    write_trace(snap, trace_out, "router");
  }
  std::printf(
      "\nRouting, per-replica shed sets, and payloads are pure functions of\n"
      "(seed, trace, policy): a rerouted request (outage, autoscale step)\n"
      "served at the same fidelity keeps its payload bits, because every\n"
      "replica shares the payload seed and payloads depend only on\n"
      "(seed, request id, mode). See bench_serve --router-json for the\n"
      "CI gates.\n");
  return checks.exit_code();
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("serve_demo", "Serving runtime demo: plain, slo or router.");
  cli.add_option("scenario", "plain | slo | router", "plain");
  add_serve_trace_flags(cli);
  if (!cli.parse(argc, argv)) return cli.exit_code();
  const std::string scenario = cli.get_string("scenario", "plain");
  const std::string trace_out = cli.get_string("trace-out", "");
  set_log_level(LogLevel::kWarn);

  if (scenario == "plain") return run_plain(trace_out);
  if (scenario == "slo") return run_slo(trace_out);
  if (scenario == "router") return run_router(trace_out);
  std::fprintf(stderr,
               "serve_demo: unknown --scenario '%s' (plain | slo | router)\n",
               scenario.c_str());
  return 2;
}
