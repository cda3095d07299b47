// perfbench — the repository benchmark program.
//
// Links libgbo_core and times calls into each module's public functions
// from outside. One invocation runs one workload and writes a raw JSON
// record (timings, latency samples, outputs, self-consistency checks,
// optional trace) that perfbench/run.py reduces to the benchmark metrics:
//
//   perfbench --workload <train|eval|serve_analytic|serve_pulse_slo>
//             --seed N --seconds S --trace 0|1 --artifacts DIR --out FILE
//   perfbench --prepare --artifacts DIR
//
// Workloads (every timed phase runs one compute thread, tracing off):
//   train            QAT core::pretrain epochs from a fixed init, then
//                    opt::GboTrainer λ epochs at a fixed σ.
//   eval             Table-I evaluation half on the prepared checkpoint:
//                    core::evaluate_noisy for Baseline-8 / PLA-12 / PLA-16 /
//                    the prepared GBO schedule at each prepared σ, plus one
//                    clean core::evaluate.
//   serve_analytic   InferenceServer over the noisy AnalyticBackend: Poisson
//                    open-loop rungs at fixed rates, then a saturating burst.
//   serve_pulse_slo  run_slo with a PulseBackend primary and an analytic
//                    fallback under a flash crowd with seeded faults.
//
// --prepare is the untimed preparation step: it pretrains the standard
// checkpoint, calibrates the σ ladder and trains the GBO schedule with the
// code under test and stores them under --artifacts, keyed by the
// configuration fingerprint. Timed runs only ever load these files; a
// missing or stale artifact fails the run instead of retraining.
#include "common/artifact_cache.hpp"
#include "common/json.hpp"
#include "common/logging.hpp"
#include "common/serialize.hpp"
#include "common/thread_pool.hpp"
#include "core/experiment.hpp"
#include "core/pipeline.hpp"
#include "crossbar/hw_deploy.hpp"
#include "data/synth_cifar.hpp"
#include "gbo/gbo.hpp"
#include "models/vgg9.hpp"
#include "nn/loss.hpp"
#include "obs/trace.hpp"
#include "serve/backend.hpp"
#include "serve/policy.hpp"
#include "serve/server.hpp"
#include "serve/traffic.hpp"
#include "tensor/gemm_binary.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace gbo;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t h = 1469598103934665603ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Machine record: nproc, an effective-parallelism probe and the kernel
// dispatch the build selected.

double spin_seconds(std::size_t threads) {
  constexpr std::uint64_t kIters = 30'000'000;
  std::atomic<std::uint64_t> sink{0};
  auto spin = [&] {
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (std::uint64_t i = 0; i < kIters; ++i) x = x * 6364136223846793005ull + i;
    sink += x;
  };
  const auto t0 = Clock::now();
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(spin);
  spin();
  for (auto& th : pool) th.join();
  return seconds_since(t0);
}

Json machine_record() {
  const std::size_t nproc = static_cast<std::size_t>(sysconf(_SC_NPROCESSORS_ONLN));
  const double t1 = spin_seconds(1);
  const double tn = spin_seconds(nproc);
  Json m = Json::object();
  m.set("nproc", nproc);
  m.set("spin_1t_s", t1);
  m.set("spin_nt_s", tn);
  // N threads doing N units of work in tn vs one unit in t1.
  m.set("effective_parallelism", static_cast<double>(nproc) * t1 / tn);
  m.set("cpu_features", gemm::cpu_features());
  m.set("binary_kernel", gemm::binary_kernel_name());
  m.set("build_type", PERFBENCH_BUILD_TYPE);
  return m;
}

// ---------------------------------------------------------------------------
// Benchmark-side spans around the calls into each layer, on the obs clock,
// so they nest with the library's own kernel spans in the traced run.

class SpanLog {
 public:
  void set_active(bool on) { active_ = on; }
  bool active() const { return active_; }

  void record(const std::string& name, unsigned track, std::uint64_t start_us,
              std::uint64_t dur_us, double work) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, track, start_us, dur_us, work});
  }

  Json to_json() const {
    Json arr = Json::array();
    for (const Rec& r : spans_) {
      Json s = Json::array();
      s.push_back(r.name);
      s.push_back(r.tid);
      s.push_back(r.start_us);
      s.push_back(r.dur_us);
      s.push_back(r.work);
      arr.push_back(s);
    }
    return arr;
  }

 private:
  struct Rec {
    std::string name;
    unsigned tid;
    std::uint64_t start_us;
    std::uint64_t dur_us;
    double work;
  };
  std::mutex mu_;
  std::vector<Rec> spans_;
  bool active_ = false;
};

SpanLog g_spans;

/// Track of spans that wrap a whole serving phase. The pool may run the
/// serving worker on the calling thread, so a phase span gets a track of its
/// own instead of swallowing the worker's spans as children.
constexpr unsigned kPhaseTrack = 255;

/// Times one call into a layer; records a span when the traced run is on.
/// The span sits on the calling thread's track unless `track` is given.
class Timed {
 public:
  explicit Timed(std::string name, double work = 0.0,
                 unsigned track = ThreadPool::current_worker_id())
      : name_(std::move(name)), work_(work), track_(track), t0_(Clock::now()),
        start_us_(g_spans.active() ? obs::now_us() : 0) {}
  ~Timed() {
    if (g_spans.active())
      g_spans.record(name_, track_, start_us_, obs::now_us() - start_us_, work_);
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  double seconds() const { return seconds_since(t0_); }

 private:
  std::string name_;
  double work_;
  unsigned track_;
  Clock::time_point t0_;
  std::uint64_t start_us_;
};

// ---------------------------------------------------------------------------
// A pass-through module appended after the classifier: it stamps the
// completion of every batch (training step or evaluation batch), which is
// how the benchmark observes per-batch latency of core::pretrain,
// GboTrainer::train and core::evaluate* without touching the library.

class BatchClock : public nn::Module {
 public:
  void restart() const { last_ = Clock::now(); }
  Tensor forward(const Tensor& x) override {
    tick();
    return x;
  }
  Tensor backward(const Tensor& grad_out) override { return grad_out; }
  Tensor infer(const Tensor& x, nn::EvalContext&) const override {
    tick();
    return x;
  }
  std::string kind() const override { return "BatchClock"; }
  const std::vector<double>& intervals_ms() const { return intervals_ms_; }

 private:
  void tick() const {
    const auto now = Clock::now();
    intervals_ms_.push_back(
        std::chrono::duration<double, std::milli>(now - last_).count());
    last_ = now;
  }
  mutable Clock::time_point last_ = Clock::now();
  mutable std::vector<double> intervals_ms_;
};

// ---------------------------------------------------------------------------
// Timing decorator over a serving backend: per-call time and rows. The
// fusion mode and determinism are forwarded so the server batches exactly
// as it would over the undecorated backend.

class TimedBackend : public serve::Backend {
 public:
  TimedBackend(const serve::Backend& inner, std::string span)
      : inner_(inner), span_(std::move(span)) {}

  std::string name() const override { return inner_.name(); }
  bool deterministic() const override { return inner_.deterministic(); }
  serve::FusionMode fusion_mode() const override { return inner_.fusion_mode(); }
  Tensor run(const Tensor& x, nn::EvalContext& ctx) const override {
    Timed t(span_, static_cast<double>(x.dim(0)));
    Tensor y = inner_.run(x, ctx);
    calls_ += 1;
    rows_ += x.dim(0);
    ms_ += 1e3 * t.seconds();
    return y;
  }

  void reset() const { calls_ = rows_ = 0; ms_ = 0.0; }
  std::size_t calls() const { return calls_; }
  std::size_t rows() const { return rows_; }
  double ms() const { return ms_; }

 private:
  const serve::Backend& inner_;
  std::string span_;
  // Written only by the single serving worker (and by warmup before it).
  mutable std::size_t calls_ = 0;
  mutable std::size_t rows_ = 0;
  mutable double ms_ = 0.0;
};

// ---------------------------------------------------------------------------
// The standard experiment and its prepared artifacts.

constexpr std::uint64_t kDefaultSeed = 1;
/// Run length the workload sizes below are chosen for; --seconds scales them.
constexpr double kBaseSeconds = 20.0;

/// The standard experiment (core::StandardConfig without the environment
/// overrides of core::standard_config()) plus the GBO run that produces the
/// prepared schedule.
struct Standard : core::StandardConfig {
  opt::GboConfig gbo;

  Standard() {
    data.pixel_noise_std = 0.85f;  // core::standard_config()'s default
    gbo.epochs = 4;
    gbo.gamma = 2e-3;
    gbo.lr = 5e-3f;
  }

  std::string fingerprint() const {
    std::ostringstream oss;
    oss << model.fingerprint() << "|" << data_fingerprint() << "|"
        << pretrain.fingerprint() << "|targets";
    for (double t : baseline_targets) oss << ":" << t;
    oss << "|gbo:e" << gbo.epochs << ":g" << gbo.gamma << ":lr" << gbo.lr
        << ":b" << gbo.batch_size << ":seed" << gbo.seed;
    return oss.str();
  }
  std::string key() const { return fingerprint_hash(fingerprint()); }
};

struct Prepared {
  std::string ckpt_path;
  std::vector<double> sigmas;
  std::vector<std::size_t> schedule;
};

/// Order-dependent float checksum of a dataset's pixels and labels: a change
/// in the data generator makes the prepared checkpoint stale.
double data_checksum(const data::Dataset& ds) {
  double acc = 0.0;
  const float* p = ds.images.data();
  for (std::size_t i = 0; i < ds.images.numel(); ++i)
    acc += static_cast<double>(p[i]) * static_cast<double>(1 + i % 7);
  for (std::size_t i = 0; i < ds.labels.size(); ++i)
    acc += static_cast<double>(ds.labels[i] * (i % 5));
  return acc;
}

[[noreturn]] void fail_artifacts(const std::string& why) {
  throw std::runtime_error(
      "prepared artifacts missing or stale (" + why +
      "); run `python3 perfbench/run.py --prepare` and commit perfbench/artifacts");
}

Prepared load_prepared(const std::string& dir) {
  const Standard std_cfg;
  const std::string key = std_cfg.key();
  Prepared p;
  p.ckpt_path = dir + "/vgg9-" + key + ".ckpt";
  const std::string prep_path = dir + "/prep-" + key + ".ckpt";
  if (!is_checkpoint(p.ckpt_path)) fail_artifacts("no " + p.ckpt_path);
  if (!is_checkpoint(prep_path)) fail_artifacts("no " + prep_path);
  bool ok = false;
  const StateDict prep = load_state_dict(prep_path, &ok);
  if (!ok || !prep.count("sigmas") || !prep.count("gbo_pulses") ||
      !prep.count("data_checksum"))
    fail_artifacts("unreadable " + prep_path);
  for (float s : prep.at("sigmas").data) p.sigmas.push_back(s);
  for (float n : prep.at("gbo_pulses").data)
    p.schedule.push_back(static_cast<std::size_t>(std::lround(n)));
  // The standard training split must still be what the checkpoint saw.
  const data::Dataset train =
      data::make_synth_cifar(std_cfg.data, std_cfg.num_train, /*stream=*/0);
  const float want = prep.at("data_checksum").data.at(0);
  if (static_cast<float>(data_checksum(train)) != want)
    fail_artifacts("data generator output changed since preparation");
  if (p.sigmas.size() != std_cfg.baseline_targets.size() ||
      p.schedule.size() != 7)
    fail_artifacts("malformed preparation record");
  return p;
}

int prepare(const std::string& dir) {
  const Standard cfg;
  set_log_level(LogLevel::kInfo);
  log_info("perfbench prepare: ", cfg.fingerprint());
  const data::Dataset train =
      data::make_synth_cifar(cfg.data, cfg.num_train, /*stream=*/0);
  const data::Dataset test =
      data::make_synth_cifar(cfg.data, cfg.num_test, /*stream=*/1);
  models::Vgg9 model = models::build_vgg9(cfg.model);
  const core::PretrainStats stats =
      core::pretrain(*model.net, model.binary, train, test, cfg.pretrain);
  const std::string key = cfg.key();
  const std::string ckpt = dir + "/vgg9-" + key + ".ckpt";
  if (!save_state_dict(ckpt, model.net->state_dict())) {
    std::fprintf(stderr, "cannot write %s\n", ckpt.c_str());
    return 1;
  }
  model.net->set_training(false);
  xbar::LayerNoiseController ctrl(model.encoded, 0.0, model.base_pulses(),
                                  Rng(cfg.model.seed ^ 0x5151));
  const std::vector<double> sigmas =
      core::calibrate_sigmas(*model.net, ctrl, test, cfg.baseline_targets);
  opt::GboConfig g = cfg.gbo;
  g.sigma = sigmas.at(1);
  std::vector<std::size_t> schedule;
  {
    opt::GboTrainer trainer(*model.net, model.encoded, g);
    trainer.train(train);
    schedule = trainer.selected_pulses();
  }
  StateDict prep;
  prep["sigmas"] = NamedBlob{{sigmas.size()},
                             std::vector<float>(sigmas.begin(), sigmas.end())};
  prep["gbo_pulses"] = NamedBlob{
      {schedule.size()}, std::vector<float>(schedule.begin(), schedule.end())};
  prep["data_checksum"] =
      NamedBlob{{1}, {static_cast<float>(data_checksum(train))}};
  const std::string prep_path = dir + "/prep-" + key + ".ckpt";
  if (!save_state_dict(prep_path, prep)) {
    std::fprintf(stderr, "cannot write %s\n", prep_path.c_str());
    return 1;
  }
  Json manifest = Json::object();
  manifest.set("fingerprint", cfg.fingerprint());
  manifest.set("key", key);
  manifest.set("clean_test_acc", static_cast<double>(stats.test_acc));
  manifest.set("sigmas", Json::array_of(sigmas));
  manifest.set("gbo_pulses", Json::array_of(schedule));
  std::ofstream(dir + "/prep-" + key + ".json") << manifest.dump(2) << "\n";
  std::printf("%s\n", manifest.dump(2).c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Shared workload plumbing.

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = kBaseSeconds;
  bool trace = false;
  bool prepare = false;
  std::string artifacts = "perfbench/artifacts";
  std::string out;
};

/// Raw record of one workload run; run.py turns it into metrics.
struct Record {
  Json doc = Json::object();
  Json outputs = Json::object();
  Json checks = Json::array();
  Json phases = Json::array();
  Json layer = Json::object();  // per-layer values measured directly
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void check(const std::string& name, bool ok) {
    Json c = Json::object();
    c.set("name", name);
    c.set("ok", ok);
    checks.push_back(c);
  }
};

data::SynthCifarConfig standard_data() { return Standard().data; }

models::Vgg9 load_model(const Prepared& prep, Record* rec) {
  models::Vgg9 model = models::build_vgg9(Standard().model);
  Timed t("core.checkpoint_load");
  bool ok = false;
  const StateDict state = load_state_dict(prep.ckpt_path, &ok);
  if (!ok) fail_artifacts("unreadable " + prep.ckpt_path);
  model.net->load_state_dict(state);
  model.net->set_training(false);
  if (rec) rec->layer.set("core.checkpoint_load_s", t.seconds());
  return model;
}

data::Dataset timed_synth(std::size_t n, std::uint64_t stream, Record* rec) {
  Timed t("data.synth_cifar");
  data::Dataset ds = data::make_synth_cifar(standard_data(), n, stream);
  if (rec) rec->layer.set("data.synth_cifar_s", t.seconds());
  return ds;
}

data::Dataset head(const data::Dataset& ds, std::size_t n) {
  n = std::min(n, ds.size());
  data::Dataset out;
  std::vector<std::size_t> shape = ds.images.shape();
  shape[0] = n;
  const std::size_t per = ds.sample_numel();
  out.images = Tensor(shape, std::vector<float>(ds.images.data(),
                                                ds.images.data() + n * per));
  out.labels.assign(ds.labels.begin(), ds.labels.begin() + n);
  return out;
}

Json to_json(const std::vector<double>& v) { return Json::array_of(v); }

/// Per-kind layer timings of one manual training step over Sequential::at(i)
/// (forward in order, backward in reverse), median over `reps` steps.
void manual_train_step(nn::Sequential& net, const data::Dataset& ds,
                       std::size_t reps, Record* rec) {
  const data::Dataset batch = head(ds, 32);
  std::map<std::string, std::vector<double>> fwd, bwd;
  net.set_training(true);
  for (std::size_t r = 0; r < reps; ++r) {
    std::map<std::string, double> f, b;
    Tensor x = batch.images;
    std::vector<std::size_t> layers;
    for (std::size_t i = 0; i < net.size(); ++i) {
      nn::Module& m = net.at(i);
      if (m.kind() == "BatchClock") continue;
      layers.push_back(i);
      Timed t("nn." + m.kind() + ".forward");
      x = m.forward(x);
      f[m.kind()] += 1e3 * t.seconds();
    }
    Tensor grad;
    nn::CrossEntropy::forward_backward(x, batch.labels, grad);
    for (auto it = layers.rbegin(); it != layers.rend(); ++it) {
      nn::Module& m = net.at(*it);
      Timed t("nn." + m.kind() + ".backward");
      grad = m.backward(grad);
      b[m.kind()] += 1e3 * t.seconds();
    }
    for (auto& [k, v] : f) fwd[k].push_back(v);
    for (auto& [k, v] : b) bwd[k].push_back(v);
  }
  net.set_training(false);
  for (auto& [k, v] : fwd) rec->layer.set("nn." + k + ".forward_ms", median(v));
  for (auto& [k, v] : bwd) rec->layer.set("nn." + k + ".backward_ms", median(v));
}

/// Per-kind stateless inference timings over Sequential::at(i) with the
/// network's hooks as currently attached, median over `reps` batches.
void manual_infer(const nn::Sequential& net, const data::Dataset& ds,
                  std::size_t reps, Record* rec) {
  const data::Dataset batch = head(ds, 8);
  ScratchArena arena;
  nn::EvalContext ctx(Rng(99), &arena);
  std::map<std::string, std::vector<double>> inf;
  for (std::size_t r = 0; r < reps + 1; ++r) {
    std::map<std::string, double> f;
    Tensor x = batch.images;
    for (std::size_t i = 0; i < net.size(); ++i) {
      const nn::Module& m = net.at(i);
      if (m.kind() == "BatchClock") continue;
      Timed t("nn." + m.kind() + ".infer");
      x = m.infer(x, ctx);
      f[m.kind()] += 1e3 * t.seconds();
    }
    if (r == 0) continue;  // first pass sizes the arena
    for (auto& [k, v] : f) inf[k].push_back(v);
  }
  for (auto& [k, v] : inf) rec->layer.set("nn." + k + ".infer_ms", median(v));
}

std::uint64_t tensor_hash(const Tensor& t, std::uint64_t h = 1469598103934665603ull) {
  return fnv1a(t.data(), t.numel() * sizeof(float), h);
}

bool all_finite(const Tensor& t) {
  const float* p = t.data();
  for (std::size_t i = 0; i < t.numel(); ++i)
    if (!std::isfinite(p[i])) return false;
  return true;
}

std::size_t scaled(double base, double scale, std::size_t quantum,
                   std::size_t floor) {
  const auto q = static_cast<std::size_t>(std::lround(base * scale / quantum));
  return std::max(floor, q * quantum);
}

// ---------------------------------------------------------------------------
// Workloads. Each has a set-up (timed, repeated; warms every cache the job
// touches) and a job (the timed phase). Work is fixed by --seconds, never
// by the measured speed, so outputs are a pure function of (seed, seconds).

class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup(Record* rec) = 0;
  /// The timed phase. `rec` receives outputs, checks and latency samples.
  virtual void job(Record* rec) = 0;
  /// Traced-run extras (manual per-layer steps), after the traced job.
  virtual void layers(Record*) {}
  /// Serving workloads run a producer beside the worker.
  virtual std::size_t pool_threads() const { return 1; }
};

// ---- train ----------------------------------------------------------------

class TrainWorkload : public Workload {
 public:
  explicit TrainWorkload(const Args& a) : a_(a) {
    scale_ = a.seconds / kBaseSeconds;
  }

  void setup(Record* rec) override {
    const std::size_t n_train = scaled(2048, scale_, 32, 1088);
    train_ = timed_synth(n_train, 3000 + 2 * a_.seed, rec);
    test_ = data::make_synth_cifar(standard_data(), 256, 3001 + 2 * a_.seed);
    models::Vgg9Config mc = Standard().model;
    mc.seed = 7 + a_.seed;
    model_ = models::build_vgg9(mc);
    // Warm the training path (allocator, GEMM panels) on a throwaway copy.
    models::Vgg9 warm = models::build_vgg9(mc);
    const data::Dataset b = head(train_, 32);
    Tensor logits = warm.net->forward(b.images);
    Tensor grad;
    nn::CrossEntropy::forward_backward(logits, b.labels, grad);
    warm.net->backward(grad);
    clock_ = model_.net->emplace<BatchClock>();
  }

  void job(Record* rec) override {
    core::PretrainConfig pc;
    pc.epochs = 2;
    pc.seed = 99 + a_.seed;
    opt::GboConfig gc;
    gc.sigma = 10.0;
    gc.gamma = 1e-3;
    gc.lr = 5e-3f;
    gc.epochs = 1;
    gc.seed = 21 + a_.seed;

    clock_->restart();
    core::PretrainStats ps;
    {
      Timed t("core.pretrain");
      ps = core::pretrain(*model_.net, model_.binary, train_, test_, pc);
      rec->layer.set("core.pretrain.epoch_s", t.seconds() / pc.epochs);
    }
    std::vector<opt::GboEpochStats> gs;
    std::vector<std::size_t> pulses;
    clock_->restart();
    {
      Timed t("gbo.train");
      opt::GboTrainer trainer(*model_.net, model_.encoded, gc);
      gs = trainer.train(train_);
      pulses = trainer.selected_pulses();
      rec->layer.set("gbo.train.epoch_s", t.seconds() / gc.epochs);
    }
    const std::size_t samples = (pc.epochs + gc.epochs) * train_.size();
    rec->attempted = samples;
    rec->doc.set("latency_unit", "training step (32 samples)");
    // The clock also stamps pretrain's closing clean evaluation batches.
    const std::size_t steps_per_epoch = (train_.size() + 31) / 32;
    std::vector<double> steps;
    const auto& iv = clock_->intervals_ms();
    const std::size_t eval_batches = (test_.size() + 63) / 64;
    for (std::size_t i = 0; i < iv.size(); ++i) {
      const bool pretrain_eval = i >= pc.epochs * steps_per_epoch &&
                                 i < pc.epochs * steps_per_epoch + eval_batches;
      if (!pretrain_eval) steps.push_back(iv[i]);
    }
    rec->doc.set("latency_ms", to_json(steps));
    rec->doc.set("work", static_cast<double>(samples));

    rec->outputs.set("test_acc", static_cast<double>(ps.test_acc));
    rec->outputs.set("pretrain_final_loss",
                     static_cast<double>(ps.train_loss.back()));
    rec->outputs.set("gbo_final_loss", static_cast<double>(gs.back().loss_ce));
    rec->outputs.set("selected_pulses", Json::array_of(pulses));

    rec->check("steps_observed", steps.size() ==
                                     (pc.epochs + gc.epochs) * steps_per_epoch);
    bool finite = std::isfinite(gs.back().loss_ce);
    for (float l : ps.train_loss) finite = finite && std::isfinite(l);
    rec->check("losses_finite", finite);
    rec->check("test_acc_in_range", ps.test_acc >= 0.0f && ps.test_acc <= 1.0f);
    const auto allowed = gc.pulse_lengths();
    bool valid = pulses.size() == model_.encoded.size();
    for (std::size_t p : pulses)
      valid = valid && std::find(allowed.begin(), allowed.end(), p) != allowed.end();
    rec->check("selected_pulses_in_scale_set", valid);
  }

  void layers(Record* rec) override {
    manual_train_step(*model_.net, train_, 5, rec);
  }

 private:
  Args a_;
  double scale_ = 1.0;
  data::Dataset train_, test_;
  models::Vgg9 model_;
  BatchClock* clock_ = nullptr;
};

// ---- eval -----------------------------------------------------------------

class EvalWorkload : public Workload {
 public:
  EvalWorkload(const Args& a, const Prepared& p) : a_(a), prep_(p) {}

  void setup(Record* rec) override {
    const std::size_t n = scaled(176, a_.seconds / kBaseSeconds, 8, 104);
    test_ = timed_synth(n, 1000 + a_.seed, rec);
    model_ = load_model(prep_, rec);
    ctrl_ = std::make_unique<xbar::LayerNoiseController>(
        model_.encoded, 0.0, model_.base_pulses(), Rng(303 + a_.seed));
    // Warm the binarize / panel caches of every configuration on a
    // separate controller, so the job's trial ids do not depend on it.
    xbar::LayerNoiseController warm(model_.encoded, 0.0, model_.base_pulses(),
                                     Rng(1));
    const data::Dataset b = head(test_, kBatch);
    warm.attach();
    warm.set_enabled_all(true);
    warm.set_sigma(prep_.sigmas.at(1));
    for (const auto& [label, pulses] : configs()) {
      warm.set_pulses(pulses);
      (void)core::evaluate_noisy(*model_.net, warm, b, 1, kBatch);
    }
    warm.detach();
    (void)core::evaluate(*model_.net, b, kBatch);
    clock_ = model_.net->emplace<BatchClock>();
  }

  void job(Record* rec) override {
    std::map<std::string, std::vector<double>> per_cfg;
    std::vector<double> gbo_batches;
    std::size_t images = 0;
    for (std::size_t si = 0; si < prep_.sigmas.size(); ++si) {
      for (const auto& [label, pulses] : configs()) {
        Timed t("core.evaluate_noisy." + label,
                static_cast<double>(3 * test_.size()));
        ctrl_->attach();
        ctrl_->set_enabled_all(true);
        ctrl_->set_sigma(prep_.sigmas[si]);
        ctrl_->set_pulses(pulses);
        clock_->restart();
        const float acc =
            core::evaluate_noisy(*model_.net, *ctrl_, test_, 3, kBatch);
        ctrl_->detach();
        if (label == "gbo")
          gbo_batches.insert(gbo_batches.end(), clock_->intervals_ms().end() -
                                                    3 * batches_per_pass(),
                             clock_->intervals_ms().end());
        per_cfg[label].push_back(t.seconds());
        images += 3 * test_.size();
        accs_.push_back(acc);
        rec->outputs.set(label + "@sigma" + std::to_string(si), static_cast<double>(acc));
      }
    }
    float clean = 0.0f;
    {
      Timed t("core.evaluate", static_cast<double>(test_.size()));
      clock_->restart();
      clean = core::evaluate(*model_.net, test_, kBatch);
      rec->layer.set("core.evaluate.s", t.seconds());
    }
    images += test_.size();
    rec->outputs.set("clean", static_cast<double>(clean));
    for (auto& [label, v] : per_cfg)
      rec->layer.set("core.evaluate_noisy.s." + label, median(v));

    rec->attempted = images;
    // The four configurations cost differently (binary vs float route), so
    // the latency sample is one configuration's: the GBO schedule's batches.
    rec->doc.set("latency_unit", "evaluation batch (8 images), GBO schedule");
    rec->doc.set("latency_ms", to_json(gbo_batches));
    rec->doc.set("work", static_cast<double>(images));

    rec->check("batches_observed", clock_->intervals_ms().size() ==
                                       batches_per_pass() * (3 * accs_.size() + 1));
    bool in_range = clean >= 0.0f && clean <= 1.0f;
    for (float a : accs_) in_range = in_range && a >= 0.0f && a <= 1.0f;
    rec->check("accuracies_in_range", in_range);
    // At the harshest σ the 8-pulse baseline sits far below clean accuracy.
    rec->check("clean_above_harshest_baseline",
               clean > accs_.at(4 * (prep_.sigmas.size() - 1)));
  }

  void layers(Record* rec) override {
    ctrl_->attach();
    ctrl_->set_enabled_all(true);
    ctrl_->set_sigma(prep_.sigmas.at(1));
    ctrl_->set_pulses(prep_.schedule);
    manual_infer(*model_.net, test_, 5, rec);
    ctrl_->detach();
  }

 private:
  static constexpr std::size_t kBatch = 8;

  std::size_t batches_per_pass() const {
    return (test_.size() + kBatch - 1) / kBatch;
  }

  std::vector<std::pair<std::string, std::vector<std::size_t>>> configs() const {
    const std::size_t n = prep_.schedule.size();
    return {{"baseline", std::vector<std::size_t>(n, 8)},
            {"pla12", std::vector<std::size_t>(n, 12)},
            {"pla16", std::vector<std::size_t>(n, 16)},
            {"gbo", prep_.schedule}};
  }

  Args a_;
  Prepared prep_;
  data::Dataset test_;
  models::Vgg9 model_;
  std::unique_ptr<xbar::LayerNoiseController> ctrl_;
  BatchClock* clock_ = nullptr;
  std::vector<float> accs_;
};

// ---- serving helpers ------------------------------------------------------

/// A fixed arrival schedule whose requested rows are drawn from `seed`: the
/// workload fixes when requests arrive, the seed fixes what they ask for.
std::vector<serve::Arrival> schedule(const serve::TrafficConfig& cfg,
                                     std::size_t rows, std::uint64_t seed) {
  std::vector<serve::Arrival> trace = serve::make_trace(cfg, rows);
  std::vector<std::size_t> perm(rows);
  for (std::size_t i = 0; i < rows; ++i) perm[i] = i;
  Rng rng(0xB0A7 + seed);
  std::shuffle(perm.begin(), perm.end(), rng);
  for (serve::Arrival& a : trace) a.sample = perm[a.sample];
  return trace;
}

Json due_us(const std::vector<serve::Arrival>& trace) {
  Json arr = Json::array();
  for (const serve::Arrival& a : trace) arr.push_back(a.t_us);
  return arr;
}

Json latencies_ms(const serve::ServeReport& rep) {
  Json arr = Json::array();
  for (std::size_t i = 0; i < rep.latencies_us.size(); ++i)
    if (rep.latencies_us[i] > 0 || rep.slo.enabled == false)
      arr.push_back(1e-3 * static_cast<double>(rep.latencies_us[i]));
  return arr;
}

// ---- serve_analytic --------------------------------------------------------

struct Rung {
  const char* name;
  double rate_rps;
  double duration_s;
};

class ServeAnalyticWorkload : public Workload {
 public:
  ServeAnalyticWorkload(const Args& a, const Prepared& p) : a_(a), prep_(p) {}
  std::size_t pool_threads() const override { return 2; }

  void setup(Record* rec) override {
    ds_ = timed_synth(256, 5000 + a_.seed, rec);
    model_ = load_model(prep_, rec);
    ctrl_ = std::make_unique<xbar::LayerNoiseController>(
        model_.encoded, prep_.sigmas.at(1), model_.base_pulses(),
        Rng(53 + a_.seed));
    ctrl_->attach();
    ctrl_->set_enabled_all(true);
    ctrl_->set_pulses(prep_.schedule);
    inner_ = std::make_unique<serve::AnalyticBackend>(*model_.net, true);
    backend_ = std::make_unique<TimedBackend>(*inner_, "serve.backend_run");
    serve::ServeConfig cfg;
    cfg.batch.max_batch = 8;
    cfg.batch.max_wait_us = 200;
    cfg.num_workers = 1;
    cfg.seed = 17 + a_.seed;
    server_ = std::make_unique<serve::InferenceServer>(
        serve::ServerSpec{}.primary(*backend_).dataset(ds_).config(cfg));

    const double scale = a_.seconds / kBaseSeconds;
    traces_.clear();
    for (std::size_t i = 0; i < rungs().size(); ++i) {
      const Rung& r = rungs()[i];
      serve::TrafficConfig t;
      t.rate_rps = r.rate_rps;
      t.num_requests = scaled(r.rate_rps * r.duration_s, scale, 10, 100);
      t.seed = 11 + i;
      traces_.push_back(schedule(t, ds_.size(), a_.seed));
    }
    Timed t("serve.warmup");
    server_->warmup();
    serve::TrafficConfig w;
    w.num_requests = 64;
    w.rate_rps = 1e5;
    w.seed = 7;
    (void)server_->run(serve::make_trace(w, ds_.size()));
    rec->layer.set("serve.warmup_s", t.seconds());
  }

  static const std::vector<Rung>& rungs() {
    // Lowest, middle and highest fixed rates, then seven saturating bursts
    // whose median throughput is the capacity. Durations are at kBaseSeconds.
    static const std::vector<Rung> r = {
        {"low", 100.0, 6.0},         {"mid", 200.0, 2.5},
        {"high", 300.0, 2.0},        {"burst1", 1e6, 300.0 / 1e6},
        {"burst2", 1e6, 300.0 / 1e6}, {"burst3", 1e6, 300.0 / 1e6},
        {"burst4", 1e6, 300.0 / 1e6}, {"burst5", 1e6, 300.0 / 1e6},
        {"burst6", 1e6, 300.0 / 1e6}, {"burst7", 1e6, 300.0 / 1e6}};
    return r;
  }

  void job(Record* rec) override {
    backend_->reset();
    std::uint64_t h = 1469598103934665603ull;
    std::size_t sent = 0, delivered = 0, max_depth = 0;
    double batches_w = 0.0;
    for (std::size_t i = 0; i < traces_.size(); ++i) {
      const Rung& r = rungs()[i];
      serve::ServeReport rep;
      {
        Timed t(std::string("serve.phase.") + r.name, 0.0, kPhaseTrack);
        rep = server_->run(traces_[i]);
      }
      h = tensor_hash(rep.outputs, h);
      sent += rep.requests;
      delivered += rep.completed;
      max_depth = std::max(max_depth, rep.queue.max_depth);
      batches_w += rep.mean_batch * static_cast<double>(rep.completed);
      Json ph = Json::object();
      ph.set("name", r.name);
      ph.set("rate_rps", r.rate_rps);
      ph.set("sent", rep.requests);
      ph.set("delivered", rep.completed);
      ph.set("failed", rep.requests - rep.completed);
      ph.set("wall_s", rep.wall_s);
      ph.set("mean_batch", rep.mean_batch);
      ph.set("max_depth", rep.queue.max_depth);
      ph.set("latency_ms", latencies_ms(rep));
      ph.set("due_us", due_us(traces_[i]));
      rec->phases.push_back(ph);
      payload_ok_ = payload_ok_ && all_finite(rep.outputs);
    }
    rec->attempted = sent;
    rec->failed = sent - delivered;
    rec->outputs.set("payload_hash", serve::hex64(h));
    rec->outputs.set("delivered", delivered);
    rec->layer.set("serve.backend_run.ms_per_call",
                   backend_->calls() ? backend_->ms() / backend_->calls() : 0.0);
    rec->layer.set("serve.backend_run.rows_per_call",
                   backend_->calls()
                       ? static_cast<double>(backend_->rows()) / backend_->calls()
                       : 0.0);
    rec->layer.set("serve.mean_batch",
                   delivered ? batches_w / static_cast<double>(delivered) : 0.0);
    rec->layer.set("serve.queue.max_depth", max_depth);
    rec->check("all_delivered", sent == delivered);
    rec->check("payloads_finite", payload_ok_);
  }

  void layers(Record* rec) override { manual_infer(*model_.net, ds_, 5, rec); }

 private:
  Args a_;
  Prepared prep_;
  data::Dataset ds_;
  models::Vgg9 model_;
  std::unique_ptr<xbar::LayerNoiseController> ctrl_;
  std::unique_ptr<serve::AnalyticBackend> inner_;
  std::unique_ptr<TimedBackend> backend_;
  std::unique_ptr<serve::InferenceServer> server_;
  std::vector<std::vector<serve::Arrival>> traces_;
  bool payload_ok_ = true;
};

// ---- serve_pulse_slo -------------------------------------------------------

class ServePulseWorkload : public Workload {
 public:
  ServePulseWorkload(const Args& a, const Prepared& p) : a_(a), prep_(p) {}
  std::size_t pool_threads() const override { return 2; }

  void setup(Record* rec) override {
    ds_ = timed_synth(128, 6000 + a_.seed, rec);
    model_ = load_model(prep_, rec);
    {
      Timed t("crossbar.deploy");
      xbar::HwDeployConfig hc;
      hc.sigma = 0.5;
      hc.device.read_noise_sigma = 0.02;
      hc.pulses = prep_.schedule;
      hc.seed = 31 + a_.seed;
      hw_ = std::make_unique<xbar::HardwareNetwork>(*model_.net, model_.encoded, hc);
      rec->layer.set("crossbar.deploy_s", t.seconds());
    }
    pulse_ = std::make_unique<serve::PulseBackend>(*hw_);
    primary_ = std::make_unique<TimedBackend>(*pulse_, "crossbar.pulse_forward");
    fallback_ = std::make_unique<serve::AnalyticBackend>(*model_.net, false);
    cfg_ = serve_config();
    server_ = std::make_unique<serve::InferenceServer>(
        serve::ServerSpec{}.primary(*primary_).degraded(*fallback_).dataset(ds_).config(cfg_));
    trace_ = schedule(traffic(a_.seconds / kBaseSeconds), ds_.size(), a_.seed);
    Timed t("serve.warmup");
    server_->warmup();
    rec->layer.set("serve.warmup_s", t.seconds());
  }

  serve::TrafficConfig traffic(double scale) const {
    serve::TrafficConfig t;
    t.num_requests = scaled(180, scale, 10, 100);
    t.rate_rps = 7.0;
    t.shape = serve::TraceShape::kFlashCrowd;
    t.flash_factor = 5.0;
    t.flash_start_s = 6.5 * scale;
    t.flash_ramp_s = 0.8 * scale;
    t.flash_hold_s = 2.5 * scale;
    t.high_fraction = 0.2;
    t.low_fraction = 0.3;
    t.seed = 101;
    return t;
  }

  serve::ServeConfig serve_config() const {
    serve::ServeConfig c;
    c.batch.max_batch = 8;
    c.batch.max_wait_us = 2000;
    c.num_workers = 1;
    c.seed = 29 + a_.seed;
    serve::SloPolicy& s = c.slo;
    s.enabled = true;
    s.deadline_us = kDeadlineUs;
    s.completion_headroom_us = 0;
    s.cost.batch_fixed_us = 2000;
    s.cost.primary_us = 60000;
    s.cost.degraded_us = 4000;
    s.cost.retry_penalty_us = 1000;
    s.ladder.degrade_depth = 6;
    s.ladder.shed_depth = 1u << 30;  // the ladder degrades, it never sheds
    s.ladder.recover_depth = 1;
    s.retry.max_attempts = 2;
    s.retry.backoff_us = 1000;
    s.breaker.failure_threshold = 3;
    s.breaker.cooldown_us = 400000;
    s.fault.enabled = true;
    s.fault.seed = 555;
    s.fault.transient_rate = 0.05;
    s.fault.outage_start_id = 20;
    s.fault.outage_len = 6;
    return c;
  }

  static constexpr std::uint64_t kDeadlineUs = 3'000'000;

  void job(Record* rec) override {
    primary_->reset();
    serve::ServeReport rep;
    {
      Timed t("serve.run_slo", 0.0, kPhaseTrack);
      rep = server_->run(trace_);
    }
    const serve::SloSummary& s = rep.slo;
    std::size_t in_deadline = 0;
    for (std::size_t i = 0; i < rep.latencies_us.size(); ++i)
      if (rep.latencies_us[i] > 0 && rep.latencies_us[i] <= kDeadlineUs)
        ++in_deadline;
    const std::size_t shed = s.exec_shed;
    rec->attempted = rep.requests;
    rec->failed = rep.requests - rep.completed;
    rec->doc.set("goodput_rps",
                 rep.wall_s > 0 ? static_cast<double>(in_deadline) / rep.wall_s : 0.0);
    Json ph = Json::object();
    ph.set("name", "flash");
    ph.set("sent", rep.requests);
    ph.set("delivered", rep.completed);
    ph.set("failed", rep.requests - rep.completed);
    ph.set("in_deadline", in_deadline);
    ph.set("wall_s", rep.wall_s);
    ph.set("mean_batch", rep.mean_batch);
    ph.set("max_depth", rep.queue.max_depth);
    ph.set("latency_ms", latencies_ms(rep));
    ph.set("due_us", due_us(trace_));
    rec->phases.push_back(ph);

    rec->outputs.set("payload_hash", serve::hex64(tensor_hash(rep.outputs)));
    rec->outputs.set("served", s.served);
    rec->outputs.set("served_primary", s.served_primary);
    rec->outputs.set("shed", shed);
    rec->outputs.set("degraded", s.exec_degraded);
    rec->outputs.set("shed_set_hash", serve::hex64(s.shed_set_hash));
    rec->outputs.set("exec_shed_set_hash", serve::hex64(s.exec_shed_set_hash));

    rec->layer.set("crossbar.pulse_forward.ms_per_row",
                   primary_->rows() ? primary_->ms() / primary_->rows() : 0.0);
    rec->layer.set("serve.slo.primary_share",
                   s.admitted ? static_cast<double>(s.served_primary) / s.admitted : 0.0);
    rec->layer.set("serve.slo.served_primary", s.served_primary);
    rec->layer.set("serve.slo.admitted", s.admitted);
    rec->layer.set("serve.mean_batch", rep.mean_batch);
    rec->layer.set("serve.queue.max_depth", rep.queue.max_depth);

    rec->check("shed_set_hash_matches_plan",
               s.shed_set_hash == s.exec_shed_set_hash);
    rec->check("delivered_matches_plan", rep.completed == s.served);
    rec->check("degraded_matches_plan",
               s.exec_degraded == s.degraded_ladder + s.degraded_breaker +
                                      s.degraded_fallback);
    rec->check("faults_match_plan", s.exec_faults == s.faults_injected &&
                                        s.exec_retried == s.retried_requests);
    rec->check("payloads_finite", all_finite(rep.outputs));
    rec->check("pulse_serves_most", s.served_primary * 2 > s.served);
  }

  void layers(Record* rec) override {
    std::vector<double> ms;
    for (int r = 0; r < 5; ++r) {
      Timed t("serve.plan");
      (void)serve::plan(trace_, cfg_.slo, cfg_.batch);
      ms.push_back(1e3 * t.seconds());
    }
    rec->layer.set("serve.plan_ms", median(ms));
  }

 private:
  Args a_;
  Prepared prep_;
  data::Dataset ds_;
  models::Vgg9 model_;
  std::unique_ptr<xbar::HardwareNetwork> hw_;
  std::unique_ptr<serve::PulseBackend> pulse_;
  std::unique_ptr<TimedBackend> primary_;
  std::unique_ptr<serve::AnalyticBackend> fallback_;
  serve::ServeConfig cfg_;
  std::unique_ptr<serve::InferenceServer> server_;
  std::vector<serve::Arrival> trace_;
};

// ---------------------------------------------------------------------------

std::unique_ptr<Workload> make_workload(const Args& a, const Prepared* p) {
  if (a.workload == "train") return std::make_unique<TrainWorkload>(a);
  if (a.workload == "eval") return std::make_unique<EvalWorkload>(a, *p);
  if (a.workload == "serve_analytic")
    return std::make_unique<ServeAnalyticWorkload>(a, *p);
  if (a.workload == "serve_pulse_slo")
    return std::make_unique<ServePulseWorkload>(a, *p);
  throw std::invalid_argument("unknown workload '" + a.workload + "'");
}

Json trace_events(const obs::TraceSnapshot& snap) {
  using obs::EventType;
  Json arr = Json::array();
  for (const obs::Event& e : snap.events) {
    const auto t = static_cast<EventType>(e.type);
    if (t != EventType::kGemm && t != EventType::kBinaryMvm &&
        t != EventType::kPulseEncode && t != EventType::kBatch &&
        t != EventType::kBatchMember && t != EventType::kAdmit &&
        t != EventType::kStall && t != EventType::kArenaAlloc)
      continue;
    Json ev = Json::array();
    ev.push_back(obs::event_name(t));
    ev.push_back(static_cast<unsigned>(e.tid));
    ev.push_back(e.t_us);
    ev.push_back(static_cast<std::uint64_t>(e.dur_us));
    ev.push_back(e.id);
    ev.push_back(e.arg);
    arr.push_back(ev);
  }
  return arr;
}

struct JobTimes {
  double job_s = 0.0;
  double cpu_s = 0.0;
};

JobTimes timed_job(Workload& w, Record* rec) {
  const double c0 = cpu_seconds();
  const auto t0 = Clock::now();
  w.job(rec);
  return {seconds_since(t0), cpu_seconds() - c0};
}

int run(const Args& a) {
  set_log_level(LogLevel::kWarn);
  obs::set_runtime_enabled(false);
  obs::set_ring_capacity(std::size_t{1} << 18);

  Record rec;
  rec.doc.set("workload", a.workload);
  rec.doc.set("seed", a.seed);
  rec.doc.set("seconds", a.seconds);
  rec.doc.set("machine", machine_record());

  std::unique_ptr<Prepared> prep;
  if (a.workload != "train")
    prep = std::make_unique<Prepared>(load_prepared(a.artifacts));

  std::unique_ptr<Workload> w;
  std::vector<double> setups;
  constexpr int kSetups = 5;
  for (int k = 0; k < kSetups; ++k) {
    w.reset();
    w = make_workload(a, prep.get());
    ThreadPool::instance().set_num_threads(w->pool_threads());
    const auto t0 = Clock::now();
    w->setup(&rec);
    setups.push_back(seconds_since(t0));
  }
  rec.doc.set("setup_s", to_json(setups));

  const JobTimes jt = timed_job(*w, &rec);
  rec.doc.set("job_s", jt.job_s);
  rec.doc.set("cpu_s", jt.cpu_s);
  rec.doc.set("peak_rss_mb", peak_rss_mb());

  if (a.trace) {
    // A fresh set-up for the traced job: the train job changes weights and
    // the serving arenas must start from the same state as the timed job.
    Record traced;
    w.reset();
    w = make_workload(a, prep.get());
    w->setup(&traced);
    obs::set_runtime_enabled(true);
    obs::begin_session();
    g_spans.set_active(true);
    const std::uint64_t start_us = obs::now_us();
    const JobTimes tt = timed_job(*w, &traced);
    const std::uint64_t end_us = obs::now_us();
    w->layers(&traced);
    g_spans.set_active(false);
    const obs::TraceSnapshot snap = obs::end_session();
    obs::set_runtime_enabled(false);

    Json t = Json::object();
    t.set("job_s", tt.job_s);
    t.set("cpu_s", tt.cpu_s);
    t.set("job_start_us", start_us);
    t.set("job_end_us", end_us);
    t.set("dropped", snap.dropped);
    t.set("spans", g_spans.to_json());
    t.set("events", trace_events(snap));
    t.set("layer", traced.layer);
    t.set("phases", traced.phases);
    t.set("outputs", traced.outputs);
    t.set("checks", traced.checks);
    rec.doc.set("traced", t);
  }

  rec.doc.set("attempted", rec.attempted);
  rec.doc.set("failed", rec.failed);
  rec.doc.set("outputs", rec.outputs);
  rec.doc.set("checks", rec.checks);
  rec.doc.set("phases", rec.phases);
  rec.doc.set("layer", rec.layer);

  std::ofstream out(a.out);
  out << rec.doc.dump() << "\n";
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", a.out.c_str());
    return 1;
  }
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload W --seed N --seconds S --trace 0|1 "
               "--artifacts DIR --out FILE\n"
               "       perfbench --prepare --artifacts DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--prepare") {
      a.prepare = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--artifacts") a.artifacts = v;
    else if (k == "--out") a.out = v;
    else return usage();
  }
  try {
    if (a.prepare) {
      ThreadPool::instance().set_num_threads(
          std::max(1u, std::thread::hardware_concurrency()));
      return prepare(a.artifacts);
    }
    if (a.workload.empty() || a.out.empty() || !(a.seconds > 0)) return usage();
    return run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
