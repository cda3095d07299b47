// Micro-benchmarks of the simulation kernels: GEMM, im2col lowering,
// pulse-level vs analytic crossbar MVM, and encoders.
//
// Two modes:
//   * default / --smoke: a self-timed harness that measures the kernel-layer
//     hot paths (naive vs blocked vs threaded GEMM, analytic MVM, fused vs
//     per-pulse reference pulse-level MVM) plus the trial-parallel noisy
//     evaluator (eval_trials section: throughput + a hard gate that the
//     pool-dispatched trials stay bitwise equal to the sequential oracle),
//     and writes GFLOP/s + per-path timings to BENCH_mvm.json (override
//     with --json <path>). --smoke shrinks sizes/repetitions so CI can gate
//     on it in seconds.
//   * --gbench [...]: the google-benchmark suite below, with remaining
//     arguments forwarded (e.g. --gbench --benchmark_filter=Gemm).
//
// Thread count is controlled by the GBO_NUM_THREADS environment variable
// (default: all hardware threads); the harness reports both single-thread
// and thread-pool numbers so the JSON tracks blocking and scaling
// separately. Kernel results are bitwise identical at any thread count.
#include "common/json.hpp"
#include "common/thread_pool.hpp"
#include "core/pipeline.hpp"
#include "crossbar/mvm_engine.hpp"
#include "encoding/bit_slicing.hpp"
#include "encoding/thermometer.hpp"
#include "models/mlp.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/eval_context.hpp"
#include "quant/act_quant.hpp"
#include "quant/quant_layers.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_binary.hpp"
#include "tensor/im2col.hpp"
#include "tensor/ops.hpp"

#include "../tests/conv_reference.hpp"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>

namespace {

using namespace gbo;

Tensor random_tensor(std::vector<std::size_t> shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(std::move(shape));
  ops::fill_uniform(t, rng, -1.0f, 1.0f);
  return t;
}

Tensor random_binary(std::size_t out, std::size_t in, std::uint64_t seed) {
  Rng rng(seed);
  Tensor w({out, in});
  for (std::size_t i = 0; i < w.numel(); ++i)
    w[i] = rng.bernoulli(0.5) ? 1.0f : -1.0f;
  return w;
}

// ---- google-benchmark suite (--gbench) -----------------------------------

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Tensor a = random_tensor({n, n}, 1);
  const Tensor b = random_tensor({n, n}, 2);
  for (auto _ : state) {
    Tensor c = ops::matmul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_Im2col(benchmark::State& state) {
  const auto s = static_cast<std::size_t>(state.range(0));
  ConvGeom g{.in_c = 16, .in_h = s, .in_w = s, .k = 3, .stride = 1, .pad = 1};
  const Tensor x = random_tensor({8, 16, s, s}, 3);
  Tensor cols({8 * g.out_h() * g.out_w(), g.patch_len()});
  for (auto _ : state) {
    im2col_into(x, g, cols.data());
    benchmark::DoNotOptimize(cols.data());
  }
}
BENCHMARK(BM_Im2col)->Arg(16)->Arg(32);

void BM_ThermometerEncode(benchmark::State& state) {
  const Tensor x = random_tensor({4096}, 4);
  for (auto _ : state) {
    auto train = enc::thermometer_encode(x, 8);
    benchmark::DoNotOptimize(train.pulses.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_ThermometerEncode);

void BM_BitSlicingEncode(benchmark::State& state) {
  const Tensor x = random_tensor({4096}, 5);
  for (auto _ : state) {
    auto train = enc::bit_slicing_encode(x, 3);
    benchmark::DoNotOptimize(train.pulses.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_BitSlicingEncode);

void BM_MvmPulseLevel(benchmark::State& state) {
  const auto pulses = static_cast<std::size_t>(state.range(0));
  const Tensor w = random_binary(64, 256, 6);
  xbar::MvmConfig cfg;
  cfg.spec = enc::EncodingSpec{enc::Scheme::kThermometer, pulses};
  cfg.sigma = 1.0;
  xbar::MvmEngine engine(w, cfg, Rng(7));
  const Tensor x = random_tensor({16, 256}, 8);
  for (auto _ : state) {
    Tensor y = engine.run_pulse_level(x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_MvmPulseLevel)->Arg(4)->Arg(8)->Arg(16);

void BM_MvmAnalytic(benchmark::State& state) {
  const Tensor w = random_binary(64, 256, 9);
  xbar::MvmConfig cfg;
  cfg.spec = enc::EncodingSpec{enc::Scheme::kThermometer, 8};
  cfg.sigma = 1.0;
  xbar::MvmEngine engine(w, cfg, Rng(10));
  const Tensor x = random_tensor({16, 256}, 11);
  for (auto _ : state) {
    Tensor y = engine.run_analytic(x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_MvmAnalytic);

void BM_MvmWithDeviceModel(benchmark::State& state) {
  const Tensor w = random_binary(64, 256, 12);
  xbar::MvmConfig cfg;
  cfg.spec = enc::EncodingSpec{enc::Scheme::kThermometer, 8};
  cfg.sigma = 1.0;
  cfg.device.program_variation = 0.1;
  cfg.device.adc_bits = 8;
  cfg.device.read_noise_sigma = 0.05;
  xbar::MvmEngine engine(w, cfg, Rng(13));
  const Tensor x = random_tensor({16, 256}, 14);
  for (auto _ : state) {
    Tensor y = engine.run_pulse_level(x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_MvmWithDeviceModel);

// ---- self-timed JSON harness ---------------------------------------------

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-of-`reps` wall time of fn(), in seconds.
template <typename Fn>
double time_best(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_seconds();
    fn();
    const double t1 = now_seconds();
    if (t1 - t0 < best) best = t1 - t0;
  }
  return best;
}

double gflops(std::size_t flops, double seconds) {
  return seconds > 0.0 ? static_cast<double>(flops) / seconds / 1e9 : 0.0;
}

struct HarnessConfig {
  bool smoke = false;
  std::string json_path = "BENCH_mvm.json";
  std::size_t gemm_n = 512;        // acceptance size: 512×512 GEMM paths
  std::size_t mvm_out = 512, mvm_in = 512, mvm_batch = 16;
  // gemm_binary section: full acceptance shape even under --smoke (the
  // level-code route is sub-ms there, and the VGG9 rows are fixed shapes).
  std::size_t bin_out = 512, bin_in = 512, bin_batch = 16;
  std::size_t pulse_out = 64, pulse_in = 256, pulse_batch = 16, pulses = 8;
  std::size_t eval_samples = 2048, eval_trials = 16;  // noisy-eval throughput
  // conv_direct section: a VGG9-style 3×3 stride-1 layer's training step.
  std::size_t conv_in_c = 32, conv_hw = 32, conv_out_c = 64, conv_batch = 8;
  std::size_t act_n = 1 << 20;     // activations section: QuantTanh inputs
  std::size_t normal_n = 1 << 20;  // normals section: floats per fill
  int reps = 5;
};

/// The packed-panel GEMM at the acceptance size, with the bitwise gate
/// (gemm_nn must reproduce the naive ikj loop exactly — any mismatch fails
/// the harness) checked at 1 thread and at the pool width.
Json bench_gemm_packed(const HarnessConfig& hc, std::size_t pool_threads,
                       bool* gate_ok) {
  const std::size_t n = hc.gemm_n;
  const std::size_t flops = 2 * n * n * n;
  const Tensor a = random_tensor({n, n}, 1);
  const Tensor b = random_tensor({n, n}, 2);
  Tensor c({n, n}), ref({n, n});
  gemm::naive_gemm_nn_acc(n, n, n, a.data(), b.data(), ref.data());
  ThreadPool& pool = ThreadPool::instance();

  bool match = true;
  auto check = [&](const char* when) {
    gemm::gemm_nn(n, n, n, a.data(), n, b.data(), n, c.data(), n, false);
    if (std::memcmp(c.data(), ref.data(), n * n * sizeof(float)) != 0) {
      std::fprintf(stderr,
                   "gemm_packed GATE FAILURE: gemm_nn diverged from the naive "
                   "loop bitwise (%s)\n", when);
      match = false;
      *gate_ok = false;
    }
  };

  pool.set_num_threads(1);
  check("1 thread");
  const double t_packed_1t = time_best(hc.reps, [&] {
    gemm::gemm_nn(n, n, n, a.data(), n, b.data(), n, c.data(), n, false);
  });
  pool.set_num_threads(pool_threads);
  check("pool threads");
  const double t_packed_mt = time_best(hc.reps, [&] {
    gemm::gemm_nn(n, n, n, a.data(), n, b.data(), n, c.data(), n, false);
  });

  Json out = Json::object();
  out.set("size", n);
  out.set("bitwise_match", match);
  out.set("packed_1t_ms", t_packed_1t * 1e3);
  out.set("packed_mt_ms", t_packed_mt * 1e3);
  out.set("gflops_packed_1t", gflops(flops, t_packed_1t));
  out.set("gflops_packed_mt", gflops(flops, t_packed_mt));
  return out;
}

/// Cross-request prepacked weight panels (DESIGN.md §6): cold pack (panels
/// rebuilt every call) vs cached pack (prepack once, kernel only), at the
/// acceptance size, with two hard gates:
/// the prepacked result must equal the fresh-pack gemm_nt result bitwise
/// (cached panels are the same bytes a fresh pack produces), and a
/// PackedWeightCache must repack exactly once per weight version.
Json bench_gemm_prepacked(const HarnessConfig& hc, std::size_t pool_threads,
                          bool* gate_ok) {
  const std::size_t n = hc.gemm_n;
  const std::size_t flops = 2 * n * n * n;
  const Tensor a = random_tensor({n, n}, 1);
  Tensor w = random_tensor({n, n}, 4);  // A·Bᵀ weight, transposed storage
  Tensor c_fresh({n, n}), c_pre({n, n});
  ThreadPool& pool = ThreadPool::instance();

  bool match = true;
  auto check = [&](const char* when) {
    gemm::gemm_nt(n, n, n, a.data(), n, std::as_const(w).data(), n,
                  c_fresh.data(), n);
    const gemm::PackedB pb =
        gemm::prepack_b_t(n, n, std::as_const(w).data(), n);
    gemm::gemm_prepacked(n, n, n, a.data(), n, pb.panels.data(),
                         c_pre.data(), n);
    if (std::memcmp(c_pre.data(), c_fresh.data(), n * n * sizeof(float)) !=
        0) {
      std::fprintf(stderr,
                   "gemm_prepacked GATE FAILURE: prepacked panels diverged "
                   "from the fresh-pack path bitwise (%s)\n", when);
      match = false;
      *gate_ok = false;
    }
  };

  // Cache semantics gate: one pack per weight version, stable panels on
  // hits, repack after the version counter moves.
  {
    gemm::PackedWeightCache cache;
    const float* p0 = cache.get(std::as_const(w).data(), n, n, n,
                                /*transposed=*/true, w.version());
    const float* p1 = cache.get(std::as_const(w).data(), n, n, n, true,
                                w.version());
    bool cache_ok = p0 == p1 && cache.packs() == 1;
    w.data()[0] += 1.0f;  // mutation bumps the version
    (void)cache.get(std::as_const(w).data(), n, n, n, true, w.version());
    cache_ok = cache_ok && cache.packs() == 2;
    // k == 0 guard: an empty prepack handle is valid and contributes zero.
    const gemm::PackedB empty = gemm::prepack_b(0, n, nullptr, 0);
    cache_ok = cache_ok && empty.empty();
    if (!cache_ok) {
      std::fprintf(stderr,
                   "gemm_prepacked GATE FAILURE: PackedWeightCache did not "
                   "repack exactly once per weight version\n");
      match = false;
      *gate_ok = false;
    }
  }

  pool.set_num_threads(1);
  check("1 thread");
  const double t_fresh_1t = time_best(hc.reps, [&] {
    gemm::gemm_nt(n, n, n, a.data(), n, std::as_const(w).data(), n,
                  c_fresh.data(), n);
  });
  const double t_cold_1t = time_best(hc.reps, [&] {
    const gemm::PackedB pb =
        gemm::prepack_b_t(n, n, std::as_const(w).data(), n);
    gemm::gemm_prepacked(n, n, n, a.data(), n, pb.panels.data(),
                         c_pre.data(), n);
  });
  const gemm::PackedB cached =
      gemm::prepack_b_t(n, n, std::as_const(w).data(), n);
  const double t_cached_1t = time_best(hc.reps, [&] {
    gemm::gemm_prepacked(n, n, n, a.data(), n, cached.panels.data(),
                         c_pre.data(), n);
  });
  pool.set_num_threads(pool_threads);
  check("pool threads");
  const double t_cached_mt = time_best(hc.reps, [&] {
    gemm::gemm_prepacked(n, n, n, a.data(), n, cached.panels.data(),
                         c_pre.data(), n);
  });

  Json out = Json::object();
  out.set("size", n);
  out.set("bitwise_match", match);
  out.set("fresh_pack_1t_ms", t_fresh_1t * 1e3);
  out.set("cold_pack_1t_ms", t_cold_1t * 1e3);
  out.set("cached_pack_1t_ms", t_cached_1t * 1e3);
  out.set("cached_pack_mt_ms", t_cached_mt * 1e3);
  out.set("gflops_cached_1t", gflops(flops, t_cached_1t));
  out.set("gflops_cached_mt", gflops(flops, t_cached_mt));
  out.set("pack_overhead_ms", (t_cold_1t - t_cached_1t) * 1e3);
  out.set("speedup_cached_vs_cold_1t", t_cold_1t / t_cached_1t);
  return out;
}

/// One conv training step (forward + backward) on a VGG9-style 3×3
/// stride-1 layer: the fused padded-gather lowering against the im2col →
/// GEMM → col2im reference route (tests/conv_reference.hpp), with the
/// bitwise gate over y, dX, dW and the bias grad at 1 thread and at the
/// pool width, and the fused/reference time ratio.
Json bench_conv_direct(const HarnessConfig& hc, std::size_t pool_threads,
                       bool* gate_ok) {
  using namespace gbo::nn;
  ConvGeom g{.in_c = hc.conv_in_c, .in_h = hc.conv_hw, .in_w = hc.conv_hw,
             .k = 3, .stride = 1, .pad = 1};
  Rng rng(77);
  Conv2d conv(hc.conv_out_c, g, /*bias=*/true, rng);
  Param& bias = *conv.params()[1];
  bias.value = random_tensor({hc.conv_out_c}, 79);
  const Tensor x =
      random_tensor({hc.conv_batch, g.in_c, g.in_h, g.in_w}, 78);
  const Tensor grad = random_tensor(
      {hc.conv_batch, hc.conv_out_c, g.out_h(), g.out_w()}, 80);
  const std::size_t m = hc.conv_batch * g.out_h() * g.out_w();
  // Forward, wgrad and dgrad: three m × out_c × patch_len products.
  const std::size_t flops = 3 * 2 * m * hc.conv_out_c * g.patch_len();
  ThreadPool& pool = ThreadPool::instance();

  auto fused = [&] {
    Tensor y = conv.forward(x);
    Tensor dx = conv.backward(grad);
    benchmark::DoNotOptimize(dx.data());
  };
  auto reference = [&] {
    conv_ref::Step s =
        conv_ref::train_step(x, conv.weight().value, &bias.value, grad, g);
    benchmark::DoNotOptimize(s.dx.data());
  };

  bool match = true;
  auto check = [&](const char* when) {
    const conv_ref::Step want =
        conv_ref::train_step(x, conv.weight().value, &bias.value, grad, g);
    conv.weight().zero_grad();
    bias.zero_grad();
    const Tensor y = conv.forward(x);
    const Tensor dx = conv.backward(grad);
    // The layer adds its gradients into zeroed accumulators.
    Tensor want_dw(want.dw.shape()), want_db(want.db.shape());
    ops::add_inplace(want_dw, want.dw);
    ops::add_inplace(want_db, want.db);
    const std::pair<const Tensor*, const Tensor*> pairs[] = {
        {&y, &want.y},
        {&dx, &want.dx},
        {&conv.weight().grad, &want_dw},
        {&bias.grad, &want_db}};
    for (const auto& [got, ref] : pairs) {
      if (got->shape() != ref->shape() ||
          std::memcmp(got->data(), ref->data(),
                      got->numel() * sizeof(float)) != 0) {
        std::fprintf(stderr,
                     "conv_direct GATE FAILURE: fused conv training step "
                     "diverged from the im2col route bitwise (%s)\n", when);
        match = false;
        *gate_ok = false;
        return;
      }
    }
  };

  pool.set_num_threads(1);
  check("1 thread");
  const double t_reference_1t = time_best(hc.reps, reference);
  const double t_fused_1t = time_best(hc.reps, fused);
  pool.set_num_threads(pool_threads);
  check("pool threads");
  const double t_reference_mt = time_best(hc.reps, reference);
  const double t_fused_mt = time_best(hc.reps, fused);

  Json out = Json::object();
  out.set("batch", hc.conv_batch);
  out.set("in_c", g.in_c);
  out.set("image", hc.conv_hw);
  out.set("out_c", hc.conv_out_c);
  out.set("bitwise_match", match);
  out.set("reference_1t_ms", t_reference_1t * 1e3);
  out.set("fused_1t_ms", t_fused_1t * 1e3);
  out.set("reference_mt_ms", t_reference_mt * 1e3);
  out.set("fused_mt_ms", t_fused_mt * 1e3);
  out.set("gflops_reference_1t", gflops(flops, t_reference_1t));
  out.set("gflops_fused_1t", gflops(flops, t_fused_1t));
  out.set("gflops_reference_mt", gflops(flops, t_reference_mt));
  out.set("gflops_fused_mt", gflops(flops, t_fused_mt));
  out.set("fused_over_reference_1t", t_fused_1t / t_reference_1t);
  out.set("fused_over_reference_mt", t_fused_mt / t_reference_mt);
  return out;
}

Json bench_gemm_paths(const HarnessConfig& hc, std::size_t pool_threads) {
  const std::size_t n = hc.gemm_n;
  const std::size_t flops = 2 * n * n * n;
  const Tensor a = random_tensor({n, n}, 1);
  const Tensor b = random_tensor({n, n}, 2);
  Tensor c({n, n});
  ThreadPool& pool = ThreadPool::instance();

  Json out = Json::object();
  out.set("size", n);
  out.set("flops", flops);

  // C = A·B: seed naive ikj vs blocked, 1 thread vs pool.
  const double t_naive = time_best(hc.reps, [&] {
    c.fill(0.0f);
    gemm::naive_gemm_nn_acc(n, n, n, a.data(), b.data(), c.data());
  });
  pool.set_num_threads(1);
  const double t_blocked_1t = time_best(hc.reps, [&] {
    gemm::gemm_nn(n, n, n, a.data(), n, b.data(), n, c.data(), n, false);
  });
  pool.set_num_threads(pool_threads);
  const double t_blocked_mt = time_best(hc.reps, [&] {
    gemm::gemm_nn(n, n, n, a.data(), n, b.data(), n, c.data(), n, false);
  });
  Json nn = Json::object();
  nn.set("naive_ms", t_naive * 1e3);
  nn.set("blocked_1t_ms", t_blocked_1t * 1e3);
  nn.set("blocked_mt_ms", t_blocked_mt * 1e3);
  nn.set("gflops_naive", gflops(flops, t_naive));
  nn.set("gflops_blocked_1t", gflops(flops, t_blocked_1t));
  nn.set("gflops_blocked_mt", gflops(flops, t_blocked_mt));
  nn.set("speedup_blocked_1t", t_naive / t_blocked_1t);
  nn.set("speedup_blocked_mt", t_naive / t_blocked_mt);
  out.set("nn", nn);

  // C = A·Bᵀ — the analytic-MVM inner kernel (weights stored [out, in]).
  const Tensor bt = random_tensor({n, n}, 3);
  const double t_nt_naive = time_best(hc.reps, [&] {
    gemm::naive_gemm_nt(n, n, n, a.data(), bt.data(), c.data());
  });
  pool.set_num_threads(1);
  const double t_nt_1t = time_best(hc.reps, [&] {
    gemm::gemm_nt(n, n, n, a.data(), n, bt.data(), n, c.data(), n);
  });
  pool.set_num_threads(pool_threads);
  const double t_nt_mt = time_best(hc.reps, [&] {
    gemm::gemm_nt(n, n, n, a.data(), n, bt.data(), n, c.data(), n);
  });
  Json nt = Json::object();
  nt.set("naive_ms", t_nt_naive * 1e3);
  nt.set("blocked_1t_ms", t_nt_1t * 1e3);
  nt.set("blocked_mt_ms", t_nt_mt * 1e3);
  nt.set("gflops_naive", gflops(flops, t_nt_naive));
  nt.set("gflops_blocked_1t", gflops(flops, t_nt_1t));
  nt.set("gflops_blocked_mt", gflops(flops, t_nt_mt));
  nt.set("speedup_blocked_1t", t_nt_naive / t_nt_1t);
  nt.set("speedup_blocked_mt", t_nt_naive / t_nt_mt);
  out.set("nt", nt);
  return out;
}

Json bench_analytic_mvm(const HarnessConfig& hc) {
  const Tensor w = random_binary(hc.mvm_out, hc.mvm_in, 9);
  xbar::MvmConfig cfg;
  cfg.spec = enc::EncodingSpec{enc::Scheme::kThermometer, 8};
  cfg.sigma = 1.0;
  xbar::MvmEngine engine(w, cfg, Rng(10));
  const Tensor x = random_tensor({hc.mvm_batch, hc.mvm_in}, 11);
  const std::size_t flops = 2 * hc.mvm_batch * hc.mvm_out * hc.mvm_in;
  const double t = time_best(hc.reps, [&] {
    Tensor y = engine.run_analytic(x);
    benchmark::DoNotOptimize(y.data());
  });
  Json out = Json::object();
  out.set("batch", hc.mvm_batch);
  out.set("out", hc.mvm_out);
  out.set("in", hc.mvm_in);
  out.set("time_ms", t * 1e3);
  out.set("gflops", gflops(flops, t));
  return out;
}

/// One pulse-level row: the fused sweep against the per-pulse reference at
/// `pulses` thermometer pulses. `device_model` adds programming variation,
/// ADC and read noise; `spread` widens the variation until the array fails
/// the exactness certificate, forcing the sequential fallback (DESIGN.md
/// §12). `exact_tile_sums` records which path ran.
Json bench_pulse_mvm(const HarnessConfig& hc, std::size_t pulses,
                     bool device_model, bool spread, bool* gate_ok) {
  const Tensor w = random_binary(hc.pulse_out, hc.pulse_in, 6);
  xbar::MvmConfig cfg;
  cfg.spec = enc::EncodingSpec{enc::Scheme::kThermometer, pulses};
  cfg.sigma = 1.0;
  if (device_model) {
    cfg.device.program_variation = 0.1;
    cfg.device.adc_bits = 8;
    cfg.device.read_noise_sigma = 0.05;
  }
  if (spread) cfg.device.program_variation = 20.0;
  const Tensor x = random_tensor({hc.pulse_batch, hc.pulse_in}, 8);
  const std::size_t flops =
      2 * hc.pulse_batch * hc.pulse_out * hc.pulse_in * pulses;

  // Same construction seed for both engines: the fused batch-major sweep
  // must replay the per-pulse reference path's noise stream exactly, so a
  // fresh same-seeded run of each must agree bitwise (hard gate).
  bool match = true;
  {
    xbar::MvmEngine fused_chk(w, cfg, Rng(7));
    xbar::MvmEngine ref_chk(w, cfg, Rng(7));
    const Tensor y_fused = fused_chk.run_pulse_level(x);
    const Tensor y_ref = ref_chk.run_pulse_level_reference(x);
    if (y_fused.shape() != y_ref.shape() ||
        std::memcmp(y_fused.data(), y_ref.data(),
                    y_fused.numel() * sizeof(float)) != 0) {
      std::fprintf(stderr,
                   "pulse_mvm GATE FAILURE: fused sweep diverged from the "
                   "per-pulse reference bitwise (pulses=%zu device_model=%d "
                   "spread=%d)\n",
                   pulses, device_model ? 1 : 0, spread ? 1 : 0);
      match = false;
      *gate_ok = false;
    }
  }

  xbar::MvmEngine fused(w, cfg, Rng(7));
  const double t_fused = time_best(hc.reps, [&] {
    Tensor y = fused.run_pulse_level(x);
    benchmark::DoNotOptimize(y.data());
  });
  xbar::MvmEngine reference(w, cfg, Rng(7));
  const double t_ref = time_best(hc.reps, [&] {
    Tensor y = reference.run_pulse_level_reference(x);
    benchmark::DoNotOptimize(y.data());
  });

  Json out = Json::object();
  out.set("bitwise_match", match);
  out.set("batch", hc.pulse_batch);
  out.set("out", hc.pulse_out);
  out.set("in", hc.pulse_in);
  out.set("pulses", pulses);
  out.set("device_model", device_model);
  out.set("exact_tile_sums", fused.array().exact_tile_sums());
  if (spread) out.set("fallback_taken", !fused.array().exact_tile_sums());
  out.set("fused_ms", t_fused * 1e3);
  out.set("reference_ms", t_ref * 1e3);
  out.set("gflops_fused", gflops(flops, t_fused));
  out.set("gflops_reference", gflops(flops, t_ref));
  out.set("speedup_fused", t_ref / t_fused);
  return out;
}

/// Level-code binary MVM vs the cached float-panel route over the same ±1
/// weight and on-grid activations (DESIGN.md §8), with three hard gates: the
/// binary result must equal the float oracle bitwise and the dispatched
/// entry must equal the scalar reference bitwise (bitwise_match, on the
/// acceptance shape and on every VGG9 eval shape), the dispatched
/// float→code encoder must equal the scalar encoder (encoder_match), and a
/// BinaryPanelCache must pack exactly once per weight version (the serving
/// steady state re-packs nothing). The vgg9_shapes rows time the kernel
/// alone (A already codes, resp. floats) on the six distinct binary-route
/// shapes of perfbench's eval model (width 16, 16×16 images, batch 8),
/// conv rows stored NCHW as QuantConv2d stores them.
Json bench_gemm_binary(const HarnessConfig& hc, std::size_t pool_threads,
                       bool* gate_ok) {
  const std::size_t m = hc.bin_batch, n = hc.bin_out, k = hc.bin_in;
  const std::size_t flops = 2 * m * n * k;
  // Random ±1 weight and random activations snapped onto the 9-level grid.
  auto operands = [](std::size_t rows, std::size_t cols, std::size_t depth,
                     std::uint64_t seed, Tensor* w, Tensor* a) {
    *w = random_binary(cols, depth, seed);
    *a = random_tensor({rows, depth}, seed + 1);
    for (std::size_t i = 0; i < a->numel(); ++i) {
      const int lvl = static_cast<int>(((*a)[i] + 1.0f) * 4.0f + 0.5f);
      (*a)[i] =
          static_cast<float>(lvl < 0 ? 0 : (lvl > 8 ? 8 : lvl)) * 0.25f - 1.0f;
    }
  };
  Tensor w, a;
  operands(m, n, k, 21, &w, &a);
  Tensor c_float({m, n}), c_bin({m, n});
  ThreadPool& pool = ThreadPool::instance();

  const gemm::PackedB fpanels =
      gemm::prepack_b_t(n, k, std::as_const(w).data(), k);
  const gemm::PackedBinaryB bsigns =
      gemm::prepack_binary_b_t(n, k, std::as_const(w).data(), k);
  std::vector<std::uint8_t> codes(m * k);

  // Encoder gate: the dispatched float→code pass against the scalar one.
  bool encoder_match = true;
  {
    std::vector<std::uint8_t> codes_scalar(m * k);
    encoder_match =
        gemm::binary_grid_codes(a.data(), m * k, codes.data()) &&
        gemm::binary_kernel_scalar().grid_codes(a.data(), m * k,
                                                codes_scalar.data()) &&
        codes == codes_scalar;
    if (!encoder_match) {
      std::fprintf(stderr,
                   "gemm_binary GATE FAILURE: dispatched encoder '%s' diverged "
                   "from the scalar encoder bitwise\n",
                   gemm::binary_kernel_name());
      *gate_ok = false;
    }
  }

  bool match = true;
  // One shape's gate: codes pass + dispatched kernel == float oracle, and
  // dispatched == scalar entry, in the layout `out` describes.
  auto gate = [&](const char* when, std::size_t rows, const Tensor& x,
                  const gemm::PackedBinaryB& B, const float* oracle_rows,
                  std::uint8_t* xcodes, const gemm::BinaryOut& out,
                  float* scalar) {
    const std::size_t cols = B.n, depth = B.k;
    if (!gemm::binary_grid_codes(x.data(), rows * depth, xcodes)) {
      std::fprintf(stderr,
                   "gemm_binary GATE FAILURE: on-grid activations rejected by "
                   "binary_grid_codes (%s)\n", when);
      match = false;
      *gate_ok = false;
      return;
    }
    gemm::gemm_binary(rows, xcodes, depth, B, out);
    bool same = true;
    for (std::size_t i = 0; i < rows && same; ++i)
      for (std::size_t j = 0; j < cols; ++j) {
        const float want = oracle_rows[i * cols + j];
        const float have = out.row(i)[j * out.col_stride];
        if (std::memcmp(&want, &have, sizeof(float)) != 0) {
          same = false;
          break;
        }
      }
    if (!same) {
      std::fprintf(stderr,
                   "gemm_binary GATE FAILURE: level-code route diverged from "
                   "the float oracle bitwise (%s)\n", when);
      match = false;
      *gate_ok = false;
    }
    gemm::BinaryOut scalar_out = out;
    scalar_out.c = scalar;
    gemm::gemm_binary_with(gemm::binary_kernel_scalar(), rows, xcodes, depth,
                           B, scalar_out);
    if (std::memcmp(out.c, scalar, rows * cols * sizeof(float)) != 0) {
      std::fprintf(stderr,
                   "gemm_binary GATE FAILURE: dispatched kernel '%s' diverged "
                   "from the scalar reference bitwise (%s)\n",
                   gemm::binary_kernel_name(), when);
      match = false;
      *gate_ok = false;
    }
  };
  auto check = [&](const char* when) {
    gemm::gemm_prepacked(m, n, k, a.data(), k, fpanels.panels.data(),
                         c_float.data(), n);
    Tensor c_scalar({m, n});
    gate(when, m, a, bsigns, c_float.data(), codes.data(),
         gemm::BinaryOut::rows(c_bin.data(), n), c_scalar.data());
  };

  // Cache semantics gate: one binary pack per weight version, zero on hits.
  bool repack_once = true;
  {
    Tensor latent = random_tensor({n, k}, 23);
    quant::BinaryPanelCache cache;
    const float* bw;
    const float* panels;
    const gemm::PackedBinaryB* pb;
    float scale;
    const std::uint64_t packs0 = gemm::binary_pack_count();
    cache.get(latent, true, n, k, false, &bw, &panels, &pb, &scale);
    cache.get(latent, true, n, k, false, &bw, &panels, &pb, &scale);
    repack_once = cache.rebuilds() == 1 &&
                  gemm::binary_pack_count() == packs0 + 1;
    latent.data()[0] += 1.0f;  // mutation bumps the version
    cache.get(latent, true, n, k, false, &bw, &panels, &pb, &scale);
    repack_once = repack_once && cache.rebuilds() == 2 &&
                  gemm::binary_pack_count() == packs0 + 2;
    if (!repack_once) {
      std::fprintf(stderr,
                   "gemm_binary GATE FAILURE: BinaryPanelCache did not pack "
                   "exactly once per weight version\n");
      *gate_ok = false;
    }
  }

  const gemm::BinaryOut rows_out = gemm::BinaryOut::rows(c_bin.data(), n);
  pool.set_num_threads(1);
  check("1 thread");
  const double t_float_1t = time_best(hc.reps, [&] {
    gemm::gemm_prepacked(m, n, k, a.data(), k, fpanels.panels.data(),
                         c_float.data(), n);
  });
  // Cold: weight signs re-packed every call (what a cache miss costs).
  const double t_cold_1t = time_best(hc.reps, [&] {
    const gemm::PackedBinaryB fresh =
        gemm::prepack_binary_b_t(n, k, std::as_const(w).data(), k);
    (void)gemm::binary_grid_codes(a.data(), m * k, codes.data());
    gemm::gemm_binary(m, codes.data(), k, fresh, rows_out);
  });
  // Cached: the serving steady state — per-request codes pass + kernel.
  const double t_cached_1t = time_best(hc.reps, [&] {
    (void)gemm::binary_grid_codes(a.data(), m * k, codes.data());
    gemm::gemm_binary(m, codes.data(), k, bsigns, rows_out);
  });
  const double t_kernel_1t = time_best(hc.reps, [&] {
    gemm::gemm_binary(m, codes.data(), k, bsigns, rows_out);
  });
  // The A-side step alone: the validating float→code pass (the conv
  // route's patch gather after it is not timed).
  const double t_pack_1t = time_best(hc.reps, [&] {
    (void)gemm::binary_grid_codes(a.data(), m * k, codes.data());
  });

  // The VGG9 eval shapes: level-code kernel vs the packed float GEMM.
  struct VggShape {
    const char* name;
    std::size_t rows, cols, depth, pixels;  // pixels 0: row-major (fc)
  };
  const VggShape vgg[] = {{"conv2", 2048, 16, 144, 256},
                          {"conv3", 512, 32, 144, 64},
                          {"conv4", 512, 32, 288, 64},
                          {"conv5", 128, 64, 288, 16},
                          {"conv6_conv7", 128, 64, 576, 16},
                          {"fc1", 8, 128, 256, 0}};
  Json vgg_rows = Json::array();
  for (std::size_t s = 0; s < sizeof(vgg) / sizeof(vgg[0]); ++s) {
    const VggShape& v = vgg[s];
    Tensor vw, va;
    operands(v.rows, v.cols, v.depth, 100 + 2 * s, &vw, &va);
    const gemm::PackedB vf =
        gemm::prepack_b_t(v.cols, v.depth, std::as_const(vw).data(), v.depth);
    const gemm::PackedBinaryB vb =
        gemm::prepack_binary_b_t(v.cols, v.depth, std::as_const(vw).data(),
                                 v.depth);
    std::vector<std::uint8_t> vcodes(v.rows * v.depth);
    Tensor vfloat({v.rows, v.cols}), vbin({v.rows * v.cols}),
        vscalar({v.rows * v.cols});
    const gemm::BinaryOut vout =
        v.pixels ? gemm::BinaryOut::nchw(vbin.data(), v.cols, v.pixels)
                 : gemm::BinaryOut::rows(vbin.data(), v.cols);
    gemm::gemm_prepacked(v.rows, v.cols, v.depth, va.data(), v.depth,
                         vf.panels.data(), vfloat.data(), v.cols);
    gate(v.name, v.rows, va, vb, vfloat.data(), vcodes.data(), vout,
         vscalar.data());
    const double tf = time_best(hc.reps, [&] {
      gemm::gemm_prepacked(v.rows, v.cols, v.depth, va.data(), v.depth,
                           vf.panels.data(), vfloat.data(), v.cols);
    });
    const double tb = time_best(hc.reps, [&] {
      gemm::gemm_binary(v.rows, vcodes.data(), v.depth, vb, vout);
    });
    Json row = Json::object();
    row.set("layer", v.name);
    row.set("rows", v.rows);
    row.set("out", v.cols);
    row.set("in", v.depth);
    row.set("layout", v.pixels ? "nchw" : "rows");
    row.set("float_packed_1t_us", tf * 1e6);
    row.set("binary_1t_us", tb * 1e6);
    row.set("speedup_binary_vs_float_1t", tf / tb);
    vgg_rows.push_back(std::move(row));
  }

  pool.set_num_threads(pool_threads);
  check("pool threads");
  const double t_float_mt = time_best(hc.reps, [&] {
    gemm::gemm_prepacked(m, n, k, a.data(), k, fpanels.panels.data(),
                         c_float.data(), n);
  });
  const double t_cached_mt = time_best(hc.reps, [&] {
    (void)gemm::binary_grid_codes(a.data(), m * k, codes.data());
    gemm::gemm_binary(m, codes.data(), k, bsigns, rows_out);
  });

  Json out = Json::object();
  out.set("batch", m);
  out.set("out", n);
  out.set("in", k);
  out.set("kernel", gemm::binary_kernel_name());
  out.set("cpu_features", gemm::cpu_features());
  out.set("bitwise_match", match);
  out.set("repack_once", repack_once);
  out.set("encoder_match", encoder_match);
  out.set("float_packed_1t_ms", t_float_1t * 1e3);
  out.set("binary_cold_1t_ms", t_cold_1t * 1e3);
  out.set("binary_cached_1t_ms", t_cached_1t * 1e3);
  out.set("binary_kernel_only_1t_ms", t_kernel_1t * 1e3);
  out.set("t_pack_1t", t_pack_1t * 1e6);  // microseconds
  out.set("pack_share_1t", t_pack_1t / (t_pack_1t + t_kernel_1t));
  out.set("float_packed_mt_ms", t_float_mt * 1e3);
  out.set("binary_cached_mt_ms", t_cached_mt * 1e3);
  out.set("gflops_float_1t", gflops(flops, t_float_1t));
  out.set("gflops_binary_cached_1t", gflops(flops, t_cached_1t));
  out.set("speedup_binary_vs_float_1t", t_float_1t / t_cached_1t);
  out.set("speedup_binary_vs_float_mt", t_float_mt / t_cached_mt);
  out.set("speedup_cached_vs_cold_1t", t_cold_1t / t_cached_1t);
  out.set("vgg9_shapes", std::move(vgg_rows));
  return out;
}

/// QuantTanh::infer by exact thresholds vs the libm expression it replaces,
/// quantize_value(std::tanh(x)) per element, and QuantTanh::forward's STE
/// cache fill by the dispatched tanh entry vs the std::tanh loop, over
/// N(0, 1.5²) pre-activations plus ±0, ±inf and NaN. Hard gates: tanh_match
/// (bitwise equal outputs, NaN equal to NaN) and ste_tanh_match (bitwise
/// equal tanh, NaN payload included).
Json bench_activations(const HarnessConfig& hc, bool* gate_ok) {
  const std::size_t n = hc.act_n, levels = 9;
  Rng rng(61);
  Tensor x({n});
  ops::fill_normal(x, rng, 0.0f, 1.5f);
  const float specials[] = {0.0f, -0.0f, INFINITY, -INFINITY, NAN};
  for (std::size_t i = 0; i < std::size(specials) && i < n; ++i)
    x[i * (n / std::size(specials))] = specials[i];
  const quant::QuantTanh act(levels);
  nn::EvalContext ctx;
  Tensor y_thr({n}), y_libm({n});
  const auto libm = [&] {
    for (std::size_t i = 0; i < n; ++i)
      y_libm[i] = quant::quantize_value(std::tanh(x[i]), levels);
  };
  const double t_thr = time_best(hc.reps, [&] { y_thr = act.infer(x, ctx); });
  const double t_libm = time_best(hc.reps, libm);
  bool match = true;
  for (std::size_t i = 0; i < n; ++i) {
    const bool same =
        std::isnan(y_libm[i])
            ? std::isnan(y_thr[i])
            : std::memcmp(&y_thr[i], &y_libm[i], sizeof(float)) == 0;
    match = match && same;
  }
  if (!match) {
    std::fprintf(stderr,
                 "activations GATE FAILURE: threshold QuantTanh diverged from "
                 "quantize_value(std::tanh(x)) bitwise\n");
    *gate_ok = false;
  }

  const nn::TanhKernel& tanh_kern = nn::tanh_kernel();
  const float* xp = std::as_const(x).data();
  std::vector<float> ste(n), ste_libm(n);
  const double t_ste =
      time_best(hc.reps, [&] { tanh_kern.map(xp, ste.data(), n); });
  const double t_ste_libm = time_best(hc.reps, [&] {
    for (std::size_t i = 0; i < n; ++i) ste_libm[i] = std::tanh(xp[i]);
  });
  const bool ste_match =
      std::memcmp(ste.data(), ste_libm.data(), n * sizeof(float)) == 0;
  if (!ste_match) {
    std::fprintf(stderr,
                 "activations GATE FAILURE: tanh entry '%s' diverged from "
                 "std::tanh bitwise\n",
                 tanh_kern.name);
    *gate_ok = false;
  }
  Json out = Json::object();
  out.set("n", n);
  out.set("levels", levels);
  out.set("tanh_match", match);
  out.set("threshold_ms", t_thr * 1e3);
  out.set("libm_ms", t_libm * 1e3);
  out.set("ns_per_element_threshold", t_thr * 1e9 / static_cast<double>(n));
  out.set("speedup_threshold_vs_libm", t_libm / t_thr);
  out.set("tanh_kernel", tanh_kern.name);
  out.set("ste_tanh_match", ste_match);
  out.set("ste_dispatched_ms", t_ste * 1e3);
  out.set("ste_libm_ms", t_ste_libm * 1e3);
  out.set("ns_per_element_ste", t_ste * 1e9 / static_cast<double>(n));
  out.set("speedup_ste_vs_libm", t_ste_libm / t_ste);
  return out;
}

/// Batched normals: the dispatched Box–Muller registry entry vs the scalar
/// entry, both through Rng::fill_normal_with. Hard gate (normal_match): the
/// dispatched fill and the scalar fill equal n sequential float-cast
/// normal() calls bitwise. Records the guard's recompute rate.
Json bench_normals(const HarnessConfig& hc, bool* gate_ok) {
  const std::size_t n = hc.normal_n;
  const double mean = 0.0, stddev = 0.7;
  std::vector<float> want(n), got(n), scalar(n);
  Rng seq(62), dispatched(62), sc(62);
  for (float& v : want) v = static_cast<float>(seq.normal(mean, stddev));
  const std::size_t recomputed = dispatched.fill_normal_with(
      normal_kernel(), got.data(), n, mean, stddev);
  sc.fill_normal_with(normal_kernel_scalar(), scalar.data(), n, mean, stddev);
  const bool match =
      std::memcmp(got.data(), want.data(), n * sizeof(float)) == 0 &&
      std::memcmp(scalar.data(), want.data(), n * sizeof(float)) == 0;
  if (!match) {
    std::fprintf(stderr,
                 "normals GATE FAILURE: fill_normal ('%s' or scalar) diverged "
                 "from sequential normal() bitwise\n",
                 normal_kernel().name);
    *gate_ok = false;
  }
  Rng timing(63);
  const double t_disp = time_best(hc.reps, [&] {
    timing.fill_normal_with(normal_kernel(), got.data(), n, mean, stddev);
  });
  const double t_scalar = time_best(hc.reps, [&] {
    timing.fill_normal_with(normal_kernel_scalar(), got.data(), n, mean,
                            stddev);
  });
  Json out = Json::object();
  out.set("n", n);
  out.set("kernel", normal_kernel().name);
  out.set("normal_match", match);
  out.set("dispatched_ms", t_disp * 1e3);
  out.set("scalar_ms", t_scalar * 1e3);
  out.set("ns_per_normal_dispatched", t_disp * 1e9 / static_cast<double>(n));
  out.set("speedup_dispatched_vs_scalar", t_scalar / t_disp);
  out.set("fallback_pairs", recomputed);
  out.set("fallback_rate",
          static_cast<double>(recomputed) / static_cast<double>(n / 2));
  return out;
}

/// Trial-parallel noisy evaluation: sequential oracle vs the pool-dispatched
/// evaluator, with a correctness gate (the two must be bitwise equal — any
/// mismatch fails the harness). Records trial throughput so CI tracks the
/// trial-level scaling alongside the kernel numbers.
Json bench_eval_trials(const HarnessConfig& hc, std::size_t pool_threads,
                       bool* gate_ok) {
  using namespace gbo;
  models::MlpConfig mcfg;
  mcfg.in_features = 64;
  mcfg.hidden = {128, 128, 128};
  mcfg.num_classes = 10;
  models::Mlp model = models::build_mlp(mcfg);
  model.net->set_training(false);

  data::Dataset test;
  test.images = random_tensor({hc.eval_samples, mcfg.in_features}, 51);
  test.labels.resize(hc.eval_samples);
  Rng lrng(52);
  for (auto& l : test.labels)
    l = static_cast<std::size_t>(lrng.uniform_int(0, 9));

  const std::size_t trials = hc.eval_trials;
  ThreadPool& pool = ThreadPool::instance();

  // Fresh controller per run so every measurement replays trial ids [0, n).
  auto run = [&](bool sequential) {
    Rng rng(53);
    xbar::LayerNoiseController ctrl(model.encoded, 1.0, model.base_pulses(),
                                    rng);
    ctrl.attach();
    ctrl.set_enabled_all(true);
    const float acc =
        sequential
            ? core::evaluate_noisy_sequential(*model.net, ctrl, test, trials)
            : core::evaluate_noisy(*model.net, ctrl, test, trials);
    ctrl.detach();
    return acc;
  };

  pool.set_num_threads(1);
  const float acc_seq = run(true);
  const double t_seq = time_best(hc.reps, [&] { (void)run(true); });
  const float acc_par_1t = run(false);
  const double t_par_1t = time_best(hc.reps, [&] { (void)run(false); });
  pool.set_num_threads(pool_threads);
  const float acc_par_mt = run(false);
  const double t_par_mt = time_best(hc.reps, [&] { (void)run(false); });

  const bool match = acc_seq == acc_par_1t && acc_seq == acc_par_mt;
  if (!match) {
    std::fprintf(stderr,
                 "eval_trials GATE FAILURE: parallel evaluator diverged from "
                 "the sequential oracle (seq=%.9g par_1t=%.9g par_mt=%.9g)\n",
                 static_cast<double>(acc_seq), static_cast<double>(acc_par_1t),
                 static_cast<double>(acc_par_mt));
    *gate_ok = false;
  }

  Json out = Json::object();
  out.set("samples", hc.eval_samples);
  out.set("trials", trials);
  out.set("accuracy", acc_seq);
  out.set("bitwise_match", match);
  out.set("sequential_ms", t_seq * 1e3);
  out.set("parallel_1t_ms", t_par_1t * 1e3);
  out.set("parallel_mt_ms", t_par_mt * 1e3);
  out.set("trials_per_sec_sequential",
          t_seq > 0.0 ? static_cast<double>(trials) / t_seq : 0.0);
  out.set("trials_per_sec_mt",
          t_par_mt > 0.0 ? static_cast<double>(trials) / t_par_mt : 0.0);
  out.set("speedup_mt_vs_sequential", t_seq / t_par_mt);
  return out;
}

int run_harness(const HarnessConfig& hc) {
  ThreadPool& pool = ThreadPool::instance();
  const std::size_t pool_threads = pool.num_threads();

  Json doc = Json::object();
  doc.set("bench", "micro_mvm");
  doc.set("smoke", hc.smoke);
  doc.set("num_threads", pool_threads);

  bool gate_ok = true;

  std::printf("[gemm] n=%zu (naive vs blocked, 1 vs %zu threads)...\n",
              hc.gemm_n, pool_threads);
  doc.set("gemm", bench_gemm_paths(hc, pool_threads));
  pool.set_num_threads(pool_threads);

  std::printf("[gemm packed] n=%zu (packed panels vs naive loop, bitwise "
              "gate)...\n", hc.gemm_n);
  doc.set("gemm_packed", bench_gemm_packed(hc, pool_threads, &gate_ok));
  pool.set_num_threads(pool_threads);

  std::printf("[gemm prepacked] n=%zu (cold vs cached weight panels, "
              "bitwise gate)...\n", hc.gemm_n);
  doc.set("gemm_prepacked", bench_gemm_prepacked(hc, pool_threads, &gate_ok));
  pool.set_num_threads(pool_threads);

  std::printf("[conv direct] %zux%zux%zux%zu -> %zu channels (fused conv "
              "training step vs im2col route, bitwise gate)...\n",
              hc.conv_batch, hc.conv_in_c, hc.conv_hw, hc.conv_hw,
              hc.conv_out_c);
  doc.set("conv_direct", bench_conv_direct(hc, pool_threads, &gate_ok));
  pool.set_num_threads(pool_threads);

  std::printf("[gemm binary] %zux%zu batch=%zu kernel=%s (level codes vs "
              "float panels, bitwise gate)...\n",
              hc.bin_out, hc.bin_in, hc.bin_batch,
              gemm::binary_kernel_name());
  doc.set("gemm_binary", bench_gemm_binary(hc, pool_threads, &gate_ok));
  pool.set_num_threads(pool_threads);

  std::printf("[analytic mvm] %zux%zu batch=%zu...\n", hc.mvm_out, hc.mvm_in,
              hc.mvm_batch);
  doc.set("analytic_mvm", bench_analytic_mvm(hc));

  std::printf("[pulse mvm] %zux%zu batch=%zu pulses=%zu, 6, 10, 14 and a "
              "forced fallback (fused vs reference, bitwise gate)...\n",
              hc.pulse_out, hc.pulse_in, hc.pulse_batch, hc.pulses);
  doc.set("pulse_mvm", bench_pulse_mvm(hc, hc.pulses, /*device_model=*/false,
                                       /*spread=*/false, &gate_ok));
  doc.set("pulse_mvm_device_model",
          bench_pulse_mvm(hc, hc.pulses, /*device_model=*/true,
                          /*spread=*/false, &gate_ok));
  // The GBO schedule's non-dyadic counts, and the forced fallback.
  for (std::size_t n : {6, 10, 14})
    doc.set("pulse_mvm_n" + std::to_string(n),
            bench_pulse_mvm(hc, n, /*device_model=*/true, /*spread=*/false,
                            &gate_ok));
  doc.set("pulse_mvm_fallback",
          bench_pulse_mvm(hc, hc.pulses, /*device_model=*/false,
                          /*spread=*/true, &gate_ok));

  std::printf("[activations] %zu QuantTanh inputs (thresholds vs libm, "
              "STE tanh kernel=%s vs libm, bitwise gates)...\n",
              hc.act_n, nn::tanh_kernel().name);
  doc.set("activations", bench_activations(hc, &gate_ok));

  std::printf("[normals] %zu floats kernel=%s (dispatched vs scalar "
              "Box-Muller, bitwise gate)...\n",
              hc.normal_n, normal_kernel().name);
  doc.set("normals", bench_normals(hc, &gate_ok));

  std::printf("[eval trials] %zu samples x %zu trials (sequential oracle vs "
              "trial-parallel, %zu threads)...\n",
              hc.eval_samples, hc.eval_trials, pool_threads);
  doc.set("eval_trials", bench_eval_trials(hc, pool_threads, &gate_ok));
  pool.set_num_threads(pool_threads);
  if (!gate_ok) {
    std::fprintf(stderr, "bench_micro_mvm: bitwise gate failed; aborting\n");
    return 1;
  }

  if (!doc.write_file(hc.json_path)) {
    std::fprintf(stderr, "failed to write %s\n", hc.json_path.c_str());
    return 1;
  }
  std::printf("%s\n", doc.dump(2).c_str());
  std::printf("wrote %s\n", hc.json_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool gbench = false;
  HarnessConfig hc;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--gbench") {
      gbench = true;
      // Forward the remaining args to google-benchmark.
      argv[i] = argv[0];
      argc -= i;
      argv += i;
      break;
    }
    if (arg == "--cpu-info") {
      // CI step: document the ISA the runner actually exercises.
      std::printf(
          "binary_kernel: %s\ntanh_kernel: %s\nnormal_kernel: %s\n"
          "cpu_features: %s\n",
          gbo::gemm::binary_kernel_name(), gbo::nn::tanh_kernel().name,
          gbo::normal_kernel().name, gbo::gemm::cpu_features().c_str());
      return 0;
    }
    if (arg == "--smoke") {
      hc.smoke = true;
      hc.gemm_n = 128;
      hc.mvm_out = hc.mvm_in = 128;
      hc.pulse_out = 32;
      hc.pulse_in = 64;
      hc.pulse_batch = 8;
      hc.eval_samples = 512;
      hc.eval_trials = 8;
      hc.conv_in_c = 16;
      hc.conv_hw = 16;
      hc.conv_out_c = 32;
      hc.conv_batch = 4;
      hc.act_n = 1 << 16;
      hc.normal_n = 1 << 18;
      hc.reps = 2;
    } else if (arg == "--json" && i + 1 < argc) {
      hc.json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--json <path>] [--cpu-info] | "
                   "--gbench [...]\n",
                   argv[0]);
      return 2;
    }
  }
  if (gbench) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
  }
  return run_harness(hc);
}
