// Scratch-arena contract: bump frames rewind and stop allocating once warm,
// the tensor recycler stabilizes, and — the load-bearing property — the
// arena-backed stateless inference path is bitwise identical to the plain
// allocating path on every model family and on the pulse-level crossbar.
#include "common/thread_pool.hpp"
#include "crossbar/crossbar_layers.hpp"
#include "crossbar/hw_deploy.hpp"
#include "models/mlp.hpp"
#include "models/resnet.hpp"
#include "models/vgg9.hpp"
#include "tensor/arena.hpp"
#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

// Counting replacement of the global allocation functions for this test
// binary: every operator new / new[] on any thread bumps the counter, so a
// test can assert that a region performed no heap allocation at all — not
// merely none that the arena's own stats() saw.
namespace {
std::atomic<std::size_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace gbo {
namespace {

Tensor random_tensor(std::vector<std::size_t> shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(std::move(shape));
  ops::fill_uniform(t, rng, -1.0f, 1.0f);
  return t;
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.numel(); ++i) ASSERT_EQ(a[i], b[i]) << "i=" << i;
}

// ---- bump region ----------------------------------------------------------

TEST(ScratchArena, BumpFramesRewindAndStopAllocating) {
  ScratchArena arena;
  EXPECT_EQ(arena.stats().system_allocs, 0u);

  for (int pass = 0; pass < 3; ++pass) {
    ArenaFrame outer(&arena);
    float* a = arena.alloc_floats(1000);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % 64, 0u);
    {
      ArenaFrame inner(&arena);
      double* b = arena.alloc_doubles(500);
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 64, 0u);
      EXPECT_NE(static_cast<void*>(a), static_cast<void*>(b));
    }
    // The inner frame popped: the next allocation reuses its bytes.
    float* c = arena.alloc_floats(500);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c) % 64, 0u);
  }
  const auto warm = arena.stats();
  EXPECT_GE(warm.system_allocs, 1u);
  EXPECT_GT(warm.bump_high_water_bytes, 0u);

  // Steady state: the same allocation pattern must not touch the heap.
  for (int pass = 0; pass < 5; ++pass) {
    ArenaFrame frame(&arena);
    (void)arena.alloc_floats(1000);
    (void)arena.alloc_doubles(500);
  }
  EXPECT_EQ(arena.stats().system_allocs, warm.system_allocs);

  // Zero-length requests are a no-op.
  EXPECT_EQ(arena.alloc_floats(0), nullptr);
}

TEST(ScratchArena, BumpGrowsAcrossChunksAndKeepsPointersValid) {
  ScratchArena arena;
  ArenaFrame frame(&arena);
  float* small = arena.alloc_floats(16);
  small[0] = 7.0f;
  // Larger than the first chunk: forces a second chunk while `small` is live.
  float* big = arena.alloc_floats(1u << 20);
  big[0] = 9.0f;
  EXPECT_EQ(small[0], 7.0f);
  EXPECT_GE(arena.stats().system_allocs, 2u);
}

// ---- tensor recycler ------------------------------------------------------

TEST(ScratchArena, TensorRecyclerStabilizes) {
  ScratchArena arena;
  auto cycle = [&] {
    Tensor a = arena.take({4, 32});
    Tensor b = arena.take({2, 8, 4, 4});
    a.fill(1.0f);
    b.fill(2.0f);
    arena.put(std::move(a));
    arena.put(std::move(b));
  };
  cycle();
  cycle();  // capacities converge during the first cycles
  const std::size_t warm = arena.stats().system_allocs;
  for (int i = 0; i < 10; ++i) cycle();
  EXPECT_EQ(arena.stats().system_allocs, warm);
}

// ---- arena-backed infer == allocating infer, bitwise ----------------------

template <typename Model>
void expect_arena_infer_bitwise(Model& m, const Tensor& x,
                                std::uint64_t ctx_seed) {
  m.net->set_training(false);
  nn::EvalContext plain{Rng(ctx_seed)};
  const Tensor want = m.net->infer(x, plain);

  ScratchArena arena;
  nn::EvalContext ctx{Rng(ctx_seed), &arena};
  // Several passes: the first warms the arena, the rest must replay from
  // recycled memory only — and every pass must match the allocating path.
  std::size_t warm_allocs = 0;
  for (int pass = 0; pass < 3; ++pass) {
    nn::EvalContext fresh{Rng(ctx_seed), &arena};
    Tensor got = m.net->infer(x, fresh);
    expect_bitwise_equal(want, got);
    fresh.recycle(std::move(got));
    if (pass == 1) warm_allocs = arena.stats().system_allocs;
  }
  EXPECT_EQ(arena.stats().system_allocs, warm_allocs)
      << "steady-state infer touched the heap";
  // Small all-linear nets may legitimately never bump-allocate since the
  // frozen-weight caches took binarized copies and packed panels off the
  // per-request path (DESIGN.md §6) — the recycler must still have pooled
  // the inter-layer tensors.
  EXPECT_GT(arena.stats().reserved_bytes, 0u);
}

TEST(ScratchArena, InferBitwiseMlp) {
  models::MlpConfig cfg;
  cfg.in_features = 16;
  cfg.hidden = {24, 24};
  cfg.num_classes = 4;
  models::Mlp m = models::build_mlp(cfg);
  const Tensor x = random_tensor({5, 16}, 1);
  expect_arena_infer_bitwise(m, x, 2);
}

TEST(ScratchArena, InferBitwiseMlpWithNoiseHooks) {
  models::MlpConfig cfg;
  cfg.in_features = 16;
  cfg.hidden = {24, 24};
  cfg.num_classes = 4;
  models::Mlp m = models::build_mlp(cfg);
  Rng crng(9);
  xbar::LayerNoiseController ctrl(m.encoded, /*sigma=*/1.5, m.base_pulses(),
                                  crng);
  ctrl.attach();
  ctrl.set_enabled_all(true);
  const Tensor x = random_tensor({5, 16}, 3);
  expect_arena_infer_bitwise(m, x, 4);
  ctrl.detach();
}

TEST(ScratchArena, InferBitwiseVgg9) {
  models::Vgg9Config cfg;
  cfg.width = 4;
  cfg.image_size = 8;
  models::Vgg9 m = models::build_vgg9(cfg);
  const Tensor x = random_tensor({3, 3, 8, 8}, 5);
  expect_arena_infer_bitwise(m, x, 6);
}

TEST(ScratchArena, InferBitwiseResNet) {
  models::ResNetConfig cfg;
  cfg.width = 4;
  cfg.image_size = 8;
  models::ResNet m = models::build_resnet(cfg);
  const Tensor x = random_tensor({3, 3, 8, 8}, 7);
  expect_arena_infer_bitwise(m, x, 8);
}

/// Heap allocations made by steady-state arena-backed infer passes, after
/// two warm-up passes have sized the arena and every frozen-weight cache.
template <typename Model>
std::size_t steady_state_heap_allocs(Model& m, const Tensor& x) {
  m.net->set_training(false);
  ScratchArena arena;
  std::size_t allocs = 0;
  for (int pass = 0; pass < 5; ++pass) {
    nn::EvalContext ctx{Rng(3), &arena};
    const std::size_t before = g_heap_allocs.load(std::memory_order_relaxed);
    Tensor y = m.net->infer(x, ctx);
    const std::size_t after = g_heap_allocs.load(std::memory_order_relaxed);
    if (pass >= 2) allocs += after - before;
    ctx.recycle(std::move(y));
  }
  return allocs;
}

TEST(ScratchArena, ConvInferSteadyStateIsHeapFree) {
  ThreadPool& pool = ThreadPool::instance();
  const std::size_t restore = pool.num_threads();
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    pool.set_num_threads(threads);
    models::Vgg9Config vcfg;
    vcfg.width = 4;
    vcfg.image_size = 8;
    models::Vgg9 vgg = models::build_vgg9(vcfg);
    EXPECT_EQ(steady_state_heap_allocs(vgg, random_tensor({3, 3, 8, 8}, 5)),
              0u)
        << "VGG9 infer allocated at " << threads << " threads";
    models::ResNetConfig rcfg;
    rcfg.width = 4;
    rcfg.image_size = 8;
    models::ResNet res = models::build_resnet(rcfg);
    EXPECT_EQ(steady_state_heap_allocs(res, random_tensor({3, 3, 8, 8}, 7)),
              0u)
        << "ResNet infer allocated at " << threads << " threads";
  }
  pool.set_num_threads(restore);
}

TEST(ScratchArena, PulseLevelEngineBitwiseWithArena) {
  Rng wrng(21);
  Tensor bw({12, 16});
  for (std::size_t i = 0; i < bw.numel(); ++i)
    bw[i] = wrng.bernoulli(0.5) ? 0.5f : -0.5f;

  xbar::MvmConfig mcfg;
  mcfg.spec = enc::EncodingSpec{enc::Scheme::kThermometer, 8};
  mcfg.sigma = 0.3;
  mcfg.device.read_noise_sigma = 0.05;
  mcfg.device.adc_bits = 6;
  xbar::MvmEngine engine(bw, mcfg, Rng(22));
  const Tensor x = random_tensor({4, 16}, 23);

  Rng ra(31), rb(31);
  ScratchArena arena;
  const Tensor plain = engine.run_pulse_level(x, {&ra, 1});
  for (int pass = 0; pass < 2; ++pass) {
    Rng r = rb;  // replay the same stream each pass
    Tensor got = engine.run_pulse_level(x, {&r, 1}, &arena);
    expect_bitwise_equal(plain, got);
    arena.put(std::move(got));
  }
}

TEST(ScratchArena, HardwareNetworkConstForwardBitwiseWithArena) {
  models::MlpConfig cfg;
  cfg.in_features = 12;
  cfg.hidden = {16, 16};
  models::Mlp m = models::build_mlp(cfg);
  m.net->set_training(false);
  xbar::HwDeployConfig hw_cfg;
  hw_cfg.sigma = 0.5;
  hw_cfg.device.read_noise_sigma = 0.05;
  hw_cfg.device.adc_bits = 8;
  xbar::HardwareNetwork hw(*m.net, m.encoded, hw_cfg);

  const Tensor x = random_tensor({3, 12}, 33);
  nn::EvalContext plain{Rng(44)};
  const Tensor want = hw.forward(x, plain);

  ScratchArena arena;
  for (int pass = 0; pass < 2; ++pass) {
    nn::EvalContext ctx{Rng(44), &arena};
    Tensor got = hw.forward(x, ctx);
    expect_bitwise_equal(want, got);
    ctx.recycle(std::move(got));
  }
}

}  // namespace
}  // namespace gbo
