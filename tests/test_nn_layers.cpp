#include "common/thread_pool.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/eval_context.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "nn/sequential.hpp"
#include "quant/binary_weight.hpp"
#include "quant/quant_layers.hpp"
#include "tensor/arena.hpp"
#include "tensor/ops.hpp"

#include "conv_reference.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>

namespace gbo::nn {
namespace {

TEST(Linear, ForwardMatchesManual) {
  Rng rng(1);
  Linear fc(3, 2, /*bias=*/true, rng);
  // Overwrite weights deterministically: W = [[1,0,2],[0,1,0]], b = [1,-1].
  fc.weight().value = Tensor({2, 3}, std::vector<float>{1, 0, 2, 0, 1, 0});
  fc.bias()->value = Tensor({2}, std::vector<float>{1, -1});

  Tensor x({1, 3}, std::vector<float>{1, 2, 3});
  Tensor y = fc.forward(x);
  EXPECT_FLOAT_EQ(y.at(0, 0), 1 + 6 + 1);
  EXPECT_FLOAT_EQ(y.at(0, 1), 2 - 1);
}

TEST(Linear, RejectsWrongInput) {
  Rng rng(1);
  Linear fc(3, 2, true, rng);
  Tensor bad({1, 4});
  EXPECT_THROW(fc.forward(bad), std::invalid_argument);
}

TEST(Linear, ParamsExposed) {
  Rng rng(1);
  Linear with_bias(3, 2, true, rng);
  EXPECT_EQ(with_bias.params().size(), 2u);
  Linear no_bias(3, 2, false, rng);
  EXPECT_EQ(no_bias.params().size(), 1u);
}

TEST(Conv2d, OutputShape) {
  Rng rng(2);
  ConvGeom g{.in_c = 3, .in_h = 8, .in_w = 8, .k = 3, .stride = 1, .pad = 1};
  Conv2d conv(16, g, true, rng);
  Tensor x({2, 3, 8, 8});
  Tensor y = conv.forward(x);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 16, 8, 8}));
}

/// Direct (quadruple-loop) convolution reference.
Tensor ref_conv(const Tensor& x, const Tensor& w, const ConvGeom& g,
                std::size_t out_c) {
  const std::size_t n = x.dim(0), oh = g.out_h(), ow = g.out_w();
  Tensor y({n, out_c, oh, ow});
  for (std::size_t b = 0; b < n; ++b)
    for (std::size_t oc = 0; oc < out_c; ++oc)
      for (std::size_t oy = 0; oy < oh; ++oy)
        for (std::size_t ox = 0; ox < ow; ++ox) {
          float acc = 0.0f;
          for (std::size_t ic = 0; ic < g.in_c; ++ic)
            for (std::size_t ky = 0; ky < g.k; ++ky)
              for (std::size_t kx = 0; kx < g.k; ++kx) {
                const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(oy * g.stride + ky) -
                                          static_cast<std::ptrdiff_t>(g.pad);
                const std::ptrdiff_t ix = static_cast<std::ptrdiff_t>(ox * g.stride + kx) -
                                          static_cast<std::ptrdiff_t>(g.pad);
                if (iy < 0 || ix < 0 || iy >= static_cast<std::ptrdiff_t>(g.in_h) ||
                    ix >= static_cast<std::ptrdiff_t>(g.in_w))
                  continue;
                acc += x.at(b, ic, static_cast<std::size_t>(iy),
                            static_cast<std::size_t>(ix)) *
                       w[(oc * g.in_c + ic) * g.k * g.k + ky * g.k + kx];
              }
          y.at(b, oc, oy, ox) = acc;
        }
  return y;
}

TEST(Conv2d, MatchesDirectConvolution) {
  Rng rng(3);
  ConvGeom g{.in_c = 2, .in_h = 5, .in_w = 5, .k = 3, .stride = 1, .pad = 1};
  Conv2d conv(4, g, /*bias=*/false, rng);
  Tensor x({2, 2, 5, 5});
  ops::fill_normal(x, rng, 0.0f, 1.0f);
  Tensor y = conv.forward(x);
  Tensor expected = ref_conv(x, conv.weight().value, g, 4);
  EXPECT_TRUE(ops::allclose(y, expected, 1e-4f, 1e-5f));
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

/// Conv forward against the im2col → packed GEMM oracle
/// (tests/conv_reference.hpp) on network shapes: `forward`, `infer` and
/// arena-backed `infer` all run the padded-gather lowering and must equal
/// the explicit route bitwise at any thread count.
TEST(Conv2d, DirectConvMatchesIm2colBitwiseOnNetworkShapes) {
  struct Case {
    std::size_t in_c, hw, out_c, batch;
  };
  // VGG9 conv2/conv3 (width 16, 16×16 images) and ResNet block shapes
  // (width 32, 8×8 after the first downsample).
  const Case cases[] = {
      {16, 16, 16, 2}, {16, 16, 32, 4}, {32, 8, 32, 8}, {3, 16, 16, 3}};
  ThreadPool& pool = ThreadPool::instance();
  const std::size_t restore = pool.num_threads();
  for (const Case& cs : cases) {
    ConvGeom g{.in_c = cs.in_c, .in_h = cs.hw, .in_w = cs.hw,
               .k = 3, .stride = 1, .pad = 1};
    Rng rng(7 + cs.in_c);
    Conv2d conv(cs.out_c, g, /*bias=*/true, rng);
    Tensor x({cs.batch, cs.in_c, cs.hw, cs.hw});
    ops::fill_normal(x, rng, 0.0f, 1.0f);
    const Tensor grad({cs.batch, cs.out_c, g.out_h(), g.out_w()});
    const Tensor want =
        conv_ref::train_step(x, conv.weight().value,
                             &conv.params()[1]->value, grad, g)
            .y;

    Tensor results[2];
    int idx = 0;
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      pool.set_num_threads(threads);
      EXPECT_TRUE(bitwise_equal(conv.forward(x), want))
          << "forward vs im2col route at " << threads << " threads, in_c="
          << cs.in_c << " out_c=" << cs.out_c;
      EvalContext plain;
      Tensor y_infer = conv.infer(x, plain);
      EXPECT_TRUE(bitwise_equal(y_infer, want))
          << "infer vs im2col route at " << threads << " threads, in_c="
          << cs.in_c << " out_c=" << cs.out_c;
      ScratchArena arena;
      EvalContext with_arena(Rng(1), &arena);
      EXPECT_TRUE(bitwise_equal(conv.infer(x, with_arena), want))
          << "arena-backed infer diverged at " << threads << " threads";
      results[idx++] = std::move(y_infer);
    }
    EXPECT_TRUE(bitwise_equal(results[0], results[1]))
        << "conv infer not thread-count reproducible at in_c=" << cs.in_c;
  }
  pool.set_num_threads(restore);
}

TEST(Conv2d, NonDirectShapesStillRouteThroughIm2col) {
  // Stride 2 and 5×5 kernels run the same padded-gather lowering as 3×3
  // stride 1: forward and infer must equal the im2col oracle bitwise and
  // the quadruple-loop reference numerically.
  struct Case {
    std::size_t k, stride, pad;
  };
  for (const Case& cs : {Case{3, 2, 1}, Case{5, 1, 2}}) {
    ConvGeom g{.in_c = 4, .in_h = 9, .in_w = 9,
               .k = cs.k, .stride = cs.stride, .pad = cs.pad};
    Rng rng(31);
    Conv2d conv(6, g, /*bias=*/false, rng);
    Tensor x({2, 4, 9, 9});
    ops::fill_normal(x, rng, 0.0f, 1.0f);
    const Tensor want =
        conv_ref::train_step(x, conv.weight().value, nullptr,
                             Tensor({2, 6, g.out_h(), g.out_w()}), g)
            .y;
    Tensor y_fwd = conv.forward(x);
    EvalContext ctx;
    Tensor y_inf = conv.infer(x, ctx);
    EXPECT_TRUE(bitwise_equal(y_fwd, want)) << "k=" << cs.k;
    EXPECT_TRUE(bitwise_equal(y_inf, want)) << "k=" << cs.k;
    Tensor expected = ref_conv(x, conv.weight().value, g, 6);
    EXPECT_TRUE(ops::allclose(y_inf, expected, 1e-4f, 1e-4f));
  }
}

TEST(Conv2d, DirectConvHandlesZeroPadding) {
  // pad=0: the padded copy is the input itself, and the output grid
  // shrinks — forward and infer must still equal the im2col oracle.
  ConvGeom g{.in_c = 8, .in_h = 12, .in_w = 12, .k = 3, .stride = 1, .pad = 0};
  Rng rng(41);
  Conv2d conv(16, g, /*bias=*/true, rng);
  Tensor x({4, 8, 12, 12});
  ops::fill_normal(x, rng, 0.0f, 1.0f);
  const Tensor want =
      conv_ref::train_step(x, conv.weight().value, &conv.params()[1]->value,
                           Tensor({4, 16, g.out_h(), g.out_w()}), g)
          .y;
  Tensor y_fwd = conv.forward(x);
  EvalContext ctx;
  Tensor y_inf = conv.infer(x, ctx);
  EXPECT_TRUE(bitwise_equal(y_fwd, want));
  EXPECT_TRUE(bitwise_equal(y_inf, want));
}

/// The whole training step — y, dX, dW and the bias grad — against the
/// im2col route: the fused wgrad/dgrad must feed every output element the
/// same operands in the same accumulation order as matmul_at(grad_rows,
/// cols) and col2im(matmul(grad_rows, W)).
TEST(Conv2d, TrainStepMatchesIm2colRouteBitwise) {
  struct Case {
    std::size_t in_c, hw, out_c, k, stride, pad;
  };
  const Case cases[] = {
      // The seven VGG9 conv layers (width 16, 16×16 images).
      {3, 16, 16, 3, 1, 1}, {16, 16, 16, 3, 1, 1}, {16, 8, 32, 3, 1, 1},
      {32, 8, 32, 3, 1, 1}, {32, 4, 64, 3, 1, 1}, {64, 4, 64, 3, 1, 1},
      {64, 4, 64, 3, 1, 1},
      // ResNet downsampling: 3×3 stride 2 and the 1×1 stride-2 shortcut.
      {16, 16, 32, 3, 2, 1}, {16, 16, 32, 1, 2, 0},
      // pad 0, 5×5, and ragged panels (out_c 6, patch_len 36, odd image).
      {8, 12, 16, 3, 1, 0}, {4, 9, 6, 5, 1, 2}, {4, 9, 6, 3, 2, 1},
      // Gᵀ of two images fills a dgrad GEMM call: 3 images take 2 calls.
      {24, 16, 16, 3, 1, 1},
  };
  enum class Layer { kConv, kQuantUnscaled, kQuantScaled };
  ThreadPool& pool = ThreadPool::instance();
  const std::size_t restore = pool.num_threads();
  std::uint64_t seed = 100;
  for (const Case& cs : cases) {
    for (Layer kind : {Layer::kConv, Layer::kQuantUnscaled, Layer::kQuantScaled}) {
      ConvGeom g{.in_c = cs.in_c, .in_h = cs.hw, .in_w = cs.hw,
                 .k = cs.k, .stride = cs.stride, .pad = cs.pad};
      const std::size_t batch = 3;
      Rng rng(++seed);
      std::unique_ptr<Conv2d> conv;
      if (kind == Layer::kConv)
        conv = std::make_unique<Conv2d>(cs.out_c, g, /*bias=*/true, rng);
      else
        conv = std::make_unique<quant::QuantConv2d>(
            cs.out_c, g, rng, /*scaled=*/kind == Layer::kQuantScaled);
      if (kind == Layer::kConv)
        ops::fill_normal(conv->params()[1]->value, rng, 0.0f, 1.0f);
      Tensor x({batch, cs.in_c, cs.hw, cs.hw});
      ops::fill_normal(x, rng, 0.0f, 1.0f);
      Tensor grad({batch, cs.out_c, g.out_h(), g.out_w()});
      ops::fill_normal(grad, rng, 0.0f, 1.0f);
      for (std::size_t i = 0; i < grad.numel(); i += 7) grad[i] = 0.0f;

      // The oracle over the layer's effective weight, then the quantized
      // layer's epilogues: output/dX scaling and the STE clip on dW.
      const Tensor& latent = conv->weight().value;
      const bool quant = kind != Layer::kConv;
      const bool scaled = kind == Layer::kQuantScaled;
      const Tensor w_eff = quant ? quant::binarize(latent, false) : latent;
      const float scale = scaled ? quant::binarize_scale(latent) : 1.0f;
      const Tensor* bias = quant ? nullptr : &conv->params()[1]->value;
      conv_ref::Step want = conv_ref::train_step(x, w_eff, bias, grad, g);
      if (scaled) {
        for (std::size_t i = 0; i < want.y.numel(); ++i) want.y[i] *= scale;
        for (std::size_t i = 0; i < want.dx.numel(); ++i) want.dx[i] *= scale;
      }
      if (quant) quant::ste_clip_grad(latent, want.dw);
      Tensor want_dw(want.dw.shape());  // the layer adds into a zero grad
      ops::add_inplace(want_dw, want.dw);

      for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        pool.set_num_threads(threads);
        for (Param* p : conv->params()) p->zero_grad();
        const Tensor y = conv->forward(x);
        const Tensor dx = conv->backward(grad);
        const std::string where =
            "in_c=" + std::to_string(cs.in_c) + " hw=" +
            std::to_string(cs.hw) + " out_c=" + std::to_string(cs.out_c) +
            " k=" + std::to_string(cs.k) + " s=" + std::to_string(cs.stride) +
            " layer=" + std::to_string(static_cast<int>(kind)) +
            " threads=" + std::to_string(threads);
        EXPECT_TRUE(bitwise_equal(y, want.y)) << "y " << where;
        EXPECT_TRUE(bitwise_equal(dx, want.dx)) << "dX " << where;
        EXPECT_TRUE(bitwise_equal(conv->weight().grad, want_dw))
            << "dW " << where;
        if (bias) {
          Tensor want_db(want.db.shape());
          ops::add_inplace(want_db, want.db);
          EXPECT_TRUE(bitwise_equal(conv->params()[1]->grad, want_db))
              << "db " << where;
        }
      }
    }
  }
  pool.set_num_threads(restore);
}

TEST(BatchNorm2d, NormalizesPerChannel) {
  BatchNorm2d bn(2);
  bn.set_training(true);
  Rng rng(4);
  Tensor x({8, 2, 4, 4});
  ops::fill_normal(x, rng, 3.0f, 2.0f);
  Tensor y = bn.forward(x);
  // Each channel of the output should be ~N(0,1) over (N,H,W).
  for (std::size_t c = 0; c < 2; ++c) {
    double sum = 0.0, sum_sq = 0.0;
    std::size_t count = 0;
    for (std::size_t n = 0; n < 8; ++n)
      for (std::size_t h = 0; h < 4; ++h)
        for (std::size_t w = 0; w < 4; ++w) {
          const double v = y.at(n, c, h, w);
          sum += v;
          sum_sq += v * v;
          ++count;
        }
    const double mean = sum / count;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(sum_sq / count - mean * mean, 1.0, 1e-3);
  }
}

TEST(BatchNorm2d, EvalUsesRunningStats) {
  BatchNorm2d bn(1);
  bn.set_training(true);
  Rng rng(5);
  // Feed several batches so running stats converge toward (3, 4).
  for (int i = 0; i < 200; ++i) {
    Tensor x({16, 1, 2, 2});
    ops::fill_normal(x, rng, 3.0f, 2.0f);
    bn.forward(x);
  }
  bn.set_training(false);
  Tensor probe({1, 1, 1, 1}, std::vector<float>{3.0f});
  // Reshape to a valid spatial input.
  Tensor x({1, 1, 1, 1}, std::vector<float>{3.0f});
  Tensor y = bn.forward(x);
  EXPECT_NEAR(y[0], 0.0f, 0.1f);  // input at the running mean -> ~0
}

TEST(BatchNorm1d, ShapeValidation) {
  BatchNorm1d bn(4);
  Tensor bad({2, 5});
  EXPECT_THROW(bn.forward(bad), std::invalid_argument);
}

TEST(Activations, TanhBoundsAndValues) {
  Tanh act;
  Tensor x({3}, std::vector<float>{-10.0f, 0.0f, 10.0f});
  Tensor y = act.forward(x);
  EXPECT_NEAR(y[0], -1.0f, 1e-4f);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
  EXPECT_NEAR(y[2], 1.0f, 1e-4f);
}

TEST(Activations, ReLUZeroesNegatives) {
  ReLU act;
  Tensor x({3}, std::vector<float>{-1.0f, 0.0f, 2.0f});
  Tensor y = act.forward(x);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
  Tensor g({3}, 1.0f);
  Tensor gx = act.backward(g);
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
  EXPECT_FLOAT_EQ(gx[2], 1.0f);
}

TEST(Activations, HardTanhClampsAndMasksGrad) {
  HardTanh act;
  Tensor x({3}, std::vector<float>{-2.0f, 0.5f, 2.0f});
  Tensor y = act.forward(x);
  EXPECT_FLOAT_EQ(y[0], -1.0f);
  EXPECT_FLOAT_EQ(y[1], 0.5f);
  EXPECT_FLOAT_EQ(y[2], 1.0f);
  Tensor g({3}, 1.0f);
  Tensor gx = act.backward(g);
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
  EXPECT_FLOAT_EQ(gx[1], 1.0f);
  EXPECT_FLOAT_EQ(gx[2], 0.0f);
}

TEST(Pooling, MaxPoolSelectsMaxAndRoutesGrad) {
  MaxPool2d pool(2);
  Tensor x({1, 1, 2, 2}, std::vector<float>{1, 5, 3, 2});
  Tensor y = pool.forward(x);
  ASSERT_EQ(y.numel(), 1u);
  EXPECT_FLOAT_EQ(y[0], 5.0f);
  Tensor g({1, 1, 1, 1}, std::vector<float>{2.0f});
  Tensor gx = pool.backward(g);
  EXPECT_FLOAT_EQ(gx[1], 2.0f);  // gradient lands on the max position
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
}

TEST(Pooling, AvgPoolAverages) {
  AvgPool2d pool(2);
  Tensor x({1, 1, 2, 2}, std::vector<float>{1, 2, 3, 6});
  Tensor y = pool.forward(x);
  EXPECT_FLOAT_EQ(y[0], 3.0f);
  Tensor g({1, 1, 1, 1}, std::vector<float>{4.0f});
  Tensor gx = pool.backward(g);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(gx[i], 1.0f);
}

TEST(Pooling, RejectsIndivisibleSize) {
  MaxPool2d pool(2);
  Tensor x({1, 1, 3, 3});
  EXPECT_THROW(pool.forward(x), std::invalid_argument);
}

TEST(Flatten, RoundTrip) {
  Flatten flat;
  Tensor x({2, 3, 4, 4});
  Tensor y = flat.forward(x);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 48}));
  Tensor back = flat.backward(y);
  EXPECT_EQ(back.shape(), x.shape());
}

TEST(Sequential, ChainsAndCollectsParams) {
  Rng rng(6);
  Sequential seq;
  seq.emplace<Linear>(4, 8, true, rng);
  seq.emplace<Tanh>();
  seq.emplace<Linear>(8, 2, true, rng);
  EXPECT_EQ(seq.size(), 3u);
  EXPECT_EQ(seq.params().size(), 4u);

  Tensor x({5, 4});
  Tensor y = seq.forward(x);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{5, 2}));
}

TEST(Sequential, PrefixSuffixSplitEqualsFull) {
  Rng rng(7);
  Sequential seq;
  seq.emplace<Linear>(4, 4, true, rng);
  seq.emplace<Tanh>();
  seq.emplace<Linear>(4, 3, true, rng);
  Tensor x({2, 4});
  ops::fill_normal(x, rng, 0.0f, 1.0f);
  Tensor full = seq.forward(x);
  Tensor mid = seq.forward_prefix(x, 2);
  Tensor split = seq.forward_suffix(mid, 2);
  EXPECT_TRUE(ops::allclose(split, full, 1e-6f, 1e-7f));
}

TEST(Sequential, TrainingFlagPropagates) {
  Rng rng(8);
  Sequential seq;
  auto* bn = seq.emplace<BatchNorm1d>(4);
  seq.set_training(false);
  EXPECT_FALSE(bn->training());
  seq.set_training(true);
  EXPECT_TRUE(bn->training());
}

}  // namespace
}  // namespace gbo::nn
