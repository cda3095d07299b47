// The im2col → GEMM → col2im convolution route, kept as the oracle for the
// library's fused conv lowering (nn/conv2d.*), which never materializes the
// patch matrix. Header-only; shared by the unit tests and bench_micro_mvm's
// `conv_direct` gate.
//
// The reference runs each product through the library's own GEMM entry
// points — the packed forward multiply, ops::matmul_at for dW and
// ops::matmul + col2im for dX — so a bitwise comparison against it checks
// that the fused gathers feed the kernels exactly the operands (and each
// output element exactly the accumulation order) the explicit route does.
#pragma once

#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "tensor/ops.hpp"

#include <cstddef>
#include <stdexcept>

namespace gbo::conv_ref {

/// input [N, C, H, W] -> columns [N·oh·ow, C·k·k], one receptive-field
/// patch per row, zero padded at the borders.
inline Tensor im2col(const Tensor& input, const ConvGeom& g) {
  Tensor cols({input.ndim() == 4 ? input.dim(0) * g.out_h() * g.out_w() : 0,
               g.patch_len()});
  im2col_into(input, g, cols.data());
  return cols;
}

/// Adjoint scatter-add of im2col: columns [N·oh·ow, C·k·k] -> [N, C, H, W].
/// Rows are visited in ascending order and each row's patch columns in
/// ascending (c, ky, kx) order, starting from +0.
inline Tensor col2im(const Tensor& columns, std::size_t batch,
                     const ConvGeom& g) {
  const std::size_t oh = g.out_h(), ow = g.out_w(), plen = g.patch_len();
  if (columns.ndim() != 2 || columns.dim(0) != batch * oh * ow ||
      columns.dim(1) != plen)
    throw std::invalid_argument("col2im: column shape does not match geometry");
  Tensor grad({batch, g.in_c, g.in_h, g.in_w});
  const float* in = columns.data();
  for (std::size_t n = 0; n < batch; ++n)
    for (std::size_t oy = 0; oy < oh; ++oy)
      for (std::size_t ox = 0; ox < ow; ++ox) {
        const float* row = in + ((n * oh + oy) * ow + ox) * plen;
        std::size_t idx = 0;
        for (std::size_t c = 0; c < g.in_c; ++c)
          for (std::size_t ky = 0; ky < g.k; ++ky)
            for (std::size_t kx = 0; kx < g.k; ++kx, ++idx) {
              const std::ptrdiff_t iy =
                  static_cast<std::ptrdiff_t>(oy * g.stride + ky) -
                  static_cast<std::ptrdiff_t>(g.pad);
              const std::ptrdiff_t ix =
                  static_cast<std::ptrdiff_t>(ox * g.stride + kx) -
                  static_cast<std::ptrdiff_t>(g.pad);
              if (iy >= 0 && ix >= 0 &&
                  iy < static_cast<std::ptrdiff_t>(g.in_h) &&
                  ix < static_cast<std::ptrdiff_t>(g.in_w))
                grad.at(n, c, static_cast<std::size_t>(iy),
                        static_cast<std::size_t>(ix)) += row[idx];
            }
      }
  return grad;
}

/// [N, C, H, W] -> [N·H·W, C]
inline Tensor nchw_to_rows(const Tensor& x) {
  const std::size_t batch = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  Tensor rows({batch * h * w, c});
  for (std::size_t n = 0; n < batch; ++n)
    for (std::size_t ch = 0; ch < c; ++ch)
      for (std::size_t y = 0; y < h; ++y)
        for (std::size_t xx = 0; xx < w; ++xx)
          rows.at((n * h + y) * w + xx, ch) = x.at(n, ch, y, xx);
  return rows;
}

/// One training step of a conv layer with weight `w` [out_c, C·k·k] (the
/// effective weight: the ±1 signs for a quantized layer) and optional bias.
struct Step {
  Tensor y;   // forward output [N, out_c, oh, ow]
  Tensor dx;  // grad w.r.t. the input
  Tensor dw;  // grad w.r.t. w
  Tensor db;  // grad w.r.t. the bias (empty without one)
};

inline Step train_step(const Tensor& x, const Tensor& w, const Tensor* bias,
                       const Tensor& grad_out, const ConvGeom& g) {
  const std::size_t batch = x.dim(0), out_c = w.dim(0), k = g.patch_len();
  const std::size_t oh = g.out_h(), ow = g.out_w(), m = batch * oh * ow;
  Step s;
  const Tensor cols = im2col(x, g);
  const gemm::PackedB panels = gemm::prepack_b_t(out_c, k, w.data(), k);
  Tensor rows({m, out_c});
  gemm::gemm_prepacked(m, out_c, k, cols.data(), k, panels.panels.data(),
                       rows.data(), out_c);
  if (bias) {
    for (std::size_t r = 0; r < m; ++r)
      for (std::size_t c = 0; c < out_c; ++c) rows.at(r, c) += (*bias)[c];
  }
  s.y = Tensor({batch, out_c, oh, ow});
  rows_to_nchw_into(rows.data(), batch, out_c, oh, ow, s.y.data());

  const Tensor grad_rows = nchw_to_rows(grad_out);
  s.dw = ops::matmul_at(grad_rows, cols);
  if (bias) {
    s.db = Tensor({out_c});
    for (std::size_t r = 0; r < m; ++r)
      for (std::size_t c = 0; c < out_c; ++c) s.db[c] += grad_rows.at(r, c);
  }
  s.dx = col2im(ops::matmul(grad_rows, w), batch, g);
  return s;
}

}  // namespace gbo::conv_ref
