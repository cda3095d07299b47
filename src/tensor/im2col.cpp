#include "tensor/im2col.hpp"

#include "common/thread_pool.hpp"

#include <cstring>

namespace gbo {

void im2col_into(const Tensor& input, const ConvGeom& g, float* out) {
  if (input.ndim() != 4)
    throw std::invalid_argument("im2col: expected NCHW input, got " + input.shape_str());
  const std::size_t batch = input.dim(0);
  if (input.dim(1) != g.in_c || input.dim(2) != g.in_h || input.dim(3) != g.in_w)
    throw std::invalid_argument("im2col: input does not match geometry");

  const std::size_t oh = g.out_h(), ow = g.out_w(), plen = g.patch_len();
  const float* in = input.data();
  const std::size_t chw = g.in_c * g.in_h * g.in_w;

  // Each (image, output row) writes a disjoint slice of `cols`, so the
  // flattened loop threads freely (deterministic: pure writes).
  parallel_for(0, batch * oh, 4, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t noy = lo; noy < hi; ++noy) {
      const std::size_t n = noy / oh, oy = noy % oh;
      const float* img = in + n * chw;
      for (std::size_t ox = 0; ox < ow; ++ox) {
        float* row = out + ((n * oh + oy) * ow + ox) * plen;
        const std::ptrdiff_t iy0 =
            static_cast<std::ptrdiff_t>(oy * g.stride) - static_cast<std::ptrdiff_t>(g.pad);
        const std::ptrdiff_t ix0 =
            static_cast<std::ptrdiff_t>(ox * g.stride) - static_cast<std::ptrdiff_t>(g.pad);
        std::size_t idx = 0;
        for (std::size_t c = 0; c < g.in_c; ++c) {
          const float* chan = img + c * g.in_h * g.in_w;
          for (std::size_t ky = 0; ky < g.k; ++ky) {
            const std::ptrdiff_t iy = iy0 + static_cast<std::ptrdiff_t>(ky);
            const bool y_ok = iy >= 0 && iy < static_cast<std::ptrdiff_t>(g.in_h);
            for (std::size_t kx = 0; kx < g.k; ++kx, ++idx) {
              const std::ptrdiff_t ix = ix0 + static_cast<std::ptrdiff_t>(kx);
              row[idx] = (y_ok && ix >= 0 && ix < static_cast<std::ptrdiff_t>(g.in_w))
                             ? chan[iy * static_cast<std::ptrdiff_t>(g.in_w) + ix]
                             : 0.0f;
            }
          }
        }
      }
    }
  });
}

std::size_t padded_hwc_bytes(std::size_t batch, const ConvGeom& g) {
  return batch * (g.in_h + 2 * g.pad) * (g.in_w + 2 * g.pad) * g.in_c;
}

void im2col_codes_into(const std::uint8_t* codes, std::size_t batch,
                       const ConvGeom& g, std::uint8_t pad,
                       std::uint8_t* scratch, std::uint8_t* out) {
  if (batch == 0) return;  // scratch may then be null
  const std::size_t C = g.in_c, H = g.in_h, W = g.in_w;
  const std::size_t hp = H + 2 * g.pad, wp = W + 2 * g.pad;
  const std::size_t oh = g.out_h(), ow = g.out_w(), plen = g.patch_len();
  const std::size_t run = g.k * C;  // one kernel row of taps, all channels

  // Padded NHWC copy: afterwards every patch, border ones included, is k
  // contiguous runs of k·C bytes, one per kernel row.
  std::memset(scratch, pad, padded_hwc_bytes(batch, g));
  for (std::size_t n = 0; n < batch; ++n)
    for (std::size_t c = 0; c < C; ++c)
      for (std::size_t y = 0; y < H; ++y) {
        const std::uint8_t* src = codes + ((n * C + c) * H + y) * W;
        std::uint8_t* dst = scratch + ((n * hp + y + g.pad) * wp + g.pad) * C + c;
        for (std::size_t x = 0; x < W; ++x) dst[x * C] = src[x];
      }

  // Each (image, output row) writes a disjoint slice of `out`.
  parallel_for(0, batch * oh, 4, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t noy = lo; noy < hi; ++noy) {
      const std::size_t n = noy / oh, oy = noy % oh;
      for (std::size_t ox = 0; ox < ow; ++ox) {
        std::uint8_t* row = out + ((n * oh + oy) * ow + ox) * plen;
        const std::uint8_t* src =
            scratch + ((n * hp + oy * g.stride) * wp + ox * g.stride) * C;
        for (std::size_t ky = 0; ky < g.k; ++ky)
          std::memcpy(row + ky * run, src + ky * wp * C, run);
      }
    }
  });
}

void rows_to_nchw_into(const float* rows, std::size_t batch, std::size_t out_c,
                       std::size_t oh, std::size_t ow, float* dst) {
  for (std::size_t n = 0; n < batch; ++n)
    for (std::size_t y = 0; y < oh; ++y)
      for (std::size_t x = 0; x < ow; ++x) {
        const float* row = rows + ((n * oh + y) * ow + x) * out_c;
        for (std::size_t c = 0; c < out_c; ++c)
          dst[((n * out_c + c) * oh + y) * ow + x] = row[c];
      }
}

}  // namespace gbo
