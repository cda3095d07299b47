// Patch lowerings of a convolution for the crossbar execution paths.
//
// The host Conv2d (nn/conv2d.*) never materializes a patch matrix: its
// packed GEMMs gather patches straight from a zero-padded copy of the
// input, forward and backward. What stays here is the explicit lowering
// the pulse-level deployment path (crossbar/hw_deploy.*) streams through
// the crossbar simulator pulse by pulse, the binary conv route's byte
// lowering, and the GEMM-rows → NCHW reshape of the float conv route and
// the deployment path — the points where "convolution" becomes "MVM" for
// the analog paths. The
// im2col → col2im training route survives only as the test-side oracle
// (tests/conv_reference.hpp).
#pragma once

#include "tensor/tensor.hpp"

#include <cstdint>

namespace gbo {

struct ConvGeom {
  std::size_t in_c = 0, in_h = 0, in_w = 0;
  std::size_t k = 3;       // square kernel
  std::size_t stride = 1;
  std::size_t pad = 1;

  std::size_t out_h() const { return (in_h + 2 * pad - k) / stride + 1; }
  std::size_t out_w() const { return (in_w + 2 * pad - k) / stride + 1; }
  std::size_t patch_len() const { return in_c * k * k; }
};

/// input [N, C, H, W] -> columns [N * out_h * out_w, C * k * k] in a
/// caller-provided buffer (arena scratch on the stateless paths): one
/// receptive-field patch per row, zero padded at the borders. Every
/// element is written, padding included.
void im2col_into(const Tensor& input, const ConvGeom& g, float* out);

/// The binary conv route's lowering over one-byte level codes of an NCHW
/// input (contiguous [batch, in_c, in_h, in_w]), in TAP-MAJOR lane order:
/// row (n, oy, ox), lane (ky·k + kx)·in_c + c holds the code under that
/// tap, or `pad` (the code of the zero padding) outside the image. The
/// order differs from im2col's channel-major one so that each patch is k
/// contiguous copies out of a padded NHWC copy of the input, built in
/// `scratch` (padded_hwc_bytes(batch, g) bytes); the binary MVM sums
/// integer products over lanes, so weights packed in the same order give
/// the same result bit for bit.
std::size_t padded_hwc_bytes(std::size_t batch, const ConvGeom& g);
void im2col_codes_into(const std::uint8_t* codes, std::size_t batch,
                       const ConvGeom& g, std::uint8_t pad,
                       std::uint8_t* scratch, std::uint8_t* out);

/// GEMM-result rows [N * oh * ow, out_c] -> NCHW [N, out_c, oh, ow] into a
/// caller buffer — the output-side counterpart of the lowering, shared by
/// the host Conv2d and the pulse-level deployment path.
void rows_to_nchw_into(const float* rows, std::size_t batch, std::size_t out_c,
                       std::size_t oh, std::size_t ow, float* dst);

}  // namespace gbo
