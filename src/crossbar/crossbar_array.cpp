#include "crossbar/crossbar_array.hpp"

#include "common/thread_pool.hpp"
#include "obs/trace.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace gbo::xbar {

namespace {

// Output lines whose level-bucket sums run side by side (one lane each).
constexpr std::size_t kLanes = 16;

/// Level-bucket sums of one tile for `Lanes` side-by-side cell columns:
/// column j's lanes are cells[j * ld + l], `order` lists the tile's columns
/// by descending level and level L ends at order[level_end[L]]. Afterwards
/// sums[L * Lanes + l] = Σ_{level_j ≥ L} cells[j * ld + l]. Only exact
/// under the certificate, where the summation order cannot matter.
template <std::size_t Lanes, typename T>
void bucket_sums(const T* cells, std::size_t ld, const std::uint32_t* order,
                 const std::size_t* level_end, std::size_t levels,
                 double* sums) {
  double acc[Lanes] = {};
  std::size_t i = 0;
  for (std::size_t level = levels; level-- > 0;) {
    for (; i < level_end[level]; ++i) {
      const T* w = cells + order[i] * ld;
      for (std::size_t l = 0; l < Lanes; ++l)
        acc[l] += static_cast<double>(w[l]);
    }
    std::copy(acc, acc + Lanes, sums + level * Lanes);
  }
}

}  // namespace

CrossbarArray::CrossbarArray(const Tensor& binary_weight, DeviceConfig cfg,
                             std::size_t tile_cols, Rng rng)
    : cfg_(cfg) {
  if (binary_weight.ndim() != 2)
    throw std::invalid_argument("CrossbarArray: weight must be 2D");
  out_ = binary_weight.dim(0);
  in_ = binary_weight.dim(1);
  tile_cols_ = tile_cols == 0 ? in_ : tile_cols;
  num_tiles_ = (in_ + tile_cols_ - 1) / tile_cols_;

  // Recover and validate the binary scale: all entries must be ±s.
  scale_ = std::fabs(binary_weight[0]);
  if (scale_ == 0.0f)
    throw std::invalid_argument("CrossbarArray: weight entries must be nonzero");
  for (std::size_t i = 0; i < binary_weight.numel(); ++i) {
    const float a = std::fabs(binary_weight[i]);
    if (std::fabs(a - scale_) > 1e-6f * scale_)
      throw std::invalid_argument("CrossbarArray: weight is not binary (±s)");
  }

  eff_weight_ = Tensor({out_, in_});

  if (cfg_.mapping == WeightMapping::kOffset) {
    if (cfg_.g_on <= cfg_.g_off)
      throw std::invalid_argument(
          "CrossbarArray: offset mapping requires g_on > g_off");
    // One cell per weight plus one shared mid-conductance reference cell
    // per input line (the tile's reference column). Draw order: main array
    // row-major, then the reference cells — pinned so seeds reproduce.
    raw_g_ = Tensor({out_, in_});
    ref_g_ = Tensor({in_});
    for (std::size_t o = 0; o < out_; ++o) {
      for (std::size_t j = 0; j < in_; ++j) {
        const bool positive = binary_weight.at(o, j) >= 0.0f;
        raw_g_.at(o, j) = static_cast<float>(
            program_cell(cfg_, positive ? cfg_.g_on : cfg_.g_off, rng));
      }
    }
    const double g_mid = 0.5 * (cfg_.g_on + cfg_.g_off);
    for (std::size_t j = 0; j < in_; ++j)
      ref_g_[j] = static_cast<float>(program_cell(cfg_, g_mid, rng));

    // Sign-domain equivalent weight: (G − G_ref) · 2/(g_on − g_off).
    const double k = 2.0 / (cfg_.g_on - cfg_.g_off);
    for (std::size_t o = 0; o < out_; ++o)
      for (std::size_t j = 0; j < in_; ++j)
        eff_weight_.at(o, j) = static_cast<float>(
            (static_cast<double>(raw_g_.at(o, j)) - ref_g_[j]) * k);
    certify_exact_tile_sums();
    return;
  }

  // Differential mapping: program both polarity cells of each weight
  // (device-to-device variation, faults, drift are frozen here, as on real
  // hardware); the equivalent weight is G+ − G−.
  for (std::size_t o = 0; o < out_; ++o) {
    for (std::size_t j = 0; j < in_; ++j) {
      const bool positive = binary_weight.at(o, j) >= 0.0f;
      const auto g_plus = static_cast<float>(
          program_cell(cfg_, positive ? cfg_.g_on : cfg_.g_off, rng));
      const auto g_minus = static_cast<float>(
          program_cell(cfg_, positive ? cfg_.g_off : cfg_.g_on, rng));
      eff_weight_.at(o, j) =
          static_cast<float>(static_cast<double>(g_plus) - g_minus);
    }
  }
  certify_exact_tile_sums();
}

void CrossbarArray::certify_exact_tile_sums() {
  // Each nonzero cell value v is a multiple of 2^q(v), q(v) being the
  // weight of its lowest set bit; q is the least of them over every value
  // a tile sum reads.
  const bool offset = cfg_.mapping == WeightMapping::kOffset;
  const Tensor& cells = offset ? raw_g_ : eff_weight_;
  int q = std::numeric_limits<int>::max();
  double max_abs = 0.0;
  auto visit = [&](const Tensor& t) {
    for (std::size_t i = 0; i < t.numel(); ++i) {
      const double v = std::fabs(static_cast<double>(t[i]));
      if (!std::isfinite(v)) return false;
      if (v == 0.0) continue;
      int e = 0;
      const double m = std::frexp(v, &e);  // v = m · 2^e, m in [0.5, 1)
      const auto mantissa = static_cast<std::uint64_t>(std::ldexp(m, 53));
      q = std::min(q, e - 53 + std::countr_zero(mantissa));
      max_abs = std::max(max_abs, v);
    }
    return true;
  };
  if (!visit(cells) || (offset && !visit(ref_g_))) return;
  // Every partial sum of a tile, and twice it, is then a multiple of 2^q
  // below 2 · tile_cols · max|w| in magnitude; under 2^(q+53) it is a
  // double, so every addition is exact and any order gives the same value.
  // (The product below is exact: a float times an integer under 2^29.)
  if (max_abs > 0.0 && !(2.0 * static_cast<double>(tile_cols_) * max_abs <
                         std::ldexp(1.0, q + 53)))
    return;
  cells_t_stride_ = out_ + kLanes - 1;  // a lane block may start at any o
  cells_t_.assign(in_ * cells_t_stride_, 0.0);
  for (std::size_t o = 0; o < out_; ++o)
    for (std::size_t j = 0; j < in_; ++j)
      cells_t_[j * cells_t_stride_ + o] = cells.at(o, j);
}

Tensor CrossbarArray::mvm_pulse(const Tensor& x, Rng& rng) const {
  if (x.ndim() != 2 || x.dim(1) != in_)
    throw std::invalid_argument("CrossbarArray::mvm_pulse: bad input " +
                                x.shape_str());
  const std::size_t batch = x.dim(0);
  Tensor out({batch, out_});

  if (cfg_.mapping == WeightMapping::kOffset) {
    // Offset read-out: per tile, one reference-column read shared by every
    // output line (its noise/ADC error is common-mode across the tile's
    // outputs), one read per output column, digital subtraction, then the
    // 2/(g_on − g_off) decode that doubles every periphery error relative
    // to the differential mapping's full-swing read.
    const double k = 2.0 / (cfg_.g_on - cfg_.g_off);
    const double auto_fs = static_cast<double>(tile_cols_) * cfg_.g_on;
    for (std::size_t n = 0; n < batch; ++n) {
      const float* xv = x.data() + n * in_;
      float* ov = out.data() + n * out_;
      for (std::size_t o = 0; o < out_; ++o) ov[o] = 0.0f;
      for (std::size_t t = 0; t < num_tiles_; ++t) {
        const std::size_t j0 = t * tile_cols_;
        const std::size_t j1 = std::min(j0 + tile_cols_, in_);
        double ref_current = 0.0;
        for (std::size_t j = j0; j < j1; ++j)
          ref_current += static_cast<double>(ref_g_[j]) * xv[j];
        if (cfg_.read_noise_sigma > 0.0)
          ref_current += rng.normal(0.0, cfg_.read_noise_sigma);
        ref_current = adc_quantize(cfg_, ref_current, auto_fs);
        for (std::size_t o = 0; o < out_; ++o) {
          const float* grow = raw_g_.data() + o * in_;
          double current = 0.0;
          for (std::size_t j = j0; j < j1; ++j)
            current += static_cast<double>(grow[j]) * xv[j];
          if (cfg_.read_noise_sigma > 0.0)
            current += rng.normal(0.0, cfg_.read_noise_sigma);
          current = adc_quantize(cfg_, current, auto_fs);
          ov[o] += static_cast<float>((current - ref_current) * k);
        }
      }
    }
    return out;
  }

  // ADC full scale defaults to the tile's worst-case current (all cells on).
  const double auto_fs = static_cast<double>(tile_cols_) * (cfg_.g_on - cfg_.g_off);

  for (std::size_t n = 0; n < batch; ++n) {
    const float* xv = x.data() + n * in_;
    float* ov = out.data() + n * out_;
    for (std::size_t o = 0; o < out_; ++o) {
      const float* wrow = eff_weight_.data() + o * in_;
      double total = 0.0;
      for (std::size_t t = 0; t < num_tiles_; ++t) {
        const std::size_t j0 = t * tile_cols_;
        const std::size_t j1 = std::min(j0 + tile_cols_, in_);
        double current = 0.0;
        for (std::size_t j = j0; j < j1; ++j)
          current += static_cast<double>(wrow[j]) * xv[j];
        if (cfg_.read_noise_sigma > 0.0)
          current += rng.normal(0.0, cfg_.read_noise_sigma);
        total += adc_quantize(cfg_, current, auto_fs);
      }
      ov[o] = static_cast<float>(total);
    }
  }
  return out;
}

std::size_t CrossbarArray::read_noise_draws(std::size_t batch) const {
  if (cfg_.read_noise_sigma <= 0.0) return 0;
  // Matches the consumption order in mvm_pulse: differential draws one
  // normal per (row, output, tile); offset draws one per (row, tile) for
  // the reference column plus one per (row, tile, output).
  return cfg_.mapping == WeightMapping::kOffset
             ? batch * num_tiles_ * (1 + out_)
             : batch * out_ * num_tiles_;
}

void CrossbarArray::fill_read_noise(std::size_t batch, Rng& rng,
                                    double* buf) const {
  const std::size_t draws = read_noise_draws(batch);
  for (std::size_t i = 0; i < draws; ++i)
    buf[i] = rng.normal(0.0, cfg_.read_noise_sigma);
}

void CrossbarArray::mvm_pulse_train(const PulseCodes& x,
                                    const double* read_noise,
                                    const PulseSink& sink, std::size_t o_begin,
                                    std::size_t o_end) const {
  if (o_begin >= o_end || o_end > out_)
    throw std::invalid_argument(
        "CrossbarArray::mvm_pulse_train: bad output range");
  const std::size_t num_pulses = x.spec.num_pulses;
  const std::size_t batch = x.batch;
  if (num_pulses == 0 || batch == 0) return;
  if (x.codes == nullptr)
    throw std::invalid_argument("CrossbarArray::mvm_pulse_train: no codes");
  if (x.spec.scheme == enc::Scheme::kBitSlicing && num_pulses > 32)
    throw std::invalid_argument(
        "CrossbarArray::mvm_pulse_train: a 32-bit code holds at most 32 "
        "bit-sliced pulses");
  const bool noisy = cfg_.read_noise_sigma > 0.0;
  if (noisy && read_noise == nullptr)
    throw std::invalid_argument(
        "CrossbarArray::mvm_pulse_train: read noise enabled but no draws "
        "provided");
  const std::size_t span = o_end - o_begin;
  GBO_TRACE_SPAN(obs::EventType::kPulseMvm, batch,
                 static_cast<std::uint16_t>(num_pulses),
                 batch * span * in_ * num_pulses);

  const bool offset = cfg_.mapping == WeightMapping::kOffset;
  const bool thermometer = x.spec.scheme == enc::Scheme::kThermometer;
  const bool buckets = thermometer && exact_tile_sums();
  const Tensor& cells = offset ? raw_g_ : eff_weight_;
  // Offset read-out: per tile, one reference-column read shared by every
  // output line, one read per output column, digital subtraction, then the
  // 2/(g_on − g_off) decode (see mvm_pulse).
  const double k = offset ? 2.0 / (cfg_.g_on - cfg_.g_off) : 0.0;
  const double auto_fs = static_cast<double>(tile_cols_) *
                         (offset ? cfg_.g_on : cfg_.g_on - cfg_.g_off);
  const std::size_t stride = read_noise_draws(batch);  // draws per pulse

  // A tile's current at pulse p: the sequential dot product of mvm_pulse,
  // each ±1 derived from the code...
  auto sequential_current = [&](const std::uint32_t* code, const float* w,
                                std::size_t width, std::size_t p) {
    double c = 0.0;
    for (std::size_t j = 0; j < width; ++j) {
      const bool fires =
          thermometer ? code[j] > p : ((code[j] >> p) & 1u) != 0;
      c += static_cast<double>(w[j]) * (fires ? 1.0f : -1.0f);
    }
    return c;
  };
  // ...or, from level-bucket sums s[L * ld] = Σ_{level_j ≥ L} w_j, the same
  // value exactly: Σ_{level_j > p} w_j − Σ_{level_j ≤ p} w_j.
  auto exact_current = [](const double* s, std::size_t ld, std::size_t p) {
    return 2.0 * s[(p + 1) * ld] - s[0];
  };

  // Every (row, output) element is independent: a row's tiles run in
  // order, and each tile's per-pulse currents go through read noise and the
  // ADC and accumulate across tiles exactly as in mvm_pulse (double totals
  // under differential mapping, float under offset), so neither the split
  // into row blocks nor the lane blocks over outputs can change a bit.
  const std::size_t row_work = span * (in_ + num_tiles_ * num_pulses);
  const std::size_t grain =
      std::max<std::size_t>(1, 65536 / std::max<std::size_t>(row_work, 1));
  parallel_for(0, batch, grain, [&](std::size_t lo, std::size_t hi) {
    const std::size_t levels = num_pulses + 1;
    std::vector<std::uint32_t> order(tile_cols_);
    std::vector<std::size_t> level_end(levels);
    std::vector<double> sums(levels * kLanes), ref_sums(levels);
    std::vector<double> ref_current(num_pulses);
    std::vector<double> total(offset ? 0 : span * num_pulses);
    std::vector<float> row_acc(offset ? span * num_pulses : 0);
    std::vector<float> element(num_pulses);

    for (std::size_t n = lo; n < hi; ++n) {
      std::fill(total.begin(), total.end(), 0.0);
      std::fill(row_acc.begin(), row_acc.end(), 0.0f);
      for (std::size_t t = 0; t < num_tiles_; ++t) {
        const std::size_t j0 = t * tile_cols_;
        const std::size_t width = std::min(j0 + tile_cols_, in_) - j0;
        const std::uint32_t* code = x.codes + n * in_ + j0;
        if (buckets) {
          // Counting sort of the tile's columns by level, highest first;
          // afterwards level L ends at order[level_end[L]].
          std::fill(level_end.begin(), level_end.end(), 0);
          for (std::size_t j = 0; j < width; ++j)
            ++level_end[std::min<std::size_t>(code[j], num_pulses)];
          for (std::size_t level = levels, pos = 0; level-- > 0;)
            pos += std::exchange(level_end[level], pos);
          for (std::size_t j = 0; j < width; ++j)
            order[level_end[std::min<std::size_t>(code[j], num_pulses)]++] =
                static_cast<std::uint32_t>(j);
        }
        // Offset noise slots of this (row, tile): [ref, out0, out1, ...].
        const std::size_t noise_at = (n * num_tiles_ + t) * (1 + out_);
        if (offset) {
          if (buckets)
            bucket_sums<1>(ref_g_.data() + j0, 1, order.data(),
                           level_end.data(), levels, ref_sums.data());
          for (std::size_t p = 0; p < num_pulses; ++p) {
            double rc =
                buckets ? exact_current(ref_sums.data(), 1, p)
                        : sequential_current(code, ref_g_.data() + j0, width, p);
            if (noisy) rc += read_noise[p * stride + noise_at];
            ref_current[p] = adc_quantize(cfg_, rc, auto_fs);
          }
        }
        for (std::size_t b = o_begin; b < o_end; b += kLanes) {
          if (buckets)
            bucket_sums<kLanes>(cells_t_.data() + j0 * cells_t_stride_ + b,
                                cells_t_stride_, order.data(),
                                level_end.data(), levels, sums.data());
          for (std::size_t o = b; o < std::min(b + kLanes, o_end); ++o) {
            const float* w = cells.data() + o * in_ + j0;
            const std::size_t at = (o - o_begin) * num_pulses;
            for (std::size_t p = 0; p < num_pulses; ++p) {
              double c = buckets
                             ? exact_current(sums.data() + (o - b), kLanes, p)
                             : sequential_current(code, w, width, p);
              if (offset) {
                if (noisy) c += read_noise[p * stride + noise_at + 1 + o];
                c = adc_quantize(cfg_, c, auto_fs);
                row_acc[at + p] +=
                    static_cast<float>((c - ref_current[p]) * k);
              } else {
                if (noisy)
                  c += read_noise[p * stride + (n * out_ + o) * num_tiles_ + t];
                total[at + p] += adc_quantize(cfg_, c, auto_fs);
              }
            }
          }
        }
      }
      for (std::size_t o = o_begin; o < o_end; ++o) {
        const std::size_t at = (o - o_begin) * num_pulses;
        if (offset) {
          sink(n * out_ + o, row_acc.data() + at);
        } else {
          for (std::size_t p = 0; p < num_pulses; ++p)
            element[p] = static_cast<float>(total[at + p]);
          sink(n * out_ + o, element.data());
        }
      }
    }
  });
}

}  // namespace gbo::xbar
