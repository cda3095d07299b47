// Reproducible random number generation for the whole library.
//
// Every stochastic component (weight init, data generation, crossbar noise,
// dataloader shuffling) takes an explicit Rng so experiments are replayable
// bit-for-bit from a single seed. We use xoshiro256** (public domain,
// Blackman & Vigna) rather than std::mt19937 because it is faster, has a
// tiny state that is cheap to fork, and gives identical streams across
// standard library implementations.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cmath>
#include <vector>

namespace gbo {

struct NormalKernel;

/// Deterministic, fork-able pseudo random number generator (xoshiro256**).
///
/// Satisfies std::uniform_random_bit_generator so it can be handed to
/// standard algorithms (e.g. std::shuffle).
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit words of state via splitmix64, which guarantees
  /// well-mixed state even for small consecutive seeds.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Next 64 random bits.
  result_type operator()();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive), lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box-Muller (cached second value).
  double normal();

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Writes exactly what n sequential `static_cast<float>(normal(mean,
  /// stddev))` calls write, leaving the generator (cached normal included)
  /// in the same state. The uniforms are drawn sequentially; log, sqrt and
  /// sincos run in the dispatched registry kernel (DESIGN.md §12).
  void fill_normal(float* out, std::size_t n, double mean, double stddev);

  /// fill_normal through an explicit registry kernel. Returns how many
  /// Box–Muller pairs the rounding guard recomputed with box_muller().
  std::size_t fill_normal_with(const NormalKernel& kern, float* out,
                               std::size_t n, double mean, double stddev);

  /// Bernoulli draw with probability p of returning true.
  bool bernoulli(double p);

  /// Derives an independent child generator. Forking the same parent with
  /// the same `stream` id always yields the same child, which lets modules
  /// own private streams without coupling their consumption order.
  Rng fork(std::uint64_t stream) const;

 private:
  std::array<std::uint64_t, 4> s_{};
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

/// The Box–Muller transform normal() runs on each pair of uniforms:
/// c = r·cos θ, s = r·sin θ with r = sqrt(-2 ln u1), θ = 2π·u2 (libm).
void box_muller(double u1, double u2, double& c, double& s);

/// One registry entry of the batched Box–Muller transform. transform
/// writes out[2i] = float(mean + stddev·c_i) and out[2i+1] = float(mean +
/// stddev·s_i) for every pair i < pairs — bitwise what box_muller gives —
/// and returns the number of pairs its rounding guard recomputed with
/// box_muller (always 0 for the scalar entry). raw writes the kernel's own
/// approximation of c_i and s_i, unguarded (the error-budget tests read it).
struct NormalKernel {
  const char* name;
  std::size_t (*transform)(const double* u1, const double* u2,
                           std::size_t pairs, double mean, double stddev,
                           float* out);
  void (*raw)(const double* u1, const double* u2, std::size_t pairs,
              double* c, double* s);
};

/// The entry selected once per process: best CPUID-supported ISA, or the
/// scalar entry under GBO_FORCE_SCALAR_KERNELS=1.
const NormalKernel& normal_kernel();

/// The scalar entry: box_muller per pair.
const NormalKernel& normal_kernel_scalar();

/// Every entry this CPU can run, scalar first and the best ISA last.
const std::vector<const NormalKernel*>& normal_kernels();

}  // namespace gbo
