// Per-trial scratch state for the stateless inference path.
//
// Module::infer(x, ctx) is const on the module: all shared state (weights,
// BN running stats, hook configuration) is read-only, and everything a
// forward pass mutates — above all the randomness consumed by crossbar
// noise hooks and pulse-level engines — lives in the EvalContext instead.
// Any number of contexts can therefore run forward passes over the same
// network concurrently (one context per noise-draw trial on the shared
// thread pool, see core/pipeline.hpp, or one per serving worker, see
// serve/server.hpp).
//
// RNG-fork contract (DESIGN.md §3): a trial's context is seeded as
// fork(seed, trial_id) from a controller-owned root stream, so trial t
// draws an identical noise stream whether trials run sequentially or in
// parallel, at any thread count. Within one forward pass the layers consume
// ctx.streams() in network order, which is fixed, so a (seed, trial_id)
// pair fully determines every sample of the trial.
//
// Scratch arena (DESIGN.md §4): a long-lived context may attach a
// worker-owned ScratchArena; the layers then route their temporaries
// (padded conv inputs, binarized weights, activation outputs) through
// it via make()/recycle() and ArenaFrame, making steady-state inference
// allocation-free. The arena never changes arithmetic — infer results are
// bitwise identical with and without one.
#pragma once

#include "common/rng.hpp"
#include "tensor/arena.hpp"

#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

namespace gbo::nn {

struct EvalContext {
  /// Deterministic per-context stream; consumed in network order by every
  /// stochastic component of the inference path (noise hooks, pulse-level
  /// crossbar reads) unless row_rngs is set.
  Rng rng;

  /// Per-request RNG streams (DESIGN.md §6): when non-empty, the batch rows
  /// of this inference belong to row_rngs.size() independent requests. The
  /// serving runtime sets them to fork(seed, request_id) per row, which
  /// makes a fused micro-batch bitwise row-equal to per-request execution.
  std::vector<Rng> row_rngs;

  /// The streams every stochastic site draws from: row_rngs when set, else
  /// the single stream `rng`. Stream s covers the s-th of streams().size()
  /// equal runs of consecutive batch rows (stream_rows), each stream
  /// consumed in network order across sites. One stream over a whole batch
  /// is exactly the classic single-stream draw.
  std::span<Rng> streams() {
    return row_rngs.empty() ? std::span<Rng>(&rng, 1)
                            : std::span<Rng>(row_rngs);
  }

  /// Optional worker-owned scratch arena (never shared between threads);
  /// nullptr preserves the plain allocating behaviour exactly.
  ScratchArena* arena = nullptr;

  EvalContext() = default;
  explicit EvalContext(Rng r) : rng(r) {}
  EvalContext(Rng r, ScratchArena* a) : rng(r), arena(a) {}

  /// An output/temporary tensor of `shape`, recycled from the arena when
  /// one is attached. Contents are unspecified — callers fully overwrite.
  Tensor make(const std::vector<std::size_t>& shape) {
    return arena ? arena->take(shape) : Tensor(shape);
  }
  Tensor make(std::initializer_list<std::size_t> shape) {
    return arena ? arena->take(shape) : Tensor(shape);
  }

  /// Returns a finished intermediate to the arena (no-op without one).
  void recycle(Tensor&& t) {
    if (arena) arena->put(std::move(t));
  }
};

/// Rows of a `rows`-row batch that each of `num_streams` streams covers:
/// stream s draws for rows [s·g, (s+1)·g). Throws std::invalid_argument
/// unless num_streams > 0 and divides rows.
inline std::size_t stream_rows(std::size_t rows, std::size_t num_streams) {
  if (num_streams == 0 || rows % num_streams != 0)
    throw std::invalid_argument(
        "EvalContext: batch rows must be a whole multiple of the streams");
  return rows / num_streams;
}

}  // namespace gbo::nn
