// Tile geometry and the output-axis shard ranges of the sharded MVM path.
//
// A crossbar chip is organized as a grid of fixed-size tiles (e.g. 128×128
// differential cell pairs). A binary weight matrix W ∈ {±s}^{out×in} splits
// along both axes: the input axis (fan-in, crossbar *word lines*) into
// row-tiles whose partial currents are summed digitally, and the output
// axis (crossbar *bit lines*) into column-tiles, which column_shards turns
// into the shard ranges of one programmed array.
//
// Note the axis convention: this repo stores layer weights as [out, in] and
// streams activations along `in`; on hardware the activation axis is the
// word-line (row) axis, so `in` maps to tile *rows* here even though
// CrossbarArray's column-tiling splits the same axis under the name
// `tile_cols`. TileShape names the axes physically to keep this readable.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace gbo::xbar {

/// Physical tile geometry: word lines (inputs) × bit lines (outputs).
struct TileShape {
  std::size_t rows = 128;  // word lines: fan-in axis
  std::size_t cols = 128;  // bit lines: output axis
};

/// Output-axis (bit-line) shard ranges of a mapped layer: one contiguous
/// [begin, end) range per column-tile of `tile`, ascending, covering
/// [0, fan_out). The sharded MVM path (crossbar/mvm_engine.hpp) executes one
/// range per shard in exactly this order — the deterministic reduce is the
/// fixed ascending concatenation of disjoint output slices, so the sharded
/// result is bitwise identical to the unsharded sweep. tile.cols == 0 (or
/// >= fan_out) yields the single full-width shard. Throws
/// std::invalid_argument on fan_out == 0.
std::vector<std::pair<std::size_t, std::size_t>> column_shards(
    std::size_t fan_out, TileShape tile);

}  // namespace gbo::xbar
