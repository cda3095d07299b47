#include "crossbar/mapper.hpp"

#include <algorithm>
#include <stdexcept>

namespace gbo::xbar {

std::vector<std::pair<std::size_t, std::size_t>> column_shards(
    std::size_t fan_out, TileShape tile) {
  if (fan_out == 0)
    throw std::invalid_argument("column_shards: fan_out must be nonzero");
  const std::size_t width =
      tile.cols == 0 ? fan_out : std::min(tile.cols, fan_out);
  std::vector<std::pair<std::size_t, std::size_t>> shards;
  shards.reserve((fan_out + width - 1) / width);
  for (std::size_t o0 = 0; o0 < fan_out; o0 += width)
    shards.emplace_back(o0, std::min(o0 + width, fan_out));
  return shards;
}

}  // namespace gbo::xbar
