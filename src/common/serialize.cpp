#include "common/serialize.hpp"

#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>

namespace gbo {
namespace {

constexpr char kMagic[8] = {'G', 'B', 'O', 'C', 'K', 'P', 'T', '1'};

template <typename T>
void write_pod(std::ofstream& f, T v) {
  f.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::ifstream& f) {
  T v{};
  f.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!f) throw std::runtime_error("checkpoint: truncated file");
  return v;
}

}  // namespace

bool save_state_dict(const std::string& path, const StateDict& state) {
  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  f.write(kMagic, sizeof(kMagic));
  write_pod<std::uint64_t>(f, state.size());
  for (const auto& [name, blob] : state) {
    write_pod<std::uint32_t>(f, static_cast<std::uint32_t>(name.size()));
    f.write(name.data(), static_cast<std::streamsize>(name.size()));
    write_pod<std::uint32_t>(f, static_cast<std::uint32_t>(blob.shape.size()));
    std::size_t numel = 1;
    for (auto d : blob.shape) {
      write_pod<std::uint64_t>(f, d);
      numel *= d;
    }
    if (numel != blob.data.size())
      throw std::runtime_error("checkpoint: shape/data mismatch for " + name);
    f.write(reinterpret_cast<const char*>(blob.data.data()),
            static_cast<std::streamsize>(blob.data.size() * sizeof(float)));
  }
  return static_cast<bool>(f);
}

StateDict load_state_dict(const std::string& path, bool* ok) {
  if (ok) *ok = false;
  StateDict state;
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f) return state;
  // Header fields are untrusted: every length is checked against the bytes
  // the file still holds before anything is allocated for it.
  const std::streamoff size = f.tellg();
  f.seekg(0);
  const auto remaining = [&f, size] {
    return static_cast<std::uint64_t>(size - f.tellg());
  };
  char magic[8];
  f.read(magic, sizeof(magic));
  if (!f || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    throw std::runtime_error("checkpoint: bad magic in " + path);
  const auto count = read_pod<std::uint64_t>(f);
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto name_len = read_pod<std::uint32_t>(f);
    if (name_len > remaining())
      throw std::runtime_error("checkpoint: name length exceeds the file");
    std::string name(name_len, '\0');
    f.read(name.data(), name_len);
    if (!f) throw std::runtime_error("checkpoint: truncated name");
    const auto ndim = read_pod<std::uint32_t>(f);
    NamedBlob blob;
    std::size_t numel = 1;
    for (std::uint32_t d = 0; d < ndim; ++d) {
      const auto dim = static_cast<std::size_t>(read_pod<std::uint64_t>(f));
      if (dim != 0 && numel > std::numeric_limits<std::size_t>::max() / dim)
        throw std::runtime_error("checkpoint: shape overflows for " + name);
      blob.shape.push_back(dim);
      numel *= dim;
    }
    if (numel > remaining() / sizeof(float))
      throw std::runtime_error("checkpoint: data for " + name +
                               " exceeds the file");
    blob.data.resize(numel);
    f.read(reinterpret_cast<char*>(blob.data.data()),
           static_cast<std::streamsize>(numel * sizeof(float)));
    if (!f) throw std::runtime_error("checkpoint: truncated data for " + name);
    state.emplace(std::move(name), std::move(blob));
  }
  if (ok) *ok = true;
  return state;
}

bool is_checkpoint(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  char magic[8];
  f.read(magic, sizeof(magic));
  return f && std::memcmp(magic, kMagic, sizeof(kMagic)) == 0;
}

}  // namespace gbo
