#include "common/serialize.hpp"

#include "common/artifact_cache.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

namespace gbo {
namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(Serialize, RoundTrip) {
  StateDict state;
  state["a.weight"] = NamedBlob{{2, 3}, {1, 2, 3, 4, 5, 6}};
  state["b.bias"] = NamedBlob{{2}, {-1.5f, 2.5f}};
  const std::string path = temp_path("roundtrip.ckpt");
  ASSERT_TRUE(save_state_dict(path, state));
  EXPECT_TRUE(is_checkpoint(path));

  bool ok = false;
  const StateDict loaded = load_state_dict(path, &ok);
  ASSERT_TRUE(ok);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.at("a.weight").shape, (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ(loaded.at("a.weight").data,
            (std::vector<float>{1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(loaded.at("b.bias").data, (std::vector<float>{-1.5f, 2.5f}));
}

TEST(Serialize, EmptyStateDict) {
  const std::string path = temp_path("empty.ckpt");
  ASSERT_TRUE(save_state_dict(path, {}));
  bool ok = false;
  const StateDict loaded = load_state_dict(path, &ok);
  EXPECT_TRUE(ok);
  EXPECT_TRUE(loaded.empty());
}

TEST(Serialize, MissingFileReportsNotOk) {
  bool ok = true;
  const StateDict loaded = load_state_dict("/nonexistent/x.ckpt", &ok);
  EXPECT_FALSE(ok);
  EXPECT_TRUE(loaded.empty());
}

TEST(Serialize, BadMagicThrows) {
  const std::string path = temp_path("badmagic.ckpt");
  std::ofstream f(path, std::ios::binary);
  f << "NOTACKPTFILE";
  f.close();
  EXPECT_THROW(load_state_dict(path), std::runtime_error);
  EXPECT_FALSE(is_checkpoint(path));
}

TEST(Serialize, TruncatedFileThrows) {
  StateDict state;
  state["w"] = NamedBlob{{100}, std::vector<float>(100, 1.0f)};
  const std::string path = temp_path("trunc.ckpt");
  ASSERT_TRUE(save_state_dict(path, state));
  // Truncate to half.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  EXPECT_THROW(load_state_dict(path), std::runtime_error);
}

TEST(Serialize, ShapeDataMismatchThrowsOnSave) {
  StateDict state;
  state["w"] = NamedBlob{{3}, {1.0f}};  // 3 vs 1 elements
  EXPECT_THROW(save_state_dict(temp_path("bad.ckpt"), state),
               std::runtime_error);
}

// Crafted checkpoints: a valid magic and entry count followed by one
// entry header whose fields lie about the payload. Each must be rejected
// with std::runtime_error before anything the header sizes is allocated.
class CraftedCheckpoint {
 public:
  explicit CraftedCheckpoint(const char* name) : path_(temp_path(name)) {
    f_.open(path_, std::ios::binary);
    f_.write("GBOCKPT1", 8);
    put<std::uint64_t>(1);  // one entry
  }
  template <typename T>
  CraftedCheckpoint& put(T v) {
    f_.write(reinterpret_cast<const char*>(&v), sizeof(T));
    return *this;
  }
  CraftedCheckpoint& bytes(const char* s, std::size_t n) {
    f_.write(s, static_cast<std::streamsize>(n));
    return *this;
  }
  std::string close() {
    f_.close();
    return path_;
  }

 private:
  std::string path_;
  std::ofstream f_;
};

// The message tells the header check apart from a later truncated read,
// which a loader that allocated first would also reach.
void expect_rejected(const std::string& path, const char* why) {
  try {
    (void)load_state_dict(path);
    ADD_FAILURE() << "crafted checkpoint loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(why), std::string::npos) << e.what();
  }
}

TEST(Serialize, HugeNameLengthThrows) {
  const std::string path = CraftedCheckpoint("huge_name.ckpt")
                               .put<std::uint32_t>(0xFFFFFFFFu)
                               .bytes("w", 1)
                               .close();
  expect_rejected(path, "name length exceeds the file");
}

TEST(Serialize, OverflowingShapeThrows) {
  // 2^33 * 2^33 wraps a 64-bit element count to 0, which would otherwise
  // load as an empty tensor with a 2^66-element shape.
  const std::string path = CraftedCheckpoint("overflow.ckpt")
                               .put<std::uint32_t>(1)
                               .bytes("w", 1)
                               .put<std::uint32_t>(2)
                               .put<std::uint64_t>(std::uint64_t{1} << 33)
                               .put<std::uint64_t>(std::uint64_t{1} << 33)
                               .close();
  expect_rejected(path, "shape overflows");
}

TEST(Serialize, ElementCountBeyondFileThrows) {
  // 2^40 floats (4 TiB) declared, four actually present.
  const std::string path = CraftedCheckpoint("beyond.ckpt")
                               .put<std::uint32_t>(1)
                               .bytes("w", 1)
                               .put<std::uint32_t>(1)
                               .put<std::uint64_t>(std::uint64_t{1} << 40)
                               .bytes("0123456789abcdef", 16)
                               .close();
  expect_rejected(path, "exceeds the file");
}

TEST(ArtifactCache, FingerprintIsStable) {
  EXPECT_EQ(fingerprint_hash("abc"), fingerprint_hash("abc"));
  EXPECT_NE(fingerprint_hash("abc"), fingerprint_hash("abd"));
  EXPECT_EQ(fingerprint_hash("x").size(), 16u);
}

TEST(ArtifactCache, PathRespectsEnv) {
  ::setenv("GBO_ARTIFACT_DIR", (::testing::TempDir() + "/artdir").c_str(), 1);
  const std::string path = artifact_path("model", "fp");
  EXPECT_NE(path.find("artdir"), std::string::npos);
  EXPECT_NE(path.find("model-"), std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(::testing::TempDir() + "/artdir"));
  ::unsetenv("GBO_ARTIFACT_DIR");
}

}  // namespace
}  // namespace gbo
