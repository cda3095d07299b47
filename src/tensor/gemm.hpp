// Cache-blocked, register-tiled, multithreaded GEMM over packed-panel
// operands.
//
// The Goto/van de Geijn decomposition specialized to this project's needs:
// row-major float32, three transpose variants (the only ones the NN and
// crossbar layers use), and bitwise-reproducible threading.
//
//   * One driver (DESIGN.md §5): gemm_prepacked_b multiplies a B operand
//     packed into contiguous NR-column strips by A panels that a pluggable
//     packer writes into per-thread MR-row strips. Rows of C are split into
//     MC-row slabs (the threading unit); within a slab, K is blocked by KC
//     and columns by NC so the active B panel stays L2-resident; the
//     innermost tile is an MR×NR register block accumulated over the K
//     block. Ragged edges are zero-padded inside the panels and masked at
//     the C store.
//   * Three A packers: pack_a_panel (A as stored — gemm_nn, gemm_nt's
//     large-m route), pack_a_panel_t (A stored transposed — gemm_tn_acc
//     and the conv input gradient) and the conv layer's patch gather. B
//     packs straight from row-major (pack_b) or transposed (pack_b_t)
//     storage, so no caller ever materializes a transposed copy.
//   * gemm_nt alone keeps two direct routes ahead of the driver — a scalar
//     dot loop for tiny products and the vectorized nt_direct for m < 64 —
//     because they reassociate the k-sum and are part of the analytic MVM's
//     pinned output bits.
//   * Per-element arithmetic order depends only on the fixed block sizes,
//     never on the thread count — each C element is produced by exactly one
//     thread as one k-ascending chain of c += a·b starting from C — so
//     results are identical at 1..N threads, and gemm_nn / gemm_tn_acc
//     reproduce the naive loops below bit for bit on the tested shapes
//     (tests/test_gemm.cpp).
//   * Thread count: GBO_NUM_THREADS / ThreadPool (common/thread_pool.hpp).
//
// The seed's naive loops are retained below as `naive_*` — they are the
// correctness oracle for tests/test_gemm.cpp and the baseline the
// bench_micro_mvm speedup numbers are measured against.
//
// All pointers are row-major with explicit leading dimensions; matrices may
// not alias. Callers (ops::matmul*) own shape validation.
#pragma once

#include "common/function_ref.hpp"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace gbo {
class ScratchArena;
}

namespace gbo::gemm {

/// Register-tile dimensions and the K-block depth, exposed because they
/// define the packed panel layouts below (block sizes MC/NC stay internal).
inline constexpr std::size_t kMR = 6;    // rows per packed A strip
inline constexpr std::size_t kNR = 16;   // columns per packed B strip
inline constexpr std::size_t kKC = 256;  // K rows per packed block

/// C = A·B (+ C when accumulate): A[m,k] lda, B[k,n] ldb, C[m,n] ldc.
/// Packs B once and runs the packed-panel driver for every shape.
void gemm_nn(std::size_t m, std::size_t n, std::size_t k, const float* A,
             std::size_t lda, const float* B, std::size_t ldb, float* C,
             std::size_t ldc, bool accumulate);

/// C = A·Bᵀ: A[m,k] lda, B[n,k] ldb, C[m,n] ldc. Tiny products dot
/// directly, m < 64 runs the vectorized per-row dot kernel, and larger m
/// packs B straight from its transposed storage into the packed driver.
void gemm_nt(std::size_t m, std::size_t n, std::size_t k, const float* A,
             std::size_t lda, const float* B, std::size_t ldb, float* C,
             std::size_t ldc);

/// C += Aᵀ·B: A[k,m] lda, B[k,n] ldb, C[m,n] ldc. The packed driver with
/// Aᵀ panels read straight from A (pack_a_panel_t).
void gemm_tn_acc(std::size_t m, std::size_t n, std::size_t k, const float* A,
                 std::size_t lda, const float* B, std::size_t ldb, float* C,
                 std::size_t ldc);

/// Row-stable C = A·Bᵀ: the per-row multi-accumulator dot kernel for every
/// m, with no size dispatch at all — row i's float operations (and
/// therefore its bit pattern) are identical whether it is computed alone or
/// inside any batch. This is the NN layers' non-panel route (DESIGN.md §6):
/// unlike gemm_nt, whose small/direct/packed cutoffs depend on m, this
/// kernel lets the serving runtime fuse micro-batches without moving any
/// row across a dispatch boundary. No packing, no scratch.
void gemm_nt_rowwise(std::size_t m, std::size_t n, std::size_t k,
                     const float* A, std::size_t lda, const float* B,
                     std::size_t ldb, float* C, std::size_t ldc);

/// m-independent panel dispatch for the NN layers' frozen-weight A·Bᵀ
/// products (DESIGN.md §6): true when the weight [n, k] is big enough that
/// streaming cached packed panels beats the per-row dot kernel. A function
/// of the weight shape alone — never of the batch — so a layer's kernel
/// cannot change across batching boundaries.
bool panels_for_weight(std::size_t n, std::size_t k);

/// Process-wide count of B-panel pack operations (pack_b / pack_b_t, which
/// every packing entry point funnels through). Relaxed atomic; the serving
/// bench diffs it across a steady-state run to prove that cached panels
/// have amortized weight packing to zero (A-panel packs are per-request by
/// design and deliberately not counted).
std::uint64_t b_pack_count();

// ---- packed-panel building blocks ----------------------------------------
//
// Shared by gemm_nn/gemm_nt/gemm_tn_acc and the convolution layer
// (nn/conv2d.cpp), which gathers its patches inside the A-panel packer and
// packs its gradient B operands straight from NCHW, and therefore needs the
// layouts public.

/// Size in floats of a packed-B buffer for B[k, n]: k rows × n rounded up
/// to a whole number of kNR-column strips (the padding columns are zero).
std::size_t packed_b_floats(std::size_t n, std::size_t k);

/// Packs row-major B[k, n] (ldb) into KC-row blocks of kNR-column strips:
/// element (p, j) of block pc lives at
///   dst[pc·n_round + (j/kNR)·kNR·kc + (p − pc)·kNR + j%kNR].
/// Columns past n are zeroed. Threaded; pure data movement.
void pack_b(std::size_t k, std::size_t n, const float* B, std::size_t ldb,
            float* dst);

/// Same packed layout, reading B stored transposed as B[n, k] (ldb) — the
/// weight matrices of the NT product — without materializing Bᵀ first.
void pack_b_t(std::size_t n, std::size_t k, const float* B, std::size_t ldb,
              float* dst);

/// Fills `dst` with the A panel for C rows [i0, i1) and the K block
/// [pc, pc + kc): kMR-row strips, element (r, p) of strip s at
/// dst[s·kMR·kc + p·kMR + (r − i0 − s·kMR)], rows past i1 zeroed.
/// `i1 − i0` never exceeds the internal MC slab height.
void pack_a_panel(const float* A, std::size_t lda, std::size_t i0,
                  std::size_t i1, std::size_t pc, std::size_t kc, float* dst);

/// Same panel layout, reading A stored transposed as A[k, m] (lda):
/// element (r, p) of strip s is A[pc + p, i0 + s·kMR + r].
void pack_a_panel_t(const float* A, std::size_t lda, std::size_t i0,
                    std::size_t i1, std::size_t pc, std::size_t kc,
                    float* dst);

/// Caller-supplied A-panel producer: must fill `dst` exactly as
/// pack_a_panel would, but may synthesize the values from any source (the
/// conv layer gathers receptive-field patches here, skipping im2col). A
/// non-owning reference: binding a capturing lambda never heap-allocates.
using PanelPacker = FunctionRef<void(std::size_t, std::size_t, std::size_t,
                                     std::size_t, float*)>;

/// The packed-panel multiply core: C = (packed A)·(packed B) (+ C when
/// accumulate), with `packedB` laid out by pack_b/pack_b_t and A panels
/// produced on demand by `pack_a` into per-thread scratch. Bitwise
/// reproducible at any thread count.
void gemm_prepacked_b(std::size_t m, std::size_t n, std::size_t k,
                      const PanelPacker& pack_a, const float* packedB,
                      float* C, std::size_t ldc, bool accumulate);

/// Owning handle for a reusable packed-B panel set (DESIGN.md §6). The
/// panel bytes are exactly what pack_b / pack_b_t produce, so running the
/// packed kernel over a PackedB is bitwise equal to a fresh-pack call on
/// the same matrix. Degenerate shapes (n == 0 or k == 0) yield an empty
/// handle that the kernel entry points treat as "no contribution".
struct PackedB {
  std::vector<float> panels;
  std::size_t n = 0, k = 0;
  bool empty() const { return panels.empty(); }
};

/// Packs row-major B[k, n] (ldb) into a reusable panel handle.
PackedB prepack_b(std::size_t k, std::size_t n, const float* B,
                  std::size_t ldb);

/// Same from transposed storage B[n, k] (ldb) — the weight matrices of the
/// A·Bᵀ products — without materializing Bᵀ.
PackedB prepack_b_t(std::size_t n, std::size_t k, const float* B,
                    std::size_t ldb);

/// The NN layers' shared fresh-pack fallback for uncached effective
/// weights: packs B[n, k] (transposed storage, ldb) into arena bump
/// scratch when `arena` is non-null (the caller's ArenaFrame owns the
/// lifetime), else into `own`, and returns the panel pointer.
const float* pack_fresh_b_t(std::size_t n, std::size_t k, const float* B,
                            std::size_t ldb, ScratchArena* arena,
                            std::vector<float>* own);

/// C = A·(packed B) (+ C when accumulate): the packed driver with A read
/// as stored (pack_a_panel) over an external panel buffer laid out by
/// pack_b/pack_b_t (or held in a PackedB). A[m, k] lda, C[m, n] ldc.
/// gemm_nn and gemm_nt's packing route are this call over a fresh pack.
void gemm_prepacked(std::size_t m, std::size_t n, std::size_t k,
                    const float* A, std::size_t lda, const float* packedB,
                    float* C, std::size_t ldc, bool accumulate = false);

/// The version-stamped double-checked fill shared by every frozen-weight
/// cache (DESIGN.md §6): ensure() runs `fill` under the mutex iff
/// `version` differs from the stamp of the last fill, publishing the
/// filled buffers with a release store that pairs with the lock-free
/// acquire fast path. Returns true when it filled. The cached source must
/// not be mutated concurrently with readers — the const-infer contract.
/// Copies reset the gate (stamps are per-object timelines and must never
/// be adopted across objects).
class VersionGate {
 public:
  VersionGate() = default;
  VersionGate(const VersionGate&) {}
  VersionGate& operator=(const VersionGate&) { return *this; }

  template <typename Fn>
  bool ensure(std::uint64_t version, Fn&& fill) const {
    if (stamp_.load(std::memory_order_acquire) == version) return false;
    std::lock_guard<std::mutex> lock(mu_);
    if (stamp_.load(std::memory_order_relaxed) == version) return false;
    fill();
    stamp_.store(version, std::memory_order_release);
    return true;
  }

 private:
  mutable std::mutex mu_;
  mutable std::atomic<std::uint64_t> stamp_{0};  // 0 = empty (versions >= 1)
};

/// Cross-request cache of one frozen weight matrix's packed panels,
/// stamped with the weight tensor's mutation counter (Tensor::version(),
/// DESIGN.md §6). get() repacks only when the stamp differs — steady-state
/// serving therefore performs zero weight packs. Concurrency and copy
/// semantics come from VersionGate.
class PackedWeightCache {
 public:
  PackedWeightCache() = default;
  PackedWeightCache(const PackedWeightCache&) {}
  PackedWeightCache& operator=(const PackedWeightCache&) { return *this; }

  /// Packed panels for the weight `B` — transposed storage [n, k] when
  /// `transposed` (pack_b_t), row-major [k, n] otherwise (pack_b) —
  /// repacked only when `version` differs from the stamp of the last pack.
  /// `version` must come from one tensor object's version() timeline.
  const float* get(const float* B, std::size_t ldb, std::size_t n,
                   std::size_t k, bool transposed,
                   std::uint64_t version) const;

  /// Lifetime repack count (1 after warmup for a frozen weight).
  std::uint64_t packs() const {
    return packs_.load(std::memory_order_relaxed);
  }

 private:
  VersionGate gate_;
  mutable std::vector<float> panels_;
  mutable std::atomic<std::uint64_t> packs_{0};
};

// ---- retained naive reference kernels (seed implementations) -------------

/// Seed ikj loop: C += A·B (callers zero C for the plain product).
void naive_gemm_nn_acc(std::size_t m, std::size_t n, std::size_t k,
                       const float* A, const float* B, float* C);

/// Seed dot-product loop: C = A·Bᵀ.
void naive_gemm_nt(std::size_t m, std::size_t n, std::size_t k, const float* A,
                   const float* B, float* C);

/// Seed outer-product loop: C += Aᵀ·B.
void naive_gemm_tn_acc(std::size_t m, std::size_t n, std::size_t k,
                       const float* A, const float* B, float* C);

}  // namespace gbo::gemm
