#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>

#include "common/thread_pool.hpp"

namespace gbo::obs {

const char* event_name(EventType t) {
  switch (t) {
    case EventType::kAdmit: return "admit";
    case EventType::kShed: return "shed";
    case EventType::kRetry: return "retry";
    case EventType::kDeliver: return "deliver";
    case EventType::kLadder: return "ladder";
    case EventType::kBreaker: return "breaker";
    case EventType::kRoute: return "route";
    case EventType::kSwap: return "swap";
    case EventType::kCanary: return "canary";
    case EventType::kBatch: return "batch";
    case EventType::kBatchMember: return "batch_member";
    case EventType::kQueuePop: return "queue_pop";
    case EventType::kStall: return "stall";
    case EventType::kGemm: return "gemm";
    case EventType::kBinaryMvm: return "binary_mvm";
    case EventType::kPulseEncode: return "pulse_encode";
    case EventType::kArenaAlloc: return "arena_alloc";
    case EventType::kBinaryPack: return "binary_pack";
    case EventType::kPulseMvm: return "pulse_mvm";
    case EventType::kCount: break;
  }
  return "?";
}

namespace {

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

void put_u64_le(unsigned char* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<unsigned char>(v >> (8 * i));
}

}  // namespace

std::uint64_t fingerprint_tuples(std::vector<CausalTuple> tuples) {
  std::sort(tuples.begin(), tuples.end());
  std::uint64_t h = 1469598103934665603ull;
  for (const CausalTuple& t : tuples) {
    unsigned char bytes[19];
    put_u64_le(bytes, t.id);
    bytes[8] = t.type;
    bytes[9] = static_cast<unsigned char>(t.a);
    bytes[10] = static_cast<unsigned char>(t.a >> 8);
    put_u64_le(bytes + 11, t.arg);
    h = fnv1a(h, bytes, sizeof(bytes));
  }
  return h;
}

std::uint64_t causal_fingerprint(const std::vector<Event>& events) {
  std::vector<CausalTuple> tuples;
  tuples.reserve(events.size());
  for (const Event& e : events)
    if (is_causal(static_cast<EventType>(e.type)))
      tuples.push_back({e.id, e.type, e.a, e.arg});
  return fingerprint_tuples(std::move(tuples));
}

std::size_t causal_event_count(const std::vector<Event>& events) {
  std::size_t n = 0;
  for (const Event& e : events)
    if (is_causal(static_cast<EventType>(e.type))) ++n;
  return n;
}

#if GBO_TRACE

namespace {

using Clock = std::chrono::steady_clock;

std::atomic<bool> g_enabled{[] {
  const char* env = std::getenv("GBO_TRACE");
  return !(env && std::strcmp(env, "0") == 0);
}()};

std::atomic<std::uint64_t> g_ring_allocs{0};

std::size_t g_ring_capacity = [] {
  if (const char* env = std::getenv("GBO_TRACE_RING_CAP")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && v >= 1) return static_cast<std::size_t>(v);
  }
  return static_cast<std::size_t>(1) << 16;
}();

// The session clock epoch. Relaxed is fine: begin/end_session only run
// while traced threads are parked, and the pool's job hand-off provides
// the happens-before edge for emitting threads.
std::atomic<std::int64_t> g_epoch_ns{
    Clock::now().time_since_epoch().count()};

// Registry of every thread's ring. Rings are owned here (never freed until
// process exit) so end_session can read rings of parked — or even exited —
// threads. The mutex is taken at ring creation and session boundaries only,
// never on the emit path.
std::mutex g_registry_mu;
std::vector<std::unique_ptr<TraceRing>>& registry() {
  static std::vector<std::unique_ptr<TraceRing>> rings;
  return rings;
}

TraceRing* make_ring() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  registry().push_back(std::make_unique<TraceRing>(g_ring_capacity));
  g_ring_allocs.fetch_add(1, std::memory_order_relaxed);
  return registry().back().get();
}

TraceRing& local_ring() {
  thread_local TraceRing* ring = make_ring();
  return *ring;
}

}  // namespace

bool runtime_enabled() {
  return g_enabled.load(std::memory_order_relaxed);
}

void set_runtime_enabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

std::uint64_t now_us() {
  const std::int64_t ns = Clock::now().time_since_epoch().count() -
                          g_epoch_ns.load(std::memory_order_relaxed);
  return ns <= 0 ? 0 : static_cast<std::uint64_t>(ns) / 1000;
}

void begin_session() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (auto& ring : registry()) ring->rewind();
  g_epoch_ns.store(Clock::now().time_since_epoch().count(),
                   std::memory_order_relaxed);
}

TraceSnapshot end_session() {
  TraceSnapshot snap;
  std::lock_guard<std::mutex> lock(g_registry_mu);
  std::size_t total = 0;
  for (const auto& ring : registry()) total += ring->size();
  snap.events.reserve(total);
  for (const auto& ring : registry()) {
    snap.events.insert(snap.events.end(), ring->data(),
                       ring->data() + ring->size());
    snap.dropped += ring->dropped();
  }
  std::stable_sort(snap.events.begin(), snap.events.end(),
                   [](const Event& x, const Event& y) {
                     return x.t_us < y.t_us;
                   });
  return snap;
}

std::uint64_t ring_allocs() {
  return g_ring_allocs.load(std::memory_order_relaxed);
}

void set_ring_capacity(std::size_t cap) {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  g_ring_capacity = cap < 1 ? 1 : cap;
}

void prime() {
  if (runtime_enabled()) local_ring();
}

void emit(EventType type, std::uint64_t id, std::uint16_t a,
          std::uint64_t arg) {
  if (!runtime_enabled()) return;
  Event e;
  e.id = id;
  e.arg = arg;
  e.t_us = now_us();
  e.dur_us = 0;
  e.a = a;
  e.type = static_cast<std::uint8_t>(type);
  e.tid = static_cast<std::uint8_t>(ThreadPool::current_worker_id());
  local_ring().emit(e);
}

Span::~Span() {
  if (start_ == 0 || !runtime_enabled()) return;
  const std::uint64_t t0 = start_ - 1;
  const std::uint64_t t1 = now_us();
  Event e;
  e.id = id_;
  e.arg = arg_;
  e.t_us = t0;
  e.dur_us = static_cast<std::uint32_t>(t1 > t0 ? t1 - t0 : 0);
  e.a = a_;
  e.type = static_cast<std::uint8_t>(type_);
  e.tid = static_cast<std::uint8_t>(ThreadPool::current_worker_id());
  local_ring().emit(e);
}

#endif  // GBO_TRACE

}  // namespace gbo::obs
