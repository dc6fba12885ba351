#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <mutex>

namespace taser::obs {

namespace {

std::mutex g_names_mu;
std::vector<std::string>& name_table() {
  static std::vector<std::string>* t = new std::vector<std::string>{"unnamed"};
  return *t;
}

}  // namespace

SpanName intern_span_name(std::string_view name) {
  std::lock_guard<std::mutex> lock(g_names_mu);
  auto& t = name_table();
  for (std::size_t i = 0; i < t.size(); ++i)
    if (t[i] == name) return SpanName{static_cast<std::uint32_t>(i)};
  t.emplace_back(name);
  return SpanName{static_cast<std::uint32_t>(t.size() - 1)};
}

std::string span_name(std::uint32_t id) {
  std::lock_guard<std::mutex> lock(g_names_mu);
  auto& t = name_table();
  return id < t.size() ? t[id] : std::string("?");
}

#if TASER_TELEMETRY_ENABLED

namespace {

constexpr std::size_t kRingCapacity = 8192;
constexpr int kMaxStackDepth = 64;

std::atomic<bool> g_enabled{false};

std::chrono::steady_clock::time_point trace_epoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

/// One thread's span ring. Owner thread writes records and bumps `head`
/// (release); collectors read `head` (acquire) and copy — a record is
/// fully written before head covers it, so collected records are
/// consistent once the writer quiesces. Rings live forever: a thread's
/// exit leaves its records collectable.
struct Ring {
  std::vector<SpanRecord> buf;
  std::atomic<std::uint64_t> head{0};  ///< records ever written
  std::atomic<std::uint64_t> cleared{0};  ///< head value at last clear
  std::uint32_t tid = 0;
  // RAII parent stack (owner thread only).
  std::uint64_t stack[kMaxStackDepth];
  int depth = 0;
  std::uint64_t next_local_id = 0;

  Ring() { buf.resize(kRingCapacity); }

  void push(const SpanRecord& r) {
    const std::uint64_t h = head.load(std::memory_order_relaxed);
    buf[static_cast<std::size_t>(h % kRingCapacity)] = r;
    head.store(h + 1, std::memory_order_release);
  }
};

std::mutex g_rings_mu;
std::vector<Ring*>& rings() {
  static std::vector<Ring*>* r = new std::vector<Ring*>();
  return *r;
}
/// Rings whose owner thread has exited, available for reuse. Short-lived
/// traced threads (a training epoch's builder workers, a served engine's
/// workers) would otherwise allocate a fresh ~0.5 MB ring each — pooling
/// bounds ring count by the peak number of *concurrent* traced threads. A
/// recycled ring keeps its records (they carry their own tid, so they
/// stay collectable); the new owner gets a fresh tid for new records.
std::vector<Ring*>& ring_pool() {
  static std::vector<Ring*>* r = new std::vector<Ring*>();
  return *r;
}
std::atomic<std::uint32_t> g_next_tid{1};

/// Thread-local handle whose destructor returns the ring to the pool on
/// thread exit. The ring itself is never freed (records outlive the
/// thread); only ownership recycles.
struct RingHandle {
  Ring* ring = nullptr;
  ~RingHandle() {
    if (ring == nullptr) return;
    std::lock_guard<std::mutex> lock(g_rings_mu);
    ring_pool().push_back(ring);
  }
};

Ring& ring_for_this_thread() {
  thread_local RingHandle tl;
  if (tl.ring == nullptr) {
    Ring* r = nullptr;
    {
      std::lock_guard<std::mutex> lock(g_rings_mu);
      if (!ring_pool().empty()) {
        r = ring_pool().back();
        ring_pool().pop_back();
        // Reset owner-thread state; head/cleared (and the records they
        // cover) are preserved. The fresh tid keeps span ids unique even
        // though next_local_id restarts.
        r->depth = 0;
        r->next_local_id = 0;
      }
    }
    if (r == nullptr) {
      r = new Ring();
      std::lock_guard<std::mutex> lock(g_rings_mu);
      rings().push_back(r);
    }
    r->tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
    tl.ring = r;
  }
  return *tl.ring;
}

inline std::uint64_t make_span_id(Ring& r) {
  // Globally unique without a shared counter: tid in the top bits.
  return (static_cast<std::uint64_t>(r.tid) << 40) | ++r.next_local_id;
}

}  // namespace

void set_trace_enabled(bool on) {
  if (on) (void)trace_epoch();  // pin the epoch before the first span
  g_enabled.store(on, std::memory_order_relaxed);
}

bool trace_enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::int64_t trace_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - trace_epoch())
      .count();
}

std::uint64_t next_span_id() { return make_span_id(ring_for_this_thread()); }

std::uint64_t current_span_id() {
  if (!trace_enabled()) return 0;
  Ring& r = ring_for_this_thread();
  return r.depth > 0 ? r.stack[r.depth - 1] : 0;
}

void emit_span(SpanName name, std::int64_t t0_ns, std::int64_t t1_ns,
               std::uint64_t parent, std::uint64_t tag, bool async,
               std::uint64_t span_id) {
  if (!trace_enabled()) return;
  Ring& r = ring_for_this_thread();
  SpanRecord rec;
  rec.span_id = span_id != 0 ? span_id : make_span_id(r);
  rec.parent = parent;
  rec.name_id = name.id;
  rec.tid = r.tid;
  rec.t0_ns = t0_ns;
  rec.t1_ns = t1_ns;
  rec.tag = tag;
  rec.async = async;
  r.push(rec);
}

TraceSpan::TraceSpan(SpanName name, std::uint64_t tag,
                     std::uint64_t parent_override) {
  if (!trace_enabled()) return;
  Ring& r = ring_for_this_thread();
  span_id_ = make_span_id(r);
  parent_ = parent_override != 0
                ? parent_override
                : (r.depth > 0 ? r.stack[r.depth - 1] : 0);
  tag_ = tag;
  name_id_ = name.id;
  if (r.depth < kMaxStackDepth) r.stack[r.depth] = span_id_;
  ++r.depth;  // counted past capacity so the pop stays balanced
  t0_ns_ = trace_now_ns();
}

TraceSpan::~TraceSpan() {
  if (span_id_ == 0) return;  // tracing was off at construction
  Ring& r = ring_for_this_thread();
  if (r.depth > 0) --r.depth;
  SpanRecord rec;
  rec.span_id = span_id_;
  rec.parent = parent_;
  rec.name_id = name_id_;
  rec.tid = r.tid;
  rec.t0_ns = t0_ns_;
  rec.t1_ns = trace_now_ns();
  rec.tag = tag_;
  r.push(rec);
}

std::vector<SpanRecord> collect_spans() {
  std::vector<Ring*> snapshot;
  {
    std::lock_guard<std::mutex> lock(g_rings_mu);
    snapshot = rings();
  }
  std::vector<SpanRecord> out;
  for (Ring* r : snapshot) {
    const std::uint64_t head = r->head.load(std::memory_order_acquire);
    const std::uint64_t cleared = r->cleared.load(std::memory_order_relaxed);
    const std::uint64_t lo =
        std::max(cleared, head > kRingCapacity ? head - kRingCapacity : 0);
    for (std::uint64_t i = lo; i < head; ++i)
      out.push_back(r->buf[static_cast<std::size_t>(i % kRingCapacity)]);
  }
  std::sort(out.begin(), out.end(), [](const SpanRecord& a, const SpanRecord& b) {
    return a.t0_ns != b.t0_ns ? a.t0_ns < b.t0_ns : a.span_id < b.span_id;
  });
  return out;
}

std::uint64_t dropped_spans() {
  std::lock_guard<std::mutex> lock(g_rings_mu);
  std::uint64_t dropped = 0;
  for (Ring* r : rings()) {
    const std::uint64_t head = r->head.load(std::memory_order_acquire);
    const std::uint64_t cleared = r->cleared.load(std::memory_order_relaxed);
    const std::uint64_t written = head - cleared;
    if (written > kRingCapacity) dropped += written - kRingCapacity;
  }
  return dropped;
}

void clear_spans() {
  std::lock_guard<std::mutex> lock(g_rings_mu);
  for (Ring* r : rings())
    r->cleared.store(r->head.load(std::memory_order_acquire),
                     std::memory_order_relaxed);
}

std::size_t ring_capacity() { return kRingCapacity; }

#endif  // TASER_TELEMETRY_ENABLED

}  // namespace taser::obs
