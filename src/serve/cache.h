#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "rtl/lane_engine.h"

namespace ctrtl::serve {

/// LRU-bounded cache of ready-to-run designs: each entry is a
/// `rtl::LaneEngine`, which owns its lowered `CompiledDesign` plus the lane
/// tables, keyed by the canonical-stream content hash
/// (`transfer::canonical_stream_hash` over the post-fault
/// `(design, instances)` pair — see docs/SERVICE.md, "Cache key"). The
/// cache owns nothing but `shared_ptr`s: eviction drops the cache's
/// reference, and any job still running against the evicted engine keeps
/// it alive until the job finishes. Thread-safe; `get_or_compile` holds the
/// cache lock across a miss's build so that concurrent submissions of the
/// same design build it exactly once (single-flight) — building is fast
/// relative to simulation, so the simplicity wins over a per-key latch.
///
/// Beside the canonical keys sits a *source index*: each entry remembers
/// the request bytes it was last looked up with (an opaque string built by
/// the caller), so a byte-identical resubmit finds its engine through
/// `find_source` without parsing or hashing the design. The index holds at
/// most one source per entry, matches the bytes in full, and loses an
/// entry's source when the entry is evicted.
class DesignCache {
 public:
  using Compile = std::function<std::shared_ptr<const rtl::LaneEngine>()>;
  /// Invoked under the cache lock with each evicted key.
  using EvictHook = std::function<void(std::uint64_t key)>;

  /// `capacity` == 0 disables caching (every lookup is a miss and nothing
  /// is retained, sources included).
  explicit DesignCache(std::size_t capacity, EvictHook on_evict = nullptr)
      : capacity_(capacity), on_evict_(std::move(on_evict)) {}

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t entries = 0;
    /// Hits served by `find_source` (a subset of `hits`). In-process only;
    /// not part of the wire STATS.
    std::uint64_t source_hits = 0;
  };

  /// Returns the cached engine for `key`, or invokes `compile`, stores the
  /// result (evicting the least-recently-used entry when over capacity) and
  /// returns it. `hit` (when non-null) reports which path was taken. A
  /// `compile` that throws propagates and caches nothing. When `source` is
  /// non-null it becomes the entry's indexed source.
  [[nodiscard]] std::shared_ptr<const rtl::LaneEngine> get_or_compile(
      std::uint64_t key, const Compile& compile, bool* hit = nullptr,
      const std::string* source = nullptr);

  /// Looks `source` up in the source index. On a match counts one hit,
  /// refreshes the entry's recency, stores its canonical key in `*key` and
  /// returns its engine; otherwise returns nullptr and counts nothing (the
  /// caller goes on to `get_or_compile`, which counts the job).
  [[nodiscard]] std::shared_ptr<const rtl::LaneEngine> find_source(
      const std::string& source, std::uint64_t* key);

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    std::shared_ptr<const rtl::LaneEngine> engine;
    std::list<std::uint64_t>::iterator order;  ///< position in order_
    std::string source;  ///< indexed request bytes; empty when none
  };

  void set_source(std::uint64_t key, Entry& entry, const std::string& source);

  std::size_t capacity_;
  EvictHook on_evict_;
  mutable std::mutex mutex_;
  /// Keys in recency order, most recent at the front.
  std::list<std::uint64_t> order_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  /// Entry source -> canonical key; never larger than entries_.
  std::unordered_map<std::string, std::uint64_t> sources_;
  Stats counters_;
};

}  // namespace ctrtl::serve
