#include "serve/cache.h"

namespace ctrtl::serve {

std::shared_ptr<const rtl::LaneEngine> DesignCache::get_or_compile(
    std::uint64_t key, const Compile& compile, bool* hit,
    const std::string* source) {
  std::unique_lock lock(mutex_);
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    ++counters_.hits;
    order_.splice(order_.begin(), order_, it->second.order);
    if (source != nullptr) {
      set_source(key, it->second, *source);
    }
    if (hit != nullptr) {
      *hit = true;
    }
    return it->second.engine;
  }
  ++counters_.misses;
  if (hit != nullptr) {
    *hit = false;
  }
  // Build under the lock: concurrent misses on the same key would
  // otherwise build the same design twice.
  std::shared_ptr<const rtl::LaneEngine> engine = compile();
  if (capacity_ == 0) {
    return engine;
  }
  order_.push_front(key);
  Entry& entry = entries_[key];
  entry.engine = engine;
  entry.order = order_.begin();
  if (source != nullptr) {
    set_source(key, entry, *source);
  }
  while (entries_.size() > capacity_) {
    const std::uint64_t victim = order_.back();
    order_.pop_back();
    const auto victim_it = entries_.find(victim);
    sources_.erase(victim_it->second.source);
    entries_.erase(victim_it);
    ++counters_.evictions;
    if (on_evict_) {
      on_evict_(victim);
    }
  }
  return engine;
}

std::shared_ptr<const rtl::LaneEngine> DesignCache::find_source(
    const std::string& source, std::uint64_t* key) {
  std::unique_lock lock(mutex_);
  const auto indexed = sources_.find(source);
  if (indexed == sources_.end()) {
    return nullptr;
  }
  Entry& entry = entries_.at(indexed->second);
  ++counters_.hits;
  ++counters_.source_hits;
  order_.splice(order_.begin(), order_, entry.order);
  *key = indexed->second;
  return entry.engine;
}

void DesignCache::set_source(std::uint64_t key, Entry& entry,
                             const std::string& source) {
  if (entry.source == source) {
    return;
  }
  sources_.erase(entry.source);
  entry.source = source;
  sources_[source] = key;
}

DesignCache::Stats DesignCache::stats() const {
  std::unique_lock lock(mutex_);
  Stats out = counters_;
  out.entries = entries_.size();
  return out;
}

}  // namespace ctrtl::serve
