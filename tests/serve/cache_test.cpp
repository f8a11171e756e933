// DesignCache: hit/miss accounting, LRU eviction order, the capacity-0
// bypass, the guarantee that eviction never kills an in-flight job's lane
// engine, and the source index that lives and dies with its entries.

#include "serve/cache.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "rtl/lane_engine.h"
#include "transfer/design.h"

namespace ctrtl::serve {
namespace {

transfer::Design tiny_design(const std::string& name) {
  transfer::Design design;
  design.name = name;
  design.cs_max = 1;
  design.registers.push_back({"R1", 30});
  design.registers.push_back({"R2", 12});
  design.buses.push_back({"B1"});
  design.buses.push_back({"B2"});
  transfer::ModuleDecl add;
  add.name = "ADD";
  add.kind = transfer::ModuleKind::kAdd;
  design.modules.push_back(add);
  return design;
}

DesignCache::Compile compiler(const std::string& name, int* calls = nullptr) {
  return [name, calls] {
    if (calls != nullptr) {
      ++*calls;
    }
    return std::make_shared<const rtl::LaneEngine>(
        transfer::CompiledDesign::compile(tiny_design(name)));
  };
}

TEST(DesignCacheTest, SecondLookupHitsWithoutCompiling) {
  DesignCache cache(4);
  int calls = 0;
  bool hit = true;
  const auto first = cache.get_or_compile(1, compiler("d", &calls), &hit);
  EXPECT_FALSE(hit);
  const auto second = cache.get_or_compile(1, compiler("d", &calls), &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(first.get(), second.get());  // the same lowered tables, shared
  const DesignCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(DesignCacheTest, DistinctKeysMiss) {
  DesignCache cache(4);
  int calls = 0;
  (void)cache.get_or_compile(1, compiler("a", &calls));
  (void)cache.get_or_compile(2, compiler("b", &calls));
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(DesignCacheTest, EvictsLeastRecentlyUsed) {
  DesignCache cache(2);
  (void)cache.get_or_compile(1, compiler("a"));
  (void)cache.get_or_compile(2, compiler("b"));
  // Touch 1 so 2 becomes the LRU victim.
  bool hit = false;
  (void)cache.get_or_compile(1, compiler("a"), &hit);
  EXPECT_TRUE(hit);
  (void)cache.get_or_compile(3, compiler("c"));  // evicts 2
  EXPECT_EQ(cache.stats().evictions, 1u);
  (void)cache.get_or_compile(1, compiler("a"), &hit);
  EXPECT_TRUE(hit) << "key 1 was recently used and must survive";
  (void)cache.get_or_compile(2, compiler("b"), &hit);
  EXPECT_FALSE(hit) << "key 2 was the LRU entry and must have been evicted";
}

TEST(DesignCacheTest, EvictionKeepsInFlightDesignsAlive) {
  DesignCache cache(1);
  // An "in-flight job" holds the shared_ptr while its key gets evicted.
  const auto in_flight = cache.get_or_compile(1, compiler("a"));
  (void)cache.get_or_compile(2, compiler("b"));  // evicts key 1
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);
  // The evicted design is still fully usable — eviction only dropped the
  // cache's reference.
  EXPECT_EQ(in_flight->compiled().design.name, "a");
  EXPECT_EQ(in_flight->compiled().schedule.levels.size(), 6u);
  EXPECT_EQ(in_flight.use_count(), 1);
}

TEST(DesignCacheTest, CapacityZeroDisablesRetention) {
  DesignCache cache(0);
  int calls = 0;
  (void)cache.get_or_compile(1, compiler("a", &calls));
  (void)cache.get_or_compile(1, compiler("a", &calls));
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(DesignCacheTest, ThrowingCompileCachesNothing) {
  DesignCache cache(4);
  EXPECT_THROW(
      (void)cache.get_or_compile(
          1, []() -> std::shared_ptr<const rtl::LaneEngine> {
            throw std::runtime_error("lowering failed");
          }),
      std::runtime_error);
  EXPECT_EQ(cache.stats().entries, 0u);
  // The key stays compilable afterwards.
  bool hit = true;
  (void)cache.get_or_compile(1, compiler("a"), &hit);
  EXPECT_FALSE(hit);
}

TEST(DesignCacheTest, SourceIndexFindsTheEngineByExactBytes) {
  DesignCache cache(4);
  const std::string source = "design a";
  std::uint64_t key = 0;
  EXPECT_EQ(cache.find_source(source, &key), nullptr);
  EXPECT_EQ(cache.stats().hits + cache.stats().misses, 0u)
      << "a source miss counts nothing; get_or_compile counts the job";
  const auto built = cache.get_or_compile(7, compiler("a"), nullptr, &source);
  EXPECT_EQ(cache.find_source(source, &key), built);
  EXPECT_EQ(key, 7u);
  EXPECT_EQ(cache.find_source("design a ", &key), nullptr);
  const DesignCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.source_hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(DesignCacheTest, SourceIndexKeepsOneSourcePerEntryAndDiesWithIt) {
  DesignCache cache(1);
  const std::string first = "design a";
  const std::string variant = "design  a";
  (void)cache.get_or_compile(1, compiler("a"), nullptr, &first);
  // A canonical hit under other bytes re-points the entry's source.
  bool hit = false;
  (void)cache.get_or_compile(1, compiler("a"), &hit, &variant);
  EXPECT_TRUE(hit);
  std::uint64_t key = 0;
  EXPECT_EQ(cache.find_source(first, &key), nullptr);
  EXPECT_NE(cache.find_source(variant, &key), nullptr);
  // Eviction drops the source with the entry.
  (void)cache.get_or_compile(2, compiler("b"));
  EXPECT_EQ(cache.find_source(variant, &key), nullptr);
}

TEST(DesignCacheTest, EvictHookSeesEveryVictim) {
  std::vector<std::uint64_t> evicted;
  DesignCache cache(2, [&](std::uint64_t key) { evicted.push_back(key); });
  for (std::uint64_t key = 1; key <= 4; ++key) {
    (void)cache.get_or_compile(key, compiler("d"));
  }
  EXPECT_EQ(evicted, (std::vector<std::uint64_t>{1, 2}));
}

TEST(DesignCacheTest, CapacityZeroIndexesNoSource) {
  DesignCache cache(0);
  const std::string source = "design a";
  (void)cache.get_or_compile(1, compiler("a"), nullptr, &source);
  std::uint64_t key = 0;
  EXPECT_EQ(cache.find_source(source, &key), nullptr);
}

}  // namespace
}  // namespace ctrtl::serve
