// Tests of the two-tier TaggedCache: key derivation, LRU accounting, the
// claim-on-miss concurrency contract (exactly one compute per key, no
// matter how the misses race — TSan-verified under -DVCAD_SANITIZE=thread),
// abandon-promotes-waiter, and backend promotion after memory eviction.
#include "cache/tagged_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "cache/file_backend.hpp"
#include "cache/key.hpp"
#include "cache/result_store.hpp"
#include "gate/generators.hpp"
#include "net/faulty_transport.hpp"
#include "obs/metrics.hpp"

namespace vcad::cache {
namespace {

std::vector<std::uint8_t> bytesOf(std::initializer_list<int> vals) {
  std::vector<std::uint8_t> out;
  for (int v : vals) out.push_back(static_cast<std::uint8_t>(v));
  return out;
}

// ---------------------------------------------------------------------------
// Key derivation
// ---------------------------------------------------------------------------

TEST(CacheKey, BuilderMatchesTransportFnvOnContiguousBytes) {
  const std::vector<std::uint8_t> payload = bytesOf({1, 2, 3, 4, 5, 6, 7});
  KeyBuilder b;
  b.mixBytes(payload);
  EXPECT_EQ(b.digest(), net::fnv1a(payload));
}

TEST(CacheKey, NetlistDigestIsDeterministicAndStructureSensitive) {
  const gate::Netlist m8a = gate::makeArrayMultiplier(8);
  const gate::Netlist m8b = gate::makeArrayMultiplier(8);
  const gate::Netlist m9 = gate::makeArrayMultiplier(9);
  const gate::Netlist add8 = gate::makeRippleCarryAdder(8);

  EXPECT_EQ(netlistDigest(m8a), netlistDigest(m8b));
  EXPECT_NE(netlistDigest(m8a), netlistDigest(m9));
  EXPECT_NE(netlistDigest(m8a), netlistDigest(add8));
  // 0 is reserved for "unversioned, never cache".
  EXPECT_NE(netlistDigest(m8a), 0u);
}

TEST(CacheKey, ResultKeySeparatesEveryAddressComponent) {
  const std::vector<std::uint8_t> args = bytesOf({10, 20, 30});
  const CacheKey base = resultKey(111, 0, 7, args);
  EXPECT_EQ(base.hi, 111u);  // digest is the content half, verbatim
  EXPECT_NE(resultKey(222, 0, 7, args), base);            // other netlist
  EXPECT_NE(resultKey(111, 1, 7, args).lo, base.lo);      // other tenant
  EXPECT_NE(resultKey(111, 0, 8, args).lo, base.lo);      // other method
  EXPECT_NE(resultKey(111, 0, 7, bytesOf({10, 20, 31})).lo,
            base.lo);                                     // other args
  EXPECT_EQ(resultKey(111, 0, 7, args), base);            // deterministic
}

// ---------------------------------------------------------------------------
// Memory tier: insert/fetch, LRU pressure, byte accounting
// ---------------------------------------------------------------------------

TEST(TaggedCache, InsertThenFetchReturnsIdenticalBytes) {
  TaggedCache cache(TaggedCache::Config{});
  const CacheKey key{1, 2};
  const auto payload = bytesOf({9, 8, 7});
  cache.insert(key, payload);

  const Value hit = cache.fetch(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, payload);
  EXPECT_EQ(cache.fetch(CacheKey{1, 3}), nullptr);

  const TaggedCacheStats s = cache.stats();
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.bytes, payload.size());
}

TEST(TaggedCache, LruEvictsColdEntriesUnderBytePressure) {
  // One shard so LRU order is global and the byte budget is exact.
  TaggedCache::Config cfg;
  cfg.maxBytes = 1024;
  cfg.shards = 1;
  TaggedCache cache(cfg);

  const std::vector<std::uint8_t> block(256, 0xAB);
  for (std::uint64_t i = 0; i < 4; ++i) {
    cache.insert(CacheKey{1, i}, block);
  }
  EXPECT_EQ(cache.stats().evictions, 0u);

  // Touch key 0 so it is hottest, then overflow: key 1 (now coldest) goes.
  ASSERT_NE(cache.fetch(CacheKey{1, 0}), nullptr);
  cache.insert(CacheKey{1, 99}, block);

  const TaggedCacheStats s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_LE(s.bytes, 1024u);
  EXPECT_NE(cache.fetch(CacheKey{1, 0}), nullptr);   // hot entry survived
  EXPECT_EQ(cache.fetch(CacheKey{1, 1}), nullptr);   // cold entry evicted
  EXPECT_NE(cache.fetch(CacheKey{1, 99}), nullptr);  // newcomer resident
}

TEST(TaggedCache, OverwriteReplacesValueWithoutLeakingBytes) {
  TaggedCache::Config cfg;
  cfg.shards = 1;
  TaggedCache cache(cfg);
  const CacheKey key{5, 5};
  cache.insert(key, std::vector<std::uint8_t>(100, 1));
  cache.insert(key, std::vector<std::uint8_t>(40, 2));

  const Value hit = cache.fetch(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->size(), 40u);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().bytes, 40u);
}

// ---------------------------------------------------------------------------
// Claim-on-miss
// ---------------------------------------------------------------------------

TEST(TaggedCache, MissYieldsOwnedClaimAndFulfillPublishes) {
  TaggedCache cache(TaggedCache::Config{});
  const CacheKey key{3, 4};

  TaggedCache::Claim claim = cache.fetchOrClaim(key);
  ASSERT_TRUE(claim.owned());
  EXPECT_EQ(claim.value, nullptr);
  claim.fulfill(bytesOf({42}));

  TaggedCache::Claim second = cache.fetchOrClaim(key);
  EXPECT_FALSE(second.owned());
  ASSERT_NE(second.value, nullptr);
  EXPECT_EQ(*second.value, bytesOf({42}));

  const TaggedCacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
}

TEST(TaggedCache, ConcurrentSameKeyMissesExecuteExactlyOnce) {
  TaggedCache cache(TaggedCache::Config{});
  const CacheKey key{7, 7};
  constexpr int kThreads = 8;

  std::atomic<int> owners{0};
  std::atomic<int> ready{0};
  std::mutex gateMutex;
  std::condition_variable gate;
  bool go = false;

  std::vector<Value> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      {
        std::unique_lock<std::mutex> lk(gateMutex);
        ++ready;
        gate.wait(lk, [&] { return go; });
      }
      TaggedCache::Claim claim = cache.fetchOrClaim(key);
      if (claim.owned()) {
        ++owners;
        // Hold the claim long enough that the other threads pile up on it.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        claim.fulfill(bytesOf({1, 2, 3}));
        seen[static_cast<std::size_t>(t)] = cache.fetch(key);
      } else {
        seen[static_cast<std::size_t>(t)] = claim.value;
      }
    });
  }
  while (ready.load() < kThreads) std::this_thread::yield();
  {
    std::lock_guard<std::mutex> lk(gateMutex);
    go = true;
  }
  gate.notify_all();
  for (auto& th : threads) th.join();

  // The contract: exactly one compute, everyone observes the same bytes.
  EXPECT_EQ(owners.load(), 1);
  for (const Value& v : seen) {
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, bytesOf({1, 2, 3}));
  }
  const TaggedCacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_GE(s.hits, static_cast<std::uint64_t>(kThreads - 1));
  // Waiters that blocked on the in-flight claim are counted separately.
  EXPECT_LE(s.claimWaits, s.hits);
}

TEST(TaggedCache, AbandonedClaimPromotesAWaiterToOwner) {
  TaggedCache cache(TaggedCache::Config{});
  const CacheKey key{9, 9};

  std::atomic<bool> waiterDone{false};
  std::atomic<int> waiterOwned{0};
  {
    TaggedCache::Claim owner = cache.fetchOrClaim(key);
    ASSERT_TRUE(owner.owned());

    std::thread waiter([&] {
      TaggedCache::Claim retry = cache.fetchOrClaim(key);
      // The abandoned claim must not hand the waiter a null value; the
      // waiter is re-promoted to owner and computes.
      if (retry.owned()) {
        ++waiterOwned;
        retry.fulfill(bytesOf({5}));
      }
      waiterDone = true;
    });
    // Give the waiter time to block on the in-flight claim, then abandon
    // by destroying the owner without fulfilling.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(waiterDone.load());
    // `owner` destructs here → abandon.
    {
      TaggedCache::Claim dropped = std::move(owner);
    }
    waiter.join();
  }
  EXPECT_EQ(waiterOwned.load(), 1);
  const Value v = cache.fetch(key);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, bytesOf({5}));
}

TEST(TaggedCache, ManyThreadsManyKeysHammer) {
  // TSan target: concurrent fetchOrClaim/insert/fetch over a small hot key
  // set with an LRU small enough to keep evicting.
  TaggedCache::Config cfg;
  cfg.maxBytes = 4096;
  cfg.shards = 4;
  TaggedCache cache(cfg);

  constexpr int kThreads = 6;
  constexpr int kIters = 400;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const CacheKey key{static_cast<std::uint64_t>((i * 7 + t) % 13) + 1,
                           static_cast<std::uint64_t>((i * 3) % 5)};
        TaggedCache::Claim claim = cache.fetchOrClaim(key);
        if (claim.owned()) {
          claim.fulfill(std::vector<std::uint8_t>(
              64, static_cast<std::uint8_t>(key.hi)));
        } else {
          ASSERT_NE(claim.value, nullptr);
          ASSERT_EQ(claim.value->size(), 64u);
          EXPECT_EQ((*claim.value)[0], static_cast<std::uint8_t>(key.hi));
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const TaggedCacheStats s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, static_cast<std::uint64_t>(kThreads * kIters));
}

// ---------------------------------------------------------------------------
// Two-tier behavior through a real disk backend
// ---------------------------------------------------------------------------

TEST(TaggedCache, EvictedEntryIsPromotedBackFromDiskBackend) {
  char tmpl[] = "/tmp/vcad-cache-XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);

  FileBackend::Config fbCfg;
  fbCfg.directory = tmpl;
  TaggedCache::Config cfg;
  cfg.maxBytes = 512;  // tiny memory tier: everything spills fast
  cfg.shards = 1;
  cfg.backend = std::make_shared<FileBackend>(fbCfg);
  TaggedCache cache(cfg);

  const CacheKey cold{1, 1};
  cache.insert(cold, std::vector<std::uint8_t>(300, 0xCD));
  // Push the first entry out of the memory tier.
  cache.insert(CacheKey{1, 2}, std::vector<std::uint8_t>(300, 0xEE));
  ASSERT_GE(cache.stats().evictions, 1u);

  // fetchOrClaim must come back as a hit from the disk tier, not an owned
  // claim — the value was written through on insert.
  TaggedCache::Claim claim = cache.fetchOrClaim(cold);
  EXPECT_FALSE(claim.owned());
  ASSERT_NE(claim.value, nullptr);
  EXPECT_EQ(claim.value->size(), 300u);
  EXPECT_EQ((*claim.value)[0], 0xCD);
  EXPECT_GE(cache.stats().backendHits, 1u);
}

TEST(ResultStore, FacadeCountsAndSurvivesReopenViaDisk) {
  char tmpl[] = "/tmp/vcad-store-XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const CacheKey key = resultKey(42, 0, 1, bytesOf({1}));

  {
    auto store = ResultStore::withDisk(dir);
    ResultStore::Claim claim = store->fetchOrClaim(key);
    ASSERT_TRUE(claim.owned());
    claim.fulfill(bytesOf({10, 11}));
    store->sync();
    EXPECT_EQ(store->stats().misses, 1u);
  }
  {
    // A fresh process over the same directory: the hot tier is empty but
    // the first fetch promotes from disk — a hit, not a recompute.
    auto store = ResultStore::withDisk(dir);
    ASSERT_NE(store->fileBackend(), nullptr);
    EXPECT_EQ(store->fileBackend()->recovery().liveRecords, 1u);
    ResultStore::Claim claim = store->fetchOrClaim(key);
    EXPECT_FALSE(claim.owned());
    ASSERT_NE(claim.value, nullptr);
    EXPECT_EQ(*claim.value, bytesOf({10, 11}));
    EXPECT_EQ(store->stats().backendHits, 1u);
    EXPECT_EQ(store->stats().misses, 0u);
  }
}

TEST(ResultStore, FootprintGaugesSumOverLiveStores) {
  // A provider store and a client store can share one process (the
  // benchmark's loopback rig does): cache.bytes and cache.entries report
  // both, not whichever store touched the registry last.
  if constexpr (!obs::kObsCompiledIn) {
    GTEST_SKIP() << "observability compiled out";
  }
  const obs::Registry& reg = obs::Registry::global();
  auto a = ResultStore::inMemory();
  auto b = ResultStore::inMemory();
  a->insert(CacheKey{1, 1}, std::vector<std::uint8_t>(100, 0xAA));
  a->insert(CacheKey{1, 2}, std::vector<std::uint8_t>(50, 0xAB));
  b->insert(CacheKey{2, 1}, std::vector<std::uint8_t>(30, 0xBB));
  const obs::Registry::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.gaugeOr("cache.bytes"),
            static_cast<std::int64_t>(a->stats().bytes + b->stats().bytes));
  EXPECT_EQ(snap.gaugeOr("cache.entries"), 3);

  // A destroyed store's footprint leaves the gauges; its counters stay.
  a.reset();
  const obs::Registry::Snapshot later = reg.snapshot();
  EXPECT_EQ(later.gaugeOr("cache.bytes"),
            static_cast<std::int64_t>(b->stats().bytes));
  EXPECT_EQ(later.gaugeOr("cache.entries"), 1);
  EXPECT_EQ(later.counterOr("cache.insertions"),
            snap.counterOr("cache.insertions"));
}

}  // namespace
}  // namespace vcad::cache
