// Tests of the result store: key derivation, the memory tier's LRU
// accounting and in-place replacement, fetch/insert from many threads over
// a hot key set (TSan-verified under -DVCAD_SANITIZE=thread), promotion
// from the disk tier after memory eviction, and the store-through path
// handing out the very value it inserted.
#include "cache/result_store.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <memory>
#include <thread>
#include <vector>

#include "cache/key.hpp"
#include "core/rng.hpp"
#include "fault/table_cache.hpp"
#include "gate/generators.hpp"
#include "net/faulty_transport.hpp"
#include "obs/metrics.hpp"
#include "rmi/protocol.hpp"

namespace vcad::cache {
namespace {

std::vector<std::uint8_t> bytesOf(std::initializer_list<int> vals) {
  std::vector<std::uint8_t> out;
  for (int v : vals) out.push_back(static_cast<std::uint8_t>(v));
  return out;
}

/// `table` in wire form, as a detection-table builder returns it.
Value tableValue(const fault::DetectionTable& table) {
  net::ByteBuffer buf;
  table.serialize(buf);
  return std::make_shared<const std::vector<std::uint8_t>>(buf.release());
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

// The detection-table key hashes the configuration's encoding straight
// from the stack. File-backed stores hold these keys, so they must equal
// the address the marshalled GetDetectionTable argument gave: checked
// against the Args derivation and against the argument bytes spelled out
// per bit (the Word tag, the width byte, then each position's Logic code
// in two bits, four to a byte, low bits first).
TEST(CacheKey, DetectionTableKeyEqualsTheMarshalledArgumentKey) {
  Rng rng(0x7AB1E);
  constexpr auto kMethod =
      static_cast<std::uint32_t>(rmi::MethodId::GetDetectionTable);
  for (int trial = 0; trial < 2000; ++trial) {
    const int width = 1 + static_cast<int>(rng.below(64));
    Word w(width);
    const bool unknowns = trial % 2 == 1;
    for (int i = 0; i < width; ++i) {
      w.setBit(i, static_cast<Logic>(rng.below(unknowns ? 4 : 2)));
    }
    const std::uint64_t digest = rng.next();
    const std::uint64_t ns = trial % 3 == 0 ? 0 : rng.next();

    rmi::Args args;
    args.addWord(w);
    const CacheKey viaArgs =
        resultKey(digest, ns, kMethod, args.buffer().bytes());

    std::vector<std::uint8_t> perBit{
        static_cast<std::uint8_t>(rmi::ArgTag::Word),
        static_cast<std::uint8_t>(width)};
    for (int i = 0; i < width; ++i) {
      if (i % 4 == 0) perBit.push_back(0);
      perBit.back() = static_cast<std::uint8_t>(
          perBit.back() | (static_cast<unsigned>(w.bit(i)) << (2 * (i % 4))));
    }
    const CacheKey spelled = resultKey(digest, ns, kMethod, perBit);

    const CacheKey key = fault::detectionTableKey(digest, ns, w);
    ASSERT_EQ(key, viaArgs) << w;
    ASSERT_EQ(key, spelled) << w;
  }
}

// ---------------------------------------------------------------------------
// Memory tier: insert/fetch, LRU pressure, byte accounting
// ---------------------------------------------------------------------------

Value valueOf(std::vector<std::uint8_t> bytes) {
  return std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes));
}

/// A key of shard 0 (every key with (hi ^ lo) % kShards == 0 shares it), so
/// LRU order across these keys is one shard's and its budget is exact.
CacheKey shardZeroKey(std::uint64_t i) {
  return CacheKey{1, 1 + i * ResultStore::kShards};
}

TEST(ResultStore, InsertThenFetchReturnsIdenticalBytes) {
  ResultStore store(ResultStore::Config{});
  const CacheKey key{1, 2};
  const auto payload = bytesOf({9, 8, 7});
  store.insert(key, valueOf(payload));

  const Value hit = store.fetch(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, payload);
  EXPECT_EQ(store.fetch(CacheKey{1, 3}), nullptr);

  const ResultStore::Stats s = store.stats();
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.bytes, payload.size());
}

TEST(ResultStore, LruEvictsColdEntriesUnderBytePressure) {
  // 1024 bytes per shard, every key in one shard.
  ResultStore store(ResultStore::Config{1024 * ResultStore::kShards, {}});

  const Value block = valueOf(std::vector<std::uint8_t>(256, 0xAB));
  for (std::uint64_t i = 0; i < 4; ++i) {
    store.insert(shardZeroKey(i), block);
  }
  EXPECT_EQ(store.stats().evictions, 0u);

  // Touch key 0 so it is hottest, then overflow: key 1 (now coldest) goes.
  ASSERT_NE(store.fetch(shardZeroKey(0)), nullptr);
  store.insert(shardZeroKey(99), block);

  const ResultStore::Stats s = store.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_LE(s.bytes, 1024u);
  EXPECT_NE(store.fetch(shardZeroKey(0)), nullptr);   // hot entry survived
  EXPECT_EQ(store.fetch(shardZeroKey(1)), nullptr);   // cold entry evicted
  EXPECT_NE(store.fetch(shardZeroKey(99)), nullptr);  // newcomer resident
}

TEST(ResultStore, OverwriteReplacesValueWithoutLeakingBytes) {
  ResultStore store(ResultStore::Config{});
  const CacheKey key = shardZeroKey(5);
  store.insert(key, valueOf(std::vector<std::uint8_t>(100, 1)));
  store.insert(key, valueOf(std::vector<std::uint8_t>(40, 2)));

  const Value hit = store.fetch(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->size(), 40u);
  EXPECT_EQ(store.stats().entries, 1u);
  EXPECT_EQ(store.stats().bytes, 40u);
}

TEST(ResultStore, FetchReturnsTheInsertedValueNotACopy) {
  ResultStore store(ResultStore::Config{});
  const CacheKey key{3, 4};
  const Value v = valueOf(bytesOf({1, 2, 3}));
  store.insert(key, v);
  EXPECT_EQ(store.fetch(key).get(), v.get());

  // The store-through path inserts the builder's value as built and hands
  // its caller that same value: a table is serialized once, not once per
  // holder.
  const Word inputs = Word::fromUint(4, 5);
  std::vector<Value> built;
  const std::vector<Value> tables = fault::fetchOrBuildTables(
      &store, 7, 0, {inputs}, [&built](const std::vector<Word>& missing) {
        for (const Word& w : missing) {
          built.push_back(tableValue(fault::DetectionTable(
              w, Word::fromUint(2, 1),
              {{Word::fromUint(2, 0), {"g1/sa0"}}})));
        }
        return built;
      });
  ASSERT_EQ(tables.size(), 1u);
  ASSERT_NE(tables[0], nullptr);
  EXPECT_EQ(tables[0].get(), built[0].get());
  EXPECT_EQ(store.fetch(fault::detectionTableKey(7, 0, inputs)).get(),
            tables[0].get());

  // The campaign's table cache writes the value its client fetched through
  // to the store, the same pointer.
  const std::vector<std::string> list = {"blk/g1/sa0"};
  fault::DetectionTableCache cache("blk", list);
  auto shared = std::make_shared<ResultStore>(ResultStore::Config{});
  cache.attachStore(shared, 9);
  const Word other = Word::fromUint(4, 6);
  const Value fetched = tableValue(fault::DetectionTable(
      other, Word::fromUint(2, 1), {{Word::fromUint(2, 3), {"g1/sa0"}}}));
  ASSERT_NE(cache.insert(other, fetched), nullptr);
  EXPECT_EQ(shared->fetch(fault::detectionTableKey(9, 0, other)).get(),
            fetched.get());
}

TEST(ResultStore, ShortBuilderBatchThrowsAndInsertsNothing) {
  // A builder that returns fewer tables than configurations is reported,
  // not read past.
  ResultStore store(ResultStore::Config{});
  const std::vector<Word> inputs = {Word::fromUint(4, 1), Word::fromUint(4, 2)};
  EXPECT_THROW(fault::fetchOrBuildTables(
                   &store, 7, 0, inputs,
                   [](const std::vector<Word>& missing) {
                     return std::vector<Value>{tableValue(
                         {missing.front(), Word::fromUint(2, 1), {}})};
                   }),
               std::runtime_error);
  EXPECT_EQ(store.stats().insertions, 0u);
  EXPECT_THROW(fault::fetchOrBuildTables(
                   nullptr, 7, 0, inputs,
                   [](const std::vector<Word>&) {
                     return std::vector<Value>{};
                   }),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Concurrency
// ---------------------------------------------------------------------------

TEST(ResultStore, ManyThreadsManyKeysHammer) {
  // TSan target: concurrent fetch / insert-on-miss over a small hot key set
  // with an LRU small enough to keep evicting (two entries per shard).
  // Racing misses of one key both insert; every insert carries the key's
  // one value.
  ResultStore store(ResultStore::Config{128 * ResultStore::kShards, {}});

  constexpr int kThreads = 6;
  constexpr int kIters = 400;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const CacheKey key{static_cast<std::uint64_t>((i * 7 + t) % 13) + 1,
                           static_cast<std::uint64_t>((i * 3) % 5)};
        const Value hit = store.fetch(key);
        if (hit == nullptr) {
          store.insert(key, valueOf(std::vector<std::uint8_t>(
                                64, static_cast<std::uint8_t>(key.hi))));
        } else {
          ASSERT_EQ(hit->size(), 64u);
          EXPECT_EQ((*hit)[0], static_cast<std::uint8_t>(key.hi));
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const ResultStore::Stats s = store.stats();
  EXPECT_EQ(s.hits + s.misses, static_cast<std::uint64_t>(kThreads * kIters));
  // Every miss inserted; a racing miss of a resident key replaced it in
  // place, so insertions never exceed misses and the footprint is exact.
  EXPECT_LE(s.insertions, s.misses);
  EXPECT_EQ(s.bytes, 64 * s.entries);
}

// ---------------------------------------------------------------------------
// Two tiers: memory over a real disk backend
// ---------------------------------------------------------------------------

TEST(ResultStore, EvictedEntryIsPromotedBackFromDiskBackend) {
  char tmpl[] = "/tmp/vcad-cache-XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);

  // A tiny memory tier (512 bytes per shard): everything spills fast.
  ResultStore store(ResultStore::Config{512 * ResultStore::kShards, tmpl});

  const CacheKey cold = shardZeroKey(1);
  store.insert(cold, valueOf(std::vector<std::uint8_t>(300, 0xCD)));
  // Push the first entry out of the memory tier.
  store.insert(shardZeroKey(2), valueOf(std::vector<std::uint8_t>(300, 0xEE)));
  ASSERT_GE(store.stats().evictions, 1u);

  // The fetch must come back as a hit from the disk tier, not a miss — the
  // value was written through on insert.
  const auto missesBefore = store.stats().misses;
  const Value hit = store.fetch(cold);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->size(), 300u);
  EXPECT_EQ((*hit)[0], 0xCD);
  EXPECT_GE(store.stats().backendHits, 1u);
  EXPECT_EQ(store.stats().misses, missesBefore);
}

TEST(ResultStore, FacadeCountsAndSurvivesReopenViaDisk) {
  char tmpl[] = "/tmp/vcad-store-XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const CacheKey key = resultKey(42, 0, 1, bytesOf({1}));

  {
    auto store = ResultStore::withDisk(dir);
    ASSERT_EQ(store->fetch(key), nullptr);
    store->insert(key, valueOf(bytesOf({10, 11})));
    store->sync();
    EXPECT_EQ(store->stats().misses, 1u);
  }
  {
    // A fresh process over the same directory: the hot tier is empty but
    // the first fetch promotes from disk — a hit, not a recompute.
    auto store = ResultStore::withDisk(dir);
    ASSERT_NE(store->fileBackend(), nullptr);
    EXPECT_EQ(store->fileBackend()->recovery().liveRecords, 1u);
    const Value hit = store->fetch(key);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(*hit, bytesOf({10, 11}));
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
  a->insert(CacheKey{1, 1}, valueOf(std::vector<std::uint8_t>(100, 0xAA)));
  a->insert(CacheKey{1, 2}, valueOf(std::vector<std::uint8_t>(50, 0xAB)));
  b->insert(CacheKey{2, 1}, valueOf(std::vector<std::uint8_t>(30, 0xBB)));
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
