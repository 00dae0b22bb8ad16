// Sharded in-memory LRU over a pluggable disk backend — the hot tier of
// the two-tier result store (rippled's TaggedCache shape).
//
// The protocol is plain fetch, compute on a miss, insert. Every value is
// a pure function of its key, so inserts of one key carry identical bytes
// and replace the entry in place. Concurrent misses of one key may each
// compute; whichever insert lands last leaves the same bytes. No caller
// ever blocks on another's compute.
//
// Values are immutable shared byte vectors: a hit hands back the exact
// bytes that were inserted, so a warm response is bit-identical to the
// cold one by construction.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "cache/backend.hpp"
#include "cache/key.hpp"

namespace vcad::cache {

using Value = std::shared_ptr<const std::vector<std::uint8_t>>;

struct TaggedCacheStats {
  std::uint64_t hits = 0;         // memory-tier hits
  std::uint64_t backendHits = 0;  // memory miss, disk hit (counts as a hit)
  std::uint64_t misses = 0;       // both tiers missed: caller computed
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;    // LRU pressure evictions (memory tier only)
  std::uint64_t bytes = 0;        // current memory-tier footprint
  std::uint64_t entries = 0;      // current memory-tier entry count
};

class TaggedCache {
 public:
  struct Config {
    std::size_t maxBytes = 64u << 20;  // memory-tier budget across shards
    std::size_t shards = 16;           // rounded up to a power of two
    std::shared_ptr<Backend> backend;  // defaults to NullBackend
  };

  explicit TaggedCache(Config config);
  ~TaggedCache() = default;

  TaggedCache(const TaggedCache&) = delete;
  TaggedCache& operator=(const TaggedCache&) = delete;

  /// Memory tier, then backend (a backend hit is promoted into the memory
  /// tier). Returns nullptr on miss: the caller computes and inserts.
  Value fetch(const CacheKey& key);

  /// Inserts into the memory tier, replacing any entry of `key` in place,
  /// and writes through to the backend.
  void insert(const CacheKey& key, std::vector<std::uint8_t> bytes);

  TaggedCacheStats stats() const;
  Backend& backend() const { return *backend_; }

 private:
  struct Entry {
    Value value;
    std::list<CacheKey>::iterator lruPos;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::map<CacheKey, Entry> map;
    std::list<CacheKey> lru;  // front = most recent
    std::uint64_t bytes = 0;
    TaggedCacheStats stats;
  };

  std::size_t shardOf(const CacheKey& key) const {
    // lo already mixes namespace/method/args through FNV-1a; its low bits
    // are well distributed.
    return static_cast<std::size_t>(key.lo ^ key.hi) & shardMask_;
  }
  void insertLocked(Shard& s, const CacheKey& key, Value v);

  std::size_t maxBytesPerShard_;
  std::size_t shardMask_;
  std::shared_ptr<Backend> backend_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace vcad::cache
