// The result store: a sharded in-memory LRU of immutable byte values over
// an optional append-only FileBackend. The global obs::Registry reads the
// store's stats as cache.* through its attachment.
//
// One ResultStore is shared by every cache site — the provider's
// detection-table path, the campaign engines' table caches,
// FaultDictionary::build, and every tenant shard a MultiTenantProviderServer's
// endpoint factory attaches it to (separated by the namespace half of the
// key). Sharing is the point:
// work one site paid for is a warm hit everywhere else.
//
// The protocol is fetch, compute on a miss, insert. Every value is a pure
// function of its key, so inserts of one key carry identical bytes and
// replace the entry in place. Concurrent misses of one key may each
// compute; whichever insert lands last leaves the same bytes. No caller
// ever blocks on another's compute. The detection-table sites go through
// fault::fetchOrBuildTables.
//
// Values are immutable shared byte vectors: a hit hands back the very
// value that was inserted, so a warm response is bit-identical to the cold
// one by construction.
#pragma once

#include <array>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cache/file_backend.hpp"
#include "cache/key.hpp"
#include "obs/metrics.hpp"

namespace vcad::cache {

using Value = std::shared_ptr<const std::vector<std::uint8_t>>;

class ResultStore {
 public:
  struct Config {
    std::size_t maxBytes = 64u << 20;  // memory-tier budget across shards
    std::string directory;  // empty → memory-only
  };

  struct Stats {
    std::uint64_t hits = 0;         // memory-tier hits
    std::uint64_t backendHits = 0;  // memory miss, disk hit (counts as a hit)
    std::uint64_t misses = 0;       // both tiers missed: caller computed
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;  // LRU pressure evictions (memory tier only)
    std::uint64_t bytes = 0;      // current memory-tier footprint
    std::uint64_t entries = 0;    // current memory-tier entry count
  };

  /// The memory tier's shard count; each shard holds maxBytes / kShards.
  static constexpr std::size_t kShards = 16;

  explicit ResultStore(Config config);

  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  /// Memory-only store (hot tier only; nothing survives the process).
  static std::shared_ptr<ResultStore> inMemory(
      std::size_t maxBytes = 64u << 20);

  /// Disk-backed store rooted at `directory` (created if missing).
  static std::shared_ptr<ResultStore> withDisk(const std::string& directory);

  /// Memory tier, then disk (a disk hit is promoted into the memory tier).
  /// Returns nullptr on miss: the caller computes and inserts.
  Value fetch(const CacheKey& key);

  /// Inserts into the memory tier, replacing any entry of `key` in place,
  /// and writes through to disk.
  void insert(const CacheKey& key, Value value);

  void sync();

  Stats stats() const;
  /// Non-null only for disk-backed stores; exposes the recovery report.
  const FileBackend* fileBackend() const { return file_.get(); }

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
    Stats stats;
  };

  Shard& shardOf(const CacheKey& key) {
    // lo already mixes namespace/method/args through FNV-1a; its low bits
    // are well distributed.
    return shards_[static_cast<std::size_t>(key.lo ^ key.hi) & (kShards - 1)];
  }
  void insertLocked(Shard& s, const CacheKey& key, Value v);

  std::size_t maxBytesPerShard_;
  std::unique_ptr<FileBackend> file_;  // null for memory-only stores
  std::array<Shard, kShards> shards_;
  obs::Registry::Attachment obs_;  // cache.* read from stats()
};

}  // namespace vcad::cache
