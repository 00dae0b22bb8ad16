// The process-facing facade of the two-tier result store: a TaggedCache
// over an optional FileBackend. The global obs::Registry reads the cache's
// own stats as cache.* through the store's attachment.
//
// One ResultStore is shared by every cache site — the provider's
// detection-table path, the campaign engines' table caches,
// FaultDictionary::build, and all tenants of a MultiTenantProviderServer
// (separated by the namespace half of the key). Sharing is the point:
// work one site paid for is a warm hit everywhere else.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/file_backend.hpp"
#include "cache/key.hpp"
#include "cache/tagged_cache.hpp"
#include "obs/metrics.hpp"

namespace vcad::cache {

class ResultStore {
 public:
  struct Config {
    std::size_t maxBytes = 64u << 20;  // memory tier budget
    std::size_t shards = 16;
    std::string directory;  // empty → memory-only (NullBackend)
    std::size_t segmentBytes = 8u << 20;
    bool syncEveryStore = false;
  };

  using Claim = TaggedCache::Claim;

  explicit ResultStore(Config config);

  /// Memory-only store (hot tier only; nothing survives the process).
  static std::shared_ptr<ResultStore> inMemory(
      std::size_t maxBytes = 64u << 20);

  /// Disk-backed store rooted at `directory` (created if missing).
  static std::shared_ptr<ResultStore> withDisk(const std::string& directory);

  Claim fetchOrClaim(const CacheKey& key) { return cache_.fetchOrClaim(key); }
  Value fetch(const CacheKey& key) { return cache_.fetch(key); }
  void insert(const CacheKey& key, std::vector<std::uint8_t> bytes) {
    cache_.insert(key, std::move(bytes));
  }
  void sync();

  TaggedCacheStats stats() const { return cache_.stats(); }
  BackendStats backendStats() const { return cache_.backend().stats(); }
  /// Non-null only for disk-backed stores; exposes the recovery report.
  const FileBackend* fileBackend() const { return file_.get(); }

 private:
  std::shared_ptr<FileBackend> file_;  // null for memory-only stores
  TaggedCache cache_;
  obs::Registry::Attachment obs_;  // cache.* read from cache_.stats()
};

}  // namespace vcad::cache
