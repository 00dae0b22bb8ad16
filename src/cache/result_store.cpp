#include "cache/result_store.hpp"

#include "obs/metrics.hpp"

namespace vcad::cache {

namespace {

/// TaggedCacheStats under its registry names (cache.*). A backend hit is
/// a hit to the caller; the footprint gauges are levels, summed over the
/// live stores.
void report(const TaggedCacheStats& s, obs::Registry::Tally& t) {
  t.count("cache.hits", s.hits + s.backendHits);
  t.count("cache.misses", s.misses);
  t.count("cache.backendHits", s.backendHits);
  t.count("cache.insertions", s.insertions);
  t.count("cache.evictions", s.evictions);
  t.level("cache.bytes", static_cast<std::int64_t>(s.bytes));
  t.level("cache.entries", static_cast<std::int64_t>(s.entries));
}

TaggedCache::Config cacheConfig(const ResultStore::Config& config,
                                std::shared_ptr<Backend> backend) {
  TaggedCache::Config c;
  c.maxBytes = config.maxBytes;
  c.shards = config.shards;
  c.backend = std::move(backend);
  return c;
}

std::shared_ptr<FileBackend> makeFile(const ResultStore::Config& config) {
  if (config.directory.empty()) return nullptr;
  FileBackend::Config fc;
  fc.directory = config.directory;
  fc.segmentBytes = config.segmentBytes;
  fc.syncEveryStore = config.syncEveryStore;
  return std::make_shared<FileBackend>(fc);
}

}  // namespace

ResultStore::ResultStore(Config config)
    : file_(makeFile(config)),
      cache_(cacheConfig(config, file_ ? std::shared_ptr<Backend>(file_)
                                       : nullptr)),
      obs_(obs::Registry::global(),
           [this](obs::Registry::Tally& t) { report(cache_.stats(), t); }) {}

std::shared_ptr<ResultStore> ResultStore::inMemory(std::size_t maxBytes) {
  Config c;
  c.maxBytes = maxBytes;
  return std::make_shared<ResultStore>(c);
}

std::shared_ptr<ResultStore> ResultStore::withDisk(
    const std::string& directory) {
  Config c;
  c.directory = directory;
  return std::make_shared<ResultStore>(c);
}

void ResultStore::sync() { cache_.backend().sync(); }

}  // namespace vcad::cache
