#include "cache/result_store.hpp"

#include <algorithm>
#include <utility>

namespace vcad::cache {

namespace {

/// ResultStore::Stats under their registry names (cache.*). A disk hit is
/// a hit to the caller; the footprint gauges are levels, summed over the
/// live stores.
void report(const ResultStore::Stats& s, obs::Registry::Tally& t) {
  t.count("cache.hits", s.hits + s.backendHits);
  t.count("cache.misses", s.misses);
  t.count("cache.backendHits", s.backendHits);
  t.count("cache.insertions", s.insertions);
  t.count("cache.evictions", s.evictions);
  t.level("cache.bytes", static_cast<std::int64_t>(s.bytes));
  t.level("cache.entries", static_cast<std::int64_t>(s.entries));
}

}  // namespace

ResultStore::ResultStore(Config config)
    : maxBytesPerShard_(std::max<std::size_t>(config.maxBytes / kShards, 1)),
      file_(config.directory.empty()
                ? nullptr
                : std::make_unique<FileBackend>(
                      FileBackend::Config{config.directory})),
      obs_(obs::Registry::global(),
           [this](obs::Registry::Tally& t) { report(stats(), t); }) {}

std::shared_ptr<ResultStore> ResultStore::inMemory(std::size_t maxBytes) {
  return std::make_shared<ResultStore>(Config{maxBytes, {}});
}

std::shared_ptr<ResultStore> ResultStore::withDisk(
    const std::string& directory) {
  return std::make_shared<ResultStore>(Config{.directory = directory});
}

void ResultStore::insertLocked(Shard& s, const CacheKey& key, Value v) {
  auto it = s.map.find(key);
  if (it != s.map.end()) {
    // Replace in place: a key recomputed by a racing miss, identical bytes.
    s.bytes -= it->second.value->size();
    s.bytes += v->size();
    it->second.value = std::move(v);
    s.lru.splice(s.lru.begin(), s.lru, it->second.lruPos);
  } else {
    s.lru.push_front(key);
    s.bytes += v->size();
    s.map.emplace(key, Entry{std::move(v), s.lru.begin()});
    ++s.stats.insertions;
  }
  while (s.bytes > maxBytesPerShard_ && s.map.size() > 1) {
    auto vit = s.map.find(s.lru.back());
    s.bytes -= vit->second.value->size();
    s.map.erase(vit);
    s.lru.pop_back();
    ++s.stats.evictions;
  }
}

Value ResultStore::fetch(const CacheKey& key) {
  Shard& s = shardOf(key);
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    auto it = s.map.find(key);
    if (it != s.map.end()) {
      s.lru.splice(s.lru.begin(), s.lru, it->second.lruPos);
      ++s.stats.hits;
      return it->second.value;
    }
  }
  std::vector<std::uint8_t> fromDisk;
  if (file_ != nullptr && file_->fetch(key, fromDisk)) {
    Value v = std::make_shared<const std::vector<std::uint8_t>>(
        std::move(fromDisk));
    std::lock_guard<std::mutex> lock(s.mutex);
    ++s.stats.backendHits;
    insertLocked(s, key, v);
    return v;
  }
  std::lock_guard<std::mutex> lock(s.mutex);
  ++s.stats.misses;
  return nullptr;
}

void ResultStore::insert(const CacheKey& key, Value value) {
  Shard& s = shardOf(key);
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    insertLocked(s, key, value);
  }
  // Write-through happens outside the shard lock: disk latency must not
  // stall readers of this shard.
  if (file_ != nullptr) file_->store(key, *value);
}

void ResultStore::sync() {
  if (file_ != nullptr) file_->sync();
}

ResultStore::Stats ResultStore::stats() const {
  Stats total;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mutex);
    total.hits += s.stats.hits;
    total.backendHits += s.stats.backendHits;
    total.misses += s.stats.misses;
    total.insertions += s.stats.insertions;
    total.evictions += s.stats.evictions;
    total.bytes += s.bytes;
    total.entries += s.map.size();
  }
  return total;
}

}  // namespace vcad::cache
