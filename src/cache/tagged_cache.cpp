#include "cache/tagged_cache.hpp"

#include <utility>

namespace vcad::cache {

namespace {
std::size_t roundUpPow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

TaggedCache::TaggedCache(Config config)
    : backend_(config.backend ? std::move(config.backend)
                              : std::make_shared<NullBackend>()) {
  const std::size_t shards = roundUpPow2(config.shards == 0 ? 1 : config.shards);
  shardMask_ = shards - 1;
  maxBytesPerShard_ = config.maxBytes / shards;
  if (maxBytesPerShard_ == 0) maxBytesPerShard_ = 1;
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

void TaggedCache::insertLocked(Shard& s, const CacheKey& key, Value v) {
  auto it = s.map.find(key);
  if (it != s.map.end()) {
    // Replace in place: a key recomputed by a racing miss, identical bytes.
    s.bytes -= it->second.value->size();
    s.bytes += v->size();
    it->second.value = std::move(v);
    s.lru.splice(s.lru.begin(), s.lru, it->second.lruPos);
  } else {
    s.lru.push_front(key);
    Entry e;
    e.value = std::move(v);
    e.lruPos = s.lru.begin();
    s.bytes += e.value->size();
    s.map.emplace(key, std::move(e));
    ++s.stats.insertions;
  }
  while (s.bytes > maxBytesPerShard_ && s.map.size() > 1) {
    const CacheKey victim = s.lru.back();
    auto vit = s.map.find(victim);
    s.bytes -= vit->second.value->size();
    s.map.erase(vit);
    s.lru.pop_back();
    ++s.stats.evictions;
  }
}

Value TaggedCache::fetch(const CacheKey& key) {
  const std::size_t si = shardOf(key);
  Shard& s = *shards_[si];
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
  if (backend_->fetch(key, fromDisk)) {
    Value v = std::make_shared<const std::vector<std::uint8_t>>(
        std::move(fromDisk));
    {
      std::lock_guard<std::mutex> lock(s.mutex);
      ++s.stats.backendHits;
      insertLocked(s, key, v);
    }
    return v;
  }
  std::lock_guard<std::mutex> lock(s.mutex);
  ++s.stats.misses;
  return nullptr;
}

void TaggedCache::insert(const CacheKey& key, std::vector<std::uint8_t> bytes) {
  Value v =
      std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes));
  Shard& s = *shards_[shardOf(key)];
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    insertLocked(s, key, v);
  }
  // Write-through happens outside the shard lock: disk latency must not
  // stall readers of this shard.
  backend_->store(key, *v);
}

TaggedCacheStats TaggedCache::stats() const {
  TaggedCacheStats total;
  for (const auto& sp : shards_) {
    const Shard& s = *sp;
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
