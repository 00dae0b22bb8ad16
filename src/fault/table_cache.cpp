#include "fault/table_cache.hpp"

#include "rmi/protocol.hpp"

namespace vcad::fault {

void DetectionTableCache::attachStore(std::shared_ptr<cache::ResultStore> store,
                                      std::uint64_t digest, std::uint64_t ns) {
  store_ = std::move(store);
  digest_ = digest;
  ns_ = ns;
}

cache::CacheKey detectionTableKey(std::uint64_t digest, std::uint64_t ns,
                                  const Word& inputs) {
  rmi::Args args;
  args.addWord(inputs);
  return cache::resultKey(
      digest, ns, static_cast<std::uint32_t>(rmi::MethodId::GetDetectionTable),
      args.buffer().bytes());
}

const DetectionTable* DetectionTableCache::findPinned(
    const std::string& inputsKey) const {
  const auto it = pinned_.find(inputsKey);
  return it == pinned_.end() ? nullptr : &it->second;
}

const DetectionTable* DetectionTableCache::findStored(
    const std::string& inputsKey, const Word& inputs) {
  if (!storeAttached()) return nullptr;
  cache::Value bytes = store_->fetch(detectionTableKey(digest_, ns_, inputs));
  if (bytes == nullptr) return nullptr;
  net::ByteBuffer buf(*bytes);
  DetectionTable table = DetectionTable::deserialize(buf);
  return &pinned_.emplace(inputsKey, std::move(table)).first->second;
}

const DetectionTable* DetectionTableCache::insert(const std::string& inputsKey,
                                                  const Word& inputs,
                                                  DetectionTable table) {
  if (storeAttached()) {
    net::ByteBuffer buf;
    table.serialize(buf);
    store_->insert(detectionTableKey(digest_, ns_, inputs), buf.bytes());
  }
  return &pinned_.emplace(inputsKey, std::move(table)).first->second;
}

}  // namespace vcad::fault
