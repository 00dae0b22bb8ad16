#include "fault/table_cache.hpp"

#include <bit>
#include <stdexcept>

#include "rmi/protocol.hpp"

namespace vcad::fault {

cache::CacheKey detectionTableKey(std::uint64_t digest, std::uint64_t ns,
                                  const Word& inputs) {
  // The argument bytes Args::addWord marshals: the Word tag, then the
  // word's encoding, written to the stack.
  std::uint8_t arg[1 + net::ByteBuffer::kMaxWordSize];
  arg[0] = static_cast<std::uint8_t>(rmi::ArgTag::Word);
  const std::size_t n = 1 + net::ByteBuffer::encodeWord(inputs, arg + 1);
  return cache::resultKey(
      digest, ns, static_cast<std::uint32_t>(rmi::MethodId::GetDetectionTable),
      {arg, n});
}

std::vector<cache::Value> fetchOrBuildTables(cache::ResultStore* store,
                                             std::uint64_t digest,
                                             std::uint64_t ns,
                                             const std::vector<Word>& inputs,
                                             const TableBuilder& build) {
  std::vector<cache::Value> tables(inputs.size());
  std::vector<cache::CacheKey> keys(store != nullptr ? inputs.size() : 0);
  std::vector<std::size_t> missAt;
  std::vector<Word> missing;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (store != nullptr) {
      keys[i] = detectionTableKey(digest, ns, inputs[i]);
      tables[i] = store->fetch(keys[i]);
    }
    if (tables[i] == nullptr) {
      missAt.push_back(i);
      missing.push_back(inputs[i]);
    }
  }
  if (missing.empty()) return tables;
  const std::vector<cache::Value> built = build(missing);
  if (built.size() != missing.size()) {
    throw std::runtime_error("detection-table builder returned " +
                             std::to_string(built.size()) + " tables for " +
                             std::to_string(missing.size()) +
                             " configurations");
  }
  for (std::size_t j = 0; j < missAt.size(); ++j) {
    tables[missAt[j]] = built[j];
    if (store != nullptr) store->insert(keys[missAt[j]], built[j]);
  }
  return tables;
}

DetectionTableCache::DetectionTableCache(std::string component,
                                         std::span<const std::string> faultList)
    : component_(std::move(component)),
      faultList_(faultList),
      index_(std::bit_ceil(2 * faultList_.size() + 1), 0) {
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = 0; i < faultList_.size(); ++i) {
    const std::string_view name = nameAt(i);
    std::size_t slot = std::hash<std::string_view>{}(name) & mask;
    // A repeated name keeps its first position.
    while (index_[slot] != 0 && nameAt(index_[slot] - 1) != name) {
      slot = (slot + 1) & mask;
    }
    if (index_[slot] == 0) index_[slot] = static_cast<std::uint32_t>(i + 1);
  }
}

void DetectionTableCache::attachStore(std::shared_ptr<cache::ResultStore> store,
                                      std::uint64_t digest, std::uint64_t ns) {
  store_ = std::move(store);
  digest_ = digest;
  ns_ = ns;
}

std::uint32_t DetectionTableCache::indexOf(std::string_view name) const {
  const std::size_t mask = index_.size() - 1;
  for (std::size_t slot = std::hash<std::string_view>{}(name) & mask;;
       slot = (slot + 1) & mask) {
    const std::uint32_t entry = index_[slot];
    if (entry == 0) {
      throw std::runtime_error("detection table of component " + component_ +
                               " names unpublished fault '" +
                               std::string(name) + "'");
    }
    if (nameAt(entry - 1) == name) return entry - 1;
  }
}

// Assembles a ResolvedTable from a table fed to it row by row: the sink
// DetectionTable::decode reads a table's bytes into.
struct DetectionTableCache::Resolver {
  const DetectionTableCache& cache;
  ResolvedTable table;

  void header(Word, Word, std::size_t rows) { table.rows.reserve(rows); }
  void row(Word faultyOutput, std::uint32_t) {
    const auto at = static_cast<std::uint32_t>(table.faults.size());
    table.rows.push_back({std::move(faultyOutput), at, at});
  }
  void fault(std::string_view name) {
    table.faults.push_back(cache.indexOf(name));
    ++table.rows.back().end;
  }
};

ResolvedTable DetectionTableCache::decode(
    const std::vector<std::uint8_t>& bytes) const {
  Resolver r{*this, {}};
  net::ByteReader in(bytes);
  DetectionTable::decode(in, r);
  return std::move(r.table);
}

const ResolvedTable* DetectionTableCache::findPinned(const Word& inputs) const {
  const auto it = pinned_.find(inputs);
  return it == pinned_.end() ? nullptr : &it->second;
}

const ResolvedTable* DetectionTableCache::findStored(const Word& inputs) {
  if (!storeAttached()) return nullptr;
  const cache::Value bytes =
      store_->fetch(detectionTableKey(digest_, ns_, inputs));
  if (bytes == nullptr) return nullptr;
  return &pinned_.emplace(inputs, decode(*bytes)).first->second;
}

const ResolvedTable* DetectionTableCache::insert(const Word& inputs,
                                                 cache::Value table) {
  ResolvedTable resolved = decode(*table);
  if (storeAttached()) {
    store_->insert(detectionTableKey(digest_, ns_, inputs), std::move(table));
  }
  return &pinned_.emplace(inputs, std::move(resolved)).first->second;
}

}  // namespace vcad::fault
