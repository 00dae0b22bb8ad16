#include "fault/dictionary.hpp"

#include <stdexcept>

#include "fault/table_cache.hpp"

namespace vcad::fault {

FaultDictionary FaultDictionary::build(
    const gate::Netlist& netlist, const CollapsedFaults& collapsed,
    int maxInputBits, const std::shared_ptr<cache::ResultStore>& store,
    std::uint64_t storeNamespace) {
  const int n = netlist.inputCount();
  if (n > maxInputBits || n >= 63) {
    throw std::invalid_argument(
        "FaultDictionary: " + std::to_string(n) +
        " inputs means 2^" + std::to_string(n) +
        " tables — beyond the configured exponential wall");
  }
  FaultDictionary d;
  d.inputBits_ = n;
  d.digest_ = cache::netlistDigest(netlist);
  d.faultList_ = symbolicFaultList(netlist, collapsed);
  const std::uint64_t configs = 1ULL << n;
  std::vector<Word> inputs;
  inputs.reserve(configs);
  for (std::uint64_t v = 0; v < configs; ++v) {
    inputs.push_back(Word::fromUint(n, v));
  }

  // Packed construction: every lane of a pass is one (configuration,
  // fault) pair, so small blocks characterize many configurations per pass.
  // With a store, what any previous cache site already characterized is
  // fetched, and only the misses are built and written through.
  const std::vector<cache::Value> bytes = fetchOrBuildTables(
      store.get(), d.digest_, storeNamespace, inputs,
      [&](const std::vector<Word>& missing) {
        const gate::PackedEvaluator packed(netlist);
        return buildSerializedTables(packed, collapsed, missing);
      });
  d.tables_.reserve(configs);
  for (const cache::Value& b : bytes) {
    d.tables_.push_back(DetectionTable::fromBytes(*b));
  }
  return d;
}

const DetectionTable& FaultDictionary::tableFor(const Word& inputs) const {
  if (inputs.width() != inputBits_) {
    throw std::invalid_argument("FaultDictionary: input width mismatch");
  }
  if (!inputs.isFullyKnown()) {
    throw std::invalid_argument(
        "FaultDictionary: unknown input bits have no dictionary entry");
  }
  return tables_[static_cast<std::size_t>(inputs.toUint())];
}

void FaultDictionary::serialize(net::ByteBuffer& buf) const {
  buf.writeU8(static_cast<std::uint8_t>(inputBits_));
  buf.writeU32(static_cast<std::uint32_t>(faultList_.size()));
  for (const std::string& f : faultList_) buf.writeString(f);
  buf.writeU32(static_cast<std::uint32_t>(tables_.size()));
  for (const DetectionTable& t : tables_) t.serialize(buf);
}

FaultDictionary FaultDictionary::deserialize(net::ByteBuffer& buf) {
  FaultDictionary d;
  d.inputBits_ = buf.readU8();
  const std::uint32_t nFaults = buf.readU32();
  for (std::uint32_t i = 0; i < nFaults; ++i) {
    d.faultList_.push_back(buf.readString());
  }
  const std::uint32_t nTables = buf.readU32();
  d.tables_.reserve(nTables);
  for (std::uint32_t i = 0; i < nTables; ++i) {
    d.tables_.push_back(DetectionTable::deserialize(buf));
  }
  return d;
}

std::size_t FaultDictionary::sizeBytes() const {
  net::ByteBuffer buf;
  serialize(buf);
  return buf.size();
}

DictionaryFaultClient::DictionaryFaultClient(Module& module,
                                             FaultDictionary dictionary)
    : module_(module), dict_(std::move(dictionary)) {}

std::vector<std::string> DictionaryFaultClient::faultList() {
  return dict_.faultList();
}

DetectionTable DictionaryFaultClient::detectionTable(const Word& inputs) {
  return dict_.tableFor(inputs);
}

}  // namespace vcad::fault
