// DetectionTableCache: the campaign engine's per-component detection-table
// cache, a thin adapter over the shared result store that pins every table
// in resolved form.
//
// Tables reach the cache in wire form only: the bytes
// DetectionTable::serialize writes, as FaultClient::serializedTables hands
// them over. No DetectionTable and no per-fault string is built on the way.
//
// Resolved form: a campaign's skip check and detection bookkeeping only
// need, per row, the faulty output and which of the component's published
// faults the row holds. The cache borrows that published list (faultList()
// order, as the campaign lays it out in CampaignResult::faultList with the
// "<module>/" prefix rows do not carry) and builds one name -> index lookup
// over it per campaign. Each table is decoded once, when it is pinned: a
// row becomes its faulty output plus the uint32 indices of its faults into
// the list, stored flat, names looked up as views into the bytes. No fault
// name is kept per table, and a name the list lacks is rejected
// (std::runtime_error naming the component), so a provider cannot report
// faults it never published.
//
// Two layers, with distinct accounting:
//   pin map  — tables this campaign already holds, keyed by the observed
//              input configuration itself (the Word: its width and three
//              planes; no string is built per lookup). Pointers are stable
//              for the life of the cache (campaign code binds rows by
//              reference across thousands of injections). A pin-map hit is
//              the historical `tableCacheHits` counter.
//   store    — optional view onto a shared cache::ResultStore, scoped by
//              the component's netlist-version digest. A store hit decodes
//              the stored bytes straight into the resolved form (no copy
//              of the bytes) and pins it: no client fetch happens, counted
//              as `tableStoreHits`. Fresh fetches are written through as
//              the very value the client returned, so the next campaign (or
//              tenant, or process) starts warm.
//
// Every store entry holds one table under detectionTableKey, which the
// provider's GetDetectionTable and GetDetectionTables paths and
// FaultDictionary::build reach through fetchOrBuildTables, so a
// client-side view and a provider-side store attached to the same
// ResultStore share entries at any batch size: a table the provider built
// for one user is a local, zero-round-trip hit for the next.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cache/result_store.hpp"
#include "fault/detection.hpp"

namespace vcad::fault {

/// The result-store address of the detection table for one input
/// configuration of the component with netlist-version `digest`, in tenant
/// namespace `ns`: the GetDetectionTable method id over the configuration
/// marshalled as the remote stub sends it.
cache::CacheKey detectionTableKey(std::uint64_t digest, std::uint64_t ns,
                                  const Word& inputs);

/// Builds the detection tables of the configurations it is given, in order,
/// each as its serialize() bytes (buildSerializedTables).
using TableBuilder =
    std::function<std::vector<cache::Value>(const std::vector<Word>&)>;

/// The one store-through path for serialized detection tables: each
/// configuration of `inputs` is fetched from `store` under
/// detectionTableKey(digest, ns, ·), and the misses are built in a single
/// `build` call and inserted as built. Returns each table's serialize()
/// bytes in request order, identical whichever entries hit. A null `store`
/// builds everything; `build` is not called when nothing misses, and this
/// throws std::runtime_error when it returns other than one table per miss
/// (nothing is inserted then). Concurrent misses of one key may each build:
/// the inserted bytes are identical.
std::vector<cache::Value> fetchOrBuildTables(cache::ResultStore* store,
                                             std::uint64_t digest,
                                             std::uint64_t ns,
                                             const std::vector<Word>& inputs,
                                             const TableBuilder& build);

/// A detection table as the campaign pins it: each row's faulty output and
/// the indices of its faults into the component's published fault list,
/// the rows' index ranges laid end to end in `faults`.
struct ResolvedTable {
  struct Row {
    Word faultyOutput;
    std::uint32_t begin = 0;  // this row's faults are faults[begin, end)
    std::uint32_t end = 0;
    bool operator==(const Row&) const = default;
  };
  std::vector<Row> rows;
  std::vector<std::uint32_t> faults;

  std::span<const std::uint32_t> faultsOf(const Row& row) const {
    return {faults.data() + row.begin, row.end - row.begin};
  }
  bool operator==(const ResolvedTable&) const = default;
};

class DetectionTableCache {
 public:
  /// `faultList` is the published fault list of `component` in
  /// faultList() order, as the campaign qualifies it: each name prefixed
  /// with "<component>/". Rows resolve their (unprefixed) names against it.
  /// The cache borrows the list, which must outlive it.
  DetectionTableCache(std::string component,
                      std::span<const std::string> faultList);

  /// Attaches a shared-store view. `digest` is the component's
  /// netlist-version digest (0 keeps the cache pin-map-only: unversioned
  /// results must not leak across campaigns); `ns` is the tenant
  /// namespace, 0 for single-tenant use.
  void attachStore(std::shared_ptr<cache::ResultStore> store,
                   std::uint64_t digest, std::uint64_t ns = 0);
  bool storeAttached() const { return store_ != nullptr && digest_ != 0; }

  /// Pin-map lookup. Stable pointer, or null when this campaign has not
  /// seen the configuration yet.
  const ResolvedTable* findPinned(const Word& inputs) const;

  /// Store probe for a configuration the pin map misses: on a store hit
  /// the bytes are decoded, pinned, and returned (stable pointer); null
  /// when the store misses too — the caller fetches from its client and
  /// insert()s.
  const ResolvedTable* findStored(const Word& inputs);

  /// Pins a freshly fetched table, given as its serialize() bytes, and
  /// writes the same value through to the store (when attached). Returns
  /// the stable pinned pointer. Throws as decode(); nothing is pinned or
  /// stored then.
  const ResolvedTable* insert(const Word& inputs, cache::Value table);

  /// A table's serialized bytes resolved against the fault list. Throws
  /// std::runtime_error on a fault name the list lacks and
  /// std::out_of_range on truncated bytes.
  ResolvedTable decode(const std::vector<std::uint8_t>& bytes) const;

  std::size_t pinnedCount() const { return pinned_.size(); }

 private:
  /// faultList_[i] without its "<component>/" prefix.
  std::string_view nameAt(std::size_t i) const {
    return std::string_view(faultList_[i]).substr(component_.size() + 1);
  }
  std::uint32_t indexOf(std::string_view name) const;
  struct Resolver;

  std::string component_;
  std::span<const std::string> faultList_;
  // Name -> position lookup, open-addressed over faultList_: each slot holds
  // a position + 1 (0 = empty), probed linearly from the name's hash. A
  // power of two above twice the list, so 8-16 bytes per fault.
  std::vector<std::uint32_t> index_;
  std::unordered_map<Word, ResolvedTable> pinned_;  // node-based: stable
  std::shared_ptr<cache::ResultStore> store_;
  std::uint64_t digest_ = 0;
  std::uint64_t ns_ = 0;
};

}  // namespace vcad::fault
