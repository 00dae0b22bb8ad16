// DetectionTableCache: the campaign engines' per-component detection-table
// cache, refactored into a thin adapter over the shared result store.
//
// Two layers, with distinct accounting:
//   pin map  — tables this campaign already holds, keyed by the observed
//              input configuration. Pointers are stable for the life of
//              the cache (campaign code binds rows by reference across
//              thousands of injections). A pin-map hit is the historical
//              `tableCacheHits` counter.
//   store    — optional view onto a shared cache::ResultStore, scoped by
//              the component's netlist-version digest. A store hit
//              deserializes the stored bytes and pins them: no client
//              fetch happens, counted as `tableStoreHits`. Fresh fetches
//              are written through so the next campaign (or tenant, or
//              process) starts warm.
//
// Every store entry holds one table under detectionTableKey, which the
// provider's GetDetectionTable and GetDetectionTables paths call too, so a
// client-side view and a provider-side store attached to the same
// ResultStore share entries at any batch size: a table the provider built
// for one user is a local, zero-round-trip hit for the next.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "cache/result_store.hpp"
#include "fault/detection.hpp"

namespace vcad::fault {

/// The result-store address of the detection table for one input
/// configuration of the component with netlist-version `digest`, in tenant
/// namespace `ns`: the GetDetectionTable method id over the configuration
/// marshalled as the remote stub sends it.
cache::CacheKey detectionTableKey(std::uint64_t digest, std::uint64_t ns,
                                  const Word& inputs);

class DetectionTableCache {
 public:
  DetectionTableCache() = default;

  /// Attaches a shared-store view. `digest` is the component's
  /// netlist-version digest (0 keeps the cache pin-map-only: unversioned
  /// results must not leak across campaigns); `ns` is the tenant
  /// namespace, 0 for single-tenant use.
  void attachStore(std::shared_ptr<cache::ResultStore> store,
                   std::uint64_t digest, std::uint64_t ns = 0);
  bool storeAttached() const { return store_ != nullptr && digest_ != 0; }

  /// Pin-map lookup. Stable pointer, or null when this campaign has not
  /// seen the configuration yet.
  const DetectionTable* findPinned(const std::string& inputsKey) const;

  /// Store probe for a configuration the pin map misses: on a store hit
  /// the bytes are deserialized, pinned, and returned (stable pointer);
  /// null when the store misses too — the caller fetches from its client
  /// and insert()s.
  const DetectionTable* findStored(const std::string& inputsKey,
                                   const Word& inputs);

  /// Pins a freshly fetched table and writes it through to the store (when
  /// attached). Returns the stable pinned pointer.
  const DetectionTable* insert(const std::string& inputsKey,
                               const Word& inputs, DetectionTable table);

  std::size_t pinnedCount() const { return pinned_.size(); }

 private:
  std::map<std::string, DetectionTable> pinned_;
  std::shared_ptr<cache::ResultStore> store_;
  std::uint64_t digest_ = 0;
  std::uint64_t ns_ = 0;
};

}  // namespace vcad::fault
