// The campaign engine's test grid: VirtualFaultSimulator at every table
// batch of the grid, each held to the serial oracle
// (oracles::serialCampaign) field by field.
#pragma once

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/result_store.hpp"
#include "fault/virtual_sim.hpp"

namespace vcad::fault::grid {

inline constexpr std::size_t kBatches[] = {1, 4, 64};

/// The engine at one grid setting.
inline CampaignResult runEngine(
    Circuit& design, std::vector<FaultClient*> components,
    std::vector<Connector*> pis, std::vector<Connector*> pos,
    const std::vector<std::vector<Word>>& patterns, std::size_t batch,
    std::shared_ptr<cache::ResultStore> store = {}) {
  VirtualFaultSimulator sim(design, std::move(components), std::move(pis),
                            std::move(pos));
  sim.setTableBatch(batch);
  if (store != nullptr) sim.setResultStore(std::move(store));
  return sim.run(patterns);
}

/// Everything an engine setting must reproduce from the oracle. Round trips
/// match at batch 1, where the engine puts the oracle's traffic on the
/// wire; larger batches may only save some.
inline void expectMatchesOracle(const CampaignResult& got,
                                const CampaignResult& oracle,
                                std::size_t batch, const std::string& label) {
  EXPECT_EQ(got.faultList, oracle.faultList) << label;
  EXPECT_EQ(got.detected, oracle.detected) << label;
  EXPECT_EQ(got.detectedAfterPattern, oracle.detectedAfterPattern) << label;
  EXPECT_EQ(got.injections, oracle.injections) << label;
  EXPECT_EQ(got.detectionTablesRequested, oracle.detectionTablesRequested)
      << label;
  EXPECT_EQ(got.tableCacheHits, oracle.tableCacheHits) << label;
  EXPECT_EQ(got.tableStoreHits, oracle.tableStoreHits) << label;
  if (batch == 1) {
    EXPECT_EQ(got.tableFetchRoundTrips, oracle.tableFetchRoundTrips) << label;
  } else {
    EXPECT_LE(got.tableFetchRoundTrips, oracle.tableFetchRoundTrips) << label;
  }
}

struct Cell {
  std::size_t batch;
  CampaignResult result;
  std::string label;
};

/// Runs `campaign(batch)` on every grid cell, holds each result to
/// `oracle`, and returns the cells for setting-specific checks.
inline std::vector<Cell> expectGridMatchesOracle(
    const CampaignResult& oracle,
    const std::function<CampaignResult(std::size_t)>& campaign,
    const std::string& label) {
  std::vector<Cell> cells;
  for (std::size_t batch : kBatches) {
    Cell cell{batch, campaign(batch),
              label + " batch=" + std::to_string(batch)};
    expectMatchesOracle(cell.result, oracle, batch, cell.label);
    cells.push_back(std::move(cell));
  }
  return cells;
}

}  // namespace vcad::fault::grid
