// Multi-provider integration: one design whose IP blocks are instantiated
// from three *separate provider processes* (each a MultiTenantProviderServer
// over a Unix-domain socket, spawned with the --matrix catalog), campaigned
// concurrently. Coverage, the coverage curve, the serialized detection
// tables, and the summed client fee ledgers must come out bit-identical to
// the single-provider composition (every block served by one process) and
// to the in-process serial-loopback oracle — the paper's claim that a
// design can mix IP from independent vendors without the composition
// leaking into the results.
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "integration/matrix_harness.hpp"
#include "rmi/provider_process.hpp"

namespace vcad::matrix {
namespace {

constexpr const char* kFamilyArg = "cone:0:7";

gate::FamilySpec familyPoint() {
  return {gate::CircuitFamily::Cone, 0, 7};
}

std::string uniqueSocketPath() {
  static int counter = 0;
  return "matrix_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter++) + ".sock";
}

/// Spawns one matrix provider process per requested socket.
struct ProviderFleet {
  std::vector<std::unique_ptr<chaos::ProviderProcess>> procs;
  std::vector<std::string> paths;

  bool start(int n) {
    for (int p = 0; p < n; ++p) {
      paths.push_back(uniqueSocketPath());
      procs.push_back(std::make_unique<chaos::ProviderProcess>());
      if (!procs.back()->start({"./chaos_provider_server", paths.back(),
                                "--matrix", kFamilyArg})) {
        return false;
      }
    }
    return true;
  }

  void expectCleanExit() {
    for (auto& p : procs) {
      const int status = p->stop();
      EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
          << "provider exit status " << status;
    }
  }
};

CellSpec socketCellSpec(int providers) {
  CellSpec spec;
  spec.family = familyPoint();
  spec.network = net::NetworkProfile::lan();
  spec.chaos = net::FaultProfile::duplicate();
  spec.chaosSeed = 47;
  spec.providers = providers;
  return spec;
}

TEST(MultiProvider, ThreeProcessCompositionIsBitIdentical) {
  const MatrixDesign design = makeMatrixDesign(familyPoint());
  ASSERT_GE(design.blocks.size(), 3u)
      << "the design must spread across all three providers";

  // One process serving every block: the single-provider composition.
  CellResult single;
  {
    ProviderFleet fleet;
    ASSERT_TRUE(fleet.start(1)) << "failed to spawn matrix provider";
    single = runSocketCell(socketCellSpec(1), design, fleet.paths);
    fleet.expectCleanExit();
  }
  // Three processes, blocks round-robin across them.
  CellResult multi;
  {
    ProviderFleet fleet;
    ASSERT_TRUE(fleet.start(3)) << "failed to spawn matrix providers";
    multi = runSocketCell(socketCellSpec(3), design, fleet.paths);
    fleet.expectCleanExit();
  }

  EXPECT_GT(multi.result.faultList.size(), 0u);
  EXPECT_EQ(multi.result.faultList, single.result.faultList);
  EXPECT_EQ(multi.result.detected, single.result.detected);
  EXPECT_EQ(multi.result.detectedAfterPattern,
            single.result.detectedAfterPattern);
  EXPECT_EQ(multi.result.detectionTablesRequested,
            single.result.detectionTablesRequested);
  EXPECT_EQ(multi.tableBytes, single.tableBytes);
  // Fee sums reassociate across three ledgers: micro-cent identity.
  EXPECT_NEAR(multi.clientFeesCents, single.clientFeesCents, 1e-4);
  EXPECT_EQ(multi.remoteErrors, 0u);
  EXPECT_EQ(single.remoteErrors, 0u);

  // And the socket compositions match the in-process loopback oracle —
  // coverage, curve, tables, and fees.
  const CellResult oracle =
      runCell(oracleSpecFor(socketCellSpec(1)), design);
  // providerFeesCents is unreadable across the process boundary; the
  // client-side ledger identity above already covers fees.
  for (const std::string& m : compareToOracle(single, oracle)) {
    if (m.find("provider fees") != std::string::npos) continue;
    ADD_FAILURE() << "single-provider socket run: " << m;
  }
  for (const std::string& m : compareToOracle(multi, oracle)) {
    if (m.find("provider fees") != std::string::npos) continue;
    ADD_FAILURE() << "three-provider socket run: " << m;
  }
}

}  // namespace
}  // namespace vcad::matrix
