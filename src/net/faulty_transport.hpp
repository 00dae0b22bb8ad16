// FaultyTransport: deterministic fault injection for the RMI channel.
//
// The NetworkModel only charges *time* — every message is still delivered
// exactly once. Real Internet paths (the paper's localhost/LAN/WAN table)
// also lose, duplicate, reorder and corrupt packets, and providers stall or
// restart mid-run. This wrapper decides, per transmission attempt, which of
// those faults strike, so the retry/idempotency/recovery machinery in
// RmiChannel and ProviderServer can be exercised by the chaos harness.
//
// Determinism is the whole point: a fault plan is a *pure function* of
// (transport seed, request idempotency key, attempt number). It does not
// consume a shared random stream, so the fault schedule is identical across
// runs and across campaign injection-worker counts, and any chaos-run
// failure replays exactly from its seed.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "obs/metrics.hpp"

namespace vcad::net {

// --- message framing ---------------------------------------------------

/// FNV-1a 64-bit hash of a byte block, one byte per step (the result
/// store's key digest, cache::KeyBuilder, is defined by it).
std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes);

/// The frame checksum: FNV-1a's offset basis and multiply, folding eight
/// little-endian bytes per step, the tail (size % 8 bytes) one per step,
/// then the size. Each step is a bijection of the state, so any damage
/// confined to one 8-byte word (or one tail byte) always changes the result.
std::uint64_t frameChecksum(const std::uint8_t* data, std::size_t size);

/// Bytes sealFrame() appends.
inline constexpr std::size_t kFrameChecksumBytes = 8;

/// Appends the 8-byte frameChecksum, big-endian, so the receiver can detect
/// corruption deterministically (flipped bits never silently unmarshal
/// into garbage).
void sealFrame(std::vector<std::uint8_t>& bytes);

/// Verifies and strips the trailing checksum; returns false (leaving the
/// buffer unspecified) when the frame is short or the checksum mismatches.
bool openFrame(std::vector<std::uint8_t>& bytes);

// --- fault profiles ------------------------------------------------------

/// Per-message fault probabilities for one unreliable path. Each shipped
/// profile stresses one failure mode hard enough that a multi-call campaign
/// is guaranteed to hit it; `lossy()` combines them all.
struct FaultProfile {
  std::string name = "ideal";
  double dropRequestProb = 0.0;    // request vanishes before the server
  double dropResponseProb = 0.0;   // server executed, response vanishes
  double duplicateRequestProb = 0.0;  // request delivered twice
  double reorderProb = 0.0;        // response overtaken: arrives late
  double reorderDelaySec = 0.0;    // how late (past the timeout => stale)
  double corruptRequestProb = 0.0;   // bit flips in the request frame
  double corruptResponseProb = 0.0;  // bit flips in the response frame
  double stallProb = 0.0;          // provider freezes while holding the call
  double stallSec = 0.0;           // how long the freeze lasts

  bool ideal() const {
    return dropRequestProb <= 0 && dropResponseProb <= 0 &&
           duplicateRequestProb <= 0 && reorderProb <= 0 &&
           corruptRequestProb <= 0 && corruptResponseProb <= 0 &&
           stallProb <= 0;
  }

  static FaultProfile none();       // no faults (ideal transport)
  static FaultProfile drop();       // requests and responses vanish
  static FaultProfile duplicate();  // requests delivered twice
  static FaultProfile reorder();    // responses arrive stale
  static FaultProfile corrupt();    // frames arrive damaged
  static FaultProfile stall();      // provider freezes past the timeout
  static FaultProfile lossy();      // everything at once, moderate rates

  /// Every non-ideal shipped profile (what the chaos harness sweeps).
  static std::vector<FaultProfile> shipped();
};

/// The faults striking one transmission attempt of one logical request.
struct FaultPlan {
  bool dropRequest = false;
  bool duplicateRequest = false;
  bool corruptRequest = false;
  bool dropResponse = false;
  bool corruptResponse = false;
  bool stall = false;
  double stallSec = 0.0;        // charged to the client's wait
  double reorderDelaySec = 0.0;  // extra response delay (0 = in order)

  bool clean() const {
    return !dropRequest && !duplicateRequest && !corruptRequest &&
           !dropResponse && !corruptResponse && !stall &&
           reorderDelaySec <= 0.0;
  }
};

/// Counters of injected faults (what actually struck, not probabilities).
struct TransportStats {
  std::uint64_t attempts = 0;
  std::uint64_t droppedRequests = 0;
  std::uint64_t droppedResponses = 0;
  std::uint64_t duplicatedRequests = 0;
  std::uint64_t corruptedRequests = 0;
  std::uint64_t corruptedResponses = 0;
  std::uint64_t reorders = 0;
  std::uint64_t stalls = 0;

  std::uint64_t injected() const {
    return droppedRequests + droppedResponses + duplicatedRequests +
           corruptedRequests + corruptedResponses + reorders + stalls;
  }
};

class FaultyTransport {
 public:
  explicit FaultyTransport(FaultProfile profile, std::uint64_t seed = 0x5eed);

  const FaultProfile& profile() const { return profile_; }
  std::uint64_t seed() const { return seed_; }

  /// Fault plan for the `attempt`-th transmission (1-based) of the logical
  /// request identified by `key`. Pure function of (seed, key, attempt);
  /// also updates the injection counters.
  FaultPlan plan(std::uint64_t key, std::uint32_t attempt);

  /// Same plan without touching the counters (for determinism checks).
  FaultPlan peek(std::uint64_t key, std::uint32_t attempt) const;

  /// Deterministically flips 1..4 payload bytes in place, derived from the
  /// same (key, attempt) stream, never producing a byte-identical frame.
  /// `channel` disambiguates the request (0) and response (1) directions.
  void corrupt(std::vector<std::uint8_t>& bytes, std::uint64_t key,
               std::uint32_t attempt, std::uint32_t channel) const;

  TransportStats stats() const;
  void resetStats();

 private:
  FaultProfile profile_;
  std::uint64_t seed_;
  mutable std::mutex mutex_;
  TransportStats stats_;
  obs::Registry::Attachment obs_;  // transport.* read from stats_
};

}  // namespace vcad::net
