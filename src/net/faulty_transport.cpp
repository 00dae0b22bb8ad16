#include "net/faulty_transport.hpp"

#include "core/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace vcad::net {

namespace {

/// TransportStats under its registry names (transport.*).
void report(const TransportStats& s, obs::Registry::Tally& t) {
  t.count("transport.attempts", s.attempts);
  t.count("transport.droppedRequests", s.droppedRequests);
  t.count("transport.duplicatedRequests", s.duplicatedRequests);
  t.count("transport.corruptedRequests", s.corruptedRequests);
  t.count("transport.droppedResponses", s.droppedResponses);
  t.count("transport.corruptedResponses", s.corruptedResponses);
  t.count("transport.stalls", s.stalls);
  t.count("transport.reorders", s.reorders);
}

}  // namespace

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

void sealFrame(std::vector<std::uint8_t>& bytes) {
  const std::uint64_t sum = fnv1a(bytes);
  for (int shift = 56; shift >= 0; shift -= 8) {
    bytes.push_back(static_cast<std::uint8_t>(sum >> shift));
  }
}

bool openFrame(std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < 8) return false;
  std::uint64_t claimed = 0;
  for (std::size_t i = bytes.size() - 8; i < bytes.size(); ++i) {
    claimed = (claimed << 8) | bytes[i];
  }
  bytes.resize(bytes.size() - 8);
  return fnv1a(bytes) == claimed;
}

// --- profiles --------------------------------------------------------------

FaultProfile FaultProfile::none() { return FaultProfile{}; }

FaultProfile FaultProfile::drop() {
  FaultProfile p;
  p.name = "drop";
  p.dropRequestProb = 0.15;
  p.dropResponseProb = 0.15;
  return p;
}

FaultProfile FaultProfile::duplicate() {
  FaultProfile p;
  p.name = "duplicate";
  p.duplicateRequestProb = 0.35;
  return p;
}

FaultProfile FaultProfile::reorder() {
  FaultProfile p;
  p.name = "reorder";
  p.reorderProb = 0.25;
  p.reorderDelaySec = 1.0;  // past any sane per-attempt timeout => stale
  return p;
}

FaultProfile FaultProfile::corrupt() {
  FaultProfile p;
  p.name = "corrupt";
  p.corruptRequestProb = 0.12;
  p.corruptResponseProb = 0.12;
  return p;
}

FaultProfile FaultProfile::stall() {
  FaultProfile p;
  p.name = "stall";
  p.stallProb = 0.2;
  p.stallSec = 2.0;
  return p;
}

FaultProfile FaultProfile::lossy() {
  FaultProfile p;
  p.name = "lossy";
  p.dropRequestProb = 0.06;
  p.dropResponseProb = 0.06;
  p.duplicateRequestProb = 0.1;
  p.reorderProb = 0.05;
  p.reorderDelaySec = 1.0;
  p.corruptRequestProb = 0.05;
  p.corruptResponseProb = 0.05;
  p.stallProb = 0.05;
  p.stallSec = 2.0;
  return p;
}

std::vector<FaultProfile> FaultProfile::shipped() {
  return {drop(), duplicate(), reorder(), corrupt(), stall(), lossy()};
}

// --- transport ---------------------------------------------------------

namespace {

/// SplitMix64-style finalizer mixing the identifying triple into one seed.
std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  std::uint64_t z = a;
  z += 0x9e3779b97f4a7c15ULL * (b + 1);
  z += 0xbf58476d1ce4e5b9ULL * (c + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

FaultyTransport::FaultyTransport(FaultProfile profile, std::uint64_t seed)
    : profile_(std::move(profile)),
      seed_(seed),
      obs_(obs::Registry::global(), [this](obs::Registry::Tally& t) {
        std::lock_guard<std::mutex> lock(mutex_);
        report(stats_, t);
      }) {}

FaultPlan FaultyTransport::peek(std::uint64_t key,
                                std::uint32_t attempt) const {
  // One private generator per (key, attempt): draws happen in a fixed order,
  // so the plan is reproducible regardless of which thread asks, or whether
  // other requests were planned in between.
  Rng rng(mix(seed_, key, attempt));
  FaultPlan plan;
  plan.dropRequest = rng.chance(profile_.dropRequestProb);
  plan.duplicateRequest = rng.chance(profile_.duplicateRequestProb);
  plan.corruptRequest = rng.chance(profile_.corruptRequestProb);
  plan.dropResponse = rng.chance(profile_.dropResponseProb);
  plan.corruptResponse = rng.chance(profile_.corruptResponseProb);
  plan.stall = rng.chance(profile_.stallProb);
  if (plan.stall) plan.stallSec = profile_.stallSec;
  if (rng.chance(profile_.reorderProb)) {
    plan.reorderDelaySec = profile_.reorderDelaySec;
  }
  return plan;
}

FaultPlan FaultyTransport::plan(std::uint64_t key, std::uint32_t attempt) {
  const FaultPlan p = peek(key, attempt);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.attempts;
    if (p.dropRequest) ++stats_.droppedRequests;
    if (p.duplicateRequest) ++stats_.duplicatedRequests;
    if (p.corruptRequest) ++stats_.corruptedRequests;
    if (p.dropResponse) ++stats_.droppedResponses;
    if (p.corruptResponse) ++stats_.corruptedResponses;
    if (p.stall) ++stats_.stalls;
    if (p.reorderDelaySec > 0.0) ++stats_.reorders;
  }
  const bool struck = p.dropRequest || p.duplicateRequest || p.corruptRequest ||
                      p.dropResponse || p.corruptResponse || p.stall ||
                      p.reorderDelaySec > 0.0;
  obs::Tracer& tracer = obs::Tracer::global();
  if (struck && tracer.enabled()) {
    tracer.instant("transport.fault", "transport",
                   {{"attempt", static_cast<double>(attempt)},
                    {"dropReq", p.dropRequest ? 1.0 : 0.0},
                    {"dupReq", p.duplicateRequest ? 1.0 : 0.0},
                    {"corrupt", (p.corruptRequest || p.corruptResponse) ? 1.0
                                                                        : 0.0},
                    {"dropResp", p.dropResponse ? 1.0 : 0.0},
                    {"stallOrReorder",
                     (p.stall || p.reorderDelaySec > 0.0) ? 1.0 : 0.0}});
  }
  return p;
}

void FaultyTransport::corrupt(std::vector<std::uint8_t>& bytes,
                              std::uint64_t key, std::uint32_t attempt,
                              std::uint32_t channel) const {
  if (bytes.empty()) return;
  Rng rng(mix(seed_ ^ 0xdeadbeefULL, key,
              (static_cast<std::uint64_t>(channel) << 32) | attempt));
  const int flips = 1 + static_cast<int>(rng.below(4));
  for (int i = 0; i < flips; ++i) {
    const std::size_t pos = rng.below(bytes.size());
    // XOR with a non-zero mask always changes the byte, so a "corrupted"
    // frame can never accidentally equal the original.
    bytes[pos] ^= static_cast<std::uint8_t>(1 + rng.below(255));
  }
}

TransportStats FaultyTransport::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void FaultyTransport::resetStats() {
  obs_.fold([this](obs::Registry::Tally& t) {
    std::lock_guard<std::mutex> lock(mutex_);
    report(stats_, t);
    stats_ = TransportStats{};
  });
}

}  // namespace vcad::net
