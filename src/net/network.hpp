// Deterministic network simulation for the client/server channel.
//
// The paper's experiments ran over three environments: both endpoints on one
// (loaded) host, a campus LAN, and a WAN between Bologna and Padova. This
// repo has no real network, so the channel charges *simulated* wall-clock
// time per message from a calibrated profile: per-message latency, byte
// bandwidth, and bounded jitter. The LOCALHOST profile additionally models
// host sharing: server compute contends with the client for the same CPU,
// which reproduces the paper's observation that the fully-remote-module run
// was *slower* on localhost than over the LAN.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>

#include "core/rng.hpp"

namespace vcad::net {

struct NetworkProfile {
  std::string name;
  double oneWayLatencySec = 0.0;  // per message
  double bandwidthBps = 1e12;     // payload bytes per second
  double jitterFraction = 0.0;    // uniform +/- fraction of latency
  bool sharedHost = false;        // endpoints contend for one CPU
  double contentionFactor = 1.0;  // extra wall time per second of server CPU
                                  // when sharedHost

  /// Both endpoints on one machine: negligible wire time, but server CPU
  /// seconds also stall the client (factor ~1 extra: the paper's "more
  /// heavily loaded" single machine).
  static NetworkProfile localhost();
  /// Campus LAN under normal working-hours load.
  static NetworkProfile lan();
  /// Long-distance Internet path.
  static NetworkProfile wan();
  /// Zero-cost channel for unit tests.
  static NetworkProfile ideal();
};

/// Charges simulated time per message. Deterministic: jitter comes from a
/// seeded generator, so a run is exactly reproducible.
class NetworkModel {
 public:
  explicit NetworkModel(NetworkProfile profile, std::uint64_t seed = 0x5eed);

  const NetworkProfile& profile() const { return profile_; }

  /// Simulated one-way transfer time of a message with `bytes` payload.
  double messageDelaySec(std::size_t bytes);

  /// Wall-clock cost of `cpuSec` seconds of server compute, as seen by the
  /// client: on a shared host the client is stalled for the compute plus a
  /// contention penalty; across a real network the client still waits for
  /// the (synchronous) call but pays no contention.
  double serverComputeWallSec(double cpuSec) const;

 private:
  NetworkProfile profile_;
  std::mutex mutex_;
  Rng rng_;
};

/// Thread-safe accumulator of simulated wall-clock seconds.
class VirtualClock {
 public:
  void advance(double seconds);
  double elapsedSec() const;
  void reset();

 private:
  mutable std::mutex mutex_;
  double elapsed_ = 0.0;
};

}  // namespace vcad::net
