// Append-only file-segment backend: the disk tier under
// cache::ResultStore (rippled's NodeStore shape). Safe to call from many
// threads; a memory-tier miss probes it while other shards keep serving.
//
// Values live in numbered segment files ("cache-000042.seg") under one
// directory. A store appends one self-checking record to the active
// segment and rotates to a fresh segment past the size budget; the key
// index is in memory, rebuilt by scanning the segments at open. Records
// are never rewritten in place — an overwrite appends a newer record and
// the index points at it (last write wins during the scan).
//
// Record layout (all integers big-endian):
//
//   u32  magic "VCAR"
//   ---- body ------------------------------------------------------------
//   u64  key.hi        (netlist-version digest)
//   u64  key.lo        (namespace/method/args hash)
//   u32  valueLen
//   u8[] value
//   ----------------------------------------------------------------------
//   u64  FNV-1a(body)  — the same hash as the transport's frame checksum
//
// Crash safety: a torn append leaves a short or checksum-failed record at
// the tail of one segment. The open scan stops that segment at the last
// intact record and truncates the damaged suffix away — earlier records
// (and other segments) survive untouched. Every fetch re-verifies the
// record checksum, so corrupt bytes are never served even if the file is
// damaged after open.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "cache/key.hpp"

namespace vcad::cache {

class FileBackend {
 public:
  struct Config {
    std::string directory;  // created if missing
    std::size_t segmentBytes = 8u << 20;  // rotate past this size
    bool syncEveryStore = false;          // fsync per store (durability knob)
  };

  struct Stats {
    std::uint64_t fetches = 0;
    std::uint64_t hits = 0;
    std::uint64_t stores = 0;
    std::uint64_t bytesRead = 0;
    std::uint64_t bytesWritten = 0;
    std::uint64_t corruptRejected = 0;  // checksum-failed reads refused
  };

  /// What the open scan found (and repaired).
  struct RecoveryReport {
    std::size_t segments = 0;
    std::uint64_t liveRecords = 0;
    std::uint64_t droppedBytes = 0;       // damaged suffixes truncated away
    std::size_t truncatedSegments = 0;
  };

  explicit FileBackend(Config config);
  ~FileBackend();

  FileBackend(const FileBackend&) = delete;
  FileBackend& operator=(const FileBackend&) = delete;

  /// Fills `out` and returns true when the key is present and its record
  /// passes the checksum. A checksum failure leaves `out` empty.
  bool fetch(const CacheKey& key, std::vector<std::uint8_t>& out);
  /// Appends the value for a key (an overwrite supersedes older records).
  void store(const CacheKey& key, const std::vector<std::uint8_t>& value);
  /// Flushes every segment to durable storage.
  void sync();
  Stats stats() const;

  const RecoveryReport& recovery() const { return recovery_; }
  std::size_t indexSize() const;

 private:
  struct Location {
    std::size_t segment = 0;
    std::uint64_t bodyOffset = 0;  // first body byte (after the magic)
    std::uint32_t valueLen = 0;
  };

  void openSegments();
  void scanSegment(std::size_t seg);
  void rotateLocked();
  std::string segmentPath(std::size_t seg) const;

  Config config_;
  mutable std::mutex mutex_;
  std::map<CacheKey, Location> index_;
  std::vector<int> fds_;          // one read/append fd per segment
  std::uint64_t activeSize_ = 0;  // bytes in the last (append) segment
  RecoveryReport recovery_;
  Stats stats_;
};

}  // namespace vcad::cache
