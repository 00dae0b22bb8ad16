// Content-addressed cache keys for the result store.
//
// A result (detection table, estimation answer) is a pure function of
// (netlist version, method, argument bytes). The key splits that address
// across two 64-bit halves:
//
//   hi — the netlist-version digest: FNV-1a over the netlist's canonical
//        text serialization. A provider that restarts with an unchanged
//        netlist re-derives the same digest, so warmed entries keep
//        hitting; a changed netlist produces a different digest and every
//        old entry becomes unreachable — versioned invalidation with no
//        explicit flush pass.
//   lo — FNV-1a over (tenant namespace, method id, marshalled argument
//        bytes): the same idempotency-key hashing discipline the RMI
//        channel already uses, extended with the namespace so tenants
//        sharing one store never see each other's entries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace vcad::gate {
class Netlist;
}

namespace vcad::cache {

struct CacheKey {
  std::uint64_t hi = 0;  // content half: the netlist-version digest
  std::uint64_t lo = 0;  // request half: namespace + method + argument bytes

  bool operator==(const CacheKey& o) const { return hi == o.hi && lo == o.lo; }
  bool operator!=(const CacheKey& o) const { return !(*this == o); }
  bool operator<(const CacheKey& o) const {
    return hi != o.hi ? hi < o.hi : lo < o.lo;
  }
};

/// Incremental FNV-1a 64-bit hasher. Hashing one contiguous block through
/// mixBytes produces exactly net::fnv1a of that block; the fixed-width
/// mixers feed the same stream big-endian so keys are
/// platform-independent.
class KeyBuilder {
 public:
  KeyBuilder& mixU32(std::uint32_t v);
  KeyBuilder& mixU64(std::uint64_t v);
  KeyBuilder& mixBytes(const std::uint8_t* data, std::size_t n);
  KeyBuilder& mixBytes(std::span<const std::uint8_t> bytes) {
    return mixBytes(bytes.data(), bytes.size());
  }
  std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;  // FNV-1a offset basis
};

/// The netlist-version digest: FNV-1a over gate::netlistToString(nl).
/// Deterministic across processes and restarts for a structurally
/// identical netlist.
std::uint64_t netlistDigest(const gate::Netlist& nl);

/// Assembles the full content address for one request.
CacheKey resultKey(std::uint64_t netlistDigest, std::uint64_t tenantNamespace,
                   std::uint32_t method,
                   std::span<const std::uint8_t> argBytes);

}  // namespace vcad::cache
