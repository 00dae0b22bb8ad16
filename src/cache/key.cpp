#include "cache/key.hpp"

#include "gate/netlist_io.hpp"

namespace vcad::cache {

namespace {
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;
}

KeyBuilder& KeyBuilder::mixBytes(const std::uint8_t* data, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= data[i];
    h_ *= kFnvPrime;
  }
  return *this;
}

KeyBuilder& KeyBuilder::mixU32(std::uint32_t v) {
  std::uint8_t b[4];
  for (int i = 0; i < 4; ++i) {
    b[i] = static_cast<std::uint8_t>(v >> (8 * (3 - i)));
  }
  return mixBytes(b, sizeof(b));
}

KeyBuilder& KeyBuilder::mixU64(std::uint64_t v) {
  std::uint8_t b[8];
  for (int i = 0; i < 8; ++i) {
    b[i] = static_cast<std::uint8_t>(v >> (8 * (7 - i)));
  }
  return mixBytes(b, sizeof(b));
}

std::uint64_t netlistDigest(const gate::Netlist& nl) {
  const std::string text = gate::netlistToString(nl);
  KeyBuilder kb;
  kb.mixBytes(reinterpret_cast<const std::uint8_t*>(text.data()), text.size());
  // Digest 0 means "unversioned — do not cache"; remap the (astronomically
  // unlikely) genuine zero so a real netlist always has a live digest.
  const std::uint64_t d = kb.digest();
  return d == 0 ? 1 : d;
}

CacheKey resultKey(std::uint64_t netlistDigest, std::uint64_t tenantNamespace,
                   std::uint32_t method,
                   std::span<const std::uint8_t> argBytes) {
  CacheKey key;
  key.hi = netlistDigest;
  KeyBuilder kb;
  kb.mixU64(tenantNamespace).mixU32(method).mixBytes(argBytes);
  key.lo = kb.digest();
  return key;
}

}  // namespace vcad::cache
