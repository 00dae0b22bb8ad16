// Tenant identity, quota, and usage accounting for the provider's request
// path (ProviderCore).
//
// A tenant is whoever a request frame's tenantId says it is (the channel
// stamps it; 0 is the anonymous default). Each tenant gets its own
// ServerEndpoint shard — its own sessions, fee ledger, and replay cache —
// so per-tenant outcomes are bit-identical to a dedicated single-tenant
// server, and a quota decision depends only on that tenant's own executed
// history (deterministic: independent of scheduling or other tenants).
#pragma once

#include <cstdint>

namespace vcad::rmi {

using TenantId = std::uint64_t;

/// One tenant's executed history and admission outcomes.
struct TenantUsage {
  double feesCents = 0.0;          // fees charged by executed dispatches
  std::uint64_t billedCalls = 0;   // dispatches that charged a nonzero fee
  std::uint64_t dispatches = 0;    // requests that reached the endpoint
  std::uint64_t quotaRejected = 0;  // QuotaExceeded verdicts returned
  std::uint64_t shed = 0;           // TooManyPending/Overloaded verdicts
  std::uint64_t connRejected = 0;   // ConnectionLimit verdicts (listener
                                    // hardening: per-tenant connection cap)
};

/// Admission budget for one tenant. A request is admitted while the
/// tenant's executed usage is strictly below every configured bound;
/// crossing a bound makes every subsequent request a deterministic
/// FrameStatus::QuotaExceeded rejection.
struct TenantQuota {
  double maxFeeCents = -1.0;         // < 0: unlimited
  std::uint64_t maxBilledCalls = 0;  // 0: unlimited

  /// The deterministic admission predicate: true while `usage` is within
  /// every bound. Depends only on this tenant's executed history.
  bool admits(const TenantUsage& usage) const {
    return (maxFeeCents < 0.0 || usage.feesCents < maxFeeCents) &&
           (maxBilledCalls == 0 || usage.billedCalls < maxBilledCalls);
  }
};

}  // namespace vcad::rmi
