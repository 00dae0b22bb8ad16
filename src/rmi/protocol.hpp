// RMI protocol messages between the IP user (client) and IP providers
// (servers).
//
// Every request/response is fully marshalled to bytes before it "travels",
// so the network model charges bandwidth for real message sizes, and the
// security filter can inspect exactly what would leave the user's machine.
//
// Argument payloads are *tagged*: each field carries a category byte. The
// category set deliberately includes only port-level information (signal
// values, pattern buffers, scalar parameters) plus session/component
// bookkeeping — the mechanism behind the paper's claim that "JavaCAD
// transmits only [port] information over the RMI channel". A DesignGraph
// category exists so tests and examples can demonstrate the filter rejecting
// an attempt to leak design structure.
#pragma once

#include <cstdint>
#include <string>

#include "net/serialize.hpp"
#include "net/transport.hpp"

namespace vcad::rmi {

using SessionId = std::uint64_t;
using InstanceId = std::uint64_t;

enum class MethodId : std::uint32_t {
  OpenSession = 1,
  CloseSession,
  GetCatalog,       // -> component spec summaries
  Instantiate,      // component name + parameters -> instance id
  EvalFunction,     // instance inputs -> outputs (fully remote module mode)
  EstimatePower,    // pattern buffer -> average mW (gate-level toggle count)
  EstimateTiming,   // -> critical path ns (needs gate-level structure)
  EstimateArea,     // -> um^2
  GetFaultList,     // -> symbolic fault list
  GetDetectionTable,  // input pattern -> detection table
  SeqReset,         // sequential extension: reset good/faulty shadow machine
  SeqStep,          // sequential extension: clock a machine one cycle
  Negotiate,        // interactive estimator negotiation (constraints -> offer)
  GetDetectionTables,  // batched: a buffer of input configurations -> one
                       // detection table per entry, one message pair total
                       // (the pattern-buffering mechanism applied to fault
                       // characterization)
};

std::string toString(MethodId m);

/// Job-queue lane for a method, stamped into the request frame header by
/// the client channel (the per-method job types of the rippled JobQueue
/// idiom). Session control outranks everything so sessions can always be
/// opened and closed under load; bulk buffer methods yield to single-shot
/// simulation work.
net::JobPriority priorityFor(MethodId m);

/// Argument field categories. The marshalling filter admits only the
/// port-level / bookkeeping ones.
enum class ArgTag : std::uint8_t {
  U64 = 1,
  Double = 2,
  Word = 3,         // a signal value at the component's own ports
  WordVector = 4,   // a pattern buffer for the component's own inputs
  String = 5,       // component/parameter names
  DesignGraph = 13,  // FORBIDDEN: information about the rest of the design
};

/// Tagged argument writer/reader. All request arguments must go through
/// this, which is what makes the marshalling filter meaningful.
class Args {
 public:
  Args() = default;
  explicit Args(net::ByteBuffer buf) : buf_(std::move(buf)) {}

  Args& addU64(std::uint64_t v);
  Args& addDouble(double v);
  Args& addWord(const Word& w);
  Args& addWordVector(const std::vector<Word>& ws);
  Args& addString(const std::string& s);
  /// Deliberately present so misbehaving client code can *try* to ship
  /// design-structure information; the filter rejects it before transmission.
  Args& addDesignGraph(const std::string& serializedStructure);

  std::uint64_t takeU64();
  double takeDouble();
  Word takeWord();
  std::vector<Word> takeWordVector();
  std::string takeString();

  const net::ByteBuffer& buffer() const { return buf_; }
  net::ByteBuffer& buffer() { return buf_; }

 private:
  void expectTag(ArgTag t);
  net::ByteBuffer buf_;
};

struct Request {
  SessionId session = 0;
  InstanceId instance = 0;
  MethodId method = MethodId::OpenSession;
  /// Unique id of the *logical* call, shared by every retransmission of it.
  /// The provider's replay cache keys on this, so a retried non-idempotent
  /// method (Instantiate, EvalFunction, EstimatePower, ...) is answered from
  /// the cache instead of executing — and billing — twice. 0 = unassigned
  /// (the channel stamps one before the request ships).
  std::uint64_t idempotencyKey = 0;
  /// Trace span-context id: the client channel's span id for this call,
  /// shipped so the provider's dispatch span can stitch into the same
  /// cross-domain trace (obs::SpanScope adoption). 0 = untraced. Carried in
  /// every frame (fixed 8 bytes) so traced and untraced runs ship
  /// byte-count-identical messages; has no effect on execution or billing.
  std::uint64_t spanContext = 0;
  std::string component;  // for Instantiate / GetCatalog
  Args args;

  net::ByteBuffer marshal() const;
  static Request unmarshal(net::ByteBuffer& buf);
};

/// True for methods whose re-execution is observable (server-side state
/// mutation or fee charge); these are the methods the provider deduplicates
/// by idempotency key. Pure queries (GetCatalog, GetFaultList, Negotiate,
/// session management) are safe to replay.
bool isNonIdempotent(MethodId m);

enum class Status : std::uint8_t {
  Ok = 0,
  Error,
  SecurityViolation,
  NotFound,
  PaymentRequired,
  UnknownSession,    // session lost (e.g. provider restart) — recoverable
  TransportFailure,  // client-side: retries exhausted, channel declared dead
};

std::string toString(Status s);

struct Response {
  Status status = Status::Ok;
  std::string error;
  net::ByteBuffer payload;
  double feeCents = 0.0;  // charged by this call (provider accounting)
  /// Set by the provider when this response was served from the replay
  /// cache (the original execution already charged any fee, which this
  /// response still reports so the client's ledger converges).
  bool replayed = false;
  /// Set when the payload came from the content-addressed result store
  /// rather than a fresh execution. Unlike `replayed`, a cached response
  /// charges its fee normally — the fee licenses the result, not the
  /// provider's CPU time.
  bool cached = false;
  /// Netlist-version digest of the instance that produced this response
  /// (0 when the method has no versioned content, e.g. session control).
  /// Clients use it to scope their own caches: a digest change after a
  /// provider restart means every previously fetched result is stale.
  std::uint64_t version = 0;

  bool ok() const { return status == Status::Ok; }

  net::ByteBuffer marshal() const&;
  /// The same bytes, with the payload moved into the message instead of
  /// copied: the header is inserted ahead of it in place, leaving room for
  /// the frame checksum the transports append. A payload with kHeadroom
  /// spare capacity is never reallocated on the way to the wire.
  net::ByteBuffer marshal() &&;
  static Response unmarshal(net::ByteBuffer& buf);

  /// Spare capacity marshal() && needs behind an ok response's payload: the
  /// 27-byte header (status, two flags, version, empty error, fee, payload
  /// length) plus the 8-byte frame checksum.
  static constexpr std::size_t kHeadroom = 3 + 8 + 4 + 8 + 4 + 8;

  static Response failure(Status s, std::string message);
};

}  // namespace vcad::rmi
