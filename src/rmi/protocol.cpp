#include "rmi/protocol.hpp"

#include <stdexcept>

#include "net/faulty_transport.hpp"

namespace vcad::rmi {

std::string toString(MethodId m) {
  switch (m) {
    case MethodId::OpenSession:
      return "OpenSession";
    case MethodId::CloseSession:
      return "CloseSession";
    case MethodId::GetCatalog:
      return "GetCatalog";
    case MethodId::Instantiate:
      return "Instantiate";
    case MethodId::EvalFunction:
      return "EvalFunction";
    case MethodId::EstimatePower:
      return "EstimatePower";
    case MethodId::EstimateTiming:
      return "EstimateTiming";
    case MethodId::EstimateArea:
      return "EstimateArea";
    case MethodId::GetFaultList:
      return "GetFaultList";
    case MethodId::GetDetectionTable:
      return "GetDetectionTable";
    case MethodId::SeqReset:
      return "SeqReset";
    case MethodId::SeqStep:
      return "SeqStep";
    case MethodId::Negotiate:
      return "Negotiate";
    case MethodId::GetDetectionTables:
      return "GetDetectionTables";
  }
  return "?";
}

net::JobPriority priorityFor(MethodId m) {
  switch (m) {
    case MethodId::OpenSession:
    case MethodId::CloseSession:
      return net::JobPriority::Control;
    case MethodId::GetCatalog:
    case MethodId::GetFaultList:
    case MethodId::Negotiate:
      return net::JobPriority::Query;
    case MethodId::Instantiate:
    case MethodId::EvalFunction:
    case MethodId::EstimateTiming:
    case MethodId::EstimateArea:
    case MethodId::GetDetectionTable:
    case MethodId::SeqReset:
    case MethodId::SeqStep:
      return net::JobPriority::Compute;
    case MethodId::EstimatePower:      // pattern buffer
    case MethodId::GetDetectionTables:  // batched tables
      return net::JobPriority::Batch;
  }
  return net::JobPriority::Compute;
}

bool isNonIdempotent(MethodId m) {
  switch (m) {
    case MethodId::Instantiate:     // creates an instance + charges a fee
    case MethodId::EvalFunction:    // charges per eval; records the pattern
                                    // in the server-side history (FullyRemote
                                    // buffering)
    case MethodId::EstimatePower:   // bills per pattern in the batch
    case MethodId::EstimateTiming:  // per-query fee
    case MethodId::EstimateArea:    // per-query fee
    case MethodId::GetDetectionTable:   // per-table fee
    case MethodId::GetDetectionTables:  // per-table fee x batch
    case MethodId::SeqReset:  // mutates the shadow-machine state
    case MethodId::SeqStep:   // clocks the machine + charges per eval
      return true;
    case MethodId::OpenSession:  // deduplicated separately (no session yet)
    case MethodId::CloseSession:
    case MethodId::GetCatalog:
    case MethodId::GetFaultList:
    case MethodId::Negotiate:
      return false;
  }
  return false;
}

std::string toString(Status s) {
  switch (s) {
    case Status::Ok:
      return "Ok";
    case Status::Error:
      return "Error";
    case Status::SecurityViolation:
      return "SecurityViolation";
    case Status::NotFound:
      return "NotFound";
    case Status::PaymentRequired:
      return "PaymentRequired";
    case Status::UnknownSession:
      return "UnknownSession";
    case Status::TransportFailure:
      return "TransportFailure";
  }
  return "?";
}

// --- Args ------------------------------------------------------------------

Args& Args::addU64(std::uint64_t v) {
  buf_.writeU8(static_cast<std::uint8_t>(ArgTag::U64));
  buf_.writeU64(v);
  return *this;
}

Args& Args::addDouble(double v) {
  buf_.writeU8(static_cast<std::uint8_t>(ArgTag::Double));
  buf_.writeDouble(v);
  return *this;
}

Args& Args::addWord(const Word& w) {
  buf_.writeU8(static_cast<std::uint8_t>(ArgTag::Word));
  buf_.writeWord(w);
  return *this;
}

Args& Args::addWordVector(const std::vector<Word>& ws) {
  buf_.writeU8(static_cast<std::uint8_t>(ArgTag::WordVector));
  buf_.writeWordVector(ws);
  return *this;
}

Args& Args::addString(const std::string& s) {
  buf_.writeU8(static_cast<std::uint8_t>(ArgTag::String));
  buf_.writeString(s);
  return *this;
}

Args& Args::addDesignGraph(const std::string& serializedStructure) {
  buf_.writeU8(static_cast<std::uint8_t>(ArgTag::DesignGraph));
  buf_.writeString(serializedStructure);
  return *this;
}

void Args::expectTag(ArgTag t) {
  const auto got = static_cast<ArgTag>(buf_.readU8());
  if (got != t) {
    throw std::runtime_error("Args: expected tag " +
                             std::to_string(static_cast<int>(t)) + ", got " +
                             std::to_string(static_cast<int>(got)));
  }
}

std::uint64_t Args::takeU64() {
  expectTag(ArgTag::U64);
  return buf_.readU64();
}

double Args::takeDouble() {
  expectTag(ArgTag::Double);
  return buf_.readDouble();
}

Word Args::takeWord() {
  expectTag(ArgTag::Word);
  return buf_.readWord();
}

std::vector<Word> Args::takeWordVector() {
  expectTag(ArgTag::WordVector);
  return buf_.readWordVector();
}

std::string Args::takeString() {
  expectTag(ArgTag::String);
  return buf_.readString();
}

// --- Request / Response ------------------------------------------------

net::ByteBuffer Request::marshal() const {
  net::ByteBuffer out;
  out.writeU64(session);
  out.writeU64(instance);
  out.writeU32(static_cast<std::uint32_t>(method));
  out.writeU64(idempotencyKey);
  out.writeU64(spanContext);
  out.writeString(component);
  out.writeBytes(args.buffer().bytes());
  return out;
}

Request Request::unmarshal(net::ByteBuffer& buf) {
  Request r;
  r.session = buf.readU64();
  r.instance = buf.readU64();
  r.method = static_cast<MethodId>(buf.readU32());
  r.idempotencyKey = buf.readU64();
  r.spanContext = buf.readU64();
  r.component = buf.readString();
  r.args = Args(net::ByteBuffer(buf.readBytes()));
  return r;
}

namespace {

/// Everything marshal() writes ahead of the payload bytes.
net::ByteBuffer marshalHeader(const Response& r) {
  net::ByteBuffer out;
  out.writeU8(static_cast<std::uint8_t>(r.status));
  out.writeBool(r.replayed);
  out.writeBool(r.cached);
  out.writeU64(r.version);
  out.writeString(r.error);
  out.writeDouble(r.feeCents);
  out.writeU32(static_cast<std::uint32_t>(r.payload.size()));
  return out;
}

}  // namespace

net::ByteBuffer Response::marshal() const& {
  net::ByteBuffer out = marshalHeader(*this);
  out.append(payload.bytes());
  return out;
}

net::ByteBuffer Response::marshal() && {
  const net::ByteBuffer head = marshalHeader(*this);
  std::vector<std::uint8_t> bytes = payload.release();
  bytes.reserve(head.size() + bytes.size() + net::kFrameChecksumBytes);
  bytes.insert(bytes.begin(), head.bytes().begin(), head.bytes().end());
  return net::ByteBuffer(std::move(bytes));
}

Response Response::unmarshal(net::ByteBuffer& buf) {
  Response r;
  r.status = static_cast<Status>(buf.readU8());
  r.replayed = buf.readBool();
  r.cached = buf.readBool();
  r.version = buf.readU64();
  r.error = buf.readString();
  r.feeCents = buf.readDouble();
  r.payload = net::ByteBuffer(buf.readBytes());
  return r;
}

Response Response::failure(Status s, std::string message) {
  Response r;
  r.status = s;
  r.error = std::move(message);
  return r;
}

}  // namespace vcad::rmi
