// Detection tables: the dynamic, per-pattern testability information an IP
// provider returns during virtual fault simulation.
//
// For one input configuration of a component, the table lists every
// erroneous output pattern the component could produce under one of its
// internal (collapsed, symbolically named) stuck-at faults, together with
// the faults causing each error. The table is a local, IP-sensitive
// *parameter* (it derives from ParamValue), independently evaluable by the
// provider: it reveals input/output behaviour only, never structure.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cache/result_store.hpp"
#include "core/estimation.hpp"
#include "fault/model.hpp"
#include "gate/packed_eval.hpp"
#include "net/serialize.hpp"

namespace vcad::fault {

class DetectionTable final : public ParamValue {
 public:
  struct Row {
    Word faultyOutput;
    std::vector<std::string> faults;  // symbolic names
  };

  DetectionTable() = default;
  DetectionTable(Word inputs, Word faultFreeOutput, std::vector<Row> rows)
      : inputs_(std::move(inputs)),
        faultFree_(std::move(faultFreeOutput)),
        rows_(std::move(rows)) {}

  const Word& inputs() const { return inputs_; }
  const Word& faultFreeOutput() const { return faultFree_; }
  const std::vector<Row>& rows() const { return rows_; }

  /// The faulty output a given symbolic fault would produce, or nullptr when
  /// the fault is not excited by this input configuration.
  const Word* faultyOutputFor(const std::string& symbol) const;

  /// All faults producing a given erroneous output (empty when absent).
  std::vector<std::string> faultsFor(const Word& faultyOutput) const;

  std::size_t excitedFaultCount() const;

  std::string toString() const override;

  /// The one writer of the wire format decode() reads: serialize() and the
  /// packed builder both lay tables out through it. Call header() once,
  /// then per row row() followed by one fault() per fault. Words go as
  /// ByteBuffer::writeWord, counts as big-endian u32, names as strings.
  class Writer {
   public:
    explicit Writer(net::ByteBuffer& buf) : buf_(buf) {}
    void header(const Word& inputs, const Word& faultFree, std::uint32_t rows);
    void row(const Word& faultyOutput, std::uint32_t faults);
    void fault(const std::string& name);

    /// Bytes header(), row() and fault() write, for sizing a buffer.
    static std::size_t headerSize(const Word& inputs, const Word& faultFree) {
      return net::ByteBuffer::wordSize(inputs.width()) +
             net::ByteBuffer::wordSize(faultFree.width()) + 4;
    }
    static std::size_t rowSize(const Word& faultyOutput) {
      return net::ByteBuffer::wordSize(faultyOutput.width()) + 4;
    }
    static std::size_t faultSize(const std::string& name) {
      return 4 + name.size();
    }

   private:
    net::ByteBuffer& buf_;
  };

  void serialize(net::ByteBuffer& buf) const;
  static DetectionTable deserialize(net::ByteBuffer& buf);
  /// deserialize() over one table's serialized bytes.
  static DetectionTable fromBytes(const std::vector<std::uint8_t>& bytes);

  /// Reads one serialized table off `in` and returns a copy of exactly its
  /// bytes, for callers that keep tables in wire form. Throws as decode().
  static cache::Value readBytes(net::ByteReader& in);

  /// The one reader of the wire format serialize() writes, shared by
  /// deserialize(), readBytes() and the campaign cache's resolved decode.
  /// Feeds `sink` the table as it reads: sink.header(inputs,
  /// faultFreeOutput, rows), then per row sink.row(faultyOutput, faults)
  /// followed by one sink.fault(name) per fault, `name` a view into `in`'s
  /// bytes. `rows` is capped by the bytes left, so it is a safe reserve()
  /// hint. Throws std::out_of_range on underflow.
  template <typename Sink>
  static void decode(net::ByteReader& in, Sink& sink) {
    Word inputs = in.readWord();
    Word faultFree = in.readWord();
    const std::uint32_t nRows = in.readU32();
    // Every row occupies at least five bytes (a width byte and a count).
    sink.header(std::move(inputs), std::move(faultFree),
                std::min<std::size_t>(nRows, in.remaining() / 5));
    for (std::uint32_t r = 0; r < nRows; ++r) {
      Word faultyOutput = in.readWord();
      const std::uint32_t nFaults = in.readU32();
      sink.row(std::move(faultyOutput), nFaults);
      for (std::uint32_t i = 0; i < nFaults; ++i) {
        sink.fault(in.readStringView());
      }
    }
  }

 private:
  Word inputs_;
  Word faultFree_;
  std::vector<Row> rows_;
};

/// Provider-side construction on the packed bit-parallel engine: for each
/// configuration, the component simulated under every collapsed fault, the
/// erroneous outputs grouped into rows in deterministic order (by output
/// display string, compared on the planes by Word::compareDisplay; fault
/// names sorted within a row). Each lane of a pass holds one
/// (configuration, collapsed fault) pair, filled configuration-major, so a
/// one-configuration call takes ⌈F/64⌉ passes for F faults and C
/// configurations never take more than ⌈C/64⌉·F. Every pass starts from the
/// fault-free planes and re-evaluates only from its first forced gate.
/// Returns each table (one per input, same order) in wire form: the bytes
/// DetectionTable::serialize writes for the table the scalar
/// one-fault-at-a-time reference builder in the test oracles gives. Rows
/// are written straight to bytes; no DetectionTable is built.
std::vector<cache::Value> buildSerializedTables(
    const gate::PackedEvaluator& packed, const CollapsedFaults& collapsed,
    const std::vector<Word>& inputs);

/// buildSerializedTables() decoded, for callers that want DetectionTables.
std::vector<DetectionTable> buildDetectionTables(
    const gate::PackedEvaluator& packed, const CollapsedFaults& collapsed,
    const std::vector<Word>& inputs);

}  // namespace vcad::fault
