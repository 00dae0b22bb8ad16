#include "fault/detection.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>

#include "core/rng.hpp"
#include "fault/table_cache.hpp"
#include "gate/generators.hpp"
#include "oracles/oracles.hpp"

namespace vcad::fault {
namespace {

class Ip1Detection : public ::testing::Test {
 protected:
  Ip1Detection()
      : nl_(gate::makeIp1HalfAdder()),
        eval_(nl_),
        collapsed_(collapseAll(nl_, /*dominance=*/true, false, false)) {}

  Netlist nl_;
  gate::NetlistEvaluator eval_;
  CollapsedFaults collapsed_;
};

TEST_F(Ip1Detection, TableAtOneZeroMatchesPaperShape) {
  // The paper's Figure 4(b): for IIP1=1, IIP2=0 the table has two erroneous
  // rows — outputs (OIP1,OIP2) = 00 caused by sum-path sa0 faults, and 11
  // caused by the carry-path fault I6sa1.
  const DetectionTable t =
      oracles::buildDetectionTable(eval_, collapsed_, Word::fromString("01"));
  EXPECT_EQ(t.faultFreeOutput().toString(), "01");  // OIP2=0, OIP1=1
  ASSERT_EQ(t.rows().size(), 2u);

  const auto sumRow = t.faultsFor(Word::fromString("00"));
  ASSERT_FALSE(sumRow.empty());
  // I3sa0 collapses onto I2sa0 in our structure; its class representative
  // must cause the 00 error.
  const int i3sa0Rep =
      collapsed_.repIndexOf.at({nl_.findNet("I3"), Logic::L0});
  ASSERT_GE(i3sa0Rep, 0);
  const std::string i3Symbol = symbolOf(
      nl_, collapsed_.representatives[static_cast<size_t>(i3sa0Rep)]);
  EXPECT_NE(std::find(sumRow.begin(), sumRow.end(), i3Symbol), sumRow.end());

  const auto carryRow = t.faultsFor(Word::fromString("11"));
  ASSERT_EQ(carryRow.size(), 1u);
  EXPECT_EQ(carryRow[0], "I6sa1");
}

TEST_F(Ip1Detection, UnexcitedFaultsAbsent) {
  const DetectionTable t =
      oracles::buildDetectionTable(eval_, collapsed_, Word::fromString("01"));
  // I6sa0 cannot be excited when the fault-free carry is already 0.
  EXPECT_EQ(t.faultyOutputFor("I6sa0"), nullptr);
  // I6sa1 is excited and maps to output 11.
  const Word* out = t.faultyOutputFor("I6sa1");
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->toString(), "11");
}

TEST_F(Ip1Detection, AllInputConfigurationsProduceConsistentTables) {
  for (unsigned v = 0; v < 4; ++v) {
    const Word in = Word::fromUint(2, v);
    const DetectionTable t =
        oracles::buildDetectionTable(eval_, collapsed_, in);
    EXPECT_EQ(t.inputs(), in);
    for (const auto& row : t.rows()) {
      EXPECT_NE(row.faultyOutput, t.faultFreeOutput());
      EXPECT_FALSE(row.faults.empty());
      // Re-simulating each listed fault must reproduce the row's output.
      for (const std::string& sym : row.faults) {
        // Find the representative with this symbol.
        bool found = false;
        for (const StuckFault& f : collapsed_.representatives) {
          if (symbolOf(nl_, f) == sym) {
            EXPECT_EQ(eval_.evalOutputs(in, f), row.faultyOutput);
            found = true;
            break;
          }
        }
        EXPECT_TRUE(found) << sym;
      }
    }
  }
}

TEST_F(Ip1Detection, SerializationRoundTrip) {
  const DetectionTable t =
      oracles::buildDetectionTable(eval_, collapsed_, Word::fromString("01"));
  net::ByteBuffer buf;
  t.serialize(buf);
  const DetectionTable back = DetectionTable::deserialize(buf);
  EXPECT_EQ(back.inputs(), t.inputs());
  EXPECT_EQ(back.faultFreeOutput(), t.faultFreeOutput());
  ASSERT_EQ(back.rows().size(), t.rows().size());
  for (size_t i = 0; i < t.rows().size(); ++i) {
    EXPECT_EQ(back.rows()[i].faultyOutput, t.rows()[i].faultyOutput);
    EXPECT_EQ(back.rows()[i].faults, t.rows()[i].faults);
  }
}

TEST_F(Ip1Detection, IsAParamValue) {
  const DetectionTable t =
      oracles::buildDetectionTable(eval_, collapsed_, Word::fromString("01"));
  const ParamValue& v = t;  // DetectionTable is a parameter value
  EXPECT_FALSE(v.isNull());
  EXPECT_NE(v.toString().find("DetectionTable"), std::string::npos);
  EXPECT_THROW(v.asDouble(), std::logic_error);
}

TEST(DetectionTable, ExcitedFaultCountOnMultiplier) {
  const Netlist nl = gate::makeArrayMultiplier(3);
  gate::NetlistEvaluator eval(nl);
  const auto collapsed = collapseAll(nl, true, false, false);
  const DetectionTable t = oracles::buildDetectionTable(
      eval, collapsed, Word::fromUint(6, 0b101011));
  EXPECT_GT(t.excitedFaultCount(), 0u);
  EXPECT_LE(t.excitedFaultCount(), collapsed.size());
  // Row outputs are unique.
  for (size_t i = 0; i < t.rows().size(); ++i) {
    for (size_t j = i + 1; j < t.rows().size(); ++j) {
      EXPECT_NE(t.rows()[i].faultyOutput, t.rows()[j].faultyOutput);
    }
  }
}

// --- Resolved decode: the campaign cache's reading of stored table bytes ---

/// `n` fault names, as a component publishes them.
std::vector<std::string> publishedFaults(std::size_t n) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < n; ++i) {
    names.push_back("n" + std::to_string(i) + (i % 2 == 0 ? "sa0" : "sa1"));
  }
  return names;
}

/// `names` as a campaign qualifies them for `component`.
std::vector<std::string> qualified(const std::string& component,
                                   const std::vector<std::string>& names) {
  std::vector<std::string> out;
  for (const std::string& n : names) out.push_back(component + "/" + n);
  return out;
}

/// A word of `width` bits drawn from all four logic values.
Word randomWord(Rng& rng, int width) {
  Word w(width);
  for (int i = 0; i < width; ++i) {
    w.setBit(i, static_cast<Logic>(rng.below(4)));
  }
  return w;
}

/// A table of `rows` rows over `names`, every word `width` bits wide.
DetectionTable randomTable(Rng& rng, const std::vector<std::string>& names,
                           std::size_t rows, int width) {
  std::vector<DetectionTable::Row> out(rows);
  for (DetectionTable::Row& row : out) {
    row.faultyOutput = randomWord(rng, width);
    const std::size_t nFaults = rng.below(5);
    for (std::size_t f = 0; f < nFaults; ++f) {
      row.faults.push_back(names[rng.below(names.size())]);
    }
  }
  return DetectionTable(randomWord(rng, width), randomWord(rng, width),
                        std::move(out));
}

std::vector<std::uint8_t> bytesOf(const DetectionTable& t) {
  net::ByteBuffer buf;
  t.serialize(buf);
  return buf.bytes();
}

/// `t` resolved by hand: each fault named by its first position in `names`.
ResolvedTable resolution(const DetectionTable& t,
                         const std::vector<std::string>& names) {
  ResolvedTable out;
  for (const DetectionTable::Row& row : t.rows()) {
    const auto begin = static_cast<std::uint32_t>(out.faults.size());
    for (const std::string& f : row.faults) {
      out.faults.push_back(static_cast<std::uint32_t>(
          std::find(names.begin(), names.end(), f) - names.begin()));
    }
    out.rows.push_back({row.faultyOutput, begin,
                        static_cast<std::uint32_t>(out.faults.size())});
  }
  return out;
}

TEST(ResolvedTable, DecodeOfSerializedBytesEqualsResolution) {
  const std::vector<std::string> names = publishedFaults(40);
  const std::vector<std::string> list = qualified("blk", names);
  const DetectionTableCache cache("blk", list);
  Rng rng(20261017);
  for (const std::size_t rows : {0u, 1u, 2u, 17u, 200u}) {
    for (const int width : {0, 1, 5, 33, 64}) {
      const DetectionTable t = randomTable(rng, names, rows, width);
      const ResolvedTable resolved = cache.decode(bytesOf(t));
      EXPECT_EQ(resolved, resolution(t, names))
          << rows << " rows, width " << width;
      // The resolution keeps every row and names each fault by its index.
      ASSERT_EQ(resolved.rows.size(), rows);
      for (std::size_t r = 0; r < rows; ++r) {
        const ResolvedTable::Row& row = resolved.rows[r];
        EXPECT_EQ(row.faultyOutput, t.rows()[r].faultyOutput);
        const auto faults = resolved.faultsOf(row);
        ASSERT_EQ(faults.size(), t.rows()[r].faults.size());
        for (std::size_t f = 0; f < faults.size(); ++f) {
          EXPECT_EQ(names[faults[f]], t.rows()[r].faults[f]);
        }
      }
    }
  }
}

TEST(ResolvedTable, EveryTruncatedPrefixThrowsOutOfRange) {
  const std::vector<std::string> names = publishedFaults(8);
  const std::vector<std::string> list = qualified("blk", names);
  const DetectionTableCache cache("blk", list);
  Rng rng(7);
  for (const int width : {3, 64}) {
    const std::vector<std::uint8_t> bytes =
        bytesOf(randomTable(rng, names, 4, width));
    for (std::size_t n = 0; n < bytes.size(); ++n) {
      const std::vector<std::uint8_t> prefix(bytes.begin(),
                                             bytes.begin() + n);
      EXPECT_THROW(cache.decode(prefix), std::out_of_range) << n;
      net::ByteBuffer buf(prefix);
      EXPECT_THROW(DetectionTable::deserialize(buf), std::out_of_range) << n;
      net::ByteReader in(prefix);
      EXPECT_THROW(DetectionTable::readBytes(in), std::out_of_range) << n;
    }
  }
}

TEST(ResolvedTable, UnpublishedFaultNameThrowsNamingTheComponent) {
  const std::vector<std::string> names = publishedFaults(4);
  const std::vector<std::string> list = qualified("adder3", names);
  DetectionTableCache cache("adder3", list);
  const DetectionTable t(Word::fromString("01"), Word::fromString("10"),
                         {{Word::fromString("11"), {names[1], "bogus"}}});
  const auto bytes = std::make_shared<const std::vector<std::uint8_t>>(
      bytesOf(t));
  for (const auto& read :
       {std::function<void()>([&] { (void)cache.insert(t.inputs(), bytes); }),
        std::function<void()>([&] { (void)cache.decode(*bytes); })}) {
    try {
      read();
      ADD_FAILURE() << "an unpublished fault name was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("adder3"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(cache.pinnedCount(), 0u);
  EXPECT_EQ(cache.findPinned(t.inputs()), nullptr);
}

TEST(ResolvedTable, StoredBytesKeepTheirFormat) {
  // The bytes a table has always serialized to, so entries already in a
  // disk-backed store read back unchanged: words are a width byte plus
  // two bits per position (bit i at bits 2i of its byte; 0, 1, X, Z =
  // 0-3), counts and string lengths big-endian u32.
  const std::vector<std::uint8_t> stored = {
      0x02, 0x01,                          // inputs "01"
      0x02, 0x06,                          // fault-free output "1X"
      0x00, 0x00, 0x00, 0x01,              // one row
      0x02, 0x0C,                          // faulty output "Z0"
      0x00, 0x00, 0x00, 0x02,              // two faults
      0x00, 0x00, 0x00, 0x01, 'a',         // "a"
      0x00, 0x00, 0x00, 0x05, 'I', '6', 's', 'a', '1'};  // "I6sa1"
  const DetectionTable t(Word::fromString("01"), Word::fromString("1X"),
                         {{Word::fromString("Z0"), {"a", "I6sa1"}}});
  EXPECT_EQ(bytesOf(t), stored);

  const std::vector<std::string> list =
      qualified("ip1", {"I6sa1", "x", "a"});
  const DetectionTableCache cache("ip1", list);
  const ResolvedTable decoded = cache.decode(stored);
  EXPECT_EQ(decoded, resolution(t, {"I6sa1", "x", "a"}));
  EXPECT_EQ(decoded.faults, (std::vector<std::uint32_t>{2, 0}));

  net::ByteBuffer buf(stored);
  const DetectionTable back = DetectionTable::deserialize(buf);
  EXPECT_TRUE(buf.exhausted());
  EXPECT_EQ(bytesOf(back), stored);
}

}  // namespace
}  // namespace vcad::fault
