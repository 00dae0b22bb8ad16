#include "net/serialize.hpp"

#include <gtest/gtest.h>

#include "core/rng.hpp"

namespace vcad::net {
namespace {

TEST(ByteBuffer, ScalarRoundTrip) {
  ByteBuffer b;
  b.writeU8(0xAB);
  b.writeU16(0x1234);
  b.writeU32(0xDEADBEEF);
  b.writeU64(0x0123456789ABCDEFULL);
  b.writeBool(true);
  b.writeDouble(3.14159);
  EXPECT_EQ(b.readU8(), 0xAB);
  EXPECT_EQ(b.readU16(), 0x1234);
  EXPECT_EQ(b.readU32(), 0xDEADBEEFu);
  EXPECT_EQ(b.readU64(), 0x0123456789ABCDEFULL);
  EXPECT_TRUE(b.readBool());
  EXPECT_DOUBLE_EQ(b.readDouble(), 3.14159);
  EXPECT_TRUE(b.exhausted());
}

TEST(ByteBuffer, StringRoundTrip) {
  ByteBuffer b;
  b.writeString("hello world");
  b.writeString("");
  b.writeString(std::string("\0binary\xFF", 8));
  EXPECT_EQ(b.readString(), "hello world");
  EXPECT_EQ(b.readString(), "");
  EXPECT_EQ(b.readString(), std::string("\0binary\xFF", 8));
}

TEST(ByteBuffer, BytesRoundTrip) {
  ByteBuffer b;
  const std::vector<std::uint8_t> payload{1, 2, 3, 255, 0};
  b.writeBytes(payload);
  EXPECT_EQ(b.readBytes(), payload);
}

TEST(ByteBuffer, UnderflowThrows) {
  ByteBuffer b;
  b.writeU8(1);
  b.readU8();
  EXPECT_THROW(b.readU8(), std::out_of_range);
  ByteBuffer c;
  c.writeU32(100);  // declares 100 string bytes that are not there
  EXPECT_THROW(c.readString(), std::out_of_range);
}

TEST(ByteBuffer, WordRoundTripAllLogicValues) {
  const Word w = Word::fromString("10XZ01ZX1");
  ByteBuffer b;
  b.writeWord(w);
  EXPECT_EQ(b.readWord(), w);
}

TEST(ByteBuffer, WordCompactEncoding) {
  // 16-bit word: 1 width byte + 4 payload bytes (2 bits per position).
  ByteBuffer b;
  b.writeWord(Word::fromUint(16, 0xFFFF));
  EXPECT_EQ(b.size(), 5u);
}

TEST(ByteBuffer, ZeroWidthWord) {
  ByteBuffer b;
  b.writeWord(Word());
  EXPECT_EQ(b.readWord().width(), 0);
}

TEST(ByteBuffer, WordVectorRoundTrip) {
  std::vector<Word> words;
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    words.push_back(Word::fromUint(1 + static_cast<int>(rng.below(64)),
                                   rng.next()));
  }
  ByteBuffer b;
  b.writeWordVector(words);
  EXPECT_EQ(b.readWordVector(), words);
}

class WordWidthRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(WordWidthRoundTrip, PreservesEveryBit) {
  Rng rng(GetParam());
  Word w(GetParam());
  for (int i = 0; i < w.width(); ++i) {
    w.setBit(i, static_cast<Logic>(rng.below(4)));
  }
  ByteBuffer b;
  b.writeWord(w);
  EXPECT_EQ(b.readWord(), w);
}

INSTANTIATE_TEST_SUITE_P(Widths, WordWidthRoundTrip,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17,
                                           31, 32, 33, 63, 64));

// The plane-wise codec against the encoding's per-bit definition: a width
// byte, then each position's Logic code in two bits, four to a byte, low
// bits first.
TEST(ByteBuffer, WordBytesMatchThePerBitEncoding) {
  Rng rng(0xC0DE);
  for (int trial = 0; trial < 500; ++trial) {
    Word w(static_cast<int>(rng.below(65)));
    for (int i = 0; i < w.width(); ++i) {
      w.setBit(i, static_cast<Logic>(rng.below(4)));
    }
    std::vector<std::uint8_t> want{static_cast<std::uint8_t>(w.width())};
    for (int i = 0; i < w.width(); ++i) {
      if (i % 4 == 0) want.push_back(0);
      want.back() = static_cast<std::uint8_t>(
          want.back() | (static_cast<unsigned>(w.bit(i)) << (2 * (i % 4))));
    }
    ByteBuffer b;
    b.writeWord(w);
    ASSERT_EQ(b.bytes(), want) << w;
    ASSERT_EQ(b.readWord(), w) << w;
  }
}

TEST(ByteBuffer, WordWiderThan64IsRejected) {
  ByteBuffer b;
  b.writeU8(65);
  for (int i = 0; i < 17; ++i) b.writeU8(0);
  EXPECT_THROW(b.readWord(), std::invalid_argument);
  ByteBuffer truncated;
  truncated.writeU8(9);  // three payload bytes declared, two present
  truncated.writeU8(0);
  truncated.writeU8(0);
  EXPECT_THROW(truncated.readWord(), std::out_of_range);
}

TEST(ByteBuffer, RewindAllowsRereading) {
  ByteBuffer b;
  b.writeU32(7);
  EXPECT_EQ(b.readU32(), 7u);
  b.rewind();
  EXPECT_EQ(b.readU32(), 7u);
}

}  // namespace
}  // namespace vcad::net
