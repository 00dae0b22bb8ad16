#include "core/word.hpp"

#include <gtest/gtest.h>

#include <compare>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/rng.hpp"

namespace vcad {
namespace {

TEST(Word, DefaultIsEmpty) {
  Word w;
  EXPECT_EQ(w.width(), 0);
  EXPECT_TRUE(w.empty());
}

TEST(Word, FreshWordIsAllX) {
  Word w(8);
  EXPECT_FALSE(w.isFullyKnown());
  for (int i = 0; i < 8; ++i) EXPECT_EQ(w.bit(i), Logic::X);
}

TEST(Word, FromUintMasksToWidth) {
  Word w = Word::fromUint(4, 0xFF);
  EXPECT_EQ(w.toUint(), 0xFu);
  EXPECT_TRUE(w.isFullyKnown());
}

TEST(Word, FromUintFullWidth64) {
  Word w = Word::fromUint(64, ~0ULL);
  EXPECT_EQ(w.toUint(), ~0ULL);
}

TEST(Word, SetBitAndReadBack) {
  Word w(4);
  w.setBit(0, Logic::L1);
  w.setBit(1, Logic::L0);
  w.setBit(2, Logic::Z);
  w.setBit(3, Logic::X);
  EXPECT_EQ(w.bit(0), Logic::L1);
  EXPECT_EQ(w.bit(1), Logic::L0);
  EXPECT_EQ(w.bit(2), Logic::Z);
  EXPECT_EQ(w.bit(3), Logic::X);
  EXPECT_FALSE(w.isFullyKnown());
}

TEST(Word, ToUintThrowsOnUnknown) {
  Word w(2);
  w.setBit(0, Logic::L1);
  EXPECT_THROW(w.toUint(), std::logic_error);
}

TEST(Word, StringRoundTrip) {
  const Word w = Word::fromString("1X0Z");
  EXPECT_EQ(w.width(), 4);
  EXPECT_EQ(w.bit(3), Logic::L1);  // MSB first in the string
  EXPECT_EQ(w.bit(2), Logic::X);
  EXPECT_EQ(w.bit(1), Logic::L0);
  EXPECT_EQ(w.bit(0), Logic::Z);
  EXPECT_EQ(w.toString(), "1X0Z");
}

TEST(Word, EqualityDistinguishesXAndZ) {
  Word a(1);
  Word b(1);
  a.setBit(0, Logic::X);
  b.setBit(0, Logic::Z);
  EXPECT_NE(a, b);
  b.setBit(0, Logic::X);
  EXPECT_EQ(a, b);
}

TEST(Word, ToggleCountKnownBits) {
  const Word a = Word::fromUint(8, 0b10101010);
  const Word b = Word::fromUint(8, 0b10100101);
  EXPECT_EQ(Word::toggleCount(a, b), 4);
  EXPECT_EQ(Word::toggleCount(a, a), 0);
}

TEST(Word, ToggleCountUnknownIsPessimistic) {
  Word a = Word::fromUint(4, 0b1111);
  Word b = Word::fromUint(4, 0b1111);
  b.setBit(2, Logic::X);
  EXPECT_EQ(Word::toggleCount(a, b), 1);
}

TEST(Word, ToggleCountWidthMismatchThrows) {
  EXPECT_THROW(Word::toggleCount(Word(3), Word(4)), std::invalid_argument);
}

TEST(Word, ConcatAndSlice) {
  const Word hi = Word::fromUint(4, 0xA);
  const Word lo = Word::fromUint(4, 0x5);
  const Word cat = Word::concat(hi, lo);
  EXPECT_EQ(cat.width(), 8);
  EXPECT_EQ(cat.toUint(), 0xA5u);
  EXPECT_EQ(cat.slice(0, 4).toUint(), 0x5u);
  EXPECT_EQ(cat.slice(4, 4).toUint(), 0xAu);
}

TEST(Word, SliceOutOfRangeThrows) {
  const Word w = Word::fromUint(8, 1);
  EXPECT_THROW(w.slice(5, 4), std::out_of_range);
  EXPECT_THROW(w.slice(-1, 2), std::out_of_range);
}

TEST(Word, WidthBoundsChecked) {
  EXPECT_THROW(Word(-1), std::invalid_argument);
  EXPECT_THROW(Word(65), std::invalid_argument);
  EXPECT_NO_THROW(Word(64));
}

TEST(Word, BitIndexBoundsChecked) {
  Word w(4);
  EXPECT_THROW(w.bit(4), std::out_of_range);
  EXPECT_THROW(w.setBit(-1, Logic::L0), std::out_of_range);
}

constexpr Logic kValues[] = {Logic::L0, Logic::L1, Logic::X, Logic::Z};

// Plane-wise concat/slice/insert against their per-bit definitions, on
// random widths 1-64 filled with all four logic values.
Word randomWord(Rng& rng, int width) {
  Word w(width);
  for (int i = 0; i < width; ++i) w.setBit(i, kValues[rng.below(4)]);
  return w;
}

TEST(Word, PlaneWiseOpsMatchTheBitwiseForm) {
  Rng rng(0x5107);
  for (int trial = 0; trial < 2000; ++trial) {
    const int width = 1 + static_cast<int>(rng.below(64));
    const Word w = randomWord(rng, width);

    const auto below = [&](int bound) {
      return static_cast<int>(rng.below(static_cast<std::uint64_t>(bound)));
    };
    const int lsb = below(width + 1);
    const int len = below(width - lsb + 1);
    Word sliced(len);
    for (int i = 0; i < len; ++i) sliced.setBit(i, w.bit(lsb + i));
    ASSERT_EQ(w.slice(lsb, len), sliced)
        << w << " [" << lsb << "+" << len << "]";

    const Word part = randomWord(rng, len);
    Word inserted = w;
    for (int i = 0; i < len; ++i) inserted.setBit(lsb + i, part.bit(i));
    Word viaInsert = w;
    viaInsert.insert(lsb, part);
    ASSERT_EQ(viaInsert, inserted) << w << " <- " << part << " @" << lsb;

    const Word hi = randomWord(rng, below(65 - width));
    Word cat(hi.width() + width);
    for (int i = 0; i < width; ++i) cat.setBit(i, w.bit(i));
    for (int i = 0; i < hi.width(); ++i) cat.setBit(width + i, hi.bit(i));
    ASSERT_EQ(Word::concat(hi, w), cat) << hi << " ++ " << w;

    ASSERT_EQ(Word::fromPlanes(width, w.valuePlane(), w.knownPlane(),
                               w.zPlane()),
              w);
  }
}

TEST(Word, FromPlanesCanonicalizes) {
  // Value bits outside the known plane, Z bits inside it, and bits above the
  // width are dropped.
  const Word w = Word::fromPlanes(4, 0xFF, 0x3, 0xFE);
  EXPECT_EQ(w.toString(), "ZZ11");
  EXPECT_EQ(w, Word::fromString("ZZ11"));
  EXPECT_EQ(Word::fromPlanes(64, ~0ULL, ~0ULL, ~0ULL),
            Word::fromUint(64, ~0ULL));
  EXPECT_THROW(Word::fromPlanes(65, 0, 0, 0), std::invalid_argument);
}

TEST(Word, InsertOutOfRangeThrows) {
  Word w(8);
  EXPECT_THROW(w.insert(5, Word(4)), std::out_of_range);
  EXPECT_THROW(w.insert(-1, Word(1)), std::out_of_range);
  EXPECT_NO_THROW(w.insert(8, Word()));
  EXPECT_THROW(Word::concat(Word(40), Word(25)), std::invalid_argument);
}

TEST(Word, HashSeparatesWhatEqualitySeparates) {
  // Same planes at different widths, and X vs Z, are different keys.
  std::unordered_set<Word> set;
  set.insert(Word::fromUint(4, 0));
  set.insert(Word::fromUint(5, 0));
  set.insert(Word::fromString("X"));
  set.insert(Word::fromString("Z"));
  set.insert(Word::fromString("Z"));
  EXPECT_EQ(set.size(), 4u);
  EXPECT_EQ(set.count(Word::fromString("0000")), 1u);
  EXPECT_EQ(std::hash<Word>{}(Word::fromString("1X0Z")),
            std::hash<Word>{}(Word::fromString("1X0Z")));
}

// Every word of `width` bits: the 4^width values, counting in base 4.
std::vector<Word> allWords(int width) {
  std::vector<Word> out;
  for (int n = 0; n < 1 << (2 * width); ++n) {
    Word w(width);
    for (int i = 0; i < width; ++i) w.setBit(i, kValues[n >> (2 * i) & 3]);
    out.push_back(w);
  }
  return out;
}

TEST(Word, CompareDisplayMatchesStringOrderOnEveryShortWord) {
  // Every pair of words of widths 1-3, mixed widths included (a proper
  // prefix orders first).
  std::vector<Word> words;
  for (int width = 1; width <= 3; ++width) {
    for (Word& w : allWords(width)) words.push_back(std::move(w));
  }
  ASSERT_EQ(words.size(), 4u + 16u + 64u);
  for (const Word& a : words) {
    for (const Word& b : words) {
      ASSERT_EQ(Word::compareDisplay(a, b), a.toString() <=> b.toString())
          << a << " vs " << b;
    }
  }
}

TEST(Word, CompareDisplayMatchesStringOrderOnRandomWideWords) {
  Rng rng(0xc0de);
  for (int trial = 0; trial < 20000; ++trial) {
    const Word a = randomWord(rng, 64);
    // Half the pairs share a random-length top prefix, so the deciding bit
    // sits anywhere from the MSB down to bit 0.
    Word b = randomWord(rng, 64);
    if (trial % 2 == 0) {
      const int keep = static_cast<int>(rng.below(65));
      if (keep > 0) b.insert(64 - keep, a.slice(64 - keep, keep));
    }
    ASSERT_EQ(Word::compareDisplay(a, b), a.toString() <=> b.toString())
        << a << " vs " << b;
    const Word c = randomWord(rng, 1 + static_cast<int>(rng.below(64)));
    ASSERT_EQ(Word::compareDisplay(a, c), a.toString() <=> c.toString())
        << a << " vs " << c;
  }
  EXPECT_EQ(Word::compareDisplay(Word(), Word()), std::strong_ordering::equal);
  EXPECT_EQ(Word::compareDisplay(Word(), Word(64)), std::strong_ordering::less);
}

class WordUintRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(WordUintRoundTrip, AllWidths) {
  const int width = GetParam();
  const std::uint64_t v = 0xDEADBEEFCAFEBABEULL;
  const Word w = Word::fromUint(width, v);
  const std::uint64_t mask =
      width >= 64 ? ~0ULL : ((1ULL << width) - 1);
  EXPECT_EQ(w.toUint(), v & mask);
  EXPECT_EQ(Word::fromString(w.toString()), w);
}

INSTANTIATE_TEST_SUITE_P(Widths, WordUintRoundTrip,
                         ::testing::Values(1, 2, 7, 8, 15, 16, 31, 32, 33, 48,
                                           63, 64));

}  // namespace
}  // namespace vcad
