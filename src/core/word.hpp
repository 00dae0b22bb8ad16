// Word: a fixed-width bit vector value exchanged between modules.
//
// Words are the payload of signal events on the backplane. They support both
// the word-level (RTL) abstraction, where a word is usually fully known and
// read as an unsigned integer, and the gate-level abstraction, where each bit
// is an independent 4-valued Logic scalar. Widths up to 64 bits are
// supported, which covers the designs used throughout the paper (16-bit
// operands, 32-bit products).
#pragma once

#include <bit>
#include <compare>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>

#include "core/logic.hpp"

namespace vcad {

class Word {
 public:
  static constexpr int kMaxWidth = 64;

  /// Default: zero-width word (no payload).
  Word() = default;

  /// A word of `width` bits, all X.
  explicit Word(int width);

  /// A fully-known word holding the low `width` bits of `value`.
  static Word fromUint(int width, std::uint64_t value);

  /// A single-bit word.
  static Word fromLogic(Logic v);

  /// A word from its three planes (see valuePlane()), canonicalized: bits
  /// at or above `width` are dropped, `value` is kept only where `known`,
  /// and `z` only where not `known`.
  static Word fromPlanes(int width, std::uint64_t value, std::uint64_t known,
                         std::uint64_t z);

  /// Parses a string like "10X1" (MSB first). Throws on bad chars.
  static Word fromString(const std::string& s);

  int width() const { return width_; }
  bool empty() const { return width_ == 0; }

  /// True iff every bit is a strong 0/1.
  bool isFullyKnown() const;

  /// Unsigned integer value. Precondition: isFullyKnown().
  std::uint64_t toUint() const;

  Logic bit(int i) const;
  void setBit(int i, Logic v);

  /// Single-bit convenience accessors (precondition: width() == 1).
  Logic scalar() const { return bit(0); }

  /// Returns a copy with every bit forced to X.
  static Word allX(int width) { return Word(width); }

  /// Hamming distance over known bits; X/Z positions in either word count
  /// as a toggle (pessimistic switching estimate).
  static int toggleCount(const Word& a, const Word& b);

  /// Concatenates: result = {hi, lo} with lo occupying the low bits.
  static Word concat(const Word& hi, const Word& lo);

  /// Extracts bits [lsb, lsb+len).
  Word slice(int lsb, int len) const;

  /// Overwrites bits [lsb, lsb+w.width()) with w. Port gathers assemble a
  /// module's input word with it, one shift per plane instead of one
  /// setBit per bit.
  void insert(int lsb, const Word& w);

  bool operator==(const Word& other) const;
  bool operator!=(const Word& other) const { return !(*this == other); }

  /// MSB-first display form, e.g. "1X01".
  std::string toString() const;

  /// Orders two words as their toString() forms compare, read off the
  /// planes without building a string: the highest common-prefix bit where
  /// they differ decides, by 0 < 1 < X < Z; a word that is a proper prefix
  /// of the other comes first.
  static std::strong_ordering compareDisplay(const Word& a, const Word& b);

  // Low-level plane accessors for bit-parallel engines (bit i describes the
  // word's bit i). The value plane is canonical: 0 wherever the bit is not
  // a strong 0/1.
  std::uint64_t valuePlane() const { return bits_; }
  std::uint64_t knownPlane() const { return known_; }
  std::uint64_t zPlane() const { return zmask_; }

 private:
  std::uint64_t bits_ = 0;   // bit i value (meaningful when known)
  std::uint64_t known_ = 0;  // bit i is strong 0/1
  std::uint64_t zmask_ = 0;  // bit i is Z (only meaningful when !known)
  int width_ = 0;
};

std::ostream& operator<<(std::ostream& os, const Word& w);

inline std::strong_ordering Word::compareDisplay(const Word& a, const Word& b) {
  const int common = a.width_ < b.width_ ? a.width_ : b.width_;
  if (common == 0) return a.width_ <=> b.width_;
  // Each word's top `common` bits, its string's common-length prefix.
  const int sa = a.width_ - common, sb = b.width_ - common;
  const std::uint64_t diff = ((a.bits_ >> sa) ^ (b.bits_ >> sb)) |
                             ((a.known_ >> sa) ^ (b.known_ >> sb)) |
                             ((a.zmask_ >> sa) ^ (b.zmask_ >> sb));
  if (diff == 0) return a.width_ <=> b.width_;
  const int top = std::bit_width(diff) - 1;
  // The display character's rank: 0, 1, X = 2, Z = 3.
  const auto rank = [top](const Word& w, int shift) {
    const int i = top + shift;
    return (w.known_ >> i & 1) != 0 ? static_cast<int>(w.bits_ >> i & 1)
                                    : 2 + static_cast<int>(w.zmask_ >> i & 1);
  };
  return rank(a, sa) <=> rank(b, sb);
}

}  // namespace vcad

/// Hashes the width and the three planes, the fields operator== compares.
template <>
struct std::hash<vcad::Word> {
  std::size_t operator()(const vcad::Word& w) const noexcept {
    std::uint64_t h = static_cast<std::uint64_t>(w.width());
    for (const std::uint64_t plane :
         {w.valuePlane(), w.knownPlane(), w.zPlane()}) {
      h = (h ^ plane) * 0x9e3779b97f4a7c15ULL;
      h ^= h >> 32;
    }
    return static_cast<std::size_t>(h);
  }
};
