#include "core/word.hpp"

#include <bit>
#include <ostream>
#include <stdexcept>

namespace vcad {

namespace {
std::uint64_t lowMask(int width) {
  return width >= 64 ? ~0ULL : ((1ULL << width) - 1);
}

void checkWidth(int width) {
  if (width < 0 || width > Word::kMaxWidth) {
    throw std::invalid_argument("Word width out of range: " +
                                std::to_string(width));
  }
}
}  // namespace

Word::Word(int width) : width_(width) { checkWidth(width); }

Word Word::fromUint(int width, std::uint64_t value) {
  checkWidth(width);
  Word w(width);
  w.bits_ = value & lowMask(width);
  w.known_ = lowMask(width);
  w.zmask_ = 0;
  return w;
}

Word Word::fromLogic(Logic v) {
  Word w(1);
  w.setBit(0, v);
  return w;
}

Word Word::fromPlanes(int width, std::uint64_t value, std::uint64_t known,
                      std::uint64_t z) {
  Word w(width);
  w.known_ = known & lowMask(width);
  w.bits_ = value & w.known_;
  w.zmask_ = z & lowMask(width) & ~w.known_;
  return w;
}

Word Word::fromString(const std::string& s) {
  Word w(static_cast<int>(s.size()));
  for (int i = 0; i < w.width(); ++i) {
    // s[0] is the MSB.
    w.setBit(w.width() - 1 - i, logicFromChar(s[static_cast<size_t>(i)]));
  }
  return w;
}

bool Word::isFullyKnown() const { return known_ == lowMask(width_); }

std::uint64_t Word::toUint() const {
  if (!isFullyKnown()) {
    throw std::logic_error("Word::toUint on word with unknown bits: " +
                           toString());
  }
  return bits_;
}

Logic Word::bit(int i) const {
  if (i < 0 || i >= width_) {
    throw std::out_of_range("Word::bit index " + std::to_string(i) +
                            " out of range for width " +
                            std::to_string(width_));
  }
  const std::uint64_t m = 1ULL << i;
  if (known_ & m) return (bits_ & m) ? Logic::L1 : Logic::L0;
  return (zmask_ & m) ? Logic::Z : Logic::X;
}

void Word::setBit(int i, Logic v) {
  if (i < 0 || i >= width_) {
    throw std::out_of_range("Word::setBit index " + std::to_string(i) +
                            " out of range for width " +
                            std::to_string(width_));
  }
  const std::uint64_t m = 1ULL << i;
  bits_ &= ~m;
  known_ &= ~m;
  zmask_ &= ~m;
  switch (v) {
    case Logic::L0:
      known_ |= m;
      break;
    case Logic::L1:
      known_ |= m;
      bits_ |= m;
      break;
    case Logic::X:
      break;
    case Logic::Z:
      zmask_ |= m;
      break;
  }
}

int Word::toggleCount(const Word& a, const Word& b) {
  if (a.width() != b.width()) {
    throw std::invalid_argument("toggleCount width mismatch");
  }
  const std::uint64_t bothKnown = a.known_ & b.known_;
  const std::uint64_t diff = (a.bits_ ^ b.bits_) & bothKnown;
  const std::uint64_t anyUnknown = lowMask(a.width()) & ~bothKnown;
  return std::popcount(diff) + std::popcount(anyUnknown);
}

Word Word::concat(const Word& hi, const Word& lo) {
  checkWidth(hi.width() + lo.width());
  Word out(hi.width() + lo.width());
  out.insert(0, lo);
  out.insert(lo.width(), hi);
  return out;
}

Word Word::slice(int lsb, int len) const {
  if (lsb < 0 || len < 0 || lsb + len > width_) {
    throw std::out_of_range("Word::slice out of range");
  }
  Word out(len);
  if (len == 0) return out;
  const std::uint64_t m = lowMask(len);
  out.bits_ = (bits_ >> lsb) & m;
  out.known_ = (known_ >> lsb) & m;
  out.zmask_ = (zmask_ >> lsb) & m;
  return out;
}

void Word::insert(int lsb, const Word& w) {
  if (lsb < 0 || lsb + w.width_ > width_) {
    throw std::out_of_range("Word::insert out of range");
  }
  if (w.width_ == 0) return;
  const std::uint64_t m = lowMask(w.width_) << lsb;
  bits_ = (bits_ & ~m) | ((w.bits_ << lsb) & m);
  known_ = (known_ & ~m) | ((w.known_ << lsb) & m);
  zmask_ = (zmask_ & ~m) | ((w.zmask_ << lsb) & m);
}

bool Word::operator==(const Word& other) const {
  return width_ == other.width_ && bits_ == other.bits_ &&
         known_ == other.known_ && zmask_ == other.zmask_;
}

std::string Word::toString() const {
  std::string s;
  s.reserve(static_cast<size_t>(width_));
  for (int i = width_ - 1; i >= 0; --i) s.push_back(toChar(bit(i)));
  return s;
}

std::ostream& operator<<(std::ostream& os, const Word& w) {
  return os << w.toString();
}

}  // namespace vcad
