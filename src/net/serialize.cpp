#include "net/serialize.hpp"

#include <algorithm>
#include <stdexcept>

namespace vcad::net {

void ByteReader::underflow(std::size_t n) const {
  throw std::out_of_range("ByteBuffer underflow: need " + std::to_string(n) +
                          " bytes, have " + std::to_string(size_ - pos_));
}

void ByteBuffer::writeU8(std::uint8_t v) { data_.push_back(v); }

void ByteBuffer::writeU16(std::uint16_t v) {
  writeU8(static_cast<std::uint8_t>(v >> 8));
  writeU8(static_cast<std::uint8_t>(v));
}

void ByteBuffer::writeU32(std::uint32_t v) {
  writeU16(static_cast<std::uint16_t>(v >> 16));
  writeU16(static_cast<std::uint16_t>(v));
}

void ByteBuffer::writeU64(std::uint64_t v) {
  writeU32(static_cast<std::uint32_t>(v >> 32));
  writeU32(static_cast<std::uint32_t>(v));
}

void ByteBuffer::writeBool(bool v) { writeU8(v ? 1 : 0); }

void ByteBuffer::writeDouble(double v) {
  static_assert(sizeof(double) == sizeof(std::uint64_t));
  std::uint64_t bits;
  __builtin_memcpy(&bits, &v, sizeof(bits));
  writeU64(bits);
}

void ByteBuffer::writeString(const std::string& s) {
  writeU32(static_cast<std::uint32_t>(s.size()));
  data_.insert(data_.end(), s.begin(), s.end());
}

void ByteBuffer::writeBytes(const std::vector<std::uint8_t>& bytes) {
  writeU32(static_cast<std::uint32_t>(bytes.size()));
  data_.insert(data_.end(), bytes.begin(), bytes.end());
}

namespace {

/// Spreads the low 32 bits of `x` to the even bit positions of the result.
std::uint64_t spreadEven(std::uint64_t x) {
  x &= 0xFFFFFFFFULL;
  x = (x | (x << 16)) & 0x0000FFFF0000FFFFULL;
  x = (x | (x << 8)) & 0x00FF00FF00FF00FFULL;
  x = (x | (x << 4)) & 0x0F0F0F0F0F0F0F0FULL;
  x = (x | (x << 2)) & 0x3333333333333333ULL;
  x = (x | (x << 1)) & 0x5555555555555555ULL;
  return x;
}

}  // namespace

std::size_t ByteBuffer::encodeWord(const Word& w, std::uint8_t* out) {
  // Two bits per position, four positions per byte, low bits first: the
  // Logic code (0, 1, X = 2, Z = 3). Its low bit is the value where known
  // and the Z flag elsewhere, its high bit "not known"; interleaving the
  // two planes lays the codes out as one 128-bit little-endian number.
  const int width = w.width();
  const std::uint64_t mask =
      width >= Word::kMaxWidth ? ~0ULL : (1ULL << width) - 1;
  const std::uint64_t known = w.knownPlane();
  const std::uint64_t lo =
      ((known & w.valuePlane()) | (~known & w.zPlane())) & mask;
  const std::uint64_t hi = ~known & mask;
  const std::uint64_t codes[2] = {
      spreadEven(lo) | (spreadEven(hi) << 1),
      spreadEven(lo >> 32) | (spreadEven(hi >> 32) << 1)};
  out[0] = static_cast<std::uint8_t>(width);
  const std::size_t n = wordSize(width);
  for (std::size_t j = 1; j < n; ++j) {
    const std::size_t k = j - 1;  // payload byte: codes 4k .. 4k+3
    out[j] = static_cast<std::uint8_t>(codes[k / 8] >> (8 * (k % 8)));
  }
  return n;
}

void ByteBuffer::writeWord(const Word& w) {
  std::uint8_t bytes[kMaxWordSize];
  data_.insert(data_.end(), bytes, bytes + encodeWord(w, bytes));
}

void ByteBuffer::writeWordVector(const std::vector<Word>& words) {
  writeU32(static_cast<std::uint32_t>(words.size()));
  for (const Word& w : words) writeWord(w);
}

std::uint16_t ByteReader::readU16() {
  const auto hi = readU8();
  const auto lo = readU8();
  return static_cast<std::uint16_t>((hi << 8) | lo);
}

std::uint64_t ByteReader::readU64() {
  const std::uint64_t hi = readU32();
  const std::uint64_t lo = readU32();
  return (hi << 32) | lo;
}

bool ByteReader::readBool() { return readU8() != 0; }

double ByteReader::readDouble() {
  const std::uint64_t bits = readU64();
  double v;
  __builtin_memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string ByteReader::readString() { return std::string(readStringView()); }

std::vector<std::uint8_t> ByteReader::readBytes() {
  const std::uint32_t n = readU32();
  need(n);
  std::vector<std::uint8_t> out(data_ + pos_, data_ + pos_ + n);
  pos_ += n;
  return out;
}

Word ByteReader::readWord() {
  const int width = readU8();
  if (width > Word::kMaxWidth) {
    throw std::invalid_argument("Word width out of range: " +
                                std::to_string(width));
  }
  const std::size_t bytes = ByteBuffer::wordSize(width) - 1;
  need(bytes);
  const std::uint8_t* packed = data_ + pos_;
  pos_ += bytes;
  std::uint64_t value = 0;
  std::uint64_t known = 0;
  std::uint64_t z = 0;
  for (int i = 0; i < width; i += 4) {
    const std::uint8_t acc = packed[i / 4];
    for (int k = 0; k < 4 && i + k < width; ++k) {
      const std::uint64_t code = (acc >> (2 * k)) & 0x3U;
      const std::uint64_t bit = 1ULL << (i + k);
      if (code < 2) {
        known |= bit;
        if (code == 1) value |= bit;
      } else if (code == 3) {
        z |= bit;
      }
    }
  }
  return Word::fromPlanes(width, value, known, z);
}

std::vector<Word> ByteReader::readWordVector() {
  const std::uint32_t n = readU32();
  std::vector<Word> out;
  // Every serialized word occupies at least one byte, so a corrupted length
  // larger than the remaining payload cannot be honoured; cap the reserve
  // and let the per-word bounds checks reject the stream.
  out.reserve(std::min<std::size_t>(n, remaining()));
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(readWord());
  return out;
}

// ByteBuffer's readers: one ByteReader read over the unread bytes each.

std::uint8_t ByteBuffer::readU8() { return readWith(&ByteReader::readU8); }
std::uint16_t ByteBuffer::readU16() { return readWith(&ByteReader::readU16); }
std::uint32_t ByteBuffer::readU32() { return readWith(&ByteReader::readU32); }
std::uint64_t ByteBuffer::readU64() { return readWith(&ByteReader::readU64); }
bool ByteBuffer::readBool() { return readWith(&ByteReader::readBool); }
double ByteBuffer::readDouble() { return readWith(&ByteReader::readDouble); }
std::string ByteBuffer::readString() {
  return readWith(&ByteReader::readString);
}
std::vector<std::uint8_t> ByteBuffer::readBytes() {
  return readWith(&ByteReader::readBytes);
}
Word ByteBuffer::readWord() { return readWith(&ByteReader::readWord); }
std::vector<Word> ByteBuffer::readWordVector() {
  return readWith(&ByteReader::readWordVector);
}

}  // namespace vcad::net
