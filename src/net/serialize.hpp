// Binary serialization for the RMI layer (the object-serialization role
// Java RMI plays in the paper).
//
// ByteBuffer is a growable byte stream with typed big-endian writers and
// checked readers. Everything that crosses the client/server boundary is
// marshalled through it, so message sizes are real and the network model can
// charge bandwidth for actual bytes.
//
// ByteReader holds the one implementation of every reader. It decodes bytes
// it does not own (a ByteBuffer's, or a result-store value's, with no copy);
// ByteBuffer's readers run a ByteReader over the buffer's unread bytes.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/word.hpp"

namespace vcad::net {

/// Checked big-endian reader over borrowed bytes, which must outlive it.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size, std::size_t pos = 0)
      : data_(data), size_(size), pos_(pos) {}
  explicit ByteReader(const std::vector<std::uint8_t>& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  // --- readers (throw std::out_of_range on underflow) -----------------------

  // The readers a detection-table decode runs per row and per fault are
  // inline, with one bounds check per value.
  std::uint8_t readU8() {
    need(1);
    return data_[pos_++];
  }
  std::uint16_t readU16();
  std::uint32_t readU32() {
    need(4);
    const std::uint8_t* p = data_ + pos_;
    pos_ += 4;
    return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
           (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
  }
  std::uint64_t readU64();
  bool readBool();
  double readDouble();
  std::string readString();
  /// readString without the copy: a view into the borrowed bytes.
  std::string_view readStringView() {
    const std::uint32_t n = readU32();
    need(n);
    const std::string_view s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }
  std::vector<std::uint8_t> readBytes();
  Word readWord();
  std::vector<Word> readWordVector();

  std::size_t position() const { return pos_; }
  std::size_t remaining() const { return size_ - pos_; }
  /// The borrowed bytes, position() indexing into them.
  const std::uint8_t* data() const { return data_; }

 private:
  void need(std::size_t n) const {
    if (n > size_ - pos_) underflow(n);
  }
  [[noreturn]] void underflow(std::size_t n) const;

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_;
};

class ByteBuffer {
 public:
  ByteBuffer() = default;
  explicit ByteBuffer(std::vector<std::uint8_t> data)
      : data_(std::move(data)) {}

  // --- writers ---------------------------------------------------------

  void writeU8(std::uint8_t v);
  void writeU16(std::uint16_t v);
  void writeU32(std::uint32_t v);
  void writeU64(std::uint64_t v);
  void writeBool(bool v);
  void writeDouble(double v);
  void writeString(const std::string& s);
  void writeBytes(const std::vector<std::uint8_t>& bytes);
  /// Appends `bytes` as they are, with no length prefix.
  void append(const std::vector<std::uint8_t>& bytes) {
    data_.insert(data_.end(), bytes.begin(), bytes.end());
  }

  /// Compact word encoding: width byte + 2 bits per position.
  void writeWord(const Word& w);
  /// Bytes writeWord() writes for a word of `width` positions.
  static constexpr std::size_t wordSize(int width) {
    return 1 + static_cast<std::size_t>(width + 3) / 4;
  }
  /// wordSize() of the widest word.
  static constexpr std::size_t kMaxWordSize = 1 + (Word::kMaxWidth + 3) / 4;
  /// Writes writeWord()'s bytes for `w` to `out`, which must hold
  /// wordSize(w.width()) bytes, and returns that count. The one encoder:
  /// writeWord appends its output, and hashers that key on a marshalled
  /// word (fault::detectionTableKey) encode it onto the stack.
  static std::size_t encodeWord(const Word& w, std::uint8_t* out);
  void writeWordVector(const std::vector<Word>& words);

  // --- readers (throw std::out_of_range on underflow) -----------------------

  std::uint8_t readU8();
  std::uint16_t readU16();
  std::uint32_t readU32();
  std::uint64_t readU64();
  bool readBool();
  double readDouble();
  std::string readString();
  std::vector<std::uint8_t> readBytes();
  Word readWord();
  std::vector<Word> readWordVector();

  /// Runs `read` (a callable or a ByteReader member taking a ByteReader&)
  /// over the unread bytes and, when it returns, consumes what it read.
  /// Views it takes into the bytes last until the next write.
  template <typename Read>
  auto readWith(Read&& read) {
    ByteReader in(data_.data(), data_.size(), readPos_);
    auto value = std::invoke(std::forward<Read>(read), in);
    readPos_ = in.position();
    return value;
  }

  // --- inspection ------------------------------------------------------

  std::size_t size() const { return data_.size(); }
  std::size_t remaining() const { return data_.size() - readPos_; }
  bool exhausted() const { return readPos_ >= data_.size(); }
  const std::vector<std::uint8_t>& bytes() const { return data_; }
  /// Moves the bytes out, leaving the buffer empty.
  std::vector<std::uint8_t> release() {
    std::vector<std::uint8_t> out;
    out.swap(data_);
    readPos_ = 0;
    return out;
  }

  void reserve(std::size_t n) { data_.reserve(n); }

  void rewind() { readPos_ = 0; }
  void clear() {
    data_.clear();
    readPos_ = 0;
  }

 private:
  std::vector<std::uint8_t> data_;
  std::size_t readPos_ = 0;
};

}  // namespace vcad::net
