#include "cache/file_backend.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace vcad::cache {

namespace {

constexpr std::uint32_t kMagic = 0x56434152u;  // "VCAR"
constexpr std::size_t kHeaderLen = 4;          // magic
constexpr std::size_t kBodyFixedLen = 8 + 8 + 4;  // keyHi + keyLo + valueLen
constexpr std::size_t kChecksumLen = 8;

void putU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 3; i >= 0; --i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void putU64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 7; i >= 0; --i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint32_t readU32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v = (v << 8) | p[i];
  return v;
}

std::uint64_t readU64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | p[i];
  return v;
}

bool readExact(int fd, std::uint64_t offset, std::uint8_t* buf, std::size_t n) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t r = ::pread(fd, buf + done, n - done,
                              static_cast<off_t>(offset + done));
    if (r <= 0) return false;  // EOF or error: caller treats as damage
    done += static_cast<std::size_t>(r);
  }
  return true;
}

void writeAll(int fd, const std::uint8_t* buf, std::size_t n) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t r = ::write(fd, buf + done, n - done);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("cache::FileBackend: write failed: " +
                               std::string(std::strerror(errno)));
    }
    done += static_cast<std::size_t>(r);
  }
}

}  // namespace

FileBackend::FileBackend(Config config) : config_(std::move(config)) {
  if (config_.directory.empty()) {
    throw std::invalid_argument("cache::FileBackend: directory required");
  }
  if (::mkdir(config_.directory.c_str(), 0755) != 0 && errno != EEXIST) {
    throw std::runtime_error("cache::FileBackend: cannot create directory " +
                             config_.directory);
  }
  openSegments();
}

FileBackend::~FileBackend() {
  for (int fd : fds_) {
    if (fd >= 0) ::close(fd);
  }
}

std::string FileBackend::segmentPath(std::size_t seg) const {
  char name[32];
  std::snprintf(name, sizeof(name), "cache-%06zu.seg", seg);
  return config_.directory + "/" + name;
}

void FileBackend::openSegments() {
  // Segments are numbered densely from zero; stop at the first gap. A
  // store that crashed mid-rotation leaves at worst one empty trailing
  // file, which scans clean.
  for (std::size_t seg = 0;; ++seg) {
    const std::string path = segmentPath(seg);
    int fd = ::open(path.c_str(), O_RDWR);
    if (fd < 0) break;
    fds_.push_back(fd);
    scanSegment(seg);
  }
  if (fds_.empty()) {
    int fd = ::open(segmentPath(0).c_str(), O_RDWR | O_CREAT, 0644);
    if (fd < 0) {
      throw std::runtime_error("cache::FileBackend: cannot create segment " +
                               segmentPath(0));
    }
    fds_.push_back(fd);
    activeSize_ = 0;
  }
  recovery_.segments = fds_.size();
}

void FileBackend::scanSegment(std::size_t seg) {
  const int fd = fds_[seg];
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    throw std::runtime_error("cache::FileBackend: fstat failed on " +
                             segmentPath(seg));
  }
  const std::uint64_t fileSize = static_cast<std::uint64_t>(st.st_size);
  std::uint64_t offset = 0;
  std::uint8_t fixed[kHeaderLen + kBodyFixedLen];
  std::vector<std::uint8_t> body;
  while (offset + sizeof(fixed) <= fileSize) {
    if (!readExact(fd, offset, fixed, sizeof(fixed))) break;
    if (readU32(fixed) != kMagic) break;
    const std::uint32_t valueLen = readU32(fixed + kHeaderLen + 16);
    const std::uint64_t recordLen =
        kHeaderLen + kBodyFixedLen + valueLen + kChecksumLen;
    if (offset + recordLen > fileSize) break;  // torn tail
    body.resize(kBodyFixedLen + valueLen);
    if (!readExact(fd, offset + kHeaderLen, body.data(), body.size())) break;
    std::uint8_t sumBuf[kChecksumLen];
    if (!readExact(fd, offset + kHeaderLen + body.size(), sumBuf,
                   kChecksumLen)) {
      break;
    }
    if (KeyBuilder().mixBytes(body).digest() != readU64(sumBuf)) {
      break;  // corrupt suffix
    }
    CacheKey key;
    key.hi = readU64(body.data());
    key.lo = readU64(body.data() + 8);
    Location loc;
    loc.segment = seg;
    loc.bodyOffset = offset + kHeaderLen;
    loc.valueLen = valueLen;
    index_[key] = loc;  // later records win
    ++recovery_.liveRecords;
    offset += recordLen;
  }
  if (offset < fileSize) {
    // Drop only the damaged suffix; everything before it stays live.
    recovery_.droppedBytes += fileSize - offset;
    ++recovery_.truncatedSegments;
    if (::ftruncate(fd, static_cast<off_t>(offset)) != 0) {
      throw std::runtime_error("cache::FileBackend: truncate failed on " +
                               segmentPath(seg));
    }
  }
  activeSize_ = offset;  // only the last scanned segment's value survives
}

void FileBackend::rotateLocked() {
  const std::size_t seg = fds_.size();
  int fd = ::open(segmentPath(seg).c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    throw std::runtime_error("cache::FileBackend: cannot create segment " +
                             segmentPath(seg));
  }
  fds_.push_back(fd);
  activeSize_ = 0;
  recovery_.segments = fds_.size();
}

bool FileBackend::fetch(const CacheKey& key, std::vector<std::uint8_t>& out) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.fetches;
  const auto it = index_.find(key);
  if (it == index_.end()) return false;
  const Location& loc = it->second;
  const int fd = fds_[loc.segment];
  // The body's fixed part and its value are read apart, the value straight
  // into `out`; FNV-1a over the two in turn is the checksum of the body.
  std::uint8_t fixed[kBodyFixedLen];
  std::uint8_t sumBuf[kChecksumLen];
  out.resize(loc.valueLen);
  if (!readExact(fd, loc.bodyOffset, fixed, kBodyFixedLen) ||
      !readExact(fd, loc.bodyOffset + kBodyFixedLen, out.data(), out.size()) ||
      !readExact(fd, loc.bodyOffset + kBodyFixedLen + out.size(), sumBuf,
                 kChecksumLen) ||
      KeyBuilder().mixBytes(fixed, kBodyFixedLen).mixBytes(out).digest() !=
          readU64(sumBuf)) {
    // Never serve bytes that fail the checksum — drop the index entry so
    // the caller recomputes and overwrites.
    out.clear();
    ++stats_.corruptRejected;
    index_.erase(it);
    return false;
  }
  ++stats_.hits;
  stats_.bytesRead += out.size();
  return true;
}

void FileBackend::store(const CacheKey& key,
                        const std::vector<std::uint8_t>& value) {
  std::vector<std::uint8_t> record;
  record.reserve(kHeaderLen + kBodyFixedLen + value.size() + kChecksumLen);
  putU32(record, kMagic);
  putU64(record, key.hi);
  putU64(record, key.lo);
  putU32(record, static_cast<std::uint32_t>(value.size()));
  record.insert(record.end(), value.begin(), value.end());
  putU64(record, KeyBuilder()
                     .mixBytes(record.data() + kHeaderLen,
                               record.size() - kHeaderLen)
                     .digest());

  std::lock_guard<std::mutex> lock(mutex_);
  if (activeSize_ >= config_.segmentBytes) rotateLocked();
  const std::size_t seg = fds_.size() - 1;
  const int fd = fds_[seg];
  // The append fd's offset is always at the scanned/written end: O_RDWR
  // reads use pread, so only appends move it. Seek defensively anyway in
  // case a recovery truncate left it past EOF.
  const off_t at = ::lseek(fd, static_cast<off_t>(activeSize_), SEEK_SET);
  if (at < 0) {
    throw std::runtime_error("cache::FileBackend: seek failed");
  }
  writeAll(fd, record.data(), record.size());
  Location loc;
  loc.segment = seg;
  loc.bodyOffset = activeSize_ + kHeaderLen;
  loc.valueLen = static_cast<std::uint32_t>(value.size());
  index_[key] = loc;
  activeSize_ += record.size();
  ++stats_.stores;
  stats_.bytesWritten += record.size();
  if (config_.syncEveryStore) ::fsync(fd);
}

void FileBackend::sync() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (int fd : fds_) ::fsync(fd);
}

FileBackend::Stats FileBackend::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t FileBackend::indexSize() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return index_.size();
}

}  // namespace vcad::cache
