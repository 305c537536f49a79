// Little-endian byte buffer encoding/decoding and whole-file helpers.
//
// BAM-style binary records are built and parsed through these primitives.

#ifndef GESALL_UTIL_IO_H_
#define GESALL_UTIL_IO_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace gesall {

/// \brief Appends little-endian fixed-width integers and byte strings to a
/// growable buffer.
class BufferWriter {
 public:
  explicit BufferWriter(std::string* out) : out_(out) {}

  void PutU8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void PutU16(uint16_t v) { PutFixed(v); }
  void PutU32(uint32_t v) { PutFixed(v); }
  void PutU64(uint64_t v) { PutFixed(v); }
  void PutI32(int32_t v) { PutFixed(static_cast<uint32_t>(v)); }
  void PutI64(int64_t v) { PutFixed(static_cast<uint64_t>(v)); }
  void PutF64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    PutFixed(bits);
  }
  void PutBytes(std::string_view bytes) { out_->append(bytes); }
  /// Length-prefixed (u32) byte string.
  void PutString(std::string_view s) {
    PutU32(static_cast<uint32_t>(s.size()));
    PutBytes(s);
  }

 private:
  template <typename T>
  void PutFixed(T v) {
    char buf[sizeof(T)];
    for (size_t i = 0; i < sizeof(T); ++i) {
      buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
    out_->append(buf, sizeof(T));
  }

  std::string* out_;
};

/// \brief Reads little-endian fixed-width integers and byte strings from a
/// byte view, with bounds checking.
class BufferReader {
 public:
  explicit BufferReader(std::string_view data) : data_(data) {}

  size_t position() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ >= data_.size(); }

  Status GetU8(uint8_t* v) { return GetFixed(v); }
  Status GetU16(uint16_t* v) { return GetFixed(v); }
  Status GetU32(uint32_t* v) { return GetFixed(v); }
  Status GetU64(uint64_t* v) { return GetFixed(v); }
  Status GetI32(int32_t* v) {
    uint32_t u = 0;
    GESALL_RETURN_NOT_OK(GetFixed(&u));
    *v = static_cast<int32_t>(u);
    return Status::OK();
  }
  Status GetI64(int64_t* v) {
    uint64_t u = 0;
    GESALL_RETURN_NOT_OK(GetFixed(&u));
    *v = static_cast<int64_t>(u);
    return Status::OK();
  }
  Status GetF64(double* v) {
    uint64_t bits;
    GESALL_RETURN_NOT_OK(GetFixed(&bits));
    std::memcpy(v, &bits, sizeof(bits));
    return Status::OK();
  }
  Status GetBytes(size_t n, std::string_view* out) {
    if (remaining() < n) return Status::OutOfRange("buffer underflow");
    *out = data_.substr(pos_, n);
    pos_ += n;
    return Status::OK();
  }
  Status GetString(std::string* out) {
    uint32_t n;
    GESALL_RETURN_NOT_OK(GetU32(&n));
    std::string_view sv;
    GESALL_RETURN_NOT_OK(GetBytes(n, &sv));
    out->assign(sv);
    return Status::OK();
  }
  /// Reads a u32 element count, then fails with Corruption unless that
  /// many elements of at least `min_element_bytes` each fit in the bytes
  /// left, so a lying count never sizes an allocation.
  Status GetCount(uint32_t* count, size_t min_element_bytes) {
    GESALL_RETURN_NOT_OK(GetU32(count));
    if (*count <= remaining() / min_element_bytes) return Status::OK();
    return Status::Corruption(
        "count of " + std::to_string(*count) + " elements of at least " +
        std::to_string(min_element_bytes) + " bytes overruns the " +
        std::to_string(remaining()) + " bytes left");
  }

 private:
  template <typename T>
  Status GetFixed(T* v) {
    if (remaining() < sizeof(T)) return Status::OutOfRange("buffer underflow");
    T r = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      r |= static_cast<T>(static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += sizeof(T);
    *v = r;
    return Status::OK();
  }

  std::string_view data_;
  size_t pos_ = 0;
};

/// Reads an entire file into a string.
Result<std::string> ReadFileToString(const std::string& path);

/// Writes (replacing) a file from a string.
Status WriteStringToFile(const std::string& path, std::string_view data);

}  // namespace gesall

#endif  // GESALL_UTIL_IO_H_
