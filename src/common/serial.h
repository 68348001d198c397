// Minimal checked binary serialization, used to checkpoint and restore
// sketch state (core/ltc_serial.h, sketch serializers). Fixed-width
// little-endian encoding, explicit versioned headers at the call sites,
// and a sticky failure flag on the reader so truncated or corrupt input
// can never produce out-of-bounds reads — it just yields std::nullopt at
// the Load call.

#ifndef LTC_COMMON_SERIAL_H_
#define LTC_COMMON_SERIAL_H_

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace ltc {

class BinaryWriter {
 public:
  BinaryWriter() = default;
  /// Writes after the bytes already in `prefix` (e.g. a frame header),
  /// keeping its capacity, so a caller that reserved room for the whole
  /// message serializes into it without another copy.
  explicit BinaryWriter(std::string prefix) : buffer_(std::move(prefix)) {}

  void PutU8(uint8_t v) { buffer_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutDouble(double v) { PutRaw(&v, sizeof(v)); }
  void PutBytes(const void* data, size_t len) { PutRaw(data, len); }

  /// Length-prefixed string.
  void PutString(std::string_view s) {
    PutU64(s.size());
    PutRaw(s.data(), s.size());
  }

  const std::string& data() const { return buffer_; }
  size_t size() const { return buffer_.size(); }

  /// Hands the buffer back; the writer is left empty.
  std::string Release() { return std::move(buffer_); }

 private:
  void PutRaw(const void* data, size_t len) {
    buffer_.append(static_cast<const char*>(data), len);
  }
  std::string buffer_;
};

class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  uint8_t GetU8() {
    uint8_t v = 0;
    GetRaw(&v, sizeof(v));
    return v;
  }
  uint32_t GetU32() {
    uint32_t v = 0;
    GetRaw(&v, sizeof(v));
    return v;
  }
  uint64_t GetU64() {
    uint64_t v = 0;
    GetRaw(&v, sizeof(v));
    return v;
  }
  double GetDouble() {
    double v = 0;
    GetRaw(&v, sizeof(v));
    return v;
  }
  std::string GetString() {
    uint64_t len = GetU64();
    if (failed_ || len > Remaining()) {
      failed_ = true;
      return {};
    }
    std::string out(data_.substr(pos_, len));
    pos_ += len;
    return out;
  }
  void GetBytes(void* out, size_t len) { GetRaw(out, len); }

  /// True once any read ran past the end; all subsequent reads return 0.
  bool failed() const { return failed_; }
  /// True iff everything was consumed and nothing failed.
  bool AtEnd() const { return !failed_ && pos_ == data_.size(); }
  size_t Remaining() const { return data_.size() - pos_; }

 private:
  void GetRaw(void* out, size_t len) {
    if (failed_ || len > Remaining()) {
      failed_ = true;
      std::memset(out, 0, len);
      return;
    }
    std::memcpy(out, data_.data() + pos_, len);
    pos_ += len;
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool failed_ = false;
};

/// Every serializable structure opens its blob with a 4-byte type magic
/// followed by a 4-byte format version (see docs/DURABILITY.md). The
/// version is bumped whenever the byte layout changes; Deserialize
/// rejects blobs whose version it does not speak rather than misreading
/// them. Pre-versioning (v1) blobs had no version field and are
/// rejected the same way.
inline void PutVersionedMagic(BinaryWriter& writer, uint32_t magic,
                              uint32_t version) {
  writer.PutU32(magic);
  writer.PutU32(version);
}

/// Consumes and checks a magic + version pair. False on mismatch or a
/// short read (the reader's sticky failure flag is set by the read).
inline bool CheckVersionedMagic(BinaryReader& reader, uint32_t magic,
                                uint32_t version) {
  const uint32_t got_magic = reader.GetU32();
  const uint32_t got_version = reader.GetU32();
  return !reader.failed() && got_magic == magic && got_version == version;
}

/// Whole-file helpers (binary). Load returns nullopt on I/O failure.
bool WriteFile(const std::string& path, std::string_view contents);
std::optional<std::string> ReadFileToString(const std::string& path);

}  // namespace ltc

#endif  // LTC_COMMON_SERIAL_H_
