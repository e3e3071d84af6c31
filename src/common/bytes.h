// Byte-level serialization used by the wire codec (src/net/wire.h).
//
// Fixed-width little-endian primitives plus LEB128 varints. The codec is
// only exercised to *measure* PDU sizes (experiment E4: PDU length is O(n))
// and to round-trip PDUs in tests; the in-memory simulator passes typed
// structs around, as the paper's user-space implementation would pass
// buffers between layers of the same process.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace co {

class ByteWriter {
 public:
  ByteWriter() = default;
  /// Continue appending after the bytes `buf` already holds (take() hands
  /// the whole buffer back): lets a caller grow one buffer across several
  /// writers without a temporary per write.
  explicit ByteWriter(std::vector<std::uint8_t> buf) : buf_(std::move(buf)) {}

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// LEB128 variable-length unsigned integer.
  void varint(std::uint64_t v);
  /// Length-prefixed byte string.
  void bytes(std::span<const std::uint8_t> data);

  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Reader over a byte span; throws std::out_of_range on truncated input.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::uint64_t varint();
  std::vector<std::uint8_t> bytes();

  bool exhausted() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  void need(std::size_t n) const;
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace co
