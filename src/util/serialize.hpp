// Message serialization with bit-accurate size accounting.
//
// The k-machine model charges rounds as ceil(bits per link / B); the paper
// assumes messages of O(log n) bits. To keep the simulator's cost model
// honest, all message payloads are produced through Writer (which encodes
// integers as LEB128 varints so that "small" values really cost few bits)
// and decoded through Reader.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace km {

/// Error thrown when a Reader runs off the end of a payload or decodes a
/// malformed varint.
class SerializeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Append-only byte buffer with varint and fixed-width encoders.  The
/// backing storage comes from the thread-local buffer pool
/// (util/buffer_pool.hpp) and returns there on destruction, so hot loops
/// that create a Writer per message do not hit the allocator.
class Writer {
 public:
  Writer();
  ~Writer();
  Writer(const Writer&) = default;
  Writer& operator=(const Writer&) = default;
  Writer(Writer&&) noexcept = default;
  Writer& operator=(Writer&&) noexcept = default;

  void put_u8(std::uint8_t v);
  void put_u16(std::uint16_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  /// LEB128 unsigned varint: 1 byte per 7 bits of payload.
  void put_varint(std::uint64_t v);
  /// Zigzag-encoded signed varint.
  void put_varint_signed(std::int64_t v);
  void put_double(double v);
  void put_bytes(std::span<const std::byte> bytes);

  std::size_t size_bytes() const noexcept { return buf_.size(); }
  std::size_t size_bits() const noexcept { return buf_.size() * 8; }

  /// Moves the accumulated buffer out; the Writer is reusable afterwards.
  std::vector<std::byte> take() noexcept;

  /// Discards the accumulated bytes but keeps the capacity, so a Writer
  /// reused across messages appends without reallocating.
  void clear() noexcept { buf_.clear(); }

  std::span<const std::byte> view() const noexcept { return buf_; }

 private:
  std::vector<std::byte> buf_;
};

/// Sequential decoder over a byte span. Throws SerializeError on underrun.
class Reader {
 public:
  explicit Reader(std::span<const std::byte> data) noexcept : data_(data) {}

  std::uint8_t get_u8();
  std::uint16_t get_u16();
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  std::uint64_t get_varint();
  std::int64_t get_varint_signed();
  double get_double();

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool done() const noexcept { return pos_ == data_.size(); }

 private:
  void need(std::size_t n) const;

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

/// Number of bytes a varint encoding of v occupies (for cost estimates).
std::size_t varint_size(std::uint64_t v) noexcept;

}  // namespace km
