#include "util/serialize.hpp"

#include <bit>
#include <cstring>

#include "util/buffer_pool.hpp"

namespace km {

Writer::Writer() : buf_(acquire_buffer()) {}

Writer::~Writer() { recycle_buffer(std::move(buf_)); }

namespace {
template <typename T>
void append_le(std::vector<std::byte>& buf, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::byte raw[sizeof(T)];
  std::memcpy(raw, &v, sizeof(T));
  buf.insert(buf.end(), raw, raw + sizeof(T));
}
}  // namespace

void Writer::put_u8(std::uint8_t v) { append_le(buf_, v); }
void Writer::put_u16(std::uint16_t v) { append_le(buf_, v); }
void Writer::put_u32(std::uint32_t v) { append_le(buf_, v); }
void Writer::put_u64(std::uint64_t v) { append_le(buf_, v); }

void Writer::put_varint(std::uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<std::byte>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  buf_.push_back(static_cast<std::byte>(v));
}

void Writer::put_varint_signed(std::int64_t v) {
  const auto u = static_cast<std::uint64_t>(v);
  put_varint((u << 1) ^ static_cast<std::uint64_t>(v >> 63));
}

void Writer::put_double(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(bits);
}

void Writer::put_bytes(std::span<const std::byte> bytes) {
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

std::vector<std::byte> Writer::take() noexcept {
  std::vector<std::byte> out = acquire_buffer();
  out.swap(buf_);
  return out;
}

void Reader::need(std::size_t n) const {
  if (pos_ + n > data_.size()) {
    throw SerializeError("Reader: payload underrun");
  }
}

namespace {
template <typename T>
T read_le(std::span<const std::byte> data, std::size_t pos) {
  T v;
  std::memcpy(&v, data.data() + pos, sizeof(T));
  return v;
}
}  // namespace

std::uint8_t Reader::get_u8() {
  need(1);
  auto v = read_le<std::uint8_t>(data_, pos_);
  pos_ += 1;
  return v;
}

std::uint16_t Reader::get_u16() {
  need(2);
  auto v = read_le<std::uint16_t>(data_, pos_);
  pos_ += 2;
  return v;
}

std::uint32_t Reader::get_u32() {
  need(4);
  auto v = read_le<std::uint32_t>(data_, pos_);
  pos_ += 4;
  return v;
}

std::uint64_t Reader::get_u64() {
  need(8);
  auto v = read_le<std::uint64_t>(data_, pos_);
  pos_ += 8;
  return v;
}

std::uint64_t Reader::get_varint() {
  std::uint64_t v = 0;
  int shift = 0;
  while (true) {
    need(1);
    const auto b = static_cast<std::uint8_t>(data_[pos_++]);
    if (shift >= 64) throw SerializeError("Reader: varint overflow");
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if (!(b & 0x80)) break;
    shift += 7;
  }
  return v;
}

std::int64_t Reader::get_varint_signed() {
  const std::uint64_t u = get_varint();
  return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

double Reader::get_double() {
  const std::uint64_t bits = get_u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::size_t varint_size(std::uint64_t v) noexcept {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

}  // namespace km
