// A point-to-point message in the k-machine model.
//
// The model charges each link B bits per round; the simulator charges a
// message its serialized payload size plus a small fixed header (the tag).
// Payloads are produced with util/serialize.hpp so that counts and IDs are
// varint-encoded, keeping messages at the O(log n) bits the paper assumes.
//
// Payloads are immutable and reference-counted (PayloadRef): a broadcast
// to k-1 machines shares one buffer instead of making k-1 deep copies,
// and two-hop routing forwards the original envelope bytes without
// re-serializing.  Immutability is what makes the sharing safe — no
// receiver can observe another receiver's mutations, because there are
// none.  The refcount is intrusive and the buffer object itself recycles
// through a thread-local pool (alongside the byte storage, which rotates
// through util/buffer_pool.hpp), so steady-state message creation does
// not touch the allocator at all.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace km {

/// Activity counters for the PayloadBuf object pool (the thread-local
/// free lists of refcounted buffer *objects* in message.cpp — distinct
/// from util/buffer_pool.hpp, which recycles the byte storage those
/// objects carry).  Cumulative counts aggregate every thread, live and
/// exited; `pooled_objects` is a gauge over the live pools only.
struct PayloadPoolCounters {
  std::uint64_t hits = 0;    ///< acquires served from a free list
  std::uint64_t misses = 0;  ///< acquires that allocated a fresh object
  std::uint64_t recycled = 0;  ///< dead buffers adopted back into a list
  std::uint64_t dropped = 0;   ///< dead buffers freed (list at capacity)
  std::uint64_t pooled_objects = 0;  ///< gauge: objects currently pooled

  /// Activity since `start` (cumulative fields subtract; the gauge is
  /// carried over as-is, occupancy being a point-in-time reading).
  PayloadPoolCounters since(const PayloadPoolCounters& start) const noexcept {
    PayloadPoolCounters d = *this;
    d.hits -= start.hits;
    d.misses -= start.misses;
    d.recycled -= start.recycled;
    d.dropped -= start.dropped;
    return d;
  }
};

/// Aggregated PayloadBuf pool counters across every thread (exited
/// threads' activity is folded in at thread exit, like the byte pool's
/// buffer_pool_counters()).
PayloadPoolCounters payload_pool_counters() noexcept;

namespace detail {

/// Intrusively refcounted payload buffer.  Created/recycled only through
/// the functions below (thread-local free list in message.cpp).
struct PayloadBuf {
  std::atomic<std::size_t> refs{1};
  std::vector<std::byte> bytes;
};

/// Pops a recycled PayloadBuf (refs == 1, bytes empty) or allocates one.
PayloadBuf* acquire_payload_buf();
/// Returns a dead buffer (refs reached 0) to the pool; its byte storage
/// rotates back into the util buffer pool.
void recycle_payload_buf(PayloadBuf* buf) noexcept;

}  // namespace detail

/// Shared, immutable byte buffer (payload of a Message).  Cheap to copy:
/// copies share the underlying storage and bump an atomic refcount.  A
/// PayloadRef can view a suffix of another's buffer (see suffix()), which
/// routing uses to peel envelope headers without copying the inner
/// payload.
class PayloadRef {
 public:
  PayloadRef() = default;

  /// Takes ownership of `bytes` (typically Writer::take()).  Implicit so
  /// `msg.payload = writer.take()` keeps working.
  PayloadRef(std::vector<std::byte> bytes);  // NOLINT(google-explicit-*)

  PayloadRef(const PayloadRef& other) noexcept
      : buf_(other.buf_), view_(other.view_) {
    if (buf_) buf_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  PayloadRef(PayloadRef&& other) noexcept
      : buf_(std::exchange(other.buf_, nullptr)),
        view_(std::exchange(other.view_, {})) {}
  PayloadRef& operator=(const PayloadRef& other) noexcept {
    PayloadRef tmp(other);
    swap(tmp);
    return *this;
  }
  PayloadRef& operator=(PayloadRef&& other) noexcept {
    PayloadRef tmp(std::move(other));
    swap(tmp);
    return *this;
  }
  ~PayloadRef() { release(); }

  void swap(PayloadRef& other) noexcept {
    std::swap(buf_, other.buf_);
    std::swap(view_, other.view_);
  }

  /// Deep-copies `bytes` into a fresh buffer.
  static PayloadRef copy_of(std::span<const std::byte> bytes);

  std::span<const std::byte> view() const noexcept { return view_; }
  operator std::span<const std::byte>() const noexcept { return view_; }

  const std::byte* data() const noexcept { return view_.data(); }
  std::size_t size() const noexcept { return view_.size(); }
  bool empty() const noexcept { return view_.empty(); }
  auto begin() const noexcept { return view_.begin(); }
  auto end() const noexcept { return view_.end(); }

  /// Zero-copy sub-view starting at `offset`, sharing this buffer's
  /// ownership.  offset is clamped to size().
  PayloadRef suffix(std::size_t offset) const noexcept {
    PayloadRef out(*this);  // bumps the refcount
    out.remove_prefix(offset);
    return out;
  }

  /// Zero-copy sub-view of `len` bytes starting at `offset`, sharing this
  /// buffer's ownership.  Both are clamped to the view.  The message
  /// plane uses this to hand each framed message its bytes out of the
  /// link's shared frame buffer without copying.  Note the flip side of
  /// sharing: retaining one slice keeps the whole underlying buffer
  /// alive.  A program that stores message payloads in long-lived state
  /// should detach them with copy_of() instead of holding the ref.
  PayloadRef slice(std::size_t offset, std::size_t len) const noexcept {
    PayloadRef out(*this);  // bumps the refcount
    out.remove_prefix(offset);
    out.view_ = out.view_.subspan(0, std::min(len, out.view_.size()));
    return out;
  }

  /// Narrows this ref's view in place (no refcount traffic) — the
  /// move-friendly flavor of suffix().  offset is clamped to size().
  void remove_prefix(std::size_t offset) noexcept {
    view_ = view_.subspan(std::min(offset, view_.size()));
  }

  /// True when both refs share the same underlying buffer (zero-copy
  /// sharing, as opposed to equal contents).
  bool shares_buffer_with(const PayloadRef& other) const noexcept {
    return buf_ != nullptr && buf_ == other.buf_;
  }

 private:
  void release() noexcept {
    if (buf_) {
      // Sole-owner fast path: holding a reference and observing refs == 1
      // means no other owner exists (new owners only spring from existing
      // refs, i.e. this one, on this thread) — skip the atomic RMW.
      if (buf_->refs.load(std::memory_order_acquire) == 1 ||
          buf_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        detail::recycle_payload_buf(buf_);
      }
    }
    buf_ = nullptr;
    view_ = {};
  }

  detail::PayloadBuf* buf_ = nullptr;
  std::span<const std::byte> view_;
};

struct Message {
  /// Fixed per-message framing cost (tag), charged against bandwidth.
  /// Charged for every message — even ones the message plane physically
  /// batches into a per-link frame — so the cost accounting is a pure
  /// function of the program, independent of transport batching.
  static constexpr std::size_t kHeaderBits = 16;

  std::uint32_t src = 0;  ///< stamped by the message plane on submit
  std::uint32_t dst = 0;
  std::uint16_t tag = 0;
  PayloadRef payload;

  std::size_t size_bits() const noexcept {
    return kHeaderBits + payload.size() * 8;
  }
};

/// Clamp range for the framing threshold.  The floor keeps framing alive
/// at tiny B (one varint-prefixed entry must still be worth batching);
/// the ceiling stops huge-B configurations from memcpy-ing multi-KiB
/// payloads that amortize an allocation fine on their own.
inline constexpr std::size_t kFramedPayloadMinDefaultBytes = 64;
inline constexpr std::size_t kFramedPayloadMaxDefaultBytes = 4096;

/// The framing threshold at per-link bandwidth B: the largest payload
/// (bytes) the message plane batches into a per-link frame instead of
/// giving it a refcounted buffer of its own.  Framing exists for
/// messages far below the per-link round budget — a payload that fills
/// a round alone amortizes its buffer — so the threshold is one round's
/// worth of bytes, B/8, clamped to
/// [kFramedPayloadMinDefaultBytes, kFramedPayloadMaxDefaultBytes].
/// Applies to the Writer/vector/span send overloads, from a link's
/// second message of the superstep onward; PayloadRef sends (including
/// broadcast) always stay zero-copy shared.  Purely a transport policy:
/// accounting never depends on it.
constexpr std::size_t framed_payload_default_bytes(
    std::uint64_t bandwidth_bits) noexcept {
  const std::uint64_t round_bytes = bandwidth_bits / 8;
  if (round_bytes < kFramedPayloadMinDefaultBytes) {
    return kFramedPayloadMinDefaultBytes;
  }
  if (round_bytes > kFramedPayloadMaxDefaultBytes) {
    return kFramedPayloadMaxDefaultBytes;
  }
  return static_cast<std::size_t>(round_bytes);
}

/// Tags >= kReservedTagBase are reserved for the runtime (collectives,
/// two-hop routing envelopes); algorithms must use smaller tags.
inline constexpr std::uint16_t kReservedTagBase = 0xFF00;
inline constexpr std::uint16_t kCollectiveTag = 0xFF01;
inline constexpr std::uint16_t kRouteEnvelopeTag = 0xFF02;
/// Envelope of one chunk of an oversized two-hop message (see
/// sim/routing.hpp): payloads larger than the per-link round budget are
/// split across multiple random intermediates and reassembled at the
/// destination, restoring Lemma 13's unit-size-message premise.
inline constexpr std::uint16_t kRouteChunkTag = 0xFF03;

}  // namespace km
