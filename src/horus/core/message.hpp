// The Horus message object (Section 3).
//
// "The message object is a local storage structure optimized for its
//  purpose. Its interface includes operations to push and pop protocol
//  headers, much like a stack. ... A message object can contain pointers to
//  data located in the address space of the application ...; this permits
//  Horus to pass messages up and down a stack with no copying of the data."
//
// "The message object that is sent is different from the message object
//  that is delivered", and a Message has exactly those two modes:
//
//  * tx mode -- sent DOWN a stack. The message is one contiguous wire
//    buffer (WireBuf): the compacted region's staging area at the front,
//    then headroom, then the pushed headers (outermost first) and the
//    payload, then tailroom for a transport trailer. Each push writes its
//    header in place, immediately in front of what is already there, so
//    the datagram already exists contiguously when it reaches the
//    transport. from_payload adopts the caller's bytes as the buffer
//    without copying; the first time a stack touches the message it moves
//    it, with one copy, into a buffer with that stack's geometry (a pooled
//    buffer, so a steady-state cast allocates nothing; an unpooled one for
//    oversize payloads).
//  * rx mode -- a view over a received datagram, passed UP a stack.
//    Layers read their fields from the region and pop variable extensions
//    by advancing a cursor over the shared datagram buffer; whatever
//    remains when the message reaches the application is the payload. No
//    bytes are copied on the way up (the region is a view into the same
//    buffer).
//
// Messages are value types; copying a tx message shares its wire buffer
// and the first mutation of a shared buffer clones it (copy-on-write), so
// logs can hold cheap copies.
//
// Layer headers use Section 10's fix 3: a compacted region, a single
// bit-packed area precomputed per stack (BitLayout) and written in place by
// each layer with no push/pop at all. Only variable-length header
// extensions (e.g. CAUSAL's vector timestamp) travel as pushed blocks.
#pragma once

#include <memory>
#include <string_view>

#include "horus/core/wirebuf.hpp"
#include "horus/util/bytes.hpp"
#include "horus/util/serialize.hpp"

namespace horus {

class Message {
 public:
  /// Empty-payload tx message (no buffer until something is written).
  Message() = default;

  // -- construction ---------------------------------------------------------

  /// tx message whose buffer is `payload` itself (no copy). It has no
  /// headroom yet: the first stack to touch it gives it one.
  static Message from_payload(Bytes payload);
  static Message from_string(std::string_view s) { return from_payload(to_bytes(s)); }
  /// tx message laid out in `wb`: `region_cap` bytes of region staging at
  /// the front, a copy of `payload` ending `tailroom` bytes before the end
  /// of the buffer, and headroom for headers in between. The payload must
  /// fit; allocates nothing.
  static Message make_linear(WireBufRef wb, std::size_t region_cap,
                             std::size_t tailroom, ByteSpan payload);
  /// rx mode: wrap a received datagram. The message occupies
  /// [offset, len) of the buffer; its first `region_bytes` bytes are the
  /// compacted header region. len = SIZE_MAX means the
  /// whole buffer; transports that append trailers pass a shorter len, and
  /// endpoint-level framing passes a nonzero offset. Zero-copy: the region
  /// stays a view into the shared buffer.
  static Message from_wire(std::shared_ptr<const Bytes> datagram,
                           std::size_t region_bytes,
                           std::size_t len = static_cast<std::size_t>(-1),
                           std::size_t offset = 0);
  /// Copying convenience overload; prefer the shared_ptr overload, which is
  /// zero-copy. Kept for tests and for callers that only have a transient
  /// view of the datagram.
  static Message from_wire(ByteSpan datagram, std::size_t region_bytes);
  /// rx mode over one new buffer holding `region` then `rest` (see
  /// upper_span); used when a layer re-injects a logged or transformed
  /// message.
  static Message from_parts(ByteSpan region, ByteSpan rest);

  [[nodiscard]] bool rx() const { return rx_buf_ != nullptr; }

  // -- tx path: geometry ----------------------------------------------------

  /// Whether this tx message already has at least this region staging
  /// capacity and tailroom (i.e. a stack with this geometry laid it out).
  [[nodiscard]] bool fits(std::size_t region_cap, std::size_t tailroom) const {
    return wb_ && region_cap_ >= region_cap && tailroom_bytes() >= tailroom;
  }
  /// Move the whole message (region, headers, payload) into `wb` with the
  /// given region capacity and tailroom. One copy. `wb` must hold the
  /// region capacity plus upper_span() plus the tailroom.
  void move_to(WireBufRef wb, std::size_t region_cap, std::size_t tailroom);

  // -- tx path: header pushing ---------------------------------------------

  /// Reserve `n` bytes immediately in front of the current headers and
  /// return a writable view (the caller serializes the new outermost header
  /// into it). Grows (off-pool) on headroom overflow and clones on write to
  /// a shared buffer, so it always succeeds.
  [[nodiscard]] MutByteSpan prepend(std::size_t n);

  /// Prepend a header block (a layer's variable extension). tx mode only.
  void push_block(ByteSpan block);

  /// The compacted header region, grown to at least `bytes` (new bytes
  /// read zero). tx mode only.
  MutByteSpan region_mut(std::size_t bytes);

  /// Build the complete framed datagram in place inside the wire buffer:
  /// [gid (8 bytes LE)][stack-epoch stamp (2 bytes LE)][region padded to
  /// region_bytes][headers, outermost first][payload][`trailer_room`
  /// uninitialized trailer bytes for the caller to fill].
  /// Returns the datagram as a view into the buffer, valid until the next
  /// mutation. May be called more than once (retransmission); the
  /// message's logical content is unchanged.
  [[nodiscard]] MutByteSpan finalize_wire(std::uint64_t gid,
                                          std::size_t region_bytes,
                                          std::size_t trailer_room,
                                          std::uint16_t epoch_stamp = 0);

  // -- rx path: header popping ---------------------------------------------

  /// Reader over all not-yet-consumed bytes. rx mode only.
  [[nodiscard]] Reader reader() const;
  /// Mark `n` bytes as consumed (a header pop). rx mode only.
  void consume(std::size_t n);

  /// The compacted header region (rx view or staged tx contents).
  [[nodiscard]] ByteSpan region() const;

  // -- payload --------------------------------------------------------------

  /// Inline: the stack's metrics probes read this on every boundary
  /// crossing. A moved-from message reads as empty.
  [[nodiscard]] std::size_t payload_size() const {
    if (rx()) return rx_end_ - rx_cursor_;
    return wb_ ? pay_len_ : 0;
  }
  [[nodiscard]] Bytes payload_bytes() const;
  [[nodiscard]] std::string payload_string() const { return horus::to_string(payload_bytes()); }

  // -- capture for logging / forwarding -------------------------------------

  /// Everything above the current position, as a view: for a tx message
  /// the pushed headers + payload, for an rx message the unconsumed
  /// remainder. Together with region() this captures the message as seen
  /// at the capturing layer (layers::CapturedMsg).
  [[nodiscard]] ByteSpan upper_span() const;

  /// Header bytes this message carries: the region plus pushed headers
  /// (tx) or popped ones (rx).
  [[nodiscard]] std::size_t header_overhead() const;

 private:
  [[nodiscard]] std::size_t tailroom_bytes() const {
    return wb_ ? wb_->capacity() - (pay_off_ + pay_len_) : 0;
  }
  /// Lay the message out in `wb`: `region` copied to the front, `content`
  /// (headers then a `pay_len`-byte payload) ending `tailroom` bytes before
  /// the end. `region` and `content` may point into the current buffer.
  void place(WireBufRef wb, std::size_t region_cap, std::size_t tailroom,
             ByteSpan region, ByteSpan content, std::size_t pay_len);
  /// Ensure a buffer of our own with at least `front` bytes of headroom and
  /// `back` bytes of tailroom: clones a shared buffer (copy-on-write) and
  /// moves to a larger one on overflow. Both leave the pool.
  void make_room(std::size_t front, std::size_t back);
  /// Move to a fresh unpooled buffer with this geometry.
  void relayout(std::size_t region_cap, std::size_t headroom,
                std::size_t tailroom);

  // tx state
  WireBufRef wb_;
  std::size_t region_cap_ = 0;  // [0, region_cap_) is region staging space
  std::size_t region_len_ = 0;  // staged region bytes (zero-filled on growth)
  std::size_t head_ = 0;        // first header byte; headers grow downward
  std::size_t pay_off_ = 0;     // payload start (headers live in [head_, pay_off_))
  std::size_t pay_len_ = 0;
  // rx state
  std::shared_ptr<const Bytes> rx_buf_;
  std::size_t rx_cursor_ = 0;
  std::size_t rx_end_ = 0;
  std::size_t rx_region_off_ = 0;  // region view into rx_buf_
  std::size_t rx_region_len_ = 0;
};

}  // namespace horus
