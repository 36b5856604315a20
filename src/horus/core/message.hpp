// The Horus message object (Section 3).
//
// "The message object is a local storage structure optimized for its
//  purpose. Its interface includes operations to push and pop protocol
//  headers, much like a stack. ... A message object can contain pointers to
//  data located in the address space of the application ...; this permits
//  Horus to pass messages up and down a stack with no copying of the data."
//
// A Message is in one of two modes:
//
//  * tx mode -- created around a payload and sent DOWN a stack. Layers
//    write their fixed fields into the compacted region and prepend
//    variable extensions as header blocks (push). Two tx representations
//    exist:
//      - linear: one contiguous wire buffer with reserved headroom (sized
//        from the stack's precomputed header budget). Each push writes the
//        header in place, immediately in front of what is already there, so
//        serializing for the wire is a near-no-op and a steady-state cast
//        performs zero heap allocations (the buffer is pooled).
//      - chunked: the classic representation -- a vector of header blocks
//        plus a chain of reference-counted payload chunks. Used for
//        messages built mid-stack (control traffic, fragmentation bundles)
//        and for payloads too large for the stack's buffer class; the wire
//        form is gathered with one copy at the transport.
//  * rx mode -- created around a received datagram and passed UP a stack.
//    Layers read their fields from the region and pop variable extensions
//    by advancing a cursor over the shared datagram buffer; whatever
//    remains when the message reaches the application is the payload. No
//    bytes are copied on the way up (the compacted header region is a view
//    into the same buffer).
//
// "The message object that is sent is different from the message object
//  that is delivered" -- exactly these two modes.
//
// Messages are value types; copying a linear message shares the underlying
// wire buffer and the first mutation of a shared buffer clones it
// (copy-on-write), so retransmission logs can hold cheap copies.
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
  /// Empty-payload tx message.
  Message() = default;

  // -- construction ---------------------------------------------------------

  static Message from_payload(Bytes payload);
  static Message from_string(std::string_view s) { return from_payload(to_bytes(s)); }
  /// Zero-copy: payload references `[off, off+len)` of a shared buffer.
  static Message from_shared(std::shared_ptr<const Bytes> buf, std::size_t off,
                             std::size_t len);
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
  /// rx mode from previously captured pieces (see upper_wire); used when a
  /// layer re-injects a logged message during flush/retransmission.
  static Message from_parts(Bytes region, Bytes rest);

  /// Linear tx message built directly in `wb` (see linearize for the buffer
  /// geometry). The payload must fit; copies it once, allocates nothing.
  static Message make_linear(WireBufRef wb, std::size_t region_cap,
                             std::size_t tailroom, ByteSpan payload);

  [[nodiscard]] bool rx() const { return rx_buf_ != nullptr; }
  /// tx mode with a contiguous headroom wire buffer.
  [[nodiscard]] bool linear() const { return static_cast<bool>(wb_); }

  // -- tx path: header pushing ---------------------------------------------

  /// Convert a chunked tx message into linear form inside `wb`: the payload
  /// is placed `tailroom` bytes from the end of the buffer, `region_cap`
  /// bytes are reserved at the front for the compacted region, and
  /// everything in between is header headroom (any blocks already pushed
  /// move there too, order preserved). Returns false (message unchanged) if
  /// this message cannot be linearized or does not fit. One payload copy --
  /// the same copy the gather path would have made at the transport.
  bool linearize(WireBufRef wb, std::size_t region_cap, std::size_t tailroom);

  /// Bytes of already-pushed chunked header blocks (0 for linear/rx
  /// messages); used to size the buffer a linearize needs.
  [[nodiscard]] std::size_t pending_block_bytes() const {
    std::size_t n = 0;
    for (const auto& b : blocks_) n += b.size();
    return n;
  }

  /// Reserve `n` bytes immediately in front of the current headers and
  /// return a writable view (the caller serializes the new outermost header
  /// into it). Empty span if the message is not linear -- callers fall back
  /// to push_block. Grows (off-pool) on headroom overflow and clones on
  /// write to a shared buffer, so it always succeeds on a linear message.
  [[nodiscard]] MutByteSpan prepend(std::size_t n);

  /// Prepend a header block (a layer's variable extension). tx mode only.
  void push_block(ByteSpan block);

  /// The compacted header region, grown to at least `bytes`. tx mode only.
  MutByteSpan region_mut(std::size_t bytes);

  /// Serialize for the wire: [region (padded to region_bytes)][header blocks,
  /// outermost first][payload chunks]. tx mode only. Linear messages prefer
  /// finalize_wire, which does this without copying.
  [[nodiscard]] Bytes to_wire(std::size_t region_bytes) const;

  /// Build the complete framed datagram in place inside the wire buffer:
  /// [gid (8 bytes LE)][stack-epoch stamp (2 bytes LE)][region padded to
  /// region_bytes][headers][payload][`trailer_room` uninitialized trailer
  /// bytes for the caller to fill].
  /// Returns the datagram as a view into the buffer, valid until the next
  /// mutation; empty span if the message is not linear or the trailer does
  /// not fit (callers fall back to the gather path). May be called more
  /// than once (retransmission); the message's logical content is unchanged.
  [[nodiscard]] MutByteSpan finalize_wire(std::uint64_t gid,
                                          std::size_t region_bytes,
                                          std::size_t trailer_room,
                                          std::uint16_t epoch_stamp = 0);

  // -- rx path: header popping ---------------------------------------------

  /// Reader over all not-yet-consumed bytes. rx mode only.
  [[nodiscard]] Reader reader() const;
  /// Mark `n` bytes as consumed (a header pop). rx mode only.
  void consume(std::size_t n);

  /// The compacted header region (rx view or tx contents).
  [[nodiscard]] ByteSpan region() const;

  // -- payload --------------------------------------------------------------

  /// Inline: the stack's metrics probes read this on every boundary
  /// crossing, and the common rx/linear cases are one member load.
  [[nodiscard]] std::size_t payload_size() const {
    if (rx()) return rx_end_ - rx_cursor_;
    if (linear()) return pay_len_;
    std::size_t n = 0;
    for (const auto& c : chunks_) n += c.len;
    return n;
  }
  /// Linearized payload (copies if chunked).
  [[nodiscard]] Bytes payload_bytes() const;
  [[nodiscard]] std::string payload_string() const { return horus::to_string(payload_bytes()); }

  /// Zero-copy sub-range of this tx message's payload as a new tx message
  /// (fragmentation). Requires off+len <= payload_size().
  [[nodiscard]] Message slice_payload(std::size_t off, std::size_t len) const;

  // -- capture for logging / forwarding -------------------------------------

  /// Serialize everything above the current position: for a tx message the
  /// pushed blocks + payload, for an rx message the unconsumed remainder.
  /// Together with region_copy() this captures the message as seen at the
  /// capturing layer, so it can be re-injected later with from_parts().
  [[nodiscard]] Bytes upper_wire() const;
  /// upper_wire() without the copy, when the content is already contiguous
  /// (rx messages and linear tx messages). Null-data span for chunked tx --
  /// callers fall back to upper_wire().
  [[nodiscard]] ByteSpan upper_span() const;
  [[nodiscard]] Bytes region_copy() const;

  /// Total header bytes this message carries (blocks + region); stats.
  [[nodiscard]] std::size_t header_overhead() const;

 private:
  struct Chunk {
    std::shared_ptr<const Bytes> buf;
    std::size_t off = 0;
    std::size_t len = 0;
  };

  /// Clone a shared wire buffer before mutating it (copy-on-write),
  /// guaranteeing at least `extra_headroom` free bytes in front.
  void unshare(std::size_t extra_headroom);
  /// Move to a larger (off-pool) buffer with `need` more headroom bytes.
  void grow_headroom(std::size_t need);
  /// Abandon the linear form: convert to chunked tx (rare escape hatch for
  /// operations the linear form cannot express).
  void delinearize();
  /// Share the wire buffer as a Bytes for chunk references.
  [[nodiscard]] std::shared_ptr<const Bytes> share_buffer() const;

  // chunked tx state
  std::vector<Bytes> blocks_;  // push order: [0] innermost (pushed first)
  std::vector<Chunk> chunks_;  // payload chain
  // linear tx state
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
  // chunked tx / from_parts region
  Bytes region_;
};

}  // namespace horus
