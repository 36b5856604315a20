#include "horus/core/message.hpp"

#include <cassert>
#include <cstring>

namespace horus {

Message Message::from_payload(Bytes payload) {
  Message m;
  if (payload.empty()) return m;
  m.pay_len_ = payload.size();
  m.wb_ = WireBufRef::adopt(std::move(payload));
  return m;
}

Message Message::make_linear(WireBufRef wb, std::size_t region_cap,
                             std::size_t tailroom, ByteSpan payload) {
  Message m;
  m.place(std::move(wb), region_cap, tailroom, {}, payload, payload.size());
  return m;
}

Message Message::from_wire(std::shared_ptr<const Bytes> datagram,
                           std::size_t region_bytes, std::size_t len,
                           std::size_t offset) {
  Message m;
  std::size_t end = std::min(len, datagram->size());
  if (offset > end || end - offset < region_bytes) {
    throw DecodeError("datagram shorter than header region");
  }
  m.rx_region_off_ = offset;
  m.rx_region_len_ = region_bytes;
  m.rx_cursor_ = offset + region_bytes;
  m.rx_end_ = end;
  m.rx_buf_ = std::move(datagram);
  return m;
}

Message Message::from_wire(ByteSpan datagram, std::size_t region_bytes) {
  return from_wire(std::make_shared<const Bytes>(datagram.begin(), datagram.end()),
                   region_bytes);
}

Message Message::from_parts(ByteSpan region, ByteSpan rest) {
  Bytes buf;
  buf.reserve(region.size() + rest.size());
  buf.insert(buf.end(), region.begin(), region.end());
  buf.insert(buf.end(), rest.begin(), rest.end());
  return from_wire(std::make_shared<const Bytes>(std::move(buf)),
                   region.size());
}

// -- tx layout ----------------------------------------------------------------

void Message::place(WireBufRef wb, std::size_t region_cap, std::size_t tailroom,
                    ByteSpan region, ByteSpan content, std::size_t pay_len) {
  assert(region.size() <= region_cap &&
         region_cap + content.size() + tailroom <= wb->capacity());
  std::uint8_t* base = wb->data();
  std::size_t end = wb->capacity() - tailroom;
  std::size_t head = end - content.size();
  if (!region.empty()) std::memcpy(base, region.data(), region.size());
  if (!content.empty()) {
    std::memcpy(base + head, content.data(), content.size());
  }
  msg_path_stats().bytes_copied.fetch_add(region.size() + content.size(),
                                          std::memory_order_relaxed);
  wb_ = std::move(wb);  // releases the old buffer only after the copies
  region_cap_ = region_cap;
  region_len_ = region.size();
  head_ = head;
  pay_off_ = end - pay_len;
  pay_len_ = pay_len;
}

void Message::move_to(WireBufRef wb, std::size_t region_cap,
                      std::size_t tailroom) {
  assert(!rx() && "move_to on a received message");
  place(std::move(wb), region_cap, tailroom, region(), upper_span(), pay_len_);
}

void Message::relayout(std::size_t region_cap, std::size_t headroom,
                       std::size_t tailroom) {
  ByteSpan content = upper_span();
  place(WireBufRef::make_unpooled(region_cap + headroom + content.size() +
                                  tailroom),
        region_cap, tailroom, region(), content, pay_len_);
}

void Message::make_room(std::size_t front, std::size_t back) {
  std::size_t headroom = head_ - region_cap_;
  std::size_t tail = tailroom_bytes();
  if (wb_.unique() && headroom >= front && tail >= back) return;
  if (wb_ && !wb_.unique()) {
    headroom = std::max(headroom, front + 16);
    msg_path_stats().unshare_copies.fetch_add(1, std::memory_order_relaxed);
  }
  if (headroom < front) {
    headroom += std::max(front + 64, wb_ ? wb_->capacity() : 0);
    msg_path_stats().headroom_growths.fetch_add(1, std::memory_order_relaxed);
  }
  relayout(region_cap_, headroom, std::max(tail, back));
}

MutByteSpan Message::prepend(std::size_t n) {
  assert(!rx() && "prepend on a received message");
  make_room(n, 0);
  head_ -= n;
  return MutByteSpan(wb_->data() + head_, n);
}

void Message::push_block(ByteSpan block) {
  if (block.empty()) return;  // no wire effect
  MutByteSpan dst = prepend(block.size());
  std::memcpy(dst.data(), block.data(), block.size());
  msg_path_stats().bytes_copied.fetch_add(block.size(),
                                          std::memory_order_relaxed);
}

MutByteSpan Message::region_mut(std::size_t bytes) {
  assert(!rx() && "region_mut on a received message");
  if (bytes > region_cap_) {
    // Staging undersized (never for stack-built messages, whose region
    // capacity is the stack's layout size).
    relayout(bytes, head_ - region_cap_, tailroom_bytes());
  } else {
    make_room(0, 0);
  }
  if (region_len_ < bytes) {
    std::memset(wb_->data() + region_len_, 0, bytes - region_len_);
    region_len_ = bytes;
  }
  return MutByteSpan(wb_->data(), region_len_);
}

ByteSpan Message::region() const {
  if (rx()) return ByteSpan(rx_buf_->data() + rx_region_off_, rx_region_len_);
  return wb_ ? ByteSpan(wb_->data(), region_len_) : ByteSpan();
}

MutByteSpan Message::finalize_wire(std::uint64_t gid, std::size_t region_bytes,
                                   std::size_t trailer_room,
                                   std::uint16_t epoch_stamp) {
  assert(!rx() && "finalize_wire on a received message");
  std::size_t prefix = 10 + region_bytes;  // gid + epoch stamp + region
  make_room(prefix, trailer_room);
  std::uint8_t* base = wb_->data();
  std::uint8_t* p = base + head_ - prefix;
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<std::uint8_t>(gid >> (8 * i));
  }
  p[8] = static_cast<std::uint8_t>(epoch_stamp);
  p[9] = static_cast<std::uint8_t>(epoch_stamp >> 8);
  std::size_t staged = std::min(region_len_, region_bytes);
  std::memcpy(p + 10, base, staged);
  std::memset(p + 10 + staged, 0, region_bytes - staged);
  return MutByteSpan(p, prefix + (pay_off_ - head_) + pay_len_ + trailer_room);
}

// -- rx ---------------------------------------------------------------------

Reader Message::reader() const {
  assert(rx() && "reader on a tx message");
  return Reader(ByteSpan(*rx_buf_).subspan(rx_cursor_, rx_end_ - rx_cursor_));
}

void Message::consume(std::size_t n) {
  assert(rx());
  if (rx_cursor_ + n > rx_end_) throw DecodeError("consume past end");
  rx_cursor_ += n;
}

// -- payload and capture ------------------------------------------------------

Bytes Message::payload_bytes() const {
  ByteSpan upper = upper_span();
  ByteSpan pay = upper.subspan(upper.size() - payload_size());
  return Bytes(pay.begin(), pay.end());
}

ByteSpan Message::upper_span() const {
  if (rx()) return ByteSpan(rx_buf_->data() + rx_cursor_, rx_end_ - rx_cursor_);
  return wb_ ? ByteSpan(wb_->data() + head_, pay_off_ + pay_len_ - head_)
             : ByteSpan();
}

std::size_t Message::header_overhead() const {
  if (rx()) return rx_cursor_ - rx_region_off_;
  return wb_ ? region_len_ + (pay_off_ - head_) : 0;
}

}  // namespace horus
