#include "horus/layers/com.hpp"

#include "horus/layers/common.hpp"
#include "horus/util/crc32.hpp"
#include "horus/util/log.hpp"

namespace horus::layers {
namespace {

using props::Property;

LayerInfo make_info(bool checksum) {
  LayerInfo li;
  li.name = checksum ? "COM" : "RAWCOM";
  // The group id travels as the endpoint-level framing prefix, not a COM
  // field (it must be readable before any stack-specific codec applies).
  li.fields = {{"src", 64}, {"is_send", 1}};
  li.is_transport = true;
  li.spec.name = li.name;
  li.spec.requires_below = props::make_set({Property::kBestEffort});
  li.spec.inherits = props::kAllProperties;
  li.spec.provides =
      checksum ? props::make_set({Property::kGarblingDetect, Property::kSourceAddress})
               : props::make_set({Property::kSourceAddress});
  li.spec.cost = 1;
  li.up_emits = make_up_emits({UpType::kCast, UpType::kSend});
  return li;
}

}  // namespace

Com::Com(bool checksum) : checksum_(checksum), info_(make_info(checksum)) {}

void Com::down(Group& g, DownEvent& ev) {
  switch (ev.type) {
    case DownType::kCast: {
      // One serialization for every current view member, the sender
      // included: a member delivers its own multicasts (its copy skips the
      // wire). The event's message is consumed in place -- COM is the
      // bottom of the stack.
      std::uint64_t fields[] = {stack().address().id, 0};
      stack().push_header(ev.msg, *this, fields);
      transmit(g, ev.msg, g.view().members());
      return;
    }
    case DownType::kSend: {
      std::uint64_t fields[] = {stack().address().id, 1};
      stack().push_header(ev.msg, *this, fields);
      transmit(g, ev.msg, ev.dests);
      return;
    }
    default:
      // Control downcalls terminate here: there is nothing below COM but
      // the raw transport.
      return;
  }
}

void Com::transmit(Group& g, Message& msg,
                   const std::vector<Address>& dests) {
  // Serialize once, transmit the same datagram to every destination.
  // Frame: [group id (endpoint demux prefix)][stack-epoch stamp]
  // [stack bytes][crc32?]. The message already holds the whole frame
  // contiguously in its wire buffer; finalize writes the prefix into the
  // headroom and leaves the trailer to fill in the tailroom, with no
  // allocation and no copy.
  std::size_t trailer = checksum_ ? 4 : 0;
  MutByteSpan frame = msg.finalize_wire(g.gid().id, stack().region_bytes(),
                                        trailer, stack().epoch_stamp());
  if (checksum_) {
    std::size_t body = frame.size() - 4;
    std::uint32_t crc = crc32(ByteSpan(frame.data(), body));
    for (int i = 0; i < 4; ++i) {
      frame[body + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(crc >> (8 * i));
    }
  }
  stack().transport_send_raw_batch(dests, frame, msg.payload_size());
}

void Com::up(Group& g, UpEvent& ev) { pass_up(g, ev); }

void Com::raw_receive(Group& g, Address src,
                      std::shared_ptr<const Bytes> datagram,
                      std::size_t offset) {
  std::size_t len = datagram->size();
  if (checksum_) {
    if (len < offset + 4) return;  // runt
    std::uint32_t got = 0;
    for (int i = 0; i < 4; ++i) {
      got |= static_cast<std::uint32_t>((*datagram)[len - 4 + static_cast<std::size_t>(i)])
             << (8 * i);
    }
    len -= 4;
    // The checksum covers the whole frame, demux prefix included.
    if (crc32(ByteSpan(*datagram).first(len)) != got) {
      // Garbled in transit: drop silently (P10).
      HLOG_DEBUG("COM") << "dropping garbled datagram from " << src.id;
      return;
    }
  }
  try {
    Message m = Message::from_wire(std::move(datagram), stack().region_bytes(),
                                   len, offset);
    PoppedHeader h = stack().pop_header(m, *this);
    Address claimed_src{h.fields[0]};
    bool is_send = h.fields[1] != 0;
    UpEvent ev;
    ev.type = is_send ? UpType::kSend : UpType::kCast;
    ev.source = claimed_src;
    ev.msg = std::move(m);
    pass_up(g, ev);
  } catch (const DecodeError&) {
    // Malformed datagram (should be rare with the checksum on): drop.
    HLOG_DEBUG("COM") << "dropping malformed datagram from " << src.id;
  }
}

void Com::dump(Group& g, std::string& out) const {
  out += info_.name + ": view=" + g.view().to_string() +
         (checksum_ ? " (crc32 trailer)\n" : " (no checksum)\n");
}

}  // namespace horus::layers
