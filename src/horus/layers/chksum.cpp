#include "horus/layers/transform.hpp"
#include "horus/util/crc32.hpp"

namespace horus::layers {
namespace {

using props::Property;

LayerInfo make_info() {
  LayerInfo li;
  li.name = "CHKSUM";
  li.fields = {{"crc", 32}};
  li.spec.name = li.name;
  li.spec.requires_below = 0;
  li.spec.inherits = props::kAllProperties;
  li.spec.provides = props::make_set({Property::kGarblingDetect});
  li.spec.cost = 1;
  li.up_emits = 0;  // transform: forwards entry events, originates nothing
  return li;
}

}  // namespace

Chksum::Chksum() : info_(make_info()) {}

std::unique_ptr<LayerState> Chksum::make_state(Group&) {
  return std::make_unique<State>();
}

void Chksum::down(Group& g, DownEvent& ev) {
  if (ev.type == DownType::kCast || ev.type == DownType::kSend) {
    ByteSpan content = ev.msg.upper_span();
    std::uint32_t crc =
        crc32_update(crc32(stack().region_prefix(ev.msg, *this)), content);
    std::uint64_t fields[] = {crc};
    stack().push_header(ev.msg, *this, fields);
  }
  pass_down(g, ev);
}

void Chksum::up(Group& g, UpEvent& ev) {
  if (ev.type != UpType::kCast && ev.type != UpType::kSend) {
    pass_up(g, ev);
    return;
  }
  PoppedHeader h;
  try {
    h = stack().pop_header(ev.msg, *this);
  } catch (const DecodeError&) {
    return;
  }
  ByteSpan content = ev.msg.upper_span();
  std::uint32_t crc =
      crc32_update(crc32(stack().region_prefix(ev.msg, *this)), content);
  if (crc != static_cast<std::uint32_t>(h.fields[0])) {
    ++state<State>(g).dropped;  // garbled: drop, never deliver (P10)
    return;
  }
  pass_up(g, ev);
}

void Chksum::dump(Group& g, std::string& out) const {
  out += "CHKSUM: dropped=" +
         std::to_string(state<State>(const_cast<Group&>(g)).dropped) + "\n";
}

}  // namespace horus::layers
