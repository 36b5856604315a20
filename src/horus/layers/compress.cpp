#include "horus/layers/transform.hpp"
#include "horus/util/compress.hpp"

namespace horus::layers {
namespace {

LayerInfo make_info() {
  LayerInfo li;
  li.name = "COMPRESS";
  li.fields = {{"packed", 1}};
  li.spec.name = li.name;
  li.spec.requires_below = 0;
  li.spec.inherits = props::kAllProperties;
  li.spec.provides = 0;  // bandwidth, not a delivery property
  li.spec.cost = 3;
  li.up_emits = 0;  // transform: forwards entry events, originates nothing
  return li;
}

}  // namespace

Compress::Compress() : info_(make_info()) {}

std::unique_ptr<LayerState> Compress::make_state(Group&) {
  return std::make_unique<State>();
}

void Compress::down(Group& g, DownEvent& ev) {
  if (ev.type == DownType::kCast || ev.type == DownType::kSend) {
    State& st = state<State>(g);
    ByteSpan content = ev.msg.upper_span();
    Bytes packed = horus::compress(content);
    std::uint64_t use = packed.size() < content.size() ? 1 : 0;
    if (use != 0) {
      ++st.compressed;
      st.bytes_saved += content.size() - packed.size();
      ev.msg = stack().tx_message(packed, ev.msg.region());
    }
    std::uint64_t fields[] = {use};
    stack().push_header(ev.msg, *this, fields);
  }
  pass_down(g, ev);
}

void Compress::up(Group& g, UpEvent& ev) {
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
  if (h.fields[0] != 0) {
    try {
      Bytes plain = horus::decompress(ev.msg.upper_span());
      ev.msg = Message::from_parts(ev.msg.region(), plain);
    } catch (const DecodeError&) {
      return;  // corrupt stream: drop
    }
  }
  pass_up(g, ev);
}

void Compress::dump(Group& g, std::string& out) const {
  State& st = state<State>(const_cast<Group&>(g));
  out += "COMPRESS: compressed=" + std::to_string(st.compressed) +
         " saved=" + std::to_string(st.bytes_saved) + "B\n";
}

}  // namespace horus::layers
