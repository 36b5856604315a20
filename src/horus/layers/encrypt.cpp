#include "horus/layers/transform.hpp"
#include "horus/util/crypto.hpp"

namespace horus::layers {
namespace {

LayerInfo make_info() {
  LayerInfo li;
  li.name = "ENCRYPT";
  li.fields = {{"nonce", 64}};
  li.spec.name = li.name;
  li.spec.requires_below = 0;
  li.spec.inherits = props::kAllProperties;
  li.spec.provides = 0;  // privacy is not one of the P1..P16 delivery properties
  li.spec.cost = 3;
  li.up_emits = 0;  // transform: forwards entry events, originates nothing
  return li;
}

}  // namespace

Encrypt::Encrypt() : info_(make_info()) {}

std::unique_ptr<LayerState> Encrypt::make_state(Group&) {
  return std::make_unique<State>();
}

void Encrypt::down(Group& g, DownEvent& ev) {
  if (ev.type == DownType::kCast || ev.type == DownType::kSend) {
    State& st = state<State>(g);
    // Nonce unique per (endpoint, message) under the group key.
    std::uint64_t nonce = (stack().address().id << 32) ^ ++st.nonce;
    ev.msg = stack().tx_message(
        stream_xor(stack().config().key, nonce, ev.msg.upper_span()),
        ev.msg.region());
    std::uint64_t fields[] = {nonce};
    stack().push_header(ev.msg, *this, fields);
  }
  pass_down(g, ev);
}

void Encrypt::up(Group& g, UpEvent& ev) {
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
  State& st = state<State>(g);
  Bytes plain =
      stream_xor(stack().config().key, h.fields[0], ev.msg.upper_span());
  ev.msg = Message::from_parts(ev.msg.region(), plain);
  ++st.decrypted;
  pass_up(g, ev);
}

void Encrypt::dump(Group& g, std::string& out) const {
  out += "ENCRYPT: decrypted=" +
         std::to_string(state<State>(const_cast<Group&>(g)).decrypted) + "\n";
}

}  // namespace horus::layers
