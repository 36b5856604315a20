#include "horus/layers/transform.hpp"
#include "horus/util/crypto.hpp"

namespace horus::layers {
namespace {

using props::Property;

LayerInfo make_info() {
  LayerInfo li;
  li.name = "SIGN";
  li.fields = {{"mac", 64}};
  li.spec.name = li.name;
  li.spec.requires_below = 0;
  li.spec.inherits = props::kAllProperties;
  // A keyed MAC detects garbling as a byproduct of detecting forgery.
  li.spec.provides = props::make_set({Property::kGarblingDetect});
  li.spec.cost = 2;
  li.up_emits = 0;  // transform: forwards entry events, originates nothing
  return li;
}

std::uint64_t mac_of(Stack& stack, const Layer& layer, const Message& m,
                     ByteSpan content) {
  Bytes covered = stack.region_prefix(m, layer);
  covered.insert(covered.end(), content.begin(), content.end());
  return mac64(stack.config().key, covered);
}

}  // namespace

Sign::Sign() : info_(make_info()) {}

std::unique_ptr<LayerState> Sign::make_state(Group&) {
  return std::make_unique<State>();
}

void Sign::down(Group& g, DownEvent& ev) {
  if (ev.type == DownType::kCast || ev.type == DownType::kSend) {
    ByteSpan content = ev.msg.upper_span();
    std::uint64_t fields[] = {mac_of(stack(), *this, ev.msg, content)};
    stack().push_header(ev.msg, *this, fields);
  }
  pass_down(g, ev);
}

void Sign::up(Group& g, UpEvent& ev) {
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
  if (mac_of(stack(), *this, ev.msg, content) != h.fields[0]) {
    // Forged or garbled: an intruder without the group key cannot produce
    // a valid MAC. Drop.
    ++state<State>(g).rejected;
    return;
  }
  pass_up(g, ev);
}

void Sign::dump(Group& g, std::string& out) const {
  out += "SIGN: rejected=" +
         std::to_string(state<State>(const_cast<Group&>(g)).rejected) + "\n";
}

}  // namespace horus::layers
