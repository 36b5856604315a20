#include "horus/core/layer.hpp"

#include <stdexcept>

#include "horus/core/stack.hpp"

namespace horus {

std::unique_ptr<LayerState> Layer::make_state(Group&) { return nullptr; }

void Layer::raw_receive(Group&, Address, std::shared_ptr<const Bytes>,
                        std::size_t) {
  throw std::logic_error("raw_receive on a non-transport layer");
}

void Layer::dump(Group&, std::string& out) const {
  out += info().name + ": (no state)\n";
}

void Layer::export_state(Group&, Writer&) {}

void Layer::import_state(Group&, Reader&) {}

void Layer::on_reconfig_install(Group&, const ReconfigInstall&) {}

void Layer::down_batch(Group& g, std::span<DownEvent> evs) {
  for (DownEvent& ev : evs) down(g, ev);
}

void Layer::pass_down(Group& g, DownEvent& ev) {
  stack_->forward_down(index_, g, ev);
}

void Layer::pass_up(Group& g, UpEvent& ev) {
  stack_->forward_up(index_, g, ev);
}

}  // namespace horus
