#include "horus/analysis/checked.hpp"

#include <sstream>

#include "horus/core/events.hpp"
#include "horus/core/stack.hpp"

namespace horus::analysis {

thread_local std::vector<ContractMonitor::Frame> ContractMonitor::frames_;

// -- reporting ----------------------------------------------------------------

std::uint64_t ContractMonitor::total_violations() const {
  return counters_.push_pop.load(std::memory_order_relaxed) +
         counters_.reentrancy.load(std::memory_order_relaxed) +
         counters_.use_after_forward.load(std::memory_order_relaxed) +
         counters_.undeclared_event.load(std::memory_order_relaxed);
}

std::vector<std::string> ContractMonitor::messages() const {
  std::lock_guard<std::mutex> lk(mu_);
  return messages_;
}

std::string ContractMonitor::summary() const {
  std::ostringstream os;
  os << "push_pop=" << counters_.push_pop.load(std::memory_order_relaxed)
     << " reentrancy=" << counters_.reentrancy.load(std::memory_order_relaxed)
     << " use_after_forward="
     << counters_.use_after_forward.load(std::memory_order_relaxed)
     << " undeclared_event="
     << counters_.undeclared_event.load(std::memory_order_relaxed);
  for (const std::string& m : messages()) os << "\n  " << m;
  return os.str();
}

void ContractMonitor::record(std::atomic<std::uint64_t>& counter,
                             std::string msg) {
  counter.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(mu_);
  if (messages_.size() < kMaxMessages) messages_.push_back(std::move(msg));
}

std::string ContractMonitor::layer_name(std::size_t index) const {
  if (index == kAppSinkIndex) return "<app>";
  if (index == kAppFrame) return "<app>";
  if (index < names_.size() && !names_[index].empty()) return names_[index];
  return "#" + std::to_string(index);
}

void ContractMonitor::register_layer(std::size_t index, std::string name,
                                     std::uint32_t up_emits) {
  if (index >= names_.size()) {
    names_.resize(index + 1);
    up_emits_.resize(index + 1, LayerInfo::kEmitsUndeclared);
  }
  names_[index] = std::move(name);
  up_emits_[index] = up_emits;
}

// -- frame bookkeeping --------------------------------------------------------

ContractMonitor::Frame* ContractMonitor::innermost() {
  for (auto it = frames_.rbegin(); it != frames_.rend(); ++it) {
    if (it->owner == this) return &*it;
  }
  return nullptr;
}

bool ContractMonitor::app_frame_active() {
  for (const Frame& f : frames_) {
    if (f.owner == this && f.layer == kAppFrame) return true;
  }
  return false;
}

void ContractMonitor::layer_enter(std::size_t layer, bool down_dir,
                                  const void* entry_ev,
                                  const Message* entry_msg, int entry_type) {
  frames_.push_back(
      Frame{this, layer, down_dir, false, entry_ev, entry_msg, entry_type});
}

void ContractMonitor::layer_leave() { frames_.pop_back(); }

void ContractMonitor::raw_enter(std::size_t layer) {
  frames_.push_back(Frame{this, layer, false, true, nullptr, nullptr, -1});
}

void ContractMonitor::raw_leave() { frames_.pop_back(); }

// -- crossing hooks -----------------------------------------------------------

void ContractMonitor::on_forward_down(Group& /*g*/, std::size_t from_index,
                                      const DownEvent& ev) {
  if (from_index == kAppSinkIndex && app_frame_active()) {
    record(counters_.reentrancy,
           "re-entrant down() (" + std::string(to_string(ev.type)) +
               ") from within a delivery upcall");
    return;
  }
  Frame* f = innermost();
  if (f == nullptr || f->raw || f->layer != from_index) return;
  if (!f->down || f->entry_ev != static_cast<const void*>(&ev)) return;
  if (f->entry_forwarded) {
    record(counters_.use_after_forward,
           "layer " + layer_name(from_index) +
               " forwarded its entry down event twice");
    return;
  }
  f->entry_forwarded = true;
}

void ContractMonitor::on_forward_up(Group& /*g*/, std::size_t from_index,
                                    const UpEvent& ev) {
  if (from_index == kAppSinkIndex) return;
  Frame* f = innermost();
  bool continuation = f != nullptr && !f->raw && f->layer == from_index &&
                      !f->down &&
                      f->entry_ev == static_cast<const void*>(&ev) &&
                      f->entry_type == static_cast<int>(ev.type);
  if (continuation) {
    if (f->entry_forwarded) {
      record(counters_.use_after_forward,
             "layer " + layer_name(from_index) +
                 " forwarded its entry up event twice");
      return;
    }
    f->entry_forwarded = true;
    return;
  }
  // The layer originated this upcall (new event object, a morphed type, or
  // an emission from a timer / raw_receive context): it must be declared.
  std::uint32_t declared = from_index < up_emits_.size()
                               ? up_emits_[from_index]
                               : LayerInfo::kEmitsUndeclared;
  if (declared != LayerInfo::kEmitsUndeclared &&
      (declared & up_mask(ev.type)) == 0) {
    record(counters_.undeclared_event,
           "layer " + layer_name(from_index) + " emitted undeclared upcall " +
               to_string(ev.type));
  }
}

void ContractMonitor::on_push_header(const Layer& layer, const Message& m) {
  Frame* f = innermost();
  if (f == nullptr) return;  // timer context: retransmit paths push freely
  if (f->layer != layer.index()) {
    record(counters_.push_pop,
           "layer " + layer_name(layer.index()) +
               " pushed a header while layer " + layer_name(f->layer) +
               " was active");
    return;
  }
  if (f->raw || f->entry_msg != &m) return;  // not the frame's entry message
  if (f->entry_forwarded) {
    record(counters_.use_after_forward,
           "layer " + layer_name(layer.index()) +
               " pushed a header on a message it already forwarded");
    return;
  }
  if (!f->down) {
    record(counters_.push_pop,
           "layer " + layer_name(layer.index()) +
               " pushed a header on a receive-path message");
    return;
  }
  if (f->entry_pushes >= 1) {
    record(counters_.push_pop,
           "layer " + layer_name(layer.index()) +
               " pushed two headers on one message in one descent");
  }
  ++f->entry_pushes;
}

void ContractMonitor::on_pop_header(const Layer& layer, const Message& m) {
  Frame* f = innermost();
  if (f == nullptr) return;
  if (f->layer != layer.index()) {
    record(counters_.push_pop,
           "layer " + layer_name(layer.index()) +
               " popped a header while layer " + layer_name(f->layer) +
               " was active");
    return;
  }
  if (f->raw || f->entry_msg != &m) return;
  if (f->entry_forwarded) {
    record(counters_.use_after_forward,
           "layer " + layer_name(layer.index()) +
               " popped a header from a message it already forwarded");
    return;
  }
  if (f->down) {
    record(counters_.push_pop,
           "layer " + layer_name(layer.index()) +
               " popped a header from a send-path message");
    return;
  }
  if (f->entry_pops >= 1) {
    record(counters_.push_pop,
           "layer " + layer_name(layer.index()) +
               " popped two headers from one message in one ascent");
  }
  ++f->entry_pops;
}

void ContractMonitor::on_app_up_begin(Group& /*g*/, const UpEvent& ev) {
  frames_.push_back(Frame{this, kAppFrame, false, false,
                          static_cast<const void*>(&ev), &ev.msg,
                          static_cast<int>(ev.type)});
}

void ContractMonitor::on_app_up_end(Group& /*g*/) {
  if (!frames_.empty() && frames_.back().owner == this &&
      frames_.back().layer == kAppFrame) {
    frames_.pop_back();
  }
}

// -- CheckedLayer -------------------------------------------------------------

namespace {

/// Pops the monitor frame on scope exit, so an exception thrown through a
/// layer cannot desynchronize the frame stack.
class FrameGuard {
 public:
  explicit FrameGuard(ContractMonitor& m, bool raw = false)
      : m_(m), raw_(raw) {}
  ~FrameGuard() { raw_ ? m_.raw_leave() : m_.layer_leave(); }
  FrameGuard(const FrameGuard&) = delete;
  FrameGuard& operator=(const FrameGuard&) = delete;

 private:
  ContractMonitor& m_;
  bool raw_;
};

}  // namespace

CheckedLayer::CheckedLayer(std::unique_ptr<Layer> inner,
                           std::shared_ptr<ContractMonitor> monitor)
    : inner_(std::move(inner)), monitor_(std::move(monitor)) {}

const LayerInfo& CheckedLayer::info() const { return inner_->info(); }

std::unique_ptr<LayerState> CheckedLayer::make_state(Group& g) {
  return inner_->make_state(g);
}

void CheckedLayer::attach(Stack& s, std::size_t index) {
  Layer::attach(s, index);
  inner_->attach(s, index);
  // The wrapped layers own the stack's monitor: whoever builds the stack
  // (endpoint, cactus stack, live reconfiguration) gets it installed.
  s.set_monitor(monitor_.get());
  monitor_->register_layer(index, inner_->info().name,
                           inner_->info().up_emits);
}

void CheckedLayer::down(Group& g, DownEvent& ev) {
  monitor_->layer_enter(index(), /*down_dir=*/true, &ev, &ev.msg,
                        static_cast<int>(ev.type));
  FrameGuard guard(*monitor_);
  inner_->down(g, ev);
}

void CheckedLayer::up(Group& g, UpEvent& ev) {
  monitor_->layer_enter(index(), /*down_dir=*/false, &ev, &ev.msg,
                        static_cast<int>(ev.type));
  FrameGuard guard(*monitor_);
  inner_->up(g, ev);
}

void CheckedLayer::raw_receive(Group& g, Address src,
                               std::shared_ptr<const Bytes> datagram,
                               std::size_t offset) {
  monitor_->raw_enter(index());
  FrameGuard guard(*monitor_, /*raw=*/true);
  inner_->raw_receive(g, src, std::move(datagram), offset);
}

void CheckedLayer::dump(Group& g, std::string& out) const {
  inner_->dump(g, out);
}

void CheckedLayer::export_state(Group& g, Writer& w) {
  inner_->export_state(g, w);
}

void CheckedLayer::import_state(Group& g, Reader& r) {
  inner_->import_state(g, r);
}

void CheckedLayer::on_reconfig_install(Group& g, const ReconfigInstall& inst) {
  inner_->on_reconfig_install(g, inst);
}

std::vector<std::unique_ptr<Layer>> wrap_checked(
    std::vector<std::unique_ptr<Layer>> layers,
    const std::shared_ptr<ContractMonitor>& monitor) {
  std::vector<std::unique_ptr<Layer>> out;
  out.reserve(layers.size());
  for (auto& l : layers) {
    out.push_back(std::make_unique<CheckedLayer>(std::move(l), monitor));
  }
  return out;
}

}  // namespace horus::analysis
