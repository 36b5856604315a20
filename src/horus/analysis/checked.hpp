// HCPI contract checking: CheckedLayer decorators plus the shared
// ContractMonitor they report to.
//
// Every layer speaks the Horus Common Protocol Interface on both edges;
// the composability story of the paper rests on each layer honoring the
// HCPI discipline, not just the property algebra. The monitor asserts, at
// every boundary crossing:
//
//   * header ownership/balance -- a layer encodes or decodes headers only
//     while it is the active layer, pushes at most one header per message
//     per descent and pops at most one per ascent, and never pushes on a
//     receive-path message or pops from a send-path message;
//   * no re-entrant down() -- the application must not re-enter the stack
//     synchronously from within a delivery upcall (the executor's post
//     discipline; an executor that runs tasks inline can violate it);
//   * no use-after-forward -- once a layer passes its entry event on, the
//     event and its message belong to the next layer; touching them again
//     (second forward, late header edit) is a contract violation;
//   * declared emissions -- upcalls a layer *originates* (as opposed to
//     passes through) must come from its LayerInfo::up_emits set.
//
// Violations are recorded in atomic counters (and a capped message log),
// never thrown: integration tests run the full fault-injection suite with
// checking on and assert the counters are zero.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "horus/core/contract.hpp"
#include "horus/core/layer.hpp"

namespace horus::analysis {

class ContractMonitor final : public HcpiMonitor {
 public:
  struct Counters {
    std::atomic<std::uint64_t> push_pop{0};         ///< ownership/balance/direction
    std::atomic<std::uint64_t> reentrancy{0};       ///< down() inside a delivery upcall
    std::atomic<std::uint64_t> use_after_forward{0};
    std::atomic<std::uint64_t> undeclared_event{0};
  };

  [[nodiscard]] const Counters& counters() const { return counters_; }
  [[nodiscard]] std::uint64_t total_violations() const;
  /// The first kMaxMessages violation descriptions, for test failure output.
  [[nodiscard]] std::vector<std::string> messages() const;
  [[nodiscard]] std::string summary() const;

  static constexpr std::size_t kMaxMessages = 32;

  // -- called by CheckedLayer (decorator brackets) ---------------------------
  void layer_enter(std::size_t layer, bool down_dir, const void* entry_ev,
                   const Message* entry_msg, int entry_type);
  void layer_leave();
  /// raw_receive entry for the bottom transport layer (no event yet).
  void raw_enter(std::size_t layer);
  void raw_leave();

  /// Register a wrapped layer's identity (index -> name, up_emits).
  void register_layer(std::size_t index, std::string name,
                      std::uint32_t up_emits);

  // -- HcpiMonitor (called by Stack at each crossing) ------------------------
  void on_forward_down(Group& g, std::size_t from_index,
                       const DownEvent& ev) override;
  void on_forward_up(Group& g, std::size_t from_index,
                     const UpEvent& ev) override;
  void on_push_header(const Layer& layer, const Message& m) override;
  void on_pop_header(const Layer& layer, const Message& m) override;
  void on_app_up_begin(Group& g, const UpEvent& ev) override;
  void on_app_up_end(Group& g) override;

 private:
  struct Frame {
    const ContractMonitor* owner;
    std::size_t layer;      ///< kAppFrame for the application upcall
    bool down;              ///< direction of the entry event
    bool raw;               ///< raw_receive bracket (no entry event)
    const void* entry_ev;   ///< address of the entry event (stable per frame)
    const Message* entry_msg;
    int entry_type;         ///< entry event's type tag
    bool entry_forwarded = false;
    int entry_pushes = 0;
    int entry_pops = 0;
  };
  static constexpr std::size_t kAppFrame = static_cast<std::size_t>(-2);

  /// Frames nest strictly (boundary crossings are synchronous and a group
  /// task never migrates threads mid-crossing), so a per-thread stack is
  /// sound. Shared across monitors -- with an inline executor, a send from
  /// one stack can synchronously enter another stack's frames -- so each
  /// frame records its owner.
  static thread_local std::vector<Frame> frames_;

  [[nodiscard]] Frame* innermost();  ///< innermost frame owned by this monitor
  [[nodiscard]] bool app_frame_active();

  void record(std::atomic<std::uint64_t>& counter, std::string msg);
  [[nodiscard]] std::string layer_name(std::size_t index) const;

  Counters counters_;
  // One monitor may watch the stacks of several nodes in one process.
  mutable std::mutex mu_;
  std::vector<std::string> messages_;
  std::vector<std::string> names_;       // index -> name
  std::vector<std::uint32_t> up_emits_;  // index -> declared mask
};

/// Decorator installed around each layer when contract checking is on.
/// Forwards everything to the inner layer; brackets down()/up()/
/// raw_receive() with monitor frames so the monitor knows exactly which
/// layer is active at every crossing.
class CheckedLayer final : public Layer {
 public:
  CheckedLayer(std::unique_ptr<Layer> inner,
               std::shared_ptr<ContractMonitor> monitor);

  [[nodiscard]] const LayerInfo& info() const override;
  std::unique_ptr<LayerState> make_state(Group& g) override;
  void down(Group& g, DownEvent& ev) override;
  void up(Group& g, UpEvent& ev) override;
  void raw_receive(Group& g, Address src, std::shared_ptr<const Bytes> datagram,
                   std::size_t offset) override;
  void dump(Group& g, std::string& out) const override;
  void export_state(Group& g, Writer& w) override;
  void import_state(Group& g, Reader& r) override;
  void on_reconfig_install(Group& g, const ReconfigInstall& inst) override;
  Layer* innermost() override { return inner_->innermost(); }
  void attach(Stack& s, std::size_t index) override;

  [[nodiscard]] Layer& inner() { return *inner_; }

 private:
  std::unique_ptr<Layer> inner_;
  std::shared_ptr<ContractMonitor> monitor_;
};

/// Wrap every layer of a freshly built stack in a CheckedLayer reporting
/// to `monitor`. Attaching the wrapped layers to a Stack installs
/// `monitor` as that stack's HcpiMonitor.
std::vector<std::unique_ptr<Layer>> wrap_checked(
    std::vector<std::unique_ptr<Layer>> layers,
    const std::shared_ptr<ContractMonitor>& monitor);

}  // namespace horus::analysis
