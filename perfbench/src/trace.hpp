// Outside-in layer tracing for the traced benchmark run.
//
// TimedLayer is a decorator around one production layer, installed through
// HorusSystem::Options::stack_factory the same way analysis::CheckedLayer
// wraps layers for contract checking. It brackets every public entry into
// the layer (down, up, down_batch, raw_receive) with a span and forwards
// everything else untouched, so a traced world makes exactly the protocol
// decisions an untraced one makes.
//
// Self time: the Tracer keeps a per-thread nesting stack of open spans.
// When a span closes, its duration is charged to its parent as child time,
// and the span's own (self) time is its duration minus its child time.
// Work a layer does from a timer callback enters it without a public call,
// so it is not inside that layer's span: it shows up in the caller's
// "outside" bucket (and any layer the timer calls into is timed normally).
//
// Spans of sampled casts share an id. A cast is sampled by the workload
// (set_pending_tag before the cast call); its receive paths are attributed
// when the application upcall of a sampled cast runs inside them
// (tag_current_root). Spans are kept in memory and written when the run
// ends.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "horus/core/layer.hpp"

namespace pb {

/// Feed a Tracer from one thread at a time: the nesting stack is per
/// thread, the accumulators are not synchronised. The traced sim workloads
/// run on the single-threaded deterministic executor.
class Tracer {
 public:
  enum Dir : std::uint8_t { kDown = 0, kUp = 1 };

  struct Acc {
    std::uint64_t self_ns[2] = {0, 0};
    std::uint64_t calls[2] = {0, 0};
  };

  struct Span {
    std::uint64_t id = 0;        ///< sampled cast this span belongs to
    std::uint32_t root = 0;      ///< which root span tree (a cast has several)
    std::uint32_t slot = 0;      ///< layer name index
    std::uint8_t dir = kDown;
    std::int32_t parent = -1;    ///< entry-order index of the parent in its root
    std::uint64_t start_ns = 0;  ///< relative to the root span's start
    std::uint64_t dur_ns = 0;
    std::uint64_t self_ns = 0;
  };

  /// Index of a named timing slot (a layer name, or "app"); get-or-create.
  std::uint32_t slot(const std::string& name);
  [[nodiscard]] const std::vector<std::string>& names() const { return names_; }
  [[nodiscard]] Acc acc(const std::string& name) const;
  [[nodiscard]] std::uint64_t total_self_ns() const;
  /// Zero the accumulators (start of the measured phase).
  void reset();

  void enter(std::uint32_t slot, Dir d);
  void leave();

  /// The next root span opened on this thread belongs to sampled cast `id`.
  void set_pending_tag(std::uint64_t id);
  /// Attribute the currently open root span to sampled cast `id`, unless it
  /// already belongs to one.
  void tag_current_root(std::uint64_t id);
  /// Keep spans of sampled casts only while sampling is on, up to a cap.
  void set_sampling(bool on) { sampling_ = on; }
  [[nodiscard]] std::size_t traces_kept() const { return traces_; }
  /// JSON lines, one span each. Returns false if the file cannot be written.
  bool write_spans(const std::string& path) const;

  static constexpr std::size_t kMaxTraces = 2000;

 private:
  void close_root();

  std::vector<std::string> names_;
  std::vector<Acc> acc_;
  std::vector<Span> spans_;
  bool sampling_ = false;
  std::size_t traces_ = 0;
};

/// RAII span.
class SpanScope {
 public:
  SpanScope(Tracer& t, std::uint32_t slot, Tracer::Dir d) : t_(t) {
    t_.enter(slot, d);
  }
  ~SpanScope() { t_.leave(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& t_;
};

class TimedLayer final : public horus::Layer {
 public:
  TimedLayer(std::unique_ptr<horus::Layer> inner, Tracer& tracer);

  [[nodiscard]] const horus::LayerInfo& info() const override;
  std::unique_ptr<horus::LayerState> make_state(horus::Group& g) override;
  void down(horus::Group& g, horus::DownEvent& ev) override;
  void up(horus::Group& g, horus::UpEvent& ev) override;
  void down_batch(horus::Group& g, std::span<horus::DownEvent> evs) override;
  void raw_receive(horus::Group& g, horus::Address src,
                   std::shared_ptr<const horus::Bytes> datagram,
                   std::size_t offset) override;
  void dump(horus::Group& g, std::string& out) const override;
  void export_state(horus::Group& g, horus::Writer& w) override;
  void import_state(horus::Group& g, horus::Reader& r) override;
  void on_reconfig_install(horus::Group& g,
                           const horus::ReconfigInstall& inst) override;
  horus::Layer* innermost() override { return inner_->innermost(); }
  void attach(horus::Stack& s, std::size_t index) override;

 private:
  std::unique_ptr<horus::Layer> inner_;
  Tracer& tracer_;
  std::uint32_t slot_;
};

/// Wrap every layer of a freshly built chain in a TimedLayer.
std::vector<std::unique_ptr<horus::Layer>> wrap_timed(
    std::vector<std::unique_ptr<horus::Layer>> layers, Tracer& tracer);

}  // namespace pb
