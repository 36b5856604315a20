#include "trace.hpp"

#include <cstdio>

#include "common.hpp"

namespace pb {
namespace {

/// The per-thread nesting stack and the spans of the root being built.
/// Boundary crossings are synchronous, so spans nest strictly per thread.
struct ThreadSpans {
  struct Frame {
    std::uint32_t slot;
    Tracer::Dir dir;
    std::uint64_t start;
    std::uint64_t child = 0;
    std::int32_t span = -1;  ///< index into `root`
  };
  std::vector<Frame> frames;
  std::vector<Tracer::Span> root;  ///< spans of the open root, in entry order
  std::uint64_t root_tag = 0;
  std::uint64_t pending_tag = 0;
  std::uint64_t root_start = 0;
};

thread_local ThreadSpans t_spans;

}  // namespace

std::uint32_t Tracer::slot(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.push_back(name);
  acc_.emplace_back();
  return static_cast<std::uint32_t>(names_.size() - 1);
}

Tracer::Acc Tracer::acc(const std::string& name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return acc_[i];
  }
  return {};
}

std::uint64_t Tracer::total_self_ns() const {
  std::uint64_t t = 0;
  for (const Acc& a : acc_) t += a.self_ns[kDown] + a.self_ns[kUp];
  return t;
}

void Tracer::reset() {
  for (Acc& a : acc_) a = Acc{};
}

void Tracer::enter(std::uint32_t slot, Dir d) {
  ThreadSpans& ts = t_spans;
  if (ts.frames.empty()) {
    ts.root.clear();
    ts.root_tag = ts.pending_tag;
  }
  ThreadSpans::Frame f{slot, d, 0};
  if (sampling_) {
    Span s;
    s.slot = slot;
    s.dir = d;
    s.parent = ts.frames.empty() ? -1 : ts.frames.back().span;
    ts.root.push_back(s);
    f.span = static_cast<std::int32_t>(ts.root.size() - 1);
  }
  ts.frames.push_back(f);
  // Read the clock last, so the bookkeeping above is not in the span.
  const std::uint64_t now = wall_ns();
  ts.frames.back().start = now;
  if (ts.frames.size() == 1) ts.root_start = now;
}

void Tracer::leave() {
  const std::uint64_t now = wall_ns();
  ThreadSpans& ts = t_spans;
  const ThreadSpans::Frame f = ts.frames.back();
  ts.frames.pop_back();
  const std::uint64_t dur = now - f.start;
  const std::uint64_t self = dur > f.child ? dur - f.child : 0;
  acc_[f.slot].self_ns[f.dir] += self;
  ++acc_[f.slot].calls[f.dir];
  if (!ts.frames.empty()) ts.frames.back().child += dur;
  if (f.span >= 0) {
    Span& s = ts.root[static_cast<std::size_t>(f.span)];
    s.start_ns = f.start - ts.root_start;
    s.dur_ns = dur;
    s.self_ns = self;
  }
  if (ts.frames.empty()) close_root();
}

void Tracer::close_root() {
  ThreadSpans& ts = t_spans;
  if (sampling_ && ts.root_tag != 0 && traces_ < kMaxTraces) {
    for (Span s : ts.root) {
      s.id = ts.root_tag;
      s.root = static_cast<std::uint32_t>(traces_);
      spans_.push_back(s);
    }
    ++traces_;
  }
  ts.root.clear();
  ts.root_tag = 0;
}

void Tracer::set_pending_tag(std::uint64_t id) { t_spans.pending_tag = id; }

void Tracer::tag_current_root(std::uint64_t id) {
  ThreadSpans& ts = t_spans;
  if (!ts.frames.empty() && ts.root_tag == 0) ts.root_tag = id;
}

bool Tracer::write_spans(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"id\":%llu,\"root\":%u,\"layer\":\"%s\",\"dir\":\"%s\",\"parent\":%d,"
                 "\"start_ns\":%llu,\"dur_ns\":%llu,\"self_ns\":%llu}\n",
                 static_cast<unsigned long long>(s.id), s.root,
                 names_[s.slot].c_str(),
                 s.dir == kDown ? "down" : "up", s.parent,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.dur_ns),
                 static_cast<unsigned long long>(s.self_ns));
  }
  return std::fclose(f) == 0;
}

// -- TimedLayer ---------------------------------------------------------------

TimedLayer::TimedLayer(std::unique_ptr<horus::Layer> inner, Tracer& tracer)
    : inner_(std::move(inner)),
      tracer_(tracer),
      slot_(tracer.slot(inner_->info().name)) {}

const horus::LayerInfo& TimedLayer::info() const { return inner_->info(); }

std::unique_ptr<horus::LayerState> TimedLayer::make_state(horus::Group& g) {
  return inner_->make_state(g);
}

void TimedLayer::down(horus::Group& g, horus::DownEvent& ev) {
  SpanScope s(tracer_, slot_, Tracer::kDown);
  inner_->down(g, ev);
}

void TimedLayer::up(horus::Group& g, horus::UpEvent& ev) {
  SpanScope s(tracer_, slot_, Tracer::kUp);
  inner_->up(g, ev);
}

void TimedLayer::down_batch(horus::Group& g, std::span<horus::DownEvent> evs) {
  SpanScope s(tracer_, slot_, Tracer::kDown);
  inner_->down_batch(g, evs);
}

void TimedLayer::raw_receive(horus::Group& g, horus::Address src,
                             std::shared_ptr<const horus::Bytes> datagram,
                             std::size_t offset) {
  SpanScope s(tracer_, slot_, Tracer::kUp);
  inner_->raw_receive(g, src, std::move(datagram), offset);
}

void TimedLayer::dump(horus::Group& g, std::string& out) const {
  inner_->dump(g, out);
}

void TimedLayer::export_state(horus::Group& g, horus::Writer& w) {
  inner_->export_state(g, w);
}

void TimedLayer::import_state(horus::Group& g, horus::Reader& r) {
  inner_->import_state(g, r);
}

void TimedLayer::on_reconfig_install(horus::Group& g,
                                     const horus::ReconfigInstall& inst) {
  inner_->on_reconfig_install(g, inst);
}

void TimedLayer::attach(horus::Stack& s, std::size_t index) {
  Layer::attach(s, index);
  inner_->attach(s, index);
}

std::vector<std::unique_ptr<horus::Layer>> wrap_timed(
    std::vector<std::unique_ptr<horus::Layer>> layers, Tracer& tracer) {
  std::vector<std::unique_ptr<horus::Layer>> out;
  out.reserve(layers.size());
  for (auto& l : layers) {
    out.push_back(std::make_unique<TimedLayer>(std::move(l), tracer));
  }
  return out;
}

}  // namespace pb
