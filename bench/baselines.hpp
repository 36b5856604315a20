// NOP, PASS and TAG: layers that exist only to be measured.
//
// NOP declares itself skippable for data, so the Section 10 "skip layers
// that take no action" fast path crosses it for free. PASS is the same
// no-op without the skip flags: every data event visits it, so a PASS
// tower measures the raw cost of a layer boundary crossing (Section 10,
// problem 1). TAG writes and reads one 32-bit header field, adding the
// header cost (problem 3) per layer.
//
// They are not in the layer registry, so horus-lint and the minimal-stack
// search never see them: bench_layer_skipping and bench_stack_depth build
// their towers through HorusSystem::Options::stack_factory (baseline_net
// below).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "horus/core/stack.hpp"
#include "horus/layers/registry.hpp"

namespace horus::bench {

class Nop final : public Layer {
 public:
  Nop() {
    info_.name = "NOP";
    info_.spec.name = "NOP";
    info_.spec.inherits = props::kAllProperties;
    info_.up_emits = 0;  // pure pass-through
    info_.skip_data_down = true;
    info_.skip_data_up = true;
  }
  const LayerInfo& info() const override { return info_; }

 private:
  LayerInfo info_;
};

class Pass final : public Layer {
 public:
  Pass() {
    info_.name = "PASS";
    info_.spec.name = "PASS";
    info_.spec.inherits = props::kAllProperties;
    info_.up_emits = 0;  // pure pass-through
  }
  const LayerInfo& info() const override { return info_; }

 private:
  LayerInfo info_;
};

class Tag final : public Layer {
 public:
  Tag() {
    info_.name = "TAG";
    info_.fields = {{"tag", 32}};
    info_.spec.name = "TAG";
    info_.spec.inherits = props::kAllProperties;
    info_.up_emits = 0;  // tags the entry message only
  }
  const LayerInfo& info() const override { return info_; }
  void down(Group& g, DownEvent& ev) override {
    if (ev.type == DownType::kCast || ev.type == DownType::kSend) {
      std::uint64_t fields[] = {0xda7a};
      stack().push_header(ev.msg, *this, fields);
    }
    pass_down(g, ev);
  }
  void up(Group& g, UpEvent& ev) override {
    if (ev.type == UpType::kCast || ev.type == UpType::kSend) {
      try {
        (void)stack().pop_header(ev.msg, *this);
      } catch (const DecodeError&) {
        return;
      }
    }
    pass_up(g, ev);
  }

 private:
  LayerInfo info_;
};

/// Rig::fast_net() with a stack_factory that builds the NOP, PASS and TAG
/// tokens of a spec here and every other token through the registry.
inline HorusSystem::Options baseline_net() {
  HorusSystem::Options o = Rig::fast_net();
  o.stack_factory = [](const std::string& spec) {
    std::vector<std::unique_ptr<Layer>> out;
    for (const std::string& name : layers::split_spec(spec)) {
      if (name == "NOP") {
        out.push_back(std::make_unique<Nop>());
      } else if (name == "PASS") {
        out.push_back(std::make_unique<Pass>());
      } else if (name == "TAG") {
        out.push_back(std::make_unique<Tag>());
      } else {
        out.push_back(layers::make_layer(name));
      }
    }
    return out;
  };
  return o;
}

}  // namespace horus::bench
