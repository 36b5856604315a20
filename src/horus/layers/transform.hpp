// Content-transform layers (Section 2's checksumming / signing /
// encryption / compression protocol types). Each one rewrites or verifies
// the message content above it -- demonstrating that such features are
// "just more layers" under the HCPI, insertable anywhere in a stack.
//
// Coverage note: each layer protects/transforms the serialized content
// above itself (variable extensions pushed by upper layers + payload) plus
// the region bits belonging to upper layers (Stack::region_prefix). Its own
// and lower layers' fields are written after it runs and are excluded --
// the same scoping a real on-the-wire layered checksum has.
#pragma once

#include "horus/core/layer.hpp"
#include "horus/layers/common.hpp"

namespace horus::layers {

/// CHKSUM: CRC-32 over the message content; garbled messages are dropped
/// (P10). "A simple protocol that adds a (large enough) checksum to each
/// message could be used to reduce the garbling problem to a statistically
/// insignificant rate."
class Chksum final : public Layer {
 public:
  Chksum();
  const LayerInfo& info() const override { return info_; }
  std::unique_ptr<LayerState> make_state(Group& g) override;
  void down(Group& g, DownEvent& ev) override;
  void up(Group& g, UpEvent& ev) override;
  void dump(Group& g, std::string& out) const override;

 private:
  struct State final : LayerState {
    std::uint64_t dropped = 0;
  };
  LayerInfo info_;
};

/// SIGN: keyed MAC over the message content. "The checksum could be made
/// cryptographic (i.e., dependent on a secret key), making it impossible
/// for an malignant intruder to impersonate a member process."
class Sign final : public Layer {
 public:
  Sign();
  const LayerInfo& info() const override { return info_; }
  std::unique_ptr<LayerState> make_state(Group& g) override;
  void down(Group& g, DownEvent& ev) override;
  void up(Group& g, UpEvent& ev) override;
  void dump(Group& g, std::string& out) const override;

 private:
  struct State final : LayerState {
    std::uint64_t rejected = 0;
  };
  LayerInfo info_;
};

/// ENCRYPT: XOR-keystream privacy with a per-message nonce. The upper
/// layers' region bits remain plaintext (header metadata, not payload); the
/// serialized upper content is ciphered.
class Encrypt final : public Layer {
 public:
  Encrypt();
  const LayerInfo& info() const override { return info_; }
  std::unique_ptr<LayerState> make_state(Group& g) override;
  void down(Group& g, DownEvent& ev) override;
  void up(Group& g, UpEvent& ev) override;
  void dump(Group& g, std::string& out) const override;

 private:
  struct State final : LayerState {
    std::uint64_t nonce = 0;
    std::uint64_t decrypted = 0;
  };
  LayerInfo info_;
};

/// COMPRESS: LZ-style compression "to improve bandwidth use"; falls back
/// to pass-through when the content is incompressible.
class Compress final : public Layer {
 public:
  Compress();
  const LayerInfo& info() const override { return info_; }
  std::unique_ptr<LayerState> make_state(Group& g) override;
  void down(Group& g, DownEvent& ev) override;
  void up(Group& g, UpEvent& ev) override;
  void dump(Group& g, std::string& out) const override;

 private:
  struct State final : LayerState {
    std::uint64_t compressed = 0;
    std::uint64_t bytes_saved = 0;
  };
  LayerInfo info_;
};

}  // namespace horus::layers
