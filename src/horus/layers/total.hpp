// TOTAL: token-based totally ordered multicast (Section 7).
//
// "During normal operation, it utilizes a token. A special 'oracle' at
//  each member decides who should get the token next. ... In case of a
//  failure, the token may be lost. This, however, is not a problem. During
//  the flush, all members that did not get the token in time send their
//  messages. These messages are not delivered, but buffered. When the new
//  view is installed, each member that remains connected to the system is
//  guaranteed to have all messages from the previous view, and a
//  deterministic order can easily be constructed ... Another deterministic
//  rule decides who the first token holder in this view is (e.g., the
//  lowest ranked member)."
//
// The oracle here is demand-driven. The holder stamps its pending casts
// with consecutive global sequence numbers. The token carries an idle-hop
// count: how many holders in a row passed it on without stamping. While
// members keep stamping, the token rotates by rank (an idle holder passes
// after a short idle delay). Once it has made a full idle round (it
// arrives with n-1 idle hops) the holder parks it: it keeps the token and
// stamps its own new casts at once, so a lone active sender pays only the
// network. A member whose last tenure ended idle may be skipped by a
// parking token, so when it next casts it sends one request to the other
// members; they record it, and a holder with nothing to stamp hands the
// token to a requester at once. Out of rank order before a full idle
// round, that pass restarts the round (no idle hops), so the token still
// visits every member before it parks.
// TOTAL requires virtual synchrony from below and -- as Section 7 notes --
// needs no failure detector of its own: view changes from MBRSHIP carry all
// the failure information it needs.
#pragma once

#include <map>

#include "horus/core/layer.hpp"
#include "horus/layers/common.hpp"

namespace horus::layers {

class Total final : public Layer {
 public:
  Total();

  const LayerInfo& info() const override { return info_; }
  std::unique_ptr<LayerState> make_state(Group& g) override;
  void down(Group& g, DownEvent& ev) override;
  void up(Group& g, UpEvent& ev) override;
  void dump(Group& g, std::string& out) const override;

  /// Live-switch state transfer: the buffers a normal view change would
  /// have drained (stamped messages awaiting order, flush-window casts,
  /// casts awaiting the token) cross into the new epoch, where the
  /// install-time view upcall delivers them by the usual deterministic
  /// view-change rules.
  void export_state(Group& g, Writer& w) override;
  void import_state(Group& g, Reader& r) override;

 private:
  static constexpr std::uint64_t kOrdered = 0;  ///< token-stamped cast
  static constexpr std::uint64_t kUnordered = 1; ///< flush-window cast
  static constexpr std::uint64_t kToken = 2;     ///< token pass (subset send)
  static constexpr std::uint64_t kPass = 3;      ///< app subset send
  static constexpr std::uint64_t kRequest = 4;   ///< token request (subset send)

  struct Buffered {
    Address source;
    std::uint64_t msg_id = 0;
    Message msg;
  };

  /// A member that asked for the token in view `vseq`. Its kOrdered casts
  /// stamped at or above `floor` (its next_stamp when it asked) show it got
  /// the token.
  struct Want {
    Address member;
    std::uint64_t vseq = 0;
    std::uint64_t floor = 0;
  };

  struct State final : LayerState {
    bool have_token = false;
    /// Idle hops the held token arrived with; >= n-1 means every other
    /// member held it since the last stamp, so the token rests here.
    std::uint64_t idle_in = 0;
    bool stamped = false;       ///< stamped a cast during this tenure
    /// The last tenure ended with an idle pass and no request went out
    /// since: the token may park without coming back, so a cast must ask.
    bool must_request = false;
    /// Requesters, oldest first. Entries for a view we have not installed
    /// yet wait here for it; a holder never sees them (every member
    /// flushes, dropping its token, before anyone installs the next view).
    std::vector<Want> wanted;
    /// Set between the flush upcall and the next install: the old view's
    /// token is dead, and a late kToken for it must not revive stamping
    /// (a post-flush stamp would leak a stale gseq into the next view).
    bool in_flush = false;
    std::uint64_t next_stamp = 1;    ///< next global seq to assign (holder)
    std::uint64_t next_deliver = 1;  ///< next global seq to deliver
    std::map<std::uint64_t, Buffered> ordered;  ///< received, awaiting order
    std::vector<Message> pending;               ///< casts awaiting the token
    /// Flush-window casts, keyed for the deterministic view-change order.
    std::vector<std::pair<Address, Buffered>> unordered;
    sim::TimerId idle_timer = 0;
    std::uint64_t tokens_passed = 0;
    std::uint64_t requests_sent = 0;
    std::uint64_t requests_served = 0;  ///< passes to a requester
    std::uint64_t delivered = 0;
    /// A token that arrived for a view we have not installed yet (the
    /// sender installed it first); claimed when our install catches up.
    std::uint64_t pending_token_view = 0;
    std::uint64_t pending_token_stamp = 0;
    std::uint64_t pending_token_idle = 0;
  };

  static bool resting(const Group& g, const State& st) {
    return st.idle_in + 1 >= g.view().size();
  }

  void take_token(Group& g, State& st, std::uint64_t idle);
  void drain_token(Group& g, State& st);
  /// Pass the held token to a requester; false if nobody wants it.
  bool release_token(Group& g, State& st);
  void pass_on(Group& g, State& st);  ///< to the next rank
  /// `restart_round` sends the token with no idle hops.
  void pass_token(Group& g, State& st, Address to, bool restart_round = false);
  void request_token(Group& g, State& st);
  void on_request(Group& g, State& st, const Address& from, Reader& r);
  void schedule_idle_pass(Group& g, State& st);
  void deliver_in_order(Group& g, State& st);
  void on_view(Group& g, State& st, UpEvent& ev);

  LayerInfo info_;
};

}  // namespace horus::layers
