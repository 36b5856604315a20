// MBRSHIP: the virtual synchrony membership layer (Section 5).
//
// "The MBRSHIP layer simulates an environment for the members of a group
//  in which members can only fail (they cannot be slow or get disconnected)
//  and messages do not get lost. ... Each member in the current view is
//  guaranteed either to accept that same view, or to be removed from that
//  view. Messages sent in the current view are delivered to the surviving
//  members of the current view ... This is called virtual synchrony."
//
// At its heart is the flush protocol: when a member crash is suspected
// (PROBLEM from NAK, or the external failure-detector flush downcall) the
// flush coordinator -- the oldest surviving member, elected without message
// exchange -- collects every member's unstable messages and delivery
// vectors, re-disseminates messages any survivor might be missing inside
// the VIEWINSTALL bundle, and installs the successor view. The same
// machinery serves joins, leaves and view merges.
//
// Partition policy (Section 9): under kExtendedVs every partition keeps
// making progress in its own view (Transis/Totem style); under
// kPrimaryPartition a view that does not contain a majority of its
// predecessor blocks sending until a merge restores the majority (Isis
// style).
#pragma once

#include <map>
#include <set>

#include "horus/core/layer.hpp"
#include "horus/layers/common.hpp"

namespace horus::layers {

class Mbrship final : public Layer {
 public:
  Mbrship();

  const LayerInfo& info() const override { return info_; }
  std::unique_ptr<LayerState> make_state(Group& g) override;
  void down(Group& g, DownEvent& ev) override;
  void up(Group& g, UpEvent& ev) override;
  void dump(Group& g, std::string& out) const override;

  // Live reconfiguration (HCPI state-transfer hooks): MBRSHIP survives a
  // switch in place -- its view, delivery vectors and deferred casts carry
  // over to the same-named layer of the new epoch.
  void export_state(Group& g, Writer& w) override;
  void import_state(Group& g, Reader& r) override;
  void on_reconfig_install(Group& g, const ReconfigInstall& inst) override;

 private:
  // Header kinds.
  static constexpr std::uint64_t kData = 0;        ///< view-scoped app cast
  static constexpr std::uint64_t kOob = 1;         ///< out-of-band subset send
  static constexpr std::uint64_t kJoinReq = 2;
  static constexpr std::uint64_t kLeaveReq = 3;
  static constexpr std::uint64_t kFlushMsg = 4;
  static constexpr std::uint64_t kFlushReply = 5;
  static constexpr std::uint64_t kViewInstall = 6;
  static constexpr std::uint64_t kGossip = 7;      ///< delivery-vector gossip
  static constexpr std::uint64_t kMergeReq = 8;
  static constexpr std::uint64_t kResync = 9;      ///< reply to stale flush
  static constexpr std::uint64_t kFailReport = 10; ///< suspicion -> coordinator
  static constexpr std::uint64_t kMergeDeniedCtl = 11; ///< coordinator said no
  static constexpr std::uint64_t kReconfigReq = 12; ///< member asks for a stack switch

  enum class Phase { kJoining, kNormal, kLeft };

  /// One unstable message in a log or flush bundle.
  struct LogEntry {
    Address sender;
    std::uint64_t vseq = 0;
    CapturedMsg content;
  };

  struct State final : LayerState {
    Phase phase = Phase::kJoining;
    std::uint64_t my_vseq = 0;  ///< my casts in the current view
    /// Contiguous prefix of each member's casts delivered here (this view).
    std::map<Address, std::uint64_t> delivered;
    /// Unstable message log: sender -> vseq -> content captured above us.
    std::map<Address, std::map<std::uint64_t, CapturedMsg>> log;
    /// Gossiped delivery vectors, for stability pruning of the log.
    std::map<Address, std::map<Address, std::uint64_t>> reports;
    /// `delivered` as last gossiped (gossip rides NAK, so it is reliable:
    /// an unchanged vector has nothing new to say).
    std::map<Address, std::uint64_t> gossiped;

    // Flush machinery.
    bool flushing = false;
    bool replied = false;          ///< sent my FLUSHREPLY for this attempt
    std::uint64_t attempt = 0;
    std::set<Address> failed;      ///< suspected in the current view
    std::set<Address> leaving;     ///< clean departures
    std::set<Address> joiners;     ///< waiting to be added
    bool in_flush_upcall = false;  ///< casts issued now belong to the old view
    // Coordinator-side collection.
    std::set<Address> reply_waiting;
    std::map<Address, std::map<Address, std::uint64_t>> reply_delivered;
    std::map<Address, std::map<std::uint64_t, CapturedMsg>> collected;

    /// Data casts tagged with a future view, held until we install it.
    std::map<std::uint64_t, std::vector<LogEntry>> future;
    /// App casts issued while flushing/blocked; sent in the next view.
    std::vector<Message> deferred_casts;
    /// The last VIEWINSTALL bundle, for resyncing laggards.
    Bytes last_install;

    /// App-controlled flush: we owe a reply once the app calls flush_ok.
    bool awaiting_app_flush_ok = false;
    Address flush_reply_to;
    /// App-controlled merge: request parked until granted/denied.
    bool merge_pending = false;
    Address merge_requester;
    View merge_their_view;

    bool blocked = false;  ///< primary-partition policy: not in primary
    View last_primary;     ///< last view in which we were primary
    /// Merges force the successor view's seq above the absorbed view's.
    std::uint64_t view_seq_floor = 0;
    Address join_contact;
    /// Live reconfiguration: target spec the next view install carries (set
    /// on the coordinator; rides the flush currently running or started for
    /// it). Empty = plain view change.
    std::string pending_spec;
    /// Epoch floor a requester asked for (merges of already-switched views).
    std::uint64_t pending_epoch_floor = 0;
    /// This state belongs to a retired (shadow) epoch: the group switched
    /// stacks and a newer epoch owns the protocol now. The shadow only
    /// drains stragglers and answers resyncs; it never installs views.
    bool superseded = false;
    sim::TimerId gossip_timer = 0;
    sim::TimerId watchdog_timer = 0;
    sim::TimerId join_timer = 0;
    std::uint64_t flushes_completed = 0;
    std::uint64_t flush_msgs = 0;
  };

  [[nodiscard]] Address self() const;
  Address coordinator(Group& g, const State& st) const;
  bool i_am_coordinator(Group& g, const State& st) const;

  void handle_cast_down(Group& g, State& st, DownEvent& ev);
  void handle_data(Group& g, State& st, UpEvent& ev, std::uint64_t view_seq,
                   std::uint64_t vseq);
  void deliver_data(Group& g, State& st, const Address& src,
                    std::uint64_t vseq, UpEvent& ev);
  void handle_gossip(Group& g, State& st, const Address& src, Reader r);
  void prune_stable(Group& g, State& st);
  void handle_join_req(Group& g, State& st, Reader r);
  void handle_leave_req(Group& g, State& st, Reader r);
  void handle_merge_req(Group& g, State& st, const Address& src, Reader r);
  void handle_flush_msg(Group& g, State& st, const Address& src,
                        std::uint64_t view_seq, Reader r);
  void handle_flush_reply(Group& g, State& st, const Address& src, Reader r);
  void handle_view_install(Group& g, State& st, const Address& src,
                           ByteSpan bundle);
  void request_reconfig(Group& g, State& st, const std::string& spec,
                        std::uint64_t epoch_floor);
  void answer_superseded(Group& g, State& st, const Address& src,
                         std::uint64_t kind);
  void suspect(Group& g, State& st, const Address& who);
  void handle_fail_report(Group& g, State& st, const Address& src,
                          std::uint64_t view_seq, Reader r);
  void report_failures(Group& g, State& st);
  void start_flush(Group& g, State& st);
  void emit_flush_upcall(Group& g, State& st);
  void send_flush_reply(Group& g, State& st, const Address& to);
  void contribute_and_reply(Group& g, State& st, const Address& to);
  void grant_merge(Group& g, State& st);
  void maybe_install(Group& g, State& st);
  void install_view(Group& g, State& st);
  void bootstrap(Group& g, State& st);
  void send_oob(Group& g, std::uint64_t kind, const Address& dst, ByteSpan payload);
  void arm_watchdog(Group& g, State& st);
  void arm_gossip(Group& g, State& st);
  void send_gossip(Group& g, State& st);

  LayerInfo info_;
};

}  // namespace horus::layers
