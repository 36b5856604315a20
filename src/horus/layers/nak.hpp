// NAK: reliable FIFO delivery via sequence numbers and negative
// acknowledgements (Sections 2 and 7).
//
// "The NAK layer provides FIFO ordering of messages. For this it pushes a
//  sequence number on each outgoing message, that the receiver can check.
//  If the receiver detects message loss, it sends back a negative
//  acknowledgement (NAK). The NAK layer buffers some messages for
//  retransmission ... If not, it will send a place holder that will result
//  in a LOST_MESSAGE event when received. Each endpoint will occasionally
//  multicast its protocol status, so buffered messages may be flushed, and
//  window-based flow control may be implemented. It also allows the
//  detection of failures or disconnections (in case a status update is not
//  received in time)."
//
// Streams: each sender has one multicast stream per group (stream 0) and
// one unicast stream per destination (stream 1). Multicast streams are
// scoped by an *epoch* (the view sequence number at send time) and restart
// at 1 in each epoch, so that members joining in view v are not owed
// messages from earlier views. Unicast streams are epoch-less, always start
// at 1 per peer pair, and carry out-of-band control traffic for the layers
// above (joins, flushes, merges); gaps are learned from the peers' status
// transmission reports and repaired by NAKs like any other stream.
//
// Repair is event-driven. A stream has a gap while it knows of a sequence
// number it has not delivered (known_max >= expected). When a gap opens, or
// its head moves, the first NAK is due after a reorder allowance of
// nak_resend_timeout / 10: a datagram overtaken in flight arrives within it
// and costs no NAK. While the gap stays open the stream NAKs again every
// nak_resend_timeout. A gap arms the group's one repair timer for the
// earliest due NAK; the timer re-arms only while some gap remains, so an
// idle group runs none.
//
// Status and flow control. Every nak_status_interval a member sends each
// peer its status: its own cast extent and, per stream, how far it has
// received. A sender keeps at most nak_window casts past the lowest ack of
// its current epoch in flight; later casts queue until a status opens the
// window. So that the window does not wait a whole status interval, a cast
// sent at or past half a window beyond that ack asks for status (kind
// kAsk), as long as no earlier ask is outstanding; each receiver answers
// it with its status as soon as it has delivered the stream through it. A
// lost ask or answer costs only speed: the periodic status opens the
// window as before. A status also frees the acked part of the current
// epoch's retransmit buffer; the previous epoch's buffer stays until the
// next view, since a member still flushing that view may NAK it.
#pragma once

#include <deque>
#include <map>
#include <optional>

#include "horus/core/layer.hpp"
#include "horus/layers/common.hpp"

namespace horus::obs {
class Counter;
}  // namespace horus::obs

namespace horus::layers {

class Nak final : public Layer {
 public:
  Nak();

  const LayerInfo& info() const override { return info_; }
  std::unique_ptr<LayerState> make_state(Group& g) override;
  void down(Group& g, DownEvent& ev) override;
  void up(Group& g, UpEvent& ev) override;
  void dump(Group& g, std::string& out) const override;

 private:
  // Header kinds.
  static constexpr std::uint64_t kData = 0;
  static constexpr std::uint64_t kNakReq = 1;
  static constexpr std::uint64_t kStatus = 2;
  static constexpr std::uint64_t kPlaceholder = 3;
  static constexpr std::uint64_t kAsk = 4;  ///< kData that asks for status

  /// Inbound reassembly state for one (source, stream[, epoch]).
  struct StreamIn {
    std::uint64_t expected = 1;  ///< next seq to deliver
    /// Out-of-order buffer; nullopt marks a placeholder (lost message).
    std::map<std::uint64_t, std::optional<Message>> ooo;
    std::uint64_t known_max = 0;  ///< highest seq known to exist
    sim::Time nak_due = 0;        ///< when the open gap is next NAKed
    std::uint64_t nak_head = 0;   ///< the `expected` nak_due was set for
    std::uint64_t ask_seq = 0;    ///< status owed once delivered past this
  };

  struct PeerState {
    std::map<std::uint64_t, StreamIn> cast_in;  ///< keyed by epoch
    StreamIn send_in;                           ///< unicast from peer
    std::uint64_t send_out_seq = 0;             ///< my unicast stream to peer
    std::map<std::uint64_t, CapturedMsg> send_buf;
    std::uint64_t send_acked = 0;      ///< peer's ack of my unicast stream
    std::uint64_t cast_acked = 0;      ///< peer's ack of my casts (cur epoch)
    std::uint64_t cast_acked_epoch = 0;
    std::uint64_t latest_epoch = 0;    ///< latest epoch seen from peer
    sim::Time last_heard = 0;
    bool suspected = false;
  };

  struct State final : LayerState {
    std::map<Address, PeerState> peers;
    std::uint64_t epoch = 0;          ///< my current outbound epoch
    std::uint64_t cast_out_seq = 0;   ///< within current epoch
    std::map<std::pair<std::uint64_t, std::uint64_t>, CapturedMsg> cast_buf;
    std::deque<Message> pending;      ///< casts awaiting flow-control window
    std::uint64_t acked_floor = 0;    ///< min_cast_acked at the last status
    std::uint64_t asked_seq = 0;      ///< the last cast sent as kAsk
    sim::TimerId status_timer = 0;
    sim::TimerId repair_timer = 0;  ///< 0 while not armed
    sim::Time repair_at = 0;        ///< when repair_timer fires
    std::uint64_t delivered_count = 0;
    std::uint64_t retransmissions = 0;
  };

  PeerState& peer(State& st, Group& g, const Address& a);
  void ensure_epoch(Group& g, State& st);
  void rearm_status(Group& g, State& st);
  void watch_gap(Group& g, State& st, StreamIn& in);
  void arm_repair(Group& g, State& st, sim::Time at);
  void repair(Group& g, State& st);
  void send_cast_now(Group& g, State& st, Message msg);
  void drain_pending(Group& g, State& st);
  std::uint64_t min_cast_acked(Group& g, State& st) const;
  void deliver_ready(Group& g, State& st, const Address& src, bool is_cast,
                     std::uint64_t epoch, StreamIn& in);
  void handle_data(Group& g, State& st, UpEvent& ev, std::uint64_t stream,
                   std::uint64_t epoch, std::uint64_t seq, std::uint64_t kind);
  void handle_nakreq(Group& g, State& st, const Address& src, Reader r);
  void handle_status(Group& g, State& st, const Address& src, Reader r);
  void send_control(Group& g, const Address& dst, std::uint64_t kind,
                    std::uint64_t stream, std::uint64_t epoch,
                    std::uint64_t seq, ByteSpan payload);
  Bytes status_report(Group& g, State& st);
  void send_status(Group& g, State& st);
  void nak_stream(Group& g, const Address& src, std::uint64_t stream,
                  std::uint64_t epoch, const StreamIn& in);
  void on_view(Group& g, State& st, const View& v);

  LayerInfo info_;
  // Registry counters (docs/obs.md), resolved once.
  obs::Counter& requests_sent_;
  obs::Counter& retransmitted_;
  obs::Counter& placeholders_sent_;
};

}  // namespace horus::layers
