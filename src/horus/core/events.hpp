// The Horus Common Protocol Interface event vocabulary (Section 4,
// Tables 1 and 2). Downcalls flow from the application toward the network;
// upcalls flow from the network toward the application. Every layer speaks
// exactly this interface on both its top and bottom edges, which is what
// makes layers stackable in any (well-formed) order.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "horus/core/message.hpp"
#include "horus/core/types.hpp"
#include "horus/core/view.hpp"

namespace horus {

/// Table 1: Horus downcalls.
enum class DownType : std::uint8_t {
  kJoin,          ///< join group and return handle
  kMerge,         ///< merge with other view (argument: view contact)
  kMergeDenied,   ///< deny a merge request
  kMergeGranted,  ///< grant a merge request
  kView,          ///< install a group view (external membership service)
  kCast,          ///< multicast a message to the view
  kSend,          ///< send a message to a subset of the view
  kAck,           ///< application acknowledges (has processed) a message
  kStable,        ///< inform layers a message is stable
  kLeave,         ///< leave group
  kFlush,         ///< remove (failed) members and flush
  kFlushOk,       ///< go along with a flush
  kDestroy,       ///< clean up endpoint
  kFocus,         ///< focus on a layer and return handle
  kDump,          ///< dump layer information (diagnostics)
  kReconfig,      ///< switch the group's protocol stack (argument: new spec)
};

/// Table 2: Horus upcalls.
enum class UpType : std::uint8_t {
  kMergeRequest,  ///< request to merge (source)
  kMergeDenied,   ///< merge request denied (why)
  kFlush,         ///< view flush started (list of failed members)
  kFlushOk,       ///< flush completed
  kView,          ///< view installation (list of members)
  kCast,          ///< received multicast message (message and source)
  kSend,          ///< received subset message (message and source)
  kLeave,         ///< member leaves (member id)
  kDestroy,       ///< endpoint destroyed
  kLostMessage,   ///< message was lost (placeholder delivery)
  kStable,        ///< stability update (stability matrix)
  kProblem,       ///< communication problem (member id)
  kSystemError,   ///< system error report (reason)
  kExit,          ///< close down event
};

const char* to_string(DownType t);
const char* to_string(UpType t);

/// Bit for an upcall type in a LayerInfo::up_emits declaration mask.
constexpr std::uint32_t up_mask(UpType t) {
  return std::uint32_t{1} << static_cast<int>(t);
}
constexpr std::uint32_t make_up_emits(std::initializer_list<UpType> ts) {
  std::uint32_t m = 0;
  for (UpType t : ts) m |= up_mask(t);
  return m;
}

/// One-line description for each call, as printed in the paper's tables.
const char* describe(DownType t);
const char* describe(UpType t);

/// All downcall/upcall types, for table printing and coverage tests.
const std::vector<DownType>& all_downcalls();
const std::vector<UpType>& all_upcalls();

/// The stability matrix delivered by STABLE upcalls (Section 9). Entry
/// (i, j) is the number of member j's casts that member i has acknowledged
/// (acks are issued by the application's `ack` downcall, so the semantics
/// of "stable" are whatever the application decides -- the paper's
/// end-to-end point). Rows and columns are indexed by view rank.
struct StabilityMatrix {
  View view;
  std::vector<std::vector<std::uint64_t>> acked;

  /// Per column j, min over rows: the fully-stable prefix of j's casts.
  [[nodiscard]] std::vector<std::uint64_t> stable_prefix() const;
  [[nodiscard]] std::string to_string() const;
};

/// An event traveling down a stack. A single struct (rather than one type
/// per call) keeps layer code compact; unused fields stay default.
struct DownEvent {
  DownType type = DownType::kCast;
  Message msg;                  ///< kCast/kSend payload message
  std::vector<Address> dests;   ///< kSend subset; kFlush failed members
  Address contact{};            ///< kJoin/kMerge contact endpoint
  View view;                    ///< kView (external membership input)
  std::uint64_t msg_id = 0;     ///< kAck/kStable: id of the acked message
  Address msg_source{};         ///< kAck/kStable: sender of the acked message
  std::string info;             ///< kDump/kFocus argument, kMergeDenied reason,
                                ///< kReconfig target stack spec
};

/// An event traveling up a stack.
struct UpEvent {
  UpType type = UpType::kCast;
  Address source{};             ///< kCast/kSend/kProblem/kLeave/kMergeRequest
  Message msg;                  ///< kCast/kSend
  View view;                    ///< kView
  std::vector<Address> failed;  ///< kFlush
  StabilityMatrix stability;    ///< kStable
  std::string info;             ///< kSystemError/kMergeDenied reason
  std::uint64_t msg_id = 0;     ///< kCast/kSend: per-sender id when available
  /// kLostMessage: the source's stream the message was lost from, kCast or
  /// kSend; kLostMessage when the layer below cannot tell.
  UpType lost_from = UpType::kLostMessage;
};

}  // namespace horus
