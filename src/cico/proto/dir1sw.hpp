// Dir1SW directory cache-coherence protocol (Hill et al., "Cooperative
// Shared Memory", TOCS Nov. 1993 -- reference [10] of the paper).
//
// Dir1SW keeps, per block, ONE hardware pointer and a counter.  Requests
// that match the expected check-in/check-out usage pattern are serviced
// entirely in hardware; everything else traps to a software handler on the
// block's home node, which maintains the full sharer set and sends
// invalidations / recalls.  Traps are expensive (CostModel::dir_trap plus
// per-invalidation occupancy), which is exactly the cost that well-placed
// CICO annotations avoid:
//
//   * check_in returns a block to Idle, so the next conflicting access is
//     a cheap hardware fill instead of a trap;
//   * check_out_X before a read-then-write fetches the block exclusive in
//     one transaction instead of GetS followed by an upgrade;
//   * prefetches overlap fill latency with computation, and are DROPPED if
//     they would trap (prefetches must never invoke the software handler).
//
// Hardware-handled transitions:
//   Idle     + GetS / GetX                    -> Shared(1) / Exclusive
//   Shared   + GetS                           -> Shared(count+1)
//   Shared(count==1, sole sharer == req) + GetX -> Exclusive (upgrade)
//   any      + Put (check-in / eviction)      -> counter decrement / Idle
// Software traps:
//   Shared(multiple or foreign sharer) + GetX -> invalidate sharers
//   Exclusive(other) + GetS                   -> recall + downgrade owner
//   Exclusive(other) + GetX                   -> recall + invalidate owner
#pragma once

#include <cstdint>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "cico/common/cost.hpp"
#include "cico/kern/bitset.hpp"
#include "cico/common/stats.hpp"
#include "cico/common/types.hpp"
#include "cico/mem/cache.hpp"
#include "cico/net/network.hpp"
#include "cico/proto/protocol.hpp"

namespace cico::proto {

enum class DirState : std::uint8_t { Idle, Shared, Exclusive };

/// Directory entry.  `owner`+`count` are what the Dir1SW *hardware* holds;
/// `sharers` is the full set the *software* handler maintains.
/// `past_sharers` supports the POST-STORE extension (see below): nodes
/// that lost a copy of the block through invalidation or check-in.
struct DirEntry {
  DirState state = DirState::Idle;
  NodeId owner = kInvalidNode;  ///< hardware pointer (first sharer / owner)
  std::uint32_t count = 0;      ///< hardware sharer counter
  std::vector<NodeId> sharers;  ///< software's full sharer set (sorted)
  std::vector<NodeId> past_sharers;  ///< previous holders (sorted)

  [[nodiscard]] bool has_sharer(NodeId n) const;
  [[nodiscard]] bool has_past_sharer(NodeId n) const;
};

/// Interface through which the software handler manipulates remote caches.
/// Implemented by the simulator (safe: the handler only runs in the
/// boundary phase while every node fiber is parked) and by test fakes.
class CacheControl {
 public:
  virtual ~CacheControl() = default;
  /// Current state of block b in node n's cache.
  [[nodiscard]] virtual mem::LineState peek(NodeId n, Block b) const = 0;
  /// Remove block b from node n's cache (invalidation).
  virtual void invalidate(NodeId n, Block b) = 0;
  /// Downgrade node n's copy of b from Exclusive to Shared.
  virtual void downgrade(NodeId n, Block b) = 0;
  /// Install a Shared copy of b in node n's cache (post-store push).
  virtual void push_shared(NodeId n, Block b) = 0;
};

/// Outcome of one directory transaction.
struct ServiceResult {
  Cycle done_at = 0;          ///< when the requester may proceed
  bool trapped = false;       ///< software handler was invoked
  bool nacked = false;        ///< request refused (dropped prefetch, stale put)
  bool dropped = false;       ///< a fault ate the request or its reply;
                              ///< done_at is the loss-detection time and the
                              ///< caller must retry (or give up)
  std::uint32_t invalidations = 0;  ///< invalidation messages sent
};

class Dir1SW final : public Protocol {
 public:
  Dir1SW(std::uint32_t nodes, const CostModel& cost, net::Network& net,
         Stats& stats, CacheControl& caches);

  /// Home node of a block (directory slices are block-interleaved).
  [[nodiscard]] NodeId home_of(Block b) const override {
    return static_cast<NodeId>(b % nodes_);
  }

  /// Read request (shared copy).  With prefetch=true the request is
  /// non-binding and is nacked instead of trapping.
  ServiceResult get_shared(NodeId req, Block b, Cycle now,
                           bool prefetch = false) override;

  /// Write request (exclusive copy).  Also the upgrade path: if the
  /// requester already holds a Shared copy this is a write fault.
  ServiceResult get_exclusive(NodeId req, Block b, Cycle now,
                              bool prefetch = false) override;

  /// Check-in or eviction notification.  `dirty` == requester held the
  /// block Exclusive (data travels home).  Check-ins are fire-and-forget:
  /// the requester is charged only issue occupancy; the directory update is
  /// serialized at `now`.
  ServiceResult put(NodeId req, Block b, bool dirty, Cycle now,
                    bool explicit_ci) override;

  /// EXTENSION -- the KSR-1 post-store the paper's introduction compares
  /// check-in against ("broadcasts read-only copies of a cache block to
  /// all other nodes that have it allocated but are in the invalid
  /// state"): the writer's exclusive copy is written back AND pushed as a
  /// Shared copy to every PAST sharer, so their next reads hit instead of
  /// missing.  The writer keeps a Shared copy.  Fire-and-forget like put.
  ServiceResult post_store(NodeId req, Block b, Cycle now) override;

  /// Directory entry for a block, or nullptr if the block has never been
  /// referenced (equivalent to Idle).
  [[nodiscard]] const DirEntry* entry(Block b) const;

  [[nodiscard]] std::uint32_t nodes() const { return nodes_; }

  /// Verifies directory/cache consistency (tests call this at rest points):
  /// sharer sets match cache states and counters match set sizes.
  /// Returns an empty string when consistent, else a diagnostic.
  [[nodiscard]] std::string check_invariants() const override;

  /// Memoized audit: rechecks only the blocks ent() marked dirty since the
  /// last clean incremental audit, then clears the memo.
  [[nodiscard]] std::string check_invariants_incremental() override;

  [[nodiscard]] const char* name() const override { return "dir1sw"; }

 private:
  /// The single choke point through which every handler reaches an entry;
  /// marking here is what makes the incremental audit's memo sound.
  DirEntry& ent(Block b) {
    const NodeId h = home_of(b);
    dirty_[h].insert(b);
    return slices_[h][b];
  }

  /// One block's share of check_invariants (stable diagnostic order).
  void check_block(Block b, const DirEntry& e, std::ostringstream& bad) const;

  /// Injected software-handler stall (0 when no injector is attached).
  /// The block/requester/time identify the invocation for keyed draws.
  [[nodiscard]] Cycle handler_stall(Block b, NodeId req, Cycle at);

  /// Software handler: invalidate every sharer except `keep`.
  /// Returns (cycles of handler occupancy + last-ack latency, #invals).
  std::pair<Cycle, std::uint32_t> invalidate_sharers(DirEntry& e, Block b,
                                                     NodeId home, NodeId keep);

  std::uint32_t nodes_;
  CostModel cost_;
  net::Network* net_;
  Stats* stats_;
  CacheControl* caches_;
  /// Directory storage, partitioned by home node (slices_[home_of(b)]);
  /// audits walk it home by home, which fixes their diagnostic order.
  std::vector<std::unordered_map<Block, DirEntry>> slices_;
  /// Blocks touched through ent() since the last clean incremental audit,
  /// partitioned like slices_.
  std::vector<kern::BlockSet> dirty_;
};

}  // namespace cico::proto
