// Set-associative LRU shared-data cache model.
//
// The cache stores coherence state only -- data values live in the
// benchmark's own arrays (the simulator is execution-driven, like WWT, so
// the "memory" is always the host memory).  Lines are Invalid, Shared
// (read-only) or Exclusive (writable); Dir1SW/CICO has no dirty-shared
// state.  Exclusive lines are treated as dirty for writeback accounting.
//
// The block size and the set count must be powers of two: a lookup
// indexes with a shift and a mask fixed at construction, never a division.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cico/mem/geometry.hpp"

namespace cico::mem {

enum class LineState : std::uint8_t { Invalid, Shared, Exclusive };

class Cache {
 public:
  /// Throws std::invalid_argument unless the block size and the set
  /// count are powers of two.
  explicit Cache(CacheGeometry g);

  [[nodiscard]] const CacheGeometry& geometry() const { return geo_; }

  /// geometry().block_of(a), by shift.
  [[nodiscard]] Block block_of(Addr a) const { return a >> block_shift_; }

  /// Coherence state of a block (Invalid if not present).
  [[nodiscard]] LineState state_of(Block b) const;

  [[nodiscard]] bool contains(Block b) const { return state_of(b) != LineState::Invalid; }

  /// One processor access: returns the block's state (Invalid if not
  /// present) and, when the access hits -- Exclusive, or Shared for a
  /// read -- moves the block to MRU.  One way lookup per access.
  LineState access(Block b, bool write);

  struct Eviction {
    Block block;
    LineState state;
  };

  /// Inserts a block (replacing any LRU victim in its set) and returns the
  /// victim, if one was evicted.  Inserting an already-present block just
  /// updates its state and LRU position.
  std::optional<Eviction> insert(Block b, LineState s);

  /// Changes the state of a present block (upgrade/downgrade).
  /// Returns false if the block is not present.
  bool set_state(Block b, LineState s);

  /// Removes a block (invalidation or check-in).  Returns its prior state.
  LineState erase(Block b);

  /// Removes every line, invoking fn(block, state) for each, set by set
  /// (used for the barrier flush of trace mode, section 3.3).
  template <class Fn>
  void flush(Fn&& fn) {
    for (std::size_t set = 0; set < fill_.size() && occupancy_ != 0; ++set) {
      const std::size_t base = set * geo_.assoc;
      const std::size_t fill = fill_[set];
      for (std::size_t i = 0; i < fill; ++i) {
        fn(tags_[base + i], states_[base + i]);
      }
      occupancy_ -= fill;
      fill_[set] = 0;
    }
  }

  [[nodiscard]] std::size_t occupancy() const { return occupancy_; }

  /// Invokes fn(block, state) for every resident line (MRU to LRU per set).
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t set = 0; set < fill_.size(); ++set) {
      const std::size_t base = set * geo_.assoc;
      for (std::size_t i = 0; i < fill_[set]; ++i) {
        fn(tags_[base + i], states_[base + i]);
      }
    }
  }

 private:
  // Structure-of-arrays layout: the tags of set s occupy
  // tags_[s*assoc .. s*assoc + fill_[s]) with index 0 = MRU and
  // fill_[s]-1 = LRU, states_ in parallel.  A lookup is a linear scan of
  // the set's contiguous tag row (at most assoc tags) instead of a
  // pointer-chasing walk of per-set vectors; LRU maintenance is a short
  // rotation.
  [[nodiscard]] std::size_t set_of(Block b) const {
    return static_cast<std::size_t>(b & set_mask_);
  }
  [[nodiscard]] std::size_t row(Block b) const {
    return set_of(b) * geo_.assoc;
  }
  /// Index of b within its set row, or fill when absent.
  [[nodiscard]] std::size_t way_of(Block b, std::size_t fill) const;
  /// Moves way `i` of the row to MRU (index 0), rotating the prefix.
  void to_mru(std::size_t base, std::size_t i);

  CacheGeometry geo_;
  unsigned block_shift_ = 0;           ///< log2(block_bytes)
  Block set_mask_ = 0;                 ///< num_sets - 1
  std::vector<Block> tags_;            ///< num_sets * assoc
  std::vector<LineState> states_;      ///< num_sets * assoc
  std::vector<std::uint32_t> fill_;    ///< live ways per set
  std::size_t occupancy_ = 0;
};

}  // namespace cico::mem
