// Set-associative LRU shared-data cache model.
//
// The cache stores coherence state only -- data values live in the
// benchmark's own arrays (the simulator is execution-driven, like WWT, so
// the "memory" is always the host memory).  Lines are Invalid, Shared
// (read-only) or Exclusive (writable); Dir1SW/CICO has no dirty-shared
// state.  Exclusive lines are treated as dirty for writeback accounting.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cico/mem/geometry.hpp"

namespace cico::mem {

enum class LineState : std::uint8_t { Invalid, Shared, Exclusive };

class Cache {
 public:
  explicit Cache(CacheGeometry g);

  [[nodiscard]] const CacheGeometry& geometry() const { return geo_; }

  /// Coherence state of a block (Invalid if not present).
  [[nodiscard]] LineState state_of(Block b) const;

  [[nodiscard]] bool contains(Block b) const { return state_of(b) != LineState::Invalid; }

  /// Moves the block to MRU position.  Returns false if not present.
  bool touch(Block b);

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

  /// Removes every line, invoking fn(block, state) for each (used for the
  /// barrier flush of trace mode, section 3.3).
  void flush(const std::function<void(Block, LineState)>& fn);

  [[nodiscard]] std::size_t occupancy() const { return occupancy_; }

  /// Invokes fn(block, state) for every resident line (MRU to LRU per set).
  void for_each(const std::function<void(Block, LineState)>& fn) const;

 private:
  // Structure-of-arrays layout: the tags of set s occupy
  // tags_[s*assoc .. s*assoc + fill_[s]) with index 0 = MRU and
  // fill_[s]-1 = LRU, states_ in parallel.  A lookup is one SIMD compare
  // over the set's tag row (kern::find_u64) instead of a pointer-chasing
  // scan of per-set vectors; LRU maintenance is a short memmove rotation.
  [[nodiscard]] std::size_t row(Block b) const {
    return static_cast<std::size_t>(geo_.set_of(b)) * geo_.assoc;
  }
  /// Index of b within its set row, or fill when absent.
  [[nodiscard]] std::size_t way_of(Block b, std::size_t fill) const;
  /// Moves way `i` of the row to MRU (index 0), rotating the prefix.
  void to_mru(std::size_t base, std::size_t i);

  CacheGeometry geo_;
  std::vector<Block> tags_;            ///< num_sets * assoc
  std::vector<LineState> states_;      ///< num_sets * assoc
  std::vector<std::uint32_t> fill_;    ///< live ways per set
  std::size_t occupancy_ = 0;
};

}  // namespace cico::mem
