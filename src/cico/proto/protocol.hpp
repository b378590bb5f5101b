// Abstract directory-protocol interface.
//
// The paper's results ride on Dir1SW's cost structure: requests outside
// the expected CICO pattern trap to SOFTWARE.  To measure how much of
// Cachier's win is protocol-specific, the simulator accepts any protocol
// implementing this interface; `DirNFullMap` (dirn.hpp) is an all-hardware
// full-map directory baseline in the DASH/Alewife tradition.
#pragma once

#include <cstdint>
#include <string>

#include "cico/common/types.hpp"
#include "cico/mem/cache.hpp"

namespace cico::proto {

class CacheControl;   // dir1sw.hpp
struct ServiceResult; // dir1sw.hpp

class Protocol {
 public:
  virtual ~Protocol() = default;

  virtual ServiceResult get_shared(NodeId req, Block b, Cycle now,
                                   bool prefetch) = 0;
  virtual ServiceResult get_exclusive(NodeId req, Block b, Cycle now,
                                      bool prefetch) = 0;
  virtual ServiceResult put(NodeId req, Block b, bool dirty, Cycle now,
                            bool explicit_ci) = 0;
  virtual ServiceResult post_store(NodeId req, Block b, Cycle now) = 0;

  /// Home node of a block (directory slices are block-interleaved).
  [[nodiscard]] virtual NodeId home_of(Block b) const = 0;

  /// Consistency self-check (empty string == consistent).
  [[nodiscard]] virtual std::string check_invariants() const = 0;

  /// Memoized variant for per-epoch paranoid audits: verifies only blocks
  /// whose directory entries a handler has touched since the last CLEAN
  /// incremental check, and clears that memo on success ("unobtrusive
  /// property caching").  Sound because every cache-line mutation flows
  /// through a protocol handler for the same block before the next audit
  /// point, so an untouched block cannot have drifted.  Protocols without
  /// dirty tracking fall back to the full check.
  [[nodiscard]] virtual std::string check_invariants_incremental() {
    return check_invariants();
  }

  [[nodiscard]] virtual const char* name() const = 0;
};

}  // namespace cico::proto
