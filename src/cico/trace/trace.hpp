// Execution-trace format (paper section 3.3, Fig. 3).
//
// The trace contains one record per shared-data cache miss -- its kind
// (read miss / write miss / write fault), the word address, the issuing
// node, the program counter, and the epoch -- plus one barrier record per
// node per epoch (barrier PC and virtual time).  Epochs are ordered by the
// barrier virtual times; accesses *within* an epoch carry no ordering,
// exactly as in the paper.  Region labels (the paper's shared-memory
// labelling macro) ride along so Cachier can map addresses back to program
// data structures.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "cico/common/types.hpp"

namespace cico::trace {

enum class MissKind : std::uint8_t { ReadMiss, WriteMiss, WriteFault };

[[nodiscard]] const char* miss_kind_name(MissKind k);

struct MissRecord {
  EpochId epoch = 0;
  NodeId node = 0;
  MissKind kind = MissKind::ReadMiss;
  Addr addr = 0;        ///< word address of the access that missed
  std::uint32_t size = 0;  ///< access width in bytes
  PcId pc = kNoPc;

  friend bool operator==(const MissRecord&, const MissRecord&) = default;
};

/// One per (node, barrier): "Node no., Barrier PC, Barrier VT" (Fig. 3).
struct BarrierRecord {
  EpochId epoch = 0;  ///< epoch that this barrier *ends*
  NodeId node = 0;
  PcId barrier_pc = kNoPc;
  Cycle vt = 0;

  friend bool operator==(const BarrierRecord&, const BarrierRecord&) = default;
};

/// Labelled shared-memory region (name, base address, length).
struct RegionLabel {
  std::string label;
  Addr base = 0;
  std::uint64_t bytes = 0;
  bool regular = true;  ///< accesses are loop-affine (enables prefetching)

  friend bool operator==(const RegionLabel&, const RegionLabel&) = default;
};

/// A complete trace: misses + barrier marks + labels.
struct Trace {
  std::vector<MissRecord> misses;
  std::vector<BarrierRecord> barriers;
  std::vector<RegionLabel> labels;

  [[nodiscard]] EpochId num_epochs() const;

  /// Region containing addr, or nullptr.  Binary search over a base-sorted
  /// index built on first use (this sits on the Cachier analysis path for
  /// every miss record).  Overlapping labels used to be resolved silently
  /// by declaration order; they now throw.
  [[nodiscard]] const RegionLabel* region_of(Addr addr) const;

  /// (Re)builds the sorted lookup index, throwing std::runtime_error if
  /// two non-empty labelled regions overlap or a region wraps the address
  /// space.  The loaders call this; call it yourself after mutating
  /// `labels` without changing their count.
  void validate_labels() const;

 private:
  /// Indices into `labels`, sorted by (base, bytes); rebuilt lazily when
  /// the label count changes.
  mutable std::vector<std::uint32_t> label_index_;
};

/// Sorts misses and barriers into the canonical record order used by the
/// epoch-chunked v2 format ((epoch, node, addr, pc, kind, size) for
/// misses, (epoch, node, vt, pc) for barriers).  Accesses within an epoch
/// carry no ordering (paper section 3.3), so this is semantics-preserving;
/// it is what makes equal traces hash equally in the content-addressed
/// store.  Labels keep their declaration order (they are part of the
/// header, not the chunks).
void canonicalize(Trace& t);

/// Accumulates a trace during simulation.  Mirrors WWT's collection scheme:
/// misses are gathered in a per-epoch hash table (deduplicating identical
/// events) and appended at each barrier.
class TraceWriter {
 public:
  void set_labels(std::vector<RegionLabel> labels);

  void record_miss(NodeId node, MissKind kind, Addr addr, std::uint32_t size,
                   PcId pc, EpochId epoch);

  /// Called once per node when a barrier completes.
  void record_barrier(NodeId node, PcId barrier_pc, Cycle vt, EpochId epoch);

  /// Finalizes the current epoch's hash table into the trace.
  void end_epoch();

  /// Finalizes and returns the trace (call once, at end of run).
  [[nodiscard]] Trace take();

 private:
  struct Key {
    NodeId node;
    std::uint8_t kind;
    Addr addr;
    PcId pc;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      std::uint64_t h = k.addr * 0x9e3779b97f4a7c15ULL;
      h ^= (static_cast<std::uint64_t>(k.node) << 40) ^
           (static_cast<std::uint64_t>(k.kind) << 32) ^ k.pc;
      return static_cast<std::size_t>(h * 0xbf58476d1ce4e5b9ULL);
    }
  };

  Trace trace_;
  std::vector<MissRecord> epoch_buf_;
  std::unordered_set<Key, KeyHash> epoch_seen_;
};

/// Text serialization (one record per line; stable, diffable format).
/// Region labels are escaped (\s space, \t \n \r \\, \e for the empty
/// label) so any label round-trips.  load_text is strict: it validates
/// field counts, numeric syntax and the MissKind range, rejects trailing
/// junk, and reports every failure as `trace: line N: ...`.
void save_text(const Trace& t, std::ostream& os);
[[nodiscard]] Trace load_text(std::istream& is);

}  // namespace cico::trace
