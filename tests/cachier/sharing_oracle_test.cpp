// Differential oracle for SharingAnalyzer.
//
// The analyzer is a sort-and-sweep over (epoch, block, record index).  The
// reference below is the earlier map-based constructor kept verbatim (per
// epoch: an ordered map of addresses, one of blocks, and a blocks x words
// false-sharing scan) plus a copy of report()'s formatting.  Both run on
// seeded random traces that cover node ids across 64, several sub-word and
// unaligned addresses per block, 32- and 64-byte blocks, empty epochs and
// gaps, epochs interleaved in trace order, and both false-sharing
// definitions; every output must match element by element.
#include <algorithm>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cico/cachier/sharing.hpp"
#include "cico/kern/nodemask.hpp"

namespace cico::cachier {
namespace {

// ---- Reference: the map-based analyzer -----------------------------------

struct WordInfo {
  kern::NodeMask reader_mask;
  kern::NodeMask writer_mask;
  std::vector<NodeId> nodes;  // unique accessors, in first-seen order
  std::vector<PcId> pcs;      // unique pcs

  void add(NodeId n, bool write, PcId pc) {
    if (write) writer_mask.set(n);
    else reader_mask.set(n);
    if (std::find(nodes.begin(), nodes.end(), n) == nodes.end()) nodes.push_back(n);
    if (std::find(pcs.begin(), pcs.end(), pc) == pcs.end()) pcs.push_back(pc);
  }

  [[nodiscard]] int popcount_accessors() const {
    return kern::NodeMask::count_union(reader_mask, writer_mask);
  }
};

struct Reference {
  std::vector<EpochSharing> per_epoch_;
  std::vector<RaceSite> races_;
  std::vector<FalseShareSite> false_shares_;
  mem::CacheGeometry geo_;

  Reference(const trace::Trace& t, const mem::CacheGeometry& g,
            SharingOptions opt)
      : geo_(g) {
    const EpochId epochs = t.num_epochs();
    per_epoch_.resize(epochs);

    std::vector<std::vector<const trace::MissRecord*>> by_epoch(epochs);
    for (const auto& m : t.misses) by_epoch[m.epoch].push_back(&m);

    for (EpochId e = 0; e < epochs; ++e) {
      std::map<Addr, WordInfo> words;
      std::map<Block, WordInfo> blocks;
      std::map<Block, std::uint64_t> block_word_count;

      for (const trace::MissRecord* m : by_epoch[e]) {
        const bool write = m->kind != trace::MissKind::ReadMiss;
        auto [it, fresh] = words.try_emplace(m->addr);
        if (fresh) ++block_word_count[geo_.block_of(m->addr)];
        it->second.add(m->node, write, m->pc);
        blocks[geo_.block_of(m->addr)].add(m->node, write, m->pc);
      }

      EpochSharing& es = per_epoch_[e];

      for (const auto& [addr, wi] : words) {
        if (wi.popcount_accessors() < 2 || !wi.writer_mask.any()) continue;
        es.race_blocks.insert(geo_.block_of(addr));
        RaceSite rs;
        rs.epoch = e;
        rs.addr = addr;
        rs.nodes = wi.nodes;
        rs.pcs = wi.pcs;
        races_.push_back(std::move(rs));
      }

      for (const auto& [blk, bi] : blocks) {
        if (bi.popcount_accessors() < 2) continue;
        if (block_word_count[blk] < 2) continue;
        if (opt.fs_requires_write && !bi.writer_mask.any()) continue;
        bool different_words = false;
        for (const auto& [addr, wi] : words) {
          if (geo_.block_of(addr) != blk) continue;
          if (!kern::NodeMask::union_equals(wi.reader_mask, wi.writer_mask,
                                            bi.reader_mask, bi.writer_mask)) {
            different_words = true;
            break;
          }
        }
        if (!different_words) continue;
        es.fs_blocks.insert(blk);
        FalseShareSite fs;
        fs.epoch = e;
        fs.block = blk;
        fs.nodes = bi.nodes;
        fs.pcs = bi.pcs;
        false_shares_.push_back(std::move(fs));
      }

      es.drfs_blocks = es.race_blocks;
      es.drfs_blocks |= es.fs_blocks;
    }
  }

  [[nodiscard]] std::string report(const trace::Trace& t, const PcRegistry& pcs,
                                   std::size_t max_items) const {
    std::ostringstream os;
    auto region_name = [&](Addr a) -> std::string {
      const trace::RegionLabel* r = t.region_of(a);
      if (r == nullptr) return "<unlabelled>";
      std::ostringstream rs;
      rs << r->label << "+" << (a - r->base);
      return rs.str();
    };

    os << "=== Cachier sharing report ===\n";
    os << races_.size() << " potential data race(s), " << false_shares_.size()
       << " false-sharing block(s)\n\n";

    os << "--- Potential data races (consider protecting with locks) ---\n";
    std::size_t shown = 0;
    for (const RaceSite& r : races_) {
      if (shown++ >= max_items) {
        os << "  ... " << races_.size() - max_items << " more\n";
        break;
      }
      os << "  epoch " << r.epoch << "  addr " << region_name(r.addr)
         << "  nodes {";
      for (std::size_t i = 0; i < r.nodes.size(); ++i) {
        os << (i ? "," : "") << r.nodes[i];
      }
      os << "}  at ";
      for (std::size_t i = 0; i < r.pcs.size(); ++i) {
        os << (i ? ", " : "") << pcs.describe(r.pcs[i]);
      }
      os << '\n';
    }

    os << "--- False sharing (consider padding the data structure) ---\n";
    shown = 0;
    for (const FalseShareSite& f : false_shares_) {
      if (shown++ >= max_items) {
        os << "  ... " << false_shares_.size() - max_items << " more\n";
        break;
      }
      os << "  epoch " << f.epoch << "  block @"
         << region_name(geo_.base_of(f.block)) << "  nodes {";
      for (std::size_t i = 0; i < f.nodes.size(); ++i) {
        os << (i ? "," : "") << f.nodes[i];
      }
      os << "}  at ";
      for (std::size_t i = 0; i < f.pcs.size(); ++i) {
        os << (i ? ", " : "") << pcs.describe(f.pcs[i]);
      }
      os << '\n';
    }
    return os.str();
  }
};

// ---- Random traces --------------------------------------------------------

constexpr Addr kBase = 0x4000;
constexpr PcId kPcs = 6;

struct Case {
  trace::Trace trace;
  mem::CacheGeometry geo;
  SharingOptions opt;
};

Case random_case(std::uint32_t seed) {
  std::mt19937_64 rng(seed);
  auto pick = [&](std::uint64_t n) { return rng() % n; };

  Case c;
  c.geo.size_bytes = 8192;
  c.geo.assoc = 4;
  c.geo.block_bytes = pick(2) == 0 ? 32 : 64;
  c.opt.fs_requires_write = pick(2) == 0;

  // A small node pool drawn from 0..129 so ids on both sides of 64 (and
  // of 128) meet in one block.
  std::vector<NodeId> pool(1 + pick(6));
  for (NodeId& n : pool) n = static_cast<NodeId>(pick(130));
  if (seed % 3 == 0) pool.push_back(static_cast<NodeId>(pool[0] + 64) % 130);

  // Epochs with gaps: only some ids in 0..max_epoch receive records.
  const EpochId max_epoch = static_cast<EpochId>(pick(8));
  std::vector<EpochId> live;
  for (EpochId e = 0; e <= max_epoch; ++e) {
    if (e == max_epoch || pick(3) != 0) live.push_back(e);
  }

  const std::uint32_t bb = c.geo.block_bytes;
  const std::uint64_t nblocks = 1 + pick(6);
  // Per trace, a handful of offsets inside a block: word-aligned, sub-word
  // and unaligned, so one 8-byte word can hold several distinct addresses.
  std::vector<Addr> offsets;
  const std::size_t noff = 1 + pick(6);
  for (std::size_t i = 0; i < noff; ++i) {
    offsets.push_back(pick(2) == 0 ? 8 * pick(bb / 8) : pick(bb));
  }

  const std::size_t records = seed % 17 == 0 ? 0 : pick(160);
  for (std::size_t i = 0; i < records; ++i) {
    trace::MissRecord m;
    m.epoch = live[pick(live.size())];
    m.node = pool[pick(pool.size())];
    m.kind = static_cast<trace::MissKind>(pick(3));
    m.addr = kBase + bb * pick(nblocks) + offsets[pick(offsets.size())];
    m.size = 8;
    m.pc = static_cast<PcId>(1 + pick(kPcs));
    c.trace.misses.push_back(m);
  }
  c.trace.labels.push_back(trace::RegionLabel{"R", kBase, 64 * 8, true});
  return c;
}

std::vector<Block> blocks_of(const BlockSet& s) { return {s.begin(), s.end()}; }

TEST(SharingOracle, SweepMatchesMapReferenceOnRandomTraces) {
  PcRegistry pcs;
  for (PcId i = 0; i <= kPcs; ++i) (void)pcs.intern("site" + std::to_string(i));

  std::size_t races = 0;
  std::size_t shares = 0;
  std::size_t max_node = 0;
  for (std::uint32_t seed = 0; seed < 240; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Case c = random_case(seed);
    const SharingAnalyzer got(c.trace, c.geo, c.opt);
    const Reference want(c.trace, c.geo, c.opt);

    ASSERT_EQ(got.epochs(), want.per_epoch_.size());
    for (EpochId e = 0; e < got.epochs(); ++e) {
      EXPECT_EQ(blocks_of(got.epoch(e).race_blocks),
                blocks_of(want.per_epoch_[e].race_blocks));
      EXPECT_EQ(blocks_of(got.epoch(e).fs_blocks),
                blocks_of(want.per_epoch_[e].fs_blocks));
      EXPECT_EQ(blocks_of(got.epoch(e).drfs_blocks),
                blocks_of(want.per_epoch_[e].drfs_blocks));
    }

    ASSERT_EQ(got.races().size(), want.races_.size());
    for (std::size_t i = 0; i < want.races_.size(); ++i) {
      EXPECT_EQ(got.races()[i].epoch, want.races_[i].epoch);
      EXPECT_EQ(got.races()[i].addr, want.races_[i].addr);
      EXPECT_EQ(got.races()[i].nodes, want.races_[i].nodes);
      EXPECT_EQ(got.races()[i].pcs, want.races_[i].pcs);
    }
    ASSERT_EQ(got.false_shares().size(), want.false_shares_.size());
    for (std::size_t i = 0; i < want.false_shares_.size(); ++i) {
      EXPECT_EQ(got.false_shares()[i].epoch, want.false_shares_[i].epoch);
      EXPECT_EQ(got.false_shares()[i].block, want.false_shares_[i].block);
      EXPECT_EQ(got.false_shares()[i].nodes, want.false_shares_[i].nodes);
      EXPECT_EQ(got.false_shares()[i].pcs, want.false_shares_[i].pcs);
    }
    EXPECT_EQ(got.report(c.trace, pcs, 5), want.report(c.trace, pcs, 5));
    EXPECT_EQ(got.report(c.trace, pcs), want.report(c.trace, pcs, 50));

    races += want.races_.size();
    shares += want.false_shares_.size();
    for (const auto& m : c.trace.misses) {
      max_node = std::max<std::size_t>(max_node, m.node);
    }
  }
  // The generator must actually exercise both detectors and wide ids.
  EXPECT_GT(races, 200u);
  EXPECT_GT(shares, 200u);
  EXPECT_GE(max_node, 128u);
}

}  // namespace
}  // namespace cico::cachier
