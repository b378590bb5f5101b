#include "cico/cachier/sharing.hpp"

#include <algorithm>
#include <span>
#include <sstream>
#include <utility>

#include "cico/kern/nodemask.hpp"

namespace cico::cachier {

namespace {

// One distinct address of the block being swept.  The mask is
// dynamic-width so node ids >= 64 never alias onto bit n % 64.
struct WordSlot {
  Addr addr = 0;
  kern::NodeMask accessors;
  bool written = false;
};

using Keyed = std::pair<Block, std::size_t>;  // (block, record index)

// Unique nodes and pcs of the records in `group` that `keep` accepts, in
// first-seen (trace) order.
template <class Keep>
void collect_sites(const std::vector<trace::MissRecord>& recs,
                   std::span<const Keyed> group, Keep keep,
                   std::vector<NodeId>& nodes, std::vector<PcId>& pcs) {
  for (const auto& [blk, i] : group) {
    const trace::MissRecord& m = recs[i];
    if (!keep(m)) continue;
    if (std::find(nodes.begin(), nodes.end(), m.node) == nodes.end()) {
      nodes.push_back(m.node);
    }
    if (std::find(pcs.begin(), pcs.end(), m.pc) == pcs.end()) {
      pcs.push_back(m.pc);
    }
  }
}

}  // namespace

// One sort-and-sweep, O(R log R) over R records: counting-sort the records
// by epoch, sort each epoch's (block, record index) pairs -- the index
// tiebreak keeps trace order inside a block -- and decide races and false
// sharing block by block from a small per-address table.
SharingAnalyzer::SharingAnalyzer(const trace::Trace& t,
                                 const mem::CacheGeometry& g,
                                 SharingOptions opt)
    : geo_(g) {
  const std::vector<trace::MissRecord>& recs = t.misses;
  const EpochId epochs = t.num_epochs();
  per_epoch_.resize(epochs);

  std::vector<std::size_t> first(std::size_t{epochs} + 1, 0);
  for (const trace::MissRecord& m : recs) ++first[std::size_t{m.epoch} + 1];
  for (std::size_t e = 0; e < epochs; ++e) first[e + 1] += first[e];
  std::vector<Keyed> keyed(recs.size());
  {
    std::vector<std::size_t> next(first.begin(), first.end() - 1);
    for (std::size_t i = 0; i < recs.size(); ++i) {
      keyed[next[recs[i].epoch]++] = {geo_.block_of(recs[i].addr), i};
    }
  }

  std::vector<WordSlot> words;  // scratch, reused across blocks
  for (EpochId e = 0; e < epochs; ++e) {
    const std::span<Keyed> slice(keyed.data() + first[e],
                                 first[e + 1] - first[e]);
    std::sort(slice.begin(), slice.end());

    EpochSharing& es = per_epoch_[e];
    for (std::size_t lo = 0, hi = 0; lo < slice.size(); lo = hi) {
      const Block blk = slice[lo].first;
      while (hi < slice.size() && slice[hi].first == blk) ++hi;
      const std::span<const Keyed> group = slice.subspan(lo, hi - lo);

      words.clear();
      kern::NodeMask block_accessors;
      bool block_written = false;
      for (const auto& [b, i] : group) {
        const trace::MissRecord& m = recs[i];
        const bool write = m.kind != trace::MissKind::ReadMiss;
        const auto same = [&](const WordSlot& s) { return s.addr == m.addr; };
        auto w = std::find_if(words.begin(), words.end(), same);
        if (w == words.end()) w = words.insert(w, WordSlot{m.addr, {}, false});
        w->accessors.set(m.node);
        w->written |= write;
        block_accessors.set(m.node);
        block_written |= write;
      }
      std::sort(words.begin(), words.end(),
                [](const WordSlot& a, const WordSlot& b) {
                  return a.addr < b.addr;
                });

      // Data races: same address, >=2 nodes, >=1 write.
      for (const WordSlot& w : words) {
        if (!w.written || w.accessors.count() < 2) continue;
        es.race_blocks.insert(blk);
        RaceSite& rs = races_.emplace_back();
        rs.epoch = e;
        rs.addr = w.addr;
        collect_sites(
            recs, group,
            [&](const trace::MissRecord& m) { return m.addr == w.addr; },
            rs.nodes, rs.pcs);
      }

      // False sharing: >=2 nodes touch the block through different
      // addresses, i.e. some address's accessor set is smaller than the
      // block's.
      if (words.size() < 2 || block_accessors.count() < 2) continue;
      if (opt.fs_requires_write && !block_written) continue;
      if (std::all_of(words.begin(), words.end(), [&](const WordSlot& w) {
            return w.accessors == block_accessors;
          })) {
        continue;
      }
      es.fs_blocks.insert(blk);
      FalseShareSite& fs = false_shares_.emplace_back();
      fs.epoch = e;
      fs.block = blk;
      collect_sites(
          recs, group, [](const trace::MissRecord&) { return true; }, fs.nodes,
          fs.pcs);
    }

    es.drfs_blocks = es.race_blocks;
    es.drfs_blocks |= es.fs_blocks;
  }
}

const EpochSharing& SharingAnalyzer::epoch(EpochId e) const {
  if (e >= per_epoch_.size()) return empty_;
  return per_epoch_[e];
}

std::string SharingAnalyzer::report(const trace::Trace& t,
                                    const PcRegistry& pcs,
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

}  // namespace cico::cachier
