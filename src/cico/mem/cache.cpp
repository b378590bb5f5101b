#include "cico/mem/cache.hpp"

#include <bit>
#include <stdexcept>
#include <string>

namespace cico::mem {

namespace {

const CacheGeometry& checked(const CacheGeometry& g) {
  if (!std::has_single_bit(g.block_bytes) || g.assoc == 0 ||
      !std::has_single_bit(g.num_sets())) {
    throw std::invalid_argument(
        "cache geometry " + std::to_string(g.size_bytes) + "B/" +
        std::to_string(g.assoc) + "-way/" + std::to_string(g.block_bytes) +
        "B: block size and set count must be powers of two");
  }
  return g;
}

}  // namespace

Cache::Cache(CacheGeometry g)
    : geo_(checked(g)),
      block_shift_(static_cast<unsigned>(std::countr_zero(g.block_bytes))),
      set_mask_(g.num_sets() - 1),
      tags_(static_cast<std::size_t>(g.num_sets()) * g.assoc, 0),
      states_(static_cast<std::size_t>(g.num_sets()) * g.assoc,
              LineState::Invalid),
      fill_(g.num_sets(), 0) {}

std::size_t Cache::way_of(Block b, std::size_t fill) const {
  const Block* tags = tags_.data() + row(b);
  std::size_t i = 0;
  while (i < fill && tags[i] != b) ++i;
  return i;
}

void Cache::to_mru(std::size_t base, std::size_t i) {
  if (i == 0) return;
  const Block tag = tags_[base + i];
  const LineState st = states_[base + i];
  for (std::size_t j = i; j > 0; --j) {
    tags_[base + j] = tags_[base + j - 1];
    states_[base + j] = states_[base + j - 1];
  }
  tags_[base] = tag;
  states_[base] = st;
}

LineState Cache::state_of(Block b) const {
  const std::size_t fill = fill_[set_of(b)];
  const std::size_t i = way_of(b, fill);
  return i < fill ? states_[row(b) + i] : LineState::Invalid;
}

LineState Cache::access(Block b, bool write) {
  const std::size_t fill = fill_[set_of(b)];
  const std::size_t i = way_of(b, fill);
  if (i >= fill) return LineState::Invalid;
  const std::size_t base = row(b);
  const LineState s = states_[base + i];
  if (s == LineState::Exclusive || !write) to_mru(base, i);
  return s;
}

std::optional<Cache::Eviction> Cache::insert(Block b, LineState s) {
  const std::size_t set = set_of(b);
  const std::size_t base = row(b);
  std::size_t fill = fill_[set];
  const std::size_t i = way_of(b, fill);
  if (i < fill) {
    states_[base + i] = s;
    to_mru(base, i);
    return std::nullopt;
  }
  std::optional<Eviction> victim;
  if (fill >= geo_.assoc) {
    victim = Eviction{tags_[base + fill - 1], states_[base + fill - 1]};
    --fill;
    --occupancy_;
  }
  // Shift the whole (possibly shortened) row down one way and write the
  // new line at MRU.
  for (std::size_t j = fill; j > 0; --j) {
    tags_[base + j] = tags_[base + j - 1];
    states_[base + j] = states_[base + j - 1];
  }
  tags_[base] = b;
  states_[base] = s;
  fill_[set] = static_cast<std::uint32_t>(fill + 1);
  ++occupancy_;
  return victim;
}

bool Cache::set_state(Block b, LineState s) {
  const std::size_t fill = fill_[set_of(b)];
  const std::size_t i = way_of(b, fill);
  if (i >= fill) return false;
  states_[row(b) + i] = s;
  return true;
}

LineState Cache::erase(Block b) {
  const std::size_t set = set_of(b);
  const std::size_t base = row(b);
  const std::size_t fill = fill_[set];
  const std::size_t i = way_of(b, fill);
  if (i >= fill) return LineState::Invalid;
  const LineState s = states_[base + i];
  for (std::size_t j = i; j + 1 < fill; ++j) {
    tags_[base + j] = tags_[base + j + 1];
    states_[base + j] = states_[base + j + 1];
  }
  fill_[set] = static_cast<std::uint32_t>(fill - 1);
  --occupancy_;
  return s;
}

}  // namespace cico::mem
