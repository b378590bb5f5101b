#include "cico/kern/bitset.hpp"

#include <algorithm>
#include <ostream>

namespace cico::kern {

void BlockSet::ensure_covers(std::uint64_t v) {
  if (words_.empty()) {
    base_ = v & ~63ULL;
    words_.assign(1, 0);
    return;
  }
  if (v >= base_ && v < range_end()) return;
  // Grow toward the new key, with one word of slack on the growing side so
  // tight ascending/descending insert loops stay linear.
  const std::uint64_t aligned = v & ~std::uint64_t{63};
  const std::uint64_t new_base = std::min(base_, aligned);
  const std::uint64_t new_end = std::max(range_end(), aligned + 64);
  std::uint64_t lo = new_base;
  std::uint64_t hi = new_end;
  const std::uint64_t span = hi - lo;
  if (lo < base_ && lo >= span / 2) lo -= (span / 2) & ~63ULL;
  if (hi > range_end()) hi += (span / 2) & ~63ULL;
  std::vector<std::uint64_t> grown(static_cast<std::size_t>((hi - lo) >> 6),
                                   0);
  std::copy(words_.begin(), words_.end(),
            grown.begin() + static_cast<std::ptrdiff_t>((base_ - lo) >> 6));
  words_ = std::move(grown);
  base_ = lo;
}

BlockSet& BlockSet::operator|=(const BlockSet& o) {
  if (o.count_ == 0) return *this;
  // Cover o's occupied word range (trim leading/trailing zero words so a
  // sparse source does not balloon this set's range).
  std::size_t first = 0;
  while (o.words_[first] == 0) ++first;  // o.count_ > 0: some word is set
  std::size_t last = o.words_.size();
  while (last > first && o.words_[last - 1] == 0) --last;
  const std::uint64_t key0 = o.base_ + (static_cast<std::uint64_t>(first) << 6);
  ensure_covers(key0);
  ensure_covers(o.base_ + (static_cast<std::uint64_t>(last) << 6) - 1);
  const std::size_t dst = static_cast<std::size_t>((key0 - base_) >> 6);
  for (std::size_t i = first; i < last; ++i) {
    words_[dst + i - first] |= o.words_[i];
  }
  recount();
  return *this;
}

BlockSet& BlockSet::operator&=(const BlockSet& o) {
  if (count_ == 0) return *this;
  if (o.count_ == 0) {
    clear();
    return *this;
  }
  const std::uint64_t lo = std::max(base_, o.base_);
  const std::uint64_t hi = std::min(range_end(), o.range_end());
  if (hi <= lo) {
    clear();
    return *this;
  }
  const std::size_t lo_wi = static_cast<std::size_t>((lo - base_) >> 6);
  const std::size_t hi_wi = static_cast<std::size_t>((hi - base_) >> 6);
  std::fill(words_.begin(), words_.begin() + static_cast<std::ptrdiff_t>(lo_wi),
            0);
  std::fill(words_.begin() + static_cast<std::ptrdiff_t>(hi_wi), words_.end(),
            0);
  const std::size_t o_wi = static_cast<std::size_t>((lo - o.base_) >> 6);
  for (std::size_t i = lo_wi; i < hi_wi; ++i) {
    words_[i] &= o.words_[o_wi + i - lo_wi];
  }
  recount();
  return *this;
}

BlockSet& BlockSet::operator-=(const BlockSet& o) {
  if (count_ == 0 || o.count_ == 0) return *this;
  const std::uint64_t lo = std::max(base_, o.base_);
  const std::uint64_t hi = std::min(range_end(), o.range_end());
  if (hi <= lo) return *this;
  const std::size_t lo_wi = static_cast<std::size_t>((lo - base_) >> 6);
  const std::size_t hi_wi = static_cast<std::size_t>((hi - base_) >> 6);
  const std::size_t o_wi = static_cast<std::size_t>((lo - o.base_) >> 6);
  for (std::size_t i = lo_wi; i < hi_wi; ++i) {
    words_[i] &= ~o.words_[o_wi + i - lo_wi];
  }
  recount();
  return *this;
}

bool operator==(const BlockSet& a, const BlockSet& b) {
  if (a.count_ != b.count_) return false;
  if (a.count_ == 0) return true;
  if (a.base_ == b.base_ && a.words_.size() == b.words_.size()) {
    return a.words_ == b.words_;
  }
  // Ranges differ: compare word-by-word over the union of the two ranges,
  // treating words outside either range as zero.
  const std::uint64_t lo = std::min(a.base_, b.base_);
  const std::uint64_t hi = std::max(a.range_end(), b.range_end());
  for (std::uint64_t w = lo; w < hi; w += 64) {
    const std::uint64_t wa =
        (w >= a.base_ && w < a.range_end()) ? a.words_[(w - a.base_) >> 6] : 0;
    const std::uint64_t wb =
        (w >= b.base_ && w < b.range_end()) ? b.words_[(w - b.base_) >> 6] : 0;
    if (wa != wb) return false;
  }
  return true;
}

std::ostream& operator<<(std::ostream& os, const BlockSet& s) {
  os << '{';
  bool first = true;
  for (const std::uint64_t v : s) {
    if (!first) os << ", ";
    first = false;
    os << v;
  }
  return os << '}';
}

}  // namespace cico::kern
