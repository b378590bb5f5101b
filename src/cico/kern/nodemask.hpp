// Dynamic node bitmask.
//
// Replaces the raw `std::uint64_t` accessor masks in EpochDB / the sharing
// analyzer, whose `1ULL << (n % 64)` construction silently aliased node 64
// onto node 0 (and so on), corrupting race and false-sharing accessor
// counts for machines wider than 64 nodes.  The first 64 nodes live in an
// inline word (the overwhelmingly common case allocates nothing); wider
// configurations spill into a vector.  It also holds Dir1SW's sharer sets,
// whose members the protocol visits in ascending node order.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

namespace cico::kern {

class NodeMask {
 public:
  NodeMask() = default;

  void set(std::uint32_t n) {
    if (n < 64) {
      lo_ |= 1ULL << n;
      return;
    }
    const std::size_t wi = n / 64 - 1;
    if (hi_.size() <= wi) hi_.resize(wi + 1, 0);
    hi_[wi] |= 1ULL << (n % 64);
  }

  void reset(std::uint32_t n) {
    if (n < 64) {
      lo_ &= ~(1ULL << n);
      return;
    }
    const std::size_t wi = n / 64 - 1;
    if (wi < hi_.size()) hi_[wi] &= ~(1ULL << (n % 64));
  }

  /// Empties the mask; spilled words keep their capacity for reuse.
  void clear() {
    lo_ = 0;
    hi_.clear();
  }

  [[nodiscard]] bool test(std::uint32_t n) const {
    if (n < 64) return (lo_ & (1ULL << n)) != 0;
    const std::size_t wi = n / 64 - 1;
    if (wi >= hi_.size()) return false;
    return (hi_[wi] & (1ULL << (n % 64))) != 0;
  }

  [[nodiscard]] bool any() const {
    if (lo_ != 0) return true;
    for (const std::uint64_t w : hi_) {
      if (w != 0) return true;
    }
    return false;
  }

  [[nodiscard]] int count() const {
    int c = std::popcount(lo_);
    for (const std::uint64_t w : hi_) c += std::popcount(w);
    return c;
  }

  /// True when `n` is set and is the ONLY node set.
  [[nodiscard]] bool is_sole(std::uint32_t n) const {
    return test(n) && count() == 1;
  }

  /// Ascending-order iterator over the members (range-for).
  class const_iterator {
   public:
    std::uint32_t operator*() const {
      return static_cast<std::uint32_t>(wi_ * 64 + std::countr_zero(cur_));
    }
    const_iterator& operator++() {
      cur_ &= cur_ - 1;  // clear lowest set bit
      if (cur_ == 0) advance_word(wi_ + 1);
      return *this;
    }
    friend bool operator==(const const_iterator& x, const const_iterator& y) {
      return x.wi_ == y.wi_ && x.cur_ == y.cur_;
    }

   private:
    friend class NodeMask;
    const_iterator(const NodeMask* m, std::size_t from) : m_(m) {
      advance_word(from);
    }
    void advance_word(std::size_t from) {
      for (wi_ = from; wi_ < m_->words(); ++wi_) {
        cur_ = m_->word(wi_);
        if (cur_ != 0) return;
      }
      cur_ = 0;
    }

    const NodeMask* m_;
    std::size_t wi_ = 0;
    std::uint64_t cur_ = 0;
  };

  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, words()}; }

  /// Smallest member; the mask must not be empty.
  [[nodiscard]] std::uint32_t lowest() const { return *begin(); }

  NodeMask& operator|=(const NodeMask& o) {
    lo_ |= o.lo_;
    if (o.hi_.size() > hi_.size()) hi_.resize(o.hi_.size(), 0);
    for (std::size_t i = 0; i < o.hi_.size(); ++i) hi_[i] |= o.hi_[i];
    return *this;
  }

  friend bool operator==(const NodeMask& a, const NodeMask& b) {
    if (a.lo_ != b.lo_) return false;
    const std::size_t n = std::max(a.hi_.size(), b.hi_.size());
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t wa = i < a.hi_.size() ? a.hi_[i] : 0;
      const std::uint64_t wb = i < b.hi_.size() ? b.hi_[i] : 0;
      if (wa != wb) return false;
    }
    return true;
  }
  friend bool operator!=(const NodeMask& a, const NodeMask& b) {
    return !(a == b);
  }

  /// popcount(a | b) without materializing the union.
  [[nodiscard]] static int count_union(const NodeMask& a, const NodeMask& b) {
    int c = std::popcount(a.lo_ | b.lo_);
    const std::size_t n = std::max(a.hi_.size(), b.hi_.size());
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t wa = i < a.hi_.size() ? a.hi_[i] : 0;
      const std::uint64_t wb = i < b.hi_.size() ? b.hi_[i] : 0;
      c += std::popcount(wa | wb);
    }
    return c;
  }

  /// (a1 | b1) == (a2 | b2) without materializing either union.
  [[nodiscard]] static bool union_equals(const NodeMask& a1, const NodeMask& b1,
                                         const NodeMask& a2,
                                         const NodeMask& b2) {
    if ((a1.lo_ | b1.lo_) != (a2.lo_ | b2.lo_)) return false;
    const std::size_t n =
        std::max(std::max(a1.hi_.size(), b1.hi_.size()),
                 std::max(a2.hi_.size(), b2.hi_.size()));
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t w1 = (i < a1.hi_.size() ? a1.hi_[i] : 0) |
                               (i < b1.hi_.size() ? b1.hi_[i] : 0);
      const std::uint64_t w2 = (i < a2.hi_.size() ? a2.hi_[i] : 0) |
                               (i < b2.hi_.size() ? b2.hi_[i] : 0);
      if (w1 != w2) return false;
    }
    return true;
  }

 private:
  /// Word i holds nodes 64*i .. 64*i+63.
  [[nodiscard]] std::size_t words() const { return 1 + hi_.size(); }
  [[nodiscard]] std::uint64_t word(std::size_t i) const {
    return i == 0 ? lo_ : hi_[i - 1];
  }

  std::uint64_t lo_ = 0;               ///< nodes 0..63 (no allocation)
  std::vector<std::uint64_t> hi_;      ///< nodes 64.. (rarely used)
};

}  // namespace cico::kern
