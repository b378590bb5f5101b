// Dense dynamic-range bitset over 64-bit keys (blocks, addresses).
//
// Drop-in replacement for `std::unordered_set<Block>` in the simulator's
// hot paths: the same insert/erase/contains/size surface, but storage is a
// flat run of uint64_t words covering [base_, base_ + 64*words) of the key
// space, set algebra (|=, &=, -=) is a plain loop over those words, and
// iteration yields keys in ASCENDING order (which also makes every
// consumer that used to sort-before-print able to stream directly).
//
// The word range grows on demand and is always 64-aligned in key space;
// clear() zeroes the words but keeps the capacity so reuse in per-epoch
// loops does not churn the allocator.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <iterator>
#include <vector>

namespace cico::kern {

class BlockSet {
 public:
  using value_type = std::uint64_t;
  using key_type = std::uint64_t;
  using size_type = std::size_t;

  BlockSet() = default;
  BlockSet(std::initializer_list<std::uint64_t> xs) {
    for (const std::uint64_t v : xs) insert(v);
  }
  template <class It>
  BlockSet(It first, It last) {
    for (; first != last; ++first) insert(*first);
  }

  /// Inserts `v`; true when it was not already present.
  bool insert(std::uint64_t v) {
    ensure_covers(v);
    std::uint64_t& w = words_[word_index(v)];
    const std::uint64_t bit = 1ULL << (v & 63U);
    if ((w & bit) != 0) return false;
    w |= bit;
    ++count_;
    return true;
  }

  template <class It>
  void insert(It first, It last) {
    for (; first != last; ++first) insert(*first);
  }

  /// Removes `v`; returns 1 when it was present (unordered_set contract).
  std::size_t erase(std::uint64_t v) {
    if (!contains(v)) return 0;
    words_[word_index(v)] &= ~(1ULL << (v & 63U));
    --count_;
    return 1;
  }

  [[nodiscard]] bool contains(std::uint64_t v) const {
    if (v < base_) return false;
    const std::uint64_t wi = (v - base_) >> 6;
    if (wi >= words_.size()) return false;
    return (words_[wi] & (1ULL << (v & 63U))) != 0;
  }

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }

  /// Zeroes every bit but keeps the covered range allocated.
  void clear() {
    std::fill(words_.begin(), words_.end(), 0);
    count_ = 0;
  }

  /// Set union: grows this set's range to cover `o`.
  BlockSet& operator|=(const BlockSet& o);
  /// Set intersection: bits outside the overlap of the two ranges drop.
  BlockSet& operator&=(const BlockSet& o);
  /// Set subtraction.
  BlockSet& operator-=(const BlockSet& o);

  /// Logical equality (ranges may differ; only membership matters).
  friend bool operator==(const BlockSet& a, const BlockSet& b);
  friend bool operator!=(const BlockSet& a, const BlockSet& b) {
    return !(a == b);
  }

  /// Ascending-order iterator over set members.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = std::uint64_t;
    using difference_type = std::ptrdiff_t;
    using pointer = const std::uint64_t*;
    using reference = std::uint64_t;

    const_iterator() = default;

    std::uint64_t operator*() const {
      return base_ + (static_cast<std::uint64_t>(wi_) << 6) +
             static_cast<std::uint64_t>(std::countr_zero(cur_));
    }

    const_iterator& operator++() {
      cur_ &= cur_ - 1;  // clear lowest set bit
      if (cur_ == 0) advance_word(wi_ + 1);
      return *this;
    }

    const_iterator operator++(int) {
      const_iterator tmp = *this;
      ++*this;
      return tmp;
    }

    friend bool operator==(const const_iterator& x, const const_iterator& y) {
      return x.wi_ == y.wi_ && x.cur_ == y.cur_;
    }
    friend bool operator!=(const const_iterator& x, const const_iterator& y) {
      return !(x == y);
    }

   private:
    friend class BlockSet;
    const_iterator(const std::uint64_t* w, std::size_t nw, std::uint64_t base,
                   std::size_t start)
        : w_(w), nw_(nw), base_(base) {
      advance_word(start);
    }

    void advance_word(std::size_t from) {
      wi_ = from;
      while (wi_ < nw_ && w_[wi_] == 0) ++wi_;
      cur_ = wi_ < nw_ ? w_[wi_] : 0;
    }

    const std::uint64_t* w_ = nullptr;
    std::size_t nw_ = 0;
    std::uint64_t base_ = 0;
    std::size_t wi_ = 0;
    std::uint64_t cur_ = 0;
  };
  using iterator = const_iterator;

  [[nodiscard]] const_iterator begin() const {
    return {words_.data(), words_.size(), base_, 0};
  }
  [[nodiscard]] const_iterator end() const {
    return {words_.data(), words_.size(), base_, words_.size()};
  }
  [[nodiscard]] const_iterator cbegin() const { return begin(); }
  [[nodiscard]] const_iterator cend() const { return end(); }

  /// Prints `{a, b, c}` (gtest failure messages).
  friend std::ostream& operator<<(std::ostream& os, const BlockSet& s);

 private:
  [[nodiscard]] std::size_t word_index(std::uint64_t v) const {
    return static_cast<std::size_t>((v - base_) >> 6);
  }
  /// One-past-the-end of the covered key range.
  [[nodiscard]] std::uint64_t range_end() const {
    return base_ + (static_cast<std::uint64_t>(words_.size()) << 6);
  }
  void ensure_covers(std::uint64_t v);
  void recount() {
    count_ = 0;
    for (const std::uint64_t w : words_) {
      count_ += static_cast<std::size_t>(std::popcount(w));
    }
  }

  std::uint64_t base_ = 0;  ///< 64-aligned start of the covered key range
  std::vector<std::uint64_t> words_;
  std::size_t count_ = 0;  ///< maintained eagerly; algebra ops recount
};

}  // namespace cico::kern
