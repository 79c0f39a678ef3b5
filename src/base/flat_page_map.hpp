// Insertion-ordered map from a page-aligned address to a u64 payload, with a
// direct-indexed page ledger.
//
// Built for the guest process's "truth" ledger, which sits on the hot side
// of every simulated store: one insert-or-assign per write. Items live in a
// dense vector (insertion order, swap-with-last erase); the index is a flat
// array of `item pos + 1` addressed by page number relative to the lowest
// page it spans, so the steady-state re-dirty path is one subtraction and
// one load, with no hashing and no allocation. Guest mmap hands out GVAs
// upward from one base, so the span stays dense: 4 B per spanned page.
// The span grows (geometrically, either direction) only on a first touch
// outside it. Fully deterministic: iteration order depends only on the
// insertion/erase sequence.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <vector>

#include "base/types.hpp"

namespace ooh {

class FlatPageMap {
 public:
  struct Item {
    Gva first = 0;   ///< page address (the key)
    u64 second = 0;  ///< payload (e.g. last-write sequence number)
  };
  using const_iterator = const Item*;

  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }
  [[nodiscard]] bool empty() const noexcept { return items_.empty(); }
  [[nodiscard]] const_iterator begin() const noexcept { return items_.data(); }
  [[nodiscard]] const_iterator end() const noexcept {
    return items_.data() + items_.size();
  }

  [[nodiscard]] bool contains(Gva page) const noexcept {
    const u64 rel = page_index(page) - base_;
    return rel < index_.size() && index_[rel] != kEmpty;
  }

  void insert_or_assign(Gva page, u64 value) {
    assert(is_page_aligned(page));
    u64 rel = page_index(page) - base_;  // wraps for pages below base_
    if (rel >= index_.size()) rel = cover(page_index(page));
    u32& slot = index_[rel];
    if (slot != kEmpty) {
      items_[slot - 1].second = value;
      return;
    }
    items_.push_back({page, value});
    slot = static_cast<u32>(items_.size());
  }

  void erase(Gva page) noexcept {
    const u64 rel = page_index(page) - base_;
    if (rel >= index_.size() || index_[rel] == kEmpty) return;
    const std::size_t pos = index_[rel] - 1;
    index_[rel] = kEmpty;
    const std::size_t last = items_.size() - 1;
    if (pos != last) {
      items_[pos] = items_[last];
      index_[page_index(items_[pos].first) - base_] = static_cast<u32>(pos) + 1;
    }
    items_.pop_back();
  }

  /// Drops every item; walks the items, not the span, so a reset after a
  /// sparse interval costs what the interval wrote.
  void clear() noexcept {
    for (const Item& it : items_) index_[page_index(it.first) - base_] = kEmpty;
    items_.clear();
  }

 private:
  static constexpr u32 kEmpty = 0;  ///< index_ stores item pos + 1.
  static constexpr u64 kMinSpan = 64;

  /// Grow the span to cover page number `idx` (at least doubling it, toward
  /// the side `idx` lies on); returns idx's offset in the new span.
  u64 cover(u64 idx) {
    if (index_.empty()) {
      base_ = idx;
      index_.assign(kMinSpan, kEmpty);
      return 0;
    }
    const u64 old_span = index_.size();
    const u64 lo = std::min(idx, base_);
    const u64 hi = std::max(idx + 1, base_ + old_span);
    const u64 span = std::max(hi - lo, 2 * old_span);
    // Downward growth keeps the top fixed and takes the slack below idx
    // (clamped at page 0); upward growth keeps the base.
    const u64 new_base = idx < base_ ? (hi >= span ? hi - span : 0) : base_;
    std::vector<u32> grown(span, kEmpty);
    std::copy(index_.begin(), index_.end(),
              grown.begin() + static_cast<std::ptrdiff_t>(base_ - new_base));
    index_.swap(grown);
    base_ = new_base;
    return idx - base_;
  }

  std::vector<Item> items_;  ///< dense, insertion-ordered live items.
  std::vector<u32> index_;   ///< page number - base_ -> item pos + 1.
  u64 base_ = 0;             ///< page number of index_[0].
};

}  // namespace ooh
