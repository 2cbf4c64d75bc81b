// One-shot immediate snapshot object (paper §3.4-3.5), built from SWMR
// registers with the Borowsky-Gafni descending-levels ("participating set")
// algorithm [8]:
//
//   level_i := n+2
//   repeat
//     level_i := level_i - 1;  announce (value_i, level_i)
//     collect all announcements; S := { j : level_j <= level_i }
//   until |S| >= level_i
//   return { (j, value_j) : j in S }
//
// The returned sets satisfy the three §3.5 properties:
//   (1) self-inclusion:  v_i in S_i
//   (2) containment:     S_i subset S_j or S_j subset S_i
//   (3) immediacy:       v_i in S_j  =>  S_i subset S_j
//
// Wait-freedom: a processor descends at most n+1 levels; each iteration is a
// write plus a collect.  One-shot: each processor may write_read() once.
#pragma once

#include <atomic>
#include <memory>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "registers/step_point.hpp"
#include "registers/swmr_register.hpp"

namespace wfc::reg {

template <typename T>
class ImmediateSnapshot {
 public:
  /// One participant's output: the (id, value) pairs it saw, id-sorted.
  using Output = std::vector<std::pair<int, T>>;

  explicit ImmediateSnapshot(int n_procs)
      : values_(static_cast<std::size_t>(n_procs)),
        levels_(static_cast<std::size_t>(n_procs)) {
    WFC_REQUIRE(n_procs >= 1, "ImmediateSnapshot: need at least one processor");
    for (auto& l : levels_) {
      l.store(kUnset, std::memory_order_relaxed);
    }
  }

  [[nodiscard]] int n_procs() const noexcept {
    return static_cast<int>(levels_.size());
  }

  /// The single WriteRead operation of P_i (§3.4).  May be called at most
  /// once per processor id; concurrent calls by distinct ids are the point.
  Output write_read(int i, T value) {
    WFC_REQUIRE(i >= 0 && i < n_procs(), "ImmediateSnapshot: bad id");
    const auto ui = static_cast<std::size_t>(i);
    WFC_REQUIRE(levels_[ui].load(std::memory_order_relaxed) == kUnset,
                "ImmediateSnapshot: write_read called twice by one id");
    values_[ui].write(std::move(value));
    const int n_plus_1 = n_procs();
    for (int level = n_plus_1; level >= 1; --level) {
      detail::step_point();
      // seq_cst on the level store AND the collect loads: with release /
      // acquire, two processes may each store their level and then both
      // read the other's older value (store-load reordering), so neither
      // sees the other and the containment property breaks.
      levels_[ui].store(level, std::memory_order_seq_cst);
      std::vector<int> seen;
      seen.reserve(static_cast<std::size_t>(n_plus_1));
      for (int j = 0; j < n_plus_1; ++j) {
        detail::step_point();
        const int lj = levels_[static_cast<std::size_t>(j)].load(
            std::memory_order_seq_cst);
        if (lj != kUnset && lj <= level) seen.push_back(j);
      }
      if (static_cast<int>(seen.size()) >= level) {
        Output out;
        out.reserve(seen.size());
        for (int j : seen) {
          auto v = values_[static_cast<std::size_t>(j)].read();
          WFC_CHECK(v.has_value(),
                    "ImmediateSnapshot: level published before value");
          out.emplace_back(j, std::move(*v));
        }
        return out;
      }
    }
    WFC_CHECK(false, "ImmediateSnapshot: descended below level 1");
  }

  /// True if processor i already executed its write_read.
  [[nodiscard]] bool participated(int i) const {
    WFC_REQUIRE(i >= 0 && i < n_procs(), "ImmediateSnapshot: bad id");
    return levels_[static_cast<std::size_t>(i)].load(
               std::memory_order_acquire) != kUnset;
  }

 private:
  static constexpr int kUnset = 1 << 20;

  std::vector<SwmrRegister<T>> values_;
  std::vector<std::atomic<int>> levels_;
};

/// A growable sequence of one-shot immediate snapshot memories
/// M_0, M_1, ... (paper §3.5).  Capacity is fixed at construction: bounded
/// protocols know their depth (Lemma 3.1), and a fixed array keeps every
/// access wait-free.
template <typename T>
class IteratedMemory {
 public:
  IteratedMemory(int n_procs, std::size_t capacity) : n_procs_(n_procs) {
    WFC_REQUIRE(n_procs >= 1, "IteratedMemory: need at least one processor");
    WFC_REQUIRE(capacity >= 1, "IteratedMemory: capacity must be positive");
    memories_.reserve(capacity);
    for (std::size_t m = 0; m < capacity; ++m) {
      memories_.push_back(std::make_unique<ImmediateSnapshot<T>>(n_procs));
    }
  }

  [[nodiscard]] int n_procs() const noexcept { return n_procs_; }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return memories_.size();
  }

  /// P_i's WriteRead against memory M_index.
  typename ImmediateSnapshot<T>::Output write_read(std::size_t index, int i,
                                                   T value) {
    WFC_REQUIRE(index < memories_.size(),
                "IteratedMemory: memory index beyond capacity");
    return memories_[index]->write_read(i, std::move(value));
  }

  [[nodiscard]] const ImmediateSnapshot<T>& memory(std::size_t index) const {
    WFC_REQUIRE(index < memories_.size(), "IteratedMemory: bad index");
    return *memories_[index];
  }

 private:
  int n_procs_;
  std::vector<std::unique_ptr<ImmediateSnapshot<T>>> memories_;
};

}  // namespace wfc::reg
