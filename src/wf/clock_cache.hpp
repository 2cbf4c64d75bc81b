// Concurrent CLOCK (second-chance) cache over wf::HashMap (wfc::wf).
//
// Replaces the mutex-guarded exact-LRU lists the service grew up with.
// Exact LRU is fundamentally serial -- every hit must splice one shared
// list, so the *read* path writes to one contended structure.  CLOCK keeps
// the hit path wait-free (two relaxed stores: a reference bit and a coarse
// age ticket) and moves all ordering work to the rare eviction path.
//
// Recency is approximate two ways, and deliberately so:
//   * the classic CLOCK reference bit gives each entry one "second
//     chance" per eviction lap;
//   * a global age ticket (one relaxed fetch_add per touch) breaks ties,
//     so an eviction lap picks the *oldest-touched* candidate rather than
//     whatever the hand happens to reach -- sequential workloads therefore
//     see exact-LRU victim choice (which is what the seed test suite
//     pins down), while concurrent workloads get "old enough".
//
// Semantics carried over from the mutex SdsCache index:
//   * pin/evict arbitration: an entry's state word packs a pin count with
//     an evict-claim bit (bit 63).  Pinning CAS-fails once a claim is
//     set; claiming CAS-fails unless the count is zero.  One atomic word
//     makes "evicted while pinned" structurally impossible.
//   * keep_hottest: the entry with the globally newest ticket is never
//     evicted (the seed never evicts the LRU head), so a one-entry cache
//     under churn still keeps its most recent tower.
//   * shed(target): evict coldest-first until ~target weight is released.
//   * clear(): drop every unpinned entry without counting evictions.
//   * for_each(fn): visit every resident entry, pinned, in slot order.
//
// Handles returned by get/get_or_insert hold a pin: the entry cannot be
// reclaimed while a handle lives, so callers may block on the payload's
// own build mutex without holding any epoch guard.  lookup() is the
// cheaper copy-out path (memo/intern): no pin, just an epoch-guarded
// payload copy.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "wf/epoch.hpp"
#include "wf/hashmap.hpp"
#include "wf/telemetry.hpp"

namespace wfc::wf {

template <typename K, typename V, typename Hash = std::hash<K>,
          typename Eq = std::equal_to<K>>
class ClockCache {
 public:
  struct Options {
    /// Evict while size() exceeds this (0 = unbounded).
    std::size_t max_entries = 0;
    /// Evict while weight() exceeds this (0 = unbounded).
    std::size_t max_weight = 0;
    /// Lower bound on table slots (also sized to 2x max_entries).
    std::size_t min_slots = 64;
    /// Independent clock hands; eviction laps start from the calling
    /// thread's hand so concurrent evictors spread over the table.
    std::size_t segments = 4;
    /// Never evict the most recently touched entry.
    bool keep_hottest = true;
    /// Announce-array threshold passed through to the underlying map.
    unsigned announce_after = 8;
  };

  // Per-entry bookkeeping wrapped around the payload.  The copy/move
  // constructors copy only the payload: helper-installed copies and the
  // surviving original must each start with private, zeroed metadata.
  struct Entry {
    V payload;
    std::atomic<std::uint64_t> state{0};  // bit 63 evict claim, rest pins
    std::atomic<std::uint64_t> tick{0};   // age ticket (0 = never touched)
    std::atomic<std::size_t> weight{0};
    std::atomic<bool> ref{false};  // CLOCK second-chance bit

    explicit Entry(V p) : payload(std::move(p)) {}
    Entry(const Entry& o) : payload(o.payload) {}
    Entry(Entry&& o) noexcept : payload(std::move(o.payload)) {}
    Entry& operator=(const Entry&) = delete;
  };

  using Map = HashMap<K, Entry, Hash, Eq>;
  using Node = typename Map::Node;

  /// Pinned reference to a cache entry.  The pin blocks eviction (and
  /// therefore reclamation) for the handle's lifetime.  A *detached*
  /// handle owns a private uncached entry -- the overflow path when the
  /// table is saturated with pinned entries.
  class Handle {
   public:
    Handle() = default;
    ~Handle() { release(); }
    Handle(Handle&& o) noexcept
        : node_(o.node_), detached_(o.detached_) {
      o.node_ = nullptr;
    }
    Handle& operator=(Handle&& o) noexcept {
      if (this != &o) {
        release();
        node_ = o.node_;
        detached_ = o.detached_;
        o.node_ = nullptr;
      }
      return *this;
    }
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;

    explicit operator bool() const { return node_ != nullptr; }
    [[nodiscard]] V& value() const { return node_->value.payload; }
    V& operator*() const { return value(); }
    V* operator->() const { return &value(); }

    void release() {
      if (node_ == nullptr) return;
      if (detached_) {
        delete node_;
      } else {
        node_->value.state.fetch_sub(1, std::memory_order_acq_rel);
      }
      node_ = nullptr;
    }

   private:
    friend class ClockCache;
    Handle(Node* n, bool detached) : node_(n), detached_(detached) {}
    Node* node_ = nullptr;
    bool detached_ = false;
  };

  explicit ClockCache(Options options = {}) : options_(options) {
    typename Map::Options mo;
    std::size_t want = options_.min_slots;
    if (options_.max_entries != 0 && want < 2 * options_.max_entries) {
      want = 2 * options_.max_entries;
    }
    mo.min_slots = want;
    mo.announce_after = options_.announce_after;
    mo.unlink = [this](std::size_t i, Node* n) { unlink_loser(i, n); };
    map_ = std::make_unique<Map>(std::move(mo));
    segments_ = options_.segments == 0 ? 1 : options_.segments;
    hands_ = std::make_unique<std::atomic<std::size_t>[]>(segments_);
    for (std::size_t s = 0; s < segments_; ++s) {
      hands_[s].store(0, std::memory_order_relaxed);
    }
  }

  /// Pinned lookup.  Counts a hit or miss; a null handle means absent.
  [[nodiscard]] Handle get(const K& key) {
    auto guard = Epoch::global().pin();
    for (int tries = 0; tries < 16; ++tries) {
      Node* n = map_->find(key);
      if (n == nullptr) break;
      if (try_pin(n->value)) {
        touch(n->value, /*is_hit=*/true);
        hits_.inc();
        return Handle(n, /*detached=*/false);
      }
      // Evict-claimed under us; it is about to vanish -- re-find.
    }
    misses_.inc();
    return Handle();
  }

  /// Copy-out lookup: no pin, payload copied under the epoch guard.
  /// The cheap path for small immutable payloads (memo results, interned
  /// pointers).
  bool lookup(const K& key, V* out) {
    auto guard = Epoch::global().pin();
    Node* n = map_->find(key);
    if (n == nullptr) {
      misses_.inc();
      return false;
    }
    touch(n->value, /*is_hit=*/true);
    *out = n->value.payload;
    hits_.inc();
    return true;
  }

  /// Pinned get-or-create.  `make()` produces the payload; if a
  /// concurrent twin wins the race the twin's entry is returned instead
  /// (*inserted=false).  On a genuine insert, enforces max_entries (the
  /// returned handle's pin protects the new entry itself).
  template <typename Make>
  [[nodiscard]] Handle get_or_insert(const K& key, Make&& make,
                                     bool* inserted = nullptr) {
    auto guard = Epoch::global().pin();
    while (true) {
      bool did = false;
      Node* n = map_->insert_or_get(
          key, [&] { return new Node{key, Entry(make())}; }, &did);
      if (n == nullptr) {
        // Table saturated with live pinned keys: serve an uncached entry
        // rather than fail or wait.
        auto* d = new Node{key, Entry(make())};
        touch(d->value, /*is_hit=*/false);
        if (inserted != nullptr) *inserted = true;
        misses_.inc();
        return Handle(d, /*detached=*/true);
      }
      if (try_pin(n->value)) {
        touch(n->value, /*is_hit=*/!did);
        (did ? misses_ : hits_).inc();
        if (inserted != nullptr) *inserted = did;
        if (did) maybe_evict();
        return Handle(n, /*detached=*/false);
      }
      // The winner got evict-claimed before we pinned; try again.
    }
  }

  /// Re-weighs the entry behind `h` and updates the cache total.  Safe
  /// only through a live (pinned) handle.
  void update_weight(const Handle& h, std::size_t w) {
    if (h.node_ == nullptr) return;
    std::size_t old = h.node_->value.weight.exchange(
        w, std::memory_order_relaxed);
    if (!h.detached_) {
      weight_.fetch_add(w - old, std::memory_order_relaxed);  // mod 2^64
    }
  }

  /// Evicts until both bounds hold or no candidate remains.
  void maybe_evict() {
    while (over_bound()) {
      if (!evict_one(nullptr)) break;
    }
  }

  /// Evicts coldest-first until ~target weight is released; returns the
  /// weight actually released.
  std::size_t shed_release(std::size_t target) {
    std::size_t released = 0;
    while (released < target) {
      if (!evict_one(&released)) break;
    }
    return released;
  }

  /// Drops every unpinned entry (the hottest included).  Not counted as
  /// evictions, matching the historical clear() semantics.
  std::size_t clear() {
    auto guard = Epoch::global().pin();
    std::size_t removed = 0;
    const std::size_t n = map_->slots();
    for (std::size_t i = 0; i < n; ++i) {
      Node* node = map_->peek(i);
      if (node == nullptr) continue;
      if (!try_claim(node->value)) continue;
      if (map_->erase_at(i, node)) {
        weight_.fetch_sub(node->value.weight.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
        ++removed;
        Epoch::global().retire(node);
      } else {
        node->value.state.store(0, std::memory_order_release);
      }
    }
    return removed;
  }

  /// Calls fn(key, payload) once for every resident entry, walking slots
  /// the way clear() does.  Each entry is pinned under an epoch guard and
  /// stays pinned (so it cannot be evicted) for the call; evict-claimed
  /// entries are skipped.  No epoch guard is held while fn runs, so fn may
  /// block.  Entries inserted or evicted during the walk may or may not be
  /// visited.  Does not touch recency.
  template <typename Fn>
  void for_each(Fn&& fn) {
    const std::size_t n = map_->slots();
    for (std::size_t i = 0; i < n; ++i) {
      Node* node = nullptr;
      {
        auto guard = Epoch::global().pin();
        node = map_->peek(i);
        if (node == nullptr || !try_pin(node->value)) continue;
      }
      Handle pinned(node, /*detached=*/false);
      fn(std::as_const(node->key), node->value.payload);
    }
  }

  [[nodiscard]] std::size_t size() const { return map_->size(); }
  [[nodiscard]] std::size_t weight() const {
    return weight_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t hits() const { return hits_.value(); }
  [[nodiscard]] std::uint64_t misses() const { return misses_.value(); }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_.value(); }

 private:
  static constexpr std::uint64_t kEvictBit = std::uint64_t{1} << 63;

  bool try_pin(Entry& e) {
    std::uint64_t w = e.state.load(std::memory_order_relaxed);
    while (true) {
      if ((w & kEvictBit) != 0) return false;
      if (e.state.compare_exchange_weak(w, w + 1, std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
        return true;
      }
      telemetry().cas_retries.inc();
    }
  }

  bool try_claim(Entry& e) {
    std::uint64_t expect = 0;
    return e.state.compare_exchange_strong(expect, kEvictBit,
                                           std::memory_order_acq_rel);
  }

  void touch(Entry& e, bool is_hit) {
    e.tick.store(ticket_.fetch_add(1, std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
    if (is_hit) e.ref.store(true, std::memory_order_relaxed);
  }

  [[nodiscard]] bool over_bound() const {
    if (options_.max_entries != 0 && map_->size() > options_.max_entries) {
      return true;
    }
    if (options_.max_weight != 0 && weight() > options_.max_weight) {
      return true;
    }
    return false;
  }

  // One eviction: up to two CLOCK laps from this thread's hand.  Lap one
  // spends reference bits; lap two sees them cleared.  Among unpinned,
  // unreffed entries the minimum age ticket wins (exact-LRU choice when
  // sequential), except the globally hottest entry when keep_hottest.
  bool evict_one(std::size_t* released) {
    auto guard = Epoch::global().pin();
    const std::size_t n = map_->slots();
    std::atomic<std::size_t>& hand = hands_[thread_slot() % segments_];
    const std::size_t start = hand.load(std::memory_order_relaxed);
    for (int lap = 0; lap < 2; ++lap) {
      Node* best = nullptr;
      std::size_t best_idx = 0;
      std::uint64_t best_tick = ~std::uint64_t{0};
      Node* hottest = nullptr;
      std::uint64_t hottest_tick = 0;
      std::uint64_t scanned = 0;
      for (std::size_t step = 0; step < n; ++step) {
        const std::size_t i = (start + step) & (n - 1);
        Node* node = map_->peek(i);
        if (node == nullptr) continue;
        ++scanned;
        Entry& e = node->value;
        const std::uint64_t t = e.tick.load(std::memory_order_relaxed);
        if (t >= hottest_tick) {
          hottest_tick = t;
          hottest = node;
        }
        if (e.state.load(std::memory_order_relaxed) != 0) continue;
        if (e.ref.exchange(false, std::memory_order_relaxed)) continue;
        if (t < best_tick) {
          best_tick = t;
          best = node;
          best_idx = i;
        }
      }
      telemetry().evict_scans.inc(scanned);
      if (best != nullptr && options_.keep_hottest && best == hottest) {
        best = nullptr;
      }
      if (best == nullptr) continue;
      Entry& e = best->value;
      if (!try_claim(e)) {
        telemetry().cas_retries.inc();
        continue;  // pinned between scan and claim; next lap
      }
      if (map_->erase_at(best_idx, best)) {
        const std::size_t w = e.weight.load(std::memory_order_relaxed);
        weight_.fetch_sub(w, std::memory_order_relaxed);
        evictions_.inc();
        if (released != nullptr) *released += w;
        hand.store((best_idx + 1) & (n - 1), std::memory_order_relaxed);
        Epoch::global().retire(best);
        return true;
      }
      e.state.store(0, std::memory_order_release);  // defensive un-claim
    }
    return false;
  }

  // Removal hook for losing duplicates from the map's insert race: claim
  // like an evictor, decline if pinned (a pinned loser is unreachable via
  // find() and gets evicted once unpinned).
  void unlink_loser(std::size_t i, Node* n) {
    if (!try_claim(n->value)) return;
    if (map_->erase_at(i, n)) {
      weight_.fetch_sub(n->value.weight.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
      Epoch::global().retire(n);
    } else {
      n->value.state.store(0, std::memory_order_release);
    }
  }

  Options options_;
  std::unique_ptr<Map> map_;
  std::size_t segments_ = 1;
  std::unique_ptr<std::atomic<std::size_t>[]> hands_;
  std::atomic<std::size_t> weight_{0};
  std::atomic<std::uint64_t> ticket_{0};
  Counter hits_;
  Counter misses_;
  Counter evictions_;
};

}  // namespace wfc::wf
