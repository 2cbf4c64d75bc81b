// Thread-safe, memory-bounded cache of SDS chains on the wait-free data
// plane (wf::ClockCache).
//
// Iterated subdivision dominates the cost of every solvability query, and
// SDS^k(I) is a pure function of the input complex I -- so the service
// computes each tower once and shares it.  The key is the canonical
// fingerprint of I (topology/hash.hpp); the value is the DEEPEST chain
// built for that input so far, as shared_ptr<const SdsChain>.  A request
// for a shallower depth is a pure hit (SdsChain::level(r) indexes into the
// tower); a deeper request EXTENDS the cached chain, sharing all existing
// levels (SdsChain's prefix-sharing constructor), and re-caches the deeper
// tower.
//
// Concurrency: the index and recency bookkeeping live in a wf::ClockCache
// -- lock-free hash map, CLOCK eviction, pin/evict arbitration in one
// atomic word -- so hits never serialize on a cache-wide mutex (the seed
// design's `mu_` is gone).  The (potentially long) subdivision work still
// happens under a per-entry mutex (BuildSlot::build_mu): queries over
// distinct inputs never wait on each other, while concurrent queries over
// the SAME input build the tower exactly once and share it.
//
// Memory bound: entries are weighted by total vertex count across levels
// (the dominant O(size) term); when the configured budget or entry count
// is exceeded, the coldest (oldest-ticket, reference-bit-clear) entries
// are dropped.  Entries a thread is building or extending hold a pin and
// are structurally un-evictable: dropping them would orphan the tower
// being built.  The most recently touched entry is never evicted.
// In-flight queries keep their chains alive through the shared_ptr
// regardless of eviction.
//
// Under memory pressure (a contained std::bad_alloc in the service),
// shed(frac) evicts coldest-first until roughly `frac` of the resident
// vertex weight is released, leaving hot entries in place -- graceful
// degradation instead of clear()'s scorched earth.
// Persistence: when Options::store names a directory, the cache fronts a
// store::ChainStore.  A first-touch miss consults the store before
// subdividing (an mmap'ed hit counts as a cache hit + store_hit, NOT a
// build), and every build or extension publishes the deepened tower back,
// so the next process -- or the next N processes, sharing the mapping
// read-only -- start warm.  warm() admits every stored chain up front;
// pin()/unpin() hold ClockCache pins so operator-designated towers survive
// eviction and shed().
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "obs/trace.hpp"
#include "protocol/sds_chain.hpp"
#include "service/stats.hpp"
#include "store/chain_store.hpp"
#include "topology/complex.hpp"
#include "wf/clock_cache.hpp"
#include "wf/counter.hpp"

namespace wfc::svc {

class SdsCache {
 public:
  struct Options {
    std::size_t max_entries = 64;
    /// Bound on the summed vertex count of all cached levels.  The default
    /// comfortably holds SDS^3 towers of the canonical small tasks while
    /// staying far below a gigabyte of vertex payloads.
    std::size_t max_resident_vertices = 8'000'000;
    /// Test seam: invoked (under the entry's build lock) immediately before
    /// any subdivision build or extension.  The chaos harness injects
    /// std::bad_alloc here; the exception propagates to the caller with the
    /// cache left consistent (the entry simply stays at its prior depth).
    std::function<void()> build_fault_hook;
    /// Persistent chain store configuration; an empty dir disables it.
    store::ChainStore::Options store;
  };

  SdsCache();  // default Options
  explicit SdsCache(Options options);

  /// Returns a chain for `input` with depth() >= depth.  Hits are lock-free
  /// on the index and never copy; misses build (or extend) under the entry
  /// lock only.
  std::shared_ptr<const proto::SdsChain> chain_for(
      const topo::ChromaticComplex& input, int depth);

  /// Like chain_for, but also reports whether any subdivision work was done
  /// (false = pure cache hit).
  std::shared_ptr<const proto::SdsChain> chain_for(
      const topo::ChromaticComplex& input, int depth, bool* built);

  /// Traced variant: records a chain_build span covering exactly the
  /// subdivision work under the entry's build lock (arg = resulting chain
  /// weight in vertices), or a cache_hit instant when the tower was already
  /// deep enough.  A disabled context makes this identical to the overload
  /// above.  A build or extension polls `stop` once per facet it
  /// subdivides; when it fires, topo::BuildStopped propagates, the entry
  /// stays at its prior depth, and nothing is counted or published (a twin
  /// query waiting on the entry then builds the tower itself).
  std::shared_ptr<const proto::SdsChain> chain_for(
      const topo::ChromaticComplex& input, int depth, bool* built,
      const obs::TraceContext& trace, const topo::StopPredicate& stop = {});

  /// Builds a non-standard (derived) tower from `prior` (the cached chain
  /// so far, possibly null) to depth `depth`.  Must be a pure function of
  /// (key, depth) -- the cache shares and persists the result.
  using DerivedBuilder =
      std::function<std::shared_ptr<const proto::SdsChain>(
          std::shared_ptr<const proto::SdsChain> prior, int depth)>;

  /// chain_for for model-restricted towers (wfc::model): the entry is
  /// keyed by `key` -- the MIXED fingerprint, model::mix_fingerprint(
  /// complex_fingerprint(input), model_tag) -- so towers restricted under
  /// distinct models never collide with each other or with the full tower
  /// (tag 0 leaves the fingerprint unchanged, i.e. IS the full tower's
  /// key).  Store loads verify the recorded model_tag and publishes record
  /// it; builds and extensions go through `build` instead of plain
  /// subdivision.  Hit/miss/extension/store counters are shared with the
  /// full-tower path.
  std::shared_ptr<const proto::SdsChain> derived_chain_for(
      std::uint64_t key, std::uint64_t model_tag, int depth,
      const DerivedBuilder& build, bool* built);

  /// Evicts cold (unpinned) entries until at least `frac` of the current
  /// resident vertex weight is released or only pinned/hot entries remain.
  /// frac is clamped to [0, 1].  Returns entries evicted.
  std::size_t shed(double frac);

  /// Admits every chain in the persistent store into the cache (lazy,
  /// zero-copy -- admission maps headers, it does not materialize levels).
  /// Returns chains admitted.  No-op without a store.
  std::size_t warm();

  /// Publishes every resident chain to the store (the automatic
  /// after-build publish normally keeps the store current; this catches
  /// chains skipped by a byte budget that has since been raised, or a
  /// store attached in a readonly race).  Returns files written.
  std::size_t publish_all();

  /// Pins the cached entry for `fingerprint` against eviction and shed()
  /// until unpin().  Returns false when the fingerprint is not resident or
  /// already pinned.
  bool pin(std::uint64_t fingerprint);
  bool unpin(std::uint64_t fingerprint);

  [[nodiscard]] CacheStats stats() const;

  /// Persistent-store snapshot (all-zero/disabled when no store).
  [[nodiscard]] StoreStats store_stats() const;

  /// nullptr when Options::store.dir was empty.
  [[nodiscard]] store::ChainStore* store() noexcept { return store_.get(); }

  /// Drops every unpinned entry (stats counters are kept).
  void clear();

 private:
  // The cached value: the per-input build serialization point plus the
  // deepest tower built so far.  Held by shared_ptr so transient duplicate
  // entries from an insert race still converge on one build slot.
  struct BuildSlot {
    std::mutex build_mu;  // serializes building for one input
    std::shared_ptr<const proto::SdsChain> chain;  // guarded by build_mu
    /// Model tag of the tower held here (0 = unrestricted); publish_all
    /// records it so restricted files round-trip their tag.
    std::uint64_t model_tag = 0;
  };
  using Cache = wf::ClockCache<std::uint64_t, std::shared_ptr<BuildSlot>>;

  static std::size_t chain_weight(const proto::SdsChain& chain);

  Options options_;
  Cache cache_;
  std::unique_ptr<store::ChainStore> store_;  // nullptr when disabled
  wf::Counter hits_;
  wf::Counter misses_;
  wf::Counter extensions_;
  wf::Counter sheds_;
  wf::Counter store_hits_;
  // Operator pins: fingerprint -> live ClockCache pin.  Orthogonal to the
  // transient build-time pins taken inside chain_for.
  mutable std::mutex pins_mu_;
  std::unordered_map<std::uint64_t, Cache::Handle> pins_;
  // Every fingerprint ever cached, for publish_all (the ClockCache has no
  // iteration -- by design, its index is lock-free).  Weak: entries do not
  // keep evicted towers alive.
  std::mutex registry_mu_;
  std::unordered_map<std::uint64_t, std::weak_ptr<BuildSlot>> registry_;
};

}  // namespace wfc::svc
