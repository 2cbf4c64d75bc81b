#include "service/sds_cache.hpp"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "topology/hash.hpp"

namespace wfc::svc {

namespace {

SdsCache::Options checked(SdsCache::Options options) {
  WFC_REQUIRE(options.max_entries >= 1, "SdsCache: max_entries must be >= 1");
  return options;
}

}  // namespace

SdsCache::SdsCache() : SdsCache(Options()) {}

SdsCache::SdsCache(Options options)
    : options_(checked(std::move(options))),
      cache_(Cache::Options{
          .max_entries = options_.max_entries,
          .max_weight = options_.max_resident_vertices,
          .min_slots = 64,
          .segments = 4,
          .keep_hottest = true,
          .announce_after = 8,
      }) {
  if (!options_.store.dir.empty()) {
    store_ = std::make_unique<store::ChainStore>(options_.store);
  }
}

std::size_t SdsCache::chain_weight(const proto::SdsChain& chain) {
  std::size_t w = 0;
  // level_vertex_count reads arena headers for backed levels -- weighing a
  // warm-loaded chain must not force the materialization it avoided.
  for (int r = 0; r <= chain.depth(); ++r) w += chain.level_vertex_count(r);
  return w;
}

std::shared_ptr<const proto::SdsChain> SdsCache::chain_for(
    const topo::ChromaticComplex& input, int depth) {
  bool built = false;
  return chain_for(input, depth, &built);
}

std::shared_ptr<const proto::SdsChain> SdsCache::chain_for(
    const topo::ChromaticComplex& input, int depth, bool* built) {
  return chain_for(input, depth, built, obs::TraceContext());
}

std::shared_ptr<const proto::SdsChain> SdsCache::chain_for(
    const topo::ChromaticComplex& input, int depth, bool* built,
    const obs::TraceContext& trace, const topo::StopPredicate& stop) {
  WFC_REQUIRE(depth >= 0, "SdsCache::chain_for: negative depth");
  const std::uint64_t key = topo::complex_fingerprint(input);

  // Pin (via the handle) the entry for this input, creating it if absent.
  // While the handle lives, eviction is structurally unable to drop the
  // entry, so the build below can't orphan a tower mid-construction.
  Cache::Handle handle =
      cache_.get_or_insert(key, [] { return std::make_shared<BuildSlot>(); });
  const std::shared_ptr<BuildSlot> slot = *handle;
  {
    std::lock_guard<std::mutex> reg_lock(registry_mu_);
    registry_[key] = slot;
  }

  // Build or extend under the per-entry lock: only same-input queries wait
  // here, and exactly one of them does the subdivision work.  On exception
  // (injected or genuine bad_alloc, or topo::BuildStopped) the handle unpins
  // on unwind and the entry stays at its prior depth; the cache remains
  // consistent.
  bool was_empty = false;
  bool did_build = false;
  bool from_store = false;
  std::shared_ptr<const proto::SdsChain> chain;
  {
    std::lock_guard<std::mutex> build_lock(slot->build_mu);
    const auto build_start = trace.enabled()
                                 ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point();
    // First touch in this process: adopt the persisted tower before even
    // considering a build.  An mmap'ed chain is NOT a build -- this is what
    // keeps chain_builds == 0 across a warm restart.
    if (slot->chain == nullptr && store_) {
      if (auto loaded = store_->load(key)) {
        slot->chain = std::move(loaded);
        from_store = true;
      }
    }
    was_empty = slot->chain == nullptr;
    if (was_empty) {
      if (options_.build_fault_hook) options_.build_fault_hook();
      slot->chain = std::make_shared<proto::SdsChain>(input, depth, stop);
      did_build = true;
    } else if (slot->chain->depth() < depth) {
      if (options_.build_fault_hook) options_.build_fault_hook();
      slot->chain =
          std::make_shared<proto::SdsChain>(*slot->chain, depth, stop);
      did_build = true;
    }
    if (store_ && did_build) store_->publish(key, *slot->chain);
    chain = slot->chain;
    if (trace.enabled()) {
      // Span covers exactly the subdivision work (the build lock section);
      // lock-wait and index bookkeeping are charged to the caller's view.
      if (did_build) {
        trace.complete(obs::SpanKind::kChainBuild, build_start,
                       std::chrono::steady_clock::now(), chain_weight(*chain));
      } else {
        trace.instant(obs::SpanKind::kCacheHit, chain_weight(*chain));
      }
    }
  }
  *built = did_build;

  if (!did_build) {
    hits_.inc();
  } else if (was_empty) {
    misses_.inc();
  } else {
    extensions_.inc();
  }
  if (from_store) store_hits_.inc();
  // Re-weigh through our own pinned handle, then unpin BEFORE the eviction
  // pass -- matching the historical order, in which a just-finished build
  // is itself fair game for eviction (only the most recent entry is safe).
  cache_.update_weight(handle, chain_weight(*chain));
  handle.release();
  cache_.maybe_evict();
  return chain;
}

std::shared_ptr<const proto::SdsChain> SdsCache::derived_chain_for(
    std::uint64_t key, std::uint64_t model_tag, int depth,
    const DerivedBuilder& build, bool* built) {
  WFC_REQUIRE(depth >= 0, "SdsCache::derived_chain_for: negative depth");
  Cache::Handle handle =
      cache_.get_or_insert(key, [] { return std::make_shared<BuildSlot>(); });
  const std::shared_ptr<BuildSlot> slot = *handle;
  {
    std::lock_guard<std::mutex> reg_lock(registry_mu_);
    registry_[key] = slot;
  }

  bool was_empty = false;
  bool did_build = false;
  bool from_store = false;
  std::shared_ptr<const proto::SdsChain> chain;
  {
    std::lock_guard<std::mutex> build_lock(slot->build_mu);
    if (slot->chain == nullptr && store_) {
      // The tag check inside load() keeps a colliding or mislabeled file
      // from ever serving another model's tower.
      if (auto loaded = store_->load(key, model_tag)) {
        slot->chain = std::move(loaded);
        from_store = true;
      }
    }
    was_empty = slot->chain == nullptr;
    slot->model_tag = model_tag;
    if (was_empty || slot->chain->depth() < depth) {
      if (options_.build_fault_hook) options_.build_fault_hook();
      slot->chain = build(was_empty ? nullptr : slot->chain, depth);
      WFC_CHECK(slot->chain != nullptr && slot->chain->depth() >= depth,
                "derived_chain_for: builder returned a short chain");
      did_build = true;
    }
    if (store_ && did_build) store_->publish(key, *slot->chain, model_tag);
    chain = slot->chain;
  }
  *built = did_build;

  if (!did_build) {
    hits_.inc();
  } else if (was_empty) {
    misses_.inc();
  } else {
    extensions_.inc();
  }
  if (from_store) store_hits_.inc();
  cache_.update_weight(handle, chain_weight(*chain));
  handle.release();
  cache_.maybe_evict();
  return chain;
}

std::size_t SdsCache::warm() {
  if (!store_) return 0;
  std::size_t admitted = 0;
  for (const store::ChainStore::Entry& e : store_->list()) {
    Cache::Handle handle = cache_.get_or_insert(
        e.fingerprint, [] { return std::make_shared<BuildSlot>(); });
    const std::shared_ptr<BuildSlot> slot = *handle;
    {
      std::lock_guard<std::mutex> reg_lock(registry_mu_);
      registry_[e.fingerprint] = slot;
    }
    bool loaded = false;
    {
      std::lock_guard<std::mutex> build_lock(slot->build_mu);
      if (slot->chain == nullptr) {
        // Restricted towers warm too: the inventory carries each file's
        // recorded tag, so the load's tag guard is satisfied.
        if (auto chain = store_->load(e.fingerprint, e.model_tag)) {
          slot->chain = std::move(chain);
          slot->model_tag = e.model_tag;
          loaded = true;
        }
      }
    }
    if (loaded) {
      ++admitted;
      store_hits_.inc();
      // Weigh from arena headers only; admission stays O(levels), the
      // kernel pages the tower in on first real use.
      std::size_t w = 0;
      {
        std::lock_guard<std::mutex> build_lock(slot->build_mu);
        if (slot->chain) w = chain_weight(*slot->chain);
      }
      cache_.update_weight(handle, w);
    }
    handle.release();
  }
  cache_.maybe_evict();
  return admitted;
}

std::size_t SdsCache::publish_all() {
  if (!store_) return 0;
  std::vector<std::pair<std::uint64_t, std::shared_ptr<BuildSlot>>> live;
  {
    std::lock_guard<std::mutex> reg_lock(registry_mu_);
    for (auto it = registry_.begin(); it != registry_.end();) {
      if (auto slot = it->second.lock()) {
        live.emplace_back(it->first, std::move(slot));
        ++it;
      } else {
        it = registry_.erase(it);  // tower evicted and gone; drop the stub
      }
    }
  }
  std::size_t written = 0;
  for (auto& [fp, slot] : live) {
    std::lock_guard<std::mutex> build_lock(slot->build_mu);
    if (slot->chain &&
        store_->publish(fp, *slot->chain, slot->model_tag)) {
      ++written;
    }
  }
  return written;
}

bool SdsCache::pin(std::uint64_t fingerprint) {
  std::lock_guard<std::mutex> lock(pins_mu_);
  if (pins_.count(fingerprint) != 0) return false;
  Cache::Handle handle = cache_.get(fingerprint);
  if (!handle) return false;
  pins_.emplace(fingerprint, std::move(handle));
  return true;
}

bool SdsCache::unpin(std::uint64_t fingerprint) {
  std::lock_guard<std::mutex> lock(pins_mu_);
  return pins_.erase(fingerprint) != 0;
}

std::size_t SdsCache::shed(double frac) {
  frac = std::clamp(frac, 0.0, 1.0);
  sheds_.inc();
  const std::size_t resident = cache_.weight();
  const auto release =
      static_cast<std::size_t>(static_cast<double>(resident) * frac);
  const std::uint64_t before = cache_.evictions();
  cache_.shed_release(release);
  return cache_.evictions() - before;
}

CacheStats SdsCache::stats() const {
  CacheStats out;
  out.hits = hits_.value();
  out.misses = misses_.value();
  out.extensions = extensions_.value();
  out.evictions = cache_.evictions();
  out.sheds = sheds_.value();
  out.entries = cache_.size();
  out.resident_vertices = cache_.weight();
  out.store_hits = store_hits_.value();
  {
    std::lock_guard<std::mutex> lock(pins_mu_);
    out.pinned = pins_.size();
  }
  return out;
}

StoreStats SdsCache::store_stats() const {
  StoreStats out;
  if (!store_) return out;
  out.enabled = store_->enabled();
  out.readonly = store_->options().readonly;
  const store::StoreStats s = store_->stats();
  out.lookups = s.lookups;
  out.hits = s.hits;
  out.misses = s.misses;
  out.fallbacks = s.fallbacks;
  out.publishes = s.publishes;
  out.publish_skipped = s.publish_skipped;
  out.mapped_bytes = s.mapped_bytes;
  out.files = s.files;
  out.file_bytes = s.file_bytes;
  return out;
}

void SdsCache::clear() { cache_.clear(); }

}  // namespace wfc::svc
