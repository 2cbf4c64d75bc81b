#include "protocol/sds_chain.hpp"

namespace wfc::proto {

SdsChain::SdsChain(topo::ChromaticComplex input, int depth,
                   const topo::StopPredicate& stop)
    : depth_(depth) {
  WFC_REQUIRE(depth >= 0, "SdsChain: negative depth");
  levels_.resize(static_cast<std::size_t>(depth) + 1);
  arenas_.resize(static_cast<std::size_t>(depth) + 1);
  levels_[0] =
      std::make_shared<const topo::ChromaticComplex>(std::move(input));
  for (int r = 1; r <= depth; ++r) {
    levels_[static_cast<std::size_t>(r)] =
        std::make_shared<const topo::ChromaticComplex>(
            topo::standard_chromatic_subdivision(
                *levels_[static_cast<std::size_t>(r) - 1], stop));
  }
}

SdsChain::SdsChain(const SdsChain& other, int depth,
                   const topo::StopPredicate& stop)
    : depth_(depth) {
  WFC_REQUIRE(depth >= 0, "SdsChain: negative depth");
  const int shared = std::min(depth, other.depth_);
  levels_.resize(static_cast<std::size_t>(depth) + 1);
  arenas_.resize(static_cast<std::size_t>(depth) + 1);
  backing_ = other.backing_;
  {
    std::lock_guard<std::mutex> lock(other.mu_);
    for (int r = 0; r <= shared; ++r) {
      levels_[static_cast<std::size_t>(r)] =
          other.levels_[static_cast<std::size_t>(r)];
      arenas_[static_cast<std::size_t>(r)] =
          other.arenas_[static_cast<std::size_t>(r)];
    }
  }
  // Extension beyond the shared prefix subdivides from our own (possibly
  // backed) top; the constructor has exclusive access, no lock needed.
  for (int r = shared + 1; r <= depth; ++r) {
    const topo::ChromaticComplex& below = ensure_level(r - 1);
    levels_[static_cast<std::size_t>(r)] =
        std::make_shared<const topo::ChromaticComplex>(
            topo::standard_chromatic_subdivision(below, stop));
  }
}

SdsChain::SdsChain(std::shared_ptr<const ChainBacking> backing)
    : depth_(backing ? backing->depth() : 0), backing_(std::move(backing)) {
  WFC_REQUIRE(backing_ != nullptr, "SdsChain: null backing");
  WFC_REQUIRE(depth_ >= 0, "SdsChain: backing with negative depth");
  levels_.resize(static_cast<std::size_t>(depth_) + 1);
  arenas_.resize(static_cast<std::size_t>(depth_) + 1);
}

const topo::ChromaticComplex& SdsChain::ensure_level(int r) const {
  auto& slot = levels_[static_cast<std::size_t>(r)];
  if (!slot) {
    if (backing_ && r <= backing_->depth()) {
      slot = std::make_shared<const topo::ChromaticComplex>(
          backing_->arena(r).materialize());
    } else {
      WFC_CHECK(r > 0, "SdsChain: level 0 has no source");
      slot = std::make_shared<const topo::ChromaticComplex>(
          topo::standard_chromatic_subdivision(ensure_level(r - 1)));
    }
  }
  return *slot;
}

const topo::Arena& SdsChain::ensure_arena(int r) const {
  auto& slot = arenas_[static_cast<std::size_t>(r)];
  if (!slot) {
    if (backing_ && r <= backing_->depth()) {
      slot = std::make_shared<topo::Arena>(backing_->arena(r));
    } else {
      slot = std::make_shared<topo::Arena>(topo::Arena::build(ensure_level(r)));
    }
  }
  return *slot;
}

const topo::ChromaticComplex& SdsChain::level(int r) const {
  WFC_REQUIRE(r >= 0 && r <= depth_, "SdsChain::level: out of range");
  std::lock_guard<std::mutex> lock(mu_);
  return ensure_level(r);
}

topo::Arena SdsChain::arena(int r) const {
  WFC_REQUIRE(r >= 0 && r <= depth_, "SdsChain::arena: out of range");
  std::lock_guard<std::mutex> lock(mu_);
  return ensure_arena(r);
}

std::size_t SdsChain::level_vertex_count(int r) const {
  WFC_REQUIRE(r >= 0 && r <= depth_,
              "SdsChain::level_vertex_count: out of range");
  std::lock_guard<std::mutex> lock(mu_);
  const auto& slot = levels_[static_cast<std::size_t>(r)];
  if (slot) return slot->num_vertices();
  if (backing_ && r <= backing_->depth()) {
    return backing_->arena(r).num_vertices();
  }
  return ensure_level(r).num_vertices();
}

topo::VertexId SdsChain::locate(int r, Color c,
                                const topo::Simplex& seen) const {
  WFC_REQUIRE(r >= 1 && r <= depth_, "SdsChain::locate: level out of range");
  const topo::VertexId v = level(r).find_vertex(topo::sds_vertex_key(c, seen));
  WFC_CHECK(v != topo::kNoVertex,
            "SdsChain::locate: live view is not a vertex of SDS^r -- "
            "Lemma 3.2 violation");
  return v;
}

}  // namespace wfc::proto
