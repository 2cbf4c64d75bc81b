// Canonical fingerprints of chromatic complexes.
//
// A fingerprint is a 64-bit FNV-1a hash over a canonical rendering of the
// complex (color count, then every vertex as (color, key, carrier mask),
// then every facet).  Two complexes built the same way -- same vertices in
// the same order, same facets -- hash equal; the rendering includes the
// interned keys, so complexes of different provenance practically never
// collide.  The rendering is streamed into the hash piece by piece, never
// materialized (no string or stream per vertex or facet), and its bytes --
// hence every fingerprint value -- are fixed: tests/map_io_test.cpp pins
// literal values.  Used as
//   * the task-binding fingerprint of saved decision maps (tasks/map_io);
//   * the cache key of the service layer's SDS-chain cache (service/):
//     SDS^k is a pure function of the input complex, so the input's
//     fingerprint indexes the memoized chain.
#pragma once

#include <cstdint>

#include "topology/complex.hpp"

namespace wfc::topo {

/// FNV-1a accumulator primitives, exposed so callers can extend a complex
/// fingerprint with their own fields (e.g. a task name or level).
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

[[nodiscard]] std::uint64_t fnv1a(std::uint64_t h, std::string_view bytes);

/// Canonical fingerprint of `c` (vertex colors/keys/carriers + facets).
[[nodiscard]] std::uint64_t complex_fingerprint(const ChromaticComplex& c);

}  // namespace wfc::topo
