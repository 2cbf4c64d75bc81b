#include "topology/hash.hpp"

#include <charconv>
#include <string_view>

namespace wfc::topo {

namespace {

/// Feeds the decimal rendering of `x` (what std::to_string and
/// operator<< print) without building a string.
template <typename Int>
std::uint64_t fnv1a_decimal(std::uint64_t h, Int x) {
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, x);
  return fnv1a(h, std::string_view(buf, static_cast<std::size_t>(end - buf)));
}

}  // namespace

std::uint64_t fnv1a(std::uint64_t h, std::string_view bytes) {
  for (unsigned char ch : bytes) {
    h ^= ch;
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t complex_fingerprint(const ChromaticComplex& c) {
  // Keep this rendering stable: saved decision maps (tasks/map_io) embed the
  // resulting value and are rejected when it changes.  FNV-1a is a byte
  // fold, so hashing the rendering piece by piece equals hashing it whole:
  //   "colors:<n>", then per vertex "v:<color>:<key>:<carrier mask>", then
  //   per facet "f:[<v0> <v1> ...]" (to_string(Simplex)).
  std::uint64_t h = kFnvOffset;
  h = fnv1a(h, "colors:");
  h = fnv1a_decimal(h, c.n_colors());
  for (VertexId v = 0; v < c.num_vertices(); ++v) {
    const VertexData& d = c.vertex(v);
    h = fnv1a(h, "v:");
    h = fnv1a_decimal(h, d.color);
    h = fnv1a(h, ":");
    h = fnv1a(h, d.key);
    h = fnv1a(h, ":");
    h = fnv1a_decimal(h, d.carrier.mask());
  }
  for (const Simplex& f : c.facets()) {
    h = fnv1a(h, "f:[");
    for (std::size_t i = 0; i < f.size(); ++i) {
      if (i != 0) h = fnv1a(h, " ");
      h = fnv1a_decimal(h, f[i]);
    }
    h = fnv1a(h, "]");
  }
  return h;
}

}  // namespace wfc::topo
