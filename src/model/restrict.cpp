#include "model/restrict.hpp"

#include <algorithm>
#include <map>
#include <span>

#include "common/assert.hpp"

namespace wfc::model {

namespace {

using topo::Arena;
using topo::ChromaticComplex;
using topo::Simplex;
using topo::VertexId;

/// "<color>@<v1>,<v2>,..." -> (color, sorted view ids one level down).
std::pair<Color, Simplex> parse_sds_key(std::string_view key) {
  const std::size_t at = key.find('@');
  WFC_CHECK(at != std::string_view::npos && at > 0,
            "model: vertex key is not an SDS view key");
  Color color = 0;
  for (char c : key.substr(0, at)) {
    WFC_CHECK(c >= '0' && c <= '9', "model: bad color in SDS key");
    color = color * 10 + (c - '0');
  }
  Simplex view;
  VertexId v = 0;
  bool have = false;
  for (char c : key.substr(at + 1)) {
    if (c == ',') {
      WFC_CHECK(have, "model: empty id in SDS key view");
      view.push_back(v);
      v = 0;
      have = false;
    } else {
      WFC_CHECK(c >= '0' && c <= '9', "model: bad id in SDS key view");
      v = v * 10 + static_cast<VertexId>(c - '0');
      have = true;
    }
  }
  WFC_CHECK(have, "model: empty SDS key view");
  view.push_back(v);
  return {color, std::move(view)};
}

/// One descent step: groups a simplex's (color, view) pairs into the
/// round's blocks (view-size order is the snapshot containment chain) and
/// returns the parent simplex one level down (the largest view).
struct Step {
  std::vector<ColorSet> blocks;
  Simplex parent;
};

Step step_down(const std::vector<std::pair<Color, Simplex>>& verts) {
  std::map<Simplex, ColorSet> groups;
  for (const auto& [color, view] : verts) {
    auto [it, fresh] = groups.try_emplace(view);
    it->second = it->second.with(color);
  }
  Step out;
  std::vector<const Simplex*> views;
  for (const auto& [view, colors] : groups) views.push_back(&view);
  std::sort(views.begin(), views.end(),
            [](const Simplex* a, const Simplex* b) {
              return a->size() < b->size();
            });
  for (std::size_t i = 0; i < views.size(); ++i) {
    if (i > 0) {
      WFC_CHECK(views[i - 1]->size() < views[i]->size() &&
                    std::includes(views[i]->begin(), views[i]->end(),
                                  views[i - 1]->begin(), views[i - 1]->end()),
                "model: views are not a containment chain");
    }
    out.blocks.push_back(groups.find(*views[i])->second);
  }
  out.parent = *views.back();
  return out;
}

ColorSet span_colors(const Arena& arena, std::span<const VertexId> s) {
  ColorSet out;
  for (VertexId v : s) {
    out = out.with(static_cast<Color>(arena.colors()[v]));
  }
  return out;
}

ColorSet span_carrier(const Arena& arena, std::span<const VertexId> s) {
  ColorSet out;
  for (VertexId v : s) {
    out = out.unite(ColorSet(arena.carrier_masks()[v]));
  }
  return out;
}

}  // namespace

std::vector<std::vector<ColorSet>> recover_schedule(
    const proto::SdsChain& chain, int level,
    std::span<const VertexId> facet, Simplex* base_facet) {
  WFC_REQUIRE(level >= 0 && level <= chain.depth(),
              "recover_schedule: level out of range");
  std::vector<std::vector<ColorSet>> rounds(
      static_cast<std::size_t>(level));
  Simplex cur(facet.begin(), facet.end());
  for (int l = level; l >= 1; --l) {
    const Arena arena = chain.arena(l);
    std::vector<std::pair<Color, Simplex>> verts;
    verts.reserve(cur.size());
    for (VertexId v : cur) {
      verts.push_back(parse_sds_key(arena.key(v)));
    }
    Step step = step_down(verts);
    rounds[static_cast<std::size_t>(l - 1)] = std::move(step.blocks);
    cur = std::move(step.parent);
  }
  if (base_facet != nullptr) *base_facet = std::move(cur);
  return rounds;
}

void for_each_run(const proto::SdsChain& chain, int level,
                  const Arena& facets_arena,
                  const std::function<void(const RunDesc&,
                                           const Simplex&)>& fn,
                  const topo::StopPredicate& stop) {
  WFC_REQUIRE(level >= 0 && level <= chain.depth(),
              "for_each_run: level out of range");
  const int n_sys = facets_arena.n_colors();
  const int b = level;

  for (std::uint32_t f = 0; f < facets_arena.num_facets(); ++f) {
    if (stop && stop()) throw topo::BuildStopped();
    const std::span<const VertexId> fv = facets_arena.facet(f);
    const ColorSet colors = span_colors(facets_arena, fv);
    // The crash embedding is enumerated on top of a FULL-INFORMATION
    // simplex: its colors must equal its carrier colors (every processor
    // anyone saw survived to the facet).  restrict_level only emits such
    // facets for the canonical models; see affine_task_windows.
    WFC_REQUIRE(span_carrier(facets_arena, fv) == colors,
                "for_each_run: facet is not full-information");
    const int q = colors.size();
    WFC_CHECK(q == static_cast<int>(fv.size()),
              "for_each_run: non-rainbow facet");

    if (b == 0) {
      // 0-round runs: participation only.
      for (std::uint32_t sub = colors.mask(); sub != 0;
           sub = (sub - 1) & colors.mask()) {
        const ColorSet part(sub);
        RunDesc run;
        run.n_sys = n_sys;
        run.participants = part;
        Simplex survivors;
        for (VertexId v : fv) {
          if (part.contains(static_cast<Color>(facets_arena.colors()[v]))) {
            survivors.push_back(v);
          }
        }
        fn(run, topo::make_simplex(std::move(survivors)));
      }
      continue;
    }

    // Recover the schedule: round 0 blocks come from descending the whole
    // tower; the top step parses keys from `facets_arena` (which may be a
    // pruned subcomplex with its own vertex ids), lower steps from the
    // chain's own levels.
    std::vector<std::vector<ColorSet>> schedule(static_cast<std::size_t>(b));
    {
      std::vector<std::pair<Color, Simplex>> verts;
      verts.reserve(fv.size());
      for (VertexId v : fv) {
        verts.push_back(parse_sds_key(facets_arena.key(v)));
      }
      Step step = step_down(verts);
      schedule[static_cast<std::size_t>(b - 1)] = std::move(step.blocks);
      Simplex cur = std::move(step.parent);
      for (int l = b - 1; l >= 1; --l) {
        const Arena arena = chain.arena(l);
        std::vector<std::pair<Color, Simplex>> vs;
        vs.reserve(cur.size());
        for (VertexId v : cur) vs.push_back(parse_sds_key(arena.key(v)));
        Step s = step_down(vs);
        schedule[static_cast<std::size_t>(l - 1)] = std::move(s.blocks);
        cur = std::move(s.parent);
      }
    }

    // Enumerate crash-round assignments cr[i] in 0..b per color (0 = never
    // participated, b = survived): valid iff at every round the
    // crashed-so-far colors occupy the trailing singleton blocks.
    std::vector<Color> order(colors.begin(), colors.end());
    double cost = 1;
    for (int i = 0; i < q; ++i) cost *= b + 1;
    WFC_REQUIRE(cost <= 4e6, "for_each_run: crash enumeration too large");

    std::set<std::string> seen;
    std::vector<int> cr(static_cast<std::size_t>(q), 0);
    auto emit = [&]() {
      ColorSet dead;
      ColorSet nonpart;
      for (int i = 0; i < q; ++i) {
        if (cr[static_cast<std::size_t>(i)] < b) {
          dead = dead.with(order[static_cast<std::size_t>(i)]);
        }
        if (cr[static_cast<std::size_t>(i)] == 0) {
          nonpart = nonpart.with(order[static_cast<std::size_t>(i)]);
        }
      }
      const ColorSet survivors = colors.minus(dead);
      if (survivors.empty()) return;
      // Validity + live-run assembly in one pass.
      RunDesc run;
      run.n_sys = n_sys;
      run.participants = colors.minus(nonpart);
      for (int r = 0; r < b; ++r) {
        ColorSet gone;  // crashed by round r
        ColorSet now;   // crashed exactly at round r
        for (int i = 0; i < q; ++i) {
          const int c = cr[static_cast<std::size_t>(i)];
          if (c <= r) gone = gone.with(order[static_cast<std::size_t>(i)]);
          if (c == r) now = now.with(order[static_cast<std::size_t>(i)]);
        }
        const auto& blocks = schedule[static_cast<std::size_t>(r)];
        const int nb = static_cast<int>(blocks.size());
        const int m = gone.size();
        if (m > nb) return;
        for (int j = nb - m; j < nb; ++j) {
          const ColorSet blk = blocks[static_cast<std::size_t>(j)];
          if (blk.size() != 1 || !gone.contains(blk.min())) return;
        }
        RunRound rr;
        rr.blocks.assign(blocks.begin(), blocks.end() - m);
        if (r >= 1) rr.crashed = now;
        run.rounds.push_back(std::move(rr));
      }
      if (!seen.insert(run.signature()).second) return;
      Simplex sx;
      for (VertexId v : fv) {
        if (survivors.contains(static_cast<Color>(facets_arena.colors()[v]))) {
          sx.push_back(v);
        }
      }
      fn(run, topo::make_simplex(std::move(sx)));
    };
    // Odometer over crash assignments.
    for (;;) {
      emit();
      int i = 0;
      while (i < q && cr[static_cast<std::size_t>(i)] == b) {
        cr[static_cast<std::size_t>(i)] = 0;
        ++i;
      }
      if (i == q) break;
      ++cr[static_cast<std::size_t>(i)];
    }
  }
}

Restriction restrict_level(const proto::SdsChain& chain, int level,
                           const Model& model,
                           const topo::StopPredicate& stop) {
  const Arena arena = chain.arena(level);
  Restriction out;

  std::map<std::string, bool> verdicts;  // run signature -> admitted
  std::set<Simplex> kept;
  for_each_run(chain, level, arena, [&](const RunDesc& run, const Simplex& sx) {
    auto [it, fresh] = verdicts.try_emplace(run.signature(), false);
    if (fresh) it->second = model.admits(run);
    if (it->second) kept.insert(sx);
  }, stop);
  for (const auto& [sig, admitted] : verdicts) {
    if (admitted) {
      ++out.runs_admitted;
    } else {
      ++out.runs_rejected;
    }
  }

  // Maximal kept simplices, in the set's lexicographic order.
  std::vector<const Simplex*> maximal;
  for (const Simplex& s : kept) {
    if (stop && stop()) throw topo::BuildStopped();
    bool covered = false;
    for (const Simplex& t : kept) {
      if (t.size() > s.size() &&
          std::includes(t.begin(), t.end(), s.begin(), s.end())) {
        covered = true;
        break;
      }
    }
    if (!covered) maximal.push_back(&s);
  }
  out.facets_kept = maximal.size();
  for (std::uint32_t f = 0; f < arena.num_facets(); ++f) {
    const auto fs = arena.facet(f);
    if (kept.find(Simplex(fs.begin(), fs.end())) == kept.end()) {
      ++out.facets_dropped;
    }
  }

  // Rebuild the pruned level: kept vertices in ascending original order.
  std::set<VertexId> vertex_set;
  for (const Simplex* s : maximal) {
    for (VertexId v : *s) vertex_set.insert(v);
  }
  auto pruned = std::make_shared<ChromaticComplex>(arena.n_colors());
  std::vector<VertexId> remap(arena.num_vertices(), topo::kNoVertex);
  for (VertexId v : vertex_set) {
    const auto bc = arena.base_carrier(v);
    const auto coords = arena.coords(v);
    remap[v] = pruned->add_vertex(
        static_cast<Color>(arena.colors()[v]), std::string(arena.key(v)),
        ColorSet(arena.carrier_masks()[v]),
        std::vector<double>(coords.begin(), coords.end()),
        Simplex(bc.begin(), bc.end()));
    out.to_base.push_back(v);
  }
  for (const Simplex* s : maximal) {
    Simplex facet;
    facet.reserve(s->size());
    for (VertexId v : *s) facet.push_back(remap[v]);
    pruned->add_facet(topo::make_simplex(std::move(facet)));
  }
  out.complex = pruned;
  out.arena = Arena::build(*pruned);
  return out;
}

std::set<std::string> affine_task_windows(const proto::SdsChain& chain, int m,
                                          const Arena& affine_arena) {
  std::set<std::string> out;
  for_each_run(chain, m, affine_arena,
               [&](const RunDesc& run, const Simplex&) {
                 out.insert(run.signature());
               });
  return out;
}

std::shared_ptr<const proto::SdsChain> restricted_tower(
    const proto::SdsChain& full, int depth, const Model& model,
    const std::shared_ptr<const proto::SdsChain>& prior,
    std::uint64_t* runs_admitted, std::uint64_t* runs_rejected,
    const topo::StopPredicate& stop) {
  WFC_REQUIRE(depth >= 0 && depth <= full.depth(),
              "restricted_tower: depth out of range");
  std::vector<Arena> arenas;
  arenas.reserve(static_cast<std::size_t>(depth) + 1);
  int start = 0;
  if (prior != nullptr) {
    const int reuse = std::min(prior->depth(), depth);
    for (int r = 0; r <= reuse; ++r) arenas.push_back(prior->arena(r));
    start = reuse + 1;
  }
  for (int r = start; r <= depth; ++r) {
    Restriction res = restrict_level(full, r, model, stop);
    if (runs_admitted != nullptr) *runs_admitted += res.runs_admitted;
    if (runs_rejected != nullptr) *runs_rejected += res.runs_rejected;
    arenas.push_back(std::move(res.arena));
  }
  return std::make_shared<proto::SdsChain>(
      std::make_shared<ArenaVectorBacking>(std::move(arenas)));
}

}  // namespace wfc::model
