// Persistence of solved decision maps, plus additional BG / resilience /
// geometry property sweeps.
#include <gtest/gtest.h>

#include <cmath>

#include "bg/simulation.hpp"
#include "core/wfc.hpp"
#include "tasks/map_io.hpp"
#include "topology/hash.hpp"

namespace wfc {
namespace {

// ---------------------------------------------------------------------------
// Decision map round-trips.
// ---------------------------------------------------------------------------

TEST(MapIo, RoundTripSimplexAgreement) {
  auto target = topo::standard_chromatic_subdivision(topo::base_simplex(3));
  task::SimplexAgreementTask t(3, target);
  task::SolveResult solved = task::solve(t, 1);
  ASSERT_EQ(solved.status, task::Solvability::kSolvable);
  const std::string text = task::solve_result_to_text(t, solved);

  task::SolveResult reloaded = task::solve_result_from_text(text, t);
  EXPECT_EQ(reloaded.level, solved.level);
  EXPECT_EQ(reloaded.decision, solved.decision);
  // The reloaded witness runs.
  task::DecisionProtocol proto(t, std::move(reloaded));
  EXPECT_EQ(proto.validate_exhaustively({0, 1, 2}), 13u);
}

TEST(MapIo, RoundTripApproxAgreement) {
  task::ApproxAgreementTask t(2, 9);
  task::SolveResult solved = task::solve(t, 2);
  ASSERT_EQ(solved.status, task::Solvability::kSolvable);
  task::SolveResult reloaded =
      task::solve_result_from_text(task::solve_result_to_text(t, solved), t);
  EXPECT_EQ(reloaded.decision, solved.decision);
}

TEST(MapIo, RejectsWrongTask) {
  auto target = topo::standard_chromatic_subdivision(topo::base_simplex(3));
  task::SimplexAgreementTask right(3, target);
  task::SolveResult solved = task::solve(right, 1);
  ASSERT_EQ(solved.status, task::Solvability::kSolvable);
  const std::string text = task::solve_result_to_text(right, solved);

  task::KSetConsensusTask wrong(3, 3);
  EXPECT_THROW((void)task::solve_result_from_text(text, wrong),
               std::invalid_argument);
}

TEST(MapIo, RejectsTamperedDecision) {
  auto target = topo::standard_chromatic_subdivision(topo::base_simplex(3));
  task::SimplexAgreementTask t(3, target);
  task::SolveResult solved = task::solve(t, 1);
  ASSERT_EQ(solved.status, task::Solvability::kSolvable);
  std::string text = task::solve_result_to_text(t, solved);
  // Truncate the decision vector: size mismatch must be caught.
  text.erase(text.rfind(' '));
  EXPECT_THROW((void)task::solve_result_from_text(text, t),
               std::invalid_argument);
}

TEST(MapIo, RejectsGarbage) {
  task::KSetConsensusTask t(2, 2);
  EXPECT_THROW((void)task::solve_result_from_text("nope", t),
               std::invalid_argument);
}

TEST(MapIo, FingerprintSensitivity) {
  auto a = topo::base_simplex(3);
  auto b = topo::base_simplex(4);
  EXPECT_NE(task::complex_fingerprint(a), task::complex_fingerprint(b));
  EXPECT_EQ(task::complex_fingerprint(a),
            task::complex_fingerprint(topo::base_simplex(3)));
}

// Saved decision maps embed these values and ChainStore names its files by
// them, so a rendering change must show up here, not as silently rejected
// maps and cold stores.
TEST(MapIo, FingerprintValuesArePinned) {
  const auto base = topo::base_simplex(3);
  const task::ConsensusTask consensus(2, 3);
  EXPECT_EQ(topo::complex_fingerprint(base), 0xa4505df9d608eba2ull);
  EXPECT_EQ(topo::complex_fingerprint(consensus.input()),
            0x5c41d6222093ec41ull);
  EXPECT_EQ(topo::complex_fingerprint(consensus.output()),
            0xbe21a13da07b9ac7ull);
  EXPECT_EQ(topo::complex_fingerprint(topo::iterated_sds(base, 1)),
            0xa95b9212bfcde89eull);
  EXPECT_EQ(topo::complex_fingerprint(topo::iterated_sds(base, 2)),
            0x018e834c5e351bb9ull);
}

// ---------------------------------------------------------------------------
// Geometry: mesh diameters.
// ---------------------------------------------------------------------------

TEST(Mesh, BaseSimplexDiameter) {
  // Unit barycentric corners are sqrt(2) apart.
  EXPECT_NEAR(topo::mesh_diameter(topo::base_simplex(3)), std::sqrt(2.0),
              1e-12);
}

TEST(Mesh, SubdivisionShrinks) {
  topo::ChromaticComplex base = topo::base_simplex(3);
  double prev = topo::mesh_diameter(base);
  for (int b = 1; b <= 3; ++b) {
    const double cur = topo::mesh_diameter(topo::iterated_sds(base, b));
    EXPECT_LT(cur, prev);
    prev = cur;
  }
}

TEST(Mesh, EdgeSdsHalvesExactly) {
  topo::ChromaticComplex base = topo::base_simplex(2);
  const double m0 = topo::mesh_diameter(base);
  const double m1 =
      topo::mesh_diameter(topo::standard_chromatic_subdivision(base));
  EXPECT_NEAR(m1 / m0, 0.5, 1e-12);
}

// ---------------------------------------------------------------------------
// BG property sweep.
// ---------------------------------------------------------------------------

class BgGrid : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(BgGrid, CrashFreeLegalAndComplete) {
  const auto [sims, simulated, rounds] = GetParam();
  bg::BgConfig config;
  config.n_simulators = sims;
  config.n_simulated = simulated;
  config.rounds = rounds;
  bg::BgOutcome out = run_bg_simulation(config);
  EXPECT_EQ(out.blocked, 0);
  EXPECT_TRUE(out.legal());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BgGrid,
    ::testing::Values(std::tuple{1, 2, 2}, std::tuple{2, 2, 2},
                      std::tuple{2, 4, 2}, std::tuple{3, 3, 3},
                      std::tuple{4, 2, 2}, std::tuple{2, 5, 1}),
    [](const auto& info) {
      return "s" + std::to_string(std::get<0>(info.param)) + "_m" +
             std::to_string(std::get<1>(info.param)) + "_k" +
             std::to_string(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------------
// Resilience frontier sweep: k-set consensus tolerates exactly k-1 failures.
// ---------------------------------------------------------------------------

class SetConsensusFrontier
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SetConsensusFrontier, SolvableIffKExceedsT) {
  // Projections up to 3 processors: every cell decidable by search within
  // milliseconds.  Deeper UNSAT cells (t+1 >= 4, k = t) are the
  // Sperner-hard instances; E8 carries those for all levels.
  const auto [k, t] = GetParam();
  const int procs = 3;
  task::ResilienceVerdict v = task::decide_t_resilient(
      task::colorless_set_consensus(k, procs), procs, t, 1);
  if (k >= t + 1) {
    EXPECT_EQ(v.status, task::Solvability::kSolvable);
  } else {
    EXPECT_EQ(v.status, task::Solvability::kUnsolvable);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SetConsensusFrontier,
    ::testing::Values(std::tuple{1, 0}, std::tuple{1, 1}, std::tuple{1, 2},
                      std::tuple{2, 1}, std::tuple{2, 2}, std::tuple{3, 2}),
    [](const auto& info) {
      return "k" + std::to_string(std::get<0>(info.param)) + "_t" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace wfc
