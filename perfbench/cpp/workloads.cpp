#include "workloads.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>

namespace perfbench {
namespace {

std::string solve(const std::string& params, int max_level,
                  const std::string& model = "") {
  std::string line = "{\"op\":\"solve\"," + params +
                     ",\"max_level\":" + std::to_string(max_level);
  if (!model.empty()) line += ",\"model\":\"" + model + "\"";
  return line + "}";
}

std::string consensus(int procs, int values) {
  return "\"task\":\"consensus\",\"procs\":" + std::to_string(procs) +
         ",\"values\":" + std::to_string(values);
}
std::string set_consensus(int procs, int k) {
  return "\"task\":\"set-consensus\",\"procs\":" + std::to_string(procs) +
         ",\"k\":" + std::to_string(k);
}
std::string renaming(int procs, int names) {
  return "\"task\":\"renaming\",\"procs\":" + std::to_string(procs) +
         ",\"names\":" + std::to_string(names);
}
std::string approx(int procs, int grid) {
  return "\"task\":\"approx\",\"procs\":" + std::to_string(procs) +
         ",\"grid\":" + std::to_string(grid);
}
std::string identity(int procs) {
  return "\"task\":\"identity\",\"procs\":" + std::to_string(procs);
}
std::string simplex_agreement(int procs, int depth) {
  return "\"task\":\"simplex-agreement\",\"procs\":" + std::to_string(procs) +
         ",\"depth\":" + std::to_string(depth);
}

/// examples/cluster_smoke.jsonl plus five lines of the same kind: cheap at
/// max_level 2 and definitive, so every repeat is a memo hit.
std::vector<std::string> memo_hot_templates() {
  std::vector<std::string> t;
  for (int m : {2, 3, 4, 5, 6}) t.push_back(solve(consensus(2, m), 2));
  for (int n : {3, 4, 5, 6, 7}) t.push_back(solve(renaming(2, n), 2));
  t.push_back(solve(set_consensus(2, 2), 2));
  t.push_back(solve(set_consensus(2, 1), 2));
  for (int g : {5, 6, 7, 8}) t.push_back(solve(approx(2, g), 2));
  return t;
}

/// 40 instances whose warm solves take 10 us .. 5 ms: AC-3 root
/// refutations (consensus, 0 nodes), branching refutations and solutions
/// (set-consensus(3,2) at level 1 runs 1,284 nodes), and a quarter of the
/// lines under a sub-IIS model.
std::vector<std::string> solve_warm_templates() {
  std::vector<std::string> t;
  for (int m : {2, 3, 4, 5, 6, 8, 10, 12}) t.push_back(solve(consensus(2, m), 2));
  t.push_back(solve(consensus(3, 2), 1));
  t.push_back(solve(consensus(3, 3), 1));
  t.push_back(solve(set_consensus(2, 1), 2));
  t.push_back(solve(approx(2, 12), 2));
  t.push_back(solve(approx(3, 3), 1));
  t.push_back(solve(set_consensus(3, 2), 1));
  t.push_back(solve(set_consensus(3, 3), 1));
  t.push_back(solve(approx(3, 3), 2));
  t.push_back(solve(approx(3, 4), 2));
  t.push_back(solve(approx(3, 2), 1));
  for (int g : {3, 4, 6, 8, 9}) t.push_back(solve(approx(2, g), 2));
  t.push_back(solve(renaming(2, 3), 2));
  t.push_back(solve(renaming(2, 5), 2));
  t.push_back(solve(renaming(3, 4), 1));
  t.push_back(solve(renaming(3, 6), 1));
  t.push_back(solve(identity(3), 1));
  t.push_back(solve(simplex_agreement(2, 2), 2));
  t.push_back(solve(consensus(2, 3), 2, "t_resilient(1)"));
  t.push_back(solve(consensus(2, 3), 2, "k_obstruction_free(1)"));
  t.push_back(solve(consensus(2, 4), 2, "k_concurrency(2)"));
  t.push_back(solve(set_consensus(3, 2), 1, "t_resilient(1)"));
  t.push_back(solve(set_consensus(3, 2), 1, "k_concurrency(1)"));
  t.push_back(solve(set_consensus(3, 2), 1, "k_obstruction_free(2)"));
  t.push_back(solve(approx(2, 5), 2, "k_concurrency(1)"));
  t.push_back(solve(approx(2, 5), 2, "k_obstruction_free(2)"));
  t.push_back(solve(renaming(3, 5), 1, "t_resilient(1)"));
  t.push_back(solve(renaming(3, 5), 1, "k_obstruction_free(1)"));
  return t;
}

}  // namespace

Workload workload_by_name(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "memo_hot") {
    w.kind = Kind::kMemoHot;
    w.templates = memo_hot_templates();
    w.open_rate = 30'000;
  } else if (name == "solve_warm") {
    w.kind = Kind::kSolveWarm;
    w.templates = solve_warm_templates();
    w.distinct_budget = true;
    w.window = 4;
    w.open_rate = 1'500;
    w.window_s = 0.2;
  } else if (name == "routed") {
    w.kind = Kind::kRouted;
    w.templates = memo_hot_templates();
    w.workers = 1;
    w.io_threads = 1;
    w.open_rate = 20'000;
    // Five event-loop threads (front io, a router reader per shard, a shard
    // io thread per shard) already outnumber the three cores a spinning
    // generator would leave them; spinning made routed's lat_p50_ms twice
    // as sensitive to the host's speed.
    w.busy_poll = false;
  } else {
    throw std::invalid_argument("unknown workload \"" + name + "\"");
  }
  return w;
}

std::vector<Workload> all_workloads() {
  std::vector<Workload> out;
  for (const char* n : {"memo_hot", "solve_warm", "routed"}) {
    out.push_back(workload_by_name(n));
  }
  return out;
}

Traffic::Traffic(const Workload& w, std::uint64_t seed,
                 const GoldenTable& golden)
    : w_(w), rng_(seed * 0x9e3779b97f4a7c15ull + 0x5eed) {
  // Budgets sit far above any node count of the instance set (the largest
  // is 1,284), so they never change a verdict; the seed shifts them so two
  // seeds never share memo keys.
  budget_base_ = 1'000'000 + (seed % 1000) * 100'000'000;
  for (const std::string& t : w_.templates) {
    const Expected* e = golden.find(t);
    if (e == nullptr) {
      throw std::runtime_error("no golden answer for request " + t);
    }
    expected_.push_back(*e);
  }
}

void Traffic::refill() {
  cycle_.resize(w_.templates.size());
  for (std::uint32_t i = 0; i < cycle_.size(); ++i) cycle_[i] = i;
  std::shuffle(cycle_.begin(), cycle_.end(), rng_);
  pos_ = 0;
}

Traffic::Next Traffic::next() {
  if (pos_ >= cycle_.size()) refill();
  return Next{seq_++, cycle_[pos_++]};
}

std::vector<std::uint32_t> Traffic::sweep_order() {
  refill();
  pos_ = cycle_.size();
  return cycle_;
}

void Traffic::append_line(const Next& n, std::string& out) const {
  const std::string& t = w_.templates[n.tmpl];
  char num[24];
  out += "{\"id\":\"q";
  auto r = std::to_chars(num, num + sizeof num, n.seq);
  out.append(num, r.ptr);
  out += "\",";
  if (!w_.distinct_budget) {
    out.append(t, 1, std::string::npos);
  } else {
    out.append(t, 1, t.size() - 2);
    out += ",\"budget\":";
    r = std::to_chars(num, num + sizeof num, budget_base_ + n.seq);
    out.append(num, r.ptr);
    out += '}';
  }
  out += '\n';
}

bool parse_seq(std::string_view id, std::uint64_t* seq) {
  if (id.size() < 2 || id[0] != 'q') return false;
  auto r = std::from_chars(id.data() + 1, id.data() + id.size(), *seq);
  return r.ec == std::errc() && r.ptr == id.data() + id.size();
}

}  // namespace perfbench
