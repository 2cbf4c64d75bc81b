// wfc_perfbench -- the serving benchmark.
//
//   wfc_perfbench --workload W --seed N --seconds S --trace 0|1
//                 --golden perfbench/golden.tsv --work-dir DIR
//   wfc_perfbench --record-golden perfbench/golden.tsv
//
// Prints, as its last line, one JSON object with the keys correct,
// attempted, failed, and metrics (see perfbench/README.md).  Diagnostics go
// to stderr.  perfbench/run.py builds this program and runs it.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "service/handler.hpp"

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: wfc_perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --golden PATH --work-dir DIR\n"
               "       wfc_perfbench --record-golden PATH\n"
               "workloads: memo_hot solve_warm routed\n");
  return 2;
}

/// Answers every template of every workload on a fresh in-process service
/// and writes the table the runs check against.
int record_golden(const std::string& path) {
  GoldenTable table;
  for (const Workload& w : all_workloads()) {
    wfc::svc::QueryService service(wfc::svc::QueryService::Options{});
    wfc::svc::RequestHandler handler(service, wfc::svc::HandlerConfig{});
    for (const std::string& key : w.templates) {
      if (table.find(key) != nullptr) continue;
      wfc::svc::RequestHandler::Rendered err;
      auto sub = handler.submit(handler.parse(key, 1), &err);
      if (!sub) {
        std::fprintf(stderr, "golden: %s -> %s\n", key.c_str(), err.line.c_str());
        return 1;
      }
      const std::string line =
          handler.render(sub->meta, sub->ticket.result.get()).line;
      const Answer a = parse_answer(line);
      table.put(key, Expected{std::string(a.status), std::string(a.verdict),
                              a.level});
    }
  }
  std::ofstream out(path);
  table.save(out);
  return out ? 0 : 1;
}

void print_result(const RunResult& res) {
  std::string json = "{\"correct\":";
  json += res.correct() ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(res.tally.attempted);
  json += ",\"failed\":" + std::to_string(res.tally.failed);
  json += ",\"metrics\":{";
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const Metric& m = res.metrics[i];
    char num[64];
    std::snprintf(num, sizeof num, "%.12g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) json += ',';
    json += "\"" + m.name + "\":{\"value\":" + num + ",\"unit\":\"" + m.unit +
            "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  RunContext ctx;
  std::string workload, golden, record;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string val = argv[++i];
    if (arg == "--workload") {
      workload = val;
    } else if (arg == "--seed") {
      ctx.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      ctx.seconds = std::atof(val.c_str());
    } else if (arg == "--trace") {
      trace = std::atoi(val.c_str());
    } else if (arg == "--golden") {
      golden = val;
    } else if (arg == "--work-dir") {
      ctx.work_dir = val;
    } else if (arg == "--record-golden") {
      record = val;
    } else {
      return usage();
    }
  }
  if (!record.empty()) return record_golden(record);
  if (workload.empty() || golden.empty() || ctx.work_dir.empty() ||
      (trace != 0 && trace != 1) || !(ctx.seconds > 0)) {
    return usage();
  }
  try {
    ctx.workload = workload_by_name(workload);
    ctx.golden = GoldenTable::load(golden);
    std::filesystem::create_directories(ctx.work_dir);
    const RunResult res = trace == 1 ? run_traced(ctx) : run_e2e(ctx);
    for (const std::string& p : res.problems) {
      std::fprintf(stderr, "wfc_perfbench: shape check failed: %s\n", p.c_str());
    }
    if (res.tally.failed > 0) {
      std::fprintf(stderr, "wfc_perfbench: %llu failed; first: %s\n",
                   static_cast<unsigned long long>(res.tally.failed),
                   res.tally.first_error.c_str());
    }
    print_result(res);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wfc_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
