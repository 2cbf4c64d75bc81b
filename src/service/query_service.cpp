#include "service/query_service.hpp"

#include <algorithm>
#include <new>
#include <sstream>
#include <stdexcept>

#include "check/conformance.hpp"
#include "check/lin_check.hpp"
#include "check/sds_check.hpp"
#include "check/step_driver.hpp"
#include "common/assert.hpp"
#include "convergence/convergence.hpp"
#include "emulation/emulator.hpp"
#include "model/oracle.hpp"
#include "model/restrict.hpp"
#include "registers/atomic_snapshot.hpp"
#include "runtime/adversary.hpp"
#include "topology/hash.hpp"

namespace wfc::svc {

namespace {

int resolve_workers(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// Thrown out of a checker callback to honour the query's cancel token.
struct CheckCancelled {};

void bump(std::atomic<std::uint64_t>* progress) {
  if (progress != nullptr) progress->fetch_add(1, std::memory_order_relaxed);
}

struct LinOutcome {
  bool ok = true;
  std::uint64_t schedules = 0;
  std::uint64_t histories = 0;
  std::uint64_t max_depth = 0;
  std::string violation;
};

/// kLinearizability target: drive the register-level AtomicSnapshot through
/// EVERY step interleaving of a fixed scenario (processor 0 performs
/// `rounds` updates; every other processor takes one scan) and verify each
/// recorded history against the sequential snapshot specification.
LinOutcome run_linearizability_target(const CheckRequest& cq,
                                      std::uint64_t max_schedules,
                                      const std::atomic<bool>* cancel,
                                      std::atomic<std::uint64_t>* progress) {
  WFC_REQUIRE(cq.procs >= 2 && cq.procs <= 3,
              "check(linearizability): procs must be 2 or 3");
  WFC_REQUIRE(cq.rounds >= 1 && cq.rounds <= 4,
              "check(linearizability): rounds must be in [1, 4]");
  using Rec = chk::RecordingSnapshot<reg::AtomicSnapshot<int>>;

  LinOutcome out;
  std::shared_ptr<Rec> rec;
  const chk::InterleaveStats stats = chk::for_each_step_interleaving(
      cq.procs,
      [&](chk::StepDriver& driver) {
        rec = std::make_shared<Rec>(cq.procs);
        driver.spawn(0, [rec = rec, rounds = cq.rounds] {
          for (int r = 1; r <= rounds; ++r) rec->update(0, r);
        });
        for (int p = 1; p < cq.procs; ++p) {
          driver.spawn(p, [rec = rec, p] { (void)rec->scan(p); });
        }
      },
      [&](const std::vector<int>&) {
        if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
          throw CheckCancelled{};
        }
        bump(progress);
        const chk::LinearizeReport lr =
            chk::check_linearizable_snapshot(rec->history());
        ++out.histories;
        out.max_depth = std::max(
            out.max_depth, static_cast<std::uint64_t>(lr.max_depth));
        if (!lr.linearizable && out.ok) {
          out.ok = false;
          out.violation = "atomic snapshot: " + lr.violation;
        }
      },
      max_schedules);
  out.schedules = stats.schedules;
  return out;
}

}  // namespace

std::string ServiceStats::to_string() const {
  std::ostringstream os;
  os << "submitted=" << submitted << " queries=" << queries << " (" << solvable
     << " solvable, " << unsolvable << " unsolvable, " << unknown
     << " unknown)";
  os << " status[";
  for (int s = 0; s < kNumStatuses; ++s) {
    if (s != 0) os << " ";
    os << to_json_token(static_cast<Status>(s)) << "=" << by_status[s];
  }
  os << "]";
  os << " result_hits=" << result_hits << " nodes=" << nodes_explored
     << " latency_us total=" << total_micros << " max=" << max_micros
     << " queue_us total=" << queue_total_micros
     << " max=" << queue_max_micros << " peak_depth=" << queue_peak_depth
     << " degraded=" << degraded
     << " watchdog kills=" << watchdog_kills
     << " stuck=" << stuck_worker_reports
     << " | cache hits=" << cache.hits
     << " misses=" << cache.misses << " extensions=" << cache.extensions
     << " evictions=" << cache.evictions << " sheds=" << cache.sheds
     << " entries=" << cache.entries
     << " resident_vertices=" << cache.resident_vertices
     << " store_hits=" << cache.store_hits << " pinned=" << cache.pinned;
  if (store.enabled) {
    os << " | store" << (store.readonly ? " (ro)" : "")
       << " hits=" << store.hits << " misses=" << store.misses
       << " fallbacks=" << store.fallbacks << " publishes=" << store.publishes
       << " skipped=" << store.publish_skipped << " files=" << store.files
       << " file_bytes=" << store.file_bytes
       << " mapped_bytes=" << store.mapped_bytes;
  }
  os << " | check runs=" << check.runs << " schedules=" << check.schedules
     << " histories=" << check.histories
     << " violations=" << check.violations
     << " max_depth=" << check.max_search_depth;
  return os.str();
}

QueryService::QueryService() : QueryService(Options()) {}

QueryService::QueryService(Options options)
    : options_(std::move(options)),
      observer_(options_.obs),
      cache_(options_.cache),
      watchdog_(Watchdog::Options{options_.watchdog_scan_period,
                                  options_.hard_timeout,
                                  options_.watchdog_stall_scans}),
      queue_(AdmissionQueue::Options{options_.max_queue_depth,
                                     options_.admission_policy}),
      memo_capacity_(options_.result_memo_entries),
      memo_(ResultMemo::Options{.max_entries = memo_capacity_,
                                .min_slots = 64,
                                .segments = 4,
                                .keep_hottest = true}),
      pool_(resolve_workers(options_.workers)) {
  if (observer_.enabled()) init_observability();
  max_inflight_ = options_.max_inflight > 0
                      ? std::min(options_.max_inflight, pool_.size())
                      : pool_.size();
  for (int i = 0; i < pool_.size(); ++i) {
    pool_.submit([this] { worker_loop(); });
  }
}

void QueryService::init_observability() {
  obs::MetricsRegistry& reg = observer_.metrics();
  metrics_.submitted = &reg.counter("wfc_queries_submitted_total", "",
                                    "Tickets handed out by submit()");
  static const char* kKindLabels[4] = {
      R"(kind="solve")", R"(kind="convergence")", R"(kind="emulate")",
      R"(kind="check")"};
  for (int k = 0; k < 4; ++k) {
    metrics_.by_kind[k] = &reg.counter("wfc_queries_by_kind_total",
                                       kKindLabels[k],
                                       "Submitted queries by family");
  }
  for (int s = 0; s < kNumStatuses; ++s) {
    metrics_.by_status[s] = &reg.counter(
        "wfc_queries_terminal_total",
        std::string(R"(status=")") + to_json_token(static_cast<Status>(s)) +
            R"(")",
        "Terminal statuses; sums to wfc_queries_submitted_total");
  }
  metrics_.memo_hits = &reg.counter("wfc_result_memo_hits_total", "",
                                    "Queries answered from the result memo");
  metrics_.degraded = &reg.counter(
      "wfc_queries_degraded_total", "",
      "Queries run with a load-degraded node budget");
  metrics_.emu_rounds = &reg.counter("wfc_emulation_rounds_total", "",
                                     "IIS rounds executed by §4 emulations");
  metrics_.model_queries = &reg.counter(
      "wfc_model_queries_total", "",
      "Queries executed under a non-wait-free model");
  metrics_.model_runs_admitted = &reg.counter(
      "wfc_model_runs_admitted_total", "",
      "IIS runs admitted by model restrictions");
  metrics_.model_runs_rejected = &reg.counter(
      "wfc_model_runs_rejected_total", "",
      "IIS runs rejected by model restrictions");
  metrics_.queue_wait_us = &reg.histogram(
      "wfc_queue_wait_us", obs::latency_bounds_us(), "",
      "Admission-queue wait per executed query, microseconds");
  metrics_.exec_us = &reg.histogram(
      "wfc_exec_us", obs::latency_bounds_us(), "",
      "Execution latency (dequeue to verdict), microseconds");
  metrics_.e2e_us = &reg.histogram(
      "wfc_e2e_us", obs::latency_bounds_us(), "",
      "End-to-end latency (submission to terminal status), microseconds");
  metrics_.chain_for_us = &reg.histogram(
      "wfc_chain_for_us", obs::latency_bounds_us(), "",
      "SDS-chain acquisition (cache lookup + any build), microseconds");
  metrics_.search_nodes = &reg.histogram(
      "wfc_search_nodes", obs::size_bounds(), "",
      "Backtracking nodes explored per fresh solve/convergence query");
  // Mirror gauges: refreshed immediately before each export so a scrape
  // sees the same numbers a ServiceStats snapshot would.
  observer_.set_gauge_refresh([this, &reg] {
    reg.gauge("wfc_queue_depth", "", "Queries waiting for a worker")
        .set(queue_.depth());
    reg.gauge("wfc_queue_peak_depth", "", "Backlog high-water mark")
        .set(queue_.peak_depth());
    const CacheStats cs = cache_.stats();
    reg.gauge("wfc_cache_entries", "", "Live cached SDS towers")
        .set(cs.entries);
    reg.gauge("wfc_cache_resident_vertices", "",
              "Summed vertex weight of cached towers")
        .set(cs.resident_vertices);
    reg.gauge("wfc_cache_hits", "", "SDS cache hits").set(cs.hits);
    reg.gauge("wfc_cache_misses", "", "SDS cache misses").set(cs.misses);
    reg.gauge("wfc_cache_extensions", "", "Cached towers deepened")
        .set(cs.extensions);
    reg.gauge("wfc_cache_evictions", "", "Cache entries evicted")
        .set(cs.evictions);
    reg.gauge("wfc_cache_store_hits", "",
              "Chains adopted from the persistent store")
        .set(cs.store_hits);
    reg.gauge("wfc_cache_pinned", "", "Cache entries pinned by operators")
        .set(cs.pinned);
    const StoreStats ss = cache_.store_stats();
    reg.gauge("wfc_store_enabled", "", "1 when a chain store is attached")
        .set(ss.enabled ? 1 : 0);
    reg.gauge("wfc_store_hits", "", "Store loads served from disk")
        .set(ss.hits);
    reg.gauge("wfc_store_misses", "", "Store lookups with no file")
        .set(ss.misses);
    reg.gauge("wfc_store_fallbacks", "",
              "Unusable store files (corrupt/truncated/version-skew)")
        .set(ss.fallbacks);
    reg.gauge("wfc_store_publishes", "", "Chain files written").set(
        ss.publishes);
    reg.gauge("wfc_store_publish_skipped", "",
              "Publishes skipped (readonly/shallower/budget)")
        .set(ss.publish_skipped);
    reg.gauge("wfc_store_files", "", "Chain files on disk").set(ss.files);
    reg.gauge("wfc_store_file_bytes", "", "Bytes of chain files on disk")
        .set(ss.file_bytes);
    reg.gauge("wfc_store_mapped_bytes", "",
              "Bytes in live read-only chain mappings")
        .set(ss.mapped_bytes);
    const Watchdog::Stats wd = watchdog_.stats();
    reg.gauge("wfc_watchdog_kills", "", "Hard-timeout force-cancellations")
        .set(wd.kills);
    reg.gauge("wfc_watchdog_stuck_reports", "", "Heartbeat stalls detected")
        .set(wd.stuck_reports);
    reg.gauge("wfc_result_memo_entries", "", "Memoized definitive verdicts")
        .set(memo_.size());
    // Wait-free data plane contention telemetry (src/wf): how hard the
    // lock-free hot structures are working for their progress guarantees.
    const wf::Telemetry& wt = wf::telemetry();
    reg.gauge("wfc_wf_cas_retries", "",
              "Failed CAS attempts across wf structures")
        .set(wt.cas_retries.value());
    reg.gauge("wfc_wf_announces", "",
              "Inserts that took the announce (helping) slow path")
        .set(wt.announces.value());
    reg.gauge("wfc_wf_help_ops", "",
              "Announced operations completed by helper threads")
        .set(wt.help_ops.value());
    reg.gauge("wfc_wf_epoch_advances", "",
              "Epoch-reclamation grace periods completed")
        .set(wt.epoch_advances.value());
    reg.gauge("wfc_wf_epoch_reclaimed", "",
              "Deferred nodes freed by epoch reclamation")
        .set(wt.epoch_reclaimed.value());
    reg.gauge("wfc_wf_evict_scans", "",
              "Table slots examined by CLOCK eviction laps")
        .set(wt.evict_scans.value());
  });
}

QueryService::~QueryService() {
  accepting_.store(false, std::memory_order_relaxed);
  cancel_all();
  queue_.close();
  // Abort everything still queued so workers only drain the (cancelled)
  // queries they already picked up; every outstanding future is fulfilled.
  queue_.drain(Status::kCancelled);
  // ~ThreadPool joins the workers once their loops observe the closed queue.
}

void QueryService::worker_loop() {
  while (std::optional<AdmissionQueue::Entry> entry = queue_.take()) {
    entry->run();
  }
}

QueryTicket QueryService::submit(Query query, CompletionFn on_complete) {
  if (const auto* solve = query.as<SolveRequest>()) {
    WFC_REQUIRE(solve->task != nullptr,
                "QueryService::submit: solve query without a task");
  }
  if (const auto* conv = query.as<ConvergenceRequest>()) {
    WFC_REQUIRE(conv->agreement != nullptr,
                "QueryService::submit: convergence query without an "
                "agreement task");
  }

  auto job = std::make_shared<Job>();
  job->query = std::move(query);
  job->on_complete = std::move(on_complete);
  job->cancel = std::make_shared<std::atomic<bool>>(false);
  job->submitted = std::chrono::steady_clock::now();
  if (job->query.options.timeout) {
    job->deadline = job->submitted + *job->query.options.timeout;
  }
  job->trace = observer_.begin_trace();
  if (metrics_.submitted != nullptr) {
    metrics_.submitted->inc();
    metrics_.by_kind[static_cast<int>(job->query.kind())]->inc();
  }
  QueryTicket ticket{job->promise.get_future(), job->cancel};
  stats_.inc(kStatSubmitted);

  // Fast path: an identical definitive query was answered before -- reply
  // inline, no worker, no search.
  if (std::optional<task::SolveResult> memo = memo_lookup(job->query)) {
    QueryResult result;
    result.solve = *std::move(memo);
    result.cache_hit = true;
    result.memoized = true;
    job->trace.instant(obs::SpanKind::kMemoHit);
    finish(job, std::move(result));
    return ticket;
  }

  {
    std::lock_guard<std::mutex> lock(tokens_mu_);
    live_tokens_.erase(
        std::remove_if(live_tokens_.begin(), live_tokens_.end(),
                       [](const std::weak_ptr<std::atomic<bool>>& w) {
                         return w.expired();
                       }),
        live_tokens_.end());
    live_tokens_.push_back(job->cancel);
  }

  if (!accepting_.load(std::memory_order_relaxed)) {
    finish_without_running(job, Status::kCancelled);
    return ticket;
  }

  AdmissionQueue::Entry entry;
  entry.run = [this, job] { run_job(job); };
  entry.abort = [this, job](Status status) {
    finish_without_running(job, status);
  };
  if (queue_.offer(std::move(entry)) == AdmissionQueue::Outcome::kRejected) {
    // Shed (queue full under kRejectNew) or shutting down: the ticket is
    // still fulfilled -- load never throws at the submitter.
    finish_without_running(
        job, queue_.closed() ? Status::kCancelled : Status::kOverloaded);
  }
  return ticket;
}

void QueryService::finish_without_running(const std::shared_ptr<Job>& job,
                                          Status status) {
  job->cancel->store(true, std::memory_order_relaxed);
  QueryResult result;
  result.status = status;
  if (status == Status::kCancelled || status == Status::kDeadlineExceeded) {
    // Legacy verdict surface: an unrun cancelled query reads as a cancelled
    // search with zero nodes.
    result.solve.status = task::Solvability::kCancelled;
  }
  if (status == Status::kOverloaded) {
    result.error = "admission queue full";
  }
  finish(job, std::move(result));
}

void QueryService::finish(const std::shared_ptr<Job>& job,
                          QueryResult result) {
  if (job->finished.exchange(true, std::memory_order_acq_rel)) return;
  if (is_retryable(result.status) && result.retry_after_ms == 0) {
    result.retry_after_ms = retry_hint();
  }
  result.micros = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - job->submitted)
          .count());
  record(result);
  if (job->on_complete) {
    // Contractually must not throw; contain a misbehaving continuation so
    // the ticket's future is ALWAYS fulfilled regardless.
    try {
      job->on_complete(result);
    } catch (...) {
    }
    job->on_complete = nullptr;  // release captures promptly
  }
  job->promise.set_value(std::move(result));
}

std::uint64_t QueryService::degraded_budget(std::uint64_t requested,
                                            bool* degraded) {
  *degraded = false;
  if (!options_.degrade_budget_under_load) return requested;
  const std::size_t depth = queue_.depth();
  const std::size_t cap = queue_.max_depth();
  std::uint64_t budget = requested;
  if (depth * 2 >= cap) {
    budget = std::max<std::uint64_t>(1, requested / 4);
  } else if (depth * 4 >= cap) {
    budget = std::max<std::uint64_t>(1, requested / 2);
  }
  *degraded = budget != requested;
  return budget;
}

std::uint32_t QueryService::retry_hint() {
  const std::uint64_t ewma =
      ewma_exec_micros_.load(std::memory_order_relaxed);
  if (ewma == 0) return options_.retry_after_ms_base;
  const std::uint64_t per_query_ms = std::max<std::uint64_t>(1, ewma / 1000);
  const std::uint64_t backlog = queue_.depth() + 1;
  const std::uint64_t parallel =
      static_cast<std::uint64_t>(std::max(1, max_inflight_));
  const std::uint64_t hint = per_query_ms * backlog / parallel;
  return static_cast<std::uint32_t>(
      std::clamp<std::uint64_t>(hint, 1, 10'000));
}

void QueryService::acquire_inflight_slot() {
  std::unique_lock<std::mutex> lock(inflight_mu_);
  inflight_cv_.wait(lock, [this] { return inflight_ < max_inflight_; });
  ++inflight_;
}

void QueryService::release_inflight_slot() {
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    --inflight_;
  }
  inflight_cv_.notify_one();
}

void QueryService::run_job(const std::shared_ptr<Job>& job) {
  const auto dequeued = std::chrono::steady_clock::now();
  const std::uint64_t queue_micros = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          dequeued - job->submitted)
          .count());
  job->trace.complete(obs::SpanKind::kQueueWait, job->submitted, dequeued);
  if (metrics_.queue_wait_us != nullptr) {
    metrics_.queue_wait_us->observe(queue_micros);
  }

  // Deadline check AT DEQUEUE: a query that expired while waiting must not
  // occupy a worker with a search that can only answer kCancelled.
  if (job->deadline && dequeued >= *job->deadline) {
    QueryResult result;
    result.status = Status::kDeadlineExceeded;
    result.solve.status = task::Solvability::kCancelled;
    result.queue_micros = queue_micros;
    result.error = "deadline expired while queued";
    finish(job, std::move(result));
    return;
  }

  if (job->cancel->load(std::memory_order_relaxed)) {
    QueryResult result;
    result.status = Status::kCancelled;
    result.solve.status = task::Solvability::kCancelled;
    result.queue_micros = queue_micros;
    finish(job, std::move(result));
    return;
  }

  bool degraded = false;
  const std::uint64_t budget =
      degraded_budget(job->query.options.node_budget, &degraded);

  acquire_inflight_slot();
  const std::uint64_t watch_handle = watchdog_.watch(
      job->cancel, std::shared_ptr<const std::atomic<std::uint64_t>>(
                       job, &job->progress),
      job->trace);
  // The chaos hook runs INSIDE the watched window, so an injected stall is
  // exactly what the watchdog's heartbeat rule is meant to catch (and an
  // injected cancellation is handled by execute's cooperative checks).
  if (options_.execute_hook) options_.execute_hook(*job->cancel);
  QueryResult result = execute(job->query, job->cancel, job->submitted,
                               job->deadline, budget, &job->progress,
                               job->trace);
  const bool watchdog_killed = watchdog_.unwatch(watch_handle);
  release_inflight_slot();
  if (metrics_.exec_us != nullptr) {
    metrics_.exec_us->observe(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - dequeued)
            .count()));
  }

  if (watchdog_killed && result.status == Status::kCancelled) {
    result.status = Status::kDeadlineExceeded;
    result.error = "hard timeout: watchdog cancelled the query";
  }
  result.degraded = degraded;
  result.queue_micros = queue_micros;
  finish(job, std::move(result));
}

std::optional<task::SolveResult> QueryService::memo_lookup(
    const Query& query) {
  const auto* solve = query.as<SolveRequest>();
  if (memo_capacity_ == 0 || solve == nullptr) return std::nullopt;
  const MemoKey key{solve->task.get(), query.options.max_level,
                    query.options.node_budget,
                    solve->model ? solve->model->tag() : 0};
  MemoVal val;
  if (!memo_.lookup(key, &val)) return std::nullopt;
  return val.result;
}

void QueryService::memo_store(const Query& query,
                              const task::SolveResult& result) {
  const auto* solve = query.as<SolveRequest>();
  if (memo_capacity_ == 0 || solve == nullptr) return;
  // Only definitive verdicts are safe to replay: kUnknown/kCancelled depend
  // on budgets and deadlines, not just the task.
  if (result.status != task::Solvability::kSolvable &&
      result.status != task::Solvability::kUnsolvable) {
    return;
  }
  const MemoKey key{solve->task.get(), query.options.max_level,
                    query.options.node_budget,
                    solve->model ? solve->model->tag() : 0};
  // First writer wins; a concurrent twin's insert converges on the stored
  // value.  The insert's eviction pass keeps the memo at its bound.
  (void)memo_.get_or_insert(key,
                            [&] { return MemoVal{solve->task, result}; });
}

task::LevelRestrictor QueryService::model_restrictor(
    std::shared_ptr<const model::Model> model, bool* any_build,
    const topo::StopPredicate& stop) {
  // The restricted tower is itself a pure function of (input, model), so it
  // rides the same cache/store machinery as full towers -- keyed by the
  // MIXED fingerprint, which can never collide with the full tower's key
  // (tag != 0) or another model's (distinct tags).
  return [this, model = std::move(model), any_build, &stop](
             const proto::SdsChain& chain,
             int level) -> std::optional<task::LevelRestriction> {
    const std::uint64_t base_fp = topo::complex_fingerprint(chain.level(0));
    const std::uint64_t key = model::mix_fingerprint(base_fp, model->tag());
    bool built = false;
    auto restricted = cache_.derived_chain_for(
        key, model->tag(), level,
        [this, &model, &chain, &stop](
            std::shared_ptr<const proto::SdsChain> prior, int depth) {
          std::uint64_t admitted = 0;
          std::uint64_t rejected = 0;
          auto tower = model::restricted_tower(chain, depth, *model, prior,
                                               &admitted, &rejected, stop);
          if (metrics_.model_runs_admitted != nullptr) {
            metrics_.model_runs_admitted->inc(admitted);
            metrics_.model_runs_rejected->inc(rejected);
          }
          return tower;
        },
        &built);
    *any_build = *any_build || built;
    return task::LevelRestriction{restricted->arena(level), nullptr};
  };
}

task::SolveResult QueryService::solve_levels(
    const task::Task& task, const std::shared_ptr<const model::Model>& model,
    int max_level, const std::atomic<bool>* cancel,
    const std::optional<std::chrono::steady_clock::time_point>& deadline,
    std::uint64_t budget, std::atomic<std::uint64_t>* progress,
    const obs::TraceContext& trace, bool* any_build) {
  task::SolveOptions opts;
  opts.node_budget = budget;
  opts.cancel = cancel;
  opts.progress = progress;
  opts.deadline = deadline;
  if (trace.enabled()) {
    opts.checkpoint_every = observer_.config().search_checkpoint_nodes;
    opts.on_checkpoint = [&trace](std::uint64_t nodes) {
      trace.checkpoint(obs::SpanKind::kSearchNodes, nodes);
    };
  }
  // A build stopped by the token or the deadline throws out of chain_for
  // or the restrictor; task::solve answers it as kCancelled.
  const topo::StopPredicate stop = task::build_stop(opts);
  opts.chain_provider = [this, any_build, progress, &trace, &stop](
                            const topo::ChromaticComplex& input, int depth) {
    const auto t0 = std::chrono::steady_clock::now();
    bool built = false;
    auto chain = cache_.chain_for(input, depth, &built, trace, stop);
    if (metrics_.chain_for_us != nullptr) {
      metrics_.chain_for_us->observe(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()));
    }
    *any_build = *any_build || built;
    bump(progress);  // subdivision checkpoint
    return chain;
  };
  if (model != nullptr && !model->is_wait_free()) {
    if (metrics_.model_queries != nullptr) metrics_.model_queries->inc();
    opts.restrictor = model_restrictor(model, any_build, stop);
  }
  auto span = trace.span(obs::SpanKind::kSearch);
  task::SolveResult result = task::solve(task, max_level, opts);
  span.arg = result.nodes_explored;
  return result;
}

void QueryService::cancel_all() {
  std::lock_guard<std::mutex> lock(tokens_mu_);
  for (const std::weak_ptr<std::atomic<bool>>& w : live_tokens_) {
    if (auto token = w.lock()) token->store(true, std::memory_order_relaxed);
  }
}

QueryResult QueryService::execute(
    const Query& query, const std::shared_ptr<std::atomic<bool>>& cancel,
    std::chrono::steady_clock::time_point submitted,
    const std::optional<std::chrono::steady_clock::time_point>& deadline,
    std::uint64_t effective_budget, std::atomic<std::uint64_t>* progress,
    const obs::TraceContext& trace) {
  QueryResult result;
  bool any_build = false;
  bool ran_to_verdict = false;
  try {
    switch (query.kind()) {
      case Query::Kind::kSolve: {
        const SolveRequest& req = std::get<SolveRequest>(query.request);
        result.solve = solve_levels(*req.task, req.model,
                                    query.options.max_level, cancel.get(),
                                    deadline, effective_budget, progress,
                                    trace, &any_build);
        ran_to_verdict = true;
        break;
      }
      case Query::Kind::kConvergence: {
        const ConvergenceRequest& req =
            std::get<ConvergenceRequest>(query.request);
        if (req.model != nullptr && !req.model->is_wait_free()) {
          // The §5 convergence compiler assumes the full run set; under a
          // sub-IIS model the agreement task goes through the restricted
          // Prop 3.1 solve instead (same verdict surface).
          result.solve = solve_levels(*req.agreement, req.model,
                                      query.options.max_level, cancel.get(),
                                      deadline, effective_budget, progress,
                                      trace, &any_build);
          ran_to_verdict = true;
          break;
        }
        conv::ApproximationOptions opts;
        opts.max_level = query.options.max_level;
        bump(progress);
        {
          auto span = trace.span(obs::SpanKind::kConvergence);
          result.solve = conv::solve_simplex_agreement_by_convergence(
              *req.agreement, opts);
          span.arg = result.solve.nodes_explored;
        }
        ran_to_verdict = true;
        break;
      }
      case Query::Kind::kEmulate: {
        const EmulateRequest& req = std::get<EmulateRequest>(query.request);
        // Generous round bound: the emulation is nonblocking, and the
        // synchronous adversary finishes k-shot clients in O(k) memories.
        const int max_rounds = 16 + 32 * req.shots * req.procs;
        emu::FullInfoClient client(req.shots);
        rt::SynchronousAdversary adversary;
        bump(progress);
        {
          auto span = trace.span(obs::SpanKind::kEmulation);
          emu::EmulationResult emu = emu::run_emulation_simulated(
              req.procs, adversary, max_rounds, client.init(),
              client.on_scan());
          result.emu_rounds = emu.rounds_used;
          result.emu_steps = std::move(emu.iis_steps);
          span.arg = static_cast<std::uint64_t>(emu.rounds_used);
        }
        if (metrics_.emu_rounds != nullptr && result.emu_rounds > 0) {
          metrics_.emu_rounds->inc(
              static_cast<std::uint64_t>(result.emu_rounds));
        }
        result.solve.status = task::Solvability::kSolvable;
        ran_to_verdict = true;
        break;
      }
      case Query::Kind::kCheck: {
        result.is_check = true;
        // Checker sweeps poll only the cancel token (no per-node deadline
        // like the solver's); honour an already-expired deadline up front.
        if (deadline && std::chrono::steady_clock::now() >= *deadline) {
          cancel->store(true, std::memory_order_relaxed);
        }
        const CheckRequest& cq = std::get<CheckRequest>(query.request);
        auto span = trace.span(obs::SpanKind::kCheck);
        switch (cq.target) {
          case CheckRequest::Target::kSds: {
            chk::ExploreOptions opts;
            opts.n_procs = cq.procs;
            opts.rounds = cq.rounds;
            opts.max_crashes = cq.crashes;
            opts.symmetry_reduction = cq.symmetry;
            opts.max_executions = effective_budget;
            opts.cancel = cancel.get();
            opts.run_filter = model::run_filter(cq.model, cq.procs);
            if (opts.run_filter && metrics_.model_queries != nullptr) {
              metrics_.model_queries->inc();
            }
            bump(progress);
            const chk::SdsCheckReport report = chk::check_views_in_sds(opts);
            result.check_ok = report.ok;
            result.check_schedules = report.explored.executions;
            result.check_histories = report.simplices_checked;
            result.check_violation = report.violation;
            if (opts.run_filter && metrics_.model_runs_admitted != nullptr) {
              metrics_.model_runs_admitted->inc(report.explored.executions);
              metrics_.model_runs_rejected->inc(report.explored.filtered);
            }
            break;
          }
          case CheckRequest::Target::kEmulation: {
            chk::ConformanceOptions opts;
            opts.n_procs = cq.procs;
            opts.shots = cq.shots;
            opts.explore_rounds = cq.rounds;
            opts.max_crashes = cq.crashes;
            opts.max_executions = effective_budget;
            bump(progress);
            const chk::ConformanceReport report =
                chk::check_emulation_conformance(opts);
            result.check_ok = report.ok;
            result.check_schedules = report.explored.executions;
            result.check_histories = report.histories_checked;
            result.check_max_depth =
                static_cast<std::uint64_t>(report.max_rounds_used);
            result.check_violation = report.violation;
            break;
          }
          case CheckRequest::Target::kLinearizability: {
            const LinOutcome out = run_linearizability_target(
                cq, effective_budget, cancel.get(), progress);
            result.check_ok = out.ok;
            result.check_schedules = out.schedules;
            result.check_histories = out.histories;
            result.check_max_depth = out.max_depth;
            result.check_violation = out.violation;
            break;
          }
        }
        span.arg = result.check_schedules;
        result.solve.status = cancel->load(std::memory_order_relaxed)
                                  ? task::Solvability::kCancelled
                                  : task::Solvability::kSolvable;
        ran_to_verdict = true;
        break;
      }
    }
  } catch (const CheckCancelled&) {
    result.is_check = true;
    result.solve.status = task::Solvability::kCancelled;
    ran_to_verdict = true;
  } catch (const std::bad_alloc&) {
    // Contain the allocation failure to this query and relieve the largest
    // memory consumer we own: the chain cache sheds a quarter of its cold
    // weight.  The query itself is retryable.
    cache_.shed(0.25);
    result.status = Status::kResourceExhausted;
    result.error = "allocation failure during query execution";
  } catch (const std::invalid_argument& e) {
    result.status = Status::kInvalidArgument;
    result.error = e.what();
  } catch (const std::exception& e) {
    result.status = Status::kInternal;
    result.error = e.what();
  }

  if (ran_to_verdict) {
    if (result.solve.status == task::Solvability::kCancelled) {
      const bool past_deadline =
          deadline && std::chrono::steady_clock::now() >= *deadline;
      result.status =
          past_deadline ? Status::kDeadlineExceeded : Status::kCancelled;
    } else {
      result.status = Status::kOk;
      memo_store(query, result.solve);
    }
  }
  result.cache_hit = query.kind() == Query::Kind::kSolve && !any_build;
  result.micros = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - submitted)
          .count());
  return result;
}

void QueryService::record(const QueryResult& result) {
  if (metrics_.by_status[0] != nullptr) {
    metrics_.by_status[static_cast<int>(result.status)]->inc();
    metrics_.e2e_us->observe(result.micros);
    if (result.memoized) metrics_.memo_hits->inc();
    if (result.degraded) metrics_.degraded->inc();
    if (!result.memoized && !result.is_check &&
        result.solve.nodes_explored > 0) {
      metrics_.search_nodes->observe(result.solve.nodes_explored);
    }
  }
  // Per-thread shard bumps only: the completion path no longer serializes
  // on a stats mutex (kStat* slots fold back together in stats()).
  stats_.inc(kStatQueries);
  stats_.inc(kStatStatusBase + static_cast<std::size_t>(result.status));
  if (result.status == Status::kOk) {
    if (result.is_check) {
      stats_.inc(kStatCheckRuns);
      stats_.inc(kStatCheckSchedules, result.check_schedules);
      stats_.inc(kStatCheckHistories, result.check_histories);
      check_max_depth_.bump(result.check_max_depth);
      if (!result.check_ok) stats_.inc(kStatCheckViolations);
    } else {
      switch (result.solve.status) {
        case task::Solvability::kSolvable: stats_.inc(kStatSolvable); break;
        case task::Solvability::kUnsolvable:
          stats_.inc(kStatUnsolvable);
          break;
        case task::Solvability::kUnknown: stats_.inc(kStatUnknown); break;
        case task::Solvability::kCancelled: break;  // unreachable under kOk
      }
    }
    // Latency history feeds the retry_after hint; only completed work
    // counts (shed/expired queries would drag the estimate toward zero).
    // Racing updates may each fold their own sample in -- the estimate
    // stays an estimate, which is all the hint needs.
    if (!result.memoized) {
      std::uint64_t cur = ewma_exec_micros_.load(std::memory_order_relaxed);
      std::uint64_t next;
      do {
        next = cur == 0 ? result.micros : (7 * cur + result.micros) / 8;
      } while (!ewma_exec_micros_.compare_exchange_weak(
          cur, next, std::memory_order_relaxed));
    }
  }
  if (result.memoized) {
    stats_.inc(kStatResultHits);
  } else {
    stats_.inc(kStatNodesExplored, result.solve.nodes_explored);
  }
  if (result.degraded) stats_.inc(kStatDegraded);
  stats_.inc(kStatQueueTotalMicros, result.queue_micros);
  queue_max_micros_.bump(result.queue_micros);
  stats_.inc(kStatTotalMicros, result.micros);
  max_micros_.bump(result.micros);
}

ServiceStats QueryService::stats() const {
  const std::array<std::uint64_t, kStatCount> c = stats_.fold();
  ServiceStats out;
  out.submitted = c[kStatSubmitted];
  out.queries = c[kStatQueries];
  for (int s = 0; s < kNumStatuses; ++s) {
    out.by_status[s] = c[kStatStatusBase + static_cast<std::size_t>(s)];
  }
  out.solvable = c[kStatSolvable];
  out.unsolvable = c[kStatUnsolvable];
  out.unknown = c[kStatUnknown];
  out.result_hits = c[kStatResultHits];
  out.nodes_explored = c[kStatNodesExplored];
  out.degraded = c[kStatDegraded];
  out.total_micros = c[kStatTotalMicros];
  out.max_micros = max_micros_.value();
  out.queue_total_micros = c[kStatQueueTotalMicros];
  out.queue_max_micros = queue_max_micros_.value();
  out.check.runs = c[kStatCheckRuns];
  out.check.schedules = c[kStatCheckSchedules];
  out.check.histories = c[kStatCheckHistories];
  out.check.violations = c[kStatCheckViolations];
  out.check.max_search_depth = check_max_depth_.value();
  out.cache = cache_.stats();
  out.store = cache_.store_stats();
  out.queue_peak_depth = queue_.peak_depth();
  const Watchdog::Stats wd = watchdog_.stats();
  out.watchdog_kills = wd.kills;
  out.stuck_worker_reports = wd.stuck_reports;
  return out;
}

}  // namespace wfc::svc
