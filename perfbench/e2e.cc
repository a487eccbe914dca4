// hdmm_e2e: one end-to-end benchmark process for one workload.
//
// Drives the library's real request path in-process through public calls —
// Engine::PlanOr, Engine::MeasureOr, MeasurementSession::AnswerBatchOr — as
// a closed loop with one client, checks samples of what it times, and prints
// one "RESULT {json}" line. run.py spawns it, measures set-up time from the
// outside and merges the result into the benchmark's output line.
//
//   hdmm_e2e --workload taxi-cold|sf1-release|taxi-outofcore --seed N
//            --seconds S --workdir DIR [--trace 0|1] [--trace-out FILE]
//            [--setup-only]
//
// The process prints "READY" once set-up (inputs, engine, any served plan and
// one discarded warm-up request) is done; --setup-only exits right there.
// --trace 1 wraps the public calls of every other request in spans, replays
// each traced release through the layers' own entry points, and reports
// per-layer metrics instead of end-to-end ones (see README.md).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/gram_cache.h"
#include "core/hdmm.h"
#include "core/opt_kron.h"
#include "core/opt_marginals.h"
#include "core/opt_union.h"
#include "core/pidentity.h"
#include "core/strategy.h"
#include "data/census.h"
#include "data/synthetic.h"
#include "engine/engine.h"
#include "linalg/gemm.h"
#include "spans.h"
#include "workload/building_blocks.h"

namespace {

using hdmm::BoxQuery;
using hdmm::Engine;
using hdmm::EngineOptions;
using hdmm::HdmmOptions;
using hdmm::MeasurementSession;
using hdmm::MeasureRequest;
using hdmm::Rng;
using hdmm::StatusOr;
using hdmm::UnionWorkload;
using hdmm::Vector;
using perfbench::Median;
using perfbench::NowUs;
using perfbench::ScopedSpan;
using perfbench::SpanRecorder;

// Fixed parts of every workload's definition.
constexpr int kPoolThreads = 2;      // Library pool width (caller included).
constexpr double kEpsilon = 1.0;     // Laplace budget per release.
constexpr uint64_t kOptimizerSeed = 2018;
constexpr int kPlanRestarts = 2;
constexpr int64_t kRecords = 1000000;  // Synthetic population.
constexpr double kZipfShape = 1.05;
constexpr int64_t kTaxiSide = 256;
constexpr int64_t kServeBatch = 2000;      // Queries per serving batch.
constexpr int kOutOfCoreBatches = 5;       // Per taxi-outofcore request.
constexpr int64_t kTileBytes = 16 << 10;
constexpr int64_t kHotTileBudget = 64 << 10;
constexpr int kBruteChecksPerBatch = 24;   // Sampled answers re-summed.
constexpr int kMinServingRequests = 40;    // Supports at least a p75 tail.
constexpr int kMinColdRequests = 3;
constexpr int kOpt0Evals = 20;
// Empirical workload MSE averaged over a run's taxi-cold releases must lie
// within this share of the expected MSE. One release's ratio has a standard
// deviation of about 4.5% (131,072 correlated answers; ten releases ranged
// 0.92..1.07), so over the run's at least 3 releases a 10% band is more than
// three standard deviations wide, yet far below the 2x a wrong noise scale
// would give.
constexpr double kMseTolerance = 0.10;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::string workdir;
  std::string trace_out;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr, "hdmm_e2e: %s\n", why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") a.workload = value;
    else if (flag == "--seed") a.seed = std::stoull(value);
    else if (flag == "--seconds") a.seconds = std::stod(value);
    else if (flag == "--trace") a.trace = value == "1";
    else if (flag == "--workdir") a.workdir = value;
    else if (flag == "--trace-out") a.trace_out = value;
    else Usage(("unknown flag " + flag).c_str());
  }
  if (a.workload != "taxi-cold" && a.workload != "sf1-release" &&
      a.workload != "taxi-outofcore")
    Usage("--workload must be taxi-cold, sf1-release or taxi-outofcore");
  if (a.workdir.empty()) Usage("--workdir is required");
  return a;
}

uint64_t Count(const char* name) {
  return hdmm::Metrics::GetCounter(name)->Value();
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // Reported in kB.
  }
  return 0.0;
}

/// Row-major box sum over a flattened vector, one cell at a time: the
/// reference every served answer is checked against.
double BruteBoxSum(const std::vector<int64_t>& sizes, const double* v,
                   const BoxQuery& q) {
  const size_t d = sizes.size();
  std::vector<int64_t> stride(d, 1);
  for (size_t a = d - 1; a-- > 0;) stride[a] = stride[a + 1] * sizes[a + 1];
  std::vector<int64_t> c(q.lo);
  double sum = 0.0;
  while (true) {
    int64_t base = 0;
    for (size_t a = 0; a + 1 < d; ++a) base += c[a] * stride[a];
    for (int64_t t = q.lo[d - 1]; t <= q.hi[d - 1]; ++t) sum += v[base + t];
    int a = static_cast<int>(d) - 2;
    for (; a >= 0; --a) {
      if (++c[static_cast<size_t>(a)] <= q.hi[static_cast<size_t>(a)]) break;
      c[static_cast<size_t>(a)] = q.lo[static_cast<size_t>(a)];
    }
    if (a < 0) return sum;
  }
}

BoxQuery RandomBox(const std::vector<int64_t>& sizes, Rng* rng) {
  BoxQuery q;
  for (int64_t n : sizes) {
    int64_t lo = rng->UniformInt(0, n - 1), hi = rng->UniformInt(0, n - 1);
    if (lo > hi) std::swap(lo, hi);
    q.lo.push_back(lo);
    q.hi.push_back(hi);
  }
  return q;
}

/// Fixes one or two attributes to single values; the rest stay full range.
BoxQuery MarginalCell(const std::vector<int64_t>& sizes, Rng* rng) {
  BoxQuery q;
  q.lo.assign(sizes.size(), 0);
  for (int64_t n : sizes) q.hi.push_back(n - 1);
  const int fixed = static_cast<int>(rng->UniformInt(1, 2));
  for (int k = 0; k < fixed; ++k) {
    const size_t a = static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(sizes.size()) - 1));
    q.lo[a] = q.hi[a] = rng->UniformInt(0, sizes[a] - 1);
  }
  return q;
}

/// True when `q` constrains only attributes kept by `table`.
bool TableCovers(const hdmm::MeasuredMarginal& table,
                 const std::vector<int64_t>& sizes, const BoxQuery& q) {
  for (size_t a = 0; a < sizes.size(); ++a) {
    const bool constrained = q.lo[a] > 0 || q.hi[a] < sizes[a] - 1;
    const bool kept = std::find(table.attrs.begin(), table.attrs.end(),
                                static_cast<int>(a)) != table.attrs.end();
    if (constrained && !kept) return false;
  }
  return true;
}

/// The box sum of `q` over one measured marginal table.
double BruteTableSum(const hdmm::MeasuredMarginal& table,
                     const std::vector<int64_t>& sizes, const BoxQuery& q) {
  std::vector<int64_t> kept_sizes;
  BoxQuery sub;
  for (int a : table.attrs) {
    kept_sizes.push_back(sizes[static_cast<size_t>(a)]);
    sub.lo.push_back(q.lo[static_cast<size_t>(a)]);
    sub.hi.push_back(q.hi[static_cast<size_t>(a)]);
  }
  if (kept_sizes.empty()) return table.values[0];
  return BruteBoxSum(kept_sizes, table.values.data(), sub);
}

struct PhaseCount {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// The whole benchmark process for one workload.
class Bench {
 public:
  explicit Bench(Args args) : args_(std::move(args)) {}

  int Run() {
    Setup();
    std::printf("READY\n");
    std::fflush(stdout);
    if (args_.setup_only) return failures_.empty() && Failed() == 0 ? 0 : 1;
    const double loop_start = NowUs();
    const int min_requests =
        args_.workload == "taxi-cold" ? kMinColdRequests : kMinServingRequests;
    for (int i = 0;
         i < min_requests || NowUs() - loop_start < args_.seconds * 1e6;
         ++i) {
      // The traced run alternates: even requests untraced, odd ones traced.
      SpanRecorder* rec = args_.trace && i % 2 == 1 ? &spans_ : nullptr;
      Request(i, rec);
    }
    FinalChecks();
    if (!args_.trace_out.empty()) {
      std::FILE* f = std::fopen(args_.trace_out.c_str(), "w");
      if (f != nullptr) {
        spans_.WriteChromeTrace(f);
        std::fclose(f);
      }
    }
    PrintResult();
    return failures_.empty() ? 0 : 1;
  }

 private:
  // ------------------------------------------------------------- set-up --

  void Setup() {
    const double t0 = NowUs();
    if (args_.workload == "sf1-release") {
      BuildSf1();
    } else {
      BuildTaxi();
    }
    layer_["workload.build_ms"].push_back((NowUs() - t0) / 1e3);
    sizes_ = w_.domain().sizes();

    HdmmOptions id_only;
    id_only.use_kron = id_only.use_union = id_only.use_marginals = false;
    identity_rmse_ =
        std::sqrt(2.0 / (kEpsilon * kEpsilon) *
                  hdmm::OptimizeStrategy(w_, id_only).squared_error /
                  static_cast<double>(w_.TotalQueries()));

    if (args_.workload == "taxi-cold") {
      // Every request plans cold; the warm-up is one whole request.
      Request(-1, nullptr);
    } else {
      engine_ = std::make_unique<Engine>(MakeEngineOptions());
      StatusOr<hdmm::PlanResult> plan = engine_->PlanOr(w_, nullptr);
      if (Track("setup", plan.status())) {
        strategy_ = plan.value().strategy;
        expected_rmse_ = strategy_->RootMeanSquaredError(w_, kEpsilon);
        plan_name_ = strategy_->Name();
      }
      if (args_.trace && args_.workload == "sf1-release")
        ReplayPlan(nullptr, -1);  // sf1 plans only here, in set-up.
      Request(-1, nullptr);
    }
    std::printf("plan: %s, expected_rmse %.6g, identity_rmse %.6g\n",
                plan_name_.c_str(), expected_rmse_, identity_rmse_);
    Check(expected_rmse_ > 0 && expected_rmse_ <= identity_rmse_,
          "expected_rmse is positive and no worse than Identity's");
  }

  void BuildTaxi() {
    hdmm::Domain d({kTaxiSide, kTaxiSide});
    hdmm::Matrix p = hdmm::PrefixBlock(kTaxiSide);
    hdmm::Matrix id = hdmm::IdentityBlock(kTaxiSide);
    UnionWorkload w(d);
    hdmm::ProductWorkload a;
    a.factors = {p, id};
    w.AddProduct(std::move(a));
    hdmm::ProductWorkload b;
    b.factors = {id, p};
    w.AddProduct(std::move(b));
    w_ = std::move(w);
    options_.restarts = kPlanRestarts;
    options_.seed = kOptimizerSeed;

    Rng data_rng(args_.seed);
    x_ = hdmm::ZipfDataVector(w_.domain(), kRecords, kZipfShape, &data_rng);
    if (args_.workload == "taxi-cold") {
      // The workload's own queries: Prefix x I, then I x Prefix.
      for (int64_t i = 0; i < kTaxiSide; ++i)
        for (int64_t j = 0; j < kTaxiSide; ++j)
          workload_queries_.push_back({{0, j}, {i, j}});
      for (int64_t j = 0; j < kTaxiSide; ++j)
        for (int64_t i = 0; i < kTaxiSide; ++i)
          workload_queries_.push_back({{j, 0}, {j, i}});
      const std::vector<int64_t> sizes = w_.domain().sizes();
      for (const BoxQuery& q : workload_queries_)
        true_answers_.push_back(BruteBoxSum(sizes, x_.data(), q));
    }
  }

  void BuildSf1() {
    w_ = hdmm::Sf1Workload();
    options_.restarts = kPlanRestarts;
    options_.seed = kOptimizerSeed;
    Rng data_rng(args_.seed);
    x_ = hdmm::ZipfDataVector(w_.domain(), kRecords, kZipfShape, &data_rng);
  }

  EngineOptions MakeEngineOptions() const {
    EngineOptions o;
    o.optimizer = options_;
    o.total_epsilon = 1e12;  // A budget no run can exhaust.
    if (args_.workload != "taxi-cold")
      o.ledger_path = args_.workdir + "/ledger";
    if (args_.workload == "taxi-outofcore") {
      o.session_storage.backend = hdmm::SessionStorage::kMmap;
      o.session_storage.tile_bytes = kTileBytes;
      o.session_storage.hot_tile_budget = kHotTileBudget;
      o.session_storage.dir = args_.workdir + "/sessions";
    }
    return o;
  }

  // ----------------------------------------------------------- requests --

  /// One request of the workload; i < 0 is the discarded warm-up.
  void Request(int i, SpanRecorder* rec) {
    const uint64_t hits0 = CacheHits();
    const uint64_t misses0 = Count("strategy_cache.misses");
    if (args_.workload == "taxi-cold") {
      TaxiColdRequest(i, rec);
    } else {
      ServingRequest(i, rec);
    }
    if (rec == nullptr) return;
    // Every plan lookup of a traced request and its replay.
    const uint64_t hits = CacheHits() - hits0;
    cache_hits_ += hits;
    cache_lookups_ += hits + Count("strategy_cache.misses") - misses0;
  }

  static uint64_t CacheHits() {
    return Count("strategy_cache.memory_hits") +
           Count("strategy_cache.disk_hits");
  }

  uint64_t NoiseSeed(int i) const {
    return args_.seed * 1000003ull + static_cast<uint64_t>(i + 1);
  }

  void TaxiColdRequest(int i, SpanRecorder* rec) {
    const bool warmup = i < 0;
    const char* phase = warmup ? "setup" : "release";
    const uint64_t tasks0 = Count("thread_pool.tasks");
    const uint64_t steals0 = Count("thread_pool.steals");
    Rng noise(NoiseSeed(i));
    std::unique_ptr<Engine> engine;
    std::unique_ptr<MeasurementSession> session;
    StatusOr<Vector> answers = hdmm::Status::Unavailable("not answered");
    uint64_t evals = 0, restarts = 0, gram_hits = 0, gram_misses = 0,
             gram_closed = 0;
    double measure_ms = 0, answer_ms = 0;
    const double t0 = NowUs();
    int root_id = -1;
    bool ok = false;
    {
      ScopedSpan root(rec, "request", i);
      root_id = root.id();
      {
        ScopedSpan s(rec, "gram_cache.clear", i);
        hdmm::GramCache::Global().Clear();
      }
      {
        ScopedSpan s(rec, "engine.ctor", i);
        engine = std::make_unique<Engine>(MakeEngineOptions());
      }
      StatusOr<hdmm::PlanResult> plan = hdmm::Status::Unavailable("");
      {
        const uint64_t e0 = Count("optimizer.evals");
        const uint64_t r0 = Count("optimizer.restarts");
        const uint64_t h0 = Count("gram_cache.hits");
        const uint64_t m0 = Count("gram_cache.misses");
        const uint64_t c0 = Count("gram_cache.closed_form");
        ScopedSpan s(rec, "engine.plan", i);
        plan = engine->PlanOr(w_, nullptr);
        evals = Count("optimizer.evals") - e0;
        restarts = Count("optimizer.restarts") - r0;
        gram_hits = Count("gram_cache.hits") - h0;
        gram_misses = Count("gram_cache.misses") - m0;
        gram_closed = Count("gram_cache.closed_form") - c0;
      }
      if (Track(phase, plan.status())) {
        ScopedSpan s(rec, "engine.measure", i);
        const double m0 = NowUs();
        StatusOr<std::unique_ptr<MeasurementSession>> measured =
            engine->MeasureOr(w_, "taxi", x_, MeasureRequest::Laplace(kEpsilon),
                              &noise);
        measure_ms = (NowUs() - m0) / 1e3;
        if (Track(phase, measured.status()))
          session = std::move(measured).value();
      }
      if (session != nullptr) {
        ScopedSpan s(rec, "engine.answer", i);
        const double a0 = NowUs();
        answers = session->AnswerBatchOr(workload_queries_, nullptr);
        answer_ms = (NowUs() - a0) / 1e3;
        ok = Track(warmup ? "setup" : "answer", answers.status());
      }
    }
    const double request_ms = (NowUs() - t0) / 1e3;
    const uint64_t tasks = Count("thread_pool.tasks") - tasks0;
    const uint64_t steals = Count("thread_pool.steals") - steals0;

    if (session != nullptr) {
      const double rmse =
          session->strategy()->RootMeanSquaredError(w_, kEpsilon);
      if (warmup) {
        expected_rmse_ = rmse;
        plan_name_ = session->strategy()->Name();
      }
      Check(rmse == expected_rmse_, "a cold plan repeats the same strategy");
      Check(engine->accountant().Spent("taxi") ==
                    kEpsilon * engine->accountant().NumCharges("taxi") &&
                engine->accountant().NumCharges("taxi") == 1,
            "taxi-cold ledger: one charge of epsilon per request");
    }
    if (ok) {
      const Vector& a = answers.value();
      double sq = 0.0;
      for (size_t k = 0; k < a.size(); ++k) {
        const double e = a[k] - true_answers_[k];
        sq += e * e;
      }
      if (!warmup)
        mse_ratios_.push_back(sq / static_cast<double>(a.size()) /
                              (expected_rmse_ * expected_rmse_));
      CheckSampledAnswers(*session, workload_queries_, a, i);
    }
    if (warmup) return;
    RecordTimings(session != nullptr, ok, request_ms, measure_ms, answer_ms,
                  workload_queries_.size());
    if (rec == nullptr) {
      untraced_request_ms_.push_back(request_ms);
      return;
    }
    traced_request_ms_.push_back(request_ms);
    CheckTreeSumsBack(root_id);
    layer_["optimize.lbfgsb.evals"].push_back(static_cast<double>(evals));
    layer_["core.optimize.restarts"].push_back(static_cast<double>(restarts));
    layer_["core.gram_cache.hits"].push_back(static_cast<double>(gram_hits));
    layer_["core.gram_cache.misses"].push_back(
        static_cast<double>(gram_misses));
    layer_["core.gram_cache.closed_form"].push_back(
        static_cast<double>(gram_closed));
    layer_["common.thread_pool.tasks"].push_back(static_cast<double>(tasks));
    layer_["common.thread_pool.steals"].push_back(static_cast<double>(steals));
    layer_["engine.answer.batch_ms"].push_back(answer_ms);
    layer_["engine.measure.ms"].push_back(measure_ms);
    if (ok) {
      ReplayPlan(rec, i);
      Opt0Evals(rec, i);
      ReplayRelease(engine.get(), session.get(), measure_ms, rec, i);
    }
  }

  /// sf1-release and taxi-outofcore: MeasureOr on the cached plan, then the
  /// workload's batches.
  void ServingRequest(int i, SpanRecorder* rec) {
    const bool warmup = i < 0;
    const bool outofcore = args_.workload == "taxi-outofcore";
    const int batches = outofcore ? kOutOfCoreBatches : 1;
    Rng query_rng(args_.seed * 7919ull + static_cast<uint64_t>(i + 1) * 31ull);
    std::vector<std::vector<BoxQuery>> queries(static_cast<size_t>(batches));
    for (auto& batch : queries) {
      for (int64_t k = 0; k < kServeBatch; ++k) {
        const bool marginal = !outofcore && k % 2 == 0;
        batch.push_back(marginal ? MarginalCell(sizes_, &query_rng)
                                 : RandomBox(sizes_, &query_rng));
      }
    }

    const uint64_t tasks0 = Count("thread_pool.tasks");
    const uint64_t steals0 = Count("thread_pool.steals");
    const uint64_t refusals0 = Count("accountant.refusals");
    Rng noise(NoiseSeed(i));
    std::unique_ptr<MeasurementSession> session;
    std::vector<Vector> answers(static_cast<size_t>(batches));
    std::vector<double> batch_ms;
    std::vector<uint64_t> faults, hits;
    uint64_t writes = 0, seals = 0;
    double measure_ms = 0;
    int root_id = -1;
    bool ok = false;
    const double t0 = NowUs();
    {
      ScopedSpan root(rec, "request", i);
      root_id = root.id();
      {
        const uint64_t w0 = Count("tile_store.writes");
        const uint64_t s0 = Count("tile_store.seals");
        ScopedSpan s(rec, "engine.measure", i);
        const double m0 = NowUs();
        StatusOr<std::unique_ptr<MeasurementSession>> measured =
            engine_->MeasureOr(w_, dataset(), x_,
                               MeasureRequest::Laplace(kEpsilon), &noise);
        measure_ms = (NowUs() - m0) / 1e3;
        writes = Count("tile_store.writes") - w0;
        seals = Count("tile_store.seals") - s0;
        if (Track(warmup ? "setup" : "release", measured.status()))
          session = std::move(measured).value();
      }
      ok = session != nullptr;
      for (int b = 0; b < batches && session != nullptr; ++b) {
        const uint64_t f0 = Count("tile_store.faults");
        const uint64_t h0 = Count("tile_store.hits");
        ScopedSpan s(rec, "engine.answer", i);
        const double a0 = NowUs();
        StatusOr<Vector> got =
            session->AnswerBatchOr(queries[static_cast<size_t>(b)], nullptr);
        batch_ms.push_back((NowUs() - a0) / 1e3);
        faults.push_back(Count("tile_store.faults") - f0);
        hits.push_back(Count("tile_store.hits") - h0);
        if (Track(warmup ? "setup" : "answer", got.status())) {
          answers[static_cast<size_t>(b)] = std::move(got).value();
        } else {
          ok = false;
        }
      }
    }
    const double request_ms = (NowUs() - t0) / 1e3;
    const uint64_t tasks = Count("thread_pool.tasks") - tasks0;
    const uint64_t steals = Count("thread_pool.steals") - steals0;
    Check(Count("accountant.refusals") == refusals0,
          "the accountant refuses nothing");

    if (ok) {
      for (int b = 0; b < batches; ++b) {
        CheckSampledAnswers(*session, queries[static_cast<size_t>(b)],
                            answers[static_cast<size_t>(b)], i * 8 + b);
      }
      if (outofcore) CheckMatchesMemorySession(i, queries, answers);
    }
    if (warmup) return;

    double answer_ms = 0;
    for (double ms : batch_ms) answer_ms += ms;
    RecordTimings(session != nullptr, ok, request_ms, measure_ms, answer_ms,
                  static_cast<size_t>(batches * kServeBatch));
    if (rec == nullptr) {
      untraced_request_ms_.push_back(request_ms);
      return;
    }
    traced_request_ms_.push_back(request_ms);
    CheckTreeSumsBack(root_id);
    layer_["common.thread_pool.tasks"].push_back(static_cast<double>(tasks));
    layer_["common.thread_pool.steals"].push_back(static_cast<double>(steals));
    layer_["engine.measure.ms"].push_back(measure_ms);
    layer_["engine.tile_store.writes"].push_back(static_cast<double>(writes));
    layer_["engine.tile_store.seals"].push_back(static_cast<double>(seals));
    uint64_t all_faults = 0, all_hits = 0;
    for (size_t b = 0; b < batch_ms.size(); ++b) {
      layer_["engine.answer.batch_ms"].push_back(batch_ms[b]);
      layer_["engine.tile_store.faults"].push_back(
          static_cast<double>(faults[b]));
      layer_["engine.tile_store.hits"].push_back(static_cast<double>(hits[b]));
      all_faults += faults[b];
      all_hits += hits[b];
    }
    if (all_faults + all_hits > 0)
      layer_["engine.tile_store.hit_ratio"].push_back(
          static_cast<double>(all_hits) /
          static_cast<double>(all_faults + all_hits));
    if (!ok) return;
    if (!outofcore)
      MaterializeAndCoverage(session.get(), queries[0], batch_ms[0], rec, i);
    ReplayRelease(engine_.get(), session.get(), measure_ms, rec, i);
  }

  /// A failed operation counts as missing every latency: its samples are
  /// infinite, so medians and tails can only get worse.
  void RecordTimings(bool released, bool answered, double request_ms,
                     double release_ms, double answer_ms, size_t queries) {
    request_ms_.push_back(answered ? request_ms : INFINITY);
    release_ms_.push_back(released ? release_ms : INFINITY);
    answer_request_ms_.push_back(answered ? answer_ms : INFINITY);
    queries_per_request_ = static_cast<double>(queries);
  }

  // --------------------------------------------------- traced replays --

  /// Re-runs the plan's optimizer on a cleared Gram cache, then each
  /// operator of its job grid directly (one restart each).
  void ReplayPlan(SpanRecorder* rec, int i) {
    ScopedSpan root(rec, "replay.plan", i);
    hdmm::GramCache::Global().Clear();
    const uint64_t e0 = Count("optimizer.evals");
    const uint64_t r0 = Count("optimizer.restarts");
    const uint64_t h0 = Count("gram_cache.hits");
    const uint64_t m0 = Count("gram_cache.misses");
    const uint64_t c0 = Count("gram_cache.closed_form");
    double optimize_ms = 0;
    {
      ScopedSpan s(rec, "core.optimize", i);
      const double t0 = NowUs();
      hdmm::OptimizeStrategy(w_, options_);
      optimize_ms = (NowUs() - t0) / 1e3;
    }
    if (i < 0) {  // Set-up plan (sf1-release): its counters are the plan's.
      layer_["optimize.lbfgsb.evals"].push_back(
          static_cast<double>(Count("optimizer.evals") - e0));
      layer_["core.optimize.restarts"].push_back(
          static_cast<double>(Count("optimizer.restarts") - r0));
      layer_["core.gram_cache.hits"].push_back(
          static_cast<double>(Count("gram_cache.hits") - h0));
      layer_["core.gram_cache.misses"].push_back(
          static_cast<double>(Count("gram_cache.misses") - m0));
      layer_["core.gram_cache.closed_form"].push_back(
          static_cast<double>(Count("gram_cache.closed_form") - c0));
    }
    Rng rng(options_.seed);
    double kron_ms = 0, union_ms = 0, marginals_ms = 0;
    if (options_.use_kron) {
      ScopedSpan s(rec, "core.opt_kron", i);
      Rng job = rng.Fork(0);
      const double t0 = NowUs();
      hdmm::OptKron(w_, options_.kron, &job);
      kron_ms = (NowUs() - t0) / 1e3;
    }
    if (options_.use_union &&
        hdmm::PartitionBySignature(w_, options_.union_opts.max_groups).size() >
            1) {
      ScopedSpan s(rec, "core.opt_union", i);
      Rng job = rng.Fork(1);
      const double t0 = NowUs();
      hdmm::OptUnion(w_, options_.union_opts, &job);
      union_ms = (NowUs() - t0) / 1e3;
    }
    if (options_.use_marginals &&
        w_.domain().NumAttributes() <= options_.max_marginals_dims) {
      ScopedSpan s(rec, "core.opt_marginals", i);
      Rng job = rng.Fork(2);
      const double t0 = NowUs();
      hdmm::OptMarginals(w_, options_.marginals, &job);
      marginals_ms = (NowUs() - t0) / 1e3;
    }
    layer_["core.optimize.ms"].push_back(optimize_ms);
    layer_["core.opt_kron.ms"].push_back(kron_ms);
    layer_["core.opt_union.ms"].push_back(union_ms);
    layer_["core.opt_marginals.ms"].push_back(marginals_ms);
    // The optimizer runs restarts x operators jobs over the pool's lanes;
    // what its wall time holds beyond that work is candidate scoring,
    // scheduling imbalance and set-up.
    const double op_work =
        options_.restarts * (kron_ms + union_ms + marginals_ms);
    layer_["core.optimize.unattributed_ms"].push_back(
        optimize_ms - op_work / hdmm::ThreadPool::Global().num_threads());
  }

  /// OPT_0's objective on the 256-cell Prefix Gram (the taxi attribute).
  void Opt0Evals(SpanRecorder* rec, int i) {
    ScopedSpan s(rec, "core.opt0.eval", i);
    const int p = static_cast<int>(kTaxiSide / 16);
    hdmm::PIdentityObjective objective(hdmm::PrefixGram(kTaxiSide), p);
    Rng rng(options_.seed);
    Vector theta(static_cast<size_t>(p * kTaxiSide));
    for (double& t : theta) t = rng.Uniform();
    Vector grad;
    objective.Eval(theta, &grad);  // Sizes the workspace.
    std::vector<double> us;
    for (int k = 0; k < kOpt0Evals; ++k) {
      const double t0 = NowUs();
      objective.Eval(theta, &grad);
      us.push_back(NowUs() - t0);
    }
    layer_["core.opt0.eval_us"].push_back(Median(us));
  }

  /// Replays one release through the layers' own entry points; the layer
  /// times plus engine.release.unattributed_ms equal the MeasureOr time.
  void ReplayRelease(Engine* engine, const MeasurementSession* session,
                     double measure_ms, SpanRecorder* rec, int i) {
    const uint64_t refusals0 = Count("accountant.refusals");
    const int root = rec->Begin("replay.release", i);
    std::shared_ptr<const hdmm::Strategy> strategy;
    auto timed = [&](const char* name, const std::function<void()>& body) {
      ScopedSpan s(rec, name, i);
      const double t0 = NowUs();
      body();
      return (NowUs() - t0) / 1e3;
    };
    const double plan_ms = timed("engine.plan.warm", [&] {
      StatusOr<hdmm::PlanResult> plan = engine->PlanOr(w_, nullptr);
      if (Track("release", plan.status())) strategy = plan.value().strategy;
    });
    if (strategy == nullptr) {
      rec->End(root);
      return;
    }
    const double charge_ms = timed("engine.accountant.charge", [&] {
      Track("release", engine->accountant().Charge(
                           dataset(), hdmm::PrivacyCharge::Laplace(kEpsilon)));
    });
    Rng noise(NoiseSeed(i) ^ 0x5eedull);
    Vector y;
    const double measure_layer_ms = timed("core.strategy.measure", [&] {
      y = strategy->Measure(x_, kEpsilon, &noise);
    });
    auto marginals =
        std::dynamic_pointer_cast<const hdmm::MarginalsStrategy>(strategy);
    Vector x_hat;
    double reconstruct_ms = 0;
    if (marginals == nullptr) {
      reconstruct_ms = timed("core.strategy.reconstruct",
                             [&] { x_hat = strategy->Reconstruct(y); });
    }
    hdmm::SessionStorageOptions storage = session->storage();
    if (storage.backend == hdmm::SessionStorage::kMmap)
      storage.dir = args_.workdir + "/replay-" + std::to_string(i);
    std::unique_ptr<MeasurementSession> rebuilt;  // Dies after the spans.
    const double build_ms = timed("engine.session.build", [&] {
      rebuilt =
          marginals != nullptr
              ? std::make_unique<MeasurementSession>(
                    w_.domain(), marginals, std::move(y),
                    hdmm::PrivacyCharge::Laplace(kEpsilon), storage)
              : std::make_unique<MeasurementSession>(
                    w_.domain(), std::move(x_hat),
                    hdmm::PrivacyCharge::Laplace(kEpsilon), strategy,
                    storage);
    });
    rec->End(root);
    const double parts =
        plan_ms + charge_ms + measure_layer_ms + reconstruct_ms + build_ms;
    layer_["engine.plan.warm_us"].push_back(plan_ms * 1e3);
    layer_["engine.accountant.charge_us"].push_back(charge_ms * 1e3);
    layer_["core.strategy.measure_ms"].push_back(measure_layer_ms);
    layer_["core.strategy.reconstruct_ms"].push_back(reconstruct_ms);
    layer_["engine.session.build_ms"].push_back(build_ms);
    layer_["engine.release.unattributed_ms"].push_back(measure_ms - parts);
    layer_["engine.accountant.refusals"].push_back(
        static_cast<double>(Count("accountant.refusals") - refusals0));
  }

  /// sf1-release: the first batch on a session pays the lazy summed-area
  /// table; an identical second batch does not.
  void MaterializeAndCoverage(const MeasurementSession* session,
                              const std::vector<BoxQuery>& batch,
                              double first_ms, SpanRecorder* rec, int i) {
    double second_ms = 0;
    {
      ScopedSpan s(rec, "engine.answer.repeat", i);
      const double t0 = NowUs();
      Track("answer", session->AnswerBatchOr(batch, nullptr).status());
      second_ms = (NowUs() - t0) / 1e3;
    }
    layer_["engine.answer.materialize_ms"].push_back(first_ms - second_ms);
    int64_t covered = 0;
    for (const BoxQuery& q : batch) covered += session->CoveredByMarginal(q);
    layer_["engine.answer.covered_ratio"].push_back(
        static_cast<double>(covered) / static_cast<double>(batch.size()));
  }

  // ------------------------------------------------------------ checks --

  bool Track(const char* phase, const hdmm::Status& status) {
    PhaseCount& c = phases_[phase];
    ++c.attempted;
    if (status.ok()) return true;
    ++c.failed;
    std::fprintf(stderr, "hdmm_e2e: %s failed: %s\n", phase,
                 status.ToString().c_str());
    return false;
  }

  uint64_t Failed() const {
    uint64_t failed = 0;
    for (const auto& [phase, c] : phases_) failed += c.failed;
    return failed;
  }

  void Check(bool ok, const std::string& what) {
    if (ok) return;
    if (std::find(failures_.begin(), failures_.end(), what) == failures_.end())
      failures_.push_back(what);
  }

  /// A sample of served answers equals brute-force sums: over x_hat for
  /// answers from the summed-area table, over a covering measured table for
  /// answers a marginal table served.
  void CheckSampledAnswers(const MeasurementSession& session,
                           const std::vector<BoxQuery>& queries,
                           const Vector& answers, int salt) {
    Check(answers.size() == queries.size(), "one answer per query");
    if (answers.size() != queries.size()) return;
    // Absolute tolerance scaled by the data's mass (1M records), far below
    // one record yet above summed-area-table rounding.
    const double tol = 1e-9 * (static_cast<double>(kRecords) + 1.0);
    Rng pick(args_.seed + 17ull * static_cast<uint64_t>(salt + 2));
    for (int k = 0; k < kBruteChecksPerBatch; ++k) {
      const size_t j = static_cast<size_t>(
          pick.UniformInt(0, static_cast<int64_t>(queries.size()) - 1));
      const BoxQuery& q = queries[j];
      bool matched = false;
      if (session.CoveredByMarginal(q)) {
        for (const auto& table : session.marginal_tables()) {
          if (TableCovers(table, sizes_, q) &&
              std::fabs(BruteTableSum(table, sizes_, q) - answers[j]) <= tol)
            matched = true;
        }
      } else {
        // XHat() is fetched only here: on a marginals session it forces the
        // full reconstruction, which covered answers never need.
        matched = std::fabs(BruteBoxSum(sizes_, session.XHat().data(), q) -
                            answers[j]) <= tol;
      }
      Check(matched, "sampled answers equal brute-force box sums");
    }
  }

  /// taxi-outofcore answers are bit-identical to a memory-backend session
  /// measured with the same noise seed.
  void CheckMatchesMemorySession(
      int i, const std::vector<std::vector<BoxQuery>>& queries,
      const std::vector<Vector>& answers) {
    Rng noise(NoiseSeed(i));
    Vector y = strategy_->Measure(x_, kEpsilon, &noise);
    MeasurementSession memory(w_.domain(), strategy_->Reconstruct(y),
                              hdmm::PrivacyCharge::Laplace(kEpsilon),
                              strategy_);
    for (size_t b = 0; b < queries.size(); ++b) {
      const Vector want = memory.AnswerBatch(queries[b]);
      Check(want.size() == answers[b].size() &&
                std::memcmp(want.data(), answers[b].data(),
                            want.size() * sizeof(double)) == 0,
            "mmap answers are bit-identical to a memory session's");
    }
  }

  /// Self times over a traced request's span tree sum to its duration.
  void CheckTreeSumsBack(int root) {
    const double total = spans_.span(root).DurationUs();
    Check(std::fabs(spans_.TreeSelfUs(root) - total) <= 1e-6 * (1 + total),
          "span self times sum to the traced request time");
  }

  void FinalChecks() {
    if (args_.workload == "taxi-cold") {
      const double mean = [&] {
        double s = 0;
        for (double r : mse_ratios_) s += r;
        return mse_ratios_.empty() ? 0.0 : s / mse_ratios_.size();
      }();
      Check(!mse_ratios_.empty() && std::fabs(mean - 1.0) <= kMseTolerance,
            "empirical workload MSE is within 10% of the expected MSE");
      if (!mse_ratios_.empty()) {
        std::printf(
            "empirical/expected workload MSE over %zu releases: %.4f "
            "(range %.4f..%.4f)\n",
            mse_ratios_.size(), mean,
            *std::min_element(mse_ratios_.begin(), mse_ratios_.end()),
            *std::max_element(mse_ratios_.begin(), mse_ratios_.end()));
      }
      return;
    }
    hdmm::BudgetAccountant& acct = engine_->accountant();
    Check(acct.Spent(dataset()) ==
              kEpsilon * static_cast<double>(acct.NumCharges(dataset())),
          "ledger spend equals charges x epsilon");
    std::printf("ledger: %lld charges, spent %.1f\n",
                static_cast<long long>(acct.NumCharges(dataset())),
                acct.Spent(dataset()));
  }

  // ------------------------------------------------------------ output --

  void PrintResult() {
    const uint64_t failed = Failed();
    uint64_t attempted = 0;
    for (const auto& [phase, c] : phases_) {
      attempted += c.attempted;
      std::printf("phase %-8s attempted %llu failed %llu\n", phase.c_str(),
                  static_cast<unsigned long long>(c.attempted),
                  static_cast<unsigned long long>(c.failed));
    }
    std::printf("host: nproc %u, pool width %d, gemm isa %s\n",
                std::thread::hardware_concurrency(),
                hdmm::ThreadPool::Global().num_threads(), hdmm::GemmIsaName());

    std::ostringstream m;
    m.precision(10);
    bool first = true;
    auto metric = [&](const std::string& name, double value, const char* unit) {
      // A median is infinite only when most requests failed; JSON has no
      // infinity, so the run reports 0 and fails.
      Check(std::isfinite(value), name + " is finite");
      m << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
        << (std::isfinite(value) ? value : 0.0) << ", \"unit\": \"" << unit
        << "\"}";
      first = false;
    };
    if (args_.trace) {
      EmitLayers(metric);
    } else {
      PrintSamples("request (ms)", request_ms_);
      PrintSamples("release (ms)", release_ms_);
      PrintSamples("answering per request (ms)", answer_request_ms_);
      // Tails only where at least 10 samples lie beyond them: the serving
      // workloads. A few dozen cold requests cannot support one.
      const perfbench::Tail tail = perfbench::SelectTail(release_ms_);
      if (tail.ok) {
        std::printf("release tail: p%g = %.6g ms over %zu releases, %zu "
                    "beyond\n",
                    tail.percentile, tail.value, release_ms_.size(),
                    tail.beyond);
      } else {
        std::printf("release tail: none (%zu releases support no "
                    "percentile)\n",
                    release_ms_.size());
      }
      metric("request_p50_ms", Median(request_ms_), "ms");
      metric("answers_per_s",
             queries_per_request_ / (Median(answer_request_ms_) / 1e3),
             "queries/s");
    }
    if (!args_.trace) {
      metric("expected_rmse", expected_rmse_, "records");
      metric("peak_rss_mb", PeakRssMb(), "MB");
      metric("success_ratio",
             attempted == 0 ? 0.0
                            : static_cast<double>(attempted - failed) /
                                  static_cast<double>(attempted),
             "fraction");
    }
    for (const std::string& f : failures_)
      std::printf("CHECK FAILED: %s\n", f.c_str());
    std::printf("failed_ratio %.6f\n",
                attempted == 0 ? 1.0
                               : static_cast<double>(failed) /
                                     static_cast<double>(attempted));
    std::printf(
        "RESULT {\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {%s}}\n",
        failures_.empty() ? "true" : "false",
        static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(failed), m.str().c_str());
  }

  static void PrintSamples(const char* what, std::vector<double> v) {
    if (v.empty()) return;
    std::sort(v.begin(), v.end());
    std::printf("%s: n %zu, min %.6g, p25 %.6g, p50 %.6g, p75 %.6g, max %.6g\n",
                what, v.size(), v.front(), v[v.size() / 4], Median(v),
                v[v.size() * 3 / 4], v.back());
  }

  template <typename Emit>
  void EmitLayers(Emit& metric) {
    struct Layer {
      const char* name;
      const char* unit;
    };
    static const Layer kLayers[] = {
        {"workload.build_ms", "ms"},
        {"core.optimize.ms", "ms"},
        {"core.optimize.unattributed_ms", "ms"},
        {"core.opt_kron.ms", "ms"},
        {"core.opt_union.ms", "ms"},
        {"core.opt_marginals.ms", "ms"},
        {"core.opt0.eval_us", "us"},
        {"optimize.lbfgsb.evals", "count"},
        {"core.optimize.restarts", "count"},
        {"core.gram_cache.hits", "count"},
        {"core.gram_cache.misses", "count"},
        {"core.gram_cache.closed_form", "count"},
        {"engine.measure.ms", "ms"},
        {"engine.plan.warm_us", "us"},
        {"engine.accountant.charge_us", "us"},
        {"engine.accountant.refusals", "count"},
        {"core.strategy.measure_ms", "ms"},
        {"core.strategy.reconstruct_ms", "ms"},
        {"engine.session.build_ms", "ms"},
        {"engine.tile_store.writes", "count"},
        {"engine.tile_store.seals", "count"},
        {"engine.tile_store.faults", "count"},
        {"engine.tile_store.hits", "count"},
        {"engine.tile_store.hit_ratio", "ratio"},
        {"engine.answer.batch_ms", "ms"},
        {"engine.answer.covered_ratio", "ratio"},
        {"engine.answer.materialize_ms", "ms"},
        {"common.thread_pool.tasks", "count"},
        {"common.thread_pool.steals", "count"},
        {"engine.release.unattributed_ms", "ms"},
    };
    for (const Layer& l : kLayers)
      metric(l.name, Median(layer_[l.name]), l.unit);
    metric("engine.strategy_cache.hit_ratio",
           cache_lookups_ == 0 ? 0.0
                               : static_cast<double>(cache_hits_) /
                                     static_cast<double>(cache_lookups_),
           "ratio");
    const double untraced = Median(untraced_request_ms_);
    metric("trace.overhead_pct",
           untraced > 0 ? (Median(traced_request_ms_) / untraced - 1.0) * 100
                        : 0.0,
           "%");
  }

  std::string dataset() const {
    return args_.workload == "sf1-release" ? "sf1" : "taxi";
  }

  Args args_;
  UnionWorkload w_;
  HdmmOptions options_;
  Vector x_;
  std::vector<int64_t> sizes_;
  std::vector<BoxQuery> workload_queries_;  // taxi-cold only.
  std::vector<double> true_answers_;        // taxi-cold only.
  std::unique_ptr<Engine> engine_;          // Serving workloads only.
  std::shared_ptr<const hdmm::Strategy> strategy_;
  std::string plan_name_;
  double expected_rmse_ = 0.0;
  double identity_rmse_ = 0.0;

  std::map<std::string, PhaseCount> phases_;
  std::vector<std::string> failures_;
  std::vector<double> mse_ratios_;
  std::vector<double> request_ms_;
  std::vector<double> release_ms_;
  std::vector<double> answer_request_ms_;
  double queries_per_request_ = 0.0;
  std::vector<double> untraced_request_ms_;
  std::vector<double> traced_request_ms_;
  std::map<std::string, std::vector<double>> layer_;
  uint64_t cache_hits_ = 0;
  uint64_t cache_lookups_ = 0;
  SpanRecorder spans_;
};

}  // namespace

int main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  hdmm::ThreadPool::SetGlobalThreads(
      std::min<int>(kPoolThreads,
                    std::max(1u, std::thread::hardware_concurrency())));
  std::filesystem::create_directories(args.workdir);
  Bench bench(std::move(args));
  return bench.Run();
}
