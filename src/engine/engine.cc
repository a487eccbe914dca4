#include "engine/engine.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/trace.h"
#include "core/gaussian.h"

namespace hdmm {

namespace {

// Resolves an attribute reference (name, or zero-based index for fully
// unnamed domains) without dying on unknown input — serve-mode queries are
// user-supplied and must fail softly. Named schemas never accept bare
// indices: positions silently shift when the schema changes, and a wrong
// answer is worse than a rejected query.
bool ResolveAttribute(const Domain& domain, const std::string& ref, int* out) {
  bool any_named = false;
  for (int i = 0; i < domain.NumAttributes(); ++i) {
    if (domain.AttributeName(i).empty()) continue;
    any_named = true;
    if (domain.AttributeName(i) == ref) {
      *out = i;
      return true;
    }
  }
  if (any_named) return false;
  char* end = nullptr;
  const long idx = std::strtol(ref.c_str(), &end, 10);
  if (!ref.empty() && end == ref.c_str() + ref.size() && idx >= 0 &&
      idx < domain.NumAttributes()) {
    *out = static_cast<int>(idx);
    return true;
  }
  return false;
}

bool ParseBound(const std::string& text, int64_t* lo, int64_t* hi,
                bool allow_range) {
  const size_t colon = text.find(':');
  char* end = nullptr;
  if (colon == std::string::npos) {
    *lo = std::strtoll(text.c_str(), &end, 10);
    if (text.empty() || end != text.c_str() + text.size()) return false;
    *hi = *lo;
    return true;
  }
  if (!allow_range) return false;
  const std::string a = text.substr(0, colon);
  const std::string b = text.substr(colon + 1);
  *lo = std::strtoll(a.c_str(), &end, 10);
  if (a.empty() || end != a.c_str() + a.size()) return false;
  *hi = std::strtoll(b.c_str(), &end, 10);
  if (b.empty() || end != b.c_str() + b.size()) return false;
  return true;
}

// Store build/read failures inside a session are fatal: there is no way to
// regenerate lost tiles without re-measuring (and re-charging) the dataset,
// so the failure must surface instead of degrading answers silently.
void DieOnStatus(const Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "session storage: %s: %s\n", what,
               status.ToString().c_str());
  std::abort();
}

// Resolves the session's private storage directory: mmap sessions with no
// configured dir claim a fresh unique directory under the system temp path.
SessionStorageOptions ResolveStorage(SessionStorageOptions storage) {
  if (storage.backend == SessionStorage::kMmap && storage.dir.empty()) {
    static std::atomic<uint64_t> counter{0};
    storage.dir = (std::filesystem::temp_directory_path() /
                   ("hdmm-session-" + std::to_string(::getpid()) + "-" +
                    std::to_string(counter.fetch_add(1))))
                      .string();
  }
  return storage;
}

}  // namespace

BoxQuery FullRangeQuery(const Domain& domain) {
  BoxQuery q;
  const int d = domain.NumAttributes();
  q.lo.assign(static_cast<size_t>(d), 0);
  q.hi.resize(static_cast<size_t>(d));
  for (int i = 0; i < d; ++i) {
    q.hi[static_cast<size_t>(i)] = domain.AttributeSize(i) - 1;
  }
  return q;
}

StatusOr<BoxQuery> ParseQueryLine(const std::string& line,
                                  const Domain& domain) {
  std::istringstream in(line);
  std::string kind;
  in >> kind;
  if (kind != "point" && kind != "marginal" && kind != "range") {
    return Status::InvalidArgument("unknown query kind '" + kind +
                                   "' (want point | marginal | range)");
  }
  const bool allow_range = kind == "range";
  BoxQuery out = FullRangeQuery(domain);
  std::vector<bool> seen(static_cast<size_t>(domain.NumAttributes()), false);

  std::string token;
  int bound_count = 0;
  while (in >> token) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument("bad term '" + token +
                                     "' (want attr=value)");
    }
    const std::string ref = token.substr(0, eq);
    int attr = -1;
    if (!ResolveAttribute(domain, ref, &attr)) {
      return Status::InvalidArgument("unknown attribute '" + ref + "'");
    }
    if (seen[static_cast<size_t>(attr)]) {
      return Status::InvalidArgument("attribute '" + ref + "' bound twice");
    }
    seen[static_cast<size_t>(attr)] = true;
    int64_t lo = 0, hi = 0;
    if (!ParseBound(token.substr(eq + 1), &lo, &hi, allow_range)) {
      return Status::InvalidArgument(
          "bad value '" + token.substr(eq + 1) + "'" +
          (allow_range ? " (want V or LO:HI)" : " (want a single value)"));
    }
    if (lo < 0 || hi < lo || hi >= domain.AttributeSize(attr)) {
      return Status::InvalidArgument(
          "bounds for '" + ref + "' outside [0, " +
          std::to_string(domain.AttributeSize(attr) - 1) + "]");
    }
    out.lo[static_cast<size_t>(attr)] = lo;
    out.hi[static_cast<size_t>(attr)] = hi;
    ++bound_count;
  }
  if (kind == "point" && bound_count != domain.NumAttributes()) {
    return Status::InvalidArgument(
        "point query must fix every attribute (" +
        std::to_string(bound_count) + " of " +
        std::to_string(domain.NumAttributes()) + " given)");
  }
  if (bound_count == 0 && kind != "range") {
    return Status::InvalidArgument("query binds no attributes");
  }
  return out;
}

// --------------------------------------------------------------- session --

MeasurementSession::MeasurementSession(
    Domain domain, Vector x_hat, PrivacyCharge charge,
    std::shared_ptr<const Strategy> strategy, SessionStorageOptions storage)
    : domain_(std::move(domain)),
      charge_(charge),
      strategy_(std::move(strategy)),
      storage_(ResolveStorage(std::move(storage))) {
  HDMM_CHECK(static_cast<int64_t>(x_hat.size()) == domain_.TotalSize());
  InitStrides();
  // Eager sessions materialize the summed-area table up front: the x_hat is
  // already paid for, and Answer must stay lock-free in the common case. On
  // the memory backend the incoming vector is adopted as the x_hat store
  // without copying; on the mmap backend it is streamed out tile-by-tile
  // (the fill callback below is only used on that path — BuildStores
  // replaces it with a store-backed reader when it adopts).
  const Vector& src = x_hat;
  BuildStores(
      [&src](int64_t begin, int64_t end, double* out) {
        std::copy(src.data() + begin, src.data() + end, out);
      },
      storage_.backend == SessionStorage::kMemory ? &x_hat : nullptr);
  materialized_.store(true, std::memory_order_release);
}

MeasurementSession::MeasurementSession(
    Domain domain, std::function<void(int64_t, int64_t, double*)> fill,
    PrivacyCharge charge, std::shared_ptr<const Strategy> strategy,
    SessionStorageOptions storage)
    : domain_(std::move(domain)),
      charge_(charge),
      strategy_(std::move(strategy)),
      storage_(ResolveStorage(std::move(storage))) {
  InitStrides();
  BuildStores(fill, nullptr);
  materialized_.store(true, std::memory_order_release);
}

MeasurementSession::MeasurementSession(
    Domain domain, std::shared_ptr<const MarginalsStrategy> strategy,
    Vector y, PrivacyCharge charge, SessionStorageOptions storage)
    : domain_(std::move(domain)),
      charge_(charge),
      strategy_(strategy),
      storage_(ResolveStorage(std::move(storage))) {
  HDMM_CHECK(strategy != nullptr);
  InitStrides();
  BuildMarginalTables(*strategy, y);
  y_ = std::move(y);
}

MeasurementSession::~MeasurementSession() {
  // Detach from the governor before anything else: after Unbind returns no
  // governor thread can reach this session's stores. The byte charge itself
  // is released later, when ticket_ (declared before the stores) destructs
  // after the mappings are gone.
  ticket_.Unbind();
  // Stores unmap and remove their own tile subdirectories first; then the
  // session's directory itself goes (mmap sessions own their storage).
  xhat_store_.reset();
  prefix_store_.reset();
  if (storage_.backend == SessionStorage::kMmap && !storage_.dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(storage_.dir, ec);
  }
}

void MeasurementSession::InitStrides() {
  const int d = domain_.NumAttributes();
  HDMM_CHECK_MSG(d <= 30, "box-query answering supports at most 30 attributes");
  strides_.assign(static_cast<size_t>(d), 1);
  for (int i = d - 2; i >= 0; --i) {
    strides_[static_cast<size_t>(i)] =
        strides_[static_cast<size_t>(i + 1)] * domain_.AttributeSize(i + 1);
  }
}

// Splits the raw measurement vector back into per-mask tables (Apply
// concatenates them in ActiveMasks order, each laid out row-major over the
// kept attributes) and unscales by theta so each table is the unbiased DP
// estimate of its marginal.
void MeasurementSession::BuildMarginalTables(const MarginalsStrategy& strategy,
                                             const Vector& y) {
  const Vector& theta = strategy.theta();
  size_t offset = 0;
  for (uint32_t mask : strategy.ActiveMasks()) {
    MeasuredMarginal table;
    table.mask = mask;
    int64_t cells = 1;
    for (int i = 0; i < domain_.NumAttributes(); ++i) {
      if ((mask >> i) & 1u) {
        table.attrs.push_back(i);
        cells *= domain_.AttributeSize(i);
      }
    }
    table.strides.assign(table.attrs.size(), 1);
    for (int i = static_cast<int>(table.attrs.size()) - 2; i >= 0; --i) {
      table.strides[static_cast<size_t>(i)] =
          table.strides[static_cast<size_t>(i + 1)] *
          domain_.AttributeSize(table.attrs[static_cast<size_t>(i + 1)]);
    }
    const double weight = theta[mask];
    HDMM_CHECK_MSG(weight > 0.0, "active marginal with non-positive weight");
    table.values.resize(static_cast<size_t>(cells));
    HDMM_CHECK(offset + table.values.size() <= y.size());
    for (int64_t i = 0; i < cells; ++i) {
      table.values[static_cast<size_t>(i)] =
          y[offset + static_cast<size_t>(i)] / weight;
    }
    offset += table.values.size();
    marginal_tables_.push_back(std::move(table));
  }
  HDMM_CHECK(offset == y.size());
}

// One streaming pass building both stores: each x_hat tile (produced by
// `fill`) is folded into the summed-area table in flattened row-major order,
// carrying per-axis prefix seams between cells. seams[a][i % strides_[a]]
// holds the summed-area value of the most recent cell one step back along
// axis a's coordinate at the same position on every inner axis — exactly the
// neighbor the classic per-axis prefix pass would read — so the pass never
// needs more than the seams (sum_a strides_[a] cells, ~N / n_0) plus two
// tile buffers, regardless of N.
void MeasurementSession::BuildStores(
    const std::function<void(int64_t, int64_t, double*)>& fill,
    Vector* adopt_xhat) const {
  const int64_t n = domain_.TotalSize();
  std::function<void(int64_t, int64_t, double*)> source = fill;
  if (adopt_xhat != nullptr && storage_.backend == SessionStorage::kMemory) {
    xhat_store_ =
        MemoryVectorStore::Adopt(std::move(*adopt_xhat), storage_.tile_bytes);
    const double* src = xhat_store_->ContiguousData();
    source = [src](int64_t begin, int64_t end, double* out) {
      std::copy(src + begin, src + end, out);
    };
  } else {
    xhat_store_ = MakeDataVectorStore(n, storage_, "xhat");
  }
  prefix_store_ = MakeDataVectorStore(n, storage_, "prefix");
  const bool append_xhat = !xhat_store_->sealed();

  const int d = domain_.NumAttributes();
  std::vector<Vector> seams(static_cast<size_t>(d));
  for (int a = 0; a < d; ++a) {
    seams[static_cast<size_t>(a)].assign(
        static_cast<size_t>(strides_[static_cast<size_t>(a)]), 0.0);
  }
  std::vector<int64_t> coord(static_cast<size_t>(d), 0);
  std::vector<int64_t> pos(static_cast<size_t>(d), 0);  // i % strides_[a].
  const int64_t tile_cells = prefix_store_->tile_cells();
  Vector xbuf(static_cast<size_t>(tile_cells));
  Vector pbuf(static_cast<size_t>(tile_cells));
  for (int64_t begin = 0; begin < n; begin += tile_cells) {
    const int64_t count = std::min(tile_cells, n - begin);
    source(begin, begin + count, xbuf.data());
    for (int64_t i = 0; i < count; ++i) {
      double v = xbuf[static_cast<size_t>(i)];
      // Inner axes first: by the time axis a folds in its seam, v already
      // holds the prefix over every axis after a — the same accumulation
      // order as running the per-axis passes innermost-first.
      for (int a = d - 1; a >= 0; --a) {
        Vector& seam = seams[static_cast<size_t>(a)];
        const size_t p = static_cast<size_t>(pos[static_cast<size_t>(a)]);
        if (coord[static_cast<size_t>(a)] > 0) v += seam[p];
        seam[p] = v;
      }
      pbuf[static_cast<size_t>(i)] = v;
      for (int a = d - 1; a >= 0; --a) {
        if (++coord[static_cast<size_t>(a)] < domain_.AttributeSize(a)) break;
        coord[static_cast<size_t>(a)] = 0;
      }
      for (int a = 0; a < d; ++a) {
        if (++pos[static_cast<size_t>(a)] ==
            strides_[static_cast<size_t>(a)]) {
          pos[static_cast<size_t>(a)] = 0;
        }
      }
    }
    if (append_xhat) {
      DieOnStatus(xhat_store_->AppendTile(xbuf.data(), count),
                  "appending x_hat tile");
    }
    DieOnStatus(prefix_store_->AppendTile(pbuf.data(), count),
                "appending summed-area tile");
  }
  if (append_xhat) DieOnStatus(xhat_store_->Seal(), "sealing x_hat store");
  DieOnStatus(prefix_store_->Seal(), "sealing summed-area store");
  prefix_contig_ = prefix_store_->ContiguousData();
}

void MeasurementSession::EnsureMaterialized() const {
  // Double-checked: the release store below publishes the fully built
  // stores, so once the acquire load sees true every reader is lock-free —
  // pool workers answering a batch must not serialize on the mutex.
  if (materialized_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(lazy_mu_);
  if (materialized_.load(std::memory_order_relaxed)) return;
  // First uncovered query on a marginals-measured session: stream x_hat out
  // of the strategy's closed-form pseudo-inverse (re-expressed as compact
  // per-submask tables) and fold it into the summed-area stores tile by
  // tile. Post-processing only — no budget involved — and no full-domain
  // intermediate is ever held.
  const auto* marginals =
      dynamic_cast<const MarginalsStrategy*>(strategy_.get());
  HDMM_CHECK(marginals != nullptr);
  const MarginalsStreamReconstructor recon(*marginals, y_);
  BuildStores(
      [&recon](int64_t begin, int64_t end, double* out) {
        recon.Fill(begin, end, out);
      },
      nullptr);
  // The raw measurement is dead weight from here on: covered queries read
  // marginal_tables_, everything else reads the summed-area store.
  y_.clear();
  y_.shrink_to_fit();
  materialized_.store(true, std::memory_order_release);
}

const Vector& MeasurementSession::XHat() const {
  EnsureMaterialized();
  if (const Vector* dense = xhat_store_->AsVector()) return *dense;
  // Mmap backend: densify once, on demand, under the lazy lock.
  std::lock_guard<std::mutex> lock(lazy_mu_);
  if (static_cast<int64_t>(xhat_dense_.size()) != domain_.TotalSize()) {
    xhat_dense_.resize(static_cast<size_t>(domain_.TotalSize()));
    for (int64_t t = 0; t < xhat_store_->num_tiles(); ++t) {
      StatusOr<TileRef> ref = xhat_store_->Tile(t);
      DieOnStatus(ref.status(), "reading x_hat tile");
      const TileRef& tile = ref.value();
      std::copy(tile.data(), tile.data() + tile.cells(),
                xhat_dense_.data() + t * xhat_store_->tile_cells());
    }
  }
  return xhat_dense_;
}

const MeasuredMarginal* MeasurementSession::CoveringTable(
    const BoxQuery& q) const {
  if (marginal_tables_.empty()) return nullptr;
  const int d = domain_.NumAttributes();
  uint32_t constrained = 0;
  for (int i = 0; i < d; ++i) {
    if (q.lo[static_cast<size_t>(i)] != 0 ||
        q.hi[static_cast<size_t>(i)] != domain_.AttributeSize(i) - 1) {
      constrained |= 1u << i;
    }
  }
  const MeasuredMarginal* best = nullptr;
  int64_t best_cells = 0;
  for (const MeasuredMarginal& table : marginal_tables_) {
    if ((constrained & ~table.mask) != 0) continue;  // Not covered.
    int64_t cells = 1;
    for (int attr : table.attrs) {
      cells *= q.hi[static_cast<size_t>(attr)] -
               q.lo[static_cast<size_t>(attr)] + 1;
    }
    if (best == nullptr || cells < best_cells) {
      best = &table;
      best_cells = cells;
    }
  }
  return best;
}

bool MeasurementSession::CoveredByMarginal(const BoxQuery& q) const {
  return CoveringTable(q) != nullptr;
}

// Sums the table over the query's sub-box (odometer over the kept
// attributes). Cost is the number of covered marginal cells — independent of
// the full domain size, which is the point of serving from marginal tables.
double MeasurementSession::AnswerFromTable(const MeasuredMarginal& table,
                                           const BoxQuery& q) const {
  const size_t k = table.attrs.size();
  std::vector<int64_t> coord(k);
  int64_t index = 0;
  for (size_t i = 0; i < k; ++i) {
    coord[i] = q.lo[static_cast<size_t>(table.attrs[i])];
    index += coord[i] * table.strides[i];
  }
  double total = 0.0;
  while (true) {
    total += table.values[static_cast<size_t>(index)];
    size_t axis = k;
    while (axis > 0) {
      const size_t i = axis - 1;
      const int attr = table.attrs[i];
      if (coord[i] < q.hi[static_cast<size_t>(attr)]) {
        ++coord[i];
        index += table.strides[i];
        break;
      }
      index -= (coord[i] - q.lo[static_cast<size_t>(attr)]) * table.strides[i];
      coord[i] = q.lo[static_cast<size_t>(attr)];
      --axis;
    }
    if (axis == 0) break;
  }
  return total;
}

double MeasurementSession::Answer(const BoxQuery& q) const {
  ticket_.Touch();  // Governor LRU recency; throttled internally.
  return AnswerImpl(q);
}

double MeasurementSession::AnswerImpl(const BoxQuery& q) const {
  const int d = domain_.NumAttributes();
  HDMM_CHECK_MSG(static_cast<int>(q.lo.size()) == d &&
                     static_cast<int>(q.hi.size()) == d,
                 "query arity does not match the domain");
  for (int i = 0; i < d; ++i) {
    HDMM_CHECK_MSG(q.lo[static_cast<size_t>(i)] >= 0 &&
                       q.hi[static_cast<size_t>(i)] >=
                           q.lo[static_cast<size_t>(i)] &&
                       q.hi[static_cast<size_t>(i)] < domain_.AttributeSize(i),
                   "query bounds outside the domain");
  }

  // Marginals-measured sessions answer covered queries straight from the
  // smallest covering measured table — no full-domain reconstruction.
  if (const MeasuredMarginal* table = CoveringTable(q)) {
    return AnswerFromTable(*table, q);
  }

  // Inclusion-exclusion over the 2^d box corners: corner bit i picks the
  // (lo_i - 1) face; a corner with any coordinate -1 contributes zero. Each
  // corner is one summed-area-table cell, so the mmap backend touches at
  // most 2^d tiles per query no matter how large the domain is.
  EnsureMaterialized();
  double total = 0.0;
  const uint32_t corners = 1u << d;
  for (uint32_t mask = 0; mask < corners; ++mask) {
    int64_t index = 0;
    bool outside = false;
    for (int i = 0; i < d && !outside; ++i) {
      const int64_t coord = (mask >> i) & 1u
                                ? q.lo[static_cast<size_t>(i)] - 1
                                : q.hi[static_cast<size_t>(i)];
      if (coord < 0) {
        outside = true;
      } else {
        index += coord * strides_[static_cast<size_t>(i)];
      }
    }
    if (outside) continue;
    const bool negate = __builtin_popcount(mask) & 1;
    const double term = PrefixAt(index);
    total += negate ? -term : term;
  }
  return total;
}

Vector MeasurementSession::AnswerBatch(
    const std::vector<BoxQuery>& queries) const {
  // Without a token AnswerBatchOr cannot fail.
  return std::move(AnswerBatchOr(queries, nullptr)).value();
}

StatusOr<Vector> MeasurementSession::AnswerBatchOr(
    const std::vector<BoxQuery>& queries, const CancelToken* cancel) const {
  // A blown deadline must cost nothing: check before the (potentially
  // expensive) lazy materialization and again once per pool chunk.
  // Answering is post-processing of an already-paid release, so the only
  // thing a cancelled batch loses is the partial answers themselves.
  if (CancelRequested(cancel)) return cancel->StopStatus();
  // One recency touch per batch, not per query: the SAT inner loop answers
  // in tens of nanoseconds and must not share the ticket's touch counter
  // across pool threads.
  ticket_.Touch();
  // Materialize the summed-area table up front when any query will need it,
  // so reconstruction cost is paid once before the parallel region instead
  // of stalling the first worker to hit an uncovered query. Skipped when
  // already materialized (then Answer is lock-free throughout).
  if (!materialized_.load(std::memory_order_acquire)) {
    for (const BoxQuery& q : queries) {
      if (!CoveredByMarginal(q)) {
        EnsureMaterialized();
        break;
      }
    }
  }
  HDMM_TRACE_SPAN("AnswerBatch");
  WallTimer timer;
  Vector answers(queries.size(), 0.0);
  std::atomic<bool> stopped{false};
  ComputePool().ParallelFor(
      0, static_cast<int64_t>(queries.size()), /*grain=*/64,
      [&](int64_t begin, int64_t end) {
        HDMM_TRACE_SPAN("AnswerBatch.chunk");
        if (CancelRequested(cancel)) {
          stopped.store(true, std::memory_order_relaxed);
          return;
        }
        for (int64_t i = begin; i < end; ++i) {
          answers[static_cast<size_t>(i)] =
              AnswerImpl(queries[static_cast<size_t>(i)]);
        }
      });
  if (stopped.load(std::memory_order_relaxed)) return cancel->StopStatus();
  static Counter* const batches =
      Metrics::GetCounter("engine.answer_batch.count");
  static Counter* const answered =
      Metrics::GetCounter("engine.answer_batch.queries");
  static Histogram* const latency =
      Metrics::GetHistogram("engine.answer_batch.latency_ns");
  batches->Add(1);
  answered->Add(queries.size());
  latency->Record(static_cast<uint64_t>(timer.Seconds() * 1e9));
  return answers;
}

// ------------------------------------------------- session governor hooks --

bool MeasurementSession::Hibernatable() const {
  // Only mmap sessions with live stores have anything to shed; the stores
  // are created before materialized_ flips true and never replaced after,
  // so once this returns true the store pointers are stable.
  return storage_.backend == SessionStorage::kMmap &&
         materialized_.load(std::memory_order_acquire);
}

void MeasurementSession::HibernateStores() {
  if (!Hibernatable()) return;
  if (auto* xhat = dynamic_cast<MmapTileStore*>(xhat_store_.get())) {
    xhat->SetHotTileBudget(0);
  }
  if (auto* prefix = dynamic_cast<MmapTileStore*>(prefix_store_.get())) {
    prefix->SetHotTileBudget(0);
  }
  // Drop the XHat() densification cache too — it is a debugging affordance,
  // rebuilt on demand, and under memory pressure it is pure ballast.
  std::lock_guard<std::mutex> lock(lazy_mu_);
  xhat_dense_.clear();
  xhat_dense_.shrink_to_fit();
}

void MeasurementSession::WakeStores() {
  if (!Hibernatable()) return;
  if (auto* xhat = dynamic_cast<MmapTileStore*>(xhat_store_.get())) {
    xhat->SetHotTileBudget(storage_.hot_tile_budget);
  }
  if (auto* prefix = dynamic_cast<MmapTileStore*>(prefix_store_.get())) {
    prefix->SetHotTileBudget(storage_.hot_tile_budget);
  }
}

void MeasurementSession::AttachTicket(AdmissionTicket ticket) {
  ticket_ = std::move(ticket);
  ticket_.Bind(this);
}

// ---------------------------------------------------------------- engine --

const char* PlanSourceName(PlanSource source) {
  switch (source) {
    case PlanSource::kMemoryCache:
      return "memory-cache";
    case PlanSource::kDiskCache:
      return "disk-cache";
    case PlanSource::kOptimized:
      return "optimized";
  }
  return "unknown";
}

MeasureRequest MeasureRequest::Laplace(double epsilon) {
  MeasureRequest request;
  request.mechanism = Mechanism::kLaplace;
  request.epsilon = epsilon;
  return request;
}

MeasureRequest MeasureRequest::Gaussian(double rho) {
  MeasureRequest request;
  request.mechanism = Mechanism::kGaussian;
  request.rho = rho;
  return request;
}

namespace {

BudgetAccountantOptions AccountantOptions(const EngineOptions& options) {
  BudgetAccountantOptions accountant;
  accountant.regime = options.regime;
  accountant.total_epsilon = options.total_epsilon;
  accountant.total_rho = options.total_rho;
  accountant.delta = options.delta;
  accountant.ledger_path = options.ledger_path;
  // Engine-level overrides are epsilon ceilings; the accountant's are in
  // regime units, so convert exactly as the default ceiling is converted.
  for (const auto& [dataset, epsilon] : options.dataset_budgets) {
    accountant.dataset_ceilings[dataset] =
        options.regime == BudgetRegime::kPureDp
            ? epsilon
            : RhoFromEpsilonDelta(epsilon, options.delta);
  }
  return accountant;
}

// Each measured session gets its own storage directory under the configured
// base (so concurrent sessions never share tile files); an empty base lets
// the session derive a unique temp directory itself.
SessionStorageOptions PerSessionStorage(const SessionStorageOptions& base) {
  SessionStorageOptions storage = base;
  if (storage.backend == SessionStorage::kMmap && !storage.dir.empty()) {
    static std::atomic<uint64_t> counter{0};
    storage.dir = (std::filesystem::path(storage.dir) /
                   ("session-" + std::to_string(counter.fetch_add(1))))
                      .string();
  }
  return storage;
}

}  // namespace

Engine::Engine(EngineOptions options)
    : options_(std::move(options)),
      cache_(options_.cache),
      accountant_(AccountantOptions(options_)) {
  if (options_.governor.max_sessions > 0 ||
      options_.governor.memory_budget_bytes > 0) {
    governor_ = std::make_shared<ResourceGovernor>(options_.governor);
  }
}

StatusOr<PlanResult> Engine::PlanOr(const UnionWorkload& w,
                                    const CancelToken* cancel) {
  HDMM_TRACE_SPAN("Engine::Plan");
  static Counter* const memory_hits =
      Metrics::GetCounter("engine.plan.memory_hits");
  static Counter* const disk_hits =
      Metrics::GetCounter("engine.plan.disk_hits");
  static Counter* const optimized_count =
      Metrics::GetCounter("engine.plan.optimized");
  static Histogram* const latency =
      Metrics::GetHistogram("engine.plan.latency_ns");

  if (CancelRequested(cancel)) return cancel->StopStatus();

  WallTimer timer;
  PlanResult result;
  result.fingerprint = FingerprintPlan(w, options_.optimizer);

  StrategyCache::Tier tier = StrategyCache::Tier::kMiss;
  result.strategy = cache_.Get(result.fingerprint, &tier);
  if (result.strategy != nullptr &&
      result.strategy->DomainSize() != w.DomainSize()) {
    // A stale or foreign cache entry (copied cache directory, hand-placed
    // file, fingerprint collision): a strategy for a different domain can
    // never serve this plan, so treat it as a miss — the fresh optimization
    // below overwrites the bad entry.
    result.strategy = nullptr;
  }
  if (result.strategy != nullptr) {
    result.source = tier == StrategyCache::Tier::kMemory
                        ? PlanSource::kMemoryCache
                        : PlanSource::kDiskCache;
    (tier == StrategyCache::Tier::kMemory ? memory_hits : disk_hits)->Add(1);
    result.seconds = timer.Seconds();
    latency->Record(static_cast<uint64_t>(result.seconds * 1e9));
    return result;
  }

  HdmmOptions optimizer = options_.optimizer;
  optimizer.cancel = cancel;
  HdmmResult optimized = OptimizeStrategy(w, optimizer);
  if (optimized.cancelled) {
    // No side effects on a cancelled plan: the partial strategy is a
    // best-so-far, not the deterministic full-grid winner, so caching (or
    // returning) it would make plan quality depend on the deadline.
    static Counter* const cancelled_count =
        Metrics::GetCounter("engine.plan.cancelled");
    cancelled_count->Add(1);
    return cancel->StopStatus();
  }
  result.strategy = std::shared_ptr<const Strategy>(std::move(
      optimized.strategy));
  result.source = PlanSource::kOptimized;
  // A failed write-through must not be silent: the plan still serves, but
  // every restart would re-optimize until the directory is fixed.
  result.cache_error = cache_.Put(result.fingerprint, result.strategy);
  optimized_count->Add(1);
  result.seconds = timer.Seconds();
  latency->Record(static_cast<uint64_t>(result.seconds * 1e9));
  return result;
}

StatusOr<std::unique_ptr<MeasurementSession>> Engine::MeasureOr(
    const UnionWorkload& w, const std::string& dataset_id, const Vector& x,
    const MeasureRequest& request, Rng* rng, const CancelToken* cancel) {
  HDMM_TRACE_SPAN("Engine::Measure");
  static Histogram* const latency =
      Metrics::GetHistogram("engine.measure.latency_ns");
  WallTimer timer;
  HDMM_CHECK(rng != nullptr);
  HDMM_CHECK_MSG(static_cast<int64_t>(x.size()) == w.DomainSize(),
                 "data vector length does not match the workload domain");

  const PrivacyCharge charge =
      request.mechanism == Mechanism::kLaplace
          ? PrivacyCharge::Laplace(request.epsilon)
          : PrivacyCharge::Gaussian(request.rho);

  // Refusals must precede every side effect. Order: deadline, admission,
  // plan (cancellable; data-independent, no budget), deadline again, and
  // only then the accountant — which itself refuses before drawing noise.
  if (CancelRequested(cancel)) return cancel->StopStatus();

  SessionStorageOptions storage = options_.session_storage;
  AdmissionTicket ticket;
  if (governor_ != nullptr) {
    StatusOr<AdmissionTicket> admitted =
        governor_->Admit(w.DomainSize(), &storage);
    if (!admitted.ok()) return admitted.status();
    ticket = std::move(admitted).value();
    // The ticket's RAII release keeps every early return below charge-
    // neutral on the governor too.
  }
  storage = PerSessionStorage(storage);

  StatusOr<PlanResult> planned = PlanOr(w, cancel);
  if (!planned.ok()) return planned.status();
  PlanResult plan = std::move(planned).value();
  if (CancelRequested(cancel)) return cancel->StopStatus();

  const Status charged = accountant_.Charge(dataset_id, charge);
  if (!charged.ok()) {
    return charged.Annotated("dataset '" + dataset_id + "'");
  }

  Vector y = request.mechanism == Mechanism::kLaplace
                 ? plan.strategy->Measure(x, request.epsilon, rng)
                 : plan.strategy->MeasureGaussian(x, request.rho, rng);

  // Marginals plans serve covered queries straight from the measured
  // marginal tables; x_hat reconstruction is deferred until an uncovered
  // query arrives.
  if (auto marginals =
          std::dynamic_pointer_cast<const MarginalsStrategy>(plan.strategy)) {
    auto session = std::make_unique<MeasurementSession>(
        w.domain(), marginals, std::move(y), charge, storage);
    session->AttachTicket(std::move(ticket));
    latency->Record(static_cast<uint64_t>(timer.Seconds() * 1e9));
    return session;
  }

  Vector x_hat = plan.strategy->Reconstruct(y);
  auto session = std::make_unique<MeasurementSession>(
      w.domain(), std::move(x_hat), charge, plan.strategy, storage);
  session->AttachTicket(std::move(ticket));
  latency->Record(static_cast<uint64_t>(timer.Seconds() * 1e9));
  return session;
}

}  // namespace hdmm
