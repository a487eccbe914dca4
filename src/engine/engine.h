// The serving engine: the library's compute-once/serve-many layer.
//
//   PlanOr      optimize-or-cache — fingerprint the (workload, options) pair,
//               consult the two-tier StrategyCache, and only fall back to
//               OPT_HDMM on a genuine miss.
//   MeasureOr   one budgeted noisy measurement of a dataset: the accountant
//               charges the measurement's privacy cost (epsilon under pure-dp
//               sequential composition, rho under zCDP — refusing over-budget
//               requests before any noise is drawn), then the session holds
//               the release for unlimited free post-processing.
//   AnswerBatch pool-parallel batched answering of point/range/marginal
//               queries. Sessions measured with a marginals strategy answer
//               covered queries directly from the measured marginal tables
//               (no full-domain reconstruction needed); everything else — and
//               uncovered queries — goes through a d-dimensional summed-area
//               table of x_hat (inclusion-exclusion over 2^d corners), built
//               lazily on first use, so a batch never densifies a workload
//               matrix and per-query cost is O(2^d) instead of O(N).
//
// Everything downstream of MeasureOr is post-processing of a differentially
// private release: answering any number of queries from a session consumes
// no additional budget.
#ifndef HDMM_ENGINE_ENGINE_H_
#define HDMM_ENGINE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/deadline.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/hdmm.h"
#include "core/strategy.h"
#include "engine/accountant.h"
#include "engine/fingerprint.h"
#include "engine/governor.h"
#include "engine/privacy.h"
#include "engine/strategy_cache.h"
#include "engine/tile_store.h"
#include "linalg/matrix.h"
#include "workload/domain.h"
#include "workload/workload.h"

namespace hdmm {

/// An axis-aligned box query over the domain: the answer is
/// sum_{lo <= t <= hi} x_hat[t] (bounds inclusive, per attribute). Point
/// queries fix every attribute (lo == hi everywhere); marginal-cell queries
/// fix a subset and leave the rest full-range.
struct BoxQuery {
  std::vector<int64_t> lo;
  std::vector<int64_t> hi;
};

/// A full-range box over every attribute of `domain` (the Total query).
BoxQuery FullRangeQuery(const Domain& domain);

/// Parses one query line against a domain:
///
///   point    attr=V [attr=V ...]     every attribute required
///   marginal attr=V [attr=V ...]     named attributes fixed, rest summed
///   range    attr=LO:HI [attr=V ...] named attributes bounded, rest full
///
/// Attributes are referenced by name; zero-based indices are accepted only
/// for fully unnamed domains (on a named schema a bare index is rejected —
/// silently binding positions would answer the wrong query if the schema
/// order ever changes). kInvalidArgument on malformed input, unknown
/// attributes, out-of-range values, or (for `point`) missing attributes.
StatusOr<BoxQuery> ParseQueryLine(const std::string& line,
                                  const Domain& domain);

/// One measured (noisy, theta-unscaled) marginal table: the unbiased DP
/// estimate of the marginal over `mask`'s attributes, laid out row-major
/// over the kept attributes in ascending attribute order.
struct MeasuredMarginal {
  uint32_t mask = 0;
  std::vector<int> attrs;        ///< Kept attributes, ascending.
  std::vector<int64_t> strides;  ///< Per kept attribute, within the table.
  Vector values;                 ///< Product of kept sizes entries.
};

/// One noisy measurement of a dataset and the state needed to answer
/// queries from it. Two shapes:
///
///   - generic: holds the reconstructed x_hat (and its summed-area table).
///   - marginals-measured: holds the measured marginal tables; box queries
///     whose constrained attributes are covered by an active marginal are
///     answered by summing the (smallest covering) table directly, and the
///     full x_hat + summed-area table is only reconstructed — lazily, once,
///     thread-safely — if an uncovered query arrives.
///
/// Both full-domain vectors (x_hat and its summed-area table) live in
/// DataVectorStores selected by SessionStorageOptions: the in-memory backend
/// keeps the pre-PR behavior (contiguous vectors, lock-free answering),
/// while the mmap backend tiles both vectors onto per-tile files so a
/// session over a domain far larger than RAM still answers box queries by
/// touching only the O(2^d) corner tiles of the summed-area table. The
/// summed-area table is built tile-by-tile in one streaming pass (per-axis
/// prefix seams carried between tiles), so construction never holds the
/// full table either; for marginals-measured sessions even x_hat itself is
/// produced tile-by-tile through MarginalsStreamReconstructor.
///
/// Sessions are safe to share across threads for answering.
///
/// Sessions participate in resource governance (GovernedSession): a session
/// measured through a governed Engine carries an AdmissionTicket charging
/// its footprint estimate against the governor's budget until destruction,
/// and the governor may hibernate an idle mmap session (drop its hot-tile
/// LRUs; answers keep working, one transient tile at a time) to make room
/// for new admissions.
class MeasurementSession : public GovernedSession {
 public:
  /// Generic session over an already-reconstructed x_hat.
  MeasurementSession(Domain domain, Vector x_hat, PrivacyCharge charge,
                     std::shared_ptr<const Strategy> strategy,
                     SessionStorageOptions storage = {});

  /// Generic session whose x_hat is produced by `fill` over flattened cell
  /// ranges (fill(begin, end, out) writes cells [begin, end) into out). The
  /// out-of-core construction path: the full data vector never exists in
  /// RAM — on the mmap backend peak transient memory is two tile buffers
  /// plus the per-axis prefix seams, regardless of domain size.
  MeasurementSession(Domain domain,
                     std::function<void(int64_t, int64_t, double*)> fill,
                     PrivacyCharge charge,
                     std::shared_ptr<const Strategy> strategy,
                     SessionStorageOptions storage = {});

  /// Marginals-measured session: `y` is the strategy's raw measurement
  /// vector (theta-weighted marginal tables concatenated in ActiveMasks
  /// order); x_hat reconstruction is deferred until an uncovered query
  /// needs it.
  MeasurementSession(Domain domain,
                     std::shared_ptr<const MarginalsStrategy> strategy,
                     Vector y, PrivacyCharge charge,
                     SessionStorageOptions storage = {});

  /// Removes the session's storage directory (mmap backend) — sessions own
  /// their on-disk state.
  ~MeasurementSession() override;

  const Domain& domain() const { return domain_; }
  Mechanism mechanism() const { return charge_.mechanism; }
  /// Pure-dp cost of this measurement (0 for Gaussian measurements).
  double epsilon() const { return charge_.epsilon; }
  /// zCDP cost of this measurement (0 for Laplace measurements).
  double rho() const { return charge_.rho; }
  const std::shared_ptr<const Strategy>& strategy() const { return strategy_; }

  /// The reconstructed data vector; triggers (and caches) reconstruction on
  /// a marginals-measured session. On the mmap backend this densifies the
  /// whole vector into RAM (cached) — a debugging/accuracy-check affordance,
  /// not the serving path; callers that only answer queries never pay it.
  const Vector& XHat() const;

  /// The storage configuration this session was built with (dir resolved).
  const SessionStorageOptions& storage() const { return storage_; }

  /// The measured marginal tables (empty for generic sessions).
  const std::vector<MeasuredMarginal>& marginal_tables() const {
    return marginal_tables_;
  }

  /// Answers one box query: from the smallest covering measured marginal
  /// when one exists, else in O(2^d) from the summed-area table.
  double Answer(const BoxQuery& q) const;

  /// Answers a batch, sharded across the persistent ThreadPool.
  Vector AnswerBatch(const std::vector<BoxQuery>& queries) const;

  /// AnswerBatch with a cooperative stop: polled once per pool chunk (and
  /// before any lazy materialization), returning kDeadlineExceeded without
  /// side effects — the session stays fully serviceable, and answering is
  /// post-processing so no budget is at stake. Null `cancel` never fails.
  StatusOr<Vector> AnswerBatchOr(const std::vector<BoxQuery>& queries,
                                 const CancelToken* cancel) const;

  /// True when `q` would be answered from a measured marginal table.
  bool CoveredByMarginal(const BoxQuery& q) const;

  /// Governor hooks (GovernedSession). Hibernation only applies to mmap
  /// sessions whose stores exist; both calls are idempotent and safe
  /// against concurrent answering.
  bool Hibernatable() const override;
  void HibernateStores() override;
  void WakeStores() override;

  /// Takes ownership of the admission ticket charging this session against
  /// the engine's governor, and binds the session to it so the hibernation
  /// rung can reach the stores. Called once by Engine::MeasureOr.
  void AttachTicket(AdmissionTicket ticket);

 private:
  void InitStrides();
  void BuildMarginalTables(const MarginalsStrategy& strategy,
                           const Vector& y);
  /// Streams x_hat (produced by `fill` over cell ranges) into the tiled
  /// stores: one pass that appends each x_hat tile and the matching
  /// summed-area-table tile, carrying per-axis prefix seams between tiles —
  /// peak transient memory is two tile buffers plus the seams
  /// (sum_a strides_[a] cells, i.e. ~N / n_0 for the leading attribute's
  /// size n_0), never the full table. With `adopt_xhat` non-null the vector
  /// is adopted as the x_hat store (memory backend, zero copy) instead of
  /// being re-appended. Caller must hold lazy_mu_ or be the constructor.
  void BuildStores(const std::function<void(int64_t, int64_t, double*)>& fill,
                   Vector* adopt_xhat) const;
  /// The covering table with the fewest cells to sum, or nullptr.
  const MeasuredMarginal* CoveringTable(const BoxQuery& q) const;
  /// Answer() minus the governor Touch(): the batched path touches once per
  /// batch at the AnswerBatchOr entry, keeping the per-query loop free of
  /// the ticket's shared counter.
  double AnswerImpl(const BoxQuery& q) const;
  double AnswerFromTable(const MeasuredMarginal& table,
                         const BoxQuery& q) const;
  /// Builds x_hat + summed-area stores on first use (marginals sessions
  /// defer this until an uncovered query arrives). Lock-free once
  /// materialized.
  void EnsureMaterialized() const;
  /// One summed-area-table cell: contiguous read on the memory backend,
  /// tile-pinned read on the mmap backend.
  double PrefixAt(int64_t index) const {
    return prefix_contig_ != nullptr ? prefix_contig_[index]
                                     : prefix_store_->At(index);
  }

  Domain domain_;
  PrivacyCharge charge_;
  std::shared_ptr<const Strategy> strategy_;
  SessionStorageOptions storage_;  // dir resolved to this session's own.
  /// Governor charge; inert when the engine is ungoverned. Unbound first
  /// thing in the destructor (so the governor never touches a dying
  /// session) and released only after the stores unmap (so the byte charge
  /// outlives the mappings it accounts for). Mutable: Touch() from the
  /// const answer path only updates recency metadata.
  mutable AdmissionTicket ticket_;
  std::vector<int64_t> strides_;  // Row-major strides per attribute.
  std::vector<MeasuredMarginal> marginal_tables_;

  mutable Vector y_;  // Raw measurement; released once x_hat materializes.
  mutable std::mutex lazy_mu_;
  mutable std::atomic<bool> materialized_{false};
  mutable std::unique_ptr<DataVectorStore> xhat_store_;
  mutable std::unique_ptr<DataVectorStore> prefix_store_;
  /// Non-null iff prefix_store_ is contiguous (memory backend fast path).
  mutable const double* prefix_contig_ = nullptr;
  mutable Vector xhat_dense_;  // XHat() cache for the mmap backend.
};

struct EngineOptions {
  /// Optimizer configuration; part of the plan fingerprint.
  HdmmOptions optimizer;

  /// Strategy cache configuration (set cache.disk_dir for persistence).
  StrategyCacheOptions cache;

  /// Data-vector storage for measurement sessions. The default (in-memory)
  /// keeps everything in RAM; `mmap` tiles each session's x_hat and
  /// summed-area table onto files so sessions over domains larger than RAM
  /// still serve box queries. `session_storage.dir` is a base directory —
  /// each session gets its own subdirectory under it (a unique temp
  /// directory when empty) and removes it on destruction.
  SessionStorageOptions session_storage;

  /// Accounting regime: pure-dp (Laplace only, epsilons add) or zcdp
  /// (rho adds; Gaussian costs rho, Laplace costs eps^2/2).
  BudgetRegime regime = BudgetRegime::kPureDp;

  /// Per-dataset epsilon ceiling. Under zcdp (with total_rho == 0) this is
  /// converted to the largest rho whose Bun-Steinke report stays within
  /// (total_epsilon, delta).
  double total_epsilon = 1.0;

  /// Direct per-dataset rho ceiling for the zcdp regime; 0 derives it from
  /// (total_epsilon, delta).
  double total_rho = 0.0;

  /// Reporting delta for the zcdp regime.
  double delta = 1e-9;

  /// Per-dataset epsilon-ceiling overrides; datasets not listed get
  /// total_epsilon (or total_rho). Each value is converted to the
  /// accountant's regime units exactly like total_epsilon — passed through
  /// under pure-dp, inverted through Bun-Steinke against `delta` under
  /// zcdp — so a sensitive dataset can be pinned below the fleet default.
  std::unordered_map<std::string, double> dataset_budgets;

  /// Durable budget ledger file (see BudgetAccountant). Deployments that
  /// persist strategies across restarts should persist the ledger too —
  /// otherwise every restart hands out the full budget again.
  std::string ledger_path;

  /// Admission control and the degradation ladder (see engine/governor.h).
  /// With both limits 0 (the default) no governor is constructed and the
  /// serving path is identical to the ungoverned one.
  GovernorOptions governor;
};

/// Where a planned strategy came from.
enum class PlanSource { kMemoryCache, kDiskCache, kOptimized };

const char* PlanSourceName(PlanSource source);

struct PlanResult {
  std::shared_ptr<const Strategy> strategy;
  Fingerprint fingerprint;
  PlanSource source = PlanSource::kOptimized;
  double seconds = 0.0;  ///< Wall time spent inside PlanOr.
  /// Not OK when a freshly optimized strategy could not be written through
  /// to the disk tier (the in-memory plan is still valid, but warm restarts
  /// will re-optimize until the directory is fixed).
  Status cache_error;
};

/// One measurement request: which mechanism, at what cost.
struct MeasureRequest {
  Mechanism mechanism = Mechanism::kLaplace;
  double epsilon = 0.0;  ///< Laplace budget; required for kLaplace.
  double rho = 0.0;      ///< zCDP budget; required for kGaussian.

  static MeasureRequest Laplace(double epsilon);
  static MeasureRequest Gaussian(double rho);
};

/// The serving facade. Thread-safe: PlanOr/MeasureOr may be called
/// concurrently; sessions returned by MeasureOr are independent.
class Engine {
 public:
  explicit Engine(EngineOptions options);

  /// Optimize-or-cache. On a miss runs OPT_HDMM and write-throughs the
  /// result (a failed write-through is reported in `cache_error`, not as
  /// an error status); on a hit the optimization is skipped entirely.
  ///
  /// `cancel` adds a cooperative deadline/cancel. It is polled before the
  /// cache lookup, before each restart job, and once per L-BFGS-B
  /// iteration inside the optimizer, so a ~0.5 s cold plan stops within
  /// a few milliseconds of the deadline. A cancelled plan has no side
  /// effects: the abandoned partial strategy is never cached (it is a
  /// best-so-far, not the deterministic grid winner) and never returned.
  /// Null `cancel` never fails. Strategy selection is data-independent, so
  /// cancelling a plan costs nothing but the wasted CPU.
  StatusOr<PlanResult> PlanOr(const UnionWorkload& w,
                              const CancelToken* cancel = nullptr);

  /// Plans, charges the request's cost against `dataset_id`, measures the
  /// data vector `x` with the requested mechanism, and builds a session
  /// (marginal-table-backed when the plan is a marginals strategy measured
  /// under Gaussian/Laplace noise; x_hat-backed otherwise). A non-OK
  /// status carries the accountant's refusal — kOverBudget, the regime
  /// mismatch as kFailedPrecondition, or a ledger-append kIoError; the
  /// governor's refusal (kResourceExhausted with a retry_after_ms hint);
  /// or the token's kDeadlineExceeded. No noise is drawn and no budget is
  /// charged in any refused case — admission and cancellation are checked
  /// *before* the accountant, and the accountant refuses before drawing —
  /// and the engine (its cache, accountant, and any previously measured
  /// sessions) remains fully serviceable afterwards.
  StatusOr<std::unique_ptr<MeasurementSession>> MeasureOr(
      const UnionWorkload& w, const std::string& dataset_id, const Vector& x,
      const MeasureRequest& request, Rng* rng,
      const CancelToken* cancel = nullptr);

  BudgetAccountant& accountant() { return accountant_; }
  StrategyCache& cache() { return cache_; }
  const EngineOptions& options() const { return options_; }
  /// Null when both governor limits are 0 (ungoverned engine). Shared with
  /// the admission tickets of live sessions, so sessions may outlive the
  /// engine as they always could.
  ResourceGovernor* governor() { return governor_.get(); }

 private:
  EngineOptions options_;
  StrategyCache cache_;
  BudgetAccountant accountant_;
  std::shared_ptr<ResourceGovernor> governor_;
};

}  // namespace hdmm

#endif  // HDMM_ENGINE_ENGINE_H_
