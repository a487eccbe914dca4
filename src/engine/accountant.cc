#include "engine/accountant.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/failpoint.h"
#include "common/file_sync.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "core/gaussian.h"

namespace hdmm {

namespace {

// Tolerance for "exactly exhausting" the budget: splitting the total into k
// equal parts accumulates k-1 roundings, which must not strand an unusable
// sliver or refuse the final legitimate charge.
constexpr double kRelSlack = 1e-12;

constexpr char kLedgerHeaderV2[] = "hdmm-budget-ledger v2";

// One replayed ledger record, in mechanism-native units (epsilon for
// laplace, rho for gaussian).
struct LedgerRecord {
  Mechanism mechanism = Mechanism::kLaplace;
  double value = 0.0;
  double delta = 0.0;
  std::string dataset;
};

bool ParseStrictDouble(const std::string& token, double* out) {
  char* end = nullptr;
  *out = std::strtod(token.c_str(), &end);
  return !token.empty() && end == token.c_str() + token.size();
}

// Parses one record line of either format. v1: `<epsilon> <dataset...>`.
// v2: `<mechanism> <value> <delta> <dataset...>`.
bool ParseRecordLine(const std::string& line, bool v2, LedgerRecord* out) {
  std::istringstream fields(line);
  std::string token;
  if (v2) {
    if (!(fields >> token) || !ParseMechanismName(token, &out->mechanism))
      return false;
  } else {
    out->mechanism = Mechanism::kLaplace;
  }
  if (!(fields >> token) || !ParseStrictDouble(token, &out->value) ||
      !std::isfinite(out->value) || out->value <= 0.0) {
    return false;
  }
  if (v2) {
    if (!(fields >> token) || !ParseStrictDouble(token, &out->delta) ||
        !std::isfinite(out->delta) || out->delta < 0.0 || out->delta >= 1.0) {
      return false;
    }
  } else {
    out->delta = 0.0;
  }
  std::getline(fields, out->dataset);
  const size_t start = out->dataset.find_first_not_of(' ');
  if (start == std::string::npos) return false;
  out->dataset.erase(0, start);
  return true;
}

std::string FormatRecordString(const LedgerRecord& record) {
  char numbers[128];
  std::snprintf(numbers, sizeof(numbers), " %.17g %.17g ", record.value,
                record.delta);
  return std::string(MechanismName(record.mechanism)) + numbers +
         record.dataset + "\n";
}

void FormatRecord(std::FILE* file, const LedgerRecord& record) {
  const std::string text = FormatRecordString(record);
  std::fwrite(text.data(), 1, text.size(), file);
}

// Flush userspace buffers AND the kernel page cache: fflush alone leaves the
// record in memory, where a power loss silently un-spends recorded budget.
void FlushAndSyncOrDie(std::FILE* file) {
  HDMM_CHECK_MSG(std::fflush(file) == 0,
                 "budget ledger write failed; refusing to spend unrecorded "
                 "budget");
  HDMM_CHECK_MSG(::fsync(::fileno(file)) == 0,
                 "budget ledger fsync failed; refusing to spend unrecorded "
                 "budget");
}

}  // namespace

BudgetAccountant::BudgetAccountant(BudgetAccountantOptions options)
    : options_(std::move(options)) {
  if (options_.regime == BudgetRegime::kPureDp) {
    HDMM_CHECK_MSG(
        std::isfinite(options_.total_epsilon) && options_.total_epsilon > 0.0,
        "total epsilon must be positive and finite");
    total_budget_ = options_.total_epsilon;
  } else {
    HDMM_CHECK_MSG(options_.delta > 0.0 && options_.delta < 1.0,
                   "zcdp regime needs a reporting delta in (0, 1)");
    if (options_.total_rho > 0.0) {
      HDMM_CHECK_MSG(std::isfinite(options_.total_rho),
                     "total rho must be positive and finite");
      total_budget_ = options_.total_rho;
    } else {
      HDMM_CHECK_MSG(std::isfinite(options_.total_epsilon) &&
                         options_.total_epsilon > 0.0,
                     "total epsilon must be positive and finite");
      total_budget_ =
          RhoFromEpsilonDelta(options_.total_epsilon, options_.delta);
    }
  }
  for (const auto& [dataset, ceiling] : options_.dataset_ceilings) {
    HDMM_CHECK_MSG(std::isfinite(ceiling) && ceiling > 0.0,
                   "per-dataset budget ceilings must be positive and finite");
    (void)dataset;
  }
  if (!options_.ledger_path.empty()) LoadLedger();
}

BudgetAccountant::BudgetAccountant(double total_epsilon,
                                   const std::string& ledger_path)
    : BudgetAccountant([&] {
        BudgetAccountantOptions options;
        options.regime = BudgetRegime::kPureDp;
        options.total_epsilon = total_epsilon;
        options.ledger_path = ledger_path;
        return options;
      }()) {}

BudgetAccountant::~BudgetAccountant() {
  if (ledger_file_ != nullptr) std::fclose(ledger_file_);
  if (lock_fd_ >= 0) ::close(lock_fd_);  // Releases the flock.
}

// Replays the ledger (v1 or v2), migrates it to canonical v2 via an atomic
// tmp + rename, and leaves an fsync-backed append handle open. Past charges
// are history: they are summed without re-checking the ceiling (the
// configured total may have changed between runs — overspent datasets simply
// have no remaining budget).
void BudgetAccountant::LoadLedger() {
  // Cross-process exclusion first: two accountants replaying one ledger
  // would each see the pre-existing spend only, and could jointly spend up
  // to twice the ceiling. The lock lives on a sidecar file because the
  // ledger itself is atomically replaced below (a lock on a renamed-over
  // inode would no longer exclude anyone).
  const std::string lock_path = options_.ledger_path + ".lock";
  lock_fd_ = ::open(lock_path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  HDMM_CHECK_MSG(lock_fd_ >= 0, "cannot open the budget ledger lock file");
  // A held lock is usually transient — a restarting predecessor releasing
  // its flock, or a sibling test process — so retry with exponential backoff
  // (1ms doubling to 100ms) until the configured deadline before treating it
  // as the genuinely fatal two-servers-one-ledger configuration.
  // Failpoint `accountant.flock.busy` makes an attempt see a held lock.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(std::max(0, options_.lock_timeout_ms));
  WallTimer flock_timer;
  int backoff_ms = 1;
  bool locked = false;
  while (true) {
    const bool injected_busy = HDMM_FAILPOINT("accountant.flock.busy");
    if (!injected_busy && ::flock(lock_fd_, LOCK_EX | LOCK_NB) == 0) {
      locked = true;
      break;
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) break;
    // Never sleep past the deadline: an unclamped backoff step (up to
    // 100ms) could overshoot the configured lock_timeout_ms by a whole
    // step, making small timeouts lie.
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
    std::this_thread::sleep_for(
        std::min(std::chrono::milliseconds(backoff_ms),
                 std::max(std::chrono::milliseconds(1), remaining)));
    backoff_ms = std::min(backoff_ms * 2, 100);
  }
  static Histogram* const flock_wait =
      Metrics::GetHistogram("accountant.flock_wait_ns");
  flock_wait->Record(static_cast<uint64_t>(flock_timer.Seconds() * 1e9));
  HDMM_CHECK_MSG(locked,
                 "budget ledger is locked by another accountant (still held "
                 "after the lock timeout); two processes sharing a ledger "
                 "could jointly double-spend the budget, so serving of a "
                 "dataset must go through one process");

  std::vector<LedgerRecord> records;
  std::ifstream in(options_.ledger_path, std::ios::binary);
  if (in) {
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string content = buffer.str();
    in.close();

    const bool ends_with_newline =
        !content.empty() && content.back() == '\n';
    std::istringstream lines(content);
    std::string line;
    std::vector<std::string> raw;
    std::vector<size_t> offsets;  // Byte offset of each line's first byte.
    size_t next_offset = 0;
    while (std::getline(lines, line)) {
      raw.push_back(line);
      offsets.push_back(next_offset);
      next_offset += line.size() + 1;
    }

    size_t first = 0;
    bool v2 = false;
    if (!raw.empty() && raw[0] == kLedgerHeaderV2) {
      v2 = true;
      first = 1;
    }
    for (size_t i = first; i < raw.size(); ++i) {
      if (raw[i].empty() ||
          raw[i].find_first_not_of(" \t\r") == std::string::npos) {
        continue;
      }
      LedgerRecord record;
      if (!ParseRecordLine(raw[i], v2, &record)) {
        // A malformed FINAL line with no trailing newline is the signature
        // of a crash mid-append. By the durable-before-spendable protocol
        // the charge it describes was never acted on (Charge only
        // returns after the full record is on disk), so dropping it cannot
        // under-record; the canonical rewrite below truncates it away.
        if (i + 1 == raw.size() && !ends_with_newline) break;
        // Interior corruption is unrecoverable — silently skipping records
        // would un-spend budget — but the abort should leave the operator
        // everything: which line, which byte, and the bytes themselves
        // (the copy survives whatever fix is applied to the live ledger).
        const std::string copy_path = options_.ledger_path + ".corrupt";
        std::error_code copy_ec;
        std::filesystem::copy_file(
            options_.ledger_path, copy_path,
            std::filesystem::copy_options::overwrite_existing, copy_ec);
        std::ostringstream diagnostic;
        diagnostic << "malformed budget ledger line " << (i + 1)
                   << " (byte offset " << offsets[i] << "): '" << raw[i]
                   << "'; ";
        if (copy_ec) {
          diagnostic << "failed to copy the ledger to '" << copy_path << "'; ";
        } else {
          diagnostic << "ledger copied to '" << copy_path << "'; ";
        }
        diagnostic << "a corrupt privacy ledger must not be ignored";
        HDMM_CHECK_MSG(false, diagnostic.str().c_str());
      }
      records.push_back(std::move(record));
    }
  }

  // Apply the replayed history in regime units. A record the regime cannot
  // express (Gaussian history under a pure-dp accountant) is a configuration
  // error, not a runtime condition: it must abort, or the Gaussian spend
  // would silently vanish from the ledger.
  for (const LedgerRecord& record : records) {
    PrivacyCharge charge;
    charge.mechanism = record.mechanism;
    (record.mechanism == Mechanism::kLaplace ? charge.epsilon : charge.rho) =
        record.value;
    const StatusOr<double> cost = RegimeCost(charge);
    HDMM_CHECK_MSG(cost.ok(),
                   "budget ledger contains charges this accounting regime "
                   "cannot express (Gaussian history needs the zcdp regime)");
    Ledger& ledger = ledgers_[record.dataset];
    ledger.spent += *cost;
    ++ledger.charges;
  }

  // Canonical v2 rewrite: migrates v1 files, truncates torn tails, and
  // guarantees the append handle below always starts at a record boundary.
  const std::string tmp_path = options_.ledger_path + ".tmp";
  std::FILE* tmp = std::fopen(tmp_path.c_str(), "w");
  HDMM_CHECK_MSG(tmp != nullptr,
                 "cannot write the migrated budget ledger");
  std::fprintf(tmp, "%s\n", kLedgerHeaderV2);
  for (const LedgerRecord& record : records) FormatRecord(tmp, record);
  FlushAndSyncOrDie(tmp);
  std::fclose(tmp);
  std::error_code ec;
  std::filesystem::rename(tmp_path, options_.ledger_path, ec);
  HDMM_CHECK_MSG(!ec, "cannot atomically replace the budget ledger");
  SyncParentDir(options_.ledger_path);

  ledger_file_ = std::fopen(options_.ledger_path.c_str(), "a");
  HDMM_CHECK_MSG(ledger_file_ != nullptr,
                 "cannot open the budget ledger for appending");
}

StatusOr<double> BudgetAccountant::RegimeCost(
    const PrivacyCharge& charge) const {
  if (charge.mechanism == Mechanism::kLaplace) {
    HDMM_CHECK_MSG(std::isfinite(charge.epsilon) && charge.epsilon > 0.0,
                   "epsilon must be positive and finite");
    return options_.regime == BudgetRegime::kPureDp
               ? charge.epsilon
               : PureDpToRho(charge.epsilon);
  }
  HDMM_CHECK_MSG(std::isfinite(charge.rho) && charge.rho > 0.0,
                 "rho must be positive and finite");
  if (options_.regime == BudgetRegime::kPureDp) {
    // A Gaussian release satisfies no finite pure epsilon; pretending
    // otherwise (e.g. charging its reported epsilon) would not compose
    // soundly. Refuse instead of approximating.
    return Status::FailedPrecondition(
        "a Gaussian (zCDP) charge cannot be accounted in the pure-dp "
        "regime; configure the zcdp regime");
  }
  return charge.rho;
}

Status BudgetAccountant::Charge(const std::string& dataset,
                                const PrivacyCharge& charge) {
  static Counter* const charges = Metrics::GetCounter("accountant.charges");
  static Counter* const refusals = Metrics::GetCounter("accountant.refusals");
  const StatusOr<double> regime_cost = RegimeCost(charge);
  if (!regime_cost.ok()) {
    refusals->Add(1);
    return regime_cost.status();
  }
  const double cost = *regime_cost;
  const double ceiling = CeilingFor(dataset);
  std::lock_guard<std::mutex> lock(mu_);
  Ledger& ledger = ledgers_[dataset];
  if (ledger.spent + cost > ceiling * (1.0 + kRelSlack)) {
    std::ostringstream msg;
    msg << "budget exceeded: spent " << ledger.spent << " of " << ceiling
        << " " << BudgetRegimeName(options_.regime)
        << " budget, charge costs " << cost;
    refusals->Add(1);
    return Status::OverBudget(msg.str());
  }
  if (ledger_file_ != nullptr) {
    // Durable before spendable: the record reaches the disk ledger (through
    // the page cache — fsync, not just fflush) before the caller is told to
    // draw noise, so a crash can only over-record (refuse budget that was
    // never used), never under-record. An append failure refuses the charge
    // without updating the in-memory ledger.
    const Status appended = AppendRecordLocked(charge, dataset);
    if (!appended.ok()) {
      refusals->Add(1);
      return appended;
    }
  }
  ledger.spent += cost;
  ++ledger.charges;
  charges->Add(1);
  // Per-dataset gauges are in regime units (epsilon for pure-dp, rho for
  // zcdp), matching Spent()/Remaining(). The name lookup is a mutex-guarded
  // map probe — noise next to the fsync this path just paid.
  Metrics::GetGauge("accountant.spent." + dataset)->Set(ledger.spent);
  Metrics::GetGauge("accountant.remaining." + dataset)
      ->Set(ledger.spent >= ceiling ? 0.0 : ceiling - ledger.spent);
  return Status::Ok();
}

HDMM_REGISTER_CRASH_SITE("accountant.append.before");
HDMM_REGISTER_CRASH_SITE("accountant.append.torn");
HDMM_REGISTER_CRASH_SITE("accountant.append.after_sync");

Status BudgetAccountant::AppendRecordLocked(const PrivacyCharge& charge,
                                            const std::string& dataset) {
  if (wedged_) {
    return Status::IoError(
        "budget ledger is wedged after a failed append rollback; refusing "
        "further durable charges (restart to replay the ledger)");
  }
  LedgerRecord record;
  record.mechanism = charge.mechanism;
  if (charge.mechanism == Mechanism::kLaplace) {
    record.value = charge.epsilon;
    record.delta = 0.0;
  } else {
    record.value = charge.rho;
    record.delta = options_.delta;
  }
  record.dataset = dataset;
  if (HDMM_FAILPOINT("accountant.append.before")) {
    // Crash before any byte of the record exists: recovery must replay
    // exactly the previously-acked charges.
    Failpoints::CrashNow();
  }
  // Record the pre-append boundary so a failed write can be truncated away
  // instead of leaving torn bytes for the next append to extend. With the
  // flock held this process is the only writer, so SEEK_END is that
  // boundary.
  std::fseek(ledger_file_, 0, SEEK_END);
  const long boundary = std::ftell(ledger_file_);
  if (HDMM_FAILPOINT("accountant.append.torn")) {
    // Crash with half the record durably on disk — the torn-final-line case
    // LoadLedger's replay must drop. The charge was never acked, so the
    // dropped record cannot under-count spend.
    const std::string text = FormatRecordString(record);
    std::fwrite(text.data(), 1, text.size() / 2, ledger_file_);
    std::fflush(ledger_file_);
    ::fsync(::fileno(ledger_file_));
    Failpoints::CrashNow();
  }
  bool failed = HDMM_FAILPOINT("accountant.append.io_error");
  if (!failed) {
    FormatRecord(ledger_file_, record);
    failed = std::fflush(ledger_file_) != 0 ||
             ::fsync(::fileno(ledger_file_)) != 0;
  }
  if (failed) {
    // Roll the file back to the record boundary. Every direction here is
    // privacy-safe: rollback restores the acked prefix exactly; a failed
    // rollback wedges the accountant so no append can ever land after torn
    // bytes; and the refused charge draws no noise either way.
    std::clearerr(ledger_file_);
    const bool rolled_back =
        boundary >= 0 && ::ftruncate(::fileno(ledger_file_), boundary) == 0 &&
        std::fseek(ledger_file_, 0, SEEK_END) == 0;
    if (!rolled_back) {
      wedged_ = true;
      return Status::IoError(
          "budget ledger append failed and rollback failed; ledger wedged, "
          "refusing further durable charges");
    }
    return Status::IoError(
        "budget ledger append failed; charge refused and not recorded");
  }
  if (HDMM_FAILPOINT("accountant.append.after_sync")) {
    // Crash after the record is durable but before the caller learns the
    // charge succeeded: recovery may see one more charge than was acked —
    // over-recording, the safe direction.
    Failpoints::CrashNow();
  }
  return Status::Ok();
}

double BudgetAccountant::Spent(const std::string& dataset) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ledgers_.find(dataset);
  return it == ledgers_.end() ? 0.0 : it->second.spent;
}

double BudgetAccountant::Remaining(const std::string& dataset) const {
  const double ceiling = CeilingFor(dataset);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ledgers_.find(dataset);
  const double spent = it == ledgers_.end() ? 0.0 : it->second.spent;
  return spent >= ceiling ? 0.0 : ceiling - spent;
}

int64_t BudgetAccountant::NumCharges(const std::string& dataset) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ledgers_.find(dataset);
  return it == ledgers_.end() ? 0 : it->second.charges;
}

double BudgetAccountant::TotalBudget() const { return total_budget_; }

double BudgetAccountant::TotalBudget(const std::string& dataset) const {
  return CeilingFor(dataset);
}

double BudgetAccountant::CeilingFor(const std::string& dataset) const {
  auto it = options_.dataset_ceilings.find(dataset);
  return it == options_.dataset_ceilings.end() ? total_budget_ : it->second;
}

double BudgetAccountant::total_epsilon() const {
  return options_.regime == BudgetRegime::kPureDp
             ? options_.total_epsilon
             : RhoToEpsilon(total_budget_, options_.delta);
}

double BudgetAccountant::ReportedEpsilon(const std::string& dataset) const {
  const double spent = Spent(dataset);
  return options_.regime == BudgetRegime::kPureDp
             ? spent
             : RhoToEpsilon(spent, options_.delta);
}

}  // namespace hdmm
