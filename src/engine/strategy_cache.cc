#include "engine/strategy_cache.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "common/failpoint.h"
#include "common/file_sync.h"
#include "common/metrics.h"
#include "core/strategy_io.h"

namespace hdmm {

namespace {

// The cache's only event counts: `stats`/--stats-json report them
// process-wide, and tests read their deltas.
Counter* const g_memory_hits =
    Metrics::GetCounter("strategy_cache.memory_hits");
Counter* const g_disk_hits = Metrics::GetCounter("strategy_cache.disk_hits");
Counter* const g_misses = Metrics::GetCounter("strategy_cache.misses");
Counter* const g_evictions = Metrics::GetCounter("strategy_cache.evictions");
Counter* const g_corrupt_quarantined =
    Metrics::GetCounter("strategy_cache.corrupt_quarantined");
Counter* const g_disk_read_errors =
    Metrics::GetCounter("strategy_cache.disk_read_errors");
Counter* const g_disk_write_failures =
    Metrics::GetCounter("strategy_cache.disk_write_failures");
Counter* const g_disk_reprobes =
    Metrics::GetCounter("strategy_cache.disk_reprobes");
Gauge* const g_degraded = Metrics::GetGauge("strategy_cache.degraded");

}  // namespace

StrategyCache::StrategyCache(StrategyCacheOptions options)
    : options_(std::move(options)) {
  if (options_.memory_capacity == 0) options_.memory_capacity = 1;
}

std::string StrategyCache::DiskPath(const Fingerprint& fp) const {
  if (options_.disk_dir.empty()) return "";
  return options_.disk_dir + "/" + fp.Hex() + ".strategy";
}

void StrategyCache::Promote(std::list<Entry>::iterator it) {
  lru_.splice(lru_.begin(), lru_, it);
}

void StrategyCache::InsertLocked(uint64_t key,
                                 std::shared_ptr<const Strategy> strategy) {
  auto found = index_.find(key);
  if (found != index_.end()) {
    found->second->strategy = std::move(strategy);
    Promote(found->second);
    return;
  }
  lru_.push_front(Entry{key, std::move(strategy)});
  index_[key] = lru_.begin();
  while (lru_.size() > options_.memory_capacity) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    g_evictions->Add(1);
  }
}

std::shared_ptr<const Strategy> StrategyCache::Get(const Fingerprint& fp,
                                                   Tier* tier) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(fp.value);
    if (it != index_.end()) {
      g_memory_hits->Add(1);
      Promote(it->second);
      if (tier != nullptr) *tier = Tier::kMemory;
      return it->second->strategy;
    }
  }
  // Disk tier, outside the lock: parsing a strategy file can be slow and
  // must not serialize unrelated lookups.
  const std::string path = DiskPath(fp);
  if (!path.empty()) {
    StatusOr<std::unique_ptr<Strategy>> loaded = LoadStrategyFile(path);
    const Status& status = loaded.status();
    if (status.ok()) {
      std::shared_ptr<const Strategy> shared = std::move(loaded).value();
      std::lock_guard<std::mutex> lock(mu_);
      g_disk_hits->Add(1);
      InsertLocked(fp.value, shared);
      if (tier != nullptr) *tier = Tier::kDisk;
      return shared;
    }
    if (status.code() == StatusCode::kCorruption) {
      // Quarantine, don't delete: the bad bytes are the postmortem evidence,
      // and moving them aside means the miss below replans and rewrites a
      // good file instead of tripping over the same corruption forever.
      std::error_code ec;
      std::filesystem::rename(path, path + ".corrupt", ec);
      if (ec) std::filesystem::remove(path, ec);  // Last resort: unpoison.
      g_corrupt_quarantined->Add(1);
    } else if (status.code() != StatusCode::kNotFound) {
      g_disk_read_errors->Add(1);
    }
  }
  g_misses->Add(1);
  if (tier != nullptr) *tier = Tier::kMiss;
  return nullptr;
}

HDMM_REGISTER_CRASH_SITE("strategy_cache.put.torn_tmp");
HDMM_REGISTER_CRASH_SITE("strategy_cache.put.tmp_synced");
HDMM_REGISTER_CRASH_SITE("strategy_cache.put.after_rename");

Status StrategyCache::Put(const Fingerprint& fp,
                          std::shared_ptr<const Strategy> strategy) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    InsertLocked(fp.value, strategy);
  }
  const std::string path = DiskPath(fp);
  if (path.empty()) return Status::Ok();
  // While degraded, most Puts skip the disk — but every kReprobeInterval-th
  // one probes it with a real write, so a recovered disk re-enables the
  // tier. Without the probe, degradation would be one-way in steady state:
  // no writes attempted means no success to reset the failure counter.
  bool probing = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (disk_writes_disabled_) {
      if (++degraded_puts_ % kReprobeInterval != 0) return Status::Ok();
      probing = true;
      g_disk_reprobes->Add(1);
    }
  }
  auto disk_failed = [this, probing](Status status) {
    std::lock_guard<std::mutex> lock(mu_);
    g_disk_write_failures->Add(1);
    if (++consecutive_disk_failures_ >= kDiskFailureLimit) {
      // The disk tier is hurting, not helping: stop retrying on every Plan
      // and serve from memory only. Reads keep working, so entries written
      // before the disk went bad are still honored.
      disk_writes_disabled_ = true;
      g_degraded->Set(1.0);
    }
    // A failed probe keeps the degraded contract: Put returns OK.
    return probing ? Status::Ok() : status;
  };
  if (HDMM_FAILPOINT("strategy_cache.put.io_error")) {
    return disk_failed(Status::IoError("injected: strategy_cache.put.io_error"));
  }
  std::error_code ec;
  std::filesystem::create_directories(options_.disk_dir, ec);
  if (ec) {
    return disk_failed(Status::IoError("cannot create cache directory '" +
                                       options_.disk_dir +
                                       "': " + ec.message()));
  }
  // Write-then-rename so the disk tier never exposes a torn file: a crashed
  // or concurrent writer can leave at most a stale `.tmp` sibling, never a
  // partial `<hex>.strategy` for a concurrent Get (or the next restart) to
  // parse. The tmp name carries a per-writer tag so two concurrent Puts
  // (same process or not) never interleave writes into one tmp file; both
  // write complete files and rename(2) within one directory atomically
  // installs one of them.
  static std::atomic<uint64_t> put_counter{0};
  const std::string tmp_path =
      path + "." + std::to_string(::getpid()) + "-" +
      std::to_string(put_counter.fetch_add(1)) + ".tmp";
  if (HDMM_FAILPOINT("strategy_cache.put.torn_tmp")) {
    // Simulate dying mid-write: half the serialization reaches the tmp file
    // and the process is gone. Recovery must see no `<hex>.strategy` at all.
    const std::string text = SerializeStrategy(*strategy);
    std::FILE* f = std::fopen(tmp_path.c_str(), "w");
    if (f != nullptr) {
      std::fwrite(text.data(), 1, text.size() / 2, f);
      std::fflush(f);
      ::fsync(fileno(f));
    }
    Failpoints::CrashNow();
  }
  const Status saved = SaveStrategyFile(tmp_path, *strategy);
  if (!saved.ok()) {
    std::filesystem::remove(tmp_path, ec);  // Best effort: no torn residue.
    return disk_failed(saved);
  }
  if (HDMM_FAILPOINT("strategy_cache.put.tmp_synced")) {
    // Complete tmp file on disk, crash before rename: recovery sees a stale
    // `.tmp` sibling and no installed entry — a clean miss.
    Failpoints::CrashNow();
  }
  std::filesystem::rename(tmp_path, path, ec);
  if (ec) {
    std::filesystem::remove(tmp_path, ec);
    return disk_failed(
        Status::IoError("cannot move strategy file into place at '" + path +
                        "'"));
  }
  // Make the rename itself durable (best effort, like the ledger's): the
  // tmp file's bytes are already fsync'd by SaveStrategyFile.
  SyncParentDir(path);
  if (HDMM_FAILPOINT("strategy_cache.put.after_rename")) {
    // Crash after the atomic install: recovery must parse a complete file.
    Failpoints::CrashNow();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    consecutive_disk_failures_ = 0;
    if (disk_writes_disabled_) {
      // A successful probe: the disk recovered, bring the tier back.
      disk_writes_disabled_ = false;
      degraded_puts_ = 0;
      g_degraded->Set(0.0);
    }
  }
  return Status::Ok();
}

bool StrategyCache::DiskWriteDegraded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return disk_writes_disabled_;
}

void StrategyCache::ClearMemory() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
}

size_t StrategyCache::MemorySize() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

}  // namespace hdmm
