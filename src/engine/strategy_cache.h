// Fingerprint-keyed strategy cache: the storage half of the serve-many
// engine. A warm PlanOr() is a hash-map lookup (or a file read after a
// restart) instead of an L-BFGS optimization run — the paper's Section 3.6
// deployment argument made concrete. Two tiers:
//
//   memory  thread-safe LRU of shared_ptr<const Strategy>, bounded capacity
//   disk    one strategy_io file per fingerprint under a cache directory
//           (`<dir>/<16-hex>.strategy`), surviving restarts
//
// The disk tier is optional (empty directory string disables it). Entries
// are immutable once inserted: strategies are shared read-only, so a cached
// strategy's lazily-built pseudo-inverse/factorization state is itself
// reused by every session that plans the same workload.
//
// The disk tier treats the filesystem as untrusted: a corrupt or truncated
// `.strategy` file is quarantined (renamed to `<path>.corrupt`) and treated
// as a miss, so one bad file costs one replan instead of poisoning every
// restart; repeated disk-write failures degrade the cache to memory-only
// rather than failing every Plan.
//
// Every tier event (hits, misses, evictions, quarantines, disk read/write
// failures, re-probes) is counted process-wide in the metrics registry's
// `strategy_cache.*` counters (docs/observability.md).
#ifndef HDMM_ENGINE_STRATEGY_CACHE_H_
#define HDMM_ENGINE_STRATEGY_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/status.h"
#include "core/strategy.h"
#include "engine/fingerprint.h"

namespace hdmm {

struct StrategyCacheOptions {
  /// Maximum in-memory entries; least-recently-used entries are evicted
  /// beyond it (their disk files, if any, remain).
  size_t memory_capacity = 32;

  /// Directory for the persistent tier; created on first write. Empty
  /// disables disk persistence.
  std::string disk_dir;
};

class StrategyCache {
 public:
  explicit StrategyCache(StrategyCacheOptions options = {});

  StrategyCache(const StrategyCache&) = delete;
  StrategyCache& operator=(const StrategyCache&) = delete;

  /// Which tier satisfied (or failed) a lookup.
  enum class Tier { kMemory, kDisk, kMiss };

  /// Looks up a fingerprint: memory first, then the disk tier (a disk hit is
  /// promoted into memory). Returns nullptr on miss; `tier`, when given,
  /// reports where the entry was found.
  ///
  /// A disk file that exists but fails to parse is QUARANTINED: renamed to
  /// `<path>.corrupt` (preserving the evidence for postmortem), counted in
  /// the `strategy_cache.corrupt_quarantined` registry counter, and reported
  /// as a miss so the caller replans and overwrites it. An unreadable file
  /// (I/O error) is counted in `strategy_cache.disk_read_errors` and
  /// reported as a miss without touching the file.
  std::shared_ptr<const Strategy> Get(const Fingerprint& fp,
                                      Tier* tier = nullptr);

  /// Inserts (or replaces) the entry and, when the disk tier is enabled,
  /// writes it through to `<dir>/<hex>.strategy` atomically (unique tmp
  /// file + rename), so a crashed or concurrent writer can never leave a
  /// partial strategy file for Get to parse. The memory tier is updated
  /// regardless of the disk outcome; a non-OK return (kIoError) means only
  /// the disk write failed.
  ///
  /// After kDiskFailureLimit consecutive disk-write failures the cache
  /// degrades to memory-only: further Puts skip the disk tier and return OK
  /// (reads still hit existing disk files). A successful disk write resets
  /// the counter. Degradation is not one-way: every kReprobeInterval-th Put
  /// while degraded re-probes the disk with a real write — a recovered disk
  /// (volume remounted, space freed) re-enables the tier on the first
  /// successful probe, and a failed probe stays degraded and still returns
  /// OK (re-probe failures are accounting, not caller errors).
  ///
  /// Failpoints: `strategy_cache.put.io_error` injects a disk-write
  /// failure; crash sites `strategy_cache.put.torn_tmp` (partial tmp file),
  /// `strategy_cache.put.tmp_synced` (complete tmp, no rename), and
  /// `strategy_cache.put.after_rename` SIGKILL mid-write.
  Status Put(const Fingerprint& fp, std::shared_ptr<const Strategy> strategy);

  /// Consecutive disk-write failures before Put stops touching the disk.
  static constexpr int kDiskFailureLimit = 3;

  /// While degraded, one Put in this many attempts the disk anyway, so a
  /// recovered disk brings the tier back without operator intervention.
  static constexpr int kReprobeInterval = 16;

  /// True once Put has given up on the disk tier (see kDiskFailureLimit).
  bool DiskWriteDegraded() const;

  /// Drops every in-memory entry (disk files are untouched).
  void ClearMemory();

  size_t MemorySize() const;

  /// Disk file backing a fingerprint ("" when the disk tier is disabled).
  std::string DiskPath(const Fingerprint& fp) const;

 private:
  struct Entry {
    uint64_t key;
    std::shared_ptr<const Strategy> strategy;
  };

  // Caller must hold mu_.
  void Promote(std::list<Entry>::iterator it);
  void InsertLocked(uint64_t key, std::shared_ptr<const Strategy> strategy);

  StrategyCacheOptions options_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // Front = most recently used.
  std::unordered_map<uint64_t, std::list<Entry>::iterator> index_;
  int consecutive_disk_failures_ = 0;
  bool disk_writes_disabled_ = false;
  int degraded_puts_ = 0;  // Puts skipped since degradation; drives probes.
};

}  // namespace hdmm

#endif  // HDMM_ENGINE_STRATEGY_CACHE_H_
