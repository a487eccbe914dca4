// Durability helper shared by the components that install files with
// write-then-rename (the privacy ledger, the strategy cache's disk tier).
#ifndef HDMM_COMMON_FILE_SYNC_H_
#define HDMM_COMMON_FILE_SYNC_H_

#include <string>

namespace hdmm {

/// Best-effort fsync of the directory holding `path` ("." when `path` has no
/// directory part), so a rename into that directory is itself durable. The
/// renamed file's bytes must already be fsync'd by the caller. Failures are
/// ignored: the rename has already happened, and a lost directory entry
/// after a power loss costs the callers a replan or a ledger rewrite, never
/// a torn file.
void SyncParentDir(const std::string& path);

}  // namespace hdmm

#endif  // HDMM_COMMON_FILE_SYNC_H_
