#include "common/file_sync.h"

#include <fcntl.h>
#include <unistd.h>

#include <filesystem>

namespace hdmm {

void SyncParentDir(const std::string& path) {
  const std::string dir = std::filesystem::path(path).parent_path().string();
  const int fd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

}  // namespace hdmm
