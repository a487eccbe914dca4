#include "crash_harness.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>

#include "common/failpoint.h"

namespace hdmm {

CrashResult RunCrashChild(
    const std::string& failpoint_spec,
    const std::function<void(const std::function<void()>& ack)>& body) {
  CrashResult result;
  int fds[2];
  if (::pipe(fds) != 0) return result;

  // Flush stdio before forking so the child cannot replay buffered test
  // output when it exits (or have it torn off by the SIGKILL).
  std::fflush(stdout);
  std::fflush(stderr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return result;
  }
  if (pid == 0) {
    ::close(fds[0]);
    const int ack_fd = fds[1];
    if (!Failpoints::ActivateSpec(failpoint_spec).ok()) _exit(3);
    const auto ack = [ack_fd] {
      const char byte = 'A';
      (void)!::write(ack_fd, &byte, 1);
    };
    body(ack);
    ::close(ack_fd);
    _exit(0);
  }

  ::close(fds[1]);
  char buffer[64];
  ssize_t n;
  // Drains until the child's write end closes — at _exit or at the SIGKILL,
  // whichever comes first. Acks written before the kill are already in the
  // pipe and survive it.
  while ((n = ::read(fds[0], buffer, sizeof(buffer))) > 0) {
    result.acked += static_cast<int>(n);
  }
  ::close(fds[0]);

  int status = 0;
  ::waitpid(pid, &status, 0);
  result.forked = true;
  result.raw_status = status;
  result.sigkilled = WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
  result.exited_clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  return result;
}

}  // namespace hdmm
