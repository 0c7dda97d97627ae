// A real disk fault on a real descriptor, for the writer-fault tests.
//
// FileSizeLimit lowers this process's soft RLIMIT_FSIZE, so a write that
// would grow a regular file past `bytes` comes back short and the next one
// fails with EFBIG ("File too large"). SIGXFSZ, which the kernel would
// otherwise use to kill the process, is ignored while the limit holds.
// Both are restored on destruction. The limit covers every file this
// process writes, a redirected stdout included, so keep the scope to the
// write under test and check results after it closes.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <system_error>

namespace vbr::test {

class FileSizeLimit {
 public:
  explicit FileSizeLimit(rlim_t bytes) {
    if (::getrlimit(RLIMIT_FSIZE, &saved_) != 0) fail("getrlimit");
    struct sigaction ignore {};
    ignore.sa_handler = SIG_IGN;
    if (::sigaction(SIGXFSZ, &ignore, &saved_action_) != 0) fail("sigaction");
    rlimit capped = saved_;
    capped.rlim_cur = std::min(bytes, saved_.rlim_max);
    if (::setrlimit(RLIMIT_FSIZE, &capped) != 0) {
      ::sigaction(SIGXFSZ, &saved_action_, nullptr);
      fail("setrlimit");
    }
  }
  ~FileSizeLimit() {
    ::setrlimit(RLIMIT_FSIZE, &saved_);
    ::sigaction(SIGXFSZ, &saved_action_, nullptr);
  }
  FileSizeLimit(const FileSizeLimit&) = delete;
  FileSizeLimit& operator=(const FileSizeLimit&) = delete;

 private:
  [[noreturn]] static void fail(const char* what) {
    throw std::system_error(errno, std::generic_category(), what);
  }

  rlimit saved_{};
  struct sigaction saved_action_ {};
};

}  // namespace vbr::test
