// vbr-analyze-fixture: src/vbr/sweep/fixture_durable_io.cpp
// fsync has one home, vbr::OutputFile: a private copy is free to sync a
// descriptor reopened by path, which may not cover the bytes written.
#include <fcntl.h>
#include <unistd.h>

namespace vbr::sweep {

bool sync_by_path(const char* path) {
  const int fd = ::open(path, O_WRONLY);
  if (fd < 0) return false;
  const int rc = ::fsync(fd);  // VIOLATION(vbr-durable-io)
  ::close(fd);
  return rc == 0;
}

bool sync_data(int fd) {
  return fdatasync(fd) == 0;  // VIOLATION(vbr-durable-io)
}

// Names that merely contain the word are not calls of it.
void fsync_parent(int fsync_count);

}  // namespace vbr::sweep
