#include "vbr/common/atomic_file.hpp"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <string>
#include <system_error>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "vbr/common/error.hpp"

namespace vbr {
namespace {

void remove_quietly(const std::filesystem::path& p) {
  std::error_code ignored;
  std::filesystem::remove(p, ignored);
}

/// Flush `path`'s data to stable storage. Returns false where unsupported.
bool fsync_path(const std::filesystem::path& path) {
#if defined(__unix__) || defined(__APPLE__)
  const int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) return false;
  const int rc = ::fsync(fd);
  ::close(fd);
  return rc == 0;
#else
  (void)path;
  return true;  // no portable fsync; flush-on-close is the best we have
#endif
}

}  // namespace

void write_file_atomic(const std::filesystem::path& path, std::string_view data,
                       bool durable) {
  write_file_atomic(
      path,
      [data](std::ostream& out) {
        out.write(data.data(), static_cast<std::streamsize>(data.size()));
      },
      durable);
}

void write_file_atomic(const std::filesystem::path& path,
                       const std::function<void(std::ostream&)>& fill, bool durable) {
  std::filesystem::path tmp = path;
  tmp += ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw IoError("cannot open for writing: " + tmp.string());
    try {
      fill(out);
    } catch (...) {
      out.close();
      remove_quietly(tmp);
      throw;
    }
    out.close();  // a failed close can lose buffered bytes, so it fails too
    if (!out) {
      remove_quietly(tmp);
      throw IoError("write failed: " + tmp.string());
    }
  }
  if (durable && !fsync_path(tmp)) {
    remove_quietly(tmp);
    throw IoError("fsync failed: " + tmp.string());
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    remove_quietly(tmp);
    throw IoError("rename failed: " + tmp.string() + " -> " + path.string() + ": " +
                  ec.message());
  }
  if (durable) fsync_parent_directory(path);
}

void fsync_parent_directory(const std::filesystem::path& path) {
#if defined(__unix__) || defined(__APPLE__)
  std::filesystem::path dir = path.parent_path();
  if (dir.empty()) dir = ".";
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) throw IoError("cannot open directory to fsync: " + dir.string());
  const int rc = ::fsync(fd);
  const int fsync_errno = errno;
  ::close(fd);
  // EINVAL: this file system cannot sync a directory, so there is nothing to
  // wait for; any other failure may have lost the entry.
  if (rc != 0 && fsync_errno != EINVAL) {
    throw IoError("directory fsync failed: " + dir.string() + ": " +
                  std::strerror(fsync_errno));
  }
#else
  (void)path;  // no portable directory fsync
#endif
}

}  // namespace vbr
