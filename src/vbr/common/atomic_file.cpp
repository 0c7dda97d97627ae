#include "vbr/common/atomic_file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <ostream>
#include <system_error>
#include <utility>

#include "vbr/common/error.hpp"

namespace vbr {

OutputFile::OutputFile(const std::filesystem::path& path, Mode mode) : path_(path.string()) {
  int flags = O_WRONLY | O_CLOEXEC;
  if (mode != Mode::kExisting) flags |= O_CREAT | O_TRUNC;
  if (mode != Mode::kTruncate) flags |= O_APPEND;
  fd_ = ::open(path.c_str(), flags, 0666);
  if (fd_ < 0) fail("cannot open for writing");
  if (mode == Mode::kExisting && ::lseek(fd_, 0, SEEK_END) < 0) fail("cannot seek");
}

OutputFile::OutputFile(OutputFile&& other) noexcept
    : std::streambuf(other),
      fd_(std::exchange(other.fd_, -1)),
      path_(std::move(other.path_)) {}

OutputFile& OutputFile::operator=(OutputFile&& other) noexcept {
  // `other` takes our descriptor and closes it when it is destroyed.
  std::swap(fd_, other.fd_);
  std::swap(path_, other.path_);
  return *this;
}

OutputFile::~OutputFile() {
  // Quiet by design: a destructor cannot throw, and a writer that needs
  // the result (a durable one, or one about to rename) calls close().
  if (fd_ >= 0) (void)::close(fd_);
}

void OutputFile::fail(const char* what) const {
  const int error = errno;  // read before building the message allocates
  throw IoError(path_ + ": " + what + ": " + std::strerror(error));
}

void OutputFile::write(std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::write(fd_, data.data(), data.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("write failed");
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
}

void OutputFile::sync_file() {
  // A failed fsync is an error, never a warning: the kernel may already
  // have dropped the dirty pages, and a later fsync can succeed without
  // ever writing them.
  if (::fsync(fd_) != 0) fail("fsync failed");
}

void OutputFile::truncate(std::uint64_t size) {
  const auto end = static_cast<off_t>(size);
  if (::ftruncate(fd_, end) != 0 || ::lseek(fd_, end, SEEK_SET) != end) fail("cannot truncate");
}

void OutputFile::close() {
  if (fd_ < 0) return;
  const int rc = ::close(std::exchange(fd_, -1));
  if (rc != 0) fail("close failed");  // e.g. a deferred write error (NFS)
}

std::streamsize OutputFile::xsputn(const char* s, std::streamsize n) {
  write({s, static_cast<std::size_t>(n)});
  return n;
}

OutputFile::int_type OutputFile::overflow(int_type ch) {
  if (traits_type::eq_int_type(ch, traits_type::eof())) return traits_type::not_eof(ch);
  const char c = traits_type::to_char_type(ch);
  write({&c, 1});
  return ch;
}

OutputFile::pos_type OutputFile::seekoff(off_type off, std::ios_base::seekdir dir,
                                         std::ios_base::openmode) {
  const int whence = dir == std::ios_base::beg   ? SEEK_SET
                     : dir == std::ios_base::cur ? SEEK_CUR
                                                 : SEEK_END;
  return pos_type(off_type(::lseek(fd_, static_cast<off_t>(off), whence)));
}

OutputFile::pos_type OutputFile::seekpos(pos_type pos, std::ios_base::openmode which) {
  return seekoff(off_type(pos), std::ios_base::beg, which);
}

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
  OutputFile file(tmp, OutputFile::Mode::kTruncate);
  try {
    std::ostream out(&file);
    // A failed write rethrows its own IoError (errno included) from the
    // stream call instead of parking it in badbit.
    out.exceptions(std::ios::badbit);
    fill(out);
    if (!out) throw IoError("write failed: " + tmp.string());
    if (durable) file.sync_file();
    file.close();  // a failed close can lose written bytes, so it fails too
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
      throw IoError("rename failed: " + tmp.string() + " -> " + path.string() + ": " +
                    ec.message());
    }
  } catch (...) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    throw;
  }
  if (durable) fsync_parent_directory(path);
}

void fsync_parent_directory(const std::filesystem::path& path) {
  const std::filesystem::path dir = path.has_parent_path() ? path.parent_path() : ".";
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) throw IoError("cannot open directory to fsync: " + dir.string());
  const int fsync_errno = ::fsync(fd) == 0 ? 0 : errno;
  (void)::close(fd);  // read-only: closing it cannot lose data
  // EINVAL: this file system cannot sync a directory, so there is nothing to
  // wait for; any other failure may have lost the entry.
  if (fsync_errno != 0 && fsync_errno != EINVAL) {
    throw IoError("directory fsync failed: " + dir.string() + ": " +
                  std::strerror(fsync_errno));
  }
}

}  // namespace vbr
