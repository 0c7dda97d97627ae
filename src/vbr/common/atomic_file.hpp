// Durable file output: the one place bytes reach the disk. POSIX only.
//
// OutputFile owns one file descriptor from open to close. write() loops
// over short writes and EINTR, sync_file() fsyncs the descriptor that wrote
// the bytes, and close() is checked; only the destructor closes quietly. Every
// persistent writer in the library sits on it: the trace writer, the sweep
// result log, lease and marker files, and write_file_atomic. No writer
// reopens a file by path to sync it, so an fsync always covers the bytes
// its writer put there, and no write, fsync or close error is discarded.
//
// write_file_atomic() stages the content in a sibling temp file, fsyncs it
// when durable, closes it, renames it over the destination and, when
// durable, fsyncs the directory so the rename itself is on disk. POSIX
// rename within one directory is atomic, so a reader — or a resumed run —
// sees either the previous complete file or the new complete file, never a
// prefix. A process killed mid-write leaves at worst a stale .tmp sibling.
//
// Domain lint rule R6 forbids direct std::ofstream writes of artifacts
// anywhere else, and R8 keeps fsync in this file alone.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <iosfwd>
#include <streambuf>
#include <string>
#include <string_view>

namespace vbr {

/// One open descriptor for writing a file. Its streambuf face is unbuffered
/// and seekable: each xsputn is one write() and seekoff is lseek, so an
/// std::ostream over it adds no copy and no flush step.
class OutputFile final : public std::streambuf {
 public:
  enum class Mode {
    kTruncate,  ///< create or empty the file; writes land at the file offset
    kAppend,    ///< create or empty the file; every write lands at its end
    kExisting,  ///< reopen an existing file at its end; writes land there
  };

  /// A closed file (is_open() is false).
  OutputFile() = default;
  /// Open `path`; throws vbr::IoError naming the path on failure.
  OutputFile(const std::filesystem::path& path, Mode mode);

  OutputFile(OutputFile&& other) noexcept;
  OutputFile& operator=(OutputFile&& other) noexcept;
  /// Closes quietly: a caller that needs the close result calls close().
  ~OutputFile() override;

  bool is_open() const { return fd_ >= 0; }

  /// Write all of `data`; throws vbr::IoError on failure.
  void write(std::string_view data);
  /// fsync the descriptor; throws vbr::IoError on failure.
  void sync_file();
  /// ftruncate to `size` bytes, leaving the offset at the new end; throws.
  void truncate(std::uint64_t size);
  /// Close the descriptor; throws vbr::IoError if close reports an error.
  /// A no-op on a closed file.
  void close();

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override;
  int_type overflow(int_type ch) override;
  pos_type seekoff(off_type off, std::ios_base::seekdir dir,
                   std::ios_base::openmode which) override;
  pos_type seekpos(pos_type pos, std::ios_base::openmode which) override;

 private:
  [[noreturn]] void fail(const char* what) const;

  int fd_ = -1;
  std::string path_;
};

/// Atomically replace `path` with `data`. With `durable`, the temp file is
/// fsync'd before the rename and its directory after it, so the new content
/// survives power loss, not just process death. Throws vbr::IoError on
/// failure (temp file cleaned up).
void write_file_atomic(const std::filesystem::path& path, std::string_view data,
                       bool durable = false);

/// Streaming form for artifacts too large to build in memory: `fill`
/// writes the content into an unbuffered stream over the temp file (it may
/// seek back to patch a header). A write error throws vbr::IoError out of
/// the stream call. A throw from `fill` removes the temp file and
/// propagates; the destination is untouched.
void write_file_atomic(const std::filesystem::path& path,
                       const std::function<void(std::ostream&)>& fill, bool durable = false);

/// fsync the directory holding `path`, so an entry just created or renamed
/// there survives power loss. Throws vbr::IoError on failure.
void fsync_parent_directory(const std::filesystem::path& path);

}  // namespace vbr
