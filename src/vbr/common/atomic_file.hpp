// Atomic file replacement: the one sanctioned way to write checkpoint and
// benchmark artifacts.
//
// write_file_atomic() stages the content in a sibling temp file, closes
// (and optionally fsyncs) it, then renames it over the destination and, when
// durable, fsyncs the directory so the rename itself is on disk. POSIX
// rename within one directory is atomic, so a reader — or a resumed run —
// sees either the previous complete file or the new complete file, never a
// prefix. A process killed mid-write leaves at worst a stale .tmp sibling.
//
// Domain lint rule R6 forbids direct std::ofstream writes of such artifacts
// anywhere else; route new artifact writers through this helper.
#pragma once

#include <filesystem>
#include <functional>
#include <iosfwd>
#include <string_view>

namespace vbr {

/// Atomically replace `path` with `data`. With `durable`, the temp file is
/// fsync'd before the rename and its directory after it, so the new content
/// survives power loss, not just process death. Throws vbr::IoError on
/// failure (temp file cleaned up).
void write_file_atomic(const std::filesystem::path& path, std::string_view data,
                       bool durable = false);

/// Streaming form for artifacts too large to build in memory: `fill`
/// writes the content into the temp file's stream (it may seek back to
/// patch a header). A throw from `fill` removes the temp file and
/// propagates; the destination is untouched.
void write_file_atomic(const std::filesystem::path& path,
                       const std::function<void(std::ostream&)>& fill, bool durable = false);

/// fsync the directory holding `path`, so an entry just created or renamed
/// there survives power loss. Throws vbr::IoError on failure.
void fsync_parent_directory(const std::filesystem::path& path);

}  // namespace vbr
