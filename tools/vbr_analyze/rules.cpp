#include "rules.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <map>
#include <set>
#include <sstream>

namespace vbr::analyze {

namespace {

// ---------------------------------------------------------------------------
// Path predicates
// ---------------------------------------------------------------------------

bool under(const std::string& path, std::string_view dir) {
  return path.size() > dir.size() && path.compare(0, dir.size(), dir) == 0 &&
         path[dir.size()] == '/';
}

bool is_header(const std::string& path) {
  return path.ends_with(".hpp") || path.ends_with(".h");
}

/// src/, bench/, examples/, fuzz/, tools/ — everywhere "library-grade" code
/// lives. tests/ is exempt from most token rules (fixtures may use local
/// statics etc.), matching the scoping of the original regex lint.
bool in_code_dirs(const std::string& p) {
  return under(p, "src") || under(p, "bench") || under(p, "examples") ||
         under(p, "fuzz") || under(p, "tools");
}

bool in_artifact_dirs(const std::string& p) {
  return under(p, "bench") || under(p, "examples") ||
         under(p, "src/vbr/run") || under(p, "src/vbr/common");
}

// ---------------------------------------------------------------------------
// Small token helpers
// ---------------------------------------------------------------------------

using Toks = std::vector<Token>;

/// Is tokens[i] an identifier that is called (next non-`::` token is `(`)?
bool is_call(const Toks& t, std::size_t i) {
  return i + 1 < t.size() && t[i].kind == TokKind::kIdent &&
         is_punct(t[i + 1], "(");
}

/// Walk back over a `std::`/`vbr::`-style qualifier chain; returns the index
/// of the first qualifier token (or i itself when unqualified).
std::size_t qualifier_start(const Toks& t, std::size_t i) {
  while (i >= 2 && is_punct(t[i - 1], "::") && t[i - 2].kind == TokKind::kIdent) {
    i -= 2;
  }
  if (i >= 1 && is_punct(t[i - 1], "::")) --i;  // leading `::`
  return i;
}

void report(std::vector<Finding>& out, const SourceFile& f, std::size_t line,
            std::string_view rule, std::string message) {
  out.push_back({f.rel_path(), line, std::string(rule), std::move(message)});
}

// ---------------------------------------------------------------------------
// R1 rng-purity · R2 lgamma-reentrancy · R4 naked-new (token scans)
// ---------------------------------------------------------------------------

void rule_token_scans(const SourceFile& f, std::vector<Finding>& out) {
  const std::string& p = f.rel_path();
  const Toks& t = f.tokens();
  const bool rng_allowed = p == "src/vbr/common/rng.cpp";
  const bool lgamma_allowed = p == "src/vbr/common/special_functions.cpp";
  const bool scan_r1r2r4 = in_code_dirs(p);
  if (!scan_r1r2r4) return;

  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    const std::string_view s = t[i].text;

    if (!rng_allowed) {
      const bool std_rand = s == "rand" && i >= 2 && is_punct(t[i - 1], "::") &&
                            is_ident(t[i - 2], "std");
      if (std_rand || (s == "srand" && is_call(t, i)) || s == "random_device" ||
          s == "mt19937" || s == "mt19937_64") {
        report(out, f, t[i].line, "vbr-rng-purity",
               "stdlib RNG outside rng.cpp; draw from the seeded vbr::Rng");
      }
    }
    if (!lgamma_allowed &&
        (s == "lgamma" || s == "lgammaf" || s == "lgammal" || s == "lgamma_r") &&
        is_call(t, i)) {
      report(out, f, t[i].line, "vbr-lgamma-reentrancy",
             "bare lgamma writes global signgam; use vbr::lgamma_safe");
    }

    if (s == "new") {
      const bool op = i > 0 && is_ident(t[i - 1], "operator");
      const bool expr = i + 1 < t.size() &&
                        (t[i + 1].kind == TokKind::kIdent ||
                         is_punct(t[i + 1], "(") || is_punct(t[i + 1], "::"));
      if (!op && expr) {
        report(out, f, t[i].line, "vbr-naked-new",
               "naked new; use containers or smart pointers");
      }
    }
    if (s == "delete") {
      const bool defaulted = i > 0 && is_punct(t[i - 1], "=");
      const bool op = i > 0 && is_ident(t[i - 1], "operator");
      const bool expr = i + 1 < t.size() &&
                        (t[i + 1].kind == TokKind::kIdent ||
                         is_punct(t[i + 1], "[") || is_punct(t[i + 1], "("));
      if (!defaulted && !op && expr) {
        report(out, f, t[i].line, "vbr-naked-new",
               "naked delete; use containers or smart pointers");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// R7 isa-dispatch
// ---------------------------------------------------------------------------

/// Run-time ISA selection has one home, src/vbr/common/isa.cpp: it asks
/// the host once per process which instance every per-ISA kernel runs.
/// The instances themselves, `target("avx2")` functions, live only in the
/// two kernel files whose per-ISA bits are pinned by tests (the lockstep
/// Hosking kernel and StreamingAcf's lag loop). A CPU query anywhere else
/// is a second, unpinned dispatch; a target attribute anywhere else, or
/// any target_clones, is an instance no test pins.
void rule_isa_dispatch(const SourceFile& f, std::vector<Finding>& out) {
  const bool query_home = f.rel_path() == "src/vbr/common/isa.cpp";
  const bool kernel_home = f.rel_path() == "src/vbr/service/streaming_hosking.cpp" ||
                           f.rel_path() == "src/vbr/stream/acf.cpp";
  const Toks& t = f.tokens();
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    const std::string_view s = t[i].text;
    if (t[i].kind != TokKind::kIdent) continue;
    const bool cpu_query = s == "__builtin_cpu_supports" || s == "__builtin_cpu_is";
    // An attribute argument is a string literal: target("avx2"),
    // target_clones("default", "avx2").
    const bool attr = is_punct(t[i + 1], "(") && t[i + 2].kind == TokKind::kString;
    const bool target = attr && (s == "target" || s == "__target__");
    const bool clones = attr && (s == "target_clones" || s == "__target_clones__");
    if (cpu_query && !query_home) {
      report(out, f, t[i].line, "vbr-isa-dispatch",
             "CPU feature query outside src/vbr/common/isa.cpp; run-time "
             "instruction-set selection has one home");
    } else if (clones || (target && !(kernel_home && t[i + 2].text == "avx2"))) {
      report(out, f, t[i].line, "vbr-isa-dispatch",
             "ISA instance outside the pinned kernels; only target(\"avx2\") in "
             "streaming_hosking.cpp and acf.cpp");
    }
  }
}

// ---------------------------------------------------------------------------
// R8 durable-io
// ---------------------------------------------------------------------------

/// Bytes reach the disk through vbr::OutputFile, whose sync_file() fsyncs
/// the descriptor that wrote them. An fsync elsewhere in the library would
/// be a second durability path, free to sync a descriptor reopened by path
/// or to drop a close error.
void rule_durable_io(const SourceFile& f, std::vector<Finding>& out) {
  const std::string& p = f.rel_path();
  if (!under(p, "src") || p == "src/vbr/common/atomic_file.cpp") return;
  const Toks& t = f.tokens();
  for (std::size_t i = 0; i < t.size(); ++i) {
    if ((is_ident(t[i], "fsync") || is_ident(t[i], "fdatasync")) && is_call(t, i)) {
      report(out, f, t[i].line, "vbr-durable-io",
             "fsync outside src/vbr/common/atomic_file.cpp; sync through "
             "vbr::OutputFile or fsync_parent_directory");
    }
  }
}

// ---------------------------------------------------------------------------
// R3 no-mutable-static
// ---------------------------------------------------------------------------

void rule_mutable_static(const SourceFile& f, std::vector<Finding>& out) {
  const std::string& p = f.rel_path();
  if (!under(p, "src")) return;
  // Reviewed caches: mutex-guarded, immutable-after-build shared tables
  // (twiddle factors, Durbin-Levinson coefficient tables, marginal quantile
  // maps). The service entry holds the per-(H, variance, horizon) predictor
  // tables shared across a million streams; the per-params marginal maps
  // serve batch generation and the service alike; fft.cpp holds the real
  // transforms' per-length unpack twiddles.
  static constexpr std::array<std::string_view, 5> kAllow = {
      "src/vbr/model/davies_harte.cpp", "src/vbr/model/paxson_fgn.cpp",
      "src/vbr/model/marginal_transform.cpp", "src/vbr/common/fft.cpp",
      "src/vbr/service/streaming_hosking.cpp"};
  if (std::find(kAllow.begin(), kAllow.end(), p) != kAllow.end()) return;

  const Toks& t = f.tokens();
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is_ident(t[i], "static")) continue;
    // Scan the declaration after `static` up to the first structural token.
    bool immutable = false;
    bool function_like = false;
    std::size_t j = i + 1;
    while (j < t.size()) {
      const Token& u = t[j];
      if (u.kind == TokKind::kIdent &&
          (u.text == "const" || u.text == "constexpr" ||
           u.text == "constinit" || u.text == "thread_local" ||
           u.text == "_Thread_local")) {
        immutable = true;
        break;
      }
      if (is_punct(u, ";") || is_punct(u, "=") || is_punct(u, "{")) break;
      if (is_punct(u, "(")) {
        // `name(` — either a function declaration/definition or a variable
        // with constructor arguments. A body or a specifier after the `)`
        // means function; inside a class body a bare `;` also reads as a
        // member-function declaration (the old lint's header rule).
        const std::size_t close = f.match(j);
        if (close == SourceFile::npos) break;
        const std::size_t after = close + 1;
        if (after < t.size() &&
            (is_punct(t[after], "{") || is_ident(t[after], "noexcept") ||
             is_ident(t[after], "const") || is_punct(t[after], "->"))) {
          function_like = true;
        } else {
          const std::size_t sc = f.scope_of(i);
          if (sc != Scope::kNoScope &&
              f.scopes()[sc].kind == ScopeKind::kClass &&
              after < t.size() && is_punct(t[after], ";")) {
            function_like = true;
          }
        }
        break;
      }
      ++j;
    }
    if (immutable || function_like) continue;
    report(out, f, t[i].line, "vbr-mutable-static",
           "mutable static state (the signgam bug class); pass state "
           "explicitly or allowlist a reviewed cache");
  }
}

// ---------------------------------------------------------------------------
// R5 pragma-once
// ---------------------------------------------------------------------------

void rule_pragma_once(const SourceFile& f, std::vector<Finding>& out) {
  const std::string& p = f.rel_path();
  if (!is_header(p) || !(under(p, "src") || under(p, "tools"))) return;
  const Toks& t = f.tokens();
  if (t.empty() || t[0].kind != TokKind::kPreproc ||
      t[0].text.find("pragma") == std::string_view::npos ||
      t[0].text.find("once") == std::string_view::npos) {
    report(out, f, 1, "vbr-pragma-once", "header must open with #pragma once");
  }
}

// ---------------------------------------------------------------------------
// R6 atomic-artifacts
// ---------------------------------------------------------------------------

void rule_atomic_artifacts(const SourceFile& f, std::vector<Finding>& out) {
  const std::string& p = f.rel_path();
  if (!in_artifact_dirs(p) || p == "src/vbr/common/atomic_file.cpp") return;
  for (std::size_t i = 0; i < f.tokens().size(); ++i) {
    if (is_ident(f.tokens()[i], "ofstream")) {
      report(out, f, f.tokens()[i].line, "vbr-atomic-artifacts",
             "direct ofstream artifact write; use vbr::write_file_atomic "
             "(temp file + rename) so crashes can't leave torn artifacts");
    }
  }
}

// ---------------------------------------------------------------------------
// A1 fork-safety
// ---------------------------------------------------------------------------

/// Calls allowed between fork() returning 0 and the terminal handoff:
/// the async-signal-safe surface this repo actually needs.
bool async_signal_safe(std::string_view name) {
  static const std::set<std::string_view> kSafe = {
      "_exit",    "_Exit",     "abort",   "alarm",     "chdir",    "close",
      "dup",      "dup2",      "execl",   "execle",    "execlp",   "execv",
      "execve",   "execvp",    "fcntl",   "fork",      "getpid",   "getppid",
      "kill",     "memcpy",    "memset",  "nanosleep", "open",     "pause",
      "pipe",     "prctl",     "raise",   "read",      "setpgid",  "setrlimit",
      "getrlimit","setsid",    "sigaction", "signal",  "sigprocmask",
      "strlen",   "umask",     "usleep",  "waitpid",   "write",
  };
  return kSafe.contains(name);
}

bool terminal_call_name(std::string_view name) {
  return name == "_exit" || name == "_Exit" || name == "abort" ||
         name.starts_with("exec");
}

struct ForkScan {
  std::set<std::string> handoffs;  ///< functions invoked as the child handoff
};

void rule_fork_safety_blocks(const SourceFile& f, ForkScan& scan,
                             std::vector<Finding>& out) {
  const std::string& p = f.rel_path();
  const Toks& t = f.tokens();

  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is_ident(t[i], "fork") || !is_call(t, i)) continue;
    if (i > 0 && is_punct(t[i - 1], ".")) continue;  // member named fork

    if (!under(p, "src/vbr/sweep") && !under(p, "tools")) {
      report(out, f, t[i].line, "vbr-fork-safety",
             "fork() outside src/vbr/sweep/; process isolation lives behind "
             "the sweep supervisor");
      continue;
    }

    // Find the variable the pid lands in: `pid = fork()` / `pid_t pid = ...`.
    std::string_view pid_name;
    std::size_t q = qualifier_start(t, i);
    if (q >= 2 && is_punct(t[q - 1], "=") && t[q - 2].kind == TokKind::kIdent) {
      pid_name = t[q - 2].text;
    }
    // Locate the child branch: `if (pid == 0)` (or `0 == pid`) after the
    // fork; also handle the inline form `if (fork() == 0)`.
    std::size_t child_open = SourceFile::npos;
    std::size_t search_end = std::min(t.size(), i + 4096);
    if (pid_name.empty()) {
      const std::size_t close = f.match(i + 1);
      if (close != SourceFile::npos && close + 3 < t.size() &&
          is_punct(t[close + 1], "==") && t[close + 2].text == "0") {
        std::size_t b = close + 3;
        while (b < t.size() && !is_punct(t[b], ")")) ++b;
        if (b + 1 < t.size() && is_punct(t[b + 1], "{")) child_open = b + 1;
      }
    } else {
      for (std::size_t j = i; j + 5 < search_end; ++j) {
        if (!is_ident(t[j], "if") || !is_punct(t[j + 1], "(")) continue;
        const std::size_t close = f.match(j + 1);
        if (close == SourceFile::npos) continue;
        bool child_cond = false;
        for (std::size_t k = j + 2; k + 2 < close; ++k) {
          if ((t[k].text == pid_name && is_punct(t[k + 1], "==") &&
               t[k + 2].text == "0") ||
              (t[k].text == "0" && is_punct(t[k + 1], "==") &&
               t[k + 2].text == pid_name)) {
            child_cond = true;
            break;
          }
        }
        if (!child_cond) continue;
        if (close + 1 < t.size() && is_punct(t[close + 1], "{")) {
          child_open = close + 1;
        } else {
          report(out, f, t[j].line, "vbr-fork-safety",
                 "fork-child branch must be a braced block so the analyzer "
                 "can audit it");
        }
        break;
      }
    }
    if (child_open == SourceFile::npos) continue;
    const std::size_t child_close = f.match(child_open);
    if (child_close == SourceFile::npos) continue;

    // Audit the child block: async-signal-safe calls only, plus one
    // terminal handoff call as the final statement.
    bool terminated = false;
    for (std::size_t j = child_open + 1; j < child_close; ++j) {
      const Token& u = t[j];
      if (u.kind == TokKind::kIdent) {
        if (u.text == "throw") {
          report(out, f, u.line, "vbr-fork-safety",
                 "throw between fork() and _exit/exec; nothing may unwind in "
                 "the child");
          continue;
        }
        if (u.text == "new") {
          report(out, f, u.line, "vbr-fork-safety",
                 "allocation between fork() and _exit/exec is not "
                 "async-signal-safe");
          continue;
        }
        static const std::set<std::string_view> kDeny = {
            "cout",       "cerr",       "clog",      "printf",  "fprintf",
            "puts",       "fputs",      "fflush",    "malloc",  "calloc",
            "realloc",    "free",       "exit",      "string",  "vector",
            "ostringstream", "istringstream", "stringstream",
            "mutex",      "lock_guard", "unique_lock", "scoped_lock",
            "sleep_for",  "async",      "thread",
        };
        if (kDeny.contains(u.text)) {
          report(out, f, u.line, "vbr-fork-safety",
                 "'" + std::string(u.text) +
                     "' between fork() and _exit/exec is not "
                     "async-signal-safe");
          continue;
        }
        if (is_call(t, j)) {
          if (async_signal_safe(u.text)) {
            if (terminal_call_name(u.text)) terminated = true;
            continue;
          }
          if (u.text.starts_with("VBR_")) continue;  // contract macros: deny
          // Non-allowlisted call: allowed only as the terminal handoff —
          // `handoff(args);` immediately before the closing brace.
          const std::size_t close = f.match(j + 1);
          const bool last =
              close != SourceFile::npos && close + 2 <= child_close &&
              is_punct(t[close + 1], ";") && close + 2 == child_close;
          if (last) {
            scan.handoffs.insert(std::string(u.text));
            terminated = true;
            j = close;
            continue;
          }
          report(out, f, u.line, "vbr-fork-safety",
                 "call to '" + std::string(u.text) +
                     "' in the fork child is not on the async-signal-safe "
                     "allowlist and is not the terminal handoff");
        }
      }
    }
    if (!terminated) {
      report(out, f, t[child_open].line, "vbr-fork-safety",
             "fork child can fall through into parent code; end the block "
             "with _exit/exec or a [[noreturn]] handoff call");
    }
  }
}

void rule_fork_safety_handoffs(const std::vector<SourceFile>& files,
                               const ForkScan& scan,
                               std::vector<Finding>& out) {
  if (scan.handoffs.empty()) return;
  for (const SourceFile& f : files) {
    const Toks& t = f.tokens();
    for (const FunctionDef& def : f.functions()) {
      if (!scan.handoffs.contains(std::string(def.name))) continue;
      bool reaches_exit = false;
      for (std::size_t j = def.body_open; j < def.body_close; ++j) {
        const Token& u = t[j];
        if (u.kind != TokKind::kIdent) continue;
        if (terminal_call_name(u.text) && is_call(t, j)) reaches_exit = true;
        const bool member =
            j > 0 && (is_punct(t[j - 1], ".") || is_punct(t[j - 1], "->"));
        if (u.text == "exit" && is_call(t, j) && !member) {
          report(out, f, u.line, "vbr-fork-safety",
                 "fork-child handoff must use _exit, not exit: the child "
                 "shares the parent's stdio buffers and atexit state");
        }
        if (u.text == "fflush" || u.text == "cout") {
          report(out, f, u.line, "vbr-fork-safety",
                 "fork-child handoff must not touch inherited stdio "
                 "buffers ('" + std::string(u.text) + "')");
        }
      }
      if (!reaches_exit) {
        report(out, f, t[def.name_tok].line, "vbr-fork-safety",
               "fork-child handoff '" + std::string(def.name) +
                   "' must terminate with _exit or exec on every path");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Lambda geometry shared by A2/A3
// ---------------------------------------------------------------------------

struct LambdaShape {
  std::size_t capture_open = SourceFile::npos;   ///< `[`
  std::size_t capture_close = SourceFile::npos;  ///< `]`
  std::size_t params_open = SourceFile::npos;    ///< `(` or npos
  std::size_t params_close = SourceFile::npos;
  std::size_t body_open = SourceFile::npos;      ///< `{`
  std::size_t body_close = SourceFile::npos;
  bool is_noexcept = false;
  bool valid = false;
};

LambdaShape lambda_at(const SourceFile& f, std::size_t open_bracket) {
  LambdaShape shape;
  const Toks& t = f.tokens();
  if (open_bracket >= t.size() || !is_punct(t[open_bracket], "[")) return shape;
  shape.capture_open = open_bracket;
  shape.capture_close = f.match(open_bracket);
  if (shape.capture_close == SourceFile::npos) return shape;
  std::size_t j = shape.capture_close + 1;
  if (j < t.size() && is_punct(t[j], "(")) {
    shape.params_open = j;
    shape.params_close = f.match(j);
    if (shape.params_close == SourceFile::npos) return shape;
    j = shape.params_close + 1;
  }
  while (j < t.size() && !is_punct(t[j], "{")) {
    if (is_ident(t[j], "noexcept")) shape.is_noexcept = true;
    if (is_punct(t[j], ";") || is_punct(t[j], ")")) return shape;
    if (is_punct(t[j], "(")) {
      const std::size_t c = f.match(j);
      if (c == SourceFile::npos) return shape;
      j = c;
    }
    ++j;
  }
  if (j >= t.size()) return shape;
  shape.body_open = j;
  shape.body_close = f.match(j);
  shape.valid = shape.body_close != SourceFile::npos;
  return shape;
}

/// Resolve a functor argument that is either an inline lambda starting at
/// `arg_start` or an identifier naming `auto name = [...]` earlier in the
/// file. Returns an invalid shape when it is neither.
LambdaShape resolve_functor(const SourceFile& f, std::size_t arg_start,
                            std::string_view* name_out = nullptr) {
  const Toks& t = f.tokens();
  if (arg_start < t.size() && is_punct(t[arg_start], "[")) {
    return lambda_at(f, arg_start);
  }
  if (arg_start < t.size() && t[arg_start].kind == TokKind::kIdent) {
    if (name_out != nullptr) *name_out = t[arg_start].text;
    const std::string_view name = t[arg_start].text;
    // Search backwards for `name = [` (named lambda).
    for (std::size_t j = arg_start; j-- > 0;) {
      if (t[j].kind == TokKind::kIdent && t[j].text == name &&
          j + 2 < t.size() && is_punct(t[j + 1], "=") &&
          is_punct(t[j + 2], "[")) {
        return lambda_at(f, j + 2);
      }
    }
  }
  return {};
}

/// True when the lambda body contains a `catch (...)` handler.
bool has_catch_all(const SourceFile& f, const LambdaShape& shape) {
  const Toks& t = f.tokens();
  for (std::size_t j = shape.body_open; j < shape.body_close; ++j) {
    if (is_ident(t[j], "catch") && j + 2 < t.size() &&
        is_punct(t[j + 1], "(") && is_punct(t[j + 2], "...")) {
      return true;
    }
  }
  return false;
}

/// Split the top-level comma-separated arguments of the call whose `(` is at
/// `open`. Returns the token index of each argument's first token.
std::vector<std::size_t> call_args(const SourceFile& f, std::size_t open) {
  std::vector<std::size_t> starts;
  const Toks& t = f.tokens();
  const std::size_t close = f.match(open);
  if (close == SourceFile::npos) return starts;
  std::size_t j = open + 1;
  if (j >= close) return starts;
  starts.push_back(j);
  while (j < close) {
    if (is_punct(t[j], "(") || is_punct(t[j], "[") || is_punct(t[j], "{")) {
      const std::size_t m = f.match(j);
      if (m == SourceFile::npos || m > close) break;
      j = m + 1;
      continue;
    }
    if (is_punct(t[j], ",")) {
      if (j + 1 < close) starts.push_back(j + 1);
    }
    ++j;
  }
  return starts;
}

// ---------------------------------------------------------------------------
// A2 rng-discipline
// ---------------------------------------------------------------------------

/// Mutable `Rng` declarations (locals, params, members) in token range
/// [begin, end): `Rng name`, `vbr::Rng name`, `Rng& name` — skipping
/// `const Rng` and `Rng` inside template argument lists (span<const Rng>).
std::vector<std::string_view> mutable_rng_names(const SourceFile& f,
                                                std::size_t begin,
                                                std::size_t end) {
  std::vector<std::string_view> names;
  const Toks& t = f.tokens();
  for (std::size_t i = begin; i + 1 < end; ++i) {
    if (!is_ident(t[i], "Rng")) continue;
    const std::size_t q = qualifier_start(t, i);
    if (q > 0 && is_ident(t[q - 1], "const")) continue;
    if (q > 0 && is_punct(t[q - 1], "<")) continue;  // template argument
    std::size_t j = i + 1;
    while (j < end && (is_punct(t[j], "&") || is_punct(t[j], "*"))) ++j;
    if (j < end && t[j].kind == TokKind::kIdent && j + 1 < t.size()) {
      const Token& after = t[j + 1];
      if (is_punct(after, "=") || is_punct(after, ";") ||
          is_punct(after, ",") || is_punct(after, ")") ||
          is_punct(after, "{") || is_punct(after, "(")) {
        names.push_back(t[j].text);
      }
    }
  }
  return names;
}

/// Parallel boundaries: work handed to them runs on pool threads.
bool is_parallel_boundary(std::string_view name) {
  return name == "parallel_for_index" || name == "parallel_for_ordered";
}

/// The argument a boundary runs on pool threads: parallel_for_index's last,
/// parallel_for_ordered's third (its commit runs on the calling thread).
std::size_t parallel_task_arg(std::string_view name, const std::vector<std::size_t>& args) {
  return name == "parallel_for_ordered" && args.size() >= 3 ? args[2] : args.back();
}

void rule_rng_discipline(const SourceFile& f, std::vector<Finding>& out) {
  const Toks& t = f.tokens();
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent || !is_parallel_boundary(t[i].text) ||
        !is_call(t, i)) {
      continue;
    }
    const std::vector<std::size_t> args = call_args(f, i + 1);
    if (args.empty()) continue;

    // Mutable Rng objects visible at the call site.
    const FunctionDef* fn = f.enclosing_function(i);
    const std::size_t decl_begin = fn != nullptr ? fn->params_open : 0;
    std::vector<std::string_view> rngs = mutable_rng_names(f, decl_begin, i);

    // `std::ref(rng)` smuggled through bound arguments.
    const std::size_t call_close = f.match(i + 1);
    for (std::size_t j = i + 2; j < call_close; ++j) {
      if (is_ident(t[j], "ref") && is_call(t, j)) {
        const std::size_t rc = f.match(j + 1);
        for (std::size_t k = j + 2; k < rc && k < t.size(); ++k) {
          if (t[k].kind == TokKind::kIdent &&
              std::find(rngs.begin(), rngs.end(), t[k].text) != rngs.end()) {
            report(out, f, t[k].line, "vbr-rng-discipline",
                   "Rng passed by reference across a parallel boundary via "
                   "std::ref; split a per-task stream by value");
          }
        }
      }
    }

    const LambdaShape shape = resolve_functor(f, parallel_task_arg(t[i].text, args));
    if (!shape.valid) continue;

    // Capture list checks.
    bool default_ref = false;
    for (std::size_t j = shape.capture_open + 1; j < shape.capture_close; ++j) {
      if (is_punct(t[j], "&")) {
        if (j + 1 < shape.capture_close && t[j + 1].kind == TokKind::kIdent) {
          if (std::find(rngs.begin(), rngs.end(), t[j + 1].text) != rngs.end()) {
            report(out, f, t[j + 1].line, "vbr-rng-discipline",
                   "Rng '" + std::string(t[j + 1].text) +
                       "' captured by reference into a parallel task; give "
                       "each task its own rng.split() stream by value");
          }
          ++j;
        } else {
          default_ref = true;
        }
      }
    }
    if (default_ref) {
      for (std::size_t j = shape.body_open + 1; j < shape.body_close; ++j) {
        if (t[j].kind != TokKind::kIdent) continue;
        if (std::find(rngs.begin(), rngs.end(), t[j].text) == rngs.end()) {
          continue;
        }
        // A fresh shadowing declaration inside the lambda is fine; a bare
        // use of the outer object is the race.
        report(out, f, t[j].line, "vbr-rng-discipline",
               "outer Rng '" + std::string(t[j].text) +
                   "' used inside a [&] parallel task; derive a per-task "
                   "stream with split() and capture it by value");
        break;
      }
    }

    // Lambda parameters: `Rng&` without const crossing the boundary.
    if (shape.params_open != SourceFile::npos) {
      for (std::size_t j = shape.params_open + 1; j < shape.params_close; ++j) {
        if (is_ident(t[j], "Rng") && j + 1 < shape.params_close &&
            is_punct(t[j + 1], "&")) {
          const std::size_t q = qualifier_start(t, j);
          if (!(q > 0 && is_ident(t[q - 1], "const"))) {
            report(out, f, t[j].line, "vbr-rng-discipline",
                   "mutable Rng& parameter on a parallel task; pass a split "
                   "stream by value");
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// A3 thread-boundary
// ---------------------------------------------------------------------------

void rule_thread_boundary(const SourceFile& f, std::vector<Finding>& out) {
  const Toks& t = f.tokens();

  // Names of std::vector<std::thread> variables in this file.
  std::set<std::string_view> thread_vecs;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!is_ident(t[i], "vector")) continue;
    const std::size_t lt = i + 1;
    if (!is_punct(t[lt], "<")) continue;
    bool has_thread = false;
    std::size_t j = lt + 1;
    std::size_t depth = 1;
    while (j < t.size() && depth > 0) {
      if (is_punct(t[j], "<")) ++depth;
      if (is_punct(t[j], ">")) --depth;
      if (is_ident(t[j], "thread") || is_ident(t[j], "jthread")) {
        has_thread = true;
      }
      ++j;
    }
    if (has_thread && j < t.size() && t[j].kind == TokKind::kIdent) {
      thread_vecs.insert(t[j].text);
    }
  }

  const auto check_functor = [&](std::size_t arg_start, std::size_t site) {
    std::string_view name;
    const LambdaShape shape = resolve_functor(f, arg_start, &name);
    if (shape.valid) {
      if (shape.is_noexcept || has_catch_all(f, shape)) return;
      report(out, f, t[site].line, "vbr-thread-boundary",
             "thread entry point must be noexcept or wrap its body in the "
             "catch-and-report idiom (an escaped exception calls "
             "std::terminate)");
      return;
    }
    // Maybe a named function defined in this file.
    if (!name.empty()) {
      for (const FunctionDef& def : f.functions()) {
        if (def.name != name) continue;
        bool ok = def.is_noexcept;
        for (std::size_t j = def.body_open; !ok && j < def.body_close; ++j) {
          if (is_ident(t[j], "catch") && j + 2 < t.size() &&
              is_punct(t[j + 1], "(") && is_punct(t[j + 2], "...")) {
            ok = true;
          }
        }
        if (!ok) {
          report(out, f, t[site].line, "vbr-thread-boundary",
                 "thread entry '" + std::string(name) +
                     "' must be noexcept or contain a catch-and-report "
                     "boundary");
        }
        return;
      }
    }
    report(out, f, t[site].line, "vbr-thread-boundary",
           "cannot prove this thread entry has an exception boundary; make "
           "it noexcept or wrap it in catch-and-report");
  };

  for (std::size_t i = 0; i < t.size(); ++i) {
    // `std::thread name(functor, ...)` or `std::thread(functor, ...)`.
    if (is_ident(t[i], "thread") && i >= 2 && is_punct(t[i - 1], "::") &&
        is_ident(t[i - 2], "std")) {
      std::size_t j = i + 1;
      if (j < t.size() && t[j].kind == TokKind::kIdent) ++j;  // variable name
      if (j < t.size() && is_punct(t[j], "(")) {
        const std::vector<std::size_t> args = call_args(f, j);
        if (!args.empty()) check_functor(args.front(), i);
      }
      continue;
    }
    // pool.emplace_back(functor) on a vector<thread>.
    if ((is_ident(t[i], "emplace_back") || is_ident(t[i], "push_back")) &&
        i >= 2 && is_punct(t[i - 1], ".") &&
        t[i - 2].kind == TokKind::kIdent &&
        thread_vecs.contains(t[i - 2].text) && is_call(t, i)) {
      std::vector<std::size_t> args = call_args(f, i + 1);
      if (args.empty()) continue;
      std::size_t arg = args.front();
      // push_back(std::thread(f)) — unwrap the temporary.
      if (is_ident(t[arg], "std") && arg + 3 < t.size() &&
          is_punct(t[arg + 1], "::") && is_ident(t[arg + 2], "thread") &&
          is_punct(t[arg + 3], "(")) {
        const std::vector<std::size_t> inner = call_args(f, arg + 3);
        if (inner.empty()) continue;
        arg = inner.front();
      }
      check_functor(arg, i);
    }
  }
}

// ---------------------------------------------------------------------------
// A4 contract-coverage
// ---------------------------------------------------------------------------

struct WatchedParam {
  std::string_view name;
  std::string_view kind;  ///< "hurst" | "probability" | "length"
};

bool fp_type(const std::vector<std::string_view>& type_idents) {
  for (const std::string_view s : type_idents) {
    if (s == "double" || s == "float") return true;
  }
  return false;
}

bool integer_type(const std::vector<std::string_view>& type_idents) {
  for (const std::string_view s : type_idents) {
    if (s == "size_t" || s == "int" || s == "long" || s == "unsigned" ||
        s == "uint32_t" || s == "uint64_t" || s == "int32_t" ||
        s == "int64_t" || s == "ptrdiff_t") {
      return true;
    }
  }
  return false;
}

void rule_contract_coverage(const SourceFile& f, std::vector<Finding>& out) {
  const std::string& p = f.rel_path();
  if (!(under(p, "src/vbr/stats") || under(p, "src/vbr/model")) ||
      !p.ends_with(".cpp")) {
    return;
  }
  const Toks& t = f.tokens();

  for (const FunctionDef& def : f.functions()) {
    // Public surface only: skip internal linkage and anonymous namespaces.
    if (def.is_static || def.in_anonymous_namespace) continue;

    // Split parameters at top-level commas.
    std::vector<WatchedParam> watched;
    std::size_t start = def.params_open + 1;
    for (std::size_t j = def.params_open + 1; j <= def.params_close; ++j) {
      const bool at_end = j == def.params_close;
      if (!at_end &&
          (is_punct(t[j], "(") || is_punct(t[j], "[") || is_punct(t[j], "{") ||
           is_punct(t[j], "<"))) {
        const std::size_t m = f.match(j);
        if (m != SourceFile::npos && m < def.params_close) j = m;
        // `<` is unmatched by the bracket pass; tolerated below.
        continue;
      }
      if (!at_end && !is_punct(t[j], ",")) continue;
      // Parameter token range [start, j).
      std::vector<std::string_view> idents;
      std::string_view name;
      for (std::size_t k = start; k < j; ++k) {
        if (is_punct(t[k], "=")) break;  // default argument
        if (t[k].kind == TokKind::kIdent) {
          idents.push_back(t[k].text);
          name = t[k].text;
        }
      }
      start = j + 1;
      if (idents.size() < 2 || name.empty()) continue;
      idents.pop_back();  // the declared name is not part of the type

      if ((name == "hurst" || name == "target_hurst") && fp_type(idents)) {
        watched.push_back({name, "hurst"});
      } else if ((name == "p" || name == "prob" || name == "probability" ||
                  name.ends_with("_probability") || name.ends_with("_prob")) &&
                 fp_type(idents)) {
        watched.push_back({name, "probability"});
      } else if ((name == "n" || name == "len" || name == "length") &&
                 integer_type(idents)) {
        watched.push_back({name, "length"});
      }
    }

    for (const WatchedParam& param : watched) {
      bool validated = false;
      bool flagged = false;
      for (std::size_t j = def.body_open + 1;
           j < def.body_close && !validated && !flagged; ++j) {
        if (t[j].kind != TokKind::kIdent) continue;
        if (t[j].text.starts_with("VBR_") && is_call(t, j)) {
          const std::size_t close = f.match(j + 1);
          if (close == SourceFile::npos) break;
          for (std::size_t k = j + 2; k < close; ++k) {
            if (t[k].kind == TokKind::kIdent && t[k].text == param.name) {
              validated = true;
              break;
            }
          }
          j = close;
          continue;
        }
        if (t[j].text == param.name) {
          report(out, f, t[j].line, "vbr-contract-coverage",
                 "public " + std::string(param.kind) + " parameter '" +
                     std::string(param.name) + "' of '" +
                     std::string(def.name) +
                     "' is used before any VBR_ENSURE/VBR_CHECK_* validates "
                     "it");
          flagged = true;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// A5 naive-accumulation
// ---------------------------------------------------------------------------

/// Floating-point variable/member names declared anywhere in `f`.
void collect_fp_names(const SourceFile& f, std::set<std::string>& names) {
  const Toks& t = f.tokens();
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (is_ident(t[i], "double") || is_ident(t[i], "float")) {
      // `double name` where the previous token is not `<` (template arg is
      // handled by the vector pattern below).
      if (i > 0 && is_punct(t[i - 1], "<")) continue;
      std::size_t j = i + 1;
      while (j < t.size() && (is_punct(t[j], "&") || is_punct(t[j], "*"))) ++j;
      if (j < t.size() && t[j].kind == TokKind::kIdent && j + 1 < t.size()) {
        const Token& after = t[j + 1];
        if (is_punct(after, ";") || is_punct(after, "=") ||
            is_punct(after, ",") || is_punct(after, ")") ||
            is_punct(after, "{") || is_punct(after, "[")) {
          names.insert(std::string(t[j].text));
        }
      }
      continue;
    }
    if ((is_ident(t[i], "vector") || is_ident(t[i], "array") ||
         is_ident(t[i], "span")) &&
        is_punct(t[i + 1], "<")) {
      // vector<double> name / array<double, N> name / span<double> name.
      std::size_t j = i + 2;
      bool fp = false;
      std::size_t depth = 1;
      while (j < t.size() && depth > 0) {
        if (is_punct(t[j], "<")) ++depth;
        if (is_punct(t[j], ">")) --depth;
        if (depth == 1 && (is_ident(t[j], "double") || is_ident(t[j], "float"))) {
          fp = true;
        }
        ++j;
      }
      if (fp && j < t.size() && t[j].kind == TokKind::kIdent) {
        names.insert(std::string(t[j].text));
      }
    }
  }
}

void rule_naive_accumulation(const SourceFile& f,
                             const std::set<std::string>& fp_names,
                             std::vector<Finding>& out) {
  const Toks& t = f.tokens();

  const auto check_site = [&](std::size_t i, bool forced_loop) {
    if (t[i].kind != TokKind::kIdent ||
        !fp_names.contains(std::string(t[i].text))) {
      return;
    }
    std::size_t j = i + 1;
    if (j < t.size() && is_punct(t[j], "[")) {
      const std::size_t m = f.match(j);
      if (m == SourceFile::npos) return;
      j = m + 1;
    }
    if (j >= t.size() || !is_punct(t[j], "+=")) return;
    if (!forced_loop && !f.in_loop(i)) return;
    report(out, f, t[i].line, "vbr-naive-accumulation",
           "naive floating-point += reduction of '" + std::string(t[i].text) +
               "' in a loop; accumulate with vbr::KahanSum / kahan_total (or "
               "justify with NOLINT)");
  };

  for (std::size_t i = 0; i < t.size(); ++i) {
    check_site(i, false);
    // Braceless loop bodies never open a scope; scan the single statement.
    if ((is_ident(t[i], "for") || is_ident(t[i], "while")) && is_call(t, i)) {
      const std::size_t close = f.match(i + 1);
      if (close == SourceFile::npos || close + 1 >= t.size() ||
          is_punct(t[close + 1], "{")) {
        continue;
      }
      for (std::size_t j = close + 1; j < t.size() && !is_punct(t[j], ";");
           ++j) {
        check_site(j, true);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// A6 silent-catch
// ---------------------------------------------------------------------------

/// Catch handlers in the service and run layers sit on the fault-isolation
/// path: PR 10's contract is that a stream fault becomes either a rethrow or
/// a structured failure record (StreamFailure / SourceFailure), never a
/// swallowed exception. The heuristic for "records a failure" is an
/// identifier in the handler body mentioning fail/quarantine — the repo's
/// failure-recording surface (`record_failure`, `StreamFailure`,
/// `SourceFailure`, `quarantined`) all do; a bare log-and-continue does not.
void rule_silent_catch(const SourceFile& f, std::vector<Finding>& out) {
  const std::string& p = f.rel_path();
  if (!under(p, "src/vbr/service") && !under(p, "src/vbr/run")) return;
  const Toks& t = f.tokens();
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!is_ident(t[i], "catch") || !is_punct(t[i + 1], "(")) continue;
    const std::size_t params_close = f.match(i + 1);
    if (params_close == SourceFile::npos || params_close + 1 >= t.size() ||
        !is_punct(t[params_close + 1], "{")) {
      continue;
    }
    const std::size_t body_open = params_close + 1;
    const std::size_t body_close = f.match(body_open);
    if (body_close == SourceFile::npos) continue;

    bool handled = false;
    for (std::size_t j = body_open + 1; j < body_close; ++j) {
      if (t[j].kind != TokKind::kIdent) continue;
      if (t[j].text == "throw") {
        handled = true;
        break;
      }
      std::string lower(t[j].text);
      std::transform(lower.begin(), lower.end(), lower.begin(),
                     [](unsigned char c) { return std::tolower(c); });
      if (lower.find("fail") != std::string::npos ||
          lower.find("quarantine") != std::string::npos) {
        handled = true;
        break;
      }
    }
    if (!handled) {
      report(out, f, t[i].line, "vbr-silent-catch",
             "catch handler on the fault-isolation path neither rethrows nor "
             "records a structured failure; rethrow, record a "
             "StreamFailure/SourceFailure, or justify with "
             "NOLINT(vbr-silent-catch)");
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Catalog + driver
// ---------------------------------------------------------------------------

const std::vector<RuleInfo>& rule_catalog() {
  static const std::vector<RuleInfo> kCatalog = {
      {"vbr-fork-safety", "A1",
       "between fork()==0 and _exit/exec only async-signal-safe calls plus "
       "one terminal handoff; handoffs must _exit, never exit; fork stays "
       "inside src/vbr/sweep/"},
      {"vbr-rng-discipline", "A2",
       "no Rng captured by reference or passed as mutable Rng& across a "
       "parallel boundary; split per-task streams by value"},
      {"vbr-thread-boundary", "A3",
       "every thread entry point is noexcept or wraps its body in "
       "catch-and-report"},
      {"vbr-contract-coverage", "A4",
       "public stats/model functions VBR_ENSURE their hurst / probability / "
       "length parameters before first use"},
      {"vbr-naive-accumulation", "A5",
       "floating-point += reductions in src/vbr/stream/ loops use the "
       "Kahan/pairwise helpers"},
      {"vbr-silent-catch", "A6",
       "catch handlers in src/vbr/service/ and src/vbr/run/ rethrow or "
       "record a structured failure, never swallow"},
      {"vbr-rng-purity", "R1",
       "stdlib RNGs appear only in src/vbr/common/rng.cpp"},
      {"vbr-lgamma-reentrancy", "R2",
       "bare lgamma appears only in src/vbr/common/special_functions.cpp"},
      {"vbr-mutable-static", "R3",
       "no mutable static state in library sources outside reviewed caches"},
      {"vbr-naked-new", "R4", "no naked new/delete expressions"},
      {"vbr-pragma-once", "R5", "every header opens with #pragma once"},
      {"vbr-atomic-artifacts", "R6",
       "artifact writes go through vbr::write_file_atomic"},
      {"vbr-isa-dispatch", "R7",
       "__builtin_cpu_supports appears only in src/vbr/common/isa.cpp, and "
       "target(\"avx2\") only in src/vbr/service/streaming_hosking.cpp and "
       "src/vbr/stream/acf.cpp"},
      {"vbr-durable-io", "R8",
       "fsync and fdatasync appear under src/ only in "
       "src/vbr/common/atomic_file.cpp"},
      {"vbr-suppression", "meta",
       "NOLINT(vbr-*) markers must name known rules and carry a "
       "justification"},
  };
  return kCatalog;
}

bool is_known_rule(std::string_view id) {
  for (const RuleInfo& info : rule_catalog()) {
    if (info.id == id) return true;
  }
  return false;
}

void run_rules(const std::vector<SourceFile>& files,
               std::vector<Finding>& findings) {
  // A5's floating-point name sets are shared between a .cpp and its header
  // (members are declared in the .hpp, accumulated in the .cpp): merge by
  // path stem within src/vbr/stream/ and src/vbr/service/ (the service
  // keeps running totals over unbounded sample streams, exactly the sums
  // A5 exists to protect).
  std::map<std::string, std::set<std::string>> stream_fp;
  for (const SourceFile& f : files) {
    const std::string& p = f.rel_path();
    if (!under(p, "src/vbr/stream") && !under(p, "src/vbr/service")) continue;
    const std::size_t dot = p.rfind('.');
    collect_fp_names(f, stream_fp[p.substr(0, dot)]);
  }

  ForkScan fork_scan;
  for (const SourceFile& f : files) {
    rule_token_scans(f, findings);
    rule_mutable_static(f, findings);
    rule_pragma_once(f, findings);
    rule_atomic_artifacts(f, findings);
    rule_isa_dispatch(f, findings);
    rule_durable_io(f, findings);
    rule_fork_safety_blocks(f, fork_scan, findings);
    rule_rng_discipline(f, findings);
    rule_thread_boundary(f, findings);
    rule_contract_coverage(f, findings);
    rule_silent_catch(f, findings);
    const std::string& p = f.rel_path();
    if (under(p, "src/vbr/stream") || under(p, "src/vbr/service")) {
      const std::size_t dot = p.rfind('.');
      rule_naive_accumulation(f, stream_fp[p.substr(0, dot)], findings);
    }
  }
  rule_fork_safety_handoffs(files, fork_scan, findings);
}

}  // namespace vbr::analyze
