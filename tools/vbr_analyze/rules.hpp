// The vbr_analyze rule catalog. Each rule encodes a repo invariant that a
// generic linter cannot check; see DESIGN.md §11 for the narrative version.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "source.hpp"

namespace vbr::analyze {

struct Finding {
  std::string file;
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

struct RuleInfo {
  std::string_view id;      ///< e.g. "vbr-fork-safety"
  std::string_view legacy;  ///< short legacy id ("A1", "R3", ...)
  std::string_view summary;
};

/// The full catalog, for --list-rules and suppression validation.
const std::vector<RuleInfo>& rule_catalog();

/// True if `id` names a rule in the catalog (including "vbr-suppression").
bool is_known_rule(std::string_view id);

/// Run every rule over the file set. Findings are appended unsuppressed;
/// the caller applies NOLINT markers and the baseline afterwards.
void run_rules(const std::vector<SourceFile>& files,
               std::vector<Finding>& findings);

}  // namespace vbr::analyze
