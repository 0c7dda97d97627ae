#include "lexer.hpp"

#include <algorithm>
#include <cctype>

namespace vbr::analyze {

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::string_view trimmed(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())) != 0) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())) != 0) {
    s.remove_suffix(1);
  }
  return s;
}

/// Parse one NOLINT-family marker out of a comment body, if present.
/// Recognized forms (rule list and justification both optional at the
/// grammar level; the analyzer enforces the policy later):
///   NOLINT(vbr-rule, vbr-other): justification
///   NOLINTNEXTLINE(vbr-rule): justification
///   NOLINTBEGIN(vbr-rule): justification ... NOLINTEND(vbr-rule)
/// A marker must START the comment body (`foo(); // NOLINT(...)`), the
/// clang-tidy placement convention; comments merely *mentioning* NOLINT
/// (like this one) are prose, not suppressions.
void collect_nolint(std::string_view comment, std::size_t line,
                    std::vector<Suppression>& out) {
  const std::string_view lead = trimmed(comment);
  if (!lead.starts_with("NOLINT")) return;
  std::string_view rest = lead.substr(6);

  Suppression s;
  s.line = line;
  if (rest.starts_with("NEXTLINE")) {
    s.kind = SuppressKind::kNextLine;
    rest.remove_prefix(8);
  } else if (rest.starts_with("BEGIN")) {
    s.kind = SuppressKind::kBegin;
    rest.remove_prefix(5);
  } else if (rest.starts_with("END")) {
    s.kind = SuppressKind::kEnd;
    rest.remove_prefix(3);
  }

  if (rest.starts_with("(")) {
    const std::size_t close = rest.find(')');
    if (close == std::string_view::npos) return;  // malformed; not a marker
    s.has_rule_list = true;
    std::string_view list = rest.substr(1, close - 1);
    while (!list.empty()) {
      const std::size_t comma = list.find(',');
      const std::string_view item =
          trimmed(comma == std::string_view::npos ? list : list.substr(0, comma));
      if (!item.empty()) s.rules.emplace_back(item);
      if (comma == std::string_view::npos) break;
      list.remove_prefix(comma + 1);
    }
    rest.remove_prefix(close + 1);
  }

  rest = trimmed(rest);
  if (rest.starts_with(":")) {
    s.justification = std::string(trimmed(rest.substr(1)));
  }
  out.push_back(std::move(s));
}

/// Multi-character punctuators the rules care about, longest first.
constexpr std::string_view kPuncts[] = {
    "...", "->*", "<<=", ">>=", "<=>", "::", "->", "++", "--", "<<", ">>",
    "<=", ">=", "==", "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=",
    "&=", "|=", "^=",
};

}  // namespace

LexResult lex(std::string_view text) {
  LexResult result;
  std::size_t i = 0;
  std::size_t line = 1;
  const std::size_t n = text.size();

  const auto count_lines = [&](std::size_t from, std::size_t to) {
    line += static_cast<std::size_t>(
        std::count(text.begin() + static_cast<std::ptrdiff_t>(from),
                   text.begin() + static_cast<std::ptrdiff_t>(to), '\n'));
  };

  // True until the first token of a line is consumed; used to spot `#`.
  bool at_line_start = true;

  while (i < n) {
    const char c = text[i];
    const char next = i + 1 < n ? text[i + 1] : '\0';

    if (c == '\n') {
      ++line;
      ++i;
      at_line_start = true;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }

    // Line comment (may carry a NOLINT marker).
    if (c == '/' && next == '/') {
      std::size_t j = text.find('\n', i);
      if (j == std::string_view::npos) j = n;
      collect_nolint(text.substr(i + 2, j - i - 2), line, result.suppressions);
      i = j;
      continue;
    }
    // Block comment: the marker, if any, applies to the line it ends on.
    if (c == '/' && next == '*') {
      std::size_t j = text.find("*/", i + 2);
      j = j == std::string_view::npos ? n : j + 2;
      const std::size_t start_line = line;
      count_lines(i, j);
      (void)start_line;
      collect_nolint(text.substr(i + 2, j - i - 2), line, result.suppressions);
      i = j;
      continue;
    }

    // Preprocessor logical line, backslash continuations joined.
    if (c == '#' && at_line_start) {
      std::size_t j = i;
      for (;;) {
        std::size_t eol = text.find('\n', j);
        if (eol == std::string_view::npos) {
          j = n;
          break;
        }
        std::size_t back = eol;
        while (back > j && (text[back - 1] == '\r')) --back;
        if (back > j && text[back - 1] == '\\') {
          j = eol + 1;
          continue;
        }
        j = eol;
        break;
      }
      result.tokens.push_back({TokKind::kPreproc, text.substr(i, j - i), line});
      count_lines(i, j);
      i = j;
      at_line_start = true;
      continue;
    }
    at_line_start = false;

    // Raw string literal: R"delim( ... )delim" — never rule-visible inside.
    if (c == 'R' && next == '"') {
      const std::size_t open = text.find('(', i + 2);
      const std::string_view delim =
          open == std::string_view::npos ? std::string_view{}
                                         : text.substr(i + 2, open - i - 2);
      if (open != std::string_view::npos && delim.size() <= 16) {
        std::string closer;
        closer.reserve(delim.size() + 2);
        closer += ')';
        closer += delim;
        closer += '"';
        std::size_t end = text.find(closer, open + 1);
        end = end == std::string_view::npos ? n : end + closer.size();
        result.tokens.push_back(
            {TokKind::kString, text.substr(i + 2 + delim.size() + 1,
                                           end - i - closer.size() -
                                               (2 + delim.size() + 1)),
             line});
        count_lines(i, end);
        i = end;
        continue;
      }
    }

    // Ordinary string/char literal with escape handling.
    if (c == '"' || c == '\'') {
      std::size_t j = i + 1;
      while (j < n) {
        if (text[j] == '\\') {
          j += 2;
          continue;
        }
        if (text[j] == c) {
          ++j;
          break;
        }
        if (text[j] == '\n') break;  // unterminated: stop at line end
        ++j;
      }
      result.tokens.push_back(
          {c == '"' ? TokKind::kString : TokKind::kChar,
           text.substr(i + 1, j > i + 1 ? j - i - 2 : 0), line});
      count_lines(i, std::min(j, n));
      i = std::min(j, n);
      continue;
    }

    if (ident_start(c)) {
      std::size_t j = i + 1;
      while (j < n && ident_char(text[j])) ++j;
      // Identifier immediately followed by a quote is an encoding prefix
      // (u8"...", L'...'): fold into the literal by looping again.
      if (j < n && (text[j] == '"' || text[j] == '\'') &&
          (text.substr(i, j - i) == "u8" || text.substr(i, j - i) == "u" ||
           text.substr(i, j - i) == "U" || text.substr(i, j - i) == "L")) {
        i = j;
        continue;
      }
      result.tokens.push_back({TokKind::kIdent, text.substr(i, j - i), line});
      i = j;
      continue;
    }

    if (std::isdigit(static_cast<unsigned char>(c)) != 0 ||
        (c == '.' && std::isdigit(static_cast<unsigned char>(next)) != 0)) {
      std::size_t j = i + 1;
      while (j < n && (ident_char(text[j]) || text[j] == '.' ||
                       ((text[j] == '+' || text[j] == '-') &&
                        (text[j - 1] == 'e' || text[j - 1] == 'E' ||
                         text[j - 1] == 'p' || text[j - 1] == 'P')))) {
        ++j;
      }
      result.tokens.push_back({TokKind::kNumber, text.substr(i, j - i), line});
      i = j;
      continue;
    }

    // Punctuation: longest match against the multi-char table.
    std::string_view matched;
    for (const std::string_view p : kPuncts) {
      if (text.substr(i).starts_with(p)) {
        matched = p;
        break;
      }
    }
    if (matched.empty()) matched = text.substr(i, 1);
    result.tokens.push_back({TokKind::kPunct, matched, line});
    i += matched.size();
  }

  return result;
}

}  // namespace vbr::analyze
