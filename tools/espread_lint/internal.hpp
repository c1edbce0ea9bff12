// Shared scanner internals: the comment/string-aware line stripper, the
// suppression parser and the per-file scan, used by both the token rules
// (lint.cpp, D0-D5) and the cross-TU contract rules (contracts.cpp, C1,
// C4, C5) so every file is read and stripped exactly once per scan.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint.hpp"

namespace espread::lint::internal {

bool ident_char(char c);
std::string trim(const std::string& s);

/// `needle` present in `hay` with non-identifier characters (or the buffer
/// edge) on both sides.
bool contains_token(const std::string& hay, const std::string& needle);

bool path_has_prefix(const std::string& path,
                     const std::vector<std::string>& prefixes);

// ---- comment/literal stripping --------------------------------------------

/// One string literal: 0-based start line and the (unescaped-ish)
/// contents.  Multi-line raw strings record their start line and full
/// contents.
struct StringLit {
    std::size_t line = 0;
    std::string text;
};

/// Per-line views of a translation unit: `code` has comments and the
/// contents of string/char literals blanked out; `comment` collects the
/// text of comments that end on (or run through) that line; `strings`
/// lists every string literal with its position.
struct Stripped {
    std::vector<std::string> code;
    std::vector<std::string> comment;
    std::vector<StringLit> strings;
};

// ---- suppressions ----------------------------------------------------------

/// Per-line suppression sets plus the D0 findings produced while parsing.
struct Suppressions {
    /// line index (0-based) -> rule ids suppressed on that line
    std::map<std::size_t, std::set<std::string>> allow;
    std::vector<Diagnostic> malformed;

    bool mutes(std::size_t line_idx, const std::string& rule) const {
        const auto it = allow.find(line_idx);
        return it != allow.end() && it->second.count(rule) != 0;
    }
};

/// One source file, stripped and with its suppressions parsed: the shared
/// input to the token rules and the contract rules.
struct FileScan {
    std::string path;  // repo-root relative
    Stripped s;
    Suppressions sup;
};

FileScan scan_source(const std::string& path, const std::string& content);

/// D0 (malformed suppressions) plus the token rules D1-D5 over one file.
void check_token_rules(const FileScan& f, std::vector<Diagnostic>& out);

/// The contract rules C1, C4 and C5 over every scanned file plus the
/// external gate surfaces under `root`.
void check_contracts(const std::string& root,
                     const std::vector<FileScan>& scans,
                     std::vector<Diagnostic>& out);

}  // namespace espread::lint::internal
