// hotcheck: the hot-path purity gate (DESIGN.md §14).
//
// Reads COMPILED objects — not source — and answers one question: can any
// function annotated DUET_HOT (util/hot.h) reach, through the static call
// graph, a call the hot path must never make? Working on objects is the
// point: it sees through inlining decisions, template instantiations,
// constprop clones and .cold splits exactly as the optimizer left them, so
// the gate verifies the binary that ships, not the source that was meant.
//
// Mechanics:
//   * `objdump -t` per object: which symbols are defined where, and which
//     sections they live in. DUET_HOT places definitions in unique
//     `.text.duet_hot.<n>` sections — those symbols are the ROOTS.
//     `.text.duet_hot_allow.<n>` marks ALLOW barriers (audited escape
//     hatches; traversal stops there and the attached reason is reported).
//   * `objdump -dr` per object: call-graph edges from relocations (plus
//     direct `call <sym>` operands for same-TU calls that need no reloc).
//     Section-relative targets (`.text.unlikely+0x30` — .cold parts) are
//     resolved through the symbol table.
//   * BFS from every root over the merged multi-object graph. Defined
//     symbols are descended into; undefined ones are leaves. EVERY visited
//     node is classified against the denylist (alloc / mutex / clock /
//     throw / unordered_map / stdio) — a hit is reported with the full
//     root -> ... -> offender path.
//   * Allow barriers come from the section attribute, or from an allow.conf
//     of `pattern :: reason` lines (regex over mangled + demangled names) —
//     the latter exists because GCC drops section attributes on template
//     instantiations (FlatTable<...>::rehash), where only `noinline` keeps
//     a symbol to stop at.
//
// Known blind spot, by design: indirect calls (virtual dispatch, function
// pointers) leave no text relocation. The mitigation is policy, not code —
// every hot entry point that could be reached indirectly (each decision
// engine's decide) is annotated as its own root, so the closure never needs
// to follow a vtable to cover it.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace duet::hotcheck {

struct Options {
  std::vector<std::string> objects;
  std::string allow_file;  // optional: `pattern :: reason` lines
  bool verbose = false;    // list every reachable symbol in the report
};

struct Violation {
  std::string klass;              // alloc|mutex|clock|throw|unordered_map|stdio
  std::string root;               // demangled root the offender is reachable from
  std::vector<std::string> path;  // demangled call chain, root..offender inclusive
};

struct AllowRecord {
  std::string symbol;  // demangled barrier actually hit during traversal
  std::string reason;  // from the DUET_HOT_ALLOW(...) source literal or allow.conf
  std::string origin;  // "file.cc:123" or "allow.conf"
};

struct Analysis {
  std::vector<Violation> violations;
  std::vector<AllowRecord> allows;
  std::vector<std::string> roots;      // demangled, sorted
  std::vector<std::string> reachable;  // demangled, sorted (verbose report only)
  std::size_t object_count = 0;
  std::vector<std::string> errors;  // per-object tool failures (analysis still ran)
};

// Classifies a symbol against the purity denylist; empty string = benign.
// Exposed for tests.
std::string denylist_class(const std::string& mangled, const std::string& demangled);

// Runs the analysis. nullopt when the binutils tools (objdump/nm) are
// unavailable or no object could be read at all.
std::optional<Analysis> analyze(const Options& opts);

// Human-readable report (also what the CI artifact contains).
std::string render_report(const Analysis& analysis, bool verbose);

}  // namespace duet::hotcheck
