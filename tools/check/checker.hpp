// tvbf-check: repo-specific static analysis for the Tiny-VBF tree.
//
// Three passes over src/ (plus the atomics pass over tests/, bench/ and
// examples/), enforcing conventions a generic linter cannot:
//
//  1. include-layering DAG — modules (src/ subdirectories) are assigned to
//     ordered layers in tools/check/tvbf-check.conf; a quoted include may
//     only reach into the same module or a strictly lower layer. Back-edges
//     and same-layer cross-module includes fail, which also rules out any
//     transitive cycle.
//  2. atomics discipline — every load/store/exchange/fetch_*/
//     compare_exchange_* on a std::atomic must pass an explicit
//     std::memory_order; compare_exchange must pass BOTH the success and
//     the failure order. Files listed in the config's [atomics] section may
//     use implicit seq_cst deliberately (test counters).
//  3. contract/hygiene — banned identifiers in library code (printf family,
//     rand/srand, naked new/delete, std::thread outside the [threads]
//     allowlist), #pragma once in every header, and side-effecting
//     TVBF_REQUIRE/TVBF_ENSURE conditions.
//  4. instrument naming — string literals registering telemetry
//     instruments (.counter/.gauge/.histogram) must be dotted lowercase
//     ([a-z0-9_.]) and start with a namespace prefix from the config's
//     [instruments] section, so /metrics and snapshot names stay coherent.
//     Composed names (literal followed by +) are charset-checked only.
//
// A finding on line N can be suppressed with a comment on line N or N-1:
//   // tvbf-check: allow(<rule>)
// Always pair a suppression with a reason in the surrounding comment.
#pragma once

#include <set>
#include <string>
#include <vector>

namespace tvbf::check {

/// One diagnostic, anchored to a repo-relative file and 1-based line.
struct Finding {
  std::string file;
  int line = 0;
  std::string rule;  ///< "layering", "atomic-order", "banned-call",
                     ///< "naked-new", "naked-delete", "thread",
                     ///< "pragma-once", "require-side-effect",
                     ///< "instrument-name"
  std::string message;
};

/// Parsed tvbf-check.conf.
struct Config {
  /// Bottom-up layer list; each layer holds one or more src/ modules.
  std::vector<std::vector<std::string>> layers;
  /// Path prefixes allowed to use implicit (seq_cst) atomic operations.
  std::vector<std::string> atomics_allow_implicit;
  /// Path prefixes allowed to own std::thread / std::jthread objects.
  std::vector<std::string> thread_allow;
  /// Allowed instrument-name namespaces ("serve.", "pipeline.", ...). Empty
  /// disables the instrument-name pass.
  std::vector<std::string> instrument_prefixes;
};

/// Parses the config text; throws std::runtime_error on malformed input
/// (unknown section/key, module listed in two layers, empty layer list).
Config parse_config(const std::string& text);

/// Formats "file:line: [rule] message".
std::string format_finding(const Finding& f);

/// Collects the names of variables and members declared std::atomic<...>
/// in `content` into `out`. The atomics pass only inspects method calls
/// whose receiver is a collected name, so `archive.load(path)` on a
/// non-atomic type is never flagged. Run over every file first: members
/// are frequently declared in one file and poked from another.
void collect_atomic_names(const std::string& content,
                          std::set<std::string>& out);

/// Runs every applicable pass on one file. `path` must be repo-relative
/// ("src/...", "tests/...", ...); it selects the passes (layering and
/// hygiene cover src/ only, atomics also covers tests/bench/examples) and
/// is matched against the config allowlists.
std::vector<Finding> check_file(const Config& config, const std::string& path,
                                const std::string& content,
                                const std::set<std::string>& atomic_names);

/// Walks root/{src,tests,bench,examples}, collects atomic names, checks
/// every .hpp/.cpp, and verifies each src/ module is assigned to a layer.
/// Findings are sorted by (file, line).
std::vector<Finding> check_tree(const Config& config, const std::string& root);

}  // namespace tvbf::check
