#ifndef LSENS_TOOLS_LSENS_LINT_H_
#define LSENS_TOOLS_LSENS_LINT_H_

#include <filesystem>
#include <string>
#include <vector>

// lsens-lint: a token/line-level checker for the project-specific
// determinism invariants clang-tidy cannot express. It deliberately does
// NOT parse C++ — it scans comment-stripped source text with a handful of
// heuristics whose exact behavior is pinned by the fixture corpus under
// tools/lint_fixtures/ (tests/lint_test.cc). Five rules, all scoped to
// files under <root>/src:
//
//   hash-fold    The value-hash seed/fold definitions (kValueHashSeed,
//                HashValueFold, HashValues) live only in storage/value.h,
//                and the Mix64/SplitMix64 finalizers only in common/rng.
//                No other file may define a competing fold: the well-known
//                mix magic constants and the finalizer names are banned
//                elsewhere. Calls to the shared helpers are fine anywhere —
//                it is redefinition that makes one flat table's hashing
//                disagree with another's. Not allowlistable.
//
//   unordered-iter
//                No range-for or iterator loop (.begin/.cbegin/.rbegin)
//                over a std::unordered_map / std::unordered_set, unless
//                covered by `// lsens-lint: allow(unordered-iter) <reason>`
//                on the same or the directly preceding line, or on the
//                container's declaration (which covers every loop over that
//                name — use it for lookup-only tables). Every allow is
//                printed in the audit section so the list stays reviewable.
//                A .cc file shares declarations with its same-stem .h.
//
//   layering     `#include "<layer>/..."` edges must respect the DAG
//                common ← storage ← exec ← query ← sensitivity ←
//                {server, dp, workload}. Not allowlistable.
//
//   entropy      rand()/srand(), std::random_device, wall-clock and cpu-
//                clock reads (system_clock, steady_clock, time(), clock(),
//                ...) are banned outside common/rng and common/timer:
//                everything random or timed flows through explicitly
//                seeded Rng instances and WallTimer so runs replay
//                bit-for-bit.
//
//   row-materialize
//                Advisory, scoped to src/exec/: calling Relation::Row()
//                inside a loop body. The columnar Relation gathers a fresh
//                vector per Row() call, so a loop doing it is a per-row
//                allocation the Chunks() chunk spans (or a RowInto() buffer)
//                avoid. CountedRelation::Row() returns a span and is not
//                matched. Allowlistable with
//                `// lsens-lint: allow(row-materialize) <reason>` for cold
//                or setup loops where clarity wins.
//
// An allow annotation with an empty reason is itself a finding
// (allow-reason): the audit is only useful if every entry says *why*
// ordering or entropy cannot leak.

namespace lsens_lint {

struct Finding {
  std::string rule;     // "hash-fold", "unordered-iter", "layering",
                        // "entropy", "row-materialize", "allow-reason"
  std::string file;     // path relative to the lint root
  int line = 0;         // 1-based
  std::string message;
};

struct Allow {
  std::string rule;
  std::string file;
  int line = 0;
  std::string reason;
};

struct Report {
  std::vector<Finding> findings;  // sorted by (file, line, rule)
  std::vector<Allow> allows;      // sorted by (file, line)
  int files_scanned = 0;
};

// Lints every *.h / *.cc under `root`/src. `root` is the repository root
// (the directory containing src/). File order, and therefore the report,
// is deterministic: paths are scanned sorted.
Report RunLint(const std::filesystem::path& root);

// Human-readable report: findings first, then the allow audit. This is
// what the CLI prints; tests pin that it is byte-identical across runs.
std::string FormatReport(const Report& report);

}  // namespace lsens_lint

#endif  // LSENS_TOOLS_LSENS_LINT_H_
