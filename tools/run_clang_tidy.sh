#!/usr/bin/env bash
# Run the repo's clang-tidy profile (.clang-tidy at the root) over every
# first-party translation unit in the compile database. One command,
# locally and in CI:
#
#   tools/run_clang_tidy.sh [build-dir] [-- extra clang-tidy args]
#
# The build dir must have been configured with CMAKE_EXPORT_COMPILE_COMMANDS
# (every preset in CMakePresets.json sets it), e.g.:
#
#   cmake --preset release && tools/run_clang_tidy.sh build/release
#
# Exits non-zero on any finding (WarningsAsErrors: '*' in the profile).
set -euo pipefail

BUILD_DIR="${1:-build/release}"
shift $(( $# > 0 ? 1 : 0 )) || true
if [[ "${1:-}" == "--" ]]; then shift; fi

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
DB="${BUILD_DIR}/compile_commands.json"

if [[ ! -f "${DB}" ]]; then
  echo "error: ${DB} not found — configure first, e.g. 'cmake --preset release'" >&2
  exit 2
fi

TIDY="${CLANG_TIDY:-clang-tidy}"
if ! command -v "${TIDY}" >/dev/null 2>&1; then
  echo "error: ${TIDY} not found (set CLANG_TIDY=/path/to/clang-tidy)" >&2
  exit 2
fi

RUNNER="$(command -v run-clang-tidy || true)"
JOBS="$(nproc 2>/dev/null || echo 4)"

# First-party TUs only: generated/fetched sources (gtest) are
# not held to the profile. Filter by path prefix against the database.
FILTER="^${ROOT}/(src|tools|tests|bench|examples)/.*\.cc$"

if [[ -n "${RUNNER}" ]]; then
  # run-clang-tidy ships with LLVM and parallelizes over the database.
  "${RUNNER}" -clang-tidy-binary "${TIDY}" -p "${BUILD_DIR}" -quiet \
    -j "${JOBS}" "${FILTER}" "$@"
else
  # Fallback: serial loop over the database (python3 is always present in
  # the CI image; jq is not).
  mapfile -t FILES < <(python3 - "$DB" "$FILTER" <<'EOF'
import json, re, sys
db, pat = sys.argv[1], re.compile(sys.argv[2])
seen = set()
for entry in json.load(open(db)):
    f = entry["file"]
    if pat.match(f) and f not in seen:
        seen.add(f)
        print(f)
EOF
)
  status=0
  for f in "${FILES[@]}"; do
    "${TIDY}" -p "${BUILD_DIR}" --quiet "$@" "$f" || status=1
  done
  exit "${status}"
fi
