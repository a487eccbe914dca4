#!/usr/bin/env bash
# Fails when a library header has no production caller: a src/**/*.h that no
# file under src/ or tools/ includes, other than its own .cc. Headers whose
# only callers are tests or benches on purpose (paper algorithms and
# baselines, test references, bench data) are listed with a reason in
# tools/check_callers.allow.
#
# Usage: tools/check_callers.sh [REPO_ROOT]   (default: the current directory)
set -euo pipefail

root="${1:-.}"
cd "$root"
allow_file="tools/check_callers.allow"
[[ -f "$allow_file" ]] || { echo "missing $allow_file" >&2; exit 2; }

declare -A allowed=()
status=0
while IFS= read -r line || [[ -n "$line" ]]; do
  [[ -z "${line// }" || "$line" == \#* ]] && continue
  header="${line%%[[:space:]]*}"
  reason="${line#"$header"}"
  if [[ -z "${reason// }" ]]; then
    echo "$allow_file: '$header' has no reason" >&2
    status=1
  elif [[ ! -f "src/$header" ]]; then
    echo "$allow_file: '$header' does not exist under src/" >&2
    status=1
  fi
  allowed["$header"]=1
done < "$allow_file"

while IFS= read -r header_path; do
  header="${header_path#src/}"
  own_cc="${header_path%.h}.cc"
  if grep -rlF --include='*.h' --include='*.cc' "#include \"$header\"" \
       src tools | grep -qvxF "$own_cc"; then
    continue
  fi
  if [[ -z "${allowed[$header]:-}" ]]; then
    echo "no production caller: src/$header (nothing in src/ or tools/" \
         "includes it; delete it, wire it, or allowlist it with a reason)" >&2
    status=1
  fi
done < <(find src -name '*.h' | sort)

exit "$status"
