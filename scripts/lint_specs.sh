#!/usr/bin/env bash
# Lint every stack spec literal in the tree with horus-lint.
#
# Extracts every quoted colon-separated spec string from examples/, tests/,
# docs/ and the top-level markdown, keeps the ones whose every token is a
# registered layer name, and lints each. Specs listed in
# scripts/lint_allowlist.txt are expected to be ill-formed (tests assert
# their rejection); the sweep fails if one of them starts linting clean.
#
# Usage: scripts/lint_specs.sh [path/to/horus-lint]
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
lint="${1:-$root/build/tools/horus-lint}"
allow="$root/scripts/lint_allowlist.txt"

if [[ ! -x "$lint" ]]; then
  echo "horus-lint not found at $lint (build first, or pass its path)" >&2
  exit 2
fi

# --list-layers prints "NAME up_emits=..."; the layer name
# is the first field.
declare -A known
while IFS= read -r name; do
  known[$name]=1
done < <("$lint" --list-layers | awk '{print $1}')

is_spec() {
  local IFS=':' tok
  for tok in $1; do
    [[ -n ${known[$tok]:-} ]] || return 1
  done
}

mapfile -t cands < <(
  grep -rhoE '"[A-Z0-9_]+(:[A-Z0-9_]+)+"' \
    "$root/examples" "$root/tests" "$root/docs" \
    "$root/README.md" "$root/DESIGN.md" 2>/dev/null |
  tr -d '"' | sort -u)

checked=0
fail=0
bad_specs=()
for spec in "${cands[@]}"; do
  is_spec "$spec" || continue
  checked=$((checked + 1))
  if grep -qxF "$spec" "$allow" 2>/dev/null; then
    if "$lint" --quiet "$spec" >/dev/null 2>&1; then
      echo "ALLOWLISTED SPEC NOW LINTS CLEAN (remove it from $allow): $spec"
      fail=1
    fi
  else
    if ! out=$("$lint" "$spec" 2>&1); then
      echo "ILL-FORMED SPEC IN TREE:"
      echo "$out"
      fail=1
      bad_specs+=("$spec")
    fi
  fi
done

# Inside GitHub Actions, surface the failures as inline PR annotations too.
if [[ -n "${GITHUB_ACTIONS:-}" && ${#bad_specs[@]} -gt 0 ]]; then
  "$lint" --json "${bad_specs[@]}" |
    python3 "$root/scripts/lint_annotations.py" || true
fi

echo "lint_specs: checked $checked spec(s), $((${#cands[@]} - checked)) non-spec literal(s) skipped"
exit $fail
