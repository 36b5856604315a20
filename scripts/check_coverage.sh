#!/usr/bin/env bash
# Registry coverage of the horus-check smoke sweep: every registered layer
# (horus-lint --list-layers) must appear in some stack the sweep runs, or
# sit in scripts/coverage_exempt.txt with a one-line reason. A new layer
# added without a corpus line fails here.
#
# The swept stacks are check_smoke.sh's canonical stacks (its `stacks=(`
# block) plus every `stack=SPEC` and `switch@MS=SPEC` of the corpus. An
# exempt name that the sweep now covers, or that is not registered, fails
# too, so the exempt list only shrinks.
#
# Usage: scripts/check_coverage.sh [path/to/horus-lint] [path/to/corpus.txt]
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
lint="${1:-$root/build/tools/horus-lint}"
corpus="${2:-$root/scripts/check_corpus.txt}"
exempt="$root/scripts/coverage_exempt.txt"

if [[ ! -x "$lint" ]]; then
  echo "horus-lint not found at $lint (build first, or pass its path)" >&2
  exit 2
fi

canonical=$(sed -n '/^stacks=(/,/^)/p' "$root/scripts/check_smoke.sh" |
  grep -oE '"[A-Z0-9_:!]+"' | tr -d '"' || true)
if [[ -z "$canonical" ]]; then
  echo "no canonical stacks found in scripts/check_smoke.sh" >&2
  exit 2
fi

# One token per line: every layer of every swept stack.
declare -A swept
while IFS= read -r tok; do
  swept[$tok]=1
done < <(
  { echo "$canonical"
    grep -oE '^stack=[A-Z0-9_:!]+|switch@[0-9]+=[A-Z0-9_:]+' "$corpus" |
      sed -E 's/^(stack|switch@[0-9]+)=//'
  } | tr ':' '\n')

declare -A reason
while read -r name why; do
  [[ -z "$name" || "$name" == \#* ]] && continue
  reason[$name]="$why"
done < "$exempt"

fail=0
declare -A registered
while IFS= read -r name; do
  registered[$name]=1
  if [[ -n ${swept[$name]:-} ]]; then
    if [[ -n ${reason[$name]:-} ]]; then
      echo "EXEMPT LAYER NOW SWEPT (remove it from $exempt): $name"
      fail=1
    fi
  elif [[ -z ${reason[$name]:-} ]]; then
    echo "LAYER IN NO SWEPT STACK: $name (add a corpus line to $corpus," \
         "or an entry with a reason to $exempt)"
    fail=1
  fi
done < <("$lint" --list-layers | awk '{print $1}')

for name in "${!reason[@]}"; do
  if [[ -z ${registered[$name]:-} ]]; then
    echo "EXEMPT NAME NOT REGISTERED (remove it from $exempt): $name"
    fail=1
  fi
done

echo "check_coverage: ${#registered[@]} layer(s) registered," \
     "${#reason[@]} exempt"
exit $fail
