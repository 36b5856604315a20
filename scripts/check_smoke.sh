#!/usr/bin/env bash
# The horus-check smoke sweep: run the fixed seed corpus against the three
# canonical stacks, all oracles on auto. Any violation fails the sweep and
# leaves a shrunken repro.json behind (CI's check-smoke job uploads it as
# an artifact; locally, replay it with `horus-check --replay=<file>`).
#
# Usage: scripts/check_smoke.sh [path/to/horus-check] [path/to/corpus.txt]
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
check="${1:-$root/build/tools/horus-check}"
corpus="${2:-$root/scripts/check_corpus.txt}"
out_dir="${CHECK_SMOKE_OUT:-.}"

if [[ ! -x "$check" ]]; then
  echo "horus-check not found at $check (build first, or pass its path)" >&2
  exit 2
fi
if [[ ! -f "$corpus" ]]; then
  echo "seed corpus not found at $corpus" >&2
  exit 2
fi

stacks=(
  "TOTAL:STABLE:MBRSHIP:FRAG:NAK:COM"
  "CAUSAL:MBRSHIP:FRAG:NAK:COM"
  "MBRSHIP:FRAG:NAK:COM"
)

# The corpus mixes plain numeric seed lines with `stack=SPEC seeds=N`
# entries; horus-check's --seed-file only accepts numbers, so split them.
seeds_only="$(mktemp)"
trap 'rm -f "$seeds_only"' EXIT
grep -E '^[0-9]+$' "$corpus" > "$seeds_only" || true

failed=0
for stack in "${stacks[@]}"; do
  repro="$out_dir/repro-$(echo "$stack" | tr ':' '_').json"
  echo "== $stack =="
  if ! "$check" --stack="$stack" --seed-file="$seeds_only" --quiet \
      --repro="$repro"; then
    echo "FAILED: $stack (repro at $repro)" >&2
    failed=1
  fi
done

# Extra corpus stacks, each swept over its own sequential seed range. An
# optional `casts=N` token sets the casts per member per round (--casts=N),
# and an optional `partitions=N` token the partitions per run
# (--partitions=N).
# An optional `switch@MS=SPEC` token live-reconfigures the group to SPEC
# mid-workload (MS=0 derives a seed-dependent switch time); a `clean`
# token runs the stack as is. Both run without crashes/partitions, so the
# delivery oracle (cross-epoch on a switch) enforces full delivery -- loss
# and duplication stay at the scenario defaults.
while IFS= read -r line; do
  [[ "$line" =~ ^stack=([A-Z0-9_:!]+)[[:space:]]+seeds=([0-9]+)([[:space:]]+casts=([0-9]+))?([[:space:]]+partitions=([0-9]+))?([[:space:]]+switch@([0-9]+)=([A-Z0-9_:]+)|[[:space:]]+(clean))?$ ]] || continue
  stack="${BASH_REMATCH[1]}"
  nseeds="${BASH_REMATCH[2]}"
  casts="${BASH_REMATCH[4]}"
  partitions="${BASH_REMATCH[6]}"
  switch_ms="${BASH_REMATCH[8]}"
  switch_spec="${BASH_REMATCH[9]}"
  clean="${BASH_REMATCH[10]}"
  extra=()
  label="$stack"
  if [[ -n "$casts" ]]; then
    extra+=("--casts=$casts")
    label="$label casts=$casts"
  fi
  if [[ -n "$partitions" ]]; then
    extra+=("--partitions=$partitions")
    label="$label partitions=$partitions"
  fi
  if [[ -n "$switch_spec" ]]; then
    extra+=("--switch-spec=$switch_spec" "--switch-at-ms=$switch_ms"
            "--crashes=0" "--partitions=0")
    label="$label -> $switch_spec"
  elif [[ -n "$clean" ]]; then
    extra+=("--crashes=0" "--partitions=0")
    label="$label clean"
  fi
  repro="$out_dir/repro-$(echo "$label" | tr ': >=' '_').json"
  echo "== $label (seeds 1..$nseeds) =="
  if ! "$check" --stack="$stack" --seeds="$nseeds" --quiet \
      --repro="$repro" "${extra[@]}"; then
    echo "FAILED: $label (repro at $repro)" >&2
    failed=1
  fi
done < "$corpus"

exit "$failed"
