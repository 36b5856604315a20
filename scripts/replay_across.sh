#!/usr/bin/env bash
# Check that a change leaves the simulator's schedule alone: record
# horus-check artifacts with horus-check built at a base commit, then replay
# them with the working tree's horus-check. A change that moves no event and
# no dispatch reproduces every artifact bit-identically.
#
#   scripts/replay_across.sh BASE_REF [BUILD_DIR]
#
# BUILD_DIR (default: build) holds the working tree's build; horus-check is
# built there if needed. The base commit is checked out in a git worktree
# and built under BUILD_DIR/replay-across, where the artifacts land too; the
# worktree is removed on exit. Exits non-zero if any scenario yields no
# artifact at the base or any replay diverges.
set -euo pipefail

root="$(git rev-parse --show-toplevel)"
cd "$root"
base_ref="${1:?usage: scripts/replay_across.sh BASE_REF [BUILD_DIR]}"
build="$(realpath -m "${2:-build}")"
work="$build/replay-across"
base_src="$work/base-src"
base_build="$work/base-build"
artifacts="$work/artifacts"
jobs="$(nproc)"

# Each scenario runs a broken layer variant ('!'), so the base run fails and
# writes an artifact. Without --no-shrink the switch run shrinks to a plan
# with no events, which would replay nothing of the switch.
scenarios=(
  "--stack=TOTAL!:STABLE:MBRSHIP:FRAG:NAK:COM"
  "--stack=CAUSAL!:MBRSHIP:FRAG:NAK:COM"
  "--stack=MBRSHIP:FRAG:NAK!:COM"
  "--stack=MBRSHIP!:FRAG:NAK:COM --partitions=1"
  "--stack=TOTAL!:MBRSHIP:FRAG:NAK:COM --switch-spec=TOTAL!:MBRSHIP:FRAG:NAK:COMPRESS:COM"
)

base_sha="$(git rev-parse --verify "${base_ref}^{commit}")"
mkdir -p "$work" "$artifacts"
git worktree remove --force "$base_src" 2>/dev/null || true
git worktree add --detach "$base_src" "$base_sha" >/dev/null
trap 'git worktree remove --force "$base_src"' EXIT

# Build one tree's horus-check, keeping the compiler's output in a log.
build_check() {
  local src=$1 dir=$2 log="$work/build-$(basename "$2").log"
  {
    [[ -f "$dir/CMakeCache.txt" ]] ||
      cmake -S "$src" -B "$dir" -DCMAKE_BUILD_TYPE=Release
    cmake --build "$dir" -j"$jobs" --target horus-check
  } >"$log" 2>&1 || { tail -n 40 "$log"; echo "build failed: $log"; exit 2; }
}
echo "building horus-check at ${base_sha:0:12} and in the working tree"
build_check "$base_src" "$base_build"
build_check "$root" "$build"

failed=0
n=0
for scenario in "${scenarios[@]}"; do
  n=$((n + 1))
  read -ra args <<<"$scenario"
  artifact="$artifacts/scenario-$n.json"
  rm -f "$artifact"
  echo "== $scenario"
  "$base_build/tools/horus-check" "${args[@]}" --no-shrink --quiet \
    --repro="$artifact" >/dev/null || true
  if [[ ! -f "$artifact" ]]; then
    echo "   no artifact: the base run found no violation"
    failed=1
    continue
  fi
  if out="$("$build/tools/horus-check" --replay="$artifact" 2>&1)"; then
    echo "   $(tail -n 1 <<<"$out")"
  else
    sed 's/^/   /' <<<"$out"
    failed=1
  fi
done
exit "$failed"
