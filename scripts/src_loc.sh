#!/usr/bin/env bash
# Count the lines of src/: every .cpp and .hpp under src/ plus the
# CMakeLists.txt files there. This is the "net src/ LoC" figure each change
# reports (ROADMAP.md).
#
#   scripts/src_loc.sh             # lines in the working tree
#   scripts/src_loc.sh BASE_REF    # also the count at BASE_REF, the net
#                                  # change, and lines added/removed
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

count_tree() {
  find src \( -name '*.cpp' -o -name '*.hpp' -o -name CMakeLists.txt \) \
    -type f -print0 | xargs -0 cat | wc -l
}

count_ref() {
  git archive "$1" -- src |
    tar -xO --wildcards '*.cpp' '*.hpp' '*CMakeLists.txt' | wc -l
}

now=$(count_tree)
echo "src LoC: ${now}"
[[ $# -eq 0 ]] && exit 0

base_ref=$1
base=$(count_ref "$base_ref")
read -r added removed < <(
  git diff --numstat "$base_ref" -- 'src/*.cpp' 'src/*.hpp' \
    'src/*CMakeLists.txt' | awk '{a += $1; d += $2} END {print a + 0, d + 0}')
echo "src LoC at ${base_ref}: ${base}"
echo "net: $((now - base)) (+${added} / -${removed})"
