#!/bin/sh
# bitident.sh BASE: does the working tree produce the same bytes as BASE?
#
# Extracts `git archive BASE` into a fresh temporary directory, builds that
# tree and the working tree with `dune build --root` (a tree nested inside
# another dune project would otherwise be built as part of it), runs one
# fixed battery of commands in each under the same relative output paths,
# and prints one line per artifact: "identical" or "DIFFERS".  Only
# "(X s wall)" lines are masked.  Exit status: 0 when every artifact is
# identical, 1 when any differs, 2 on a usage or build error.  On a
# difference the outputs are kept and their directory is printed.
#
# Uses only the shell, git and dune.  Example, from inside the repository:
#   tools/bitident.sh HEAD~1
set -eu

if [ $# -ne 1 ]; then
  echo "usage: $0 BASE   (any commit git archive accepts)" >&2
  exit 2
fi
base=$1
repo=$(git rev-parse --show-toplevel)
git -C "$repo" rev-parse --verify --quiet "$base^{commit}" > /dev/null || {
  echo "bitident: unknown commit $base" >&2
  exit 2
}
work=$(mktemp -d "${TMPDIR:-/tmp}/bitident.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/base/tree" "$work/base/out" "$work/head/out"
git -C "$repo" archive "$base" | tar -x -C "$work/base/tree"

# A failing step ends the script with status 2, never 1.
run() {
  "$@" || {
    echo "bitident: failed: $*" >&2
    exit 2
  }
}

build() {
  echo "building $1" >&2
  run dune build --root "$1" ./bin/bgpsim.exe ./bin/figures.exe 1>&2
}

# The battery: every figure with its CSVs, the shard smoke's three scenario
# classes at one and four shards, plain and spilling attribution, a traced
# campaign with its sidecars and their merge, the chaos artifact and the
# churn report.
battery() {
  bgpsim=$1/_build/default/bin/bgpsim.exe
  figures=$1/_build/default/bin/figures.exe
  cd "$2"
  echo "running the battery in $1" >&2
  run "$figures" all --trials 1 --jobs 2 --csv csv > figures_all.txt
  for k in 1 4; do
    run "$bgpsim" --nodes 24 --failure 0.1 --mrai 1.25 --seed 3 --jobs 1 --shards $k \
      > shard_flat_$k.txt
    run "$bgpsim" --realistic --nodes 16 --failure 0.1 --seed 5 --jobs 1 --shards $k \
      > shard_realistic_$k.txt
    run "$bgpsim" --nodes 24 --failure 0.1 --mrai 1.25 --seed 3 --jobs 1 --hold-time 9 \
      --shards $k > shard_hold_$k.txt
  done
  run "$bgpsim" analyze --nodes 24 --failure 0.1 --mrai 1.25 --seed 3 \
    --json analyze.json > analyze.txt
  run "$bgpsim" analyze --nodes 24 --failure 0.1 --mrai 1.25 --seed 3 --capacity 500 \
    --spill analyze_spill.jsonl --json analyze_spilled.json > analyze_spilled.txt
  run "$bgpsim" --nodes 24 --failure 0.1 --mrai 1.25 --seed 1 --trials 4 --jobs 2 \
    --trace-file campaign/t.jsonl > campaign.txt
  run "$bgpsim" analyze --merge campaign --json merge.json > merge.txt
  run "$bgpsim" chaos --nodes 24 --failure 0.15 --mrai 1.25 --seed 1 --trials 50 \
    --jobs 2 --out chaos.json > chaos.txt
  run "$bgpsim" churn --nodes 32 --failure 0.0 --mrai 1.25 --seed 1 \
    --workload flap-storm --prefixes 200 --flaps 2 --hold 0.5 --spread 3.0 \
    --trials 2 --jobs 2 --out churn.json > churn.txt
}

build "$work/base/tree"
build "$repo"
(battery "$work/base/tree" "$work/base/out")
(battery "$repo" "$work/head/out")

mask() { sed 's/([0-9.]* s wall)/(X s wall)/' "$1"; }
(cd "$work/base/out" && find . -type f; cd "$work/head/out" && find . -type f) \
  | sort -u > "$work/artifacts"
status=0
while read -r f; do
  a=$work/base/out/$f
  b=$work/head/out/$f
  if [ -f "$a" ] && [ -f "$b" ]; then
    mask "$a" > "$work/a"
    mask "$b" > "$work/b"
  fi
  if [ -f "$a" ] && [ -f "$b" ] && cmp -s "$work/a" "$work/b"; then
    echo "identical  ${f#./}"
  else
    echo "DIFFERS    ${f#./}"
    status=1
  fi
done < "$work/artifacts"

if [ $status -eq 0 ]; then
  echo "bitident: every artifact identical to $base"
else
  trap - EXIT
  echo "bitident: differences against $base; outputs kept in $work/base/out" \
    "and $work/head/out"
fi
exit $status
