#!/usr/bin/env bash
# Paired perfbench runs: a base revision against the working tree.
#
# Exports REV with `git archive` into a directory of its own and builds
# its perfbench there, with a fresh target dir (a copied target/ has
# failed to build before: cargo trusted stale metadata whose mtimes the
# copy refreshed). Then it alternates the two sides N times with the
# BENCHMARK.json command, using the pair index as the seed and letting
# the base run first in odd pairs and second in even ones. Last, for
# every end-to-end metric it prints each side's median [quartiles], the
# median of the paired ratios (change / base) and the pairs the change
# won, and it checks that every run was correct and failed nothing.
#
# Usage: scripts/perfbench_pairs.sh REV WORKLOAD N
#   REV      — base revision (e.g. HEAD, or a commit id)
#   WORKLOAD — a workload name from BENCHMARK.json (e.g. wire_hot)
#   N        — number of pairs (ten or more to claim a change)
#
# Environment:
#   PAIRS_DIR — where the base export and run logs go
#               (default target/pairs)
#
# Cargo rewrites perfbench/Cargo.lock on a build; the script restores
# the working tree's copy afterwards and changes nothing under
# perfbench/. Runs take run_seconds each, plus input generation.
set -euo pipefail

cd "$(dirname "$0")/.."

[ $# -eq 3 ] || { sed -n '2,/^set -euo/p' "$0" | sed '$d; s/^# \{0,1\}//' >&2; exit 2; }
REV="$1"
WORKLOAD="$2"
PAIRS="$3"
DIR="${PAIRS_DIR:-target/pairs}"

SHA="$(git rev-parse --verify "$REV^{commit}")"
SECONDS_PER_RUN="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"
# The benchmark command, one argument per line, from BENCHMARK.json.
mapfile -t COMMAND < <(awk '/"command": \[/ { on = 1; next } on && /\]/ { exit }
  on { gsub(/^ *"|",? *$/, ""); print }' BENCHMARK.json)
# Every end-to-end metric with its better direction.
mapfile -t METRICS < <(awk '/"end_to_end": \[/ { on = 1 } on && /^  \]/ { exit }
  on && /"name"/ { gsub(/.*"name": "|",?$/, ""); name = $0 }
  on && /"better"/ { gsub(/.*"better": "|",?$/, ""); print name " " $0 }' BENCHMARK.json)

BASE="$DIR/base-${SHA:0:12}"
LOGS="$DIR/logs-$WORKLOAD"
mkdir -p "$DIR" "$LOGS"
if [ ! -d "$BASE" ]; then
  mkdir -p "$BASE.tmp"
  git archive "$SHA" | tar -x -C "$BASE.tmp"
  mv "$BASE.tmp" "$BASE"
fi

LOCK_COPY="$DIR/Cargo.lock.keep"
cp perfbench/Cargo.lock "$LOCK_COPY"
trap 'cp "$LOCK_COPY" perfbench/Cargo.lock' EXIT
for side in "$BASE" .; do
  (cd "$side" && cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml)
done

run() { # side label seed
  local log="$LOGS/$2-$3.txt"
  (cd "$1" && "${COMMAND[@]}" --workload "$WORKLOAD" --seed "$3" \
    --seconds "$SECONDS_PER_RUN" --trace 0) >"$log" 2>&1 || true
  local json
  json="$(grep '^{"correct"' "$log" || true)"
  case "$json" in
    '{"correct": true, '*'"failed": 0,'*) ;;
    *) echo "perfbench_pairs: $2 run, seed $3, was not clean (see $log)" >&2; BAD=1 ;;
  esac
}

BAD=0
for i in $(seq "$PAIRS"); do
  if [ $((i % 2)) -eq 1 ]; then
    run "$BASE" base "$i"; run . change "$i"
  else
    run . change "$i"; run "$BASE" base "$i"
  fi
  echo "perfbench_pairs: $WORKLOAD pair $i of $PAIRS done"
done

echo "$WORKLOAD: ${SHA:0:12} (base) vs working tree (change), $PAIRS pairs, $SECONDS_PER_RUN s, nproc $(nproc)"
printf '%-20s %-30s %-30s %-8s %s\n' metric "base median [q1-q3]" "change median [q1-q3]" ratio "change wins"
for entry in "${METRICS[@]}"; do
  read -r name better <<<"$entry"
  for i in $(seq "$PAIRS"); do
    b="$(awk -v m="$name" '$1 == m { print $2 }' "$LOGS/base-$i.txt")"
    c="$(awk -v m="$name" '$1 == m { print $2 }' "$LOGS/change-$i.txt")"
    echo "${b:-nan} ${c:-nan}"
  done | awk -v name="$name" -v better="$better" '
    function q(a, n, p,   r, lo) { r = p * (n - 1); lo = int(r); return a[lo + 1] + (r - lo) * (a[lo + 2] - a[lo + 1]) }
    function sort(a, n,   i, j, t) { for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t } }
    $1 != "nan" && $2 != "nan" {
      n++; b[n] = $1; c[n] = $2; r[n] = ($1 == 0) ? 1 : $2 / $1
      if ((better == "lower" && $2 < $1) || (better == "higher" && $2 > $1)) wins++
    }
    END {
      if (n == 0) { printf "%-20s no readings\n", name; exit }
      sort(b, n); sort(c, n); sort(r, n)
      printf "%-20s %-30s %-30s %-8.3f %d/%d (%s is better)\n", name,
        sprintf("%.4g [%.4g-%.4g]", q(b, n, .5), q(b, n, .25), q(b, n, .75)),
        sprintf("%.4g [%.4g-%.4g]", q(c, n, .5), q(c, n, .25), q(c, n, .75)),
        q(r, n, .5), wins, n, better
    }'
done
[ "$BAD" -eq 0 ] || { echo "perfbench_pairs: some runs were not clean" >&2; exit 1; }
