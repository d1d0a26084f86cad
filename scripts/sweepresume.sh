#!/bin/sh
# Sweep resume-determinism gate (CI job: sweep-resume).
#
# Proves the two load-bearing properties of the scale-out sweep fabric
# (internal/sweep) end to end, with real process exits:
#
#  1. Kill-resume determinism: a sharded sweep interrupted after every
#     fresh cell (-max-cells caps fresh simulations per invocation; the
#     process exits 3 while incomplete) and resumed from its STATE file
#     produces byte-identical merged NDJSON, merged manifest, and merge
#     stdout to an uninterrupted run of the same grid.
#
#  2. Warm re-runs execute zero fresh cells — first with the STATE
#     files intact (replay skips every cell), then with the STATE files
#     deleted but the content-addressed cache kept (every cell is
#     adopted from the cache).
#
#  3. Named sweeps (nwsweep -sweep) run on the same fabric: a repeated
#     -sweep in one directory executes zero fresh cells and prints
#     byte-identical tables.
set -eu
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/nwsweep" ./cmd/nwsweep

spec="$tmp/grid.txt"
cat > "$spec" <<'EOF'
name resume-gate
apps em3d,gauss
kinds standard,nwcache
modes naive
seeds 1..2
scale 0.05
EOF
# 2 apps x 2 kinds x 1 mode x 2 seeds = 8 cells, 4 per shard.

# Reference: one uninterrupted two-shard sweep.
ref="$tmp/ref"
"$tmp/nwsweep" -grid "$spec" -dir "$ref" -shard 0/2 -q
"$tmp/nwsweep" -grid "$spec" -dir "$ref" -shard 1/2 -q
"$tmp/nwsweep" -grid "$spec" -dir "$ref" -merge -shards 2 > "$tmp/ref-merge.txt"

# Interrupted: every invocation is capped at one fresh cell, so each
# shard is "killed" and resumed repeatedly until the STATE file carries
# it to completion.
int="$tmp/int"
for shard in 0/2 1/2; do
  rc=0
  "$tmp/nwsweep" -grid "$spec" -dir "$int" -shard "$shard" -max-cells 1 -q 2>/dev/null || rc=$?
  if [ "$rc" -ne 3 ]; then
    echo "sweepresume: expected exit 3 (incomplete) from the capped run, got $rc" >&2
    exit 1
  fi
  tries=0
  while :; do
    rc=0
    "$tmp/nwsweep" -grid "$spec" -dir "$int" -shard "$shard" -max-cells 1 -q 2> "$tmp/last.log" || rc=$?
    cat "$tmp/last.log" >&2
    [ "$rc" -eq 0 ] && break
    if [ "$rc" -ne 3 ]; then
      echo "sweepresume: resume of shard $shard failed with $rc" >&2
      exit 1
    fi
    tries=$((tries + 1))
    if [ "$tries" -ge 16 ]; then
      echo "sweepresume: shard $shard never completed (no resume progress?)" >&2
      exit 1
    fi
  done
done
"$tmp/nwsweep" -grid "$spec" -dir "$int" -merge -shards 2 > "$tmp/int-merge.txt"

echo "sweepresume: comparing interrupted-resumed vs uninterrupted artifacts" >&2
cmp "$ref/merged.ndjson" "$int/merged.ndjson"
cmp "$ref/merged.manifest.json" "$int/merged.manifest.json"
cmp "$tmp/ref-merge.txt" "$tmp/int-merge.txt"

# Warm leg A: STATE files intact — every cell replayed, zero fresh.
for shard in 0/2 1/2; do
  "$tmp/nwsweep" -grid "$spec" -dir "$int" -shard "$shard" -q 2> "$tmp/warm.log"
  cat "$tmp/warm.log" >&2
  grep -q "+ 0 fresh" "$tmp/warm.log" || {
    echo "sweepresume: warm STATE re-run of shard $shard executed fresh cells" >&2
    exit 1
  }
done

# Warm leg B: STATE deleted, cache kept — every cell adopted from the
# content-addressed cache, still zero fresh.
rm "$int"/shard-*.state
for shard in 0/2 1/2; do
  "$tmp/nwsweep" -grid "$spec" -dir "$int" -shard "$shard" -q 2> "$tmp/warm.log"
  cat "$tmp/warm.log" >&2
  grep -q "4 cache + 0 fresh" "$tmp/warm.log" || {
    echo "sweepresume: warm cache re-run of shard $shard did not adopt all cells" >&2
    exit 1
  }
done

# The merge after the warm legs must still be byte-identical.
"$tmp/nwsweep" -grid "$spec" -dir "$int" -merge -shards 2 > "$tmp/warm-merge.txt"
cmp "$tmp/ref-merge.txt" "$tmp/warm-merge.txt"
cmp "$ref/merged.ndjson" "$int/merged.ndjson"

# Named sweep: the second run resumes from the first run's STATE file.
named="$tmp/named"
"$tmp/nwsweep" -sweep drain -apps gauss,sor -scale 0.05 -dir "$named" -q > "$tmp/named-1.txt"
"$tmp/nwsweep" -sweep drain -apps gauss,sor -scale 0.05 -dir "$named" -q > "$tmp/named-2.txt" 2> "$tmp/named.log"
cat "$tmp/named.log" >&2
grep -q "+ 0 fresh" "$tmp/named.log" || {
  echo "sweepresume: repeated -sweep drain executed fresh cells" >&2
  exit 1
}
cmp "$tmp/named-1.txt" "$tmp/named-2.txt"

echo "sweepresume: OK (kill-resume deterministic, warm re-runs ran 0 fresh cells)" >&2
