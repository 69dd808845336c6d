#!/usr/bin/env bash
# sweep_smoke.sh — end-to-end smoke test of the run store: two flbench
# processes drain one grid (the samplesize experiment: 6 cells and the one
# clean baseline they share, itself a cell) against a single -store, then
# the script asserts full coverage, zero duplicate result records and
# identical rendered tables from both; a third plain run against the
# finished store must execute nothing, render the same table and leave the
# result records untouched.
#
# Usage: scripts/sweep_smoke.sh [workdir]
set -euo pipefail
cd "$(dirname "$0")/.."

work="${1:-$(mktemp -d)}"
store="$work/shared.jsonl"
rm -f "$store"

go build -o "$work/flbench" ./cmd/flbench

"$work/flbench" -exp samplesize -store "$store" -owner smoke-w1 -progress \
	>"$work/out1.log" 2>"$work/w1.log" &
pid1=$!
"$work/flbench" -exp samplesize -store "$store" -owner smoke-w2 -progress \
	>"$work/out2.log" 2>"$work/w2.log" &
pid2=$!
wait "$pid1"
wait "$pid2"

# The samplesize grid is 6 cells sharing one clean baseline: exactly 7
# result records, each exactly once. Lease records (key prefix "lease|")
# are bookkeeping, not results.
check_records() {
	local results dups
	results="$(grep -o '"key":"[^"]*"' "$store" | grep -vc '"key":"lease|' || true)"
	if [[ "$results" != 7 ]]; then
		echo "sweep_smoke: $1: expected 7 result records (6 cells + 1 baseline), got $results" >&2
		grep -o '"key":"[^"]*"' "$store" >&2
		exit 1
	fi
	dups="$(grep -o '"key":"[^"]*"' "$store" | grep -v 'lease|' | sort | uniq -d)"
	if [[ -n "$dups" ]]; then
		echo "sweep_smoke: $1: duplicate result records in $store:" >&2
		echo "$dups" >&2
		exit 1
	fi
}
check_records "after the shared drain"

# Both processes must have reported progress, and at least one adopted a
# cell the other recorded (the grid was actually shared).
for w in 1 2; do
	if ! grep -q 'elapsed' "$work/w$w.log"; then
		echo "sweep_smoke: process $w reported no progress" >&2
		exit 1
	fi
done
if ! grep -q 'completed by another worker' "$work/w1.log" &&
	! grep -q 'completed by another worker' "$work/w2.log"; then
	echo "sweep_smoke: no process adopted a remote cell — the grid was not shared" >&2
	exit 1
fi

# Bit-identical science: both processes render the same table (only the
# timing line may differ).
if ! diff <(grep -v '^## ' "$work/out1.log") <(grep -v '^## ' "$work/out2.log"); then
	echo "sweep_smoke: the two processes rendered different tables" >&2
	exit 1
fi

# A store always resumes: a plain rerun replays all 7 cells (the baseline
# reports progress like any cell), executes none, renders the same table
# and records nothing new.
"$work/flbench" -exp samplesize -store "$store" -progress >"$work/out3.log" 2>"$work/w3.log"
cells="$(grep -c '^\[' "$work/w3.log" || true)"
replayed="$(grep -c '(resumed from store)' "$work/w3.log" || true)"
if [[ "$cells" != 7 || "$replayed" != 7 ]]; then
	echo "sweep_smoke: rerun on the finished store replayed $replayed of $cells cells, want 7 of 7" >&2
	cat "$work/w3.log" >&2
	exit 1
fi
if ! diff <(grep -v '^## ' "$work/out1.log") <(grep -v '^## ' "$work/out3.log"); then
	echo "sweep_smoke: the rerun rendered a different table" >&2
	exit 1
fi
check_records "after the rerun"

echo "sweep_smoke: OK — 2 processes, 6 cells + 1 baseline, zero duplicates, identical tables; rerun replayed 7/7"
