#!/usr/bin/env bash
# bench.sh — run the kernel-layer benchmarks (tensor, vec, nn, defense, fl) and
# emit a JSON record of ns/op per benchmark for the repo's perf trajectory.
#
# Usage:
#   scripts/bench.sh [out.json]        # default out: bench_results.json
#   BENCHTIME=1x scripts/bench.sh      # smoke mode (one iteration each)
#
# The PR-numbered trajectory files (BENCH_2.json, …) are produced from this
# output together with the pre-change numbers recorded before a perf PR.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-bench_results.json}"
benchtime="${BENCHTIME:-2s}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

go test -run '^$' -bench . -benchtime "$benchtime" \
	./internal/tensor ./internal/vec ./internal/nn ./internal/defense ./internal/fl \
	./internal/forensics ./internal/codec \
	./internal/persist ./internal/experiment ./internal/flnet \
	| tee "$tmp" >&2

{
	printf '{\n'
	printf '  "generated_by": "scripts/bench.sh",\n'
	printf '  "benchtime": "%s",\n' "$benchtime"
	printf '  "go": "%s",\n' "$(go env GOVERSION)"
	printf '  "cpus": %s,\n' "$(nproc)"
	printf '  "results_ns_per_op": {\n'
	awk '
		/^Benchmark/ {
			name = $1
			sub(/-[0-9]+$/, "", name)
			if (seen++) printf ",\n"
			printf "    \"%s\": %s", name, $3
		}
		END { printf "\n" }
	' "$tmp"
	printf '  }\n'
	printf '}\n'
} >"$out"

echo "wrote $out" >&2
