#!/usr/bin/env bash
# bench_smoke.sh is the CI benchmark gate. It runs every BENCHMARK.json
# workload for 5 s at seed 1 through benchmark/run.sh (tracing off) and
# reads the JSON object on the last line of each run. It fails on a
# non-zero exit, on "correct": false, on any failed op, and on a gross
# regression: the workload's headline metric above a fixed ceiling, set at
# 3x its accepted median on a 2-vCPU Xeon VM. The three result lines are
# printed and collected in .bench_build/bench-smoke.jsonl. Takes no
# arguments; needs bash and jq.
set -euo pipefail

cd "$(dirname "$0")/.."

declare -A metric=(
	[fig5-grid]=latency_p50_ms
	[synthetic-20k]=latency_p50_ms
	[service-mix]=miss_p50_ms
)
declare -A ceiling=(
	[fig5-grid]=2490
	[synthetic-20k]=1540
	[service-mix]=115
)

fail() {
	echo "bench-smoke: $*" >&2
	exit 1
}

mkdir -p .bench_build
results=.bench_build/bench-smoke.jsonl
: >"$results"
for w in $(jq -r '.workloads[].name' BENCHMARK.json); do
	[ -n "${metric[$w]:-}" ] || fail "$w: no ceiling set for this workload"
	out=$(bash benchmark/run.sh --workload "$w" --seed 1 --seconds 5 --trace 0) ||
		fail "$w: benchmark/run.sh exited non-zero"
	line=$(tail -n 1 <<<"$out")
	echo "$line" | tee -a "$results"
	jq -e '.correct == true' <<<"$line" >/dev/null || fail "$w: outputs not correct"
	jq -e '.failed == 0' <<<"$line" >/dev/null || fail "$w: failed ops"
	jq -e --arg m "${metric[$w]}" --argjson c "${ceiling[$w]}" \
		'.metrics[$m].value | type == "number" and . <= $c' <<<"$line" >/dev/null ||
		fail "$w: ${metric[$w]} above its ceiling of ${ceiling[$w]}"
done
echo "bench-smoke: ok"
