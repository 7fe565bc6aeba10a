#!/usr/bin/env bash
# bench.sh — run the benchmark suite with -benchmem and record a JSON
# snapshot of ns/op, B/op, allocs/op and the custom figure metrics, so the
# repository's performance trajectory is tracked in version control.
#
# Usage: scripts/bench.sh [--layers] [label]
#
#   label               tag stored with the run (default: "snapshot")
#   --layers            run the per-layer microbenchmarks that live next to
#                       the code (go test -bench . ./internal/...: sm, workload,
#                       dram, llc, noc ticks in ns per component-cycle — the
#                       sm ones include the 80-SM gpu-sweep —, one baseline
#                       gpu.New under the shared and the private LLC (ns, B
#                       and allocs per build), cache accesses
#                       on the L1 and LLC-slice geometries, checkpoint
#                       save/encode/decode/restore per snapshot, and the
#                       result store's fingerprint / get / put) and
#                       write them to BENCH_<YYYY-MM-DD>-layers.json, every
#                       entry tagged with its package and the host's CPU count
#
# Environment overrides:
#   BENCH_RE=regex      which benchmarks to run (default: all, -bench .)
#   BENCHTIME=value     -benchtime per benchmark (default: 1x; --layers: 1s,
#                       a single iteration of a nanosecond-scale tick says nothing)
#   COUNT=n             samples per benchmark, passed as -count (default: 1;
#                       --layers: 5, so a rung's spread is on record). Each
#                       entry's "metrics" are the per-metric medians of its
#                       "samples" runs, "quartiles" the [Q1, Q3] beside them
#   OUT=path            output file (default: BENCH_<YYYY-MM-DD>.json)
#
# If OUT already exists, the new run is appended to its "runs" array, so
# before/after comparisons (e.g. around an optimization) live in one file:
#
#   scripts/bench.sh pre-change
#   ... hack ...
#   scripts/bench.sh post-change
#
# Compare two runs with jq, e.g.:
#   jq '.runs[] | {label, f11: (.benchmarks[] | select(.name|test("Figure11"))
#       | .metrics | {"ns/op", "allocs/op"})}' BENCH_<date>.json
set -euo pipefail
cd "$(dirname "$0")/.."

command -v jq >/dev/null || { echo "bench.sh: jq is required" >&2; exit 1; }

default_re="."
default_out="BENCH_$(date +%Y-%m-%d).json"
default_benchtime="1x"
default_count=1
pkgs="."
case "${1:-}" in
--layers)
	shift
	default_out="BENCH_$(date +%Y-%m-%d)-layers.json"
	default_benchtime="1s"
	default_count=5
	pkgs="./internal/..."
	;;
esac

label="${1:-snapshot}"
bench_re="${BENCH_RE:-$default_re}"
benchtime="${BENCHTIME:-$default_benchtime}"
count="${COUNT:-$default_count}"
out="${OUT:-$default_out}"
host_cpus="$(getconf _NPROCESSORS_ONLN 2>/dev/null || nproc)"

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

echo "bench.sh: go test -bench '$bench_re' -benchtime $benchtime -count $count $pkgs ..." >&2
go test -run '^$' -bench "$bench_re" -benchmem -benchtime "$benchtime" -count "$count" "$pkgs" | tee "$raw" >&2

# Benchmark lines are: name, iteration count, then value/unit pairs
# (ns/op, B/op, allocs/op, and any b.ReportMetric custom metrics); -count
# repeats a line per sample. jq folds each benchmark's samples, in order of
# first appearance, into one entry: the median of every metric (and of the
# iteration count), its quartiles (linear interpolation between the sorted
# samples) and the sample count.
run_json=$(awk -v cpus="$host_cpus" '
	/^pkg: / { pkg = $2 }
	/^Benchmark/ {
		name = $1
		sub(/-[0-9]+$/, "", name) # strip the GOMAXPROCS suffix
		printf "{\"name\":\"%s\",\"package\":\"%s\",\"host_cpus\":%d,\"iterations\":%s,\"metrics\":{", name, pkg, cpus, $2
		sep = ""
		for (i = 3; i + 1 <= NF; i += 2) {
			printf "%s\"%s\":%s", sep, $(i+1), $i
			sep = ","
		}
		print "}}"
	}
' "$raw" | jq -s '
	def q($p): sort | ((length - 1) * $p) as $h | ($h | floor) as $i
		| if $i + 1 < length then .[$i] + ($h - $i) * (.[$i + 1] - .[$i]) else .[$i] end;
	reduce .[] as $s ({order: [], by: {}};
		($s.package + " " + $s.name) as $k
		| if .by[$k] then .by[$k] += [$s] else .order += [$k] | .by[$k] = [$s] end)
	| [.order[] as $k | .by[$k] as $all | $all[0]
		| {name, package, host_cpus, samples: ($all | length),
		   iterations: ([$all[].iterations] | q(0.5)),
		   metrics: (reduce (.metrics | keys_unsorted[]) as $m ({};
			.[$m] = ([$all[].metrics[$m]] | q(0.5)))),
		   quartiles: (reduce (.metrics | keys_unsorted[]) as $m ({};
			.[$m] = [([$all[].metrics[$m]] | q(0.25)), ([$all[].metrics[$m]] | q(0.75))]))}]
' | jq \
	--arg runlabel "$label" \
	--arg date "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
	--arg go "$(go version | sed 's/^go version //')" \
	--arg benchtime "$benchtime" \
	--argjson count "$count" \
	--argjson cpus "$host_cpus" \
	'{"label": $runlabel, "date": $date, "go": $go, "benchtime": $benchtime, "count": $count, "host_cpus": $cpus, "benchmarks": .}')

if [ "$(echo "$run_json" | jq '.benchmarks | length')" -eq 0 ]; then
	echo "bench.sh: no benchmarks matched '$bench_re'" >&2
	exit 1
fi

if [ -f "$out" ]; then
	jq --argjson run "$run_json" '.runs += [$run]' "$out" > "$out.tmp" && mv "$out.tmp" "$out"
else
	jq -n --argjson run "$run_json" '{runs: [$run]}' > "$out"
fi
echo "bench.sh: wrote $out (label: $label)" >&2
