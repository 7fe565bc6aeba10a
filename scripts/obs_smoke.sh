#!/usr/bin/env bash
# obs_smoke.sh — end-to-end smoke test of the observability surfaces:
# start simd (checkpoints on), run some runs through it, scrape /metrics
# through the exposition validator
# (cmd/metricslint), fetch a checkpoint-resumed job's timeline and assert
# its span tree shows distinct probe/restore/measure phases, and generate
# figures locally with paperfigs -trace-out, asserting the output is valid
# Chrome trace-event JSON (Perfetto-loadable).
#
# Usage: scripts/obs_smoke.sh [out-dir]
#
#   out-dir             where logs and the trace artifact land
#                       (default: ./obs-smoke; CI uploads the trace)
set -euo pipefail
cd "$(dirname "$0")/.."

command -v jq >/dev/null || { echo "obs_smoke.sh: jq is required" >&2; exit 1; }
command -v python3 >/dev/null || { echo "obs_smoke.sh: python3 is required" >&2; exit 1; }

out="${1:-obs-smoke}"
mkdir -p "$out"

go build -o "$out/simd" ./cmd/simd
go build -o "$out/metricslint" ./cmd/metricslint
go build -o "$out/paperfigs" ./cmd/paperfigs

"$out/simd" -addr 127.0.0.1:0 -store "$out/store" -checkpoints -log-format json \
  > "$out/simd.log" 2> "$out/simd.access.log" &
simd_pid=$!
trap 'kill "$simd_pid" 2>/dev/null || true' EXIT

url=""
for _ in $(seq 1 50); do
  url="$(grep -oE 'http://[0-9.:]+' "$out/simd.log" 2>/dev/null | head -n1 || true)"
  [ -n "$url" ] && break
  kill -0 "$simd_pid" 2>/dev/null || { echo "simd died:"; cat "$out/simd.log"; exit 1; }
  sleep 0.2
done
[ -n "$url" ] && echo "simd up at $url" || { echo "simd never listened"; cat "$out/simd.log"; exit 1; }

echo "=== checkpoint-resumed run and its timeline ==="
spec_a='{"benchmarks":["VA"],"measure_cycles":6000,"warmup_cycles":3000}'
spec_b='{"benchmarks":["VA"],"measure_cycles":8000,"warmup_cycles":3000}'
scripts/simd_run.sh "$url" "$spec_a" > /dev/null  # banks the warmup
scripts/simd_run.sh "$url" "$spec_b" > "$out/resumed.json"
job="$(jq -r '.results[0].job_id' "$out/resumed.json")"
[ -n "$job" ] && [ "$job" != "null" ] \
  || { echo "resumed run has no job id:"; cat "$out/resumed.json"; exit 1; }
curl -sf "$url/v1/jobs/$job/timeline" > "$out/timeline.json"
python3 - "$out/timeline.json" <<'PY'
import json, sys
tl = json.load(open(sys.argv[1]))
names = []
def walk(spans):
    for sp in spans:
        names.append(sp["name"])
        walk(sp.get("children", []))
walk(tl["spans"])
for want in ("queue-wait", "run", "checkpoint-probe", "checkpoint-restore", "measure"):
    assert want in names, f"timeline missing {want!r} span (got {names})"
assert "warmup" not in names, f"resumed run re-simulated its warmup ({names})"
print("timeline spans:", names)
PY

echo "=== /metrics passes the exposition validator ==="
"$out/metricslint" -url "$url/metrics"
curl -sf "$url/metrics" > "$out/metrics.txt"
grep -q '^simd_checkpoint_hits_total [1-9]' "$out/metrics.txt" \
  || { echo "no checkpoint hit counted after the resumed run"; grep simd_checkpoint "$out/metrics.txt"; exit 1; }
grep -q 'simd_http_requests_total{' "$out/metrics.txt" \
  || { echo "no per-route request counters"; exit 1; }

echo "=== one access-log line per request, with request IDs ==="
jq -e -s '[.[] | select(.msg == "request")] | length > 0 and all(.id != "")' \
  "$out/simd.access.log" >/dev/null \
  || { echo "structured access log missing or without request IDs:"; head "$out/simd.access.log"; exit 1; }

kill "$simd_pid" 2>/dev/null || true
wait "$simd_pid" 2>/dev/null || true

echo "=== paperfigs -trace-out produces valid Chrome trace JSON ==="
"$out/paperfigs" -figure 3 -quick -cycles 3000 -warmup 500 -progress=false \
  -checkpoints -checkpoint-dir "$out/ckpt" -trace-out "$out/trace.json" > /dev/null
python3 -m json.tool "$out/trace.json" > /dev/null
python3 - "$out/trace.json" <<'PY'
import json, sys
d = json.load(open(sys.argv[1]))
assert "traceEvents" in d, "no traceEvents array"
assert d.get("displayTimeUnit") == "ms", "displayTimeUnit != ms"
evs = d["traceEvents"]
assert evs, "empty traceEvents"
for ev in evs:
    assert ev["ph"] in ("X", "M"), f"unexpected phase {ev['ph']!r}"
    assert "pid" in ev and "tid" in ev and "name" in ev, f"incomplete event {ev}"
xs = [e for e in evs if e["ph"] == "X"]
assert all("ts" in e and "dur" in e for e in xs), "X events need ts+dur"
names = {e["name"] for e in xs}
for want in ("run", "measure", "warmup"):
    assert want in names, f"trace missing {want!r} spans (got {sorted(names)[:10]})"
threads = [e for e in evs if e["ph"] == "M" and e["name"] == "thread_name"]
assert threads, "no thread_name metadata (one per run expected)"
print(f"trace ok: {len(xs)} spans across {len(threads)} runs")
PY

echo "obs smoke: OK (trace artifact at $out/trace.json)"
