#!/usr/bin/env bash
# service_smoke.sh — end-to-end smoke test of the simd simulation service:
# start the daemon on a random port, POST the same small spec twice, and
# assert that the second response is served from the store with
# byte-identical statistics (the determinism/caching contract; see
# DESIGN.md "Determinism-based result caching"). Then paperfigs -server
# regenerates a small figure selection through the daemon twice: the text
# must be byte-identical to a local paperfigs run with the same flags, the
# repeat must simulate nothing, and Figure 3 must reuse Figure 2's runs.
#
# Every run is submitted and waited for through scripts/simd_run.sh (POST,
# then poll the job handle): no request blocks on a simulation.
#
# Phase 2 starts a two-daemon cluster (-seeds, -replicas 1), POSTs the same
# spec to both members, and asserts exactly one of them executed it — the
# other answer is a forwarded, byte-identical cache hit from the rendezvous
# owner.
#
# Phase 3 is the kill-the-owner drill on a replicated cluster: a spec is
# forwarded handle-based (the hop is polled, it never pins a connection), the
# record replicates to a warm peer, the member holding no copy answers it
# for one record lookup (the owner's), a 4th daemon joins mid-run without
# restarting anyone, and after the owner is killed -9 a survivor serves the
# record byte-identical from the replica with zero re-executions.
#
# Usage: scripts/service_smoke.sh [store-dir]
#
#   store-dir           where the daemons keep their result stores, all of
#                       them under it; cleared at the start of every run, so
#                       the first POST is a miss (default: ./smoke-store; CI
#                       uploads it as an artifact)
#
# Response bodies, logs and other working files go to a temp scratch dir,
# never the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

command -v jq >/dev/null || { echo "service_smoke.sh: jq is required" >&2; exit 1; }

store="${1:-smoke-store}"
rm -rf "$store"
scratch="$(mktemp -d "${TMPDIR:-/tmp}/simd-smoke.XXXXXX")"
spec='{"benchmarks":["VA"],"measure_cycles":20000,"warmup_cycles":8000}'

pids=()
cleanup() {
  for p in "${pids[@]:-}"; do kill "$p" 2>/dev/null || true; done
  rm -f smoke-simd
  rm -rf "$scratch"
}
trap cleanup EXIT

go build -o smoke-simd ./cmd/simd

# wait_url LOGFILE: extract the resolved base URL from a daemon's startup
# line (ports are random) and wait until /healthz answers.
wait_url() {
  local log=$1 u=""
  for _ in $(seq 1 50); do
    u="$(grep -oE 'http://[0-9.:]+' "$log" 2>/dev/null | head -n1 || true)"
    [ -n "$u" ] && curl -sf "$u/healthz" >/dev/null 2>&1 && { echo "$u"; return 0; }
    sleep 0.2
  done
  echo "daemon never listened:" >&2; cat "$log" >&2; return 1
}

# msum URL REGEX: sum every metric sample whose name matches (covers both
# plain counters and labeled vecs like simd_cluster_failovers_total{reason=...});
# a sample's value is its last field, since a route label holds a space.
msum() { curl -sf "$1/metrics" | awk "/^$2/ {s+=\$NF} END {print s+0}"; }

./smoke-simd -addr 127.0.0.1:0 -store "$store" > "$scratch/simd.log" 2>&1 &
pids+=($!)
url="$(wait_url "$scratch/simd.log")"
echo "simd up at $url"

curl -sf "$url/healthz" | jq -e '.status == "ok"' >/dev/null

echo "POST run (miss, simulates)"
scripts/simd_run.sh "$url" "$spec" > "$scratch/first.json"
jq -e '.results[0].cached == false and .results[0].status == "done"' "$scratch/first.json" >/dev/null \
  || { echo "first response wrong:"; cat "$scratch/first.json"; exit 1; }

echo "POST identical run (must be a store hit)"
scripts/simd_run.sh "$url" "$spec" > "$scratch/second.json"
jq -e '.results[0].cached == true and .results[0].status == "done"' "$scratch/second.json" >/dev/null \
  || { echo "second response not served from cache:"; cat "$scratch/second.json"; exit 1; }

echo "compare statistics byte-for-byte"
jq -cS '.results[0].stats' "$scratch/first.json"  > "$scratch/first.stats"
jq -cS '.results[0].stats' "$scratch/second.json" > "$scratch/second.stats"
cmp "$scratch/first.stats" "$scratch/second.stats" \
  || { echo "cached stats differ from computed stats"; exit 1; }

echo "regenerate figures 2,3 through the daemon twice; text must match a local run"
go build -o "$scratch/paperfigs" ./cmd/paperfigs
figflags=(-figure 2,3 -quick -cycles 3000 -warmup 500 -progress=false)
"$scratch/paperfigs" "${figflags[@]}" > "$scratch/fig-local.out"
ex0=$(msum "$url" simd_runs_executed_total)
"$scratch/paperfigs" "${figflags[@]}" -server "$url" > "$scratch/fig1.out"
ex1=$(msum "$url" simd_runs_executed_total)
"$scratch/paperfigs" "${figflags[@]}" -server "$url" > "$scratch/fig2.out"
ex2=$(msum "$url" simd_runs_executed_total)
for out in fig1 fig2; do
  cmp <(grep -v '^\[' "$scratch/fig-local.out") <(grep -v '^\[' "$scratch/$out.out") \
    || { echo "$out: -server figure text differs from the local run"; exit 1; }
  grep -qE '^\[Figure 3 regenerated in [0-9.]+s \(17 reused, 0 simulated runs\)\]$' "$scratch/$out.out" \
    || { echo "$out: Figure 3 did not reuse Figure 2's runs:"; grep '^\[' "$scratch/$out.out"; exit 1; }
done
[ "$ex1" -gt "$ex0" ] || { echo "first -server run simulated nothing"; exit 1; }
[ "$ex2" -eq "$ex1" ] \
  || { echo "repeat -server run simulated $((ex2 - ex1)) runs, want 0 (all store hits)"; exit 1; }

curl -sf "$url/metrics" | grep -E 'simd_store_(hits|puts)_total'

kill "${pids[0]}" 2>/dev/null || true
wait "${pids[0]}" 2>/dev/null || true

echo
echo "=== cluster phase: two daemons, one owner per spec ==="

# members URL: count of members the daemon's gossip view considers routable.
members() {
  curl -sf "$1/v1/cluster/membership" \
    | jq '[.members[] | select(.status == "alive" or .status == "suspect")] | length'
}
wait_members() {
  local want=$1; shift
  for _ in $(seq 1 100); do
    local ok=1
    for u in "$@"; do
      [ "$(members "$u" 2>/dev/null || echo 0)" = "$want" ] || { ok=""; break; }
    done
    [ -n "$ok" ] && return 0
    sleep 0.1
  done
  echo "membership never converged to $want members" >&2
  for u in "$@"; do curl -s "$u/v1/cluster/membership" >&2 || true; echo >&2; done
  return 1
}

# -replicas 1: with replication on, the second member would hold a warm
# copy and answer locally — this phase asserts the *forwarding* path.
./smoke-simd -addr 127.0.0.1:0 -store "$store/cluster-a" -seeds "" -replicas 1 -heartbeat 100ms > "$scratch/simd-a.log" 2>&1 &
pid_a=$!; pids+=($pid_a)
url_a="$(wait_url "$scratch/simd-a.log")"
./smoke-simd -addr 127.0.0.1:0 -store "$store/cluster-b" -seeds "$url_a" -replicas 1 -heartbeat 100ms > "$scratch/simd-b.log" 2>&1 &
pid_b=$!; pids+=($pid_b)
url_b="$(wait_url "$scratch/simd-b.log")"
wait_members 2 "$url_a" "$url_b"
echo "cluster up at $url_a + $url_b"

# Two live members: the gossip view names both alive, and each answers its
# own /healthz (the store/queue summary lives there, per member).
curl -sf "$url_a/v1/cluster/membership" | jq -e '[.members[] | select(.status == "alive")] | length == 2' >/dev/null \
  || { echo "membership does not report 2 alive members"; curl -s "$url_a/v1/cluster/membership"; exit 1; }
for u in "$url_a" "$url_b"; do
  curl -sf "$u/healthz" | jq -e --arg u "$u" '.status == "ok" and .self == $u' >/dev/null \
    || { echo "member $u is not healthy:"; curl -s "$u/healthz"; exit 1; }
done

# A spec distinct from the single-daemon phase, so it is a genuine miss.
cspec='{"benchmarks":["VA"],"measure_cycles":22000,"warmup_cycles":8000}'

echo "POST spec to member A"
scripts/simd_run.sh "$url_a" "$cspec" > "$scratch/cl-a.json"
jq -e '.results[0].status == "done"' "$scratch/cl-a.json" >/dev/null \
  || { echo "member A response wrong:"; cat "$scratch/cl-a.json"; exit 1; }

echo "POST same spec to member B"
scripts/simd_run.sh "$url_b" "$cspec" > "$scratch/cl-b.json"
jq -e '.results[0].status == "done" and .results[0].cached == true' "$scratch/cl-b.json" >/dev/null \
  || { echo "second member's answer not a forwarded cache hit:"; cat "$scratch/cl-b.json"; exit 1; }

echo "exactly one member executed the spec"
ex_a=$(msum "$url_a" simd_runs_executed_total)
ex_b=$(msum "$url_b" simd_runs_executed_total)
[ "$((ex_a + ex_b))" -eq 1 ] \
  || { echo "executed counts A=$ex_a B=$ex_b, want exactly one total"; exit 1; }

echo "forwarding metrics: exactly one forward, no failovers"
# One of the two POSTs landed on the spec's rendezvous owner (no forward);
# the other member forwarded its request — so the cluster-wide forwarded
# count is exactly 1, and nothing fell back to local execution. The
# failover counter is a labeled vec (reason=...), so sum the series.
fwd_a=$(msum "$url_a" simd_cluster_forwarded_total)
fwd_b=$(msum "$url_b" simd_cluster_forwarded_total)
[ "$((fwd_a + fwd_b))" -eq 1 ] \
  || { echo "forwarded counts A=$fwd_a B=$fwd_b, want exactly one total"; exit 1; }
fo_a=$(msum "$url_a" simd_cluster_failovers_total)
fo_b=$(msum "$url_b" simd_cluster_failovers_total)
[ "$((fo_a + fo_b))" -eq 0 ] \
  || { echo "failover counts A=$fo_a B=$fo_b, want zero"; exit 1; }
# Every failover cause is pre-seeded as its own labeled series.
curl -sf "$url_a/metrics" > "$scratch/cl-metrics.txt"
for reason in owner_unreachable bad_answer; do
  grep -q "^simd_cluster_failovers_total{reason=\"$reason\"}" "$scratch/cl-metrics.txt" \
    || { echo "failover reason label $reason missing from exposition"; exit 1; }
done
# The forwarding member also observed the hop's round-trip latency.
curl -sf "$url_b/metrics" >> "$scratch/cl-metrics.txt"
grep -q '^simd_cluster_forward_seconds_count{[^}]*} 1$' "$scratch/cl-metrics.txt" \
  || { echo "no per-peer forward latency observation recorded"; grep simd_cluster_forward "$scratch/cl-metrics.txt" || true; exit 1; }

echo "both members name the same owner and return byte-identical stats"
jq -cS '.results[0].stats' "$scratch/cl-a.json" > "$scratch/cl-a.stats"
jq -cS '.results[0].stats' "$scratch/cl-b.json" > "$scratch/cl-b.stats"
cmp "$scratch/cl-a.stats" "$scratch/cl-b.stats" \
  || { echo "cluster answers differ between members"; exit 1; }
[ "$(jq -r '.results[0].peer' "$scratch/cl-a.json")" = "$(jq -r '.results[0].peer' "$scratch/cl-b.json")" ] \
  || { echo "members disagree about the owner peer"; cat "$scratch/cl-a.json" "$scratch/cl-b.json"; exit 1; }

kill "$pid_a" "$pid_b" 2>/dev/null || true
wait "$pid_a" "$pid_b" 2>/dev/null || true

echo
echo "=== gossip phase: seed bootstrap, replication, kill-the-owner drill ==="

# Three daemons join through one seed; nobody needs the full list up front.
./smoke-simd -addr 127.0.0.1:0 -store "$store/seed-1" -seeds "" -replicas 2 -heartbeat 100ms > "$scratch/seed-1.log" 2>&1 &
pid_1=$!; pids+=($pid_1)
url_1="$(wait_url "$scratch/seed-1.log")"
./smoke-simd -addr 127.0.0.1:0 -store "$store/seed-2" -seeds "$url_1" -replicas 2 -heartbeat 100ms > "$scratch/seed-2.log" 2>&1 &
pid_2=$!; pids+=($pid_2)
url_2="$(wait_url "$scratch/seed-2.log")"
./smoke-simd -addr 127.0.0.1:0 -store "$store/seed-3" -seeds "$url_1" -replicas 2 -heartbeat 100ms > "$scratch/seed-3.log" 2>&1 &
pid_3=$!; pids+=($pid_3)
url_3="$(wait_url "$scratch/seed-3.log")"

wait_members 3 "$url_1" "$url_2" "$url_3"
echo "gossip cluster converged: 3 members, epoch $(curl -sf "$url_1/v1/cluster/membership" | jq .epoch)"

# Find a spec owned by daemon 2 or 3, so POSTing it to daemon 1 exercises
# the handle-based forward (ownership is fingerprint-pseudorandom; a few
# seeds suffice).
owner_url=""
dspec=""
for seedval in $(seq 1 12); do
  try="{\"benchmarks\":[\"VA\"],\"measure_cycles\":24000,\"warmup_cycles\":8000,\"seed\":$seedval}"
  scripts/simd_run.sh "$url_1" "$try" > "$scratch/drill.json"
  jq -e '.results[0].status == "done"' "$scratch/drill.json" >/dev/null \
    || { echo "drill POST failed:"; cat "$scratch/drill.json"; exit 1; }
  peer="$(jq -r '.results[0].peer' "$scratch/drill.json")"
  if [ "$peer" = "$url_2" ] || [ "$peer" = "$url_3" ]; then
    owner_url="$peer"; dspec="$try"; break
  fi
done
[ -n "$owner_url" ] || { echo "no spec landed on a non-entry owner in 12 tries"; exit 1; }
fp="$(jq -r '.results[0].fingerprint' "$scratch/drill.json")"
jq -cS '.results[0].stats' "$scratch/drill.json" > "$scratch/drill.stats"
echo "drill spec owned by $owner_url (fingerprint $fp)"

echo "forwarded run polled a job handle at its owner, redirected there by the entry"
[ "$(msum "$url_1" 'simd_http_requests_total\{route="GET \/v1\/runs\/\{id\}".*code="307"')" -ge 1 ] \
  || { echo "entry daemon redirected no job polls"; curl -s "$url_1/metrics" | grep 'simd_http_requests_total{route="GET /v1/runs' || true; exit 1; }

echo "wait for the record to replicate to a warm peer"
survivors=()
for u in "$url_1" "$url_2" "$url_3"; do
  [ "$u" = "$owner_url" ] || survivors+=("$u")
done
replicated=""
for _ in $(seq 1 100); do
  for u in "${survivors[@]}"; do
    n="$(curl -sf -X POST "$u/v1/records/lookup" -d "{\"fingerprints\":[\"$fp\"]}" | jq '.records | length')"
    [ "$n" = "1" ] && { replicated="$u"; break 2; }
  done
  sleep 0.1
done
[ -n "$replicated" ] || { echo "record never replicated off the owner"; exit 1; }

echo "a hit asked of the member with no copy costs the cluster one record lookup"
# lookups URL: POST /v1/records/lookup requests the daemon has served (the
# route label holds a space, so the value is the last field).
lookups() { curl -sf "$1/metrics" | awk '/^simd_http_requests_total\{.*route="POST \/v1\/records\/lookup"/ {s+=$NF} END {print s+0}'; }
for u in "${survivors[@]}"; do [ "$u" = "$replicated" ] || nocopy="$u"; done
lk_before=$(( $(lookups "$url_1") + $(lookups "$url_2") + $(lookups "$url_3") ))
scripts/simd_run.sh "$nocopy" "$dspec" > "$scratch/bystander.json"
jq -e '.results[0].status == "done" and .results[0].cached == true' "$scratch/bystander.json" >/dev/null \
  || { echo "the member with no copy did not answer from a store:"; cat "$scratch/bystander.json"; exit 1; }
jq -cS '.results[0].stats' "$scratch/bystander.json" | cmp - "$scratch/drill.stats" \
  || { echo "the member with no copy answered different stats"; exit 1; }
lk_after=$(( $(lookups "$url_1") + $(lookups "$url_2") + $(lookups "$url_3") ))
[ $(( lk_after - lk_before )) -eq 1 ] \
  || { echo "one hit cost $(( lk_after - lk_before )) record lookups across the cluster, want 1"; exit 1; }

echo "join a 4th daemon mid-run; nobody restarts"
./smoke-simd -addr 127.0.0.1:0 -store "$store/seed-4" -seeds "$url_1" -replicas 2 -heartbeat 100ms > "$scratch/seed-4.log" 2>&1 &
pid_4=$!; pids+=($pid_4)
url_4="$(wait_url "$scratch/seed-4.log")"
wait_members 4 "$url_1" "$url_2" "$url_3" "$url_4"
for p in $pid_1 $pid_2 $pid_3; do
  kill -0 "$p" 2>/dev/null || { echo "a pre-join daemon died during the join"; exit 1; }
done
echo "4th member absorbed, epoch now $(curl -sf "$url_1/v1/cluster/membership" | jq .epoch)"

echo "kill the owner (no graceful leave) and re-request through a survivor"
if [ "$owner_url" = "$url_2" ]; then owner_pid=$pid_2; else owner_pid=$pid_3; fi
ex_before=$(( $(msum "${survivors[0]}" simd_runs_executed_total) + $(msum "${survivors[1]}" simd_runs_executed_total) + $(msum "$url_4" simd_runs_executed_total) ))
kill -9 "$owner_pid"
scripts/simd_run.sh "${survivors[1]}" "$dspec" > "$scratch/after.json"
jq -e '.results[0].status == "done" and .results[0].cached == true' "$scratch/after.json" >/dev/null \
  || { echo "post-kill answer not served from a store:"; cat "$scratch/after.json"; exit 1; }
jq -cS '.results[0].stats' "$scratch/after.json" > "$scratch/after.stats"
cmp "$scratch/drill.stats" "$scratch/after.stats" \
  || { echo "replica-served stats differ from the original run"; exit 1; }
ex_after=$(( $(msum "${survivors[0]}" simd_runs_executed_total) + $(msum "${survivors[1]}" simd_runs_executed_total) + $(msum "$url_4" simd_runs_executed_total) ))
[ "$ex_after" -eq "$ex_before" ] \
  || { echo "a survivor re-executed the replicated record ($ex_before -> $ex_after)"; exit 1; }

echo "replica hit recorded"
hits=$(( $(msum "${survivors[0]}" simd_cluster_replica_hits_total) + $(msum "${survivors[1]}" simd_cluster_replica_hits_total) + $(msum "$url_4" simd_cluster_replica_hits_total) ))
[ "$hits" -ge 1 ] \
  || { echo "no simd_cluster_replica_hits_total recorded on any survivor"; exit 1; }

echo "membership converges after the death"
wait_members 3 "${survivors[0]}" "${survivors[1]}" "$url_4"
[ "$(curl -sf "${survivors[0]}/metrics" | awk '/^simd_membership_size/ {print $2}')" = "3" ] \
  || { echo "simd_membership_size did not drop to 3"; exit 1; }

echo "service smoke: OK (store in $store)"
