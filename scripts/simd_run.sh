#!/usr/bin/env bash
# simd_run.sh — submit runs to a simd daemon and wait for them, the way
# every client does: POST /v1/runs (store hits come back inline, misses as
# job IDs), then poll each job on GET /v1/runs/{id} until it is terminal,
# following the 307 a member answers for a job another member holds. No
# request blocks on a simulation. Prints the POST response with every
# polled job's final status, stats and error folded into its result.
#
# Usage: scripts/simd_run.sh BASE_URL SPEC_JSON
#
#   scripts/simd_run.sh localhost:8404 '{"benchmarks":["VA"],"measure_cycles":20000}'
set -euo pipefail

command -v jq >/dev/null || { echo "simd_run.sh: jq is required" >&2; exit 1; }
[ $# -eq 2 ] || { echo "usage: simd_run.sh BASE_URL SPEC_JSON" >&2; exit 2; }
url=$1

resp="$(curl -sf -X POST "$url/v1/runs" -d "$2")"
for id in $(jq -r '.results[] | select(.job_id != null and .status != "done" and .status != "failed") | .job_id' <<<"$resp" | sort -u); do
  while :; do
    st="$(curl -sfL "$url/v1/runs/$id")"
    case "$(jq -r .status <<<"$st")" in done|failed) break ;; esac
    sleep 0.1
  done
  resp="$(jq --argjson st "$st" \
    '(.results[] | select(.job_id == $st.id)) |= (.status = $st.status | .stats = $st.stats | .error = $st.error)' <<<"$resp")"
done
printf '%s\n' "$resp"
