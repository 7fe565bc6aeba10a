#!/usr/bin/env python3
"""Render BENCH.md: one row per BENCH_*.json recording in the repository root.

Each row gives the file, its date, label and host CPU count, what it
measured, and its claim or result. The recordings are never edited; this
reads the five shapes they come in:

  snapshot    scripts/bench.sh output: {"runs": [{label, date, benchtime,
              host_cpus?, benchmarks: [{name, package?, metrics}]}]}
  campaign    {label, date, host_cpus, command, claim_pairs: {summary}}
  recording   {label, date, host_cpus, claim: "none: ..."}
  pair claim  {label, date, host_cpus, claim: {workload, metric, pairs,
              change_wins, parent_median, change_median, verdict?}}
  statement   {label, date, host_cpus, claim: {statement, final, met}}

    python3 scripts/bench_index.py         # rewrites BENCH.md
    python3 scripts/bench_index.py -       # prints it instead
"""
import glob
import json
import os
import re
import sys


def cell(text):
    return str(text).replace("|", "\\|").replace("\n", " ")


def brief(text, limit=200):
    """text on one line, without parenthesised tracker numbers (the file
    name dates the row), cut at a word boundary near limit characters."""
    text = " ".join(re.sub(r"\s*\([A-Z]{2,} \d+\)", "", str(text)).split())
    return text if len(text) <= limit else text[:limit].rsplit(" ", 1)[0] + " …"


def num(v):
    for scale, unit in ((1e6, " M"), (1e3, " k")):
        if abs(v) >= scale:
            return f"{v / scale:.3g}{unit}"
    return f"{v:.3g}"


def ratio(parent, change):
    return f"×{change / parent:.2f}" if parent else "—"


def pairs_result(c):
    """parent median → change median, ratio and wins of a pairs summary."""
    return (f"`{c['workload']}` `{c['metric']}` {num(c['parent_median'])} → {num(c['change_median'])} "
            f"({ratio(c['parent_median'], c['change_median'])}, change ahead in {c['change_wins']} of {c['pairs']} pairs)")


def snapshot(d):
    runs = d["runs"]
    dates = sorted({r["date"][:10] for r in runs})
    cpus = {r.get("host_cpus") or b.get("host_cpus") for r in runs for b in r["benchmarks"][:1]}
    names = []
    for r in runs:
        for b in r["benchmarks"]:
            n = b["name"].split("/")[0].removeprefix("Benchmark")
            if n not in names:
                names.append(n)
    pkgs = sorted({b.get("package", "").removeprefix("repro/") for r in runs for b in r["benchmarks"]} - {""})
    shown = ", ".join(names[:6]) + (f" and {len(names) - 6} more" if len(names) > 6 else "")
    measured = (f"{len(names)} benchmark{'s' if len(names) > 1 else ''} ({shown})"
                + (f" in {', '.join(pkgs)}" if pkgs else "")
                + f", {len(runs)} run{'s' if len(runs) > 1 else ''} at -benchtime {runs[0]['benchtime']}")
    result = "no claim"
    if len(runs) > 1:
        first = {b["name"]: b["metrics"].get("ns/op") for b in runs[0]["benchmarks"]}
        moves = [f"{b['name'].removeprefix('Benchmark')} {ratio(first[b['name']], b['metrics']['ns/op'])}"
                 for b in runs[-1]["benchmarks"] if first.get(b["name"]) and "ns/op" in b["metrics"]]
        if moves:
            result = f"no claim; ns/op of run `{runs[-1]['label']}` over run `{runs[0]['label']}`: " + ", ".join(moves)
    return {
        "date": " – ".join(dates),
        "label": ", ".join(r["label"] for r in runs),
        "cpus": ", ".join(str(c) for c in cpus if c) or "not recorded",
        "measured": measured,
        "result": brief(result, 400),
    }


def summary(d):
    row = {"date": d["date"][:10], "label": d["label"], "cpus": d.get("host_cpus", "not recorded")}
    claim = d.get("claim")
    if "claim_pairs" in d:
        s = d["claim_pairs"]["summary"]
        row["measured"] = f"simbench `{s['workload']}` `{s['metric']}`, {s['pairs']} alternated pairs, seed {s['seed']}, {s['seconds']} s"
        row["result"] = pairs_result(s)
    elif isinstance(claim, str):
        parts = [k for k in d if k not in ("label", "date", "host_cpus", "host", "parent", "claim", "change", "command")]
        row["measured"] = ", ".join(f"`{k}`" for k in parts)
        row["result"] = brief(claim)
    elif "statement" in claim:
        f = claim["final"]
        row["measured"] = f"simbench `{f['workload']}` `{f['metric']}`, {f['pairs']} alternated pairs"
        verdict = "met" if claim.get("met") else "not met"
        row["result"] = f"{brief(claim['statement'])}: {verdict}; " + pairs_result(f)
    else:
        seed = f", seed {claim['seed']}" if "seed" in claim else ""
        row["measured"] = f"simbench `{claim['workload']}` `{claim['metric']}`, {claim['pairs']} alternated pairs{seed}"
        row["result"] = pairs_result(claim)
        if "verdict" in claim:
            row["result"] += "; verdict: " + brief(claim["verdict"])
    return row


def main():
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    lines = [
        "# Benchmark recordings",
        "",
        "One row per `BENCH_*.json` in the repository root, generated by",
        "`python3 scripts/bench_index.py` from the recordings themselves (do not",
        "edit by hand). Snapshots come from `scripts/bench.sh`; the others are",
        "alternated parent/change campaigns of `bench/simbench`.",
        "",
        "| file | date | label | host CPUs | measured | claim or result |",
        "|---|---|---|---|---|---|",
    ]
    for path in sorted(glob.glob(os.path.join(root, "BENCH_*.json"))):
        with open(path) as f:
            d = json.load(f)
        row = snapshot(d) if "runs" in d else summary(d)
        name = os.path.basename(path)
        lines.append("| " + " | ".join(cell(v) for v in (
            f"[{name}]({name})", row["date"], row["label"], row["cpus"], row["measured"], row["result"])) + " |")
    out = "\n".join(lines) + "\n"
    if sys.argv[1:] == ["-"]:
        sys.stdout.write(out)
    else:
        with open(os.path.join(root, "BENCH.md"), "w") as f:
            f.write(out)


if __name__ == "__main__":
    main()
