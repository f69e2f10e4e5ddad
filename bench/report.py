"""Run the benchmark over several seeds and summarise it.

    python3 bench/report.py [--workloads a,b] [--seeds 1,2,3] [--seconds 15]
                            [--trace] [--summary FILE]

Prints one row per workload with every end-to-end metric (median over the
seeds), its unit and its sample count, plus the fail ratio; then, per metric,
the median, the quartiles and the quartile spread as a share of the median.
With ``--trace`` each seed also gets a traced run: the per-layer medians are
printed and the tracing overhead is stated as the traced run's loss in
operations per second against the untraced run of the same seed, made just
before it.  ``--summary`` writes the medians, quartiles and spreads to a
JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("exact_dressing", "verify_small", "solve_large", "cli_batch")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    return {"result": json.loads(lines[-1]), "provenance": json.loads(lines[-2])["provenance"]}


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarise(runs: list) -> dict:
    """metric -> (median, q1, q3, spread share, unit, samples per run)."""
    out = {}
    for name in runs[0]["result"]["metrics"]:
        vals = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, med, q3 = quartiles(vals)
        spread = (q3 - q1) / abs(med) if med else float("inf") if q3 != q1 else 0.0
        samples = statistics.median(r["provenance"]["samples"][name] for r in runs)
        out[name] = (med, q1, q3, spread, runs[0]["result"]["metrics"][name]["unit"], samples)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seeds", default="1")
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--summary", help="write medians and quartiles per workload here")
    args = p.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    summary, prov = {}, None
    for wl in args.workloads.split(","):
        runs, traced = [], []
        for s in seeds:  # a traced run right after its untraced pair sees the same machine
            runs.append(run_once(wl, s, args.seconds, 0))
            if args.trace:
                traced.append(run_once(wl, s, args.seconds, 1))
        prov = prov or runs[0]["provenance"]
        summary[wl] = summarise_workload(wl, runs, traced)
    if args.summary:
        keep = ("python", "numpy", "scipy", "nproc", "blas_threads", "clients", "loop", "seconds")
        summary["provenance"] = {k: prov[k] for k in keep}
        with open(args.summary, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


def summarise_workload(wl: str, runs: list, traced: list) -> dict:
    """Print the workload's row and metric table; return its summary."""
    e2e = summarise(runs)
    fail = statistics.median(r["provenance"]["fail_ratio"] for r in runs)
    pct = statistics.median(r["provenance"]["latency_tail_percentile"] or 0 for r in runs)
    out = {
        "seeds": [r["provenance"]["seed"] for r in runs],
        "end_to_end": _table(e2e),
        "fail_ratio": fail,
        "latency_tail_percentile": pct,
    }
    cells = [f"{k}={v[0]:.6g} {v[4]} (n={v[5]:g})" for k, v in e2e.items()]
    print(f"{wl}: " + "  ".join(cells) + f"  fail_ratio={fail:g}  tail=p{pct:.0f}"
          f"  runs={len(runs)}", flush=True)
    for k, (med, q1, q3, spread, unit, _) in e2e.items():
        print(f"    {k:<18} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {100 * spread:.2f}%", flush=True)
    if traced:
        layers = summarise(traced)
        for k, (med, q1, q3, spread, unit, _) in layers.items():
            if med:
                print(f"    {k:<34} median {med:.6g} {unit}  spread {100 * spread:.2f}%")
        pairs = [
            u["result"]["metrics"]["ops_per_s"]["value"]
            / t["result"]["metrics"]["trace.ops_per_s"]["value"] - 1
            for u, t in zip(runs, traced)
        ]
        q1, overhead, q3 = quartiles(pairs)
        out["per_layer"] = _table(layers)
        out["tracing_overhead_ops_per_s"] = {"median": overhead, "q1": q1, "q3": q3}
        print(f"    tracing overhead: {100 * overhead:+.1f}% ops/s, median of {len(pairs)} "
              f"seed pairs (quartiles {100 * q1:+.1f}% .. {100 * q3:+.1f}%)", flush=True)
    return out


def _table(stats: dict) -> dict:
    return {
        k: {"median": med, "q1": q1, "q3": q3, "spread": spread, "unit": unit, "samples": n}
        for k, (med, q1, q3, spread, unit, n) in stats.items()
    }


if __name__ == "__main__":
    sys.exit(main())
