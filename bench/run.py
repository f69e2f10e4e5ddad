"""looplax benchmark: one closed-loop client, one workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; looplax is imported from ``src/``.  The last
stdout line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The line before it holds the run's
provenance and, per metric, its sample count.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
NPROC = os.cpu_count() or 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3  # this process plus two fresh child processes
HELD_OUT_SEED_OFFSET = 1000

# The cores of a small shared machine change speed by tens of percent from
# one second to the next (a fixed loop shows it), far more than the effects
# worth measuring.  So every timing is paired with a calibration measured
# right after it, and the metrics report it at the calibration's reference
# speed: t * REF / c.  Raw times stay in the provenance.  In-process
# operations use a fixed pure-Python loop; set-up and CLI calls, which are
# mostly interpreter start and imports, use a child importing numpy and scipy.
KERNEL_REF_S = 0.010
IMPORT_REF_S = 0.35


def kernel_calibration() -> float:
    from fractions import Fraction

    t0 = time.perf_counter()
    acc, counts = Fraction(0), {}
    for i in range(1, 3000):
        acc += Fraction(i % 7, i % 5 + 1)
        counts[i % 97] = counts.get(i % 97, 0) + i
    return time.perf_counter() - t0


def import_calibration() -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, scipy.linalg"],
                   check=True, cwd=ROOT, capture_output=True, timeout=120)
    return time.perf_counter() - t0


CALIBRATIONS = {
    "kernel": (kernel_calibration, KERNEL_REF_S),
    "import": (import_calibration, IMPORT_REF_S),
}


def cap_blas_threads():
    for var in BLAS_VARS:
        os.environ[var] = str(NPROC)


def tail_latency(samples):
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it: the 11th largest sample; None below 11 samples."""
    if len(samples) < 11:
        return None, None
    xs = sorted(samples)
    k = len(xs) - 11
    return xs[k], 100.0 * (k + 1) / len(xs)


def median(xs):
    xs = sorted(xs)
    m = len(xs) // 2
    return xs[m] if len(xs) % 2 else (xs[m - 1] + xs[m]) / 2


def digits(err: float) -> float:
    from oracles import DIGITS_FLOOR

    return -math.log10(max(err, DIGITS_FLOOR))


def make_workload(name: str, seed: int, workdir: str, trace: bool):
    from workloads import WORKLOADS, CliBatch

    cls = WORKLOADS[name]
    if cls is CliBatch:
        return cls(seed, workdir, SRC, trace=trace)
    return cls(seed)


def setup(name: str, seed: int, workdir: str, trace: bool):
    """Import looplax, generate the inputs, run and check one warm-up
    operation.  Returns the workload, the set-up time from process start and
    the warm-up's failure (None when it passed)."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import looplax  # noqa: F401  (the import is part of set-up)

    wl = make_workload(name, seed, workdir, trace)
    inp = wl.warmup_input()
    try:
        wl.check(inp, wl.run(inp), -1)
        failure = None
    except Exception as exc:  # counted as a failed operation, not a crash
        failure = f"warm-up: {type(exc).__name__}: {exc}"
    return wl, time.perf_counter() - T_START, failure


def setup_probe(name: str, seed: int) -> tuple:
    """(raw, calibration) set-up times of a fresh interpreter running the
    same set-up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=120)
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {out.stderr.strip()[-500:]}")
    raw, calib = out.stdout.strip().splitlines()[-1].split()
    return float(raw), float(calib)


def provenance(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": args.seed + HELD_OUT_SEED_OFFSET,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": NPROC,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "clients": 1,
        "loop": "closed",
    }


class Timings:
    """Operation times of one run: raw, calibration, and at reference speed."""

    def __init__(self):
        self.raw, self.norm, self.calib = [], [], []  # successful operations
        self.timed_raw = self.timed_norm = 0.0  # all operations
        self.errors, self.failures = [], []
        self.attempted = 0


def run_timed(wl, seconds: float, recorder=None) -> Timings:
    """Closed loop: make (untimed), run (timed), check and calibrate
    (untimed), until at least ``seconds`` of raw operation time and
    ``wl.min_ops`` operations, ending on a whole ``wl.block``."""
    from oracles import OracleError

    calibrate, ref = CALIBRATIONS[wl.calibration]
    tm = Timings()
    i = 0
    while tm.timed_raw < seconds or i < wl.min_ops or i % wl.block:
        inp = wl.make(i)
        t0 = time.perf_counter()
        try:
            if recorder is None:
                out = wl.run(inp)
            else:
                with recorder.operation(i, f"op.{wl.name}"):
                    out = wl.run(inp)
        except Exception as exc:  # a raising operation is a failed one
            out, failure = None, f"op {i}: {type(exc).__name__}: {exc}"
        else:
            failure = None
        dt = time.perf_counter() - t0
        c = calibrate()
        tm.timed_raw += dt
        tm.timed_norm += dt * ref / c
        if failure is None:
            try:
                tm.errors.append(wl.check(inp, out, i))
                tm.raw.append(dt)
                tm.norm.append(dt * ref / c)
                tm.calib.append(c)
            except OracleError as exc:
                failure = f"op {i}: {exc}"
        if failure is not None:
            tm.failures.append(failure)
        i += 1
    tm.attempted = i
    return tm


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    cap_blas_threads()
    if not os.path.isdir(os.path.join(SRC, "looplax")):
        print(f"error: looplax sources not found under {SRC}", file=sys.stderr)
        return 2
    workdir = os.path.join(BENCH_DIR, "_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        return _main(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it


def _main(args, workdir: str) -> int:
    trace = bool(args.trace)
    wl, setup_s, warmup_failure = setup(args.workload, args.seed, workdir, trace)
    if args.setup_probe:
        print(repr(setup_s), repr(import_calibration()))
        return 0
    setups = [] if trace else [(setup_s, import_calibration())] + [
        setup_probe(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)
    ]

    recorder = None
    if trace:
        from spans import Recorder

        recorder = Recorder()
        recorder.install()
    tm = run_timed(wl, args.seconds, recorder)
    if recorder is not None:
        recorder.uninstall()
    attempted, errors, failures = tm.attempted, tm.errors, tm.failures
    if warmup_failure is not None:
        attempted += 1
        failures.insert(0, warmup_failure)
    for label, check in wl.extra_checks():
        attempted += 1
        try:
            errors.append(check())
        except Exception as exc:  # the check's own failure counts too
            failures.append(f"{label}: {type(exc).__name__}: {exc}")
    for f in failures[:20]:
        print(f"FAILED {f}", file=sys.stderr)

    prov = provenance(args)
    ok = len(tm.raw)
    prov["calibration"] = wl.calibration
    prov["calibration_median_s"] = median(tm.calib) if tm.calib else None
    prov["raw_ops_per_s"] = ok / tm.timed_raw
    if trace:
        from spans import layer_metrics

        raw = layer_metrics(recorder.spans, ok)
        raw.update(wl.layer_counts())
        raw["trace.ops_per_s"] = (ok / tm.timed_norm, "1/s")
        raw["trace.spans_per_op"] = (len(recorder.spans) / tm.attempted, "count")
        out_dir = os.path.join(BENCH_DIR, "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.jsonl.gz")
        recorder.dump(path)
        prov["trace_file"] = os.path.relpath(path, ROOT)
        samples = {k: ok for k in raw}
    else:
        import resource

        if wl.name == "cli_batch":
            rss_kb = wl.maxrss_kb  # peak over the looplax child processes
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        tail, pct = tail_latency(tm.norm)
        raw = {
            "ops_per_s": (ok / tm.timed_norm, "1/s"),
            "latency_p50_s": (median(tm.norm) if ok else 0.0, "s"),
            "latency_tail_s": (tail if tail is not None else 0.0, "s"),
            "setup_s": (median([s * IMPORT_REF_S / c for s, c in setups]), "s"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
            "residual_digits": (digits(max(errors, default=0.0)), "digits"),
        }
        samples = {
            "ops_per_s": ok, "latency_p50_s": ok, "latency_tail_s": ok,
            "setup_s": len(setups), "peak_rss_mb": 1, "residual_digits": len(errors),
        }
        prov["latency_tail_percentile"] = pct
        prov["raw_latency_p50_s"] = median(tm.raw) if ok else None
        prov["raw_latency_tail_s"] = tail_latency(tm.raw)[0]
        prov["setup_samples_s"] = [s for s, _ in setups]
        prov["setup_calibrations_s"] = [c for _, c in setups]
    prov["fail_ratio"] = len(failures) / max(attempted, 1)
    prov["timed_s"] = tm.timed_raw
    prov["samples"] = samples
    print(json.dumps({"provenance": prov}, sort_keys=True))
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in raw.items()}
    correct = not failures and ok >= 1
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
