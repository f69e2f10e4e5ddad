"""The four benchmark workloads.

Each workload turns a seed into a stream of operation inputs (``make``),
runs one operation through looplax's public API (``run``, the only timed
call) and checks the output with an independent oracle (``check``).  Inputs
depend only on the seed and the operation index, never on timing.
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
import time
import types
from fractions import Fraction
from typing import NamedTuple

import numpy as np

import looplax as lx
from looplax.scalars import DiffPoly, GaussianRational

import oracles

KINDS = (lx.HierarchyKind.STANDARD, lx.HierarchyKind.STRICT, lx.HierarchyKind.COMBINED)
FRAME_KINDS = ("diagonal", "unipotent")


def op_seed(seed: int, i: int) -> int:
    return seed * 1_000_003 + i


class Workload:
    name = ""
    min_ops = 11  # enough samples that a percentile has ten beyond it
    block = 1  # a run ends on a multiple of this many operations
    calibration = "kernel"  # see CALIBRATIONS in run.py

    def __init__(self, seed: int):
        self.seed = seed

    def warmup_input(self):
        return self.make(-1)

    def extra_checks(self) -> list:
        """Once-per-run checks: list of (label, callable returning error)."""
        return []

    def layer_counts(self) -> dict:
        """Per-layer values read from outputs and child processes; the ones
        a workload does not exercise are 0."""
        return {
            "scalars.qi_max_den_bits": (0, "bits"),
            "scalars.diffpoly_max_terms": (0, "count"),
            "cli.process_s": (0.0, "s"),
            "cli.import_s": (0.0, "s"),
            "cli.stdout_bytes": (0.0, "bytes"),
        }


# ---------------------------------------------------------------------------
# exact_dressing
# ---------------------------------------------------------------------------

def _rand_qi(rng) -> tuple:
    return (
        Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
        Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
    )


def _det(m) -> tuple:
    n = len(m)
    if n == 1:
        return m[0][0]
    acc = oracles.ZERO
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        t = oracles._mul(m[0][j], _det(minor))
        acc = oracles._add(acc, t if j % 2 == 0 else (-t[0], -t[1]))
    return acc


def _to_series(plain: dict, n: int, window, direction="z"):
    return lx.LoopSeries(
        n,
        {k: tuple(tuple(GaussianRational(*x) for x in row) for row in m) for k, m in plain.items()},
        window,
        direction,
    )


class ExactCase:
    """One dressing: a Q(i) witness (or symbolic X), the frame, the kind,
    the flow pairs to check, and what the oracle needs."""

    def __init__(self, **kw):
        self.__dict__.update(kw)

    def plain_witness(self):
        if self.symbolic is None:
            return self.witness_plain
        x = {
            k: [[oracles.eval_entry(e, self.point) for e in row] for row in m]
            for k, m in self.symbolic.coeffs.items()
        }
        return oracles.exp_strict(x, self.n, self.depth)


class ExactDressing(Workload):
    """Criterion-2 mix in blocks of 16 operations: the 12 Q(i) combinations
    (n, frame kind, hierarchy kind) and the 4 symbolic DiffPoly dressings.
    Each block interleaves the three cost classes in a fixed pattern; which
    combination fills which slot of its class is seeded."""

    name = "exact_dressing"
    # whole blocks only, and at least four: the 11th slowest operation then
    # always falls inside the symbolic class instead of at its edge
    min_ops = 64
    DEPTH = 4
    SYMBOLIC = ((2, 5), (3, 3))
    CLASSES = {
        "2": [("qi", 2, fk, kind) for fk in FRAME_KINDS for kind in KINDS],
        "3": [("qi", 3, fk, kind) for fk in FRAME_KINDS for kind in KINDS],
        "d": [("diffpoly", n, fk, depth) for n, depth in SYMBOLIC for fk in FRAME_KINDS],
    }
    PATTERN = "23d232d323d232d3"
    block = len(PATTERN)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.frames = {(fk, n): lx.make_frame(fk, n) for fk in FRAME_KINDS for n in (2, 3)}
        self.den_bits = 0
        self.max_terms = 0

    def _slot(self, i: int):
        if i < 0:  # fixed warm-up: the cheapest Q(i) combination
            return ("qi", 2, "diagonal", lx.HierarchyKind.STANDARD)
        rng = random.Random(f"{self.seed}:block:{i // self.block}")
        pools = {c: rng.sample(combos, len(combos)) for c, combos in self.CLASSES.items()}
        pos = i % self.block
        cls = self.PATTERN[pos]
        return pools[cls][self.PATTERN[:pos].count(cls)]

    def make(self, i: int) -> ExactCase:
        rng = random.Random(f"{self.seed}:op:{i}")
        backend, n, fk, arg = self._slot(i)
        frame = self.frames[(fk, n)]
        a_hi = frame.r
        if backend == "diffpoly":
            return self._make_symbolic(rng, n, frame, arg, a_hi)
        kind, depth = arg, self.DEPTH
        eye = [[(Fraction(int(r == c)), Fraction(0)) for c in range(n)] for r in range(n)]

        def mat():
            return [[_rand_qi(rng) for _ in range(n)] for _ in range(n)]

        def invertible():
            while True:
                m = mat()
                if _det(m) != oracles.ZERO:
                    return m

        witness_w = plain_w = None
        if kind is lx.HierarchyKind.STRICT:
            plain = {0: invertible(), **{k: mat() for k in range(-depth, 0)}}
            u_power, u_window = 1, (1 - depth, 1)
            zc = [(1, 1, 2, a_hi), (2, 1, 2, a_hi)]
            cor = [(1, 1, 1, a_hi), (1, 1, 2, 1)]
        else:
            plain = {0: eye, **{k: mat() for k in range(-depth, 0)}}
            u_power, u_window = 0, (-depth, 0)
            zc = [(0, 1, 1, a_hi), (1, 1, 2, a_hi), (2, a_hi, 1, 1)]
            cor = [(0, 1, 1, a_hi), (1, 1, 1, 1)]
        if kind is lx.HierarchyKind.COMBINED:
            plain_w = {0: invertible(), **{k: mat() for k in range(1, depth + 1)}}
            witness_w = _to_series(plain_w, n, (0, depth), "zinv")
            zc = [(-1, 1, 1, a_hi), (-2, 1, 2, 1), (-1, a_hi, 0, 1), (-1, 1, -2, a_hi)]
            cor = [(0, 1, 1, a_hi), (-1, 1, -2, 1)]
        return ExactCase(
            n=n, kind=kind, frame=frame, depth=depth, symbolic=None, point=None,
            witness=_to_series(plain, n, (-depth, 0)), witness_plain=plain,
            witness_w=witness_w, plain_witness_w=plain_w,
            u_power=u_power, u_window=u_window, w_window=(-1, depth - 1), zc=zc, cor=cor,
        )

    def _make_symbolic(self, rng, n, frame, depth, a_hi) -> ExactCase:
        """X = sum_k X_k z^-k with traceless matrices of fresh indeterminates;
        the oracle evaluates at a seeded rational point."""
        coeffs, point = {}, {}
        for k in range(1, depth + 1):
            m = [[DiffPoly.indeterminate(f"x{k}_{r}{c}") for c in range(n)] for r in range(n)]
            m[n - 1][n - 1] = -sum((m[r][r] for r in range(n - 1)), DiffPoly.zero())
            coeffs[-k] = tuple(tuple(row) for row in m)
            for r in range(n):
                for c in range(n):
                    point[f"x{k}_{r}{c}"] = _rand_qi(rng)
        return ExactCase(
            n=n, kind=lx.HierarchyKind.STANDARD, frame=frame, depth=depth,
            symbolic=lx.LoopSeries(n, coeffs, (-depth, -1)), point=point,
            witness=None, witness_w=None, u_power=0, u_window=(-depth, 0),
            zc=[(0, 1, 1, a_hi), (1, 1, 2, a_hi), (2, a_hi, 1, 1)], cor=[(0, 1, 1, a_hi)],
        )

    def run(self, case: ExactCase):
        if case.symbolic is not None:
            d = lx.deform(case.kind, case.frame, lx.exp_neg(case.symbolic))
        elif case.witness_w is not None:
            d = lx.deform(case.kind, case.frame, case.witness, case.witness_w)
        else:
            d = lx.deform(case.kind, case.frame, case.witness)
        residuals = []
        for m1, a1, m2, a2 in case.zc:
            d1 = lx.cutoff_lax_derivative(d, m1, a1, m2, a2)
            d2 = lx.cutoff_lax_derivative(d, m2, a2, m1, a1)
            residuals.append(lx.zc_residual(d, m1, a1, m2, a2, d1, d2))
        for m1, a1, m2, a2 in case.cor:
            d1 = lx.corollary_lax_derivative(d, m1, a1, m2, a2)
            d2 = lx.corollary_lax_derivative(d, m2, a2, m1, a1)
            residuals.append(lx.corollary_residual(d, m1, a1, m2, a2, d1, d2))
        return d, residuals

    def check(self, case, result, index: int) -> float:
        err = oracles.check_exact(case, result)
        if 0 <= index < self.block:  # counts from the first block only
            self._count(result[0])
        return err

    def _count(self, d):
        for s in d.series + (d.series_w or ()):
            for m in s.coeffs.values():
                for row in m:
                    for x in row:
                        terms = getattr(x, "terms", None)
                        coefs = terms.values() if terms is not None else (x,)
                        if terms is not None:
                            self.max_terms = max(self.max_terms, len(terms))
                        for c in coefs:
                            re_, im_ = oracles.qi(c)
                            bits = max(re_.denominator.bit_length(), im_.denominator.bit_length())
                            self.den_bits = max(self.den_bits, bits)

    def extra_checks(self):
        return [("akns_reduce", lambda: oracles.check_akns(lx.akns_reduce()))]

    def layer_counts(self):
        return dict(
            super().layer_counts(),
            **{
                "scalars.qi_max_den_bits": (self.den_bits, "bits"),
                "scalars.diffpoly_max_terms": (self.max_terms, "count"),
            },
        )


# ---------------------------------------------------------------------------
# verify_small and solve_large
# ---------------------------------------------------------------------------

class VerifySmall(Workload):
    """One fd_verify with the four criterion-4 checks per operation."""

    name = "verify_small"
    min_ops = 36  # the tail is then at least p72
    CHECKS = [("lax", 0, 1), ("lax", 1, 1), ("lax", 2, 1), ("zc", -1, 1, 1, 1)]
    KEYS = ["lax:0,1", "lax:1,1", "lax:2,1", "zc:-1,1:1,1"]
    FLOWS = {"1,1": 0.1, "-1,1": 0.05}

    def __init__(self, seed: int):
        super().__init__(seed)
        self.frame = lx.akns_frame()
        self.params = lx.SolverParams(N=16, M=12, grid=128)

    def make(self, i: int):
        return lx.random_loop(2, 16, 0.1, seed=op_seed(self.seed, i + 1))

    def run(self, g):
        return lx.fd_verify(
            g, [0, 0], self.frame, self.FLOWS, checks=self.CHECKS, h=1e-4, params=self.params
        )

    def check(self, g, report, index: int) -> float:
        return oracles.check_verify(report, self.KEYS)


class SolveLarge(Workload):
    """build_wave_pair + extract_solution at n=3, N=M=64, grid=512."""

    name = "solve_large"
    # its ~1 s operations afford no more, so the "tail" here is only p38 to
    # p52 (more operations on a faster machine), at or below the median
    min_ops = 16
    FLOWS = {(1, 1): 0.1, (-1, 1): 0.05, (2, 2): 0.02}

    def __init__(self, seed: int):
        super().__init__(seed)
        self.frame = lx.make_frame("diagonal", 3)
        self.params = lx.SolverParams(N=64, M=64, grid=512)
        self.diags = [
            np.array([complex(m[i][i]) for i in range(3)]) for m in self.frame.basis
        ]
        self.flows = {f"{m},{a}": v for (m, a), v in self.FLOWS.items()}

    def make(self, i: int):
        g = lx.random_loop(3, self.params.N, 0.1, seed=op_seed(self.seed, i + 1))
        return types.SimpleNamespace(
            g=g, g_coeffs=np.array(g.coeffs), n=3, M=self.params.M, grid=self.params.grid,
            l=(0, 0, 0), flows=self.FLOWS, frame_diags=self.diags,
        )

    def run(self, case):
        pair = lx.build_wave_pair(case.g, list(case.l), self.flows, self.frame, self.params)
        return pair, lx.extract_solution(pair)

    def check(self, case, result, index: int) -> float:
        return oracles.check_solve(case, result)


# ---------------------------------------------------------------------------
# cli_batch
# ---------------------------------------------------------------------------

SOLVER_CFG = {
    "n": 2,
    "frame": {"kind": "diagonal", "scalars": [["0", "-1"]]},
    "N": 16, "M": 12, "grid": 128,
    "g": {"random": {"eps": 0.1}},
    "l": [0, 0],
    "flows": {"1,1": 0.1, "-1,1": 0.05},
}
ZC_PAIRS = {
    "standard": [[0, 1, 1, 1], [1, 1, 2, 1]],
    "strict": [[1, 1, 2, 1]],
    "combined": [[-1, 1, 1, 1]],
}
_IMPORT_LINE = re.compile(rb"import time:\s+\d+ \|\s+(\d+) \| looplax$", re.M)


class CliResult(NamedTuple):
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    maxrss_kb: int


def run_child(argv, env, cwd, trace: bool) -> CliResult:
    """Run ``python -m looplax.cli argv`` and collect its own peak RSS."""
    cmd = [sys.executable] + (["-X", "importtime"] if trace else []) + ["-m", "looplax.cli", *argv]
    out_path = os.path.join(cwd, "stdout")
    err_path = os.path.join(cwd, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=cwd)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    return CliResult(proc.returncode, stdout, stderr, wall, usage.ru_maxrss)


class CliBatch(Workload):
    """``python -m looplax.cli`` subprocesses over a seeded pool of eight
    configs (two per command), visited in seeded rounds so every config
    repeats and each output is compared with another run of the same
    config."""

    name = "cli_batch"
    min_ops = 30  # the tail is then at least p67
    calibration = "import"
    POOL = ("solve", "solve", "verify", "verify", "derive-akns", "derive-akns",
            "zc-check", "zc-check")

    def __init__(self, seed: int, workdir: str, src_dir: str, trace: bool = False):
        super().__init__(seed)
        self.workdir, self.trace = workdir, trace
        self.env = dict(os.environ, PYTHONPATH=src_dir)
        rng = random.Random(f"{seed}:cli")
        self.pool = []
        for idx, command in enumerate(self.POOL):
            self.pool.append(self._config(idx, command, rng))
        self.first: dict = {}  # pool index -> result of its first run
        self.seen: dict = {}
        self.process_s, self.import_s, self.stdout_bytes = [], [], []
        self.maxrss_kb = 0

    def _config(self, idx, command, rng):
        path = os.path.join(self.workdir, f"cfg{idx}.json")
        if command in ("solve", "verify"):
            cfg = dict(SOLVER_CFG, seed=rng.randint(0, 10**6))
            argv = [command, "--config", path]
            if command == "verify":
                argv += ["--checks", "lax:1,1", "zc:-1,1:1,1"]
        elif command == "zc-check":
            kind = rng.choice(sorted(ZC_PAIRS))
            cfg = {"mode": "symbolic", "n": 2, "depth": 4, "kind": kind,
                   "seed": rng.randint(0, 10**6), "pairs": ZC_PAIRS[kind]}
            argv = [command, "--config", path]
        else:
            cfg, argv = None, [command, "--format", "json"]
        if cfg is not None:
            with open(path, "w") as fh:
                json.dump(cfg, fh, sort_keys=True)
        return command, argv

    def make(self, i: int) -> int:
        if i < 0:
            return 0  # warm-up: the first solve config
        order = list(range(len(self.pool)))
        random.Random(f"{self.seed}:round:{i // len(order)}").shuffle(order)
        return order[i % len(order)]

    def run(self, idx: int) -> CliResult:
        res = run_child(self.pool[idx][1], self.env, self.workdir, self.trace)
        self.maxrss_kb = max(self.maxrss_kb, res.maxrss_kb)
        return res

    def check(self, idx: int, res: CliResult, index: int) -> float:
        if index >= 0:
            self.process_s.append(res.wall_s)
            self.stdout_bytes.append(len(res.stdout))
            m = _IMPORT_LINE.search(res.stderr)
            if m:
                self.import_s.append(int(m.group(1)) / 1e6)
        self.seen[idx] = self.seen.get(idx, 0) + 1
        # the first run of a config is compared byte for byte when it runs again
        first = self.first.setdefault(idx, res)
        return oracles.check_cli(self.pool[idx][0], res.code, res.stdout, first.stdout)

    def extra_checks(self):
        """An untimed repeat for each config that ran only once, so its
        output too is compared byte for byte."""
        checks = []
        for idx, res in self.first.items():
            if self.seen[idx] > 1:
                continue

            def repeat(idx=idx, res=res):
                again = run_child(self.pool[idx][1], self.env, self.workdir, False)
                return oracles.check_cli(self.pool[idx][0], res.code, res.stdout, again.stdout)
            checks.append((f"repeat:{idx}", repeat))
        return checks

    def layer_counts(self):
        def mean(xs):
            return sum(xs) / len(xs) if xs else 0.0

        return dict(
            super().layer_counts(),
            **{
                "cli.process_s": (mean(self.process_s), "s"),
                "cli.import_s": (mean(self.import_s), "s"),
                "cli.stdout_bytes": (mean(self.stdout_bytes), "bytes"),
            },
        )


WORKLOADS = {
    w.name: w for w in (ExactDressing, VerifySmall, SolveLarge, CliBatch)
}
