"""Span recorder for the traced benchmark run, and the reducer that turns
spans into the per-layer metrics.

The recorder wraps looplax's public callables from outside: it replaces each
one in every loaded ``looplax`` module namespace (so bindings made with
``from ... import`` are timed too) and in the class dict for the
``LoopSeries`` methods.  Spans are kept in memory and written out when the
run ends.  The untraced run does not import this module.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import sys
import time
from collections import defaultdict

from looplax.loops import LoopSeries
from looplax.scalars import DiffPoly

# (span name, module that defines the callable, attribute); the span name's
# prefix before the first dot is the layer.
FUNCTIONS = (
    ("loops.exp_log", "looplax.loops", "exp_neg"),
    ("loops.exp_log", "looplax.loops", "log_unip"),
    ("hierarchy.deform", "looplax.hierarchy", "deform"),
    ("hierarchy.cutoff", "looplax.hierarchy", "cutoff"),
    ("hierarchy.lax_derivative", "looplax.hierarchy", "cutoff_lax_derivative"),
    ("hierarchy.lax_derivative", "looplax.hierarchy", "corollary_lax_derivative"),
    ("hierarchy.residual", "looplax.hierarchy", "lax_residual"),
    ("hierarchy.residual", "looplax.hierarchy", "zc_residual"),
    ("hierarchy.residual", "looplax.hierarchy", "corollary_residual"),
    ("solver.birkhoff_factorize", "looplax.solver", "birkhoff_factorize"),
    ("solver.build_wave_pair", "looplax.solver", "build_wave_pair"),
    ("solver.extract_solution", "looplax.solver", "extract_solution"),
    ("solver.fd_verify", "looplax.solver", "fd_verify"),
)
METHODS = (("loops.mul", "mul"), ("loops.invert", "invert"))
BACKENDS = ("qi", "diffpoly", "complex")


def series_backend(*series) -> str:
    """Scalar backend of the loop series arguments: the first DiffPoly or
    float entry decides; Q(i) (and plain integers) otherwise."""
    for s in series:
        if not isinstance(s, LoopSeries):
            continue
        for mat in s.coeffs.values():
            for row in mat:
                for x in row:
                    if isinstance(x, DiffPoly):
                        return "diffpoly"
                    if isinstance(x, (complex, float)):
                        return "complex"
    return "qi"


def _toeplitz_dim(args, kwargs):
    loop = args[0] if args else kwargs["loop"]
    m = args[1] if len(args) > 1 else kwargs["M"]
    return loop.n * m


def _tagger(name: str):
    """Span tag from the call's arguments: the scalar backend of the
    series operands (mul, invert, exp_neg, log_unip take them first)."""
    if name.startswith("loops."):
        return lambda args, kwargs: series_backend(*args[:2])
    if name == "solver.birkhoff_factorize":
        return _toeplitz_dim
    return None


class Recorder:
    """In-memory spans: [name, start_ns, end_ns, parent_id, op_id, tag].

    ``tag`` is the scalar backend for loop-layer spans and the block-Toeplitz
    dimension for ``solver.birkhoff_factorize``; None elsewhere.  Span ids
    are list indices; a span is appended when it opens, so a parent's id is
    always smaller than its children's.
    """

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.op_id: int | None = None
        self._undo: list = []

    @contextlib.contextmanager
    def operation(self, op_id: int, name: str):
        """Root span of one timed operation; spans opened inside carry its id."""
        self.op_id = op_id
        sid = self._open(name, None)
        try:
            yield
        finally:
            self._close(sid)
            self.op_id = None

    def _open(self, name, tag) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns(), None, parent, self.op_id, tag])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int):
        self.spans[sid][2] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name, fn, tagger):
        rec = self

        def traced(*args, **kwargs):
            sid = rec._open(name, tagger(args, kwargs) if tagger else None)
            try:
                return fn(*args, **kwargs)
            finally:
                rec._close(sid)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        """Wrap every listed callable wherever a looplax module binds it."""
        for name, attr in METHODS:
            orig = LoopSeries.__dict__[attr]
            setattr(LoopSeries, attr, self._wrap(name, orig, _tagger(name)))
            self._undo.append((LoopSeries, attr, orig))
        for name, modname, attr in FUNCTIONS:
            orig = getattr(sys.modules[modname], attr)
            wrapped = self._wrap(name, orig, _tagger(name))
            for mname, mod in list(sys.modules.items()):
                if mname == "looplax" or mname.startswith("looplax."):
                    if mod.__dict__.get(attr) is orig:
                        setattr(mod, attr, wrapped)
                        self._undo.append((mod, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def dump(self, path):
        with gzip.open(path, "wt") as fh:
            for sid, (name, t0, t1, parent, op, tag) in enumerate(self.spans):
                fh.write(json.dumps([sid, name, t0, t1, parent, op, tag]) + "\n")


def self_times(spans) -> list:
    """Self time (s) of each span: its duration minus the time its direct
    children cover.  Spans of one thread nest, so children never overlap."""
    child_ns = [0] * len(spans)
    for name, t0, t1, parent, op, tag in spans:
        if parent is not None:
            child_ns[parent] += t1 - t0
    return [(s[2] - s[1] - c) / 1e9 for s, c in zip(spans, child_ns)]


def layer_metrics(spans, n_ops: int) -> dict:
    """Per-layer metrics from the spans of ``n_ops`` timed operations.

    Self times and call counts are per operation.  ``solver.toeplitz_dim``
    is the largest block-Toeplitz dimension seen and
    ``solver.solves_per_verify`` the median number of wave-pair solves under
    one ``fd_verify`` span (0 when nothing verified).
    """
    per_op = max(n_ops, 1)
    selfs = self_times(spans)
    self_s: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    toeplitz = 0
    solves_under: dict = defaultdict(int)
    verify_ids = []
    for sid, (name, t0, t1, parent, op, tag) in enumerate(spans):
        if op is None:
            continue  # warm-up and set-up calls are not timed operations
        key = f"{name}.{tag}" if name.startswith("loops.") else name
        self_s[key] += selfs[sid]
        calls[key] += 1
        if name == "solver.birkhoff_factorize":
            toeplitz = max(toeplitz, tag)
        elif name == "solver.fd_verify":
            verify_ids.append(sid)
        elif name == "solver.build_wave_pair":
            anc = parent
            while anc is not None and spans[anc][0] != "solver.fd_verify":
                anc = spans[anc][3]
            if anc is not None:
                solves_under[anc] += 1
    out = {}
    for op_name in ("mul", "invert"):
        for b in BACKENDS:
            key = f"loops.{op_name}.{b}"
            out[f"loops.{op_name}.calls.{b}"] = (calls[key] / per_op, "count")
            out[f"loops.{op_name}.self_s.{b}"] = (self_s[key] / per_op, "s")
    # exp_neg and log_unip only ever see DiffPoly operands: Q(i) witnesses are
    # built directly and the solver's flow exponential goes through scipy
    out["loops.exp_log.self_s.diffpoly"] = (self_s["loops.exp_log.diffpoly"] / per_op, "s")
    for name in ("deform", "lax_derivative", "residual"):
        out[f"hierarchy.{name}.self_s"] = (self_s[f"hierarchy.{name}"] / per_op, "s")
    out["hierarchy.cutoff.calls"] = (calls["hierarchy.cutoff"] / per_op, "count")
    for name in ("build_wave_pair", "birkhoff_factorize", "extract_solution", "fd_verify"):
        out[f"solver.{name}.self_s"] = (self_s[f"solver.{name}"] / per_op, "s")
    out["solver.toeplitz_dim"] = (toeplitz, "count")
    counts = sorted(solves_under[v] for v in verify_ids)
    out["solver.solves_per_verify"] = (counts[len(counts) // 2] if counts else 0, "count")
    return out
