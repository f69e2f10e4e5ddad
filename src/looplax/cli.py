"""Command-line interface: batch derivation, residual checking, solving,
verification, and sub-hierarchy reduction with JSON I/O.

Exit codes: 0 success, 2 validation error, 3 factorization outside the big
cell, 4 resource caps exceeded (a matrix size ``n`` above :data:`N_MAX`).
Identical config and seed produce byte-identical JSON output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from fractions import Fraction

from . import errors
from .hierarchy import (
    CommutativeFrame,
    HierarchyKind,
    akns_reduce,
    cutoff,
    cutoff_lax_derivative,
    deform,
    make_frame,
    zc_residual,
)
from .linearize import ExponentVector, FlowRecord
from .loops import LoopSeries
from .scalars import DerivationSymbol, GaussianRational
from .solver import (
    AnnulusLoop,
    SolverParams,
    build_wave_pair,
    extract_solution,
    fd_verify,
    random_loop,
    reduce_subhierarchy,
)

# Largest matrix size.  Symbolic zc-check at depth 4 takes about 7 s
# (standard kind) and 23 s (combined kind) at n = 16 on a 2-vCPU machine.
N_MAX = 16


def _emit(obj, fmt: str, render_text):
    if fmt == "json":
        print(json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1))
    else:
        print(render_text(obj))


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def load_frame(desc) -> CommutativeFrame:
    desc = desc or {"kind": "diagonal"}
    kind = desc.get("kind", "diagonal")
    n = desc.get("n")
    if kind == "custom":
        basis = [
            [[GaussianRational.from_obj(x) for x in row] for row in mat]
            for mat in _list("frame.basis", desc.get("basis"))
        ]
        return make_frame("custom", n or len(basis[0]), basis=basis)
    scalars = desc.get("scalars")
    if scalars is not None:
        scalars = [GaussianRational.from_obj(s) for s in _list("frame.scalars", scalars)]
    return make_frame(kind, n, scalars=scalars)


def load_loop(desc, n: int, N: int, seed: int | None) -> AnnulusLoop:
    if desc in (None, "identity"):
        return AnnulusLoop.identity(n, 0)
    if not isinstance(desc, dict) or not isinstance(desc.get("random", {}), dict):
        raise ValueError(
            "g must be \"identity\", {\"random\": {\"eps\": ...}} or a table "
            f"of Fourier coefficients keyed by frequency, not {desc!r}"
        )
    if "random" in desc:
        eps = _number("g.random.eps", desc["random"].get("eps", 0.1))
        if seed is None:
            raise ValueError("random loops need --seed (or config 'seed')")
        return random_loop(n, N, eps, seed=seed)
    return AnnulusLoop.from_obj(n, desc)


def parse_checks(items):
    """``lax:m,a`` and ``zc:m1,a1:m2,a2`` strings as check tuples; a
    malformed one raises ValueError naming ``checks[i]``."""
    checks = []
    for i, item in enumerate(_list("checks", items)):
        head, _, rest = item.partition(":") if isinstance(item, str) else ("", "", "")
        parts = [p.split(",") for p in rest.split(":")]
        shape = (head, [len(p) for p in parts])
        try:
            nums = [int(x) for p in parts for x in p]
        except ValueError:
            shape = None
        if shape not in (("lax", [2]), ("zc", [2, 2])):
            raise ValueError(f"checks[{i}] = {item!r} must read lax:m,a or zc:m1,a1:m2,a2")
        checks.append((head, *nums))
    return checks


def _frame_setup(cfg, args):
    """The matrix size and the frame of a config, with ``--n``/``--frame``."""
    n = _size("n", cfg.get("n", 2) if args.n is None else args.n)
    frame_cfg = cfg.get("frame") or {}
    if not isinstance(frame_cfg, dict):
        raise ValueError(f"config field frame must be a JSON object, not {frame_cfg!r}")
    frame_n = _size("frame.n", frame_cfg.get("n", n))
    if frame_n != n:
        raise ValueError(f"config field frame.n = {frame_n} differs from n = {n}")
    frame_cfg = dict(frame_cfg, n=n)
    if args.frame:
        frame_cfg["kind"] = args.frame
    return n, load_frame(frame_cfg)


def _solver_setup(cfg, args):
    n, frame = _frame_setup(cfg, args)
    tolerances = cfg.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ValueError("tolerances must be a JSON object")
    params = SolverParams(
        N=_whole("N", cfg.get("N", 16)) if args.depth_N is None else args.depth_N,
        M=_whole("M", cfg.get("M", 12)) if args.depth_M is None else args.depth_M,
        grid=_whole("grid", cfg.get("grid", 128)),
        fact_tol=(
            _number("tolerances.fact_tol", tolerances.get("fact_tol", 1e-10))
            if args.tol_fact is None
            else args.tol_fact
        ),
        cond_max=_number("tolerances.cond_max", tolerances.get("cond_max", 1e10)),
        tail_tol=_number("tolerances.tail_tol", tolerances.get("tail_tol", 1e-8)),
    )
    seed = _seed(cfg, args, None)
    g = load_loop(cfg.get("g"), n, params.N, seed)
    l_cfg = _list("l", cfg.get("l", [0] * n))
    l = ExponentVector([_whole(f"l[{i}]", x) for i, x in enumerate(l_cfg)])
    flows = _flows(cfg.get("flows", {}))
    prov = provenance_hash(
        {
            "n": n,
            "frame": frame.to_obj(),
            "params": params.to_obj(),
            "g": g.to_obj(),
            "l": list(l),
            "flows": flows.to_obj(),
            "seed": seed,
        }
    )
    return frame, params, g, l, flows, prov


def _whole(field: str, value) -> int:
    """A config value that must be a whole number: 16 or 16.0, not 16.9,
    1e400, true or "16"."""
    if type(value) is not int and not (isinstance(value, float) and value.is_integer()):
        raise ValueError(f"config field {field} must be a whole number, not {value!r}")
    return int(value)


def _size(field: str, value) -> int:
    """A matrix size: a whole number, at least 2, and at most :data:`N_MAX`
    (a resource cap)."""
    n = _whole(field, value)
    if n < 2:
        raise ValueError(f"{field} must be at least 2, not {n}")
    if n > N_MAX:
        raise errors.ResourceExceeded(f"{field} = {n:.3g} is above the matrix size cap {N_MAX}")
    return n


def _list(field: str, value) -> list:
    """A config value that must be a JSON array."""
    if not isinstance(value, list):
        raise ValueError(f"config field {field} must be a JSON array, not {value!r}")
    return value


def _seed(cfg, args, default):
    """``--seed``, else the config's whole-number ``seed``, else ``default``."""
    if args.seed is not None:
        return args.seed
    seed = cfg.get("seed", default)
    return None if seed is None else _whole("seed", seed)


def _number(field: str, value) -> float:
    """A config value that must be a JSON number (not a string or a bool)."""
    if type(value) not in (int, float):
        raise ValueError(f"config field {field} must be a number, not {value!r}")
    return float(value)


def _flows(value) -> FlowRecord:
    """The config's flows: an object mapping "m,alpha" keys to numbers."""
    if not isinstance(value, dict):
        raise ValueError(f"config field flows must be a JSON object, not {value!r}")
    for key, v in value.items():
        try:
            DerivationSymbol.parse(key)
        except ValueError:
            raise ValueError(
                f"config field flows key {key!r} must read \"m,alpha\" with whole numbers"
            ) from None
        _number(f"flows[{key!r}]", v)
    return FlowRecord(value)


def provenance_hash(obj) -> str:
    """Deterministic hash of a canonical-JSON view of solver inputs."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# text renderers
# ---------------------------------------------------------------------------

_AKNS_SUBSCRIPTS = {"(1,1)": "x", "(2,1)": "t"}


def _poly_text(p) -> str:
    """Render a differential polynomial with x/t subscripts for the two
    AKNS flows."""
    s = str(p)
    for inner in ("q", "r", "beta1", "gamma1", "u12", "u21"):
        s = s.replace(f"d(1,1)^2[{inner}]", f"{inner}_xx")
        s = s.replace(f"d(1,1)[{inner}]", f"{inner}_x")
        s = s.replace(f"d(2,1)[{inner}]", f"{inner}_t")
    return s


def _fmt_complex(x) -> str:
    re, im = x
    return f"{re:+.6g}{im:+.6g}i"


def _series_text(obj) -> str:
    lines = []
    for k in sorted(obj["coeffs"], key=int):
        rows = [
            " ".join(f"{_fmt_complex(x):>22}" for x in row) for row in obj["coeffs"][k]
        ]
        lines.append(f"z^{k}:")
        lines.extend("    " + r for r in rows)
    return "\n".join(lines) or "0"


def _solution_text(obj) -> str:
    lines = [f"kind: {obj['kind']}", f"window: {obj['window']}"]
    for label, key in (("U", "u_series"), ("W", "w_series")):
        if obj.get(key):
            for idx, s in enumerate(obj[key], start=1):
                lines.append(f"{label}_{idx}:")
                lines.append(_series_text(s))
    return "\n".join(lines)


def _verify_text(obj) -> str:
    lines = [f"{k}: {v:.3e}" for k, v in sorted(obj["residuals"].items())]
    for k in obj["inconclusive"]:
        lines.append(f"{k}: inconclusive (big cell violated at a perturbed point)")
    return "\n".join(lines) or "no checks requested"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_derive_akns(args) -> int:
    rep = akns_reduce()
    if args.format == "json":
        _emit({"report": rep.to_obj()}, "json", None)
        return 0
    names = ("q", "r", "u11", "u12", "u21", "u22")
    lines = [f"{name:<3} = {_poly_text(getattr(rep, name))}" for name in names]
    lines += [f"i*{v}_t = {_poly_text(getattr(rep, 'pde_' + v)[1])}" for v in ("q", "r")]
    print("\n".join(lines))
    return 0


def cmd_solve(args) -> int:
    """``solve``, and ``reduce`` when ``--target`` names a sub-hierarchy."""
    cfg = _read_config(args)
    frame, params, g, l, flows, prov = _solver_setup(cfg, args)
    pair = build_wave_pair(g, l, flows, frame, params)
    if getattr(args, "target", None):
        sol = reduce_subhierarchy(pair, HierarchyKind(args.target))
    else:
        sol = extract_solution(pair)
    obj = sol.to_obj()
    obj["provenance"]["config_hash"] = prov
    _emit(obj, args.format, _solution_text)
    return 0


def cmd_verify(args) -> int:
    cfg = _read_config(args)
    checks = parse_checks(args.checks or cfg.get("checks", []))
    if not checks:
        raise ValueError("verify needs --checks (e.g. lax:1,1 zc:-1,1:1,1)")
    return _verify(cfg, args, checks)


def _verify(cfg, args, checks) -> int:
    frame, params, g, l, flows, prov = _solver_setup(cfg, args)
    report = fd_verify(g, l, frame, flows, checks, h=float(args.fd_step), params=params)
    obj = report.to_obj()
    obj["provenance"] = {"config_hash": prov}
    _emit(obj, args.format, _verify_text)
    return 0


def cmd_zc_check(args) -> int:
    cfg = _read_config(args)
    mode = cfg.get("mode", "symbolic")
    if mode not in ("symbolic", "numeric"):
        raise ValueError(f"config field mode must be \"symbolic\" or \"numeric\", not {mode!r}")
    pairs = cfg.get("pairs") or [
        list(c[1:]) for c in parse_checks(args.checks or []) if c[0] == "zc"
    ]
    if not pairs:
        raise ValueError("zc-check needs flow pairs (config 'pairs' or --checks zc:...)")
    pairs = [_pair(i, p) for i, p in enumerate(_list("pairs", pairs))]
    if mode == "numeric":
        return _verify(cfg, args, [("zc", *p) for p in pairs])
    # symbolic mode: seeded exact dressing, Lax-substituted derivatives
    _, frame = _frame_setup(cfg, args)
    depth = _whole("depth", cfg.get("depth", 4))
    if depth < 0:
        raise ValueError(f"config field depth must be at least 0, not {depth}")
    seed = _seed(cfg, args, 0)
    kind = cfg.get("kind", "standard")
    if kind not in ("standard", "strict", "combined"):
        raise ValueError(f"config field kind must be \"standard\", \"strict\" or \"combined\", not {kind!r}")
    kind = HierarchyKind(kind)
    d = _random_exact_dressing(kind, frame, depth, seed)
    results = {}
    for i, (m1, a1, m2, a2) in enumerate(pairs):
        # a cut-off unknown at some power leaves the residual nothing exact to
        # check there: refuse the pair rather than report a vacuous zero
        if not (cutoff(d, m1, a1).total and cutoff(d, m2, a2).total):
            need = max(_cutoff_depth(kind, m) for m in (m1, m2))
            raise ValueError(
                f"pairs[{i}] = {[m1, a1, m2, a2]} needs depth >= {need} for cut-offs "
                f"known at every power, got depth {depth}"
            )
        d1 = cutoff_lax_derivative(d, m1, a1, m2, a2)
        d2 = cutoff_lax_derivative(d, m2, a2, m1, a1)
        res = zc_residual(d, m1, a1, m2, a2, d1, d2)
        results[f"zc:{m1},{a1}:{m2},{a2}"] = bool(res.is_zero())
    obj = {"mode": "symbolic", "kind": kind.value, "seed": seed, "zero": results}
    _emit(obj, args.format, lambda o: "\n".join(f"{k}: {'zero' if v else 'NONZERO'}" for k, v in sorted(o["zero"].items())))
    return 0 if all(results.values()) else 1


def _pair(i: int, p) -> list:
    """``pairs[i]``: four whole numbers m1, alpha1, m2, alpha2."""
    if len(_list(f"pairs[{i}]", p)) != 4:
        raise ValueError(f"config field pairs[{i}] must hold m1, alpha1, m2, alpha2, not {p!r}")
    return [_whole(f"pairs[{i}]", x) for x in p]


def _cutoff_depth(kind: HierarchyKind, m: int) -> int:
    """The least depth of :func:`_random_exact_dressing` at which the cut-off
    of flow degree ``m`` is total."""
    if kind is HierarchyKind.STRICT:
        return m - 1
    return m if m >= 0 else -m - 1


def _random_exact_dressing(kind, frame, depth, seed):
    rng = random.Random(seed)

    def entry():
        return GaussianRational(
            Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
            Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
        )

    def mat():
        return tuple(tuple(entry() for _ in range(frame.n)) for _ in range(frame.n))

    eye = tuple(
        tuple(GaussianRational(1 if i == j else 0) for j in range(frame.n))
        for i in range(frame.n)
    )
    wit = LoopSeries(
        frame.n, {0: eye, **{k: mat() for k in range(-depth, 0)}}, (-depth, 0)
    )
    if kind is HierarchyKind.STANDARD:
        return deform(kind, frame, wit)
    # redraw the strict kind's own witness, or the combined kind's z^{-1}-graded
    # one, until deform accepts it; `powers` is in RNG draw order (strict: head first)
    strict = kind is HierarchyKind.STRICT
    if strict:
        powers, window, direction = (0, *range(-depth, 0)), (-depth, 0), "z"
    else:
        powers, window, direction = range(depth + 1), (0, depth), "zinv"
    while True:
        drawn = LoopSeries(frame.n, {k: mat() for k in powers}, window, direction)
        try:
            return deform(kind, frame, drawn) if strict else deform(kind, frame, wit, drawn)
        except (errors.ShapeViolation, errors.SingularLeading):
            pass


def _read_config(args) -> dict:
    if not getattr(args, "config", None):
        return {}
    with open(args.config) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"config must be a JSON object, not {type(cfg).__name__}")
    return cfg


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="looplax",
        description="loop-series hierarchies: derivation, residuals, and Birkhoff solving",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def solver_flags(sp):
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--seed", type=int, default=None, help="seed for random inputs")
        sp.add_argument("--n", type=int, default=None)
        sp.add_argument("--frame", choices=["diagonal", "unipotent", "custom"], default=None)
        sp.add_argument("--depth-N", dest="depth_N", type=int, default=None)
        sp.add_argument("--depth-M", dest="depth_M", type=int, default=None)
        sp.add_argument("--tol-fact", dest="tol_fact", type=float, default=None)

    def check_flags(sp):
        sp.add_argument("--fd-step", dest="fd_step", type=float, default=1e-4)
        sp.add_argument("--checks", nargs="*", default=None)

    # each subcommand registers only the flags it reads
    for name, fn, flag_groups in (
        ("derive-akns", cmd_derive_akns, ()),
        ("zc-check", cmd_zc_check, (solver_flags, check_flags)),
        ("solve", cmd_solve, (solver_flags,)),
        ("verify", cmd_verify, (solver_flags, check_flags)),
        ("reduce", cmd_solve, (solver_flags,)),
    ):
        sp = sub.add_parser(name)
        sp.add_argument("--format", choices=["json", "text"], default="json")
        for add_flags in flag_groups:
            add_flags(sp)
        if name == "reduce":
            sp.add_argument("--target", choices=["standard", "strict"], required=True)
        sp.set_defaults(fn=fn)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except errors.BigCellViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except errors.ResourceExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (errors.LoopLaxError, ValueError, KeyError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
