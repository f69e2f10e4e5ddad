"""Command-line interface: batch derivation, residual checking, solving,
verification, and sub-hierarchy reduction with JSON I/O.

Exit codes: 0 success, 1 a nonzero symbolic zc-check residual, 2 validation
error, 3 factorization outside the big cell, 4 a resource cap exceeded (see
the caps below; each is checked before any allocation).  Identical config and
seed produce byte-identical JSON output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import errors
from .hierarchy import (
    CommutativeFrame,
    HierarchyKind,
    akns_reduce,
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

# Resource caps, well above the README and benchmark sizes (n = 3,
# N = M = 64, grid = 512; symbolic depth 4), each checked before any
# allocation; going over one exits 4.  Timings are single runs on a 2-vCPU
# machine, import included.
# Largest matrix size.
N_MAX = 16
# Largest n*depth of a symbolic zc-check, so the depth cap shrinks as n
# grows.  At the cap, combined-kind zc-check of the deepest pair takes about
# 15 s at n = 16, depth 4 (the standard kind 3.3 s), 3.4 s at n = 8, depth 8
# and 0.8 s at n = 2, depth 32; n = 2, depth 256 would take 55 s.
DRESSING_MAX = 64
# Largest block-Toeplitz dimension n*M and grid size grid*n^2 of a numeric
# solve.  With both at the cap, a solve and a one-check verify take 1.7 s at
# n = 2 (N = 2048, M = 256, grid = 8192), and 2.6 s and 4.5 s at n = 16
# (N = M = 32, grid = 128; the solve prints 20 MB of JSON).  M = 512 at n = 2
# would take 10 s a solve.
TOEPLITZ_MAX = 512
GRID_MAX = 2**15


def _emit(obj, fmt: str, render_text):
    if fmt == "json":
        print(json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1))
    else:
        print(render_text(obj))


# ---------------------------------------------------------------------------
# config reading
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Config:
    """A command's inputs, each read from the config and checked once.

    ``mode`` is "numeric" for ``solve``, ``reduce`` and ``verify``.  Numeric
    commands fill ``params``, ``g``, ``l``, ``flows`` and ``config_hash``, and
    verification its ``checks``; symbolic ``zc-check`` fills ``kind``,
    ``depth`` and ``pairs``."""

    n: int
    frame: CommutativeFrame
    seed: int | None
    mode: str = "numeric"
    params: SolverParams | None = None
    g: AnnulusLoop | None = None
    l: ExponentVector | None = None
    flows: FlowRecord | None = None
    config_hash: str | None = None
    checks: tuple = ()
    kind: HierarchyKind | None = None
    depth: int | None = None
    pairs: tuple = ()


def read_config(cfg: dict, command: str) -> Config:
    """Read and check every field of ``cfg`` that ``command`` uses, before
    any dressing or solve starts.  A malformed field raises ``ValueError``
    naming it; a size above a cap raises :class:`errors.ResourceExceeded`."""
    n = _size("n", cfg.get("n", 2))
    frame = _frame(cfg.get("frame") or {}, n)
    mode, checks = "numeric", ()
    if command == "verify":
        checks = _checks(cfg.get("checks", []))
        if not checks:
            raise ValueError("verify needs --checks (e.g. lax:1,1 zc:-1,1:1,1)")
    elif command == "zc-check":
        mode = cfg.get("mode", "symbolic")
        if mode not in ("symbolic", "numeric"):
            raise ValueError(f"config field mode must be \"symbolic\" or \"numeric\", not {mode!r}")
        pairs = [_pair(i, p) for i, p in enumerate(_list("pairs", cfg.get("pairs") or []))]
        pairs = pairs or [c[1:] for c in _checks(cfg.get("checks", [])) if c[0] == "zc"]
        if not pairs:
            raise ValueError("zc-check needs flow pairs (config 'pairs' or --checks zc:...)")
        if mode == "symbolic":
            return _symbolic(cfg, n, frame, pairs)
        checks = tuple(("zc", *p) for p in pairs)
    try:
        frame.complex_basis()
    except OverflowError:
        raise ValueError("config field frame has an entry beyond float range") from None
    tolerances = cfg.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ValueError(f"config field tolerances must be a JSON object, not {tolerances!r}")
    params = SolverParams(
        N=_whole("N", cfg.get("N", 16)),
        M=_whole("M", cfg.get("M", 12)),
        grid=_whole("grid", cfg.get("grid", 128)),
        **{
            name: _number(f"tolerances.{name}", tolerances.get(name, default))
            for name, default in (("fact_tol", 1e-10), ("cond_max", 1e10), ("tail_tol", 1e-8))
        },
    )
    _cap("n*M", n * params.M, TOEPLITZ_MAX, "block-Toeplitz dimension")
    _cap("grid*n^2", params.grid * n * n, GRID_MAX, "grid size")
    seed = _seed(cfg, None)
    g = _loop(cfg.get("g"), n, params, seed)
    l = _twist(cfg.get("l", [0] * n), n, params.grid, frame)
    flows = _flows(cfg.get("flows", {}))
    config_hash = provenance_hash(
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
    return Config(n, frame, seed, mode, params, g, l, flows, config_hash, checks)


def _symbolic(cfg, n, frame, pairs) -> Config:
    """The fields of a symbolic ``zc-check``: a seeded exact dressing of
    ``kind`` at ``depth``, and pairs whose cut-offs it knows at every power
    (a pair needing more would check nothing there)."""
    depth = _whole("depth", cfg.get("depth", 4))
    if depth < 0:
        raise ValueError(f"config field depth must be at least 0, not {depth}")
    _cap("n*depth", n * depth, DRESSING_MAX, "symbolic dressing")
    kind = cfg.get("kind", "standard")
    if kind not in ("standard", "strict", "combined"):
        raise ValueError(f"config field kind must be \"standard\", \"strict\" or \"combined\", not {kind!r}")
    kind = HierarchyKind(kind)
    for i, (m1, a1, m2, a2) in enumerate(pairs):
        need = max(_cutoff_depth(kind, m) for m in (m1, m2))
        if depth < need:
            raise ValueError(
                f"pairs[{i}] = {[m1, a1, m2, a2]} needs depth >= {need} for cut-offs "
                f"known at every power, got depth {depth}"
            )
    seed = _seed(cfg, 0)
    return Config(n, frame, seed, "symbolic", kind=kind, depth=depth, pairs=tuple(pairs))


def _cutoff_depth(kind: HierarchyKind, m: int) -> int:
    """The least depth of :func:`_random_exact_dressing` at which the cut-off
    of flow degree ``m`` is total."""
    if kind is HierarchyKind.STRICT:
        return m - 1
    return m if m >= 0 or kind is HierarchyKind.STANDARD else -m - 1


def _frame(desc, n: int) -> CommutativeFrame:
    """The config's frame: a kind with optional scalars, or a custom basis
    of n x n Q(i) matrices."""
    if not isinstance(desc, dict):
        raise ValueError(f"config field frame must be a JSON object, not {desc!r}")
    frame_n = _size("frame.n", desc.get("n", n))
    if frame_n != n:
        raise ValueError(f"config field frame.n = {frame_n} differs from n = {n}")
    kind = desc.get("kind", "diagonal")
    if kind == "custom":
        basis = [
            _matrix(f"frame.basis[{i}]", b, n, _exact)
            for i, b in enumerate(_list("frame.basis", desc.get("basis")))
        ]
        return make_frame("custom", n, basis=basis)
    scalars = desc.get("scalars")
    if scalars is not None:
        scalars = [_exact(f"frame.scalars[{i}]", s) for i, s in enumerate(_list("frame.scalars", scalars))]
    return make_frame(kind, n, scalars=scalars)


def _loop(desc, n: int, params: SolverParams, seed: int | None) -> AnnulusLoop:
    """The config's g: "identity", a seeded random loop, or a table of n x n
    Fourier coefficients keyed by frequencies the grid resolves."""
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
        return random_loop(n, params.N, eps, seed=seed)
    coeffs = {}
    for k, m in desc.items():
        try:
            freq = int(k)
        except ValueError:
            raise ValueError(f"config field g key {k!r} must be a whole-number frequency") from None
        if abs(freq) >= params.grid // 2:
            raise ValueError(
                f"config field g key {k!r} is beyond the frequencies |k| < {params.grid // 2} "
                f"that a grid of {params.grid} points resolves"
            )
        coeffs[freq] = _matrix(f"g[{k!r}]", m, n, _complex)
    return AnnulusLoop.from_coeff_dict(n, coeffs)


def _twist(value, n: int, grid: int, frame: CommutativeFrame) -> ExponentVector:
    """The exponent vector l of the twist delta(l): n whole numbers that
    commute with the frame.  delta(l) is sampled on the doubled grid and
    moves entry (i, j) of the loop by l_i - l_j frequencies, so the entries
    lie within +-(grid - 1) and spread over less than grid / 2."""
    l = [_whole(f"l[{i}]", x) for i, x in enumerate(_list("l", value))]
    if len(l) != n:
        raise ValueError(f"config field l = {l} has exponent vector length {len(l)}, not n = {n}")
    if max(l) - min(l) >= grid // 2 or max(map(abs, l)) >= grid:
        raise ValueError(
            f"config field l = {l} twists by more than a grid of {grid} points resolves: "
            f"its entries must lie within +-{grid - 1} and spread over less than {grid // 2}"
        )
    return ExponentVector(l).check_commutes(frame)


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


def _checks(items) -> tuple:
    """``lax:m,a`` and ``zc:m1,a1:m2,a2`` strings as check tuples."""
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
    return tuple(checks)


def _pair(i: int, p) -> list:
    """``pairs[i]``: four whole numbers m1, alpha1, m2, alpha2."""
    if len(_list(f"pairs[{i}]", p)) != 4:
        raise ValueError(f"config field pairs[{i}] must hold m1, alpha1, m2, alpha2, not {p!r}")
    return [_whole(f"pairs[{i}]", x) for x in p]


def _matrix(field: str, value, n: int, entry) -> list:
    """An n x n JSON array; entry (i, j) is read by ``entry`` as ``field[i][j]``."""
    if not (
        isinstance(value, list) and len(value) == n
        and all(isinstance(row, list) and len(row) == n for row in value)
    ):
        raise ValueError(f"config field {field} must be a {n}x{n} array, not {value!r}")
    return [[entry(f"{field}[{i}][{j}]", x) for j, x in enumerate(row)] for i, row in enumerate(value)]


def _exact(field: str, value) -> GaussianRational:
    """An exact Q(i) value: a ``["p/q", "p/q"]`` pair."""
    try:
        return GaussianRational.from_obj(value)
    except ValueError as exc:
        raise ValueError(f"config field {field}: {exc}") from None


def _complex(field: str, value) -> complex:
    """A numeric entry: a ``[re, im]`` pair of JSON numbers."""
    if not (isinstance(value, list) and len(value) == 2):
        raise ValueError(f"config field {field} must be a [re, im] pair of numbers, not {value!r}")
    return complex(_number(f"{field}[0]", value[0]), _number(f"{field}[1]", value[1]))


def _whole(field: str, value) -> int:
    """A config value that must be a whole number: 16 or 16.0, not 16.9,
    1e400, true or "16"."""
    if type(value) is not int and not (isinstance(value, float) and value.is_integer()):
        raise ValueError(f"config field {field} must be a whole number, not {value!r}")
    return int(value)


def _size(field: str, value) -> int:
    """A matrix size: a whole number, at least 2, and at most :data:`N_MAX`."""
    n = _whole(field, value)
    if n < 2:
        raise ValueError(f"{field} must be at least 2, not {n}")
    _cap(field, n, N_MAX, "matrix size")
    return n


def _cap(field: str, value: int, cap: int, what: str) -> None:
    """Raise :class:`errors.ResourceExceeded` for a value above its cap."""
    if value > cap:
        bits = value.bit_length()
        shown = f"{value:.3g}" if bits < 1024 else f"about 2^{bits - 1}"
        raise errors.ResourceExceeded(f"{field} = {shown} is above the {what} cap {cap}")


def _list(field: str, value) -> list:
    """A config value that must be a JSON array."""
    if not isinstance(value, list):
        raise ValueError(f"config field {field} must be a JSON array, not {value!r}")
    return value


def _seed(cfg, default):
    """The config's whole-number ``seed``, else ``default``."""
    seed = cfg.get("seed")
    return default if seed is None else _whole("seed", seed)


def _number(field: str, value) -> float:
    """A config value that must be a JSON number in float range (not a
    string or a bool)."""
    if type(value) is not float and not (type(value) is int and abs(value) < 2**1023):
        raise ValueError(f"config field {field} must be a number, not {value!r}")
    return float(value)


def provenance_hash(obj) -> str:
    """Deterministic hash of a canonical-JSON view of solver inputs."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _read(args) -> Config:
    """Read the command's config file, with ``--seed`` and ``--checks``
    written into it as the fields they set."""
    cfg = {}
    if args.config:
        with open(args.config) as fh:
            cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"config must be a JSON object, not {type(cfg).__name__}")
    flags = {"seed": args.seed, "checks": getattr(args, "checks", None)}
    cfg.update((field, v) for field, v in flags.items() if v not in (None, []))
    return read_config(cfg, args.command)


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
    c = _read(args)
    pair = build_wave_pair(c.g, c.l, c.flows, c.frame, c.params)
    if args.command == "reduce":
        sol = reduce_subhierarchy(pair, HierarchyKind(args.target))
    else:
        sol = extract_solution(pair)
    obj = sol.to_obj()
    obj["provenance"]["config_hash"] = c.config_hash
    _emit(obj, args.format, _solution_text)
    return 0


def cmd_verify(args, c: Config | None = None) -> int:
    c = c or _read(args)
    report = fd_verify(c.g, c.l, c.frame, c.flows, c.checks, h=args.fd_step, params=c.params)
    obj = report.to_obj()
    obj["provenance"] = {"config_hash": c.config_hash}
    _emit(obj, args.format, _verify_text)
    return 0


def cmd_zc_check(args) -> int:
    c = _read(args)
    if c.mode == "numeric":
        return cmd_verify(args, c)
    # symbolic mode: seeded exact dressing, Lax-substituted derivatives
    d = _random_exact_dressing(c.kind, c.frame, c.depth, c.seed)
    results = {}
    for m1, a1, m2, a2 in c.pairs:
        d1 = cutoff_lax_derivative(d, m1, a1, m2, a2)
        d2 = cutoff_lax_derivative(d, m2, a2, m1, a1)
        res = zc_residual(d, m1, a1, m2, a2, d1, d2)
        results[f"zc:{m1},{a1}:{m2},{a2}"] = bool(res.is_zero())
    obj = {"mode": "symbolic", "kind": c.kind.value, "seed": c.seed, "zero": results}
    _emit(obj, args.format, lambda o: "\n".join(f"{k}: {'zero' if v else 'NONZERO'}" for k, v in sorted(o["zero"].items())))
    return 0 if all(results.values()) else 1


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


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="looplax",
        description="loop-series hierarchies: derivation, residuals, and Birkhoff solving",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def solver_flags(sp):
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--seed", type=int, default=None, help="sets the config's seed")

    def check_flags(sp):
        sp.add_argument("--fd-step", dest="fd_step", type=float, default=1e-4)
        sp.add_argument("--checks", nargs="*", default=None, help="sets the config's checks")

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
    except (errors.LoopLaxError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
