"""Config fuzzer: the examples/ configs, mutated with JSON atoms, run through
``cli.main`` in process.  Every input must end in a documented exit code
(0, 1 for a nonzero symbolic zc-check residual, 2 bad input, 3 outside the
big cell, 4 a resource cap) with an ``error: `` line on failure, never in a
traceback.  Integers are drawn small, or so large that a cap or a range
check rejects them before anything is allocated."""

import contextlib
import copy
import io
import json
import math
import os
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from looplax.cli import main  # noqa: E402

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
CASES = [
    ("solve.json", ["solve"]),
    ("solve.json", ["verify", "--checks", "lax:1,1"]),
    ("solve.json", ["zc-check", "--checks", "zc:0,1:1,1"]),
    ("strict.json", ["reduce", "--target", "strict"]),
    ("zc.json", ["zc-check"]),
]
CONFIGS = {name: json.loads((EXAMPLES / name).read_text()) for name in {c[0] for c in CASES}}
KEYS = [
    "n", "N", "M", "grid", "depth", "seed", "l", "g", "frame", "flows", "checks", "pairs",
    "mode", "kind", "tolerances", "random", "eps", "basis", "scalars", "1,1", "0", "1",
]
ATOMS = st.one_of(
    st.integers(-2, 4),
    st.sampled_from(
        [
            None, True, False, 0.5, -0.5, 1e-300, math.nan, math.inf,
            "", "a", "1,1", "1/0", "lax:1,1", "identity", "custom", "unipotent", "numeric",
            "strict", "combined", [], {}, [0, 0], [[0, 1]], ["0", "-1"], {"eps": 0.1},
            # sizes that a cap or a range check rejects
            17, 4096, 100000, 2**40, 10**400, 1e300, -1e300,
        ]
    ),
    st.lists(st.integers(-2, 4), max_size=4),
)


def _paths(obj, path=()):
    """Every container and value position in a JSON tree, root first."""
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


@st.composite
def mutated_case(draw):
    name, argv = draw(st.sampled_from(CASES))
    cfg = copy.deepcopy(CONFIGS[name])
    for _ in range(draw(st.integers(1, 2))):
        atom = copy.deepcopy(draw(ATOMS))  # sampled atoms are shared objects
        path = draw(st.sampled_from(list(_paths(cfg))))
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        target = parent[path[-1]] if path else cfg
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "add" and isinstance(target, dict):
            target[draw(st.sampled_from(KEYS))] = atom
        elif action == "delete" and path and isinstance(parent, dict):
            del parent[path[-1]]
        elif path:
            parent[path[-1]] = atom
        else:
            cfg = atom
    return argv, cfg


@pytest.fixture(scope="module")
def config_path():
    with tempfile.TemporaryDirectory() as tmp:
        yield os.path.join(tmp, "cfg.json")


@settings(
    max_examples=400,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(case=mutated_case())
def test_mutated_config_exits_documented_code(config_path, case):
    argv, cfg = case
    with open(config_path, "w") as fh:
        json.dump(cfg, fh)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--config", config_path])
    err = err.getvalue()
    assert code in {0, 1, 2, 3, 4}, (code, err)
    assert code != 1 or argv[0] == "zc-check", err
    assert "Traceback" not in err
    if code in (0, 1):
        assert out.getvalue() and err == ""
    else:
        assert err.startswith("error: ") and out.getvalue() == "", err
