"""The input contract: every config runs to a report or is refused before any work.

Each bundled config is shrunk to a small size and one or two of its leaves
are replaced by a wrong type, an extreme number or NaN, or deleted.  The
mutated config is run in process through ``cli.main``.  The run must return
0, 1 or 2 with no exception escaping; on 0 its report is strict JSON, and on
1 or 2 it leaves no file and no directory behind.  The same config is first
validated through ``cli.main``, and the two front ends must agree: a config
that ``validate`` refuses, ``run`` refuses with the same exit code and the
same message, and a config that ``validate`` accepts, ``run`` runs, unless
it meets one of ``RUN_TIME_FAILURES``.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from kickedchain import cli

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
NAMES = sorted(p.stem for p in CONFIG_DIR.glob("*.json"))

DELETE = object()
REPLACEMENTS = [
    "x", None, True, [], {},
    0, -1, 1e308, -1e308, 10**400, -(10**400), 2**63, 2**64, float("nan"),
    DELETE,
]
# The failures that only running can find, as the run's stderr names them: a
# trajectory of a map overflows, or a distribution fails the probability check.
RUN_TIME_FAILURES = ("trajectories became non-finite (the map overflowed)", "probabilities sum to")


def _shrink(cfg: dict) -> dict:
    """``cfg`` at a small size: at most 64 sites or basis states, 8 periods,
    8 trajectories and 8 steps."""
    if "chain" in cfg:
        n = cfg["chain"]["n_sites"]
        cfg["chain"]["n_sites"] = min(n, 64)
        # keep the initial site where it sits relative to the ring
        cfg["initial"] = {key: v * min(n, 64) // n for key, v in cfg["initial"].items()}
    if "rotor" in cfg:
        cfg["rotor"]["n_basis"] = min(cfg["rotor"]["n_basis"], 64)
    if "n_periods" in cfg:
        cfg["n_periods"] = min(cfg["n_periods"], 8)
        cfg["snapshot_every"] = min(cfg["snapshot_every"], 3)
    if "n_steps" in cfg:
        cfg["n_steps"] = min(cfg["n_steps"], 8)
        cfg["initial"]["points"] = cfg["initial"]["points"][:8]
    if cfg["scenario"] == "feasibility":
        cfg["n_sites"] = min(cfg["n_sites"], 64)
    return cfg


def _leaves(node, path=()):
    """Paths to every value of ``node`` that is not an object or a list."""
    if isinstance(node, dict):
        return [leaf for key, v in node.items() for leaf in _leaves(v, path + (key,))]
    if isinstance(node, list):
        return [leaf for i, v in enumerate(node) for leaf in _leaves(v, path + (i,))]
    return [path]


@st.composite
def mutated_configs(draw):
    name = draw(st.sampled_from(NAMES))
    cfg = _shrink(json.loads((CONFIG_DIR / f"{name}.json").read_text()))
    paths = draw(st.lists(st.sampled_from(_leaves(cfg)), min_size=1, max_size=2, unique=True))
    # the later path first, so deleting a list item leaves the other path valid
    for path in sorted(paths, reverse=True):
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        value = draw(st.sampled_from(REPLACEMENTS))
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return cfg


def _main(argv):
    """Exit code and stderr of ``cli.main(argv)``."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _refuse_constant(name):
    raise AssertionError(f"report holds the non-standard JSON constant {name}")


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(cfg=mutated_configs())
def test_every_input_runs_or_is_refused(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(cfg))
        out = Path(tmp) / "out"
        verdict = _main(["validate", "--config", str(config)])
        code, err = _main(["run", "--config", str(config), "--out", str(out / "deep" / "run")])
        assert code in (0, 1, 2)
        if verdict[0]:
            assert (code, err) == verdict
        else:
            assert code == 0 or (code == 1 and any(f in err for f in RUN_TIME_FAILURES)), err
        if code == 0:
            report = (out / "deep" / "run_report.json").read_text()
            json.loads(report, parse_constant=_refuse_constant)
        else:
            assert not out.exists()
