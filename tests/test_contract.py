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

The same holds for the text of a shrunk bundled config with one edit: a byte
replaced, deleted or inserted, a key duplicated, a number replaced by a
5,000-digit literal, or a value wrapped in nested lists.  A text that is not
one JSON document must exit 2.
"""

import contextlib
import io
import json
import re
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


# A number or string value in json.dumps's layout: after "[" or a space, and not a key.
VALUE = re.compile(r'(?<=[\[ ])(?:-?\d[-+.\deE]*|"[^"]*"(?!:))')
# Bytes for a flip or an insertion, JSON's own characters drawn more often than the rest.
BYTES = st.one_of(st.sampled_from(b'0123456789.-+eE[]{}",: \\'), st.integers(0, 255))


@st.composite
def edited_texts(draw):
    name = draw(st.sampled_from(NAMES))
    text = json.dumps(_shrink(json.loads((CONFIG_DIR / f"{name}.json").read_text())))
    edit = draw(st.sampled_from(["flip", "delete", "insert", "duplicate", "digits", "nest"]))
    if edit in ("flip", "delete", "insert"):
        data = bytearray(text.encode())
        at = draw(st.integers(0, len(data) - 1))
        if edit == "flip":
            data[at] = draw(BYTES)
        elif edit == "delete":
            del data[at]
        else:
            data.insert(at, draw(BYTES))
        return bytes(data)
    if edit == "duplicate":
        key = draw(st.sampled_from(list(re.finditer(r'"\w+": ', text))))
        value = draw(st.sampled_from(["0", '"x"', "null", "{}"]))
        return (text[: key.start()] + key.group() + value + ", " + text[key.start() :]).encode()
    spans = [m.span() for m in VALUE.finditer(text) if edit == "nest" or m.group()[0] != '"']
    start, end = draw(st.sampled_from(spans))
    if edit == "digits":
        new = draw(st.sampled_from(["", "-"])) + "1" * 5000 + draw(st.sampled_from(["", ".5", "e-4990"]))
    else:
        # depths far from the recursion limit, so that validate and run, a few
        # frames apart, parse the text alike
        depth = draw(st.sampled_from([1, 3, 100_000]))
        new = "[" * depth + text[start:end] + "]" * depth
    return (text[:start] + new + text[end:]).encode()


def _main(argv):
    """Exit code and stderr of ``cli.main(argv)``."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _refuse_constant(name):
    raise AssertionError(f"report holds the non-standard JSON constant {name}")


def _assert_runs_or_is_refused(config, out):
    """``validate`` and ``run`` of ``config`` agree, and a refused run writes nothing under ``out``."""
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
    return code


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(cfg=mutated_configs())
def test_every_input_runs_or_is_refused(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(cfg))
        _assert_runs_or_is_refused(config, Path(tmp) / "out")


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(text=edited_texts())
def test_every_text_runs_or_is_refused(text):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_bytes(text)
        code = _assert_runs_or_is_refused(config, Path(tmp) / "out")
    try:
        json.loads(text)
    except (ValueError, RecursionError):
        assert code == 2, "a text that is not one JSON document is a config error"
