"""Scenario configs, strict validation, and the file-writing runner.

A scenario is a single JSON document naming one of the supported run types
plus exactly the fields that run type needs; unknown fields are rejected so a
config cannot silently drift from what was executed.  ``run_scenario`` writes
plot-ready CSV plus a JSON report embedding the fully resolved config, the
seed, and the package version, and is byte-reproducible for a fixed config.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import json
import math
import operator
import os
import shutil
import threading
import warnings as _warnings
from pathlib import Path
from typing import Callable, NamedTuple

from . import __version__
from ._limits import (
    LimitError, check_ensemble, check_integers, check_propagation, check_reals, check_rotor
)
from .feasibility import DEFAULT_T0_SECONDS, feasibility
from .specs import (
    ChainConfig,
    ChainModel,
    DoubleKick,
    DoubleKickMap,
    DoubleWellMap,
    RandomDoubleKick,
    RandomRescaledDoubleKickMap,
    RescaledDoubleKickMap,
    SingleKick,
    StandardMap,
    _m_range,
    check_chain_phases,
)

__all__ = ["ConfigError", "read_config", "validate_config", "run_scenario", "SCENARIOS"]

CHAIN_MODELS = tuple(model.value for model in ChainModel)
# The schedule and map dataclasses a config section is built from; their
# fields are the section's fields.
_SCHEDULES = {
    "single_kick": SingleKick,
    "double_kick": DoubleKick,
    "double_kick_random": RandomDoubleKick,
}
_MAPS = {
    "standard": StandardMap,
    "double_kick": DoubleKickMap,
    "rescaled_double_kick": RescaledDoubleKickMap,
    "rescaled_double_kick_random": RandomRescaledDoubleKickMap,
    "double_well": DoubleWellMap,
}
# Edge probability above which a rotor's truncated momentum basis is reported as leaky.
QKR_LEAK_THRESHOLD = 1e-6
# The most probabilities queued for the CSV writer thread, counted in whole
# snapshots and at least two: a propagation that outpaces the writer waits for
# room, so that a run holds a bounded number of snapshots however many it takes.
_WAITING_VALUES = 2**15


# The runners' callees from the numeric modules.  Those load numpy, which
# validation never needs, so the callees are bound to this module on first
# use, not at import, through the package's own lazy names.  The runners look
# them up here, where a caller may also replace one (the tracer in
# perfbench/spans.py wraps several, ``detect_accelerator_modes`` among them,
# which no runner calls since a run tracks spikes with a ``SpikeTracker``).
_ENGINE = (
    "delta_state", "magnon_state", "evolve", "qkr_evolve", "iterate_ensemble",
    "surface_of_section", "cell_occupancy", "detect_accelerator_modes",
    "distribution_stats", "fit_localization_length", "SpikeTracker",
)


def _bind_engine() -> None:
    """Bind every engine callee that is not bound yet; a runner that uses one calls this."""
    package = importlib.import_module(__package__)
    for name in _ENGINE:
        if name not in globals():
            globals()[name] = getattr(package, name)


def __getattr__(name):
    if name not in _ENGINE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind_engine()
    return globals()[name]


class ConfigError(ValueError):
    """Config schema violation; the message names the offending section and field."""


# The validator checks shape and paths; each type and value rule is the
# library's, run through ``_checked``, numbers through ``check_reals`` and
# ``check_integers``.  It keeps the rules no library function holds (the seed
# range, period > 0 as the library runs period 0 as a no-op,
# |initial_momentum| <= 2**53, p_jitter) and those held only in modules that
# load numpy (delta_site, magnon_m, n_trajectories >= 1, non-empty points).
def _checked(path, fn, *args, **kwargs):
    """Call ``fn``; a rule it breaks is a ``ConfigError`` at ``path``, a ``LimitError`` passes."""
    try:
        return fn(*args, **kwargs)
    except LimitError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _object(value, path):
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object")
    return value


def _keys(obj, path, required, optional=()):
    obj = _object(obj, path)
    for key in required:
        if key not in obj:
            raise ConfigError(f"{path}: missing required field '{key}'")
    allowed = set(required) | set(optional)
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}: unknown field '{key}'")
    return obj


def _number(obj, path, key, minimum=None, exclusive=False):
    _checked(path, check_reals, minimum, exclusive, **{key: obj[key]})
    return float(obj[key])


def _integer(obj, path, key, minimum=None, maximum=None):
    _checked(path, check_integers, **{key: obj[key]})
    v = operator.index(obj[key])
    if minimum is not None and v < minimum:
        raise ConfigError(f"{path}: {key} must be >= {minimum}, got {v}")
    if maximum is not None and v > maximum:
        raise ConfigError(f"{path}: {key} must be <= {maximum}, got {v}")
    return v


def _seed(value):
    """The run's seed, an integer that fits 64 unsigned bits."""
    seed = _integer({"seed": value}, "config", "seed")
    if not 0 <= seed < 2**64:
        raise ConfigError("config.seed: must be an unsigned 64-bit integer")
    return seed


def _output(value):
    """The run's output prefix; pathlib would drop a last component of '', '.' or '..',
    and no file name holds a NUL byte."""
    prefix = _string({"output": value}, "config", "output")
    if "\0" in prefix:
        raise ConfigError("config.output: must not contain a NUL byte")
    if os.path.basename(prefix) in ("", ".", ".."):
        raise ConfigError("config.output: its last path component must not be empty, '.' or '..'")
    return prefix


def _string(obj, path, key, choices=None):
    if key not in obj:
        raise ConfigError(f"{path}: missing required field '{key}'")
    v = obj[key]
    if not isinstance(v, str):
        raise ConfigError(f"{path}.{key}: expected a string")
    if choices is not None and v not in choices:
        raise ConfigError(f"{path}.{key}: must be one of {', '.join(choices)}")
    return v


def _spec(obj, path, cls, lead=()):
    """The number fields of dataclass ``cls``; its ``seed`` is the config's top-level seed."""
    names = tuple(f.name for f in dataclasses.fields(cls) if f.name != "seed")
    obj = _keys(obj, path, required=lead + names)
    return {k: _number(obj, path, k, 0.0 if k == "period" else None, True) for k in names}


def _validate_chain(obj, path):
    obj = _keys(obj, path, required=("n_sites", "j1"), optional=("j2", "kick_center", "model"))
    read = {"n_sites": _integer, "j1": _number, "j2": _number, "kick_center": _integer}
    fields = {key: read[key](obj, path, key) for key in read if key in obj}
    if "model" in obj:
        fields["model"] = _string(obj, path, "model", CHAIN_MODELS)
    chain = _checked(path, ChainConfig, **fields)
    return {**dataclasses.asdict(chain), "model": chain.model.value}


def _validate_initial(obj, path, n_sites):
    obj = _object(obj, path)
    if set(obj) == {"delta_site"}:
        return {"delta_site": _integer(obj, path, "delta_site", 0, n_sites - 1)}
    if set(obj) == {"magnon_m"}:
        lo, hi = _m_range(n_sites)
        return {"magnon_m": _integer(obj, path, "magnon_m", lo, hi)}
    raise ConfigError(f"{path}: expected exactly one of 'delta_site' or 'magnon_m'")


def _validate_map(obj, path):
    obj = _object(obj, path)
    variant = _string(obj, path, "variant", tuple(_MAPS))
    fields = _spec(obj, path, _MAPS[variant], lead=("variant",))
    _checked(path, _MAPS[variant], **fields)
    return {"variant": variant, **fields}


def _validate_classical_initial(obj, path):
    obj = _object(obj, path)
    if set(obj) == {"points"}:
        pts = obj["points"]
        if not isinstance(pts, list) or not pts:
            raise ConfigError(f"{path}.points: expected a non-empty list of [x, p] pairs")
        for i, pt in enumerate(pts):
            if not isinstance(pt, list) or len(pt) != 2:
                raise ConfigError(f"{path}.points[{i}]: expected an [x, p] pair")
            _checked(f"{path}.points[{i}]", check_reals, x=pt[0], p=pt[1])
        return {"points": [[float(x), float(p)] for x, p in pts]}
    if set(obj) == {"uniform_x"}:
        path = f"{path}.uniform_x"
        sub = _keys(obj["uniform_x"], path, required=("n_trajectories", "p0"), optional=("p_jitter",))
        n = _integer(sub, path, "n_trajectories", minimum=1)
        p0 = _number(sub, path, "p0")
        jitter = _number(sub, path, "p_jitter", minimum=0.0) if "p_jitter" in sub else 0.0
        # the draws span 2 * p_jitter, and p0 plus a draw must stay finite
        if not (math.isfinite(2.0 * jitter) and math.isfinite(abs(p0) + jitter)):
            raise ConfigError(f"{path}.p_jitter: 2 * p_jitter and |p0| + p_jitter must be finite")
        return {"uniform_x": {"n_trajectories": n, "p0": p0, "p_jitter": jitter}}
    raise ConfigError(f"{path}: expected exactly one of 'points' or 'uniform_x'")


def _schedule(cfg):
    """The kick schedule record of a resolved chain config."""
    cls = _SCHEDULES[cfg["scenario"]]
    return cls(**cfg["schedule"], **({"seed": cfg["seed"]} if cls is RandomDoubleKick else {}))


def _validate_chain_run(raw, out):
    chain = _validate_chain(raw["chain"], "config.chain")
    out["schedule"] = _spec(raw["schedule"], "config.schedule", _SCHEDULES[out["scenario"]])
    schedule = _checked("config.schedule", _schedule, out)
    out["chain"] = chain
    n_periods = out["n_periods"] = _integer(raw, "config", "n_periods")
    every = out["snapshot_every"] = _integer(raw, "config", "snapshot_every")
    out["initial"] = _validate_initial(raw["initial"], "config.initial", chain["n_sites"])
    _checked("config", check_propagation, chain["n_sites"], n_periods, every)
    check_chain_phases(ChainConfig(**chain), schedule)


def _validate_qkr(raw, out):
    rotor = _keys(raw["rotor"], "config.rotor", required=("k", "hbar", "n_basis", "initial_momentum"))
    out["rotor"] = {
        "k": _number(rotor, "config.rotor", "k"),
        "hbar": _number(rotor, "config.rotor", "hbar"),
        "n_basis": _integer(rotor, "config.rotor", "n_basis"),
        # labels m + a - n_basis//2 are int64 in the CSV and floats in the free phase;
        # |m| <= 2**53 keeps m exact as a float and the labels far from int64 overflow
        "initial_momentum": _integer(rotor, "config.rotor", "initial_momentum", -(2**53), 2**53),
    }
    n_periods = out["n_periods"] = _integer(raw, "config", "n_periods")
    every = out["snapshot_every"] = _integer(raw, "config", "snapshot_every")
    _checked("config", check_rotor, **out["rotor"], n_periods=n_periods, snapshot_every=every)


def _validate_classical(raw, out):
    out["map"] = _validate_map(raw["map"], "config.map")
    initial = out["initial"] = _validate_classical_initial(raw["initial"], "config.initial")
    out["n_steps"] = _integer(raw, "config", "n_steps")
    if "record_every" in raw:  # required by classical_map, unknown to surface_of_section
        out["record_every"] = _integer(raw, "config", "record_every")
    n = len(initial["points"]) if "points" in initial else initial["uniform_x"]["n_trajectories"]
    _checked("config", check_ensemble, n, out["n_steps"], out.get("record_every"))


def _validate_feasibility(raw, out):
    b, n, j = raw["b_range_au"], raw["n_sites"], raw["j_hz"]
    t0 = raw.get("t0_seconds", DEFAULT_T0_SECONDS)
    # the estimate is a few float operations; computing it checks each field and finds overflows
    _checked("config", feasibility, b, n, j, t0)
    out.update(b_range_au=float(b), n_sites=operator.index(n), j_hz=float(j), t0_seconds=float(t0))


def validate_config(raw: dict) -> dict:
    """Validate a raw config dict and return it with defaults resolved.

    Raises :class:`ConfigError` on any missing, unknown, ill-typed or
    out-of-range field (CLI exit 2), then a :class:`LimitError` if the run
    would break a cap of :mod:`._limits` (exit 1).  A number's type, finiteness
    or bound is refused in the library's wording at the field's section
    (``config.chain: j1 must be finite, got nan``); a real resolves to a ``float``.
    """
    raw = _object(raw, "config")
    scenario = _string(raw, "config", "scenario", SCENARIOS)
    entry = _REGISTRY[scenario]
    common = ("scenario", "seed", "output")
    _keys(raw, "config", required=common + entry.fields, optional=entry.optional)

    out = {
        "scenario": scenario,
        "seed": _seed(raw["seed"]),
        "output": _output(raw["output"]),
    }
    entry.validate(raw, out)
    return out


def _unique(pairs) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def read_config(path) -> dict:
    """Parse the JSON config at ``path``; a text that is not one JSON document
    with unique keys is a :class:`ConfigError`, an unreadable file an ``OSError``."""
    text = Path(path).read_bytes()
    try:
        return json.loads(text, object_pairs_hook=_unique)
    except ConfigError:
        raise
    # also a bad encoding, an integer past the digit limit, or deep nesting
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"not valid JSON ({exc})") from None


def _classical_initials(initial_cfg: dict, seed):
    import numpy as np

    from ._streams import uniform

    if "points" in initial_cfg:
        pts = np.asarray(initial_cfg["points"], dtype=float)
        return pts[:, 0].copy(), pts[:, 1].copy()
    sub = initial_cfg["uniform_x"]
    n, jitter = sub["n_trajectories"], sub["p_jitter"]
    # the p jitter, if any, continues the stream after the angles
    bounds = [(0.0, 2.0 * np.pi)] + ([(-jitter, jitter)] if jitter > 0 else [])
    x0, *drawn = uniform(seed, n, *bounds)
    p0 = np.full(n, float(sub["p0"]))
    if drawn:
        p0 = p0 + drawn[0]
    return x0, p0


def _write_report(path: Path, config: dict, report: dict) -> None:
    doc = {"config": config, "report": report, "seed": config["seed"], "version": __version__}
    # encoded first, so a non-finite value leaves no partial report
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n")


class _Outputs:
    """The files of one run, each written to a hidden temp file in the output
    directory and renamed onto ``<prefix><suffix>`` once every one is written.

    ``stage`` makes the directory on first use.  ``discard`` removes what a
    failed run made: its temp files, the files it renamed, and the outermost
    directory that did not exist before, with what is left in it.
    """

    def __init__(self, prefix: Path):
        self._prefix = prefix
        self._new_dirs = [d for d in prefix.parents if not d.exists()]
        self._staged: list[tuple[Path, Path]] = []
        self._renamed: list[Path] = []

    def stage(self, suffix: str) -> Path:
        """A new temp file for ``<prefix><suffix>``: random, so that runs into one directory
        do not meet, and short, so that it fits wherever the final name does."""
        parent = self._prefix.parent
        parent.mkdir(parents=True, exist_ok=True)
        temp = parent / f".{os.urandom(6).hex()}{suffix}.tmp"
        self._staged.append((temp, parent / (self._prefix.name + suffix)))
        return temp

    def commit(self) -> list[Path]:
        """Rename every temp file onto its final name, in staging order; return the final names."""
        for temp, final in self._staged:
            os.replace(temp, final)
            self._renamed.append(final)
        return self._renamed

    def discard(self) -> None:
        for path in [temp for temp, _ in self._staged] + self._renamed:
            path.unlink(missing_ok=True)
        if self._new_dirs:
            shutil.rmtree(self._new_dirs[-1], ignore_errors=True)


@contextlib.contextmanager
def _csv_stream(outputs: _Outputs, labels):
    """Write ``<prefix>_dist.csv`` with ``_floatcsv.write_csv`` on a second thread.

    Yields ``put(period, probabilities)``, which queues one snapshot, a
    reference to its 1-D array and not a copy, which must not change once
    queued.  A ``put`` waits for room while ``_WAITING_VALUES`` probabilities,
    or two snapshots, are queued and not yet taken.  The writer takes every
    snapshot queued so far as one batch, which its passes run across.  It is
    joined when the ``with`` statement ends; an error of the writer is raised
    by the next ``put``, or there.
    """
    import queue  # here, like write_csv, so that validation does not load it

    from ._floatcsv import write_csv  # here, so that validation loads no numpy

    path = outputs.stage("_dist.csv")
    blocks = queue.SimpleQueue()
    room = threading.Semaphore(max(2, _WAITING_VALUES // len(labels)))
    failed = []

    def batches():
        while True:
            batch = [blocks.get()]
            while not blocks.empty():
                batch.append(blocks.get())
            room.release(len(batch))  # one too many at the end mark, after which no put comes
            yield [block for block in batch if block is not None]
            if batch[-1] is None:
                return

    def write():
        try:
            with open(path, "wb") as fh:
                write_csv(fh, "period,site,probability", labels, batches())
        except Exception as exc:  # handed to the runner's thread
            failed.append(exc)
            room.release()  # a put that waits for room wakes to raise it

    def put(index, values):
        room.acquire()
        if failed:
            raise failed[0]
        blocks.put((index, values))

    writer = threading.Thread(target=write, name="kickedchain-csv", daemon=True)
    writer.start()
    try:
        yield put
    finally:
        blocks.put(None)
        writer.join()
    if failed:
        raise failed[0]


def _chain_keys(s0, **computed) -> dict:
    """A chain report's own keys; those a scenario does not compute stay empty."""
    empty = dict(loc_length=None, loc_fit_r2=None, spikes=[], spike_speeds={}, cell_occupancy=None)
    return {"s0": s0, **empty, **computed}


def _localization(cfg, record, s0, tracker) -> dict:
    chain, schedule = cfg["chain"], cfg["schedule"]
    keys = _chain_keys(s0)
    length_est = (chain["j1"] * schedule["period"]) ** 2 / 4.0
    window = (max(1.0, length_est / 2.0), min(3.0 * length_est, chain["n_sites"] / 2 - 1))
    if window[0] < window[1]:
        try:
            fit = fit_localization_length(record.final_distribution, s0, window)
            keys["loc_length"] = fit.length if math.isfinite(fit.length) else None
            keys["loc_fit_r2"] = fit.r_squared
        except ValueError as exc:
            _warnings.warn(f"localization fit skipped: {exc}")
    if tracker is not None and tracker.n_snapshots >= 3:
        for track in tracker.tracks():
            keys["spike_speeds"][track.side] = track.speed
            keys["spikes"] += [
                {"side": track.side, "period": t, "site": s, "displacement": d, "mass": m}
                for t, s, d, m in zip(track.periods, track.sites, track.displacements, track.masses)
            ]
    return keys


def _trapping(cfg, record, s0, tracker) -> dict:
    b_weak, center = cfg["schedule"]["b_weak"], cfg["chain"]["kick_center"]
    # b_weak 0 draws no trapping cell, so the occupancy stays empty
    occupancy = cell_occupancy(record.final_distribution, b_weak, center) if b_weak > 0 else None
    return _chain_keys(s0, cell_occupancy=occupancy)


def _double_kick_trapping(cfg, record, s0, tracker) -> dict:
    if cfg["schedule"]["b_strong"] <= cfg["schedule"]["b_weak"]:
        _warnings.warn(
            "b_strong <= b_weak: cellular trapping assumes the second kick is"
            " much stronger than the first"
        )
    return _trapping(cfg, record, s0, tracker)


def _rotor(cfg, record, s0, tracker) -> dict:
    if record.max_edge > QKR_LEAK_THRESHOLD:
        _warnings.warn(
            f"momentum-basis truncation leakage: edge probability {record.max_edge:.3e} "
            f"exceeds {QKR_LEAK_THRESHOLD:.0e}"
        )
    return {"initial_momentum": cfg["rotor"]["initial_momentum"]}


def _propagate(cfg, outputs, labels, s0, engine, *args, **kwargs) -> dict:
    """Run ``engine(*args, **kwargs)`` for the config's periods, streaming each snapshot to
    ``_dist.csv`` and, for a single kick that draws spikes, to a ``SpikeTracker``; the record
    keeps only the last snapshot.  The report's warnings are those raised while building it."""
    kwargs.update(n_periods=cfg["n_periods"], snapshot_every=cfg["snapshot_every"])
    b_kick = cfg.get("schedule", {}).get("b_kick", 0.0)
    tracker = SpikeTracker(b_kick, cfg["chain"]["kick_center"]) if b_kick > 0 else None
    with _csv_stream(outputs, labels) as put:

        def on_snapshot(period, p):
            if tracker is not None:
                tracker.step(period, p)
            put(period, p)

        record = engine(*args, **kwargs, on_snapshot=on_snapshot)
    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always")
        variance, participation = distribution_stats(record.final_distribution, s0)
        keys = _REGISTRY[cfg["scenario"]].diagnose(cfg, record, s0, tracker)
    warnings = [str(w.message) for w in caught]
    return dict(variance=variance, participation_ratio=participation, **keys, warnings=warnings)


def _run_chain(cfg, outputs):
    _bind_engine()
    chain, schedule = ChainConfig(**cfg["chain"]), _schedule(cfg)
    s0, m = cfg["initial"].get("delta_site", chain.kick_center), cfg["initial"].get("magnon_m")
    state = delta_state(chain.n_sites, s0) if m is None else magnon_state(chain.n_sites, m)
    return _propagate(cfg, outputs, range(chain.n_sites), s0, evolve, state, chain, schedule)


def _run_qkr(cfg, outputs):
    _bind_engine()
    rotor = cfg["rotor"]
    lo = rotor["initial_momentum"] - rotor["n_basis"] // 2
    labels = range(lo, lo + rotor["n_basis"])
    return _propagate(cfg, outputs, labels, rotor["n_basis"] // 2, qkr_evolve, **rotor)


def _run_classical(cfg, outputs):
    from ._streams import Seed

    _bind_engine()
    fields = dict(cfg["map"])
    spec = _MAPS[fields.pop("variant")](**fields)
    # the two children SeedSequence(seed).spawn(2) hands out
    init_ss, run_ss = (Seed(cfg["seed"], (i,)) for i in range(2))
    x0, p0 = _classical_initials(cfg["initial"], init_ss)
    if "record_every" not in cfg:
        from ._floatcsv import write_csv  # not loaded by an ensemble run, which writes no CSV
        sections = surface_of_section(x0, p0, spec, cfg["n_steps"], seed=run_ss)
        steps = range(1, sections.shape[1] + 1)
        # here: the rows exist only once the map is done, so a writer thread would overlap nothing
        with open(outputs.stage("_sos.csv"), "wb") as fh:
            write_csv(fh, "trajectory,step,x,p", steps, [enumerate(sections)])
        return {"n_trajectories": int(x0.size), "n_steps": cfg["n_steps"]}
    stats = iterate_ensemble(x0, p0, spec, cfg["n_steps"], cfg["record_every"], seed=run_ss)
    return {
        "n_trajectories": int(x0.size),
        "steps": [int(s) for s in stats.steps],
        "mean_p": [float(v) for v in stats.mean_p],
        "var_p": [float(v) for v in stats.var_p],
    }


def _run_feasibility(cfg, outputs):
    return feasibility(cfg["b_range_au"], cfg["n_sites"], cfg["j_hz"], cfg["t0_seconds"]).to_dict()


class _Scenario(NamedTuple):
    """One run type: its top-level fields besides scenario, seed and output;
    its validator, which fills in the resolved config; its runner
    ``run(cfg, outputs)``, which writes its CSV, if any, into a file that
    ``outputs.stage`` names and returns the report; and for a
    propagation ``diagnose(cfg, record, s0, tracker)``, the report's own keys
    from the record of the last snapshot and the run's ``SpikeTracker`` or
    None; it raises its notes for the report with ``warnings.warn``."""

    fields: tuple
    validate: Callable
    run: Callable
    diagnose: Callable | None = None
    optional: tuple = ()


_CHAIN_FIELDS = ("chain", "schedule", "n_periods", "snapshot_every", "initial")
_REGISTRY = {
    "single_kick": _Scenario(_CHAIN_FIELDS, _validate_chain_run, _run_chain, _localization),
    "double_kick": _Scenario(_CHAIN_FIELDS, _validate_chain_run, _run_chain, _double_kick_trapping),
    "double_kick_random": _Scenario(_CHAIN_FIELDS, _validate_chain_run, _run_chain, _trapping),
    "qkr": _Scenario(("rotor", "n_periods", "snapshot_every"), _validate_qkr, _run_qkr, _rotor),
    "classical_map": _Scenario(
        ("map", "initial", "n_steps", "record_every"), _validate_classical, _run_classical
    ),
    "surface_of_section": _Scenario(
        ("map", "initial", "n_steps"), _validate_classical, _run_classical
    ),
    "feasibility": _Scenario(
        ("b_range_au", "n_sites", "j_hz"),
        _validate_feasibility,
        _run_feasibility,
        optional=("t0_seconds",),
    ),
}
SCENARIOS = tuple(_REGISTRY)


def run_scenario(config, seed: int | None = None, out_prefix: str | None = None) -> dict:
    """Execute one scenario and write its output files.

    ``config`` is a path to a JSON document or an already-parsed dict.
    ``seed`` and ``out_prefix`` override the config's seed and output, and
    must pass the same checks.
    Returns {"files": [paths written], "config": resolved config,
    "warnings": [...]}; warnings are also embedded in the report.  Every
    file is written to a temp file in the output directory, the CSV while
    the run is still computing, and renamed onto its name only once the
    report is written, the report last.  So a run that is refused or fails
    leaves no output files and no new directory, and the files of an
    earlier run under the same prefix stay as they were.
    """
    cfg = validate_config(read_config(config) if isinstance(config, (str, Path)) else dict(config))
    # after validate_config, so that a run refuses a config exactly as validate does
    if seed is not None:
        cfg["seed"] = _seed(seed)
    if out_prefix is not None:
        cfg["output"] = _output(out_prefix)

    outputs = _Outputs(Path(cfg["output"]))
    try:
        report = _REGISTRY[cfg["scenario"]].run(cfg, outputs)
        _write_report(outputs.stage("_report.json"), cfg, report)
        files = outputs.commit()
    except BaseException:
        outputs.discard()
        raise

    return {
        "files": [str(f) for f in files],
        "config": cfg,
        "warnings": list(report.get("warnings", [])),
    }
