"""Scenario configs, strict validation, and the file-writing runner.

A scenario is a single JSON document naming one of the supported run types
plus exactly the fields that run type needs; unknown fields are rejected so a
config cannot silently drift from what was executed.  ``run_scenario`` writes
plot-ready CSV plus a JSON report embedding the fully resolved config, the
seed, and the package version, and is byte-reproducible for a fixed config.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import math
import warnings as _warnings
from pathlib import Path
from typing import Callable, NamedTuple

from . import __version__
from .feasibility import _MAX_SITES, DEFAULT_T0_SECONDS, feasibility
from .specs import (
    _MAP_DRIFTS,
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
)

__all__ = ["ConfigError", "validate_config", "run_scenario", "SCENARIOS"]

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
# The one hand-kept rule on those fields: these durations must be > 0;
# schedule strengths must be >= 0 and map strengths are unbounded.
_DURATIONS = ("period", *_MAP_DRIFTS)


# The runners' callees from the numeric modules.  Those load numpy, which
# validation never needs, so the callees are bound to this module on first
# use, not at import.  The runners look them up here, where a caller may also
# replace one (the tracer in perfbench/spans.py wraps several).
_ENGINE = {
    **dict.fromkeys(("delta_state", "magnon_state"), "chain"),
    **dict.fromkeys(("_check_run", "evolve", "qkr_evolve"), "evolution"),
    **dict.fromkeys(("_check_ensemble_size", "iterate_ensemble", "surface_of_section"), "maps"),
    **dict.fromkeys(
        ("cell_occupancy", "detect_accelerator_modes", "distribution_stats", "fit_localization_length"),
        "diagnostics",
    ),
}


def _bind_engine() -> None:
    """Bind every engine callee that is not bound yet."""
    for name, module in _ENGINE.items():
        if name not in globals():
            globals()[name] = getattr(importlib.import_module(f".{module}", __package__), name)


def __getattr__(name):
    if name not in _ENGINE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind_engine()
    return globals()[name]


class ConfigError(ValueError):
    """Config schema violation; the message names the offending field path."""


def _object(value, path):
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object")
    return value


def _keys(obj, path, required, optional=()):
    for key in required:
        if key not in obj:
            raise ConfigError(f"{path}: missing required field '{key}'")
    allowed = set(required) | set(optional)
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}: unknown field '{key}'")


def _to_float(v) -> float:
    """float(v), reading an integer beyond the float range as inf."""
    try:
        return float(v)
    except OverflowError:
        return math.inf


def _number(obj, path, key, minimum=None, exclusive=False):
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number")
    v = _to_float(v)
    if not math.isfinite(v):
        raise ConfigError(f"{path}.{key}: must be finite")
    if minimum is not None and (v <= minimum if exclusive else v < minimum):
        op = ">" if exclusive else ">="
        raise ConfigError(f"{path}.{key}: must be {op} {minimum}")
    return v


def _integer(obj, path, key, minimum=None, maximum=None):
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}.{key}: expected an integer")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{path}.{key}: must be >= {minimum}")
    if maximum is not None and v > maximum:
        raise ConfigError(f"{path}.{key}: must be <= {maximum}")
    return v


def _string(obj, path, key, choices=None):
    v = obj[key]
    if not isinstance(v, str):
        raise ConfigError(f"{path}.{key}: expected a string")
    if choices is not None and v not in choices:
        raise ConfigError(f"{path}.{key}: must be one of {', '.join(choices)}")
    return v


def _spec(obj, path, cls, minimum, lead=()):
    """The number fields of dataclass ``cls``, strengths bounded by ``minimum``.

    A ``seed`` field is not read here: it is the config's top-level seed.
    """
    names = tuple(f.name for f in dataclasses.fields(cls) if f.name != "seed")
    _keys(obj, path, required=lead + names)
    return {
        key: _number(obj, path, key, 0.0, exclusive=True)
        if key in _DURATIONS
        else _number(obj, path, key, minimum)
        for key in names
    }


def _validate_chain(obj, path):
    obj = _object(obj, path)
    _keys(obj, path, required=("n_sites", "j1"), optional=("j2", "kick_center", "model"))
    n = _integer(obj, path, "n_sites", minimum=2)
    out = {
        "n_sites": n,
        "j1": _number(obj, path, "j1"),
        "j2": _number(obj, path, "j2") if "j2" in obj else 0.0,
        "kick_center": _integer(obj, path, "kick_center", 0, n - 1) if "kick_center" in obj else n // 2,
        "model": _string(obj, path, "model", CHAIN_MODELS) if "model" in obj else "ferromagnet",
    }
    try:
        ChainConfig(**out)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return out


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
    if "variant" not in obj:
        raise ConfigError(f"{path}: missing required field 'variant'")
    variant = _string(obj, path, "variant", tuple(_MAPS))
    return {"variant": variant, **_spec(obj, path, _MAPS[variant], None, lead=("variant",))}


def _validate_classical_initial(obj, path):
    obj = _object(obj, path)
    if set(obj) == {"points"}:
        pts = obj["points"]
        if not isinstance(pts, list) or not pts:
            raise ConfigError(f"{path}.points: expected a non-empty list of [x, p] pairs")
        for i, pt in enumerate(pts):
            if (
                not isinstance(pt, list)
                or len(pt) != 2
                or any(
                    isinstance(c, bool)
                    or not isinstance(c, (int, float))
                    or not math.isfinite(_to_float(c))
                    for c in pt
                )
            ):
                raise ConfigError(f"{path}.points[{i}]: expected a finite [x, p] number pair")
        return {"points": [[float(x), float(p)] for x, p in pts]}
    if set(obj) == {"uniform_x"}:
        path = f"{path}.uniform_x"
        sub = _object(obj["uniform_x"], path)
        _keys(sub, path, required=("n_trajectories", "p0"), optional=("p_jitter",))
        n = _integer(sub, path, "n_trajectories", minimum=1)
        p0 = _number(sub, path, "p0")
        jitter = _number(sub, path, "p_jitter", minimum=0.0) if "p_jitter" in sub else 0.0
        # the draws span 2 * p_jitter, and p0 plus a draw must stay finite
        if not (math.isfinite(2.0 * jitter) and math.isfinite(abs(p0) + jitter)):
            raise ConfigError(f"{path}.p_jitter: 2 * p_jitter and |p0| + p_jitter must be finite")
        return {"uniform_x": {"n_trajectories": n, "p0": p0, "p_jitter": jitter}}
    raise ConfigError(f"{path}: expected exactly one of 'points' or 'uniform_x'")


def _validate_chain_run(raw, out):
    chain = _validate_chain(raw["chain"], "config.chain")
    sched = _object(raw["schedule"], "config.schedule")
    out["schedule"] = _spec(sched, "config.schedule", _SCHEDULES[out["scenario"]], 0.0)
    out["chain"] = chain
    out["n_periods"] = _integer(raw, "config", "n_periods", minimum=0)
    out["snapshot_every"] = _integer(raw, "config", "snapshot_every", minimum=1)
    out["initial"] = _validate_initial(raw["initial"], "config.initial", chain["n_sites"])


def _validate_qkr(raw, out):
    rotor = _object(raw["rotor"], "config.rotor")
    _keys(rotor, "config.rotor", required=("k", "hbar", "n_basis", "initial_momentum"))
    out["rotor"] = {
        "k": _number(rotor, "config.rotor", "k"),
        "hbar": _number(rotor, "config.rotor", "hbar", minimum=0.0, exclusive=True),
        "n_basis": _integer(rotor, "config.rotor", "n_basis", minimum=2),
        # labels m + a - n_basis//2 are int64 in the CSV and floats in the free phase;
        # |m| <= 2**53 keeps m exact as a float and the labels far from int64 overflow
        "initial_momentum": _integer(rotor, "config.rotor", "initial_momentum", -(2**53), 2**53),
    }
    out["n_periods"] = _integer(raw, "config", "n_periods", minimum=0)
    out["snapshot_every"] = _integer(raw, "config", "snapshot_every", minimum=1)


def _validate_classical(raw, out):
    out["map"] = _validate_map(raw["map"], "config.map")
    out["initial"] = _validate_classical_initial(raw["initial"], "config.initial")
    out["n_steps"] = _integer(raw, "config", "n_steps", minimum=1)
    if "record_every" in raw:  # required by classical_map, unknown to surface_of_section
        out["record_every"] = _integer(raw, "config", "record_every", minimum=1)


def _validate_feasibility(raw, out):
    out["b_range_au"] = _number(raw, "config", "b_range_au", minimum=0.0)
    out["n_sites"] = _integer(raw, "config", "n_sites", minimum=1, maximum=_MAX_SITES)
    out["j_hz"] = _number(raw, "config", "j_hz", minimum=0.0, exclusive=True)
    out["t0_seconds"] = (
        _number(raw, "config", "t0_seconds", minimum=0.0, exclusive=True)
        if "t0_seconds" in raw
        else DEFAULT_T0_SECONDS
    )


def validate_config(raw: dict) -> dict:
    """Validate a raw config dict and return it with defaults resolved.

    Raises :class:`ConfigError` naming the offending field path on any
    missing, unknown, or ill-typed field.
    """
    raw = _object(raw, "config")
    if "scenario" not in raw:
        raise ConfigError("config: missing required field 'scenario'")
    scenario = _string(raw, "config", "scenario", SCENARIOS)
    entry = _REGISTRY[scenario]
    common = ("scenario", "seed", "output")
    _keys(raw, "config", required=common + entry.fields, optional=entry.optional)

    out = {
        "scenario": scenario,
        "seed": _integer(raw, "config", "seed", minimum=0, maximum=2**64 - 1),
        "output": _string(raw, "config", "output"),
    }
    entry.validate(raw, out)
    return out


def _classical_initials(initial_cfg: dict, seed):
    import numpy as np

    if "points" in initial_cfg:
        pts = np.asarray(initial_cfg["points"], dtype=float)
        return pts[:, 0].copy(), pts[:, 1].copy()
    sub = initial_cfg["uniform_x"]
    n = sub["n_trajectories"]
    _check_ensemble_size(n)  # before the draws are allocated
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(0.0, 2.0 * np.pi, size=n)
    p0 = np.full(n, float(sub["p0"]))
    if sub["p_jitter"] > 0:
        p0 = p0 + rng.uniform(-sub["p_jitter"], sub["p_jitter"], size=n)
    return x0, p0


# The CSV writers below keep the bytes of csv.writer's default dialect: rows end
# in "\r\n", floats are their shortest repr, labels are str(int), nothing is
# quoted.  Each snapshot or trajectory is formatted in one join and written, so
# at most one of them is held as text at a time.


def _write_dist_csv(path: Path, snapshots, site_labels) -> None:
    sites = [f"{site}," for site in site_labels]
    with path.open("w", newline="") as fh:
        fh.write("period,site,probability\r\n")
        for period, dist in snapshots:
            head = f"{period},"
            rows = [f"{head}{site}{prob!r}\r\n" for site, prob in zip(sites, dist.tolist())]
            fh.write("".join(rows))


def _write_sos_csv(path: Path, sections) -> None:
    steps = [f",{step}," for step in range(1, sections.shape[1] + 1)]
    with path.open("w", newline="") as fh:
        fh.write("trajectory,step,x,p\r\n")
        for traj, points in enumerate(sections):
            head = str(traj)
            rows = [f"{head}{step}{x!r},{p!r}\r\n" for step, (x, p) in zip(steps, points.tolist())]
            fh.write("".join(rows))


def _write_report(path: Path, config: dict, report: dict) -> None:
    doc = {"config": config, "report": report, "seed": config["seed"], "version": __version__}
    # encoded first, so a non-finite value leaves no partial report and no new directory
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n")


def _propagation_report(cfg, record, s0) -> dict:
    """Shared stats plus the scenario's keys; warnings: its own, then caught, then the record's."""
    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always")
        variance, participation = distribution_stats(record.final_distribution, s0)
        keys = _REGISTRY[cfg["scenario"]].diagnose(cfg, record, s0)
    warnings = keys.pop("warnings", []) + [str(w.message) for w in caught] + record.warnings
    return dict(variance=variance, participation_ratio=participation, **keys, warnings=warnings)


def _chain_keys(s0, **computed) -> dict:
    """A chain report's own keys; those a scenario does not compute stay empty."""
    empty = dict(loc_length=None, loc_fit_r2=None, spikes=[], spike_speeds={}, cell_occupancy=None)
    return {"s0": s0, **empty, **computed}


def _localization(cfg, record, s0) -> dict:
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
            keys["warnings"] = [f"localization fit skipped: {exc}"]
    if schedule["b_kick"] > 0 and len(record.snapshots) >= 3:
        left, right = detect_accelerator_modes(record, schedule["b_kick"], chain["kick_center"])
        for track in (left, right):
            keys["spike_speeds"][track.side] = track.speed
            keys["spikes"] += [
                {"side": track.side, "period": t, "site": s, "displacement": d, "mass": m}
                for t, s, d, m in zip(track.periods, track.sites, track.displacements, track.masses)
            ]
    return keys


def _trapping(cfg, record, s0) -> dict:
    b_weak, center = cfg["schedule"]["b_weak"], cfg["chain"]["kick_center"]
    return _chain_keys(s0, cell_occupancy=cell_occupancy(record.final_distribution, b_weak, center))


def _double_kick_trapping(cfg, record, s0) -> dict:
    own = []
    if cfg["schedule"]["b_strong"] <= cfg["schedule"]["b_weak"]:
        own.append(
            "b_strong <= b_weak: cellular trapping assumes the second kick is"
            " much stronger than the first"
        )
    return {**_trapping(cfg, record, s0), "warnings": own}


def _rotor(cfg, record, s0) -> dict:
    return {"initial_momentum": cfg["rotor"]["initial_momentum"]}


def _run_chain(cfg):
    chain = ChainConfig(**cfg["chain"])
    cls = _SCHEDULES[cfg["scenario"]]
    seeded = {"seed": cfg["seed"]} if cls is RandomDoubleKick else {}
    schedule = cls(**cfg["schedule"], **seeded)
    # evolve checks the caps too, but only once the initial state exists
    _check_run(chain.n_sites, cfg["n_periods"], cfg["snapshot_every"])
    if "delta_site" in cfg["initial"]:
        s0 = cfg["initial"]["delta_site"]
        state = delta_state(chain.n_sites, s0)
    else:
        s0 = chain.kick_center
        state = magnon_state(chain.n_sites, cfg["initial"]["magnon_m"])
    record = evolve(state, chain, schedule, cfg["n_periods"], cfg["snapshot_every"])
    report = _propagation_report(cfg, record, s0)
    return report, ("_dist.csv", _write_dist_csv, record.snapshots, range(chain.n_sites))


def _run_qkr(cfg):
    rotor = cfg["rotor"]
    record = qkr_evolve(**rotor, n_periods=cfg["n_periods"], snapshot_every=cfg["snapshot_every"])
    lo = rotor["initial_momentum"] - rotor["n_basis"] // 2
    labels = range(lo, lo + rotor["n_basis"])
    report = _propagation_report(cfg, record, rotor["n_basis"] // 2)
    return report, ("_dist.csv", _write_dist_csv, record.snapshots, labels)


def _run_classical(cfg):
    import numpy as np

    fields = dict(cfg["map"])
    spec = _MAPS[fields.pop("variant")](**fields)
    init_ss = run_ss = None
    # only a run that draws loads numpy.random
    if "uniform_x" in cfg["initial"] or isinstance(spec, RandomRescaledDoubleKickMap):
        init_ss, run_ss = np.random.SeedSequence(cfg["seed"]).spawn(2)
    x0, p0 = _classical_initials(cfg["initial"], init_ss)
    if "record_every" not in cfg:
        sections = surface_of_section(x0, p0, spec, cfg["n_steps"], seed=run_ss)
        report = {"n_trajectories": int(x0.size), "n_steps": cfg["n_steps"]}
        return report, ("_sos.csv", _write_sos_csv, sections)
    stats = iterate_ensemble(x0, p0, spec, cfg["n_steps"], cfg["record_every"], seed=run_ss)
    report = {
        "n_trajectories": int(x0.size),
        "steps": [int(s) for s in stats.steps],
        "mean_p": [float(v) for v in stats.mean_p],
        "var_p": [float(v) for v in stats.var_p],
    }
    return report, None


def _run_feasibility(cfg):
    result = feasibility(cfg["b_range_au"], cfg["n_sites"], cfg["j_hz"], cfg["t0_seconds"])
    return result.to_dict(), None


class _Scenario(NamedTuple):
    """One run type: its top-level fields besides scenario, seed and output;
    its validator, which fills in the resolved config; its runner, which
    returns the report and either None or (CSV suffix, writer, *writer args);
    and for a propagation ``diagnose(cfg, record, s0)``, the report's own keys."""

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
    ``seed`` and ``out_prefix`` override the corresponding config fields.
    Returns {"files": [paths written], "config": resolved config,
    "warnings": [...]}; warnings are also embedded in the report.  The
    report is written before the CSV, so a run that is refused, or whose
    report cannot be encoded, leaves no output files and no new directory.
    """
    if isinstance(config, (str, Path)):
        with open(config) as fh:
            raw = json.load(fh)
    else:
        raw = dict(config)
    cfg = validate_config(raw)
    if seed is not None:
        if not 0 <= seed < 2**64:
            raise ConfigError("config.seed: must be an unsigned 64-bit integer")
        cfg["seed"] = seed
    if out_prefix is not None:
        cfg["output"] = out_prefix

    _bind_engine()
    report, csv = _REGISTRY[cfg["scenario"]].run(cfg)
    prefix = Path(cfg["output"])
    report_path = prefix.parent / (prefix.name + "_report.json")
    _write_report(report_path, cfg, report)
    files = [report_path]
    if csv is not None:
        suffix, write, *args = csv
        csv_path = prefix.parent / (prefix.name + suffix)
        write(csv_path, *args)
        files.insert(0, csv_path)

    return {
        "files": [str(f) for f in files],
        "config": cfg,
        "warnings": list(report.get("warnings", [])),
    }
