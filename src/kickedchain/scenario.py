"""Scenario configs, strict validation, and the file-writing runner.

A scenario is a single JSON document naming one of the supported run types
plus exactly the fields that run type needs; unknown fields are rejected so a
config cannot silently drift from what was executed.  ``run_scenario`` writes
plot-ready CSV plus a JSON report embedding the fully resolved config, the
seed, and the package version, and is byte-reproducible for a fixed config.
"""

from __future__ import annotations

import json
import math
import warnings as _warnings
from pathlib import Path

import numpy as np

from . import __version__
from .chain import ChainConfig, delta_state, magnon_state
from .diagnostics import (
    DistributionReport,
    cell_occupancy,
    detect_accelerator_modes,
    distribution_stats,
    fit_localization_length,
)
from .evolution import (
    DoubleKick,
    RandomDoubleKick,
    SingleKick,
    evolve,
    qkr_evolve,
)
from .feasibility import feasibility
from .maps import (
    DoubleKickMap,
    DoubleWellMap,
    RandomRescaledDoubleKickMap,
    RescaledDoubleKickMap,
    StandardMap,
    iterate_ensemble,
    surface_of_section,
)

__all__ = ["ConfigError", "validate_config", "run_scenario", "SCENARIOS"]

SCENARIOS = (
    "single_kick",
    "double_kick",
    "double_kick_random",
    "qkr",
    "classical_map",
    "surface_of_section",
    "feasibility",
)

CHAIN_MODELS = ("ferromagnet", "nnn_ladder", "antiferro_linear")
MAP_VARIANTS = (
    "standard",
    "double_kick",
    "rescaled_double_kick",
    "rescaled_double_kick_random",
    "double_well",
)


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
        _chain_from(out)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return out


def _validate_initial(obj, path, n_sites):
    obj = _object(obj, path)
    if set(obj) == {"delta_site"}:
        return {"delta_site": _integer(obj, path, "delta_site", 0, n_sites - 1)}
    if set(obj) == {"magnon_m"}:
        lo, hi = -((n_sites - 1) // 2), n_sites // 2
        return {"magnon_m": _integer(obj, path, "magnon_m", lo, hi)}
    raise ConfigError(f"{path}: expected exactly one of 'delta_site' or 'magnon_m'")


def _validate_map(obj, path):
    obj = _object(obj, path)
    if "variant" not in obj:
        raise ConfigError(f"{path}: missing required field 'variant'")
    variant = _string(obj, path, "variant", MAP_VARIANTS)
    fields = {
        "standard": ("k",),
        "double_kick": ("k", "eps", "tau"),
        "rescaled_double_kick": ("k_eps", "tau_eps"),
        "rescaled_double_kick_random": ("k_eps",),
        "double_well": ("k1", "k2"),
    }[variant]
    _keys(obj, path, required=("variant",) + fields)
    out = {"variant": variant}
    for key in fields:
        exclusive = key in ("eps", "tau", "tau_eps")
        out[key] = _number(obj, path, key, minimum=0.0 if exclusive else None, exclusive=exclusive)
    return out


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
        sub = _object(obj["uniform_x"], f"{path}.uniform_x")
        _keys(sub, f"{path}.uniform_x", required=("n_trajectories", "p0"), optional=("p_jitter",))
        return {
            "uniform_x": {
                "n_trajectories": _integer(sub, f"{path}.uniform_x", "n_trajectories", minimum=1),
                "p0": _number(sub, f"{path}.uniform_x", "p0"),
                "p_jitter": _number(sub, f"{path}.uniform_x", "p_jitter", minimum=0.0)
                if "p_jitter" in sub
                else 0.0,
            }
        }
    raise ConfigError(f"{path}: expected exactly one of 'points' or 'uniform_x'")


def validate_config(raw: dict) -> dict:
    """Validate a raw config dict and return it with defaults resolved.

    Raises :class:`ConfigError` naming the offending field path on any
    missing, unknown, or ill-typed field.
    """
    raw = _object(raw, "config")
    if "scenario" not in raw:
        raise ConfigError("config: missing required field 'scenario'")
    scenario = _string(raw, "config", "scenario", SCENARIOS)

    common = ("scenario", "seed", "output")
    per_scenario = {
        "single_kick": ("chain", "schedule", "n_periods", "snapshot_every", "initial"),
        "double_kick": ("chain", "schedule", "n_periods", "snapshot_every", "initial"),
        "double_kick_random": ("chain", "schedule", "n_periods", "snapshot_every", "initial"),
        "qkr": ("rotor", "n_periods", "snapshot_every"),
        "classical_map": ("map", "initial", "n_steps", "record_every"),
        "surface_of_section": ("map", "initial", "n_steps"),
        "feasibility": ("b_range_au", "n_sites", "j_hz"),
    }
    optional = {"feasibility": ("t0_seconds",)}.get(scenario, ())
    _keys(raw, "config", required=common + per_scenario[scenario], optional=optional)

    out = {
        "scenario": scenario,
        "seed": _integer(raw, "config", "seed", minimum=0, maximum=2**64 - 1),
        "output": _string(raw, "config", "output"),
    }

    if scenario in ("single_kick", "double_kick", "double_kick_random"):
        chain = _validate_chain(raw["chain"], "config.chain")
        sched = _object(raw["schedule"], "config.schedule")
        fields = {
            "single_kick": ("b_kick", "period"),
            "double_kick": ("b_weak", "b_strong", "period"),
            "double_kick_random": ("b_weak", "period"),
        }[scenario]
        _keys(sched, "config.schedule", required=fields)
        out["schedule"] = {
            key: _number(sched, "config.schedule", key, minimum=0.0, exclusive=(key == "period"))
            for key in fields
        }
        out["chain"] = chain
        out["n_periods"] = _integer(raw, "config", "n_periods", minimum=0)
        out["snapshot_every"] = _integer(raw, "config", "snapshot_every", minimum=1)
        out["initial"] = _validate_initial(raw["initial"], "config.initial", chain["n_sites"])
    elif scenario == "qkr":
        rotor = _object(raw["rotor"], "config.rotor")
        _keys(rotor, "config.rotor", required=("k", "hbar", "n_basis", "initial_momentum"))
        out["rotor"] = {
            "k": _number(rotor, "config.rotor", "k"),
            "hbar": _number(rotor, "config.rotor", "hbar", minimum=0.0, exclusive=True),
            "n_basis": _integer(rotor, "config.rotor", "n_basis", minimum=2),
            "initial_momentum": _integer(rotor, "config.rotor", "initial_momentum"),
        }
        out["n_periods"] = _integer(raw, "config", "n_periods", minimum=0)
        out["snapshot_every"] = _integer(raw, "config", "snapshot_every", minimum=1)
    elif scenario in ("classical_map", "surface_of_section"):
        out["map"] = _validate_map(raw["map"], "config.map")
        out["initial"] = _validate_classical_initial(raw["initial"], "config.initial")
        out["n_steps"] = _integer(raw, "config", "n_steps", minimum=1)
        if scenario == "classical_map":
            out["record_every"] = _integer(raw, "config", "record_every", minimum=1)
    else:  # feasibility
        out["b_range_au"] = _number(raw, "config", "b_range_au", minimum=0.0)
        out["n_sites"] = _integer(raw, "config", "n_sites", minimum=1)
        out["j_hz"] = _number(raw, "config", "j_hz", minimum=0.0, exclusive=True)
        out["t0_seconds"] = (
            _number(raw, "config", "t0_seconds", minimum=0.0, exclusive=True)
            if "t0_seconds" in raw
            else 1e-6
        )
    return out


def _chain_from(chain_cfg: dict) -> ChainConfig:
    return ChainConfig(
        n_sites=chain_cfg["n_sites"],
        j1=chain_cfg["j1"],
        j2=chain_cfg["j2"],
        kick_center=chain_cfg["kick_center"],
        model=chain_cfg["model"],
    )


def _map_from(map_cfg: dict):
    variant = map_cfg["variant"]
    if variant == "standard":
        return StandardMap(k=map_cfg["k"])
    if variant == "double_kick":
        return DoubleKickMap(k=map_cfg["k"], eps=map_cfg["eps"], tau=map_cfg["tau"])
    if variant == "rescaled_double_kick":
        return RescaledDoubleKickMap(k_eps=map_cfg["k_eps"], tau_eps=map_cfg["tau_eps"])
    if variant == "rescaled_double_kick_random":
        return RandomRescaledDoubleKickMap(k_eps=map_cfg["k_eps"])
    return DoubleWellMap(k1=map_cfg["k1"], k2=map_cfg["k2"])


def _classical_initials(initial_cfg: dict, rng: np.random.Generator):
    if "points" in initial_cfg:
        pts = np.asarray(initial_cfg["points"], dtype=float)
        return pts[:, 0].copy(), pts[:, 1].copy()
    sub = initial_cfg["uniform_x"]
    n = sub["n_trajectories"]
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
    # encoded before the file is opened, so a non-finite value leaves no partial report
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n")


def _quantum_report(config, record, chain, s0) -> dict:
    captured: list[str] = []
    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always")
        variance, participation = distribution_stats(record.final_distribution, s0)
        report = DistributionReport(
            s0=s0, variance=variance, participation_ratio=participation
        )
        scenario = config["scenario"]
        if scenario == "double_kick" and (
            config["schedule"]["b_strong"] <= config["schedule"]["b_weak"]
        ):
            captured.append(
                "b_strong <= b_weak: cellular trapping assumes the second kick is"
                " much stronger than the first"
            )
        if scenario == "single_kick":
            b_kick = config["schedule"]["b_kick"]
            length_est = (chain.j1 * config["schedule"]["period"]) ** 2 / 4.0
            window = (max(1.0, length_est / 2.0), min(3.0 * length_est, chain.n_sites / 2 - 1))
            if window[0] < window[1]:
                try:
                    fit = fit_localization_length(record.final_distribution, s0, window)
                    report.loc_length = fit.length if np.isfinite(fit.length) else None
                    report.loc_fit_r2 = fit.r_squared
                except ValueError as exc:
                    captured.append(f"localization fit skipped: {exc}")
            if b_kick > 0 and len(record.snapshots) >= 3:
                left, right = detect_accelerator_modes(record, b_kick, chain.kick_center)
                for track in (left, right):
                    report.spike_speeds[track.side] = track.speed
                    report.spikes.extend(
                        {
                            "side": track.side,
                            "period": per,
                            "site": site,
                            "displacement": disp,
                            "mass": mass,
                        }
                        for per, site, disp, mass in zip(
                            track.periods, track.sites, track.displacements, track.masses
                        )
                    )
        else:
            report.cell_occupancy = cell_occupancy(
                record.final_distribution, config["schedule"]["b_weak"], chain.kick_center
            )
    report.warnings = captured + [str(w.message) for w in caught] + list(record.warnings)
    return report.to_dict()


def run_scenario(config, seed: int | None = None, out_prefix: str | None = None) -> dict:
    """Execute one scenario and write its output files.

    ``config`` is a path to a JSON document or an already-parsed dict.
    ``seed`` and ``out_prefix`` override the corresponding config fields.
    Returns {"files": [paths written], "config": resolved config,
    "warnings": [...]}; warnings are also embedded in the report.  The
    report is written before the CSV, so a run whose report cannot be
    encoded leaves no output files.
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

    prefix = Path(cfg["output"])
    if prefix.parent != Path("."):
        prefix.parent.mkdir(parents=True, exist_ok=True)
    dist_path = prefix.parent / (prefix.name + "_dist.csv")
    sos_path = prefix.parent / (prefix.name + "_sos.csv")
    report_path = prefix.parent / (prefix.name + "_report.json")

    scenario = cfg["scenario"]
    files = []

    if scenario in ("single_kick", "double_kick", "double_kick_random"):
        chain = _chain_from(cfg["chain"])
        sched_cfg = cfg["schedule"]
        if scenario == "single_kick":
            schedule = SingleKick(b_kick=sched_cfg["b_kick"], period=sched_cfg["period"])
        elif scenario == "double_kick":
            schedule = DoubleKick(
                b_weak=sched_cfg["b_weak"],
                b_strong=sched_cfg["b_strong"],
                period=sched_cfg["period"],
            )
        else:
            schedule = RandomDoubleKick(
                b_weak=sched_cfg["b_weak"], period=sched_cfg["period"], seed=cfg["seed"]
            )
        if "delta_site" in cfg["initial"]:
            s0 = cfg["initial"]["delta_site"]
            state = delta_state(chain.n_sites, s0)
        else:
            s0 = chain.kick_center
            state = magnon_state(chain.n_sites, cfg["initial"]["magnon_m"])
        record = evolve(state, chain, schedule, cfg["n_periods"], cfg["snapshot_every"])
        report_doc = _quantum_report(cfg, record, chain, s0)
        _write_report(report_path, cfg, report_doc)
        _write_dist_csv(dist_path, record.snapshots, range(chain.n_sites))
        files = [dist_path, report_path]

    elif scenario == "qkr":
        rotor = cfg["rotor"]
        record = qkr_evolve(
            rotor["initial_momentum"],
            rotor["k"],
            rotor["hbar"],
            cfg["n_periods"],
            rotor["n_basis"],
            cfg["snapshot_every"],
        )
        labels = rotor["initial_momentum"] + np.arange(rotor["n_basis"]) - rotor["n_basis"] // 2
        variance, participation = distribution_stats(
            record.final_distribution, rotor["n_basis"] // 2
        )
        report_doc = {
            "initial_momentum": rotor["initial_momentum"],
            "variance": variance,
            "participation_ratio": participation,
            "warnings": list(record.warnings),
        }
        _write_report(report_path, cfg, report_doc)
        _write_dist_csv(dist_path, record.snapshots, labels)
        files = [dist_path, report_path]

    elif scenario == "classical_map":
        spec = _map_from(cfg["map"])
        root = np.random.SeedSequence(cfg["seed"])
        init_ss, run_ss = root.spawn(2)
        x0, p0 = _classical_initials(cfg["initial"], np.random.default_rng(init_ss))
        stats = iterate_ensemble(
            x0, p0, spec, cfg["n_steps"], cfg["record_every"], seed=run_ss
        )
        report_doc = {
            "n_trajectories": int(x0.size),
            "steps": [int(s) for s in stats.steps],
            "mean_p": [float(v) for v in stats.mean_p],
            "var_p": [float(v) for v in stats.var_p],
        }
        _write_report(report_path, cfg, report_doc)
        files = [report_path]

    elif scenario == "surface_of_section":
        spec = _map_from(cfg["map"])
        root = np.random.SeedSequence(cfg["seed"])
        init_ss, run_ss = root.spawn(2)
        x0, p0 = _classical_initials(cfg["initial"], np.random.default_rng(init_ss))
        sections = surface_of_section(x0, p0, spec, cfg["n_steps"], seed=run_ss)
        report_doc = {"n_trajectories": int(x0.size), "n_steps": cfg["n_steps"]}
        _write_report(report_path, cfg, report_doc)
        _write_sos_csv(sos_path, sections)
        files = [sos_path, report_path]

    else:  # feasibility
        result = feasibility(
            cfg["b_range_au"], cfg["n_sites"], cfg["j_hz"], cfg["t0_seconds"]
        )
        report_doc = result.to_dict()
        _write_report(report_path, cfg, report_doc)
        files = [report_path]

    return {
        "files": [str(f) for f in files],
        "config": cfg,
        "warnings": list(report_doc.get("warnings", [])),
    }
