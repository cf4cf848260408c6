"""Config validation, runner determinism, file formats, CLI exit codes."""

import copy
import csv
import dataclasses
import importlib
import json
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import kickedchain
import kickedchain._floatcsv as floatcsv_module
import kickedchain.scenario as scenario_module
from kickedchain import (
    DoubleKick,
    DoubleKickMap,
    DoubleWellMap,
    RandomDoubleKick,
    RandomRescaledDoubleKickMap,
    RescaledDoubleKickMap,
    SingleKick,
    StandardMap,
    __version__,
    feasibility,
)
from kickedchain._floatcsv import write_csv
from kickedchain.cli import main
from kickedchain.evolution import qkr_evolve
from kickedchain.scenario import (
    ConfigError,
    _write_report,
    read_config,
    run_scenario,
    validate_config,
)
from test_outputs import RANDOM_MAP

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def small_single_kick(tmp_path, **overrides):
    cfg = {
        "scenario": "single_kick",
        "seed": 7,
        "output": str(tmp_path / "run"),
        "chain": {"n_sites": 64, "j1": 1.0},
        "schedule": {"b_kick": 0.2, "period": 10.0},
        "n_periods": 12,
        "snapshot_every": 4,
        "initial": {"delta_site": 32},
    }
    cfg.update(overrides)
    return cfg


def oracle_dist_csv(path, snapshots, site_labels):
    """The row-by-row csv.writer loop that defines the dist CSV bytes."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["period", "site", "probability"])
        for period, dist in snapshots:
            for site, prob in zip(site_labels, dist):
                writer.writerow([period, site, repr(float(prob))])


def oracle_sos_csv(path, sections):
    """The row-by-row csv.writer loop that defines the section CSV bytes."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trajectory", "step", "x", "p"])
        for traj in range(sections.shape[0]):
            for step in range(sections.shape[1]):
                x, p = sections[traj, step]
                writer.writerow([traj, step + 1, repr(float(x)), repr(float(p))])


def write_dist_csv(path, snapshots, site_labels):
    """The dist CSV as a propagation run writes it."""
    with path.open("wb") as fh:
        write_csv(fh, "period,site,probability", site_labels, [snapshots])


def write_sos_csv(path, sections):
    """The section CSV as a surface-of-section run writes it."""
    with path.open("wb") as fh:
        write_csv(fh, "trajectory,step,x,p", range(1, sections.shape[1] + 1), [enumerate(sections)])


EDGE_FLOATS = [0.0, 5e-324, 1e-300, 0.1, 1e16]

# A valid section for each schedule and map class, holding exactly its fields
# (a schedule's seed is the config's top-level seed).
SECTIONS = {
    "schedule": {
        SingleKick: ("single_kick", {"b_kick": 0.2, "period": 10.0}),
        DoubleKick: ("double_kick", {"b_weak": 0.05, "b_strong": 1.0, "period": 3.0}),
        RandomDoubleKick: ("double_kick_random", {"b_weak": 0.05, "period": 3.0}),
    },
    "map": {
        StandardMap: ("standard", {"k": 1.0}),
        DoubleKickMap: ("double_kick", {"k": 1.0, "eps": 0.1, "tau": 2.0}),
        RescaledDoubleKickMap: ("rescaled_double_kick", {"k_eps": 0.35, "tau_eps": 10.0}),
        RandomRescaledDoubleKickMap: ("rescaled_double_kick_random", {"k_eps": 0.35}),
        DoubleWellMap: ("double_well", {"k1": 0.35, "k2": 0.2}),
    },
}
DATACLASS_FIELDS = [
    pytest.param(section, cls, f.name, id=f"{cls.__name__}-{f.name}")
    for section, classes in SECTIONS.items()
    for cls in classes
    for f in dataclasses.fields(cls)
    if f.name != "seed"
]


def section_config(tmp_path, section, cls):
    """A valid config whose schedule or map section is built from ``cls``."""
    name, fields = SECTIONS[section][cls]
    if section == "schedule":
        return small_single_kick(tmp_path, scenario=name, schedule=dict(fields))
    return {
        "scenario": "surface_of_section",
        "seed": 1,
        "output": str(tmp_path / "s"),
        "map": {"variant": name, **fields},
        "initial": {"points": [[0.0, 0.5]]},
        "n_steps": 10,
    }


class TestValidation:
    def test_defaults_resolved(self, tmp_path):
        cfg = validate_config(small_single_kick(tmp_path))
        assert cfg["chain"]["j2"] == 0.0
        assert cfg["chain"]["kick_center"] == 32
        assert cfg["chain"]["model"] == "ferromagnet"

    def test_missing_seed_names_field(self, tmp_path):
        cfg = small_single_kick(tmp_path)
        del cfg["seed"]
        with pytest.raises(ConfigError, match="seed"):
            validate_config(cfg)

    def test_unknown_top_level_field(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown field 'extra'"):
            validate_config(small_single_kick(tmp_path, extra=1))

    def test_unknown_nested_field_has_path(self, tmp_path):
        cfg = small_single_kick(tmp_path)
        cfg["schedule"]["b_strong"] = 1.0
        with pytest.raises(ConfigError, match="config.schedule"):
            validate_config(cfg)

    def test_initial_requires_exactly_one_key(self, tmp_path):
        cfg = small_single_kick(tmp_path)
        cfg["initial"] = {"delta_site": 3, "magnon_m": 0}
        with pytest.raises(ConfigError, match="config.initial"):
            validate_config(cfg)

    def test_delta_site_bounds(self, tmp_path):
        cfg = small_single_kick(tmp_path)
        cfg["initial"] = {"delta_site": 64}
        with pytest.raises(ConfigError, match="delta_site"):
            validate_config(cfg)

    def test_seed_must_fit_u64(self, tmp_path):
        with pytest.raises(ConfigError, match="seed"):
            validate_config(small_single_kick(tmp_path, seed=2**64))

    def test_map_variant_field_mismatch(self, tmp_path):
        cfg = {
            "scenario": "surface_of_section",
            "seed": 1,
            "output": str(tmp_path / "s"),
            "map": {"variant": "standard", "k": 1.0, "eps": 0.1},
            "initial": {"points": [[0.0, 0.0]]},
            "n_steps": 10,
        }
        with pytest.raises(ConfigError, match="config.map"):
            validate_config(cfg)

    def test_scenario_enum(self, tmp_path):
        with pytest.raises(ConfigError, match="scenario"):
            validate_config({"scenario": "bogus", "seed": 1, "output": "x"})

    def test_bool_is_not_a_number(self, tmp_path):
        cfg = small_single_kick(tmp_path)
        cfg["schedule"]["b_kick"] = True
        with pytest.raises(ConfigError, match="b_kick"):
            validate_config(cfg)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("chain", "j1", float("nan")),
            ("schedule", "period", float("inf")),
            ("schedule", "b_kick", float("-inf")),
            # an integer literal beyond the float range
            pytest.param("chain", "j1", 10**400, id="chain-j1-huge-int"),
        ],
    )
    def test_non_finite_number_names_field(self, tmp_path, section, key, value):
        cfg = small_single_kick(tmp_path)
        cfg[section][key] = value
        with pytest.raises(ConfigError, match=f"^config.{section}: {key} must be finite"):
            validate_config(cfg)

    def test_nan_b_weak_rejected(self, tmp_path):
        cfg = small_single_kick(
            tmp_path,
            scenario="double_kick_random",
            schedule={"b_weak": float("nan"), "period": 3.0},
        )
        with pytest.raises(ConfigError, match="^config.schedule: b_weak must be finite, got nan$"):
            validate_config(cfg)

    def test_nan_section_point_rejected(self, tmp_path):
        cfg = {
            "scenario": "surface_of_section",
            "seed": 1,
            "output": str(tmp_path / "s"),
            "map": {"variant": "standard", "k": 1.0},
            "initial": {"points": [[0.0, 0.0], [float("nan"), 0.5]]},
            "n_steps": 10,
        }
        with pytest.raises(ConfigError, match=r"^config.initial.points\[1\]: x must be finite, got nan$"):
            validate_config(cfg)
        cfg["initial"]["points"][1] = [10**400, 0.5]
        with pytest.raises(ConfigError, match=r"^config.initial.points\[1\]: x must be finite, got inf$"):
            validate_config(cfg)

    @pytest.mark.parametrize("section, cls, key", DATACLASS_FIELDS)
    def test_dataclass_fields_are_required(self, tmp_path, section, cls, key):
        cfg = section_config(tmp_path, section, cls)
        validate_config(cfg)
        del cfg[section][key]
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert str(err.value) == f"config.{section}: missing required field '{key}'"

    # period > 0 is the validator's own rule, read by check_reals; the others are
    # the records' rules; each is refused at its section
    @pytest.mark.parametrize(
        "section, cls, key, value, message",
        [
            (
                "schedule", SingleKick, "period", 0.0,
                "config.schedule: period must be finite and > 0.0, got 0.0",
            ),
            (
                "schedule", DoubleKick, "period", 0,
                "config.schedule: period must be finite and > 0.0, got 0.0",
            ),
            ("map", DoubleKickMap, "eps", 0.0, "config.map: eps must be finite and > 0, got 0.0"),
            ("map", DoubleKickMap, "tau", 0, "config.map: tau must be finite and > 0, got 0.0"),
            (
                "map", RescaledDoubleKickMap, "tau_eps", 0.0,
                "config.map: tau_eps must be finite and > 0, got 0.0",
            ),
            (
                "schedule", DoubleKick, "b_weak", -0.1,
                "config.schedule: b_weak must be finite and >= 0, got -0.1",
            ),
            (
                "schedule", RandomDoubleKick, "b_weak", -0.1,
                "config.schedule: b_weak must be finite and >= 0, got -0.1",
            ),
            (
                "schedule", SingleKick, "b_kick", -1,
                "config.schedule: b_kick must be finite and >= 0, got -1.0",
            ),
        ],
        ids=[
            "schedule-SingleKick-period-0.0-must be > 0.0",
            "schedule-DoubleKick-period-0-must be > 0.0",
            "map-DoubleKickMap-eps-0.0-must be > 0.0",
            "map-DoubleKickMap-tau-0-must be > 0.0",
            "map-RescaledDoubleKickMap-tau_eps-0.0-must be > 0.0",
            "schedule-DoubleKick-b_weak--0.1-must be >= 0.0",
            "schedule-RandomDoubleKick-b_weak--0.1-must be >= 0.0",
            "schedule-SingleKick-b_kick--1-must be >= 0.0",
        ],
    )
    def test_field_bounds(self, tmp_path, section, cls, key, value, message):
        cfg = section_config(tmp_path, section, cls)
        cfg[section][key] = value
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "cls, key",
        [
            (StandardMap, "k"),
            (DoubleKickMap, "k"),
            (RescaledDoubleKickMap, "k_eps"),
            (RandomRescaledDoubleKickMap, "k_eps"),
            (DoubleWellMap, "k1"),
            (DoubleWellMap, "k2"),
        ],
    )
    def test_negative_map_strength_accepted(self, tmp_path, cls, key):
        cfg = section_config(tmp_path, "map", cls)
        cfg["map"][key] = -1.5
        assert validate_config(cfg)["map"][key] == -1.5

    # hbar 2**-70 and k 2**-40 hold the free phase at |m| = 2**53 to about
    # 2**35 rad and the kick phase to 2**30 rad, so that rotor runs; the shape
    # rotor (hbar 1, k 5) reaches a free phase of about 4e31 rad there
    SLOW_ROTOR = {"hbar": 2.0**-70, "k": 2.0**-40}

    @pytest.mark.parametrize(
        "momentum, rotor, refusal",
        [
            (2**53, SLOW_ROTOR, None),
            (-(2**53), SLOW_ROTOR, None),
            (
                2**53 + 1, SLOW_ROTOR,
                "config.rotor: initial_momentum must be <= 9007199254740992, got 9007199254740993",
            ),
            (
                -(2**53) - 1, SLOW_ROTOR,
                "config.rotor: initial_momentum must be >= -9007199254740992, got -9007199254740993",
            ),
            (2**53, {}, "free phase reaches 4.06e+31 rad"),
        ],
        ids=[
            "9007199254740992-True", "-9007199254740992-True",
            "9007199254740993-False", "-9007199254740993-False",
            "9007199254740992-free-phase",
        ],
    )
    def test_initial_momentum_bound(self, tmp_path, momentum, rotor, refusal):
        cfg = shape_config(tmp_path, "qkr")
        cfg["rotor"].update(rotor, initial_momentum=momentum)
        if refusal is None:
            assert validate_config(cfg)["rotor"]["initial_momentum"] == momentum
            run_scenario(cfg)
            return
        with pytest.raises(ValueError, match=re.escape(refusal)) as info:
            validate_config(cfg)
        # the schema bound is a config error (exit 2), the phase bound a resource refusal (exit 1)
        assert isinstance(info.value, ConfigError) == refusal.startswith("config.")

    @pytest.mark.parametrize(
        "p0, p_jitter, ok",
        [
            (0.0, 8e307, True),
            (0.0, 1e308, False),
            (1.7e308, 1e307, False),
            (-1.7e308, 1e307, False),
        ],
    )
    def test_p_jitter_bound(self, tmp_path, p0, p_jitter, ok):
        cfg = shape_config(tmp_path, "classical_map")
        cfg["initial"]["uniform_x"].update(p0=p0, p_jitter=p_jitter)
        if ok:
            assert validate_config(cfg)["initial"]["uniform_x"]["p_jitter"] == p_jitter
        else:
            with pytest.raises(ConfigError, match=re.escape("uniform_x.p_jitter: 2 * p_jitter")):
                validate_config(cfg)

    def test_bundled_configs_validate(self):
        paths = sorted(CONFIG_DIR.glob("*.json"))
        assert len(paths) >= 6
        for path in paths:
            validate_config(json.loads(path.read_text()))


class TestRunScenario:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = small_single_kick(tmp_path)
        first = run_scenario(cfg)
        blobs = {f: Path(f).read_bytes() for f in first["files"]}
        second = run_scenario(cfg)
        assert first["files"] == second["files"]
        for f in second["files"]:
            assert Path(f).read_bytes() == blobs[f]

    def test_dist_csv_format_and_normalization(self, tmp_path):
        result = run_scenario(small_single_kick(tmp_path))
        dist = next(f for f in result["files"] if f.endswith("_dist.csv"))
        with open(dist, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["period", "site", "probability"]
        sums = {}
        for period, site, prob in rows[1:]:
            sums[period] = sums.get(period, 0.0) + float(prob)
        assert set(sums) == {"0", "4", "8", "12"}
        for total in sums.values():
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_report_provenance(self, tmp_path):
        result = run_scenario(small_single_kick(tmp_path))
        report_file = next(f for f in result["files"] if f.endswith("_report.json"))
        doc = json.loads(Path(report_file).read_text())
        assert doc["version"] == __version__
        assert doc["seed"] == 7
        assert doc["config"]["chain"]["kick_center"] == 32
        assert doc["report"]["variance"] >= 0
        # stable key ordering on disk
        assert list(doc) == sorted(doc)
        assert list(doc["config"]) == sorted(doc["config"])

    def test_seed_override_changes_random_run(self, tmp_path):
        cfg = {
            "scenario": "double_kick_random",
            "seed": 5,
            "output": str(tmp_path / "r"),
            "chain": {"n_sites": 64, "j1": 1.0},
            "schedule": {"b_weak": 0.05, "period": 3.0},
            "n_periods": 30,
            "snapshot_every": 30,
            "initial": {"delta_site": 32},
        }
        base = run_scenario(cfg)
        dist = next(f for f in base["files"] if f.endswith("_dist.csv"))
        original = Path(dist).read_bytes()
        result = run_scenario(cfg, seed=6)
        assert Path(dist).read_bytes() != original
        # the report stores the override, and the stored config validates as it stands
        assert result["config"]["seed"] == 6
        assert validate_config(result["config"]) == result["config"]
        run_scenario(cfg, seed=5)
        assert Path(dist).read_bytes() == original

    @pytest.mark.parametrize(
        "overrides, message",
        [
            pytest.param({"seed": 2**64}, "config.seed: must be an unsigned 64-bit integer", id=str(2**64)),
            pytest.param({"seed": -1}, "config.seed: must be an unsigned 64-bit integer", id="-1"),
            # refused as the config's own seed and output are, not stored or passed on
            pytest.param({"seed": True}, "config: seed must be an integer, not bool", id="True"),
            pytest.param({"seed": 1.5}, "config: seed must be an integer, got float", id="1.5"),
            pytest.param({"out_prefix": 5}, "config.output: expected a string", id="out_prefix-5"),
            pytest.param(
                {"out_prefix": "results/"},
                "config.output: its last path component must not be empty, '.' or '..'",
                id="out_prefix-results/",
            ),
        ],
    )
    def test_seed_override_must_fit_u64(self, tmp_path, overrides, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            run_scenario(small_single_kick(tmp_path), **overrides)
        assert list(tmp_path.iterdir()) == []

    def test_magnon_start_on_nnn_ladder(self, tmp_path):
        # a plane wave spreads evenly over the ring; the report centres on the kick
        cfg = small_single_kick(tmp_path, initial={"magnon_m": 5})
        cfg["chain"].update(j2=0.3, model="nnn_ladder")
        result = run_scenario(cfg)
        dist = next(f for f in result["files"] if f.endswith("_dist.csv"))
        with open(dist, newline="") as fh:
            rows = [row for row in csv.reader(fh) if row[0] == "0"]
        assert [int(site) for _, site, _ in rows] == list(range(64))
        assert [float(p) for _, _, p in rows] == pytest.approx([1 / 64] * 64, rel=1e-12)
        report_file = next(f for f in result["files"] if f.endswith("_report.json"))
        assert json.loads(Path(report_file).read_text())["report"]["s0"] == 32

    def test_sos_csv_format(self, tmp_path):
        cfg = {
            "scenario": "surface_of_section",
            "seed": 9,
            "output": str(tmp_path / "sos"),
            "map": {"variant": "standard", "k": 1.2},
            "initial": {"points": [[0.5, 0.1], [1.0, -0.4]]},
            "n_steps": 25,
        }
        result = run_scenario(cfg)
        sos = next(f for f in result["files"] if f.endswith("_sos.csv"))
        with open(sos, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["trajectory", "step", "x", "p"]
        assert len(rows) == 1 + 2 * 25
        for _, _, x, _ in rows[1:]:
            assert 0.0 <= float(x) < 2 * np.pi

    def test_classical_map_report_series(self, tmp_path):
        cfg = {
            "scenario": "classical_map",
            "seed": 13,
            "output": str(tmp_path / "cm"),
            "map": {"variant": "rescaled_double_kick_random", "k_eps": 0.35},
            "initial": {"uniform_x": {"n_trajectories": 50, "p0": 0.0}},
            "n_steps": 40,
            "record_every": 10,
        }
        result = run_scenario(cfg)
        doc = json.loads(Path(result["files"][0]).read_text())
        assert doc["report"]["steps"] == [0, 10, 20, 30, 40]
        assert doc["report"]["var_p"][0] == 0.0
        assert doc["report"]["var_p"][-1] > 0.0

    def test_qkr_labels_are_momenta(self, tmp_path):
        cfg = {
            "scenario": "qkr",
            "seed": 2,
            "output": str(tmp_path / "q"),
            "rotor": {"k": 1.0, "hbar": 0.5, "n_basis": 32, "initial_momentum": 4},
            "n_periods": 5,
            "snapshot_every": 5,
        }
        result = run_scenario(cfg)
        dist = next(f for f in result["files"] if f.endswith("_dist.csv"))
        with open(dist, newline="") as fh:
            rows = list(csv.reader(fh))
        sites = sorted({int(r[1]) for r in rows[1:]})
        assert sites[0] == 4 - 16 and sites[-1] == 4 + 15

    def test_feasibility_report(self, tmp_path):
        cfg = {
            "scenario": "feasibility",
            "seed": 0,
            "output": str(tmp_path / "f"),
            "b_range_au": 1e-6,
            "n_sites": 10000,
            "j_hz": 1e9,
        }
        result = run_scenario(cfg)
        doc = json.loads(Path(result["files"][0]).read_text())
        assert doc["report"]["b_kick_au"] == pytest.approx(2e-14)
        assert doc["report"]["b_range_tesla"] == pytest.approx(0.47)
        # 1 GHz exchange with the default 1 us repetition period gives
        # 2*j*t0 = 2000, comfortably in the many-oscillations regime
        assert doc["report"]["exchange_action"] == pytest.approx(2000.0)
        assert doc["report"]["exchange_action_ok"] is True

    @pytest.mark.parametrize("sites", [True, 1.5, 100.0])
    def test_feasibility_refuses_non_integer_sites(self, sites):
        # True used to be written to the report as "n_sites": true
        with pytest.raises(TypeError, match="n_sites must be an integer"):
            feasibility(1e-6, sites, 1e9)

    def test_feasibility_estimates_in_python_numbers(self):
        # in float32 the Tesla value of 1e36 au overflowed, and in int64 the square of 2**40 sites
        scalars = feasibility(np.float32(1e36), np.int64(2**40), np.float32(1e9))
        assert scalars == feasibility(float(np.float32(1e36)), 2**40, float(np.float32(1e9)))
        assert type(scalars.b_range_au) is float and type(scalars.n_sites) is int

    def test_feasibility_without_field_is_infeasible_not_an_error(self, tmp_path, capsys):
        cfg = {
            "scenario": "feasibility",
            "seed": 0,
            "output": str(tmp_path / "f"),
            "b_range_au": 0.0,
            "n_sites": 10000,
            "j_hz": 1e9,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == 0
        text = (tmp_path / "f_report.json").read_text()
        assert "Infinity" not in text
        report = json.loads(text)["report"]
        assert report["feasible"] is False
        assert report["pulse_min_au"] is None
        assert report["strong_kick_window_au"] == [None, None]
        assert report["pulse_max_au"] > 0

    def test_unencodable_report_leaves_no_csv(self, tmp_path, monkeypatch):
        # a NaN variance makes the report unencodable
        monkeypatch.setattr(scenario_module, "distribution_stats", lambda *args: (float("nan"), 1.0))
        with pytest.raises(ValueError, match="JSON compliant"):
            run_scenario(small_single_kick(tmp_path, output=str(tmp_path / "deep" / "run")))
        assert list(tmp_path.iterdir()) == []


def fail_second_block(monkeypatch):
    """Make the CSV writer raise ``OSError`` at the pass that holds its second block of rows."""
    write_pass = floatcsv_module._write_pass
    blocks = []

    def failing(fh, labels, pieces):
        blocks.extend(piece for piece in pieces if piece[1] == 0)
        if len(blocks) >= 2:
            raise OSError("disk full")
        write_pass(fh, labels, pieces)

    monkeypatch.setattr(floatcsv_module, "_write_pass", failing)


class TestStreamedWrite:
    """A chain or rotor CSV is written on a second thread while the run computes,
    a section CSV on the runner's thread once the map is done; each into a temp
    file that is renamed only once the report is written."""

    @pytest.mark.parametrize(
        "scenario, propagate",
        [("single_kick", "evolve"), ("qkr", "qkr_evolve"), ("surface_of_section", None)],
    )
    def test_writer_error_exits_1_without_output(self, tmp_path, capsys, monkeypatch, scenario, propagate):
        cfg = shape_config(tmp_path, scenario)
        if propagate:
            cfg.update(n_periods=60, snapshot_every=3)
            engine, periods = getattr(scenario_module, propagate), []

            def run(*args, on_snapshot, **kwargs):
                # waits for the writer to fail at the second snapshot, so the
                # third is the first put after the failure
                def hook(t, p):
                    periods.append(t)
                    on_snapshot(t, p)
                    if len(periods) == 2:
                        writer = next(w for w in threading.enumerate() if w.name == "kickedchain-csv")
                        writer.join(timeout=30)
                        assert not writer.is_alive()

                return engine(*args, on_snapshot=hook, **kwargs)

            monkeypatch.setattr(scenario_module, propagate, run)
        fail_second_block(monkeypatch)
        cfg["output"] = str(tmp_path / "deep" / "run")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr() == ("", "io error: disk full\n")
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
        if propagate:
            # the propagation stopped at the snapshot after the failure
            assert periods == [0, 3, 6]

    @pytest.mark.parametrize("failure", ["writer", "report"])
    def test_failed_rerun_keeps_earlier_outputs(self, tmp_path, capsys, monkeypatch, failure):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(small_single_kick(tmp_path)))
        assert main(["run", "--config", str(path)]) == 0
        capsys.readouterr()
        names = ["cfg.json", "run_dist.csv", "run_report.json"]
        assert sorted(p.name for p in tmp_path.iterdir()) == names
        before = {p: p.read_bytes() for p in tmp_path.iterdir()}
        if failure == "writer":
            fail_second_block(monkeypatch)
        else:
            monkeypatch.setattr(
                scenario_module, "distribution_stats", lambda *args: (float("nan"), 1.0)
            )
        assert main(["run", "--config", str(path)]) == 1
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_random_ensemble_starts_no_writer(self, tmp_path, monkeypatch):
        def started(*args, **kwargs):
            raise AssertionError("a writer thread was started")

        monkeypatch.setattr(scenario_module, "_csv_stream", started)
        result = run_scenario(shape_config(tmp_path, "classical_map"))
        assert [Path(f).name for f in result["files"]] == ["run_report.json"]

    def test_section_writes_on_the_runner_thread(self, tmp_path, monkeypatch):
        # its rows exist only once the map is done, so a writer thread would overlap nothing
        def stream(*args, **kwargs):
            raise AssertionError("_csv_stream was called")

        names, start = [], threading.Thread.start

        def recording(thread):
            names.append(thread.name)
            start(thread)

        monkeypatch.setattr(scenario_module, "_csv_stream", stream)
        monkeypatch.setattr(threading.Thread, "start", recording)
        result = run_scenario(shape_config(tmp_path, "surface_of_section"))
        assert [Path(f).name for f in result["files"]] == ["run_sos.csv", "run_report.json"]
        assert "kickedchain-csv" not in names

    @staticmethod
    def many_snapshots(tmp_path, n_periods):
        """A rotor config whose snapshots, one a period, outpace the writer; 4096
        states leave room for 8 queued snapshots."""
        return {
            "scenario": "qkr",
            "seed": 1,
            "output": str(tmp_path / "q"),
            "rotor": {"k": 5.0, "hbar": 0.25, "n_basis": 4096, "initial_momentum": 0},
            "n_periods": n_periods,
            "snapshot_every": 1,
        }

    def test_waiting_for_room_keeps_every_snapshot_in_order(self, tmp_path):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # a thread switch between almost any two bytecodes
        try:
            result = run_scenario(self.many_snapshots(tmp_path, 40))
        finally:
            sys.setswitchinterval(interval)
        dist = next(f for f in result["files"] if f.endswith("_dist.csv"))
        record = qkr_evolve(0, 5.0, 0.25, 40, 4096, 1)
        oracle_dist_csv(tmp_path / "old.csv", record.snapshots, np.arange(4096) - 2048)
        assert Path(dist).read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_writer_error_wakes_a_put_that_waits_for_room(self, tmp_path, capsys, monkeypatch):
        engine, periods = scenario_module.qkr_evolve, []

        def failure_once_full(fh, labels, pieces):
            # the first batch holds 1 to 8 snapshots, and 8 more fill the queue:
            # the propagation has then taken 10 or more and waits to queue the last
            deadline = time.monotonic() + 10
            while len(periods) < 10 and time.monotonic() < deadline:
                time.sleep(0.001)
            time.sleep(0.05)
            raise OSError("disk full")

        def run(*args, on_snapshot, **kwargs):
            def hook(t, p):
                periods.append(t)
                on_snapshot(t, p)

            return engine(*args, on_snapshot=hook, **kwargs)

        monkeypatch.setattr(floatcsv_module, "_write_pass", failure_once_full)
        monkeypatch.setattr(scenario_module, "qkr_evolve", run)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(self.many_snapshots(tmp_path, 200)))
        codes = []
        runner = threading.Thread(
            target=lambda: codes.append(main(["run", "--config", str(path)])), daemon=True
        )
        runner.start()
        runner.join(timeout=30)
        assert not runner.is_alive() and codes == [1]
        assert capsys.readouterr() == ("", "io error: disk full\n")
        assert 10 <= len(periods) <= 17
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_memory_does_not_grow_with_the_snapshots(self, tmp_path):
        # 2001 snapshots of 4096 probabilities take 64 MiB: the record keeps the
        # last, and a propagation that outpaces the writer waits for it rather
        # than queue the rest
        tracemalloc.start()
        try:
            result = run_scenario(self.many_snapshots(tmp_path, 2000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for path in result["files"]:  # the CSV takes 256 MiB
            Path(path).unlink()
        snapshot_bytes = 8 * 4096 * 2001
        assert peak < snapshot_bytes / 4, (peak, snapshot_bytes)


# One small config per scenario, and the exact key set of its report.
CHAIN_KEYS = {
    "s0", "variance", "participation_ratio", "loc_length", "loc_fit_r2",
    "spikes", "spike_speeds", "cell_occupancy", "warnings",
}
REPORT_SHAPES = {
    "single_kick": ({}, CHAIN_KEYS),
    "double_kick": (
        {"schedule": {"b_weak": 0.5, "b_strong": 0.1, "period": 3.0}}, CHAIN_KEYS
    ),
    "double_kick_random": ({"schedule": {"b_weak": 0.05, "period": 3.0}}, CHAIN_KEYS),
    "qkr": (
        {"rotor": {"k": 5.0, "hbar": 1.0, "n_basis": 64, "initial_momentum": -3}},
        {"initial_momentum", "variance", "participation_ratio", "warnings"},
    ),
    "classical_map": (
        {
            "map": {"variant": "standard", "k": 1.0},
            "initial": {"uniform_x": {"n_trajectories": 16, "p0": 0.0, "p_jitter": 0.1}},
            "n_steps": 8,
            "record_every": 4,
        },
        {"n_trajectories", "steps", "mean_p", "var_p"},
    ),
    "surface_of_section": (
        {
            "map": {"variant": "double_well", "k1": 0.35, "k2": 0.2},
            "initial": {"points": [[0.5, 0.1], [2.0, -0.2]]},
            "n_steps": 8,
        },
        {"n_trajectories", "n_steps"},
    ),
    "feasibility": (
        {"b_range_au": 1e-6, "n_sites": 10000, "j_hz": 1e9},
        {
            "b_range_au", "n_sites", "j_hz", "b_kick_au", "b_range_tesla", "pulse_min_au",
            "pulse_max_au", "strong_kick_window_au", "exchange_action",
            "exchange_action_ok", "feasible",
        },
    ),
}


def shape_config(tmp_path, scenario):
    fields = copy.deepcopy(REPORT_SHAPES[scenario][0])
    if scenario in scenario_module._SCHEDULES:
        return small_single_kick(tmp_path, scenario=scenario, **fields)
    top = {"n_periods": 6, "snapshot_every": 3} if scenario == "qkr" else {}
    return {"scenario": scenario, "seed": 3, "output": str(tmp_path / "run"), **top, **fields}


def write_probe(tmp_path, cfg, leaves):
    """Write ``cfg`` to cfg.json with each key path of ``leaves`` set and its output under deep/."""
    for (*keys, last), value in leaves.items():
        target = cfg
        for key in keys:
            target = target[key]
        target[last] = value
    cfg["output"] = str(tmp_path / "deep" / "run")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


class TestReportShape:
    def test_scenarios_are_covered(self):
        assert set(REPORT_SHAPES) == set(scenario_module.SCENARIOS)

    @pytest.mark.parametrize("scenario", sorted(REPORT_SHAPES))
    def test_report_keys(self, tmp_path, scenario):
        run_scenario(shape_config(tmp_path, scenario))
        report = json.loads((tmp_path / "run_report.json").read_text())["report"]
        assert set(report) == REPORT_SHAPES[scenario][1]

    def test_uncomputed_chain_keys_stay_empty(self, tmp_path):
        run_scenario(shape_config(tmp_path, "double_kick_random"))
        report = json.loads((tmp_path / "run_report.json").read_text())["report"]
        assert report["loc_length"] is None and report["loc_fit_r2"] is None
        assert report["spikes"] == [] and report["spike_speeds"] == {}
        assert 0.0 <= report["cell_occupancy"] <= 1.0

    @pytest.mark.parametrize("scenario", ["double_kick", "double_kick_random"])
    def test_no_weak_kick_leaves_occupancy_empty(self, tmp_path, scenario):
        # b_weak 0 draws no trapping cell; the run used to propagate and then
        # exit 1 on cell_occupancy's strength check
        cfg = shape_config(tmp_path, scenario)
        cfg["schedule"]["b_weak"] = 0.0
        run_scenario(cfg)
        report = json.loads((tmp_path / "run_report.json").read_text())["report"]
        assert report["cell_occupancy"] is None

    @pytest.mark.parametrize("b_weak, b_strong", [(0.5, 0.1), (0.05, 0.01)])
    def test_b_strong_message_comes_first(self, tmp_path, b_weak, b_strong):
        # at b_weak 0.05 the trapping cell (pi/0.05 ~ 63 sites) is wider than
        # the 64-site ring, so cell_occupancy's saturation warning is caught
        # during the diagnosis and follows the scenario's own message
        cfg = shape_config(tmp_path, "double_kick")
        cfg["schedule"].update(b_weak=b_weak, b_strong=b_strong)
        result = run_scenario(cfg)
        report = json.loads((tmp_path / "run_report.json").read_text())["report"]
        assert report["warnings"][0].startswith("b_strong <= b_weak")
        saturated = [w for w in report["warnings"] if "occupancy saturates" in w]
        assert report["warnings"][1:] == saturated
        assert len(saturated) == (b_weak < 0.1)
        assert result["warnings"] == report["warnings"]

    @pytest.mark.parametrize(
        "rotor, n_periods, every, edge",
        [
            # the antiresonance hbar = 2*pi leaks at period 1 and refocuses at 2
            (dict(k=12 * np.pi, hbar=2 * np.pi, n_basis=16), 2, 2, "2.454e-02"),
            (dict(k=4.0, hbar=0.2, n_basis=16), 10, 1, "2.965e-01"),
            (dict(k=1.0, hbar=1.0, n_basis=256), 5, 1, None),
        ],
        ids=["antiresonance", "small-basis", "contained"],
    )
    def test_rotor_leak_is_reported(self, tmp_path, rotor, n_periods, every, edge):
        cfg = shape_config(tmp_path, "qkr")
        cfg.update(rotor={**rotor, "initial_momentum": 0}, n_periods=n_periods, snapshot_every=every)
        result = run_scenario(cfg)
        report = json.loads((tmp_path / "run_report.json").read_text())["report"]
        note = f"momentum-basis truncation leakage: edge probability {edge} exceeds 1e-06"
        assert report["warnings"] == ([] if edge is None else [note])
        assert result["warnings"] == report["warnings"]

    def test_skipped_fit_message_comes_first(self, tmp_path, monkeypatch):
        # period 2 puts the localization window at 1 <= |d| <= 3, 6 sites where
        # the fit needs 10; a warning of the spike tracker's speed fit, raised
        # after the fit, follows the skip message
        class NotedTracker(scenario_module.SpikeTracker):
            def tracks(self):
                warnings.warn("spike note")
                return super().tracks()

        monkeypatch.setattr(scenario_module, "SpikeTracker", NotedTracker)
        cfg = shape_config(tmp_path, "single_kick")
        cfg["schedule"]["period"] = 2.0
        result = run_scenario(cfg)
        report = json.loads((tmp_path / "run_report.json").read_text())["report"]
        assert report["warnings"] == [
            "localization fit skipped: insufficient data: 6 usable sites in window, need >= 10",
            "spike note",
        ]
        assert report["loc_length"] is None and report["loc_fit_r2"] is None
        assert result["warnings"] == report["warnings"]


# Each scenario's report-shape config, and a section config of each map
# variant, with a whole number in every real field, so that each can be
# written as an integer literal; each value is a float32 too.
WHOLE_NUMBERS = {
    "single_kick": {
        "chain": {"n_sites": 64, "j1": 1.0, "j2": 0.0},
        "schedule": {"b_kick": 1.0, "period": 20.0},
    },
    "double_kick": {"schedule": {"b_weak": 1.0, "b_strong": 4.0, "period": 3.0}},
    "double_kick_random": {"schedule": {"b_weak": 1.0, "period": 3.0}},
    "qkr": {"rotor": {"k": 5.0, "hbar": 1.0, "n_basis": 64, "initial_momentum": -3}},
    "classical_map": {"initial": {"uniform_x": {"n_trajectories": 16, "p0": 1.0, "p_jitter": 2.0}}},
    "feasibility": {"b_range_au": 1.0, "j_hz": 1e9, "t0_seconds": 1.0},
    **{
        f"surface_of_section-{name}": {
            "map": {"variant": name, **{key: float(i + 1) for i, key in enumerate(fields)}},
            "initial": {"points": [[0.0, 1.0], [3.0, -2.0]]},
        }
        for name, fields in SECTIONS["map"].values()
    },
}


def whole_number_config(tmp_path, case):
    return {**shape_config(tmp_path, case.split("-")[0]), **copy.deepcopy(WHOLE_NUMBERS[case])}


def with_numbers(node, integer, real):
    """``node`` with each int given to ``integer`` and each float to ``real``."""
    if isinstance(node, dict):
        return {key: with_numbers(v, integer, real) for key, v in node.items()}
    if isinstance(node, list):
        return [with_numbers(v, integer, real) for v in node]
    if isinstance(node, float):
        return real(node)
    return integer(node) if isinstance(node, int) else node


def integer_literal(x):
    assert x.is_integer(), x
    return int(x)


def float32_scalar(x):
    assert np.float32(x) == x, x
    return np.float32(x)


class TestNumberLiterals:
    """A real field given as an integer, or a number given as a numpy scalar,
    resolves to the plain float or int and runs as the plain config does."""

    def run_bytes(self, config):
        result = run_scenario(config)
        return {f: Path(f).read_bytes() for f in result["files"]}

    @pytest.mark.parametrize("case", WHOLE_NUMBERS)
    def test_integer_literals_resolve_as_floats(self, tmp_path, case):
        cfg = whole_number_config(tmp_path, case)
        plain, literal = tmp_path / "plain.json", tmp_path / "literal.json"
        plain.write_text(json.dumps(cfg))
        literal.write_text(json.dumps(with_numbers(cfg, int, integer_literal)))
        expected = validate_config(read_config(plain))
        # json writes 1 and 1.0 apart, so the resolved types must match too
        resolved = validate_config(read_config(literal))
        assert json.dumps(resolved, sort_keys=True) == json.dumps(expected, sort_keys=True)
        blobs = self.run_bytes(plain)
        assert self.run_bytes(literal) == blobs

    @pytest.mark.parametrize("case", WHOLE_NUMBERS)
    def test_numpy_scalars_resolve_as_plain_numbers(self, tmp_path, case):
        cfg = whole_number_config(tmp_path, case)
        scalars = with_numbers(cfg, np.int64, float32_scalar)
        # json refuses a numpy integer or float32, and writes 1 and 1.0 apart
        resolved = validate_config(scalars)
        assert json.dumps(resolved, sort_keys=True) == json.dumps(validate_config(cfg), sort_keys=True)
        blobs = self.run_bytes(cfg)
        assert self.run_bytes(scalars) == blobs


class TestWriterBytes:
    """``write_csv`` reproduces the csv.writer oracles byte for byte."""

    def assert_same_bytes(self, tmp_path, write, oracle, *args):
        write(tmp_path / "new.csv", *args)
        oracle(tmp_path / "old.csv", *args)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_dist_edge_floats_range_labels(self, tmp_path):
        dist = np.array(EDGE_FLOATS)
        snapshots = [(0, dist), (7, dist[::-1].copy())]
        self.assert_same_bytes(
            tmp_path, write_dist_csv, oracle_dist_csv, snapshots, range(len(dist))
        )
        # a snapshot longer than the writer formats in one pass
        long = np.random.default_rng(3).dirichlet(np.ones(5000))
        self.assert_same_bytes(tmp_path, write_dist_csv, oracle_dist_csv, [(1, long), (2, long)], range(5000))

    def test_dist_negative_int64_momentum_labels(self, tmp_path):
        cfg = {
            "scenario": "qkr",
            "seed": 2,
            "output": str(tmp_path / "q"),
            "rotor": {"k": 1.0, "hbar": 0.5, "n_basis": 16, "initial_momentum": -3},
            "n_periods": 4,
            "snapshot_every": 2,
        }
        result = run_scenario(cfg)
        dist = next(f for f in result["files"] if f.endswith("_dist.csv"))
        record = qkr_evolve(-3, 1.0, 0.5, 4, 16, 2)
        labels = -3 + np.arange(16) - 8
        assert labels.dtype == np.int64 and labels[0] < 0
        oracle_dist_csv(tmp_path / "old.csv", record.snapshots, labels)
        assert Path(dist).read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_dist_single_snapshot(self, tmp_path):
        result = run_scenario(small_single_kick(tmp_path, n_periods=0))
        dist = next(f for f in result["files"] if f.endswith("_dist.csv"))
        p = np.zeros(64)
        p[32] = 1.0
        oracle_dist_csv(tmp_path / "old.csv", [(0, p)], range(64))
        assert Path(dist).read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_sos_edge_floats_and_negative_p(self, tmp_path):
        x = np.array(EDGE_FLOATS)
        sections = np.stack([np.stack([x, -x[::-1]], axis=-1), np.stack([x[::-1], -x], axis=-1)])
        assert sections.shape == (2, 5, 2)
        self.assert_same_bytes(tmp_path, write_sos_csv, oracle_sos_csv, sections)

    def test_sos_one_trajectory_one_step(self, tmp_path):
        sections = np.array([[[0.1, -2.5]]])
        self.assert_same_bytes(tmp_path, write_sos_csv, oracle_sos_csv, sections)
        assert (tmp_path / "new.csv").read_bytes() == b"trajectory,step,x,p\r\n0,1,0.1,-2.5\r\n"

    # where repr changes form: the sign of zero, the switch to the exponent
    # below 1e-4 and at 1e16, the ".0" suffix, the largest and the least
    # normal double, and a shortest repr of 17 digits
    FORMAT_EDGES = [
        -0.0, 1e-05, 0.0001, 9999999999999998.0, 1e16, 2.0,
        1.7976931348623157e308, 2.2250738585072014e-308, 0.30000000000000004,
    ]

    def test_dist_format_edges_int64_labels(self, tmp_path):
        dist = np.array(self.FORMAT_EDGES)
        labels = np.arange(-4, len(dist) - 4, dtype=np.int64)
        snapshots = [(0, dist), (3, -dist[::-1].copy())]
        self.assert_same_bytes(tmp_path, write_dist_csv, oracle_dist_csv, snapshots, labels)
        assert b"\r\n0,-4,-0.0\r\n0,-3,1e-05\r\n0,-2,0.0001\r\n" in (tmp_path / "new.csv").read_bytes()

    def test_sos_format_edges(self, tmp_path):
        x = np.array(self.FORMAT_EDGES)
        sections = np.stack([np.stack([x, -x[::-1]], axis=-1), np.stack([-x, x[::-1]], axis=-1)])
        self.assert_same_bytes(tmp_path, write_sos_csv, oracle_sos_csv, sections)
        # rows off the kernel's fast path (repr one value at a time, and -0.0) between rows on it
        x = np.array([0.1, 3e16, 2.5, 1.7976931348623157e308, -0.0, 0.75])
        self.assert_same_bytes(tmp_path, write_sos_csv, oracle_sos_csv, np.stack([x, x[::-1]], axis=-1)[None])

    @given(data=st.data())
    @settings(
        max_examples=60,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_writers_match_oracle_on_finite_floats(self, tmp_path, data):
        blocks = data.draw(st.integers(1, 3), label="blocks")
        rows = data.draw(st.integers(1, 50), label="rows")
        floats = st.floats(allow_nan=False, allow_infinity=False)
        sections = data.draw(hnp.arrays(np.float64, (blocks, rows, 2), elements=floats))
        self.assert_same_bytes(tmp_path, write_sos_csv, oracle_sos_csv, sections)
        labels = data.draw(hnp.arrays(np.int64, rows), label="labels")
        periods = data.draw(st.lists(st.integers(0, 2**62), min_size=blocks, max_size=blocks))
        snapshots = list(zip(periods, sections[:, :, 0]))
        self.assert_same_bytes(tmp_path, write_dist_csv, oracle_dist_csv, snapshots, labels)


def record_passes(monkeypatch):
    """Record each kernel pass of the CSV writer as its pieces, ``(index, first row, rows)``."""
    write_pass = floatcsv_module._write_pass
    passes = []

    def recording(fh, labels, pieces):
        passes.append([(index, first, len(values)) for index, first, values in pieces])
        write_pass(fh, labels, pieces)

    monkeypatch.setattr(floatcsv_module, "_write_pass", recording)
    return passes


def pass_rows(passes):
    return [sum(rows for _, _, rows in p) for p in passes]


def full_passes(n_rows, step):
    """The rows of each pass when ``n_rows`` rows are cut in passes of ``step``."""
    return [min(step, n_rows - i) for i in range(0, n_rows, step)]


@pytest.mark.parametrize("block", [1, 5, 7])
class TestWriterPasses:
    """Passes of at most ``_BLOCK`` floats that run on across blocks reproduce
    the csv.writer oracles byte for byte."""

    def test_one_d_blocks(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(floatcsv_module, "_BLOCK", block)
        passes = record_passes(monkeypatch)
        x = np.array(EDGE_FLOATS)
        snapshots = [(0, x), (7, x[::-1].copy()), (8, -x)]
        TestWriterBytes().assert_same_bytes(tmp_path, write_dist_csv, oracle_dist_csv, snapshots, range(5))
        assert pass_rows(passes) == full_passes(15, block)

    def test_two_d_blocks(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(floatcsv_module, "_BLOCK", block)
        passes = record_passes(monkeypatch)
        x = np.array(TestWriterBytes.FORMAT_EDGES)
        sections = np.stack([np.stack([x, -x[::-1]], axis=-1), np.stack([-x, x[::-1]], axis=-1)])
        TestWriterBytes().assert_same_bytes(tmp_path, write_sos_csv, oracle_sos_csv, sections)
        # two floats a row: a pass holds _BLOCK // 2 rows, but never less than one
        assert pass_rows(passes) == full_passes(18, max(1, block // 2))

    @pytest.mark.parametrize("split", [False, True])
    def test_heads_of_several_widths(self, tmp_path, monkeypatch, block, split):
        monkeypatch.setattr(floatcsv_module, "_BLOCK", block)
        passes = record_passes(monkeypatch)
        labels = np.array([-12, -1])
        snapshots = [(i, np.array([0.1 * i, -2.5])) for i in (9, 10, 99, 100, 10**6)]
        batches = [snapshots[:3], snapshots[3:]] if split else [snapshots]
        oracle_dist_csv(tmp_path / "old.csv", snapshots, labels)
        with (tmp_path / "new.csv").open("wb") as fh:
            write_csv(fh, "period,site,probability", labels, batches)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        # a pass ends with its batch, and runs on across blocks within it
        expected = full_passes(6, block) + full_passes(4, block) if split else full_passes(10, block)
        assert pass_rows(passes) == expected
        if block > 1:
            # one pass holds a one-word head, "\r\n100,", and a two-word head, "\r\n1000000,"
            assert any({100, 10**6} <= {index for index, _, _ in p} for p in passes)
        if not split:
            # a block split over two passes: its second piece starts at row 1
            assert any(first == 1 for p in passes for _, first, _ in p)


# one real and one integer field of each section: (scenario, key path,
# section, name, the bound check_reals adds to "finite", or None for an integer)
NUMBER_FIELDS = [
    ("single_kick", ("chain", "j1"), "config.chain", "j1", ""),
    ("single_kick", ("chain", "n_sites"), "config.chain", "n_sites", None),
    ("single_kick", ("schedule", "b_kick"), "config.schedule", "b_kick", ""),
    ("single_kick", ("n_periods",), "config", "n_periods", None),
    ("single_kick", ("initial", "delta_site"), "config.initial", "delta_site", None),
    ("qkr", ("rotor", "k"), "config.rotor", "k", ""),
    ("qkr", ("rotor", "n_basis"), "config.rotor", "n_basis", None),
    ("classical_map", ("map", "k"), "config.map", "k", ""),
    ("classical_map", ("record_every",), "config", "record_every", None),
    ("classical_map", ("initial", "uniform_x", "p0"), "config.initial.uniform_x", "p0", ""),
    (
        "classical_map", ("initial", "uniform_x", "n_trajectories"),
        "config.initial.uniform_x", "n_trajectories", None,
    ),
    ("surface_of_section", ("initial", "points", 0, 0), "config.initial.points[0]", "x", ""),
    ("feasibility", ("b_range_au",), "config", "b_range_au", " and >= 0"),
    ("feasibility", ("n_sites",), "config", "n_sites", None),
]
# (id, value, the refusal of a real field, of an integer field); 1.5 is a real number
NUMBER_VALUES = [
    ("str", "1", "must be a real number, got str", "must be an integer, got str"),
    ("true", True, "must be a real number, got bool", "must be an integer, not bool"),
    ("null", None, "must be a real number, got NoneType", "must be an integer, got NoneType"),
    ("list", [], "must be a real number, got list", "must be an integer, got list"),
    ("nan", float("nan"), "must be finite{bound}, got nan", "must be an integer, got float"),
    ("1.5", 1.5, None, "must be an integer, got float"),
]
NUMBER_REFUSALS = {
    f"{scenario}-{'.'.join(map(str, keys))}-{value_id}": (
        scenario, keys, value,
        f"{section}: {name} " + (integer if bound is None else real.format(bound=bound)),
    )
    for scenario, keys, section, name, bound in NUMBER_FIELDS
    for value_id, value, real, integer in NUMBER_VALUES
    if bound is None or real is not None
}


class TestCli:
    def test_validate_ok(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(small_single_kick(tmp_path)))
        assert main(["validate", "--config", str(path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_missing_seed_exits_2(self, tmp_path, capsys):
        cfg = small_single_kick(tmp_path)
        del cfg["seed"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["validate", "--config", str(path)]) == 2
        assert "seed" in capsys.readouterr().err

    def test_run_writes_files(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(small_single_kick(tmp_path)))
        assert main(["run", "--config", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 2 and all(Path(line).exists() for line in out)

    def test_small_ring_spike_scan_warns_nothing(self, tmp_path, capsys):
        # every site of an 8-site ring lies in a spike's own mass window, so none
        # is background; the scan used to take the median of an empty slice
        cfg = small_single_kick(
            tmp_path,
            chain={"n_sites": 8, "j1": 1.0, "kick_center": 0},
            schedule={"b_kick": 0.1, "period": 1.0},
            n_periods=3,
            snapshot_every=1,
            initial={"delta_site": 4},
        )
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == 0
        assert capsys.readouterr().err == ""
        report = json.loads((tmp_path / "run_report.json").read_text())["report"]
        assert report["warnings"] == [] and report["spikes"] == []

    def test_run_resource_cap_exits_1(self, tmp_path, capsys):
        cfg = small_single_kick(tmp_path)
        cfg["chain"]["n_sites"] = 2**20 + 2
        cfg["initial"] = {"delta_site": 0}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == 1
        assert "cap" in capsys.readouterr().err

    def test_refused_run_leaves_no_directory(self, tmp_path, capsys):
        cfg = small_single_kick(tmp_path, output=str(tmp_path / "deep" / "run"))
        cfg["chain"]["n_sites"] = 10**15
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == 1
        assert "exceeds transform cap" in capsys.readouterr().err
        assert not (tmp_path / "deep").exists()

    @pytest.mark.parametrize(
        "scenario, section, key, value, message",
        [
            ("qkr", "rotor", "initial_momentum", 2**63, "config.rotor: initial_momentum must be <="),
            (
                "classical_map", ("initial", "uniform_x"), "p_jitter", 1e308,
                "config.initial.uniform_x.p_jitter: 2 * p_jitter",
            ),
            ("feasibility", (), "n_sites", 10**400, f"config: n_sites must be > 0 and <= {2**53}"),
            ("surface_of_section", (), "map", [1], "config.map: expected an object"),
            *(
                (
                    "surface_of_section", "initial", "points", points,
                    "config.initial.points: expected a non-empty list of [x, p] pairs",
                )
                for points in ([], 3)
            ),
            (
                "surface_of_section", (), "initial", {},
                "config.initial: expected exactly one of 'points' or 'uniform_x'",
            ),
        ],
        ids=["initial_momentum", "p_jitter", "n_sites", "map-list", "points-empty", "points-3", "initial-empty"],
    )
    def test_out_of_range_exits_2_without_output(
        self, tmp_path, capsys, scenario, section, key, value, message
    ):
        cfg = shape_config(tmp_path, scenario)
        target = cfg
        for name in (section,) if isinstance(section, str) else section:
            target = target[name]
        target[key] = value
        cfg["output"] = str(tmp_path / "deep" / "run")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("output", ["results/", "", "d/.", "..", "d/..", "x/a\0b"])
    def test_output_without_file_name_exits_2(self, tmp_path, capsys, monkeypatch, output):
        # pathlib drops a trailing '/' or '.': "results/" wrote ./results_report.json,
        # "" ./_report.json and "d/." ./d_report.json, all outside the directory named;
        # a NUL byte passed validate, and run made x/ before its write failed
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        cfg = shape_config(tmp_path, "feasibility")
        Path("good.json").write_text(json.dumps(cfg))
        Path("bad.json").write_text(json.dumps({**cfg, "output": output}))
        if "\0" in output:
            message = "config error: config.output: must not contain a NUL byte\n"
        else:
            message = "config error: config.output: its last path component must not be empty, '.' or '..'\n"
        for argv in (
            ["validate", "--config", "bad.json"],
            ["run", "--config", "bad.json"],
            ["run", "--config", "good.json", "--out", output],
        ):
            assert main(argv) == 2
            assert capsys.readouterr() == ("", message)
        assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")) == ["bad.json", "d", "good.json"]

    def test_failed_report_write_leaves_no_new_directory(self, tmp_path, capsys, monkeypatch):
        # a file name one byte over the file system's limit validates, but its
        # write fails; the run exits 1 and removes the directories it made
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        name = "a" * (os.pathconf(tmp_path, "PC_NAME_MAX") + 1)
        cfg = {**shape_config(tmp_path, "feasibility"), "output": f"d/x/y/{name}"}
        Path("cfg.json").write_text(json.dumps(cfg))
        assert main(["validate", "--config", "cfg.json"]) == 0
        capsys.readouterr()
        assert main(["run", "--config", "cfg.json"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("io error: ")
        assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")) == ["cfg.json", "d"]

    @pytest.mark.parametrize(
        "scenario, leaves",
        [
            ("single_kick", {("schedule", "b_kick"): 1e308}),
            ("single_kick", {("chain", "j1"): 1e300, ("schedule", "period"): 1e300}),
            ("qkr", {("rotor", "hbar"): 1e300}),
        ],
        ids=["b_kick-1e308", "j1-period-1e300", "hbar-1e300"],
    )
    def test_huge_phase_exits_1_without_output(self, tmp_path, capsys, scenario, leaves):
        # b_kick 1e308 overflows the kick phases to NaN, j1 * period overflows
        # the exchange phase, and hbar 1e300 leaves the rotor's free phases as
        # rounding noise; each run is refused before its first period
        cfg = shape_config(tmp_path, scenario)
        for (section, key), value in leaves.items():
            cfg[section][key] = value
        cfg["output"] = str(tmp_path / "deep" / "run")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(r"error: \w+ phase reaches \S+ rad; it must be finite and <= 2\*\*40\n", err)
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize(
        "scenario, count, every",
        [
            ("single_kick", "n_periods", "snapshot_every"),
            ("qkr", "n_periods", "snapshot_every"),
            ("classical_map", "n_steps", "record_every"),
        ],
    )
    def test_endless_run_exits_1_without_output(self, tmp_path, capsys, scenario, count, every):
        # 2**63 periods or steps, recorded every 2**63, fit the result cap in
        # two records; the work cap refuses them before the first step, and
        # validate refuses them too
        cfg = shape_config(tmp_path, scenario)
        cfg.update({count: 2**63, every: 2**63, "output": str(tmp_path / "deep" / "run")})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        for command in ("validate", "run"):
            assert main([command, "--config", str(path)]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert re.fullmatch(r"error: .* element-steps, over the work cap of 1099511627776\n", err)
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    # a scenario, the leaves set on its report-shape config, and the refusal: a
    # rule of a library record or check, named at its section, exit 2; with
    # n_sites 10**15 the ring breaks the transform cap too, and the rule wins
    LIBRARY_RULES = {
        "n_sites-1": ("single_kick", {("chain", "n_sites"): 1}, "config.chain: n_sites must be >= 2, got 1"),
        "kick_center-64": (
            "single_kick", {("chain", "kick_center"): 64},
            "config.chain: kick_center must lie in [0, 64), got 64",
        ),
        "nnn-j1": (
            "single_kick", {("chain", "j1"): -1.0, ("chain", "j2"): 0.3, ("chain", "model"): "nnn_ladder"},
            "config.chain: nnn_ladder requires j1 > 0",
        ),
        "b_strong--1": (
            "double_kick", {("schedule", "b_strong"): -1},
            "config.schedule: b_strong must be finite and >= 0, got -1.0",
        ),
        "n_periods--1": ("single_kick", {("n_periods",): -1}, "config: n_periods must be >= 0"),
        "n_periods--1-huge-ring": (
            "single_kick", {("n_periods",): -1, ("chain", "n_sites"): 10**15},
            "config: n_periods must be >= 0",
        ),
        "snapshot_every-0": ("qkr", {("snapshot_every",): 0}, "config: snapshot_every must be >= 1"),
        # check_rotor spans the rotor section and the top level
        "hbar-0": ("qkr", {("rotor", "hbar"): 0}, "config: hbar must be finite and > 0, got 0.0"),
        "n_basis-1": ("qkr", {("rotor", "n_basis"): 1}, "config: n_basis must be >= 2"),
        "n_steps-0": ("surface_of_section", {("n_steps",): 0}, "config: n_steps must be >= 1"),
        "record_every-0-huge-ensemble": (
            "classical_map",
            {("record_every",): 0, ("initial", "uniform_x", "n_trajectories"): 10**15},
            "config: record_every must be >= 1",
        ),
        "b_range_au--1": (
            "feasibility", {("b_range_au",): -1}, "config: b_range_au must be finite and >= 0, got -1.0"
        ),
        "n_sites-0": ("feasibility", {("n_sites",): 0}, f"config: n_sites must be > 0 and <= {2**53}"),
        "j_hz-0": ("feasibility", {("j_hz",): 0}, "config: j_hz must be finite and > 0, got 0.0"),
        "t0_seconds-0": (
            "feasibility", {("t0_seconds",): 0}, "config: t0_seconds must be finite and > 0, got 0.0"
        ),
    }

    @pytest.mark.parametrize("rule", LIBRARY_RULES)
    def test_library_rule_exits_2_at_its_section(self, tmp_path, capsys, rule):
        scenario, leaves, message = self.LIBRARY_RULES[rule]
        cfg = shape_config(tmp_path, scenario)
        path = write_probe(tmp_path, cfg, leaves)
        for command in ("validate", "run"):
            assert main([command, "--config", str(path)]) == 2
            assert capsys.readouterr() == ("", f"config error: {message}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("probe", NUMBER_REFUSALS)
    def test_number_refusal_has_one_wording(self, tmp_path, capsys, probe):
        scenario, keys, value, message = NUMBER_REFUSALS[probe]
        path = write_probe(tmp_path, shape_config(tmp_path, scenario), {keys: value})
        for command in ("validate", "run"):
            assert main([command, "--config", str(path)]) == 2
            assert capsys.readouterr() == ("", f"config error: {message}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_feasibility_overflowing_exchange_exits_1_without_output(self, tmp_path, capsys):
        cfg = shape_config(tmp_path, "feasibility")
        cfg.update(j_hz=1e300, t0_seconds=1e300, output=str(tmp_path / "deep" / "run"))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == 1
        assert "error: exchange_action is not finite" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize(
        "sites, code", [(2**53, 0), (2**53 + 1, 2), (10**400, 2)], ids=["2**53", "2**53+1", "10**400"]
    )
    def test_feasibility_sites_bound(self, capsys, sites, code):
        argv = ["feasibility", "--b-range", "1e-6", "--sites", str(sites), "--j-hz", "1e9"]
        assert main(argv) == code
        out, err = capsys.readouterr()
        if code:
            assert (out, err) == ("", f"config error: config: n_sites must be > 0 and <= {2**53}\n")
        else:
            assert json.loads(out)["n_sites"] == sites

    # the subcommand's flags and the fields of a feasibility config: a broken
    # rule exits 2 and an overflowing estimate 1, with the one line validate prints
    FEASIBILITY_FLAGS = {
        "sites-0": ({"--sites": "0"}, {"n_sites": 0}, 2),
        "b_range-nan": ({"--b-range": "nan"}, {"b_range_au": float("nan")}, 2),
        "b_range-negative": ({"--b-range": "-1"}, {"b_range_au": -1.0}, 2),
        "exchange-1e300": (
            {"--j-hz": "1e300", "--t0-s": "1e300"}, {"j_hz": 1e300, "t0_seconds": 1e300}, 1
        ),
    }

    @pytest.mark.parametrize("probe", FEASIBILITY_FLAGS)
    def test_feasibility_flags_exit_as_validate(self, tmp_path, capsys, probe):
        flags, fields, code = self.FEASIBILITY_FLAGS[probe]
        argv = {"--b-range": "1e-6", "--sites": "100", "--j-hz": "1e9", **flags}
        assert main(["feasibility", *(word for pair in argv.items() for word in pair)]) == code
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("config error: " if code == 2 else "error: ")
        cfg = {**shape_config(tmp_path, "feasibility"), "n_sites": 100, **fields}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main(["validate", "--config", str(tmp_path / "cfg.json")]) == code
        assert capsys.readouterr() == ("", err)

    @pytest.mark.parametrize("initial", [{"delta_site": 0}, {"magnon_m": 0}])
    def test_huge_ring_refused_before_state_is_built(self, tmp_path, capsys, initial):
        # an initial state of 10**15 sites would need 16 PB; validate refuses it too
        cfg = small_single_kick(tmp_path, initial=initial)
        cfg["chain"]["n_sites"] = 10**15
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        for command in ("validate", "run"):
            assert main([command, "--config", str(path)]) == 1
            err = capsys.readouterr().err
            assert "error: basis size 1000000000000000 exceeds transform cap" in err
        assert not list(tmp_path.glob("run_*"))

    @pytest.mark.parametrize(
        "scenario, extra", [("classical_map", {"record_every": 1}), ("surface_of_section", {})]
    )
    def test_huge_ensemble_refused_before_drawing(self, tmp_path, capsys, scenario, extra):
        # the initial angles of 10**15 trajectories would need 8 PB; validate
        # refuses them too
        cfg = {
            "scenario": scenario,
            "seed": 1,
            "output": str(tmp_path / "big"),
            "map": {"variant": "standard", "k": 1.0},
            "initial": {"uniform_x": {"n_trajectories": 10**15, "p0": 0.0}},
            "n_steps": 10,
            **extra,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        for command in ("validate", "run"):
            assert main([command, "--config", str(path)]) == 1
            err = capsys.readouterr().err
            assert "error: ensemble size 1000000000000000 exceeds cap 1000000" in err
        assert not list(tmp_path.glob("big_*"))

    # a base config (bundled, or a report-shape scenario) and the leaves set on it
    PROBES = {
        "n_sites-10**15": ("localization", {("chain", "n_sites"): 10**15}),
        "b_kick-1e300": ("localization", {("schedule", "b_kick"): 1e300}),
        "periods-2**62": ("qkr_localization", {("n_periods",): 2**62, ("snapshot_every",): 2**62}),
        "n_steps-2**40": ("cell_sections", {("n_steps",): 2**40}),
        "n_trajectories-10**15": (
            "classical_map", {("initial", "uniform_x", "n_trajectories"): 10**15}
        ),
        # the Tesla value of the field overflows
        "b_range_au-1e308": ("feasibility", {("b_range_au",): 1e308}),
    }

    @pytest.mark.parametrize("probe", PROBES)
    def test_validate_refuses_what_run_refuses(self, tmp_path, capsys, probe):
        # each config passes the schema and breaks a size, phase, work, result
        # or ensemble bound; both front ends refuse it with one line, exit 1
        base, leaves = self.PROBES[probe]
        bundled = CONFIG_DIR / f"{base}.json"
        cfg = json.loads(bundled.read_text()) if bundled.exists() else shape_config(tmp_path, base)
        path = write_probe(tmp_path, cfg, leaves)
        streams = []
        for command in ("validate", "run"):
            assert main([command, "--config", str(path)]) == 1
            streams.append(capsys.readouterr())
        (v_out, v_err), (r_out, r_err) = streams
        assert v_out == r_out == ""
        assert v_err == r_err
        assert re.fullmatch(r"error: [^\n]+\n", v_err)
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_feasibility_prints_json(self, capsys):
        code = main(
            ["feasibility", "--b-range", "1e-6", "--sites", "10000", "--j-hz", "1e9"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["b_kick_au"] == pytest.approx(2e-14)

    def test_feasibility_without_field_prints_strict_json(self, capsys):
        code = main(["feasibility", "--b-range", "0", "--sites", "100", "--j-hz", "1e9"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Infinity" not in out
        doc = json.loads(out)
        assert doc["feasible"] is False
        assert doc["pulse_min_au"] is None

    @pytest.mark.parametrize("b_range, message", [("1e308", "b_range_tesla is not finite")])
    def test_feasibility_non_finite_exits_1(self, capsys, b_range, message):
        # 1e308 au is finite, but overflows to inf when converted to Tesla;
        # feasibility refuses it before the report is built
        code = main(["feasibility", "--b-range", b_range, "--sites", "1", "--j-hz", "1e9"])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert message in err

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["validate", "--config", str(path)]) == 2

    # (text in localization.json, its replacement, what the one stderr line names)
    READER_PROBES = {
        "5001-digit-j1": ('"j1": 1.0', '"j1": ' + "1" * 5001, "Exceeds the limit (4300 digits)"),
        "duplicate-seed": ('"seed": ', '"seed": 3, "seed": ', "duplicate key 'seed'"),
        "nested-100000": ('"scenario": "single_kick"', '"scenario": ' + "[" * 100_000, "maximum recursion depth"),
    }

    @pytest.mark.parametrize("probe", READER_PROBES)
    def test_unreadable_config_exits_2_without_output(self, tmp_path, capsys, probe):
        old, new, message = self.READER_PROBES[probe]
        cfg = json.loads((CONFIG_DIR / "localization.json").read_text())
        cfg["output"] = str(tmp_path / "out" / "loc")
        text = json.dumps(cfg)
        assert old in text
        path = tmp_path / "cfg.json"
        path.write_text(text.replace(old, new, 1))
        for command in ("validate", "run"):
            assert main([command, "--config", str(path)]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert re.fullmatch(r"config error: [^\n]+\n", err)
            assert message in err
        with pytest.raises(ConfigError, match=re.escape(message)):
            run_scenario(path)
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_duplicate_key_refused_at_any_depth(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"chain": {"n_sites": 8, "j1": 1.0, "n_sites": 16}}')
        with pytest.raises(ConfigError, match="^duplicate key 'n_sites'$"):
            read_config(path)

    def test_missing_file_exits_1(self, tmp_path, capsys):
        assert main(["validate", "--config", str(tmp_path / "nope.json")]) == 1

    def test_nan_j1_run_exits_2_without_output(self, tmp_path, capsys):
        cfg = json.loads((CONFIG_DIR / "trapping_center.json").read_text())
        cfg["chain"]["j1"] = float("nan")
        cfg["output"] = str(tmp_path / "trap")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))  # json writes the bare NaN token
        assert "NaN" in path.read_text()
        assert main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "config error: config.chain: j1 must be finite, got nan\n"
        assert not list(tmp_path.glob("trap_*"))

    def test_report_refuses_nan(self, tmp_path):
        cfg = validate_config(small_single_kick(tmp_path))
        with pytest.raises(ValueError, match="JSON compliant"):
            _write_report(tmp_path / "r.json", cfg, {"variance": float("nan")})
        assert not (tmp_path / "r.json").exists()

    def test_overflowing_map_exits_1_without_warnings(self, tmp_path):
        cfg = {
            "scenario": "classical_map",
            "seed": 1,
            "output": str(tmp_path / "ovf"),
            "map": {"variant": "standard", "k": 1e308},
            "initial": {"uniform_x": {"n_trajectories": 5, "p0": 1e308}},
            "n_steps": 10,
            "record_every": 5,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        env = {**os.environ, "PYTHONPATH": str(Path(kickedchain.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-m", "kickedchain.cli", "run", "--config", str(path)],
            env=env, capture_output=True, text=True,
        )
        assert out.returncode == 1
        assert "5 of 5 trajectories became non-finite" in out.stderr
        assert "RuntimeWarning" not in out.stderr
        assert not list(tmp_path.glob("ovf_*"))

    def test_oversized_section_exits_1_without_output(self, tmp_path, capsys):
        # one trajectory of 10**13 steps is 160 TB of points, refused before allocation
        cfg = {
            "scenario": "surface_of_section",
            "seed": 1,
            "output": str(tmp_path / "big"),
            "map": {"variant": "standard", "k": 1.0},
            "initial": {"points": [[0.0, 0.5]]},
            "n_steps": 10**13,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == 1
        assert "error: a section of 1 x 10000000000000 points" in capsys.readouterr().err
        assert not list(tmp_path.glob("big_*"))

    def test_cli_import_skips_scipy_optimize(self, tmp_path):
        # importing the CLI, validating, a classical run, the fixed points and
        # a chain or rotor propagation load no scipy module at all; no step
        # loads numpy.random, not even a run that draws (the frozen field of
        # double_kick_random, uniform_x initials with a p jitter, the random
        # map's angles), as every draw runs on kickedchain._streams
        section = tmp_path / "sos.json"
        section.write_text(json.dumps({
            "scenario": "surface_of_section",
            "seed": 1,
            "output": str(tmp_path / "sos"),
            "map": {"variant": "double_well", "k1": 0.35, "k2": 0.35},
            "initial": {"points": [[0.5, 0.1], [2.0, -0.2]]},
            "n_steps": 20,
        }))
        chain = tmp_path / "chain.json"
        chain.write_text(json.dumps(small_single_kick(tmp_path)))
        rotor = tmp_path / "qkr.json"
        rotor.write_text(json.dumps(shape_config(tmp_path, "qkr")))
        valid = CONFIG_DIR / "trapping_center.json"
        jittered = tmp_path / "jittered.json"
        jittered.write_text(json.dumps({
            "scenario": "classical_map",
            "seed": 4,
            "output": str(tmp_path / "jittered"),
            "map": {"variant": "rescaled_double_kick_random", "k_eps": 0.35},
            "initial": {"uniform_x": {"n_trajectories": 600, "p0": 0.5, "p_jitter": 1.5}},
            "n_steps": 20,
            "record_every": 5,
        }))
        random_map = tmp_path / "random_map.json"
        random_map.write_text(json.dumps({**RANDOM_MAP, "output": str(tmp_path / "random_map")}))
        trapping = f"['run', '--config', {str(valid)!r}, '--out', {str(tmp_path / 'trap')!r}]"
        steps = [
            "import kickedchain.cli",
            f"from kickedchain.cli import main; assert main(['validate', '--config', {str(valid)!r}]) == 0",
            f"from kickedchain.cli import main; assert main(['run', '--config', {str(section)!r}]) == 0",
            "from kickedchain import DoubleWellMap, fixed_point_stability\n"
            "fixed_point_stability(DoubleWellMap(0.35, 0.35))",
            f"from kickedchain.cli import main; assert main(['run', '--config', {str(chain)!r}]) == 0",
            f"from kickedchain.cli import main; assert main(['run', '--config', {str(rotor)!r}]) == 0",
            f"from kickedchain.cli import main; assert main({trapping}) == 0",
            f"from kickedchain.cli import main; assert main(['run', '--config', {str(jittered)!r}]) == 0",
            f"from kickedchain.cli import main; assert main(['run', '--config', {str(random_map)!r}]) == 0",
        ]
        env = {**os.environ, "PYTHONPATH": str(Path(kickedchain.__file__).parents[1])}
        for step in steps:
            code = (
                f"import sys\n{step}\n"
                "print('scipy.optimize' in sys.modules, [m for m in sys.modules if m.startswith('scipy')])\n"
                "print('numpy.random' in sys.modules)"
            )
            out = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
            )
            scipy_line, random_line = out.stdout.splitlines()[-2:]
            assert scipy_line == "False []", step
            assert random_line == "False", step

    def test_front_ends_load_no_numpy(self, tmp_path):
        # importing the package or the CLI, --help, validating, the feasibility
        # estimate and a feasibility run need only the standard library; a
        # propagation run loads numpy
        run = tmp_path / "run.json"
        run.write_text(json.dumps(small_single_kick(tmp_path)))
        estimate = tmp_path / "feasibility"
        main_ = "from kickedchain.cli import main\n"
        steps = [
            "import kickedchain",
            "import kickedchain.cli",
            main_ + "try:\n    main(['--help'])\nexcept SystemExit as exc:\n    assert exc.code == 0",
            *(
                main_ + f"assert main(['validate', '--config', {str(path)!r}]) == 0"
                for path in sorted(CONFIG_DIR.glob("*.json"))
            ),
            main_ + "assert main(['feasibility', '--b-range', '1e-6', '--sites', '100',"
            " '--j-hz', '1e9']) == 0",
            main_ + "assert main(['run', '--config', "
            f"{str(CONFIG_DIR / 'feasibility.json')!r}, '--out', {str(estimate)!r}]) == 0",
            main_ + f"assert main(['run', '--config', {str(run)!r}]) == 0",
        ]
        # one interpreter runs the steps in order and records after each
        # whether numpy is loaded; a module once loaded stays loaded
        code = "import sys\nloaded = []\n" + "".join(
            f"exec({step!r})\nloaded.append('numpy' in sys.modules)\n" for step in steps
        ) + "print(loaded)"
        env = {**os.environ, "PYTHONPATH": str(Path(kickedchain.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert len(steps) == 15
        assert out.stdout.splitlines()[-1] == str([False] * 14 + [True])

    @staticmethod
    def run_spike_tracking(tmp_path, prelude):
        """Run a small single kick that tracks spikes and fits the localization
        length in a fresh process after ``prelude``; return its last output line."""
        config = tmp_path / "spikes.json"
        config.write_text(json.dumps(small_single_kick(
            tmp_path,
            chain={"n_sites": 512, "j1": 0.2},
            schedule={"b_kick": 1 / 15, "period": 100.0},
            n_periods=6,
            snapshot_every=1,
            initial={"delta_site": 256},
        )))
        code = (
            f"import sys\n{prelude}\nfrom kickedchain.cli import main\n"
            f"assert main(['run', '--config', {str(config)!r}]) == 0\n"
            "print('numpy.ma' in sys.modules)"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(kickedchain.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        report = json.loads((tmp_path / "run_report.json").read_text())["report"]
        assert report["loc_length"] is not None and report["spikes"]
        assert None not in report["spike_speeds"].values() and len(report["spike_speeds"]) == 2
        return out.stdout.splitlines()[-1]

    def test_spike_tracking_loads_no_numpy_ma(self, tmp_path):
        # the spike tracker takes its medians without np.median, so the run
        # does not load numpy.ma, which np.median imports
        assert self.run_spike_tracking(tmp_path, "") == "False"

    def test_spike_tracking_makes_no_lapack_fit(self, tmp_path):
        # the speed and localization fits are closed-form sums, so the run
        # succeeds with numpy.linalg.lstsq, the LAPACK solver behind np.polyfit,
        # replaced wherever it is bound by a function that raises
        prelude = (
            "import numpy\n"
            "original = numpy.linalg.lstsq\n"
            "def refuse(*args, **kwargs):\n"
            "    raise RuntimeError('numpy.linalg.lstsq called')\n"
            "for module in list(sys.modules.values()):\n"
            "    if getattr(module, 'lstsq', None) is original:\n"
            "        module.lstsq = refuse\n"
            "assert numpy.linalg.lstsq is refuse"
        )
        self.run_spike_tracking(tmp_path, prelude)


class TestPackageExports:
    HOMES = ("chain", "diagnostics", "evolution", "feasibility", "maps")

    def test_names_are_their_home_objects(self):
        modules = [importlib.import_module(f"kickedchain.{name}") for name in self.HOMES]
        for name in kickedchain.__all__:
            if name == "__version__":
                continue
            homes = [m for m in modules if name in m.__all__]
            assert homes, name
            for module in homes:
                assert getattr(kickedchain, name) is getattr(module, name), (name, module)

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from kickedchain import *", namespace)
        assert set(kickedchain.__all__) <= namespace.keys()

    def test_dir_lists_every_name(self):
        assert set(kickedchain.__all__) <= set(dir(kickedchain))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(kickedchain, "no_such_name")

    def test_scenario_binds_engine_callee_on_first_access(self):
        # scenario.py binds its numeric callees on first use; perfbench/spans.py
        # reads them from the module before any run has bound them
        code = (
            "import kickedchain.scenario as scenario\n"
            "assert 'evolve' not in vars(scenario)\n"
            "evolve = getattr(scenario, 'evolve')\n"
            "import kickedchain.evolution\n"
            "assert evolve is kickedchain.evolution.evolve"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(kickedchain.__file__).parents[1])}
        subprocess.run([sys.executable, "-c", code], env=env, check=True)


class TestBundledRuns:
    def test_accelerator_modes_config_reproduces_spike_tracks(self, tmp_path):
        result = run_scenario(
            CONFIG_DIR / "accelerator_modes.json", out_prefix=str(tmp_path / "acc")
        )
        report_file = next(f for f in result["files"] if f.endswith("_report.json"))
        doc = json.loads(Path(report_file).read_text())
        speeds = doc["report"]["spike_speeds"]
        assert abs(speeds["left"] - 2 * np.pi * 15) < 3
        assert abs(speeds["right"] - 2 * np.pi * 15) < 3
        late = [s for s in doc["report"]["spikes"] if s["period"] >= 3]
        assert {s["period"] for s in late} == {3, 4, 5, 6}

    def test_trapping_center_config_confines(self, tmp_path):
        result = run_scenario(
            CONFIG_DIR / "trapping_center.json", out_prefix=str(tmp_path / "trap")
        )
        report_file = next(f for f in result["files"] if f.endswith("_report.json"))
        doc = json.loads(Path(report_file).read_text())
        assert doc["report"]["cell_occupancy"] >= 0.9


class TestDoubleKickWarning:
    def test_weak_strong_inversion_warns_in_cli(self, tmp_path, capsys):
        cfg = {
            "scenario": "double_kick",
            "seed": 4,
            "output": str(tmp_path / "dk"),
            "chain": {"n_sites": 64, "j1": 1.0},
            "schedule": {"b_weak": 0.5, "b_strong": 0.1, "period": 3.0},
            "n_periods": 5,
            "snapshot_every": 5,
            "initial": {"delta_site": 32},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == 0
        captured = capsys.readouterr()
        assert "b_strong" in captured.err
        report = json.loads((tmp_path / "dk_report.json").read_text())
        assert any("b_strong" in w for w in report["report"]["warnings"])
