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
import warnings
from pathlib import Path

import numpy as np
import pytest

import kickedchain
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
)
from kickedchain.cli import main
from kickedchain.evolution import qkr_evolve
from kickedchain.scenario import (
    ConfigError,
    _write_dist_csv,
    _write_report,
    _write_sos_csv,
    run_scenario,
    validate_config,
)

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
        with pytest.raises(ConfigError, match=f"config.{section}.{key}: must be finite"):
            validate_config(cfg)

    def test_nan_b_weak_rejected(self, tmp_path):
        cfg = small_single_kick(
            tmp_path,
            scenario="double_kick_random",
            schedule={"b_weak": float("nan"), "period": 3.0},
        )
        with pytest.raises(ConfigError, match="config.schedule.b_weak: must be finite"):
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
        with pytest.raises(ConfigError, match=r"config.initial.points\[1\]: expected a finite"):
            validate_config(cfg)
        cfg["initial"]["points"][1] = [10**400, 0.5]
        with pytest.raises(ConfigError, match=r"config.initial.points\[1\]: expected a finite"):
            validate_config(cfg)

    @pytest.mark.parametrize("section, cls, key", DATACLASS_FIELDS)
    def test_dataclass_fields_are_required(self, tmp_path, section, cls, key):
        cfg = section_config(tmp_path, section, cls)
        validate_config(cfg)
        del cfg[section][key]
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert str(err.value) == f"config.{section}: missing required field '{key}'"

    @pytest.mark.parametrize(
        "section, cls, key, value, message",
        [
            ("schedule", SingleKick, "period", 0.0, "must be > 0.0"),
            ("schedule", DoubleKick, "period", 0, "must be > 0.0"),
            ("map", DoubleKickMap, "eps", 0.0, "must be > 0.0"),
            ("map", DoubleKickMap, "tau", 0, "must be > 0.0"),
            ("map", RescaledDoubleKickMap, "tau_eps", 0.0, "must be > 0.0"),
            ("schedule", DoubleKick, "b_weak", -0.1, "must be >= 0.0"),
            ("schedule", RandomDoubleKick, "b_weak", -0.1, "must be >= 0.0"),
            ("schedule", SingleKick, "b_kick", -1, "must be >= 0.0"),
        ],
    )
    def test_field_bounds(self, tmp_path, section, cls, key, value, message):
        cfg = section_config(tmp_path, section, cls)
        cfg[section][key] = value
        with pytest.raises(ConfigError, match=re.escape(f"config.{section}.{key}: {message}")):
            validate_config(cfg)

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

    @pytest.mark.parametrize(
        "momentum, ok", [(2**53, True), (-(2**53), True), (2**53 + 1, False), (-(2**53) - 1, False)]
    )
    def test_initial_momentum_bound(self, tmp_path, momentum, ok):
        cfg = shape_config(tmp_path, "qkr")
        cfg["rotor"]["initial_momentum"] = momentum
        if ok:
            assert validate_config(cfg)["rotor"]["initial_momentum"] == momentum
        else:
            with pytest.raises(ConfigError, match="initial_momentum: must be"):
                validate_config(cfg)

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
        run_scenario(cfg, seed=6)
        assert Path(dist).read_bytes() != original
        run_scenario(cfg, seed=5)
        assert Path(dist).read_bytes() == original

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
        monkeypatch.setattr(
            scenario_module, "_propagation_report", lambda *args: {"variance": float("nan")}
        )
        with pytest.raises(ValueError, match="JSON compliant"):
            run_scenario(small_single_kick(tmp_path, output=str(tmp_path / "deep" / "run")))
        assert list(tmp_path.iterdir()) == []


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


class TestWriterBytes:
    """The one-pass writers reproduce the csv.writer oracle byte for byte."""

    def assert_same_bytes(self, tmp_path, write, oracle, *args):
        write(tmp_path / "new.csv", *args)
        oracle(tmp_path / "old.csv", *args)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_dist_edge_floats_range_labels(self, tmp_path):
        dist = np.array(EDGE_FLOATS)
        snapshots = [(0, dist), (7, dist[::-1].copy())]
        self.assert_same_bytes(
            tmp_path, _write_dist_csv, oracle_dist_csv, snapshots, range(len(dist))
        )

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
        self.assert_same_bytes(tmp_path, _write_sos_csv, oracle_sos_csv, sections)

    def test_sos_one_trajectory_one_step(self, tmp_path):
        sections = np.array([[[0.1, -2.5]]])
        self.assert_same_bytes(tmp_path, _write_sos_csv, oracle_sos_csv, sections)
        assert (tmp_path / "new.csv").read_bytes() == b"trajectory,step,x,p\r\n0,1,0.1,-2.5\r\n"


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
        "scenario, section, key, value",
        [
            ("qkr", "rotor", "initial_momentum", 2**63),
            ("classical_map", ("initial", "uniform_x"), "p_jitter", 1e308),
            ("feasibility", (), "n_sites", 10**400),
        ],
        ids=["initial_momentum", "p_jitter", "n_sites"],
    )
    def test_out_of_range_exits_2_without_output(
        self, tmp_path, capsys, scenario, section, key, value
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
        assert f".{key}: " in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

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
        # two records; the work cap refuses them before the first step
        cfg = shape_config(tmp_path, scenario)
        cfg.update({count: 2**63, every: 2**63, "output": str(tmp_path / "deep" / "run")})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(r"error: .* element-steps, over the work cap of 1099511627776\n", err)
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
        "sites, code", [(2**53, 0), (2**53 + 1, 1), (10**400, 1)], ids=["2**53", "2**53+1", "10**400"]
    )
    def test_feasibility_sites_bound(self, capsys, sites, code):
        argv = ["feasibility", "--b-range", "1e-6", "--sites", str(sites), "--j-hz", "1e9"]
        assert main(argv) == code
        out, err = capsys.readouterr()
        if code:
            assert out == "" and f"error: n_sites must be > 0 and <= {2**53}" in err
        else:
            assert json.loads(out)["n_sites"] == sites

    @pytest.mark.parametrize("initial", [{"delta_site": 0}, {"magnon_m": 0}])
    def test_huge_ring_refused_before_state_is_built(self, tmp_path, capsys, initial):
        # an initial state of 10**15 sites would need 16 PB
        cfg = small_single_kick(tmp_path, initial=initial)
        cfg["chain"]["n_sites"] = 10**15
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "error: basis size 1000000000000000 exceeds transform cap" in err
        assert not list(tmp_path.glob("run_*"))

    @pytest.mark.parametrize(
        "scenario, extra", [("classical_map", {"record_every": 1}), ("surface_of_section", {})]
    )
    def test_huge_ensemble_refused_before_drawing(self, tmp_path, capsys, scenario, extra):
        # the initial angles of 10**15 trajectories would need 8 PB
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
        assert main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "error: ensemble size 1000000000000000 exceeds cap 1000000" in err
        assert not list(tmp_path.glob("big_*"))

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

    @pytest.mark.parametrize(
        "b_range, message",
        [("nan", "b_range_au must be finite"), ("1e308", "b_range_tesla is not finite")],
    )
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
        assert "config.chain.j1: must be finite" in capsys.readouterr().err
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
        # scipy.fft is loaded by the first propagation; importing the CLI,
        # validating, a classical run and the fixed points load no scipy module
        # at all; numpy.random is loaded only by a run that draws, never by
        # importing the CLI, validating or a points section of a deterministic map
        section = tmp_path / "sos.json"
        section.write_text(json.dumps({
            "scenario": "surface_of_section",
            "seed": 1,
            "output": str(tmp_path / "sos"),
            "map": {"variant": "double_well", "k1": 0.35, "k2": 0.35},
            "initial": {"points": [[0.5, 0.1], [2.0, -0.2]]},
            "n_steps": 20,
        }))
        valid = CONFIG_DIR / "trapping_center.json"
        steps = [
            "import kickedchain.cli",
            f"from kickedchain.cli import main; assert main(['validate', '--config', {str(valid)!r}]) == 0",
            f"from kickedchain.cli import main; assert main(['run', '--config', {str(section)!r}]) == 0",
            "from kickedchain import DoubleWellMap, fixed_point_stability\n"
            "fixed_point_stability(DoubleWellMap(0.35, 0.35))",
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
        # importing the package or the CLI, --help, validating and the
        # feasibility estimate need only the standard library; a run loads numpy
        run = tmp_path / "run.json"
        run.write_text(json.dumps(small_single_kick(tmp_path)))
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
        assert len(steps) == 14
        assert out.stdout.splitlines()[-1] == str([False] * 13 + [True])


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
