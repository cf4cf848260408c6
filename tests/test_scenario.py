"""Config validation, runner determinism, file formats, CLI exit codes."""

import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
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
            scenario_module, "_quantum_report", lambda *args: {"variance": float("nan")}
        )
        with pytest.raises(ValueError, match="JSON compliant"):
            run_scenario(small_single_kick(tmp_path))
        assert not list(tmp_path.glob("run_*"))


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
        [("nan", "b_range_au must be finite"), ("1e308", "not JSON compliant")],
    )
    def test_feasibility_non_finite_exits_1(self, capsys, b_range, message):
        # 1e308 au is finite, but overflows to inf when converted to Tesla
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
        # scipy.fft is loaded by the first propagation and scipy.optimize by
        # fixed_point_stability; importing the CLI, validating and a classical
        # run load no scipy module at all
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
        ]
        env = {**os.environ, "PYTHONPATH": str(Path(kickedchain.__file__).parents[1])}
        for step in steps:
            code = (
                f"import sys\n{step}\n"
                "print('scipy.optimize' in sys.modules, [m for m in sys.modules if m.startswith('scipy')])"
            )
            out = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
            )
            assert out.stdout.splitlines()[-1] == "False []", step


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
