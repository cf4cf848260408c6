"""Tests of the benchmark's output check: a tampered output must count as failed.

Run from the repository root (takes about 15 s):

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK = HERE.parent / ".perfbench"
sys.path.insert(0, str(HERE.parent / "src"))

import kickedchain.cli  # noqa: E402
import kickedchain.scenario  # noqa: E402
from check import check_outputs, output_paths  # noqa: E402
from run import Runs  # noqa: E402
from spans import BINDINGS, Tracer  # noqa: E402
from workloads import make_config, variant_of  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())
SEED = 21  # any seed; its variant's reference is used


class Run:
    """One real run of a workload, with helpers to tamper with a copy of it."""

    def __init__(self, name: str, root: Path):
        self.workload = name
        self.prefix = str(root / name)
        self.cfg = make_config(name, SEED, self.prefix)
        self.cfg_path = root / f"{name}.json"
        self.cfg_path.write_text(json.dumps(self.cfg))
        self.reference = REFERENCE[name][str(variant_of(SEED))]
        with contextlib.redirect_stdout(io.StringIO()):
            self.exit_code = kickedchain.cli.main(["run", "--config", str(self.cfg_path)])
        self.original = {p: p.read_bytes() for p in output_paths(self.workload, self.prefix)}

    def restore(self):
        for path, data in self.original.items():
            path.write_bytes(data)

    def problems(self, exit_code=None):
        code = self.exit_code if exit_code is None else exit_code
        return check_outputs(self.workload, self.cfg, self.prefix, code, self.reference)

    def edit_csv_line(self, index: int, edit):
        path = next(p for p in self.original if p.suffix == ".csv")
        lines = path.read_text().splitlines(keepends=True)
        lines[index] = edit(lines[index])
        path.write_text("".join(lines))

    def edit_report(self, edit):
        path = next(p for p in self.original if p.suffix == ".json")
        doc = json.loads(path.read_text())
        edit(doc["report"])
        path.write_text(json.dumps(doc))


def _scale_last_field(line: str, factor: float) -> str:
    head, value = line.rstrip("\n").rsplit(",", 1)
    return f"{head},{float(value) * factor!r}\n"


class OutputCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        WORK.mkdir(exist_ok=True)
        cls.tmp = Path(tempfile.mkdtemp(dir=WORK))
        cls.chain = Run("chain_sparse", cls.tmp)
        cls.sections = Run("sections", cls.tmp)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def tearDown(self):
        self.chain.restore()
        self.sections.restore()

    def test_untouched_runs_pass(self):
        self.assertEqual(self.chain.problems(), [])
        self.assertEqual(self.sections.problems(), [])

    def test_nonzero_exit_fails(self):
        self.assertTrue(self.chain.problems(exit_code=1))

    def test_missing_file_fails(self):
        next(iter(self.chain.original)).unlink()
        self.assertTrue(self.chain.problems())

    def test_dropped_row_fails(self):
        self.chain.edit_csv_line(-1, lambda line: "")
        self.assertTrue(self.chain.problems())

    def test_denormalised_snapshot_fails(self):
        # Site 2048 of the last snapshot holds ~1e-3; doubling it breaks the norm.
        self.chain.edit_csv_line(-2048, lambda line: _scale_last_field(line, 2.0))
        self.assertTrue(any("norm" in p for p in self.chain.problems()))

    def test_mass_moved_within_norm_fails_reference(self):
        # Move 1e-5 of probability between two far-apart sites: norm holds, reference does not.
        last = next(p for p in self.chain.original if p.suffix == ".csv")
        lines = last.read_text().splitlines(keepends=True)
        for index, delta in ((-4000, 1e-5), (-2000, -1e-5)):
            head, value = lines[index].rstrip("\n").rsplit(",", 1)
            lines[index] = f"{head},{float(value) + delta!r}\n"
        last.write_text("".join(lines))
        problems = self.chain.problems()
        self.assertTrue(problems)
        self.assertFalse(any("norm" in p for p in problems))

    def test_non_finite_report_fails(self):
        self.chain.edit_report(lambda r: r.update(variance=float("nan")))
        self.assertTrue(self.chain.problems())

    def test_report_value_off_reference_fails(self):
        self.chain.edit_report(lambda r: r.update(variance=r["variance"] * 1.001))
        self.assertTrue(self.chain.problems())

    def test_section_point_moved_fails(self):
        # Row 3 is trajectory 0, step 3, inside the compared head of the section.
        self.sections.edit_csv_line(3, lambda line: _scale_last_field(line, 1.01))
        self.assertTrue(self.sections.problems())

    def test_section_x_out_of_range_fails(self):
        self.sections.edit_csv_line(
            700, lambda line: ",".join(line.split(",")[:2] + ["7.0", line.split(",")[3]])
        )
        self.assertTrue(self.sections.problems())

    def test_tampered_rerun_counts_as_failed(self):
        run = self.chain
        runs = Runs(run.workload, run.cfg, run.cfg_path, run.prefix, run.reference)
        runs.check(0)
        run.edit_csv_line(-1, lambda line: _scale_last_field(line, 1.5))
        runs.check(0)
        runs.check(2)
        self.assertEqual((runs.attempted, runs.failed), (3, 2))


class TracerTest(unittest.TestCase):
    def test_bindings_restored_and_self_times_add_up(self):
        before = {key: getattr(sys.modules[key[0]], key[1]) for key in BINDINGS}
        tracer = Tracer()
        WORK.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            cfg = make_config("chain_sparse", SEED, str(Path(tmp) / "out"))
            cfg["n_periods"] = 50
            cfg["snapshot_every"] = 10
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(cfg))
            with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
                evolve = before[("kickedchain.scenario", "evolve")]
                self.assertIsNot(kickedchain.scenario.evolve, evolve)
                argv = ["run", "--config", str(path)]
                code = tracer.call("main", "cli", kickedchain.cli.main, argv)
        self.assertEqual(code, 0)
        self.assertEqual(before, {key: getattr(sys.modules[key[0]], key[1]) for key in BINDINGS})
        layers = {s.layer for s in tracer.spans}
        self.assertEqual(layers, {"cli", "scenario", "validate", "evolution", "diagnostics"})
        root = tracer.spans[0]
        self.assertAlmostEqual(sum(tracer.layer_totals().values()), root.duration, delta=1e-9)


if __name__ == "__main__":
    unittest.main()
