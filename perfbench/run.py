"""kickedchain benchmark: one seeded workload through ``kickedchain.cli.main``.

Run from the repository root:

    python3 perfbench/run.py --workload chain_sparse --seed 1 --seconds 15 --trace 0

With ``--trace 0`` it prints the end-to-end metrics: ``wall_s`` (time of the
fastest ``run`` in a warm interpreter, outputs written; see ``measure``),
``setup_s`` (median wall time of a fresh interpreter that imports
``kickedchain.cli`` and validates the config) and ``peak_rss_mb`` (peak RSS
of a fresh process that runs the workload once).  With ``--trace 1`` it alternates untraced and
traced runs and prints the per-layer metrics from the span recorder in
``spans.py``.  Every program run is checked by ``check.py``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Everything runs in one process at a time, with
BLAS and OpenMP pools limited to one thread.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import io
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from check import check_outputs, output_paths
from spans import Tracer
from workloads import WORKLOADS, make_config, variant_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

MIN_REPS = 3
STREAM_PROBE_REPS = 3
CHILD_TIMEOUT_S = 120
# wall_s and setup_s are reported in units where one speed probe takes this long:
# about its median on the 2-vCPU Xeon host the baseline was recorded on, so that
# scaled times read close to that host's seconds.
PROBE_REF_S = 0.075

SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); from kickedchain.cli import main; "
    "raise SystemExit(main(['validate', '--config', sys.argv[2]]))"
)
# VmHWM, not ru_maxrss: a child's ru_maxrss starts at its parent's peak, which
# for this harness is the warm runs' peak.
RSS_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); from kickedchain.cli import main; "
    "rc = main(['run', '--config', sys.argv[2], '--out', sys.argv[3]]); "
    "print(next(l for l in open('/proc/self/status') if l.startswith('VmHWM:'))); "
    "raise SystemExit(rc)"
)

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "evolution.busy_s": "s",
    "evolution.ns_per_site_kick": "ns",
    "evolution.periods": "count",
    "evolution.snapshots": "count",
    "evolution.fft_calls": "count",
    "evolution.state_bytes": "bytes",
    "maps.busy_s": "s",
    "maps.ns_per_traj_step": "ns",
    "maps.traj_steps": "count",
    "maps.rng_streams": "count",
    "maps.stream_setup_s": "s",
    "diagnostics.busy_s": "s",
    "diagnostics.calls": "count",
    "scenario.self_s": "s",
    "scenario.validate_s": "s",
    "scenario.ns_per_row": "ns",
    "scenario.rows_written": "count",
    "scenario.bytes_written": "bytes",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}
# Counts derived from the call arguments rather than observed in the program.
COMPUTED = {"evolution.fft_calls", "evolution.state_bytes", "maps.traj_steps", "maps.rng_streams"}


class SpeedProbe:
    """A fixed kernel that uses no kickedchain code, timed to gauge the host's speed now.

    Other tenants of a shared host slow every run down, in phases that last
    minutes.  Timing this kernel just before and just after a run measures
    the slowdown the run met.  The kernel mixes the program's three kinds of
    work: FFT pairs on a 4096-point state held in L2, float formatting in the
    interpreter, and streaming through arrays larger than the cache.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.state = rng.standard_normal(4096) + 0j
        self.phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 4096))
        self.big = np.ones((3, 4_000_000))

    def __call__(self) -> float:
        start = time.perf_counter()
        state = self.state
        for _ in range(300):
            state = np.fft.ifft(np.fft.fft(state) * self.phases)
        "\n".join([repr(i * 0.1) for i in range(40_000)])
        for _ in range(2):
            np.add(self.big[0], self.big[1], out=self.big[2])
        return time.perf_counter() - start


class Runs:
    """Runs the workload in this interpreter and checks every run's outputs."""

    def __init__(self, workload: str, cfg: dict, cfg_path: Path, prefix: str, reference: dict):
        self.workload = workload
        self.cfg = cfg
        self.cfg_path = str(cfg_path)
        self.argv = ["run", "--config", self.cfg_path, "--out", prefix]
        self.prefix = prefix
        self.reference = reference
        self.paths = output_paths(workload, prefix)
        self.expected_digest = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _digest(self) -> tuple:
        return tuple(
            hashlib.sha256(p.read_bytes()).hexdigest() if p.is_file() else None
            for p in self.paths
        )

    def _clear(self):
        for path in self.paths:
            path.unlink(missing_ok=True)

    def record(self, ok: bool, problems=()):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.extend(problems)

    def check(self, exit_code: int):
        """Full check of the first run; later runs must reproduce its bytes."""
        if self.expected_digest is None:
            problems = check_outputs(
                self.workload, self.cfg, self.prefix, exit_code, self.reference
            )
            self.record(not problems, problems)
            self.expected_digest = self._digest() if not problems else ()
        elif not self.expected_digest:
            self.record(False, ["no run to compare with: the first run failed its check"])
        else:
            ok = exit_code == 0 and self._digest() == self.expected_digest
            self.record(ok, [] if ok else [f"run not reproduced (exit status {exit_code})"])

    def once(self, kickedchain_cli, tracer: Tracer | None = None) -> float:
        """One checked run in this interpreter; returns its wall time in seconds."""
        self._clear()
        gc.collect()
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            if tracer is None:
                exit_code = kickedchain_cli.main(self.argv)
            else:
                exit_code = tracer.call("main", "cli", kickedchain_cli.main, self.argv)
            wall = time.perf_counter() - start
        self.check(exit_code)
        return wall

    def fresh_process_rss_mb(self) -> float:
        """Peak RSS of a new interpreter running the workload once."""
        self._clear()
        proc = subprocess.run(
            [sys.executable, "-c", RSS_CODE, str(SRC), self.cfg_path, self.prefix],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        self.check(proc.returncode)
        if proc.returncode != 0:
            raise RuntimeError(f"fresh run failed: {proc.stderr.strip()}")
        return int(proc.stdout.split()[-2]) / 1024.0  # "VmHWM: <kB> kB"

    def fresh_process_setup_s(self) -> float:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), self.cfg_path],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        elapsed = time.perf_counter() - start
        ok = proc.returncode == 0 and proc.stdout.startswith("OK:")
        self.record(ok, [] if ok else [f"validate failed: {proc.stderr.strip()}"])
        return elapsed


def environment() -> dict:
    env = {
        "commit": "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": 1,
        "cpu_model": "unknown",
        "caches": {},
    }
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            env["commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10, check=True,
            ).stdout.strip()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
    with contextlib.suppress(OSError):
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
            env["caches"][f"L{level}{kind[0].lower()}"] = size
    return env


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced run from its spans and call arguments."""
    from kickedchain.evolution import SingleKick
    from kickedchain.maps import RandomRescaledDoubleKickMap

    busy = tracer.layer_totals()
    m = dict.fromkeys(
        ("evolution.periods", "evolution.snapshots", "evolution.fft_calls",
         "evolution.state_bytes", "maps.traj_steps", "maps.rng_streams", "diagnostics.calls"),
        0,
    )
    site_kicks = 0
    for span in tracer.spans:
        a = span.args
        if span.layer == "evolution":
            if span.name == "evolve":
                n = a["config"].n_sites
                kicks = 1 if isinstance(a["schedule"], SingleKick) else 2
            else:
                n, kicks = a["n_basis"], 1
            m["evolution.periods"] += a["n_periods"]
            m["evolution.snapshots"] += len(span.result.snapshots)
            m["evolution.fft_calls"] += 2 * kicks * a["n_periods"]
            m["evolution.state_bytes"] = max(m["evolution.state_bytes"], 16 * n)
            site_kicks += n * kicks * a["n_periods"]
        elif span.layer == "maps":
            n_traj = np.size(a["x0"])
            m["maps.traj_steps"] += n_traj * a["n_steps"]
            if isinstance(a["spec"], RandomRescaledDoubleKickMap):
                m["maps.rng_streams"] += n_traj
        elif span.layer == "diagnostics":
            m["diagnostics.calls"] += 1
    m["evolution.busy_s"] = busy.get("evolution", 0.0)
    m["evolution.ns_per_site_kick"] = (
        1e9 * m["evolution.busy_s"] / site_kicks if site_kicks else 0.0
    )
    m["maps.busy_s"] = busy.get("maps", 0.0)
    steps = m["maps.traj_steps"]
    m["maps.ns_per_traj_step"] = 1e9 * m["maps.busy_s"] / steps if steps else 0.0
    m["diagnostics.busy_s"] = busy.get("diagnostics", 0.0)
    m["scenario.self_s"] = busy.get("scenario", 0.0)
    m["scenario.validate_s"] = busy.get("validate", 0.0)
    m["cli.self_s"] = busy.get("cli", 0.0)
    return m


def stream_setup_s(tracer: Tracer) -> float:
    """Median time of a one-step ``iterate_ensemble`` on the run's own ensemble."""
    from kickedchain.maps import iterate_ensemble

    call = next((s for s in tracer.spans if s.layer == "maps"), None)
    if call is None:
        return 0.0
    a = call.args
    times = []
    for _ in range(STREAM_PROBE_REPS):
        start = time.perf_counter()
        iterate_ensemble(a["x0"], a["p0"], a["spec"], 1, 1, seed=a.get("seed"))
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure(args, runs: Runs) -> tuple[dict[str, float], list[str]]:
    """The metrics of one benchmark run, and notes printed below them."""
    import kickedchain.cli as kickedchain_cli

    runs.once(kickedchain_cli)  # warm-up, fully checked
    deadline = time.perf_counter() + args.seconds
    if not args.trace:
        # Warm runs alternate with fresh-interpreter set-ups, so both samples
        # span the same stretch of time, and every run or set-up sits between
        # two speed probes.  wall_s and setup_s are medians of times scaled by
        # PROBE_REF_S / (mean of the two probes around each): on this shared
        # host the raw medians moved by 16-37% (IQR/median) between 10-30 s
        # windows, the scaled medians by 5-8%.
        probe = SpeedProbe()
        raw = {"wall_s": [], "setup_s": []}
        scaled = {"wall_s": [], "setup_s": []}
        probes = [probe()]
        while len(raw["wall_s"]) < MIN_REPS or time.perf_counter() < deadline:
            for name, step in (("wall_s", lambda: runs.once(kickedchain_cli)),
                               ("setup_s", runs.fresh_process_setup_s)):
                raw[name].append(step())
                probes.append(probe())
                scale = 2.0 * PROBE_REF_S / (probes[-2] + probes[-1])
                scaled[name].append(raw[name][-1] * scale)
        notes = [
            f"unscaled: wall_s median {statistics.median(raw['wall_s']):.6f} s "
            f"(fastest {min(raw['wall_s']):.6f} s, {len(raw['wall_s'])} warm runs), "
            f"setup_s median {statistics.median(raw['setup_s']):.6f} s; "
            f"speed probe median {statistics.median(probes):.6f} s ({len(probes)} probes)"
        ]
        metrics = {name: statistics.median(values) for name, values in scaled.items()}
        metrics["peak_rss_mb"] = runs.fresh_process_rss_mb()
        return metrics, notes

    # Layer figures come from the traced run with the median wall time, so that
    # they add up to that run's wall time.
    plain, traced = [], []
    while len(traced) < MIN_REPS or time.perf_counter() < deadline:
        plain.append(runs.once(kickedchain_cli))
        tracer = Tracer()
        with tracer.installed():
            traced.append((runs.once(kickedchain_cli, tracer), tracer))
    wall, tracer = sorted(traced, key=lambda t: t[0])[(len(traced) - 1) // 2]
    metrics = layer_metrics(tracer)
    metrics["maps.stream_setup_s"] = stream_setup_s(tracer)
    metrics["scenario.rows_written"] = sum(
        sum(1 for _ in p.open()) - 1 for p in runs.paths if p.suffix == ".csv"
    )
    metrics["scenario.bytes_written"] = sum(p.stat().st_size for p in runs.paths)
    rows = metrics["scenario.rows_written"]
    metrics["scenario.ns_per_row"] = 1e9 * metrics["scenario.self_s"] / rows if rows else 0.0
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_s"] = min(t for t, _ in traced) - min(plain)
    parts = ("evolution.busy_s", "maps.busy_s", "diagnostics.busy_s", "scenario.validate_s",
             "scenario.self_s", "cli.self_s")
    notes = [
        f"accounting: {' + '.join(parts)} = {sum(metrics[p] for p in parts):.6f} s "
        f"of traced wall_s {wall:.6f} s (median of {len(traced)} traced runs; "
        f"{len(plain)} untraced runs)"
    ]
    _write_trace(args, tracer)
    return metrics, notes


def _write_trace(args, tracer: Tracer):
    """Spans of the reported traced run, left in the work directory."""
    origin = tracer.spans[0].start
    spans = [
        {"name": s.name, "layer": s.layer, "parent": s.parent,
         "start_s": s.start - origin, "end_s": s.end - origin, "self_s": s.self_time}
        for s in tracer.spans
    ]
    path = WORK / f"trace_{args.workload}_{args.seed}.json"
    doc = {"workload": args.workload, "seed": args.seed, "spans": spans}
    path.write_text(json.dumps(doc, indent=1))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kickedchain" / "__init__.py").is_file():
        print(f"error: no kickedchain sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    references = json.loads((HERE / "reference.json").read_text())
    reference = references[args.workload][str(variant_of(args.seed))]
    # The report embeds the output prefix, so a fixed relative one keeps
    # scenario.bytes_written the same for a seed in every checkout.
    os.chdir(ROOT)
    work = WORK.relative_to(ROOT) / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        prefix = str(work / "out")
        cfg = make_config(args.workload, args.seed, prefix)
        cfg_path = work / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        runs = Runs(args.workload, cfg, cfg_path, prefix, reference)
        metrics, notes = measure(args, runs)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    env = environment()
    print(f"workload {args.workload}  seed {args.seed}  variant {variant_of(args.seed)}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, unit in units.items():
        label = "  (computed)" if name in COMPUTED else ""
        print(f"  {name:28s} {metrics[name]:>16.6f} {unit}{label}")
    fail_frac = runs.failed / runs.attempted
    print(f"  {'fail_frac':28s} {fail_frac:>16.6f} ({runs.failed}/{runs.attempted} runs)")
    for note in notes:
        print(note)
    for problem in dict.fromkeys(runs.problems):
        print(f"check failed: {problem}")
    result = {
        "correct": runs.failed == 0,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
