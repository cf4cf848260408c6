"""Output check for one benchmark run: structure, physics invariants, reference.

``check_outputs`` returns a list of problems; an empty list means the run
passed.  A run fails when the program's exit status is not 0, when a file is
missing, when a CSV has the wrong header, rows or labels, when a dist snapshot
is not normalised within ``NORM_TOL``, when a report holds a non-finite
number, or when its fingerprint (below) disagrees with the reference recorded
for its variant.

Tolerances against the reference.  Propagation is unitary, so a rounding
change does not grow exponentially: moving ``b_kick`` or the rotor ``k`` by
one ulp, which perturbs every kick phase by about an ulp of its size (up to
5e5 rad at the ring edge), moves the final distributions by at most 2e-9 in
L1 and the report scalars by at most 7e-9 relative.  A rounding change of an
FFT backend is smaller still (with numpy 2.4 and scipy 1.17, ``scipy.fft``
reproduces ``numpy.fft`` bit for bit).  ``DIST_L1_TOL`` and ``REL_TOL`` leave over 100x margin over
that, while a 1e-4 relative change of a kick strength moves these numbers by
7e-4 to 0.5.  The random double-kick map contracts momentum errors on
average, so its ensemble statistics get the same relative tolerance.  The
double-well map is chaotic for about half of the seeded points: a one-ulp
nudge of x0 separates those trajectories to O(1) within about 100 steps,
while before step ``SECTION_HEAD`` it moves no point by more than 1e-11.
Sections are therefore compared on the first ``SECTION_HEAD`` steps of every
trajectory and on the whole-run mean momentum of the trajectories that the
reference marks as stable under that nudge.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, recorded_periods

NORM_TOL = 1e-6
DIST_L1_TOL = 1e-6
REL_TOL = 1e-6
SECTION_TOL = 1e-8
SECTION_HEAD = 16
SECTION_KEYS = ("head_x", "head_p", "traj_mean_p")
N_BINS = 64
ROTOR_BIN_STRIDE = 25  # rotor snapshots kept in the fingerprint: every 25th after period 0

CSV_HEADERS = {"_dist.csv": "period,site,probability", "_sos.csv": "trajectory,step,x,p"}
REPORT_SCALARS = {
    "single_kick": ("variance", "participation_ratio", "loc_length", "loc_fit_r2"),
    "qkr": ("variance", "participation_ratio"),
}


class CheckFailed(Exception):
    pass


def output_paths(workload: str, prefix: str) -> list[Path]:
    csv = WORKLOADS[workload]
    suffixes = ([csv] if csv else []) + ["_report.json"]
    return [Path(prefix + s) for s in suffixes]


def _reject_constant(token):
    raise CheckFailed(f"report holds non-standard JSON constant {token}")


def _require_finite(value, path="report"):
    if isinstance(value, dict):
        for key, item in value.items():
            _require_finite(item, f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _require_finite(item, f"{path}[{i}]")
    elif isinstance(value, float) and not math.isfinite(value):
        raise CheckFailed(f"{path} is not finite")


def _read_csv(path: Path, header: str, n_cols: int, n_rows: int) -> np.ndarray:
    with path.open() as fh:
        if fh.readline().rstrip("\n") != header:
            raise CheckFailed(f"{path.name}: header is not '{header}'")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape != (n_rows, n_cols):
        raise CheckFailed(f"{path.name}: shape {data.shape}, expected {(n_rows, n_cols)}")
    if not np.isfinite(data).all():
        raise CheckFailed(f"{path.name}: non-finite value")
    return data


def _read_dist(path: Path, cfg: dict) -> np.ndarray:
    """Snapshot probabilities, shape (snapshots, sites), after checking labels and norms."""
    periods = recorded_periods(cfg["n_periods"], cfg["snapshot_every"])
    if cfg["scenario"] == "qkr":
        rotor = cfg["rotor"]
        n = rotor["n_basis"]
        labels = rotor["initial_momentum"] + np.arange(n) - n // 2
    else:
        n = cfg["chain"]["n_sites"]
        labels = np.arange(n)
    data = _read_csv(path, CSV_HEADERS["_dist.csv"], 3, len(periods) * n)
    if not np.array_equal(data[:, 0], np.repeat(periods, n)):
        raise CheckFailed(f"{path.name}: period column does not list {periods}")
    if not np.array_equal(data[:, 1], np.tile(labels, len(periods))):
        raise CheckFailed(f"{path.name}: site column is not the basis labels")
    probs = data[:, 2].reshape(len(periods), n)
    if (probs < 0).any():
        raise CheckFailed(f"{path.name}: negative probability")
    worst = float(np.abs(probs.sum(axis=1) - 1.0).max())
    if worst > NORM_TOL:
        raise CheckFailed(f"{path.name}: a snapshot's norm is off by {worst:.3e}")
    return probs


def _read_sos(path: Path, cfg: dict) -> np.ndarray:
    """Section points, shape (trajectories, steps, 2), after checking labels and ranges."""
    n_traj, n_steps = len(cfg["initial"]["points"]), cfg["n_steps"]
    data = _read_csv(path, CSV_HEADERS["_sos.csv"], 4, n_traj * n_steps)
    if not np.array_equal(data[:, 0], np.repeat(np.arange(n_traj), n_steps)):
        raise CheckFailed(f"{path.name}: trajectory column is wrong")
    if not np.array_equal(data[:, 1], np.tile(np.arange(1, n_steps + 1), n_traj)):
        raise CheckFailed(f"{path.name}: step column is wrong")
    x = data[:, 2]
    if ((x < 0) | (x >= 2.0 * np.pi)).any():
        raise CheckFailed(f"{path.name}: x outside [0, 2*pi)")
    return data[:, 2:].reshape(n_traj, n_steps, 2)


def _bins(probs: np.ndarray) -> np.ndarray:
    return probs.reshape(probs.shape[0], N_BINS, -1).sum(axis=2)


def fingerprint(workload: str, cfg: dict, prefix: str) -> dict:
    """Check one run's files and reduce them to the numbers compared with the reference.

    Raises :class:`CheckFailed` on the first structural or invariant violation.
    """
    paths = output_paths(workload, prefix)
    for path in paths:
        if not path.is_file():
            raise CheckFailed(f"missing output {path.name}")
    doc = json.loads(paths[-1].read_text(), parse_constant=_reject_constant)
    _require_finite(doc)
    if doc.get("seed") != cfg["seed"] or "report" not in doc:
        raise CheckFailed("report does not carry the run's seed and report block")
    report = doc["report"]

    scenario = cfg["scenario"]
    if scenario in REPORT_SCALARS:
        probs = _read_dist(paths[0], cfg)
        fp = {key: report[key] for key in REPORT_SCALARS[scenario]}
        if scenario == "single_kick":
            n = probs.shape[1]
            s0 = cfg["initial"]["delta_site"]
            d = (np.arange(n) - s0 + n // 2) % n - n // 2
            fp["snapshot_variance"] = (probs * d.astype(float) ** 2).sum(axis=1).tolist()
            fp["final_bins"] = _bins(probs[-1:])[0].tolist()
        else:
            fp["bins"] = _bins(probs[ROTOR_BIN_STRIDE::ROTOR_BIN_STRIDE]).tolist()
        return fp
    if scenario == "surface_of_section":
        sos = _read_sos(paths[0], cfg)
        if report != {"n_trajectories": sos.shape[0], "n_steps": sos.shape[1]}:
            raise CheckFailed("report does not match the section shape")
        head = sos[:, :SECTION_HEAD]
        return {
            "head_x": head[..., 0].sum(axis=0).tolist(),
            "head_p": head[..., 1].sum(axis=0).tolist(),
            "traj_mean_p": sos[..., 1].mean(axis=1).tolist(),
        }
    # classical_map: report only
    steps = recorded_periods(cfg["n_steps"], cfg["record_every"])
    n_traj = cfg["initial"]["uniform_x"]["n_trajectories"]
    if report.get("steps") != steps or report.get("n_trajectories") != n_traj:
        raise CheckFailed("report steps or trajectory count are wrong")
    if not len(report["mean_p"]) == len(report["var_p"]) == len(steps):
        raise CheckFailed("report statistics have the wrong length")
    return {"mean_p": report["mean_p"], "var_p": report["var_p"]}


def compare(fp: dict, ref: dict) -> list[str]:
    """Differences between a fingerprint and its reference beyond the tolerances.

    A reference value of None (an unstable section trajectory, or a report
    field the program left empty) is not compared.
    """
    problems = []
    for key, expected in ref.items():
        actual = np.asarray(fp.get(key), dtype=float)
        expected = np.asarray(expected, dtype=float)  # None becomes nan
        if actual.shape != expected.shape:
            problems.append(f"{key}: shape {actual.shape}, reference {expected.shape}")
        elif key in ("final_bins", "bins"):
            l1 = np.abs(actual - expected).sum(axis=-1).max()
            if not l1 <= DIST_L1_TOL:
                problems.append(f"{key}: L1 distance {l1:.3e} from reference")
        else:
            tol = SECTION_TOL if key in SECTION_KEYS else REL_TOL
            known = ~np.isnan(expected)
            err = np.abs(actual - expected)[known] / np.maximum(np.abs(expected[known]), 1.0)
            if not (err <= tol).all():
                problems.append(f"{key}: relative difference {err.max():.3e} from reference")
    return problems


def check_outputs(workload: str, cfg: dict, prefix: str, exit_code: int, ref: dict) -> list[str]:
    """All problems with one run; an empty list means it passed."""
    if exit_code != 0:
        return [f"exit status {exit_code}"]
    try:
        return compare(fingerprint(workload, cfg, prefix), ref)
    except CheckFailed as exc:
        return [str(exc)]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
