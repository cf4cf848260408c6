"""Record ``reference.json``: the fingerprint of every workload variant.

Run from the repository root, at the commit whose outputs define correct:

    python3 perfbench/record_reference.py

Each variant is run once through ``kickedchain.cli.main`` and reduced by
``check.fingerprint``, which also applies the structural checks.  For the
section workload, trajectories that a one-ulp nudge of x0 separates by more
than ``STABLE_TOL`` are chaotic; their whole-run mean momentum is stored as
None, so it is not compared.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import numpy as np

from check import fingerprint
from workloads import VARIANTS, WORKLOADS, make_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STABLE_TOL = 1e-10


def _rounded(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    return value


def _unstable_trajectories(cfg: dict) -> np.ndarray:
    from kickedchain.maps import DoubleWellMap, surface_of_section

    pts = np.asarray(cfg["initial"]["points"])
    spec = DoubleWellMap(k1=cfg["map"]["k1"], k2=cfg["map"]["k2"])
    a = surface_of_section(pts[:, 0], pts[:, 1], spec, cfg["n_steps"])
    b = surface_of_section(np.nextafter(pts[:, 0], np.inf), pts[:, 1], spec, cfg["n_steps"])
    d = np.abs(a - b)
    d[..., 0] = np.minimum(d[..., 0], 2.0 * np.pi - d[..., 0])
    return d.max(axis=(1, 2)) > STABLE_TOL


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from kickedchain.cli import main as cli_main

    work = ROOT / ".perfbench" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    reference = {}
    try:
        for name in WORKLOADS:
            reference[name] = {}
            for variant in range(VARIANTS):
                prefix = str(work / name)
                cfg = make_config(name, variant, prefix)
                cfg_path = work / "config.json"
                cfg_path.write_text(json.dumps(cfg))
                with contextlib.redirect_stdout(io.StringIO()):
                    exit_code = cli_main(["run", "--config", str(cfg_path)])
                if exit_code != 0:
                    raise SystemExit(f"{name} variant {variant}: exit status {exit_code}")
                fp = fingerprint(name, cfg, prefix)
                if name == "sections":
                    unstable = _unstable_trajectories(cfg)
                    fp["traj_mean_p"] = [
                        None if bad else v for v, bad in zip(fp["traj_mean_p"], unstable)
                    ]
                    print(f"sections variant {variant}: {int(unstable.sum())} chaotic trajectories")
                reference[name][str(variant)] = {k: _rounded(v) for k, v in fp.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(reference, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
