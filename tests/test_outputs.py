"""The bytes of every bundled output, pinned by ``configs/outputs.sha256``.

Each bundled config runs as ``--out bundled/<name>`` from one working
directory, so its report embeds a relative ``output``.  ``RANDOM_MAP`` is the
one run that draws through the random map: two tiles and a ragged last block
of steps.  Regenerate the manifest only when outputs change on purpose:
from an empty directory, run every config and ``RANDOM_MAP`` as
``kickedchain run --config <path> --out bundled/<name>``, then
``sha256sum bundled/*``.
"""

import hashlib
from pathlib import Path

import pytest
from numpy.lib.introspect import opt_func_info

from kickedchain.scenario import run_scenario

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
MANIFEST = CONFIG_DIR / "outputs.sha256"
RANDOM_MAP = {
    "scenario": "classical_map",
    "seed": 2014,
    "output": "bundled/random_map",
    "map": {"variant": "rescaled_double_kick_random", "k_eps": 0.35},
    "initial": {"uniform_x": {"n_trajectories": 5000, "p0": 0.5, "p_jitter": 1.5}},
    "n_steps": 50,
    "record_every": 5,
}
RUNS = {p.stem: p for p in sorted(CONFIG_DIR.glob("*.json"))} | {"random_map": RANDOM_MAP}


def _manifest() -> dict:
    lines = MANIFEST.read_text().splitlines()
    return {name: digest for digest, name in (line.split() for line in lines if not line.startswith("#"))}


@pytest.mark.parametrize("name", RUNS)
def test_outputs_match_manifest(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    files = run_scenario(RUNS[name], out_prefix=f"bundled/{name}")["files"]
    pinned = {f for f in _manifest() if f.startswith(f"bundled/{name}_")}
    assert set(files) == pinned
    for f in files:
        assert hashlib.sha256(Path(f).read_bytes()).hexdigest() == _manifest()[f], (
            f"{f}; the manifest needs numpy's complex multiply at X86_V3 or above, and it runs as "
            f"{opt_func_info(func_name='multiply', signature='complex128')}"
        )


def test_manifest_covers_every_run():
    assert len(RUNS) == 10
    assert {f.split("/")[1].rsplit("_", 1)[0] for f in _manifest()} == set(RUNS)

