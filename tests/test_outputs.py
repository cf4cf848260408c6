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
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy.lib.introspect import opt_func_info

import kickedchain
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


# numpy's dispatch targets above X86_V3 (AVX2 + FMA); CI reruns the bundled
# configs with them disabled, and the manifest must still match
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"
SMALL_RUNS = {
    "chain": {
        "scenario": "single_kick", "seed": 2, "output": "chain",
        "chain": {"n_sites": 256, "j1": 1.0}, "schedule": {"b_kick": 0.25, "period": 20.0},
        "n_periods": 60, "snapshot_every": 20, "initial": {"delta_site": 128},
    },
    "rotor": {
        "scenario": "qkr", "seed": 3, "output": "rotor",
        "rotor": {"k": 5.0, "hbar": 0.25, "n_basis": 256, "initial_momentum": 0},
        "n_periods": 60, "snapshot_every": 20,
    },
}


def test_bytes_do_not_depend_on_avx512(tmp_path):
    """A small chain and rotor run write the same bytes with numpy's AVX-512 targets disabled.

    Real ``np.exp`` is one op whose bits differ between X86_V4 and X86_V3, so
    this fails if an output value passes through it.  On a host without
    AVX-512 both runs dispatch alike and the comparison shows nothing; the
    test then says so on its output.
    """
    configs = [tmp_path / f"{name}.json" for name in SMALL_RUNS]
    for path, cfg in zip(configs, SMALL_RUNS.values()):
        path.write_text(json.dumps(cfg))
    code = (
        "import sys\n"
        "from numpy.lib.introspect import opt_func_info\n"
        "from kickedchain.scenario import run_scenario\n"
        "for path in sys.argv[1:]:\n"
        "    run_scenario(path)\n"
        "print(opt_func_info(func_name='exp', signature='float64')['exp']['dd']['current'])"
    )
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = str(Path(kickedchain.__file__).parents[1])
    outputs, targets = [], []
    for disabled in (None, NO_AVX512):
        cwd = tmp_path / ("restricted" if disabled else "native")
        cwd.mkdir()
        run_env = env if disabled is None else {**env, "NPY_DISABLE_CPU_FEATURES": disabled}
        out = subprocess.run(
            [sys.executable, "-c", code, *map(str, configs)],
            cwd=cwd, env=run_env, capture_output=True, text=True, check=True, timeout=300,
        )
        targets.append(out.stdout.split()[-1])
        outputs.append({f.name: f.read_bytes() for f in sorted(cwd.iterdir())})
    assert sorted(outputs[0]) == [
        "chain_dist.csv", "chain_report.json", "rotor_dist.csv", "rotor_report.json"
    ]
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], f"{name} differs with {NO_AVX512} disabled"
    if targets[0] == targets[1]:
        print(f"real exp dispatches at {targets[0]} in both runs: they are the same run")
