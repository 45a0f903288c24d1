"""The scripts under scripts/ run end to end against the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import acbott

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    src = str(Path(acbott.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize(
    "flags, header",
    [
        ((), "n,delta,gap_measured,gap_guaranteed,gap_coarse,omega,kappa"),
        (("--doubled",), "n,delta,gap_measured,gap_guaranteed,gap_coarse,kappa2"),
    ],
)
def test_gap_profile_runs(flags, header):
    done = run_script("gap_profile.py", "--n-min", "3", "--n-max", "8", *flags)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == header
    assert len(lines) == 1 + 6


def test_certification_sweep_runs():
    done = run_script("certification_sweep.py", "--to", "0.02", "--points", "2")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "delta,passed,max_bound,mesh_points,step_sum_1,step_sum_2"
    assert len(lines) == 1 + 2


@pytest.mark.parametrize(
    "name, args",
    [
        ("certification_sweep.py", ("--points", "-1")),
        ("certification_sweep.py", ("--points", "0")),
        ("certification_sweep.py", ("--to", "nan")),
        ("certification_sweep.py", ("--from", "-0.1")),
        ("gap_profile.py", ("--n-min", "1")),
    ],
    ids=["points-negative", "points-zero", "to-nan", "from-negative", "n-min-1"],
)
def test_script_refuses_a_bad_range_before_writing(name, args, tmp_path):
    out = tmp_path / "out.csv"
    done = run_script(name, *args, "--out", str(out))
    assert done.returncode != 0
    assert "Traceback" not in done.stderr
    assert done.stdout == ""
    assert not out.exists()
