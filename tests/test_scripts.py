"""The experiment scripts run end to end on tiny inputs."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


# bdg_rate_map's default drive trips the norm-drift guard at 64 steps/period
@pytest.mark.parametrize("script, args, output", [
    ("bdg_rate_map.py",
     ["--n", "4", "--n-cycles", "4", "--steps-per-period", "128"],
     "bdg_rate_map.csv"),
    ("twa_growth_demo.py",
     ["--nx", "4", "--nz", "1", "--hold", "1", "--realizations", "2"],
     "twa_growth.csv"),
])
def test_script_writes_its_csv(tmp_path, script, args, output):
    proc = run_script(script, [*args, "--out", str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    with open(tmp_path / output, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) > 1


# the CLI's exit codes: 2 for bad parameters, 3 for numerical failures
@pytest.mark.parametrize("script, args, code, label", [
    ("bdg_rate_map.py",
     ["--n", "4", "--n-cycles", "4", "--steps-per-period", "64"],
     3, "numerical failure"),
    ("twa_growth_demo.py",
     ["--nx", "4", "--nz", "1", "--hold", "1", "--realizations", "0"],
     2, "invalid parameter"),
])
def test_script_failure_is_one_line_and_exit_code(tmp_path, script, args, code, label):
    proc = run_script(script, [*args, "--out", str(tmp_path)])
    assert proc.returncode == code, proc.stderr
    [line] = proc.stderr.strip().splitlines()
    assert line.startswith(f"{script[:-3]}: {label}: ")
    assert not list(tmp_path.glob("*.csv"))


def test_bdg_rate_map_predicts_the_occupation_rate(tmp_path):
    # the scan reports occupation rates, 2 gamma per mode, whatever the
    # number of resonant pairs; the printed prediction must be the same
    from shakenbec import LatticeParams, Trajectory, most_unstable_mode

    proc = run_script("bdg_rate_map.py", [
        "--trajectory", "circular", "--n", "4", "--n-cycles", "4",
        "--steps-per-period", "128", "--out", str(tmp_path),
    ])
    assert proc.returncode == 0, proc.stderr
    [line] = [ln for ln in proc.stdout.splitlines() if ln.startswith("prediction")]
    printed = float(line.split("rate")[-1])
    ana = most_unstable_mode(Trajectory.CIRCULAR, 1.25, 11.0, LatticeParams(j=1.0, g=12.0))
    assert len(ana.q_mum) > 1  # where big_gamma - gamma0 would double count
    assert printed == pytest.approx(2.0 * ana.gamma, abs=5e-5)
