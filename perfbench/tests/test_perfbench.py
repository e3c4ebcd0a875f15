"""Self-tests of the benchmark.

    python3 -m pytest perfbench/tests

The gate tests need no program run.  The others run the benchmark
command on every workload (about 3 minutes on 2 CPUs).
"""

from __future__ import annotations

import csv
import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from gate import check_run  # noqa: E402
from layers import EXACT_COUNTS, PER_LAYER  # noqa: E402
from run import END_TO_END, drift_limit  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS  # noqa: E402

NAMES = sorted(WORKLOADS)


def _benchmark(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(REFERENCE_SEED), "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _outputs_from_reference(name: str, outdir: Path) -> None:
    outdir.mkdir()
    for spec in WORKLOADS[name].outputs:
        data = gzip.decompress((HERE / "reference" / name / f"{spec.filename}.gz").read_bytes())
        (outdir / spec.filename).write_bytes(data)


def _edit_cell(path: Path, row: int, column: str, edit) -> None:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    k = rows[0].index(column)
    rows[row + 1][k] = edit(rows[row + 1][k])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _check(name: str, outdir: Path) -> dict[int, str]:
    w = WORKLOADS[name]
    return check_run(w.outputs, outdir, HERE / "reference" / name,
                     w.ops_per_run, drift_limit())


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("name", NAMES)
def test_gate_passes_the_reference_itself(name, tmp_path):
    _outputs_from_reference(name, tmp_path / "out")
    assert _check(name, tmp_path / "out") == {}


# (workload, file, row, column, perturbed value, failed operation)
PERTURBED = [
    ("bdg-scan", "bdg.csv", 1, "extracted_rate_rad_s", lambda v: repr(float(v) * (1 + 1e-4)), 1),
    ("bdg-scan", "bdg.csv", 2, "norm_drift", lambda v: "2e-6", 2),
    ("bdg-scan", "bdg.csv", 3, "status", lambda v: "BlowUpError", 3),
    ("twa-3d", "twa_trace.csv", 7, "n_ex", lambda v: repr(float(v) * (1 + 1e-4)), 0),
    ("twa-3d", "twa_rates.csv", 1, "rate_rad_s", lambda v: repr(float(v) * 1.01), 0),
    ("endphase-2d", "endphase.csv", 0, "n_ex_final", lambda v: repr(float(v) * (1 - 1e-5)), 0),
    ("rates-scan", "rates.csv", 3001, "gamma_rad_s", lambda v: repr(float(v) * (1 + 1e-6)), 1000),
    ("rates-scan", "rates.csv", 10, "k0_critical", lambda v: "nan", 3),
]


@pytest.mark.parametrize("name,filename,row,column,edit,op", PERTURBED)
def test_gate_rejects_a_perturbed_csv(name, filename, row, column, edit, op, tmp_path):
    outdir = tmp_path / "out"
    _outputs_from_reference(name, outdir)
    _edit_cell(outdir / filename, row, column, edit)
    assert set(_check(name, outdir)) == {op}


def test_gate_admits_rounding_level_changes(tmp_path):
    outdir = tmp_path / "out"
    _outputs_from_reference("twa-3d", outdir)
    _edit_cell(outdir / "twa_trace.csv", 4, "n_ex", lambda v: repr(float(v) * (1 + 1e-11)))
    _edit_cell(outdir / "twa_rates.csv", 0, "rate_rad_s", lambda v: repr(float(v) * (1 - 1e-9)))
    assert _check("twa-3d", outdir) == {}


def test_gate_checks_the_band_without_a_reference(tmp_path):
    outdir = tmp_path / "out"
    _outputs_from_reference("twa-3d", outdir)
    _edit_cell(outdir / "twa_trace.csv", 5, "band_hi", lambda v: "0.01")
    w = WORKLOADS["twa-3d"]
    assert set(check_run(w.outputs, outdir, None, 1, float("inf"))) == {0}


def test_gate_fails_every_operation_of_a_missing_file(tmp_path):
    (tmp_path / "out").mkdir()
    assert set(_check("bdg-scan", tmp_path / "out")) == {0, 1, 2, 3}


@pytest.fixture(scope="module")
def traced_results():
    """Two --trace 1 results per workload."""
    return {name: [_result(_benchmark(name, 1)) for _ in range(2)] for name in NAMES}


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_layer_metric(traced_results, name):
    for result in traced_results[name]:
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] == 2 * WORKLOADS[name].ops_per_run
        assert set(result["metrics"]) == set(PER_LAYER)
        for metric, (unit, _) in PER_LAYER.items():
            assert result["metrics"][metric]["unit"] == unit


@pytest.mark.parametrize("name", NAMES)
def test_exact_counts_repeat_between_traced_runs(traced_results, name):
    first, second = ({m: r["metrics"][m]["value"] for m in EXACT_COUNTS}
                     for r in traced_results[name])
    assert first == second


def test_computed_work_matches_the_stated_size(traced_results):
    def count(name, metric):
        return traced_results[name][0]["metrics"][metric]["value"]

    assert count("bdg-scan", "bdg.mode_steps") == WORKLOADS["bdg-scan"].work_per_run
    for name in ("twa-3d", "endphase-2d"):
        assert count(name, "twa.site_steps") == WORKLOADS[name].work_per_run
    assert count("rates-scan", "output.csv_rows") == 3 * WORKLOADS["rates-scan"].work_per_run
    # the layers each workload was chosen for do the work
    assert count("twa-3d", "twa.fft_calls") > 0
    assert count("rates-scan", "specialmath.bessel_calls") > 0
    assert count("bdg-scan", "twa.fft_calls") == 0
    assert count("twa-3d", "bdg.mode_steps") == 0


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_run_reports_every_metric(name):
    result = _result(_benchmark(name, 0))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == WORKLOADS[name].ops_per_run
    assert set(result["metrics"]) == set(END_TO_END)
    for metric, (unit, _) in END_TO_END.items():
        assert result["metrics"][metric]["unit"] == unit
        assert result["metrics"][metric]["value"] > 0


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _benchmark(NAMES[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
