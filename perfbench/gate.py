"""Output gate: checks one CLI run's CSV files, operation by operation.

Without a reference the gate checks what needs none: every required
cell is present, numbers are finite, `status` is `ok`, `norm_drift`
stays within the engine's own limit, and band_lo <= n_ex <= band_hi.
With a reference (outputs recorded from an earlier commit) it also
compares every cell: text exactly, numbers within the column's stated
(relative, absolute) tolerance.  A row that fails any check fails the
operation it belongs to; a missing or malformed file fails them all.
"""

from __future__ import annotations

import csv
import gzip
import math
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Column:
    """One CSV column and how it is checked.

    kind: text (compared exactly), num (finite, compared within tol),
    absnum (as num, on the absolute value), drift (finite and at most
    the engine's limit, never compared), ok (must read "ok").
    """

    name: str
    kind: str
    tol: tuple[float, float] = (0.0, 0.0)  # (relative, absolute)
    optional: bool = False  # the cell may be empty


@dataclass(frozen=True)
class CsvSpec:
    """An output file.  rows_per_op = 0: the file belongs to one operation."""

    filename: str
    rows_per_op: int
    columns: tuple[Column, ...]
    band_check: bool = False


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and data rows; a .gz file (a stored reference) is unpacked."""
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path.name}: empty file")
    return rows[0], rows[1:]


def _number(cell: str) -> float:
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {cell!r}")
    return value


def _check_cell(col: Column, cell: str, ref: str | None, drift_limit: float) -> str | None:
    """Returns a failure message, or None when the cell passes."""
    if cell == "":
        if not col.optional:
            return f"{col.name}: empty"
        if ref not in (None, ""):
            return f"{col.name}: empty, reference {ref!r}"
        return None
    if col.kind == "text":
        if ref is not None and cell != ref:
            return f"{col.name}: {cell!r} != reference {ref!r}"
        return None
    if col.kind == "ok":
        return None if cell == "ok" else f"{col.name}: {cell!r}"
    try:
        value = _number(cell)
    except ValueError as exc:
        return f"{col.name}: {exc}"
    if col.kind == "drift":
        return None if value <= drift_limit else (
            f"{col.name}: {value:.3e} exceeds the engine limit {drift_limit:.1e}")
    if ref is None:
        return None
    if ref == "":
        return f"{col.name}: {cell!r}, reference empty"
    expected = float(ref)
    if col.kind == "absnum":
        value, expected = abs(value), abs(expected)
    rtol, atol = col.tol
    if not abs(value - expected) <= atol + rtol * abs(expected):
        return f"{col.name}: {value!r} vs reference {expected!r} (rtol {rtol}, atol {atol})"
    return None


def check_file(
    spec: CsvSpec, path: Path, ref_path: Path | None, n_ops: int, drift_limit: float
) -> dict[int, str]:
    """Failed operations of one output file, each with its first message."""
    every_op = range(n_ops)
    try:
        header, rows = read_csv(path)
        ref_rows = None
        if ref_path is not None:
            ref_header, ref_rows = read_csv(ref_path)
            if ref_header != header:
                return {op: f"{spec.filename}: header differs from reference" for op in every_op}
    except (OSError, ValueError, csv.Error) as exc:
        return {op: f"{spec.filename}: {exc}" for op in every_op}
    expected = [c.name for c in spec.columns]
    if header != expected:
        return {op: f"{spec.filename}: header {header} != {expected}" for op in every_op}

    def op_of(i: int) -> int:
        return i // spec.rows_per_op if spec.rows_per_op else 0

    if ref_rows is not None:
        want = len(ref_rows)
    else:
        want = n_ops * spec.rows_per_op if spec.rows_per_op else max(len(rows), 1)
    if len(rows) != want:
        return {op: f"{spec.filename}: {len(rows)} rows, expected {want}" for op in every_op}
    failed: dict[int, str] = {}
    index = {name: k for k, name in enumerate(header)}
    for i, row in enumerate(rows):
        op = op_of(i)
        if op in failed:
            continue
        if len(row) != len(header):
            failed[op] = f"{spec.filename} row {i + 1}: {len(row)} cells"
            continue
        ref_row = ref_rows[i] if ref_rows is not None else None
        for k, col in enumerate(spec.columns):
            message = _check_cell(col, row[k], ref_row[k] if ref_row else None, drift_limit)
            if message is not None:
                failed[op] = f"{spec.filename} row {i + 1}: {message}"
                break
        else:
            if spec.band_check:
                lo, mid, hi = (float(row[index[c]]) for c in ("band_lo", "n_ex", "band_hi"))
                if not lo <= mid <= hi:
                    failed[op] = f"{spec.filename} row {i + 1}: n_ex outside its band"
    return failed


def check_run(
    specs, outdir: Path, ref_dir: Path | None, n_ops: int, drift_limit: float
) -> dict[int, str]:
    """Failed operations of one CLI run over all its output files."""
    failed: dict[int, str] = {}
    for spec in specs:
        ref_path = ref_dir / f"{spec.filename}.gz" if ref_dir is not None else None
        for op, message in check_file(spec, outdir / spec.filename, ref_path,
                                      n_ops, drift_limit).items():
            failed.setdefault(op, message)
    return failed
