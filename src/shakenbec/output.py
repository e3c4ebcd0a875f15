"""CSV and manifest writers.

Output contract: comma-separated, one header row, UTF-8, LF newlines,
floats at 12 significant digits.  Every frequency-dimensioned column
carries an explicit _rad_s or _hz suffix (exponential rates are
e-folding rates; their _rad_s values coincide numerically with 1/s).
Each run directory gets a manifest.json recording the command, the
fully-resolved configuration, the seed, a checksum per output file
so scans can be audited and reproduced byte for byte, the run's
diagnostics (worst invariant drift, failed scan points) and the wall
time of each of its phases.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

# CPython's own SHA-256, so a run never loads OpenSSL's libcrypto (which
# hashlib's import costs, about 3.5 MB of peak RSS); hashlib's where an
# interpreter is built without it
try:
    from _sha2 import sha256  # 3.12 on
except ImportError:
    try:
        from _sha256 import sha256  # 3.10, 3.11
    except ImportError:
        from hashlib import sha256


def _field(index: int, kind: type) -> str:
    # the str.format field of one cell: floats (numpy's included, nan and
    # inf too) at 12 significant digits, None empty, booleans (numpy's
    # too) as 1/0, anything else as str()
    if issubclass(kind, float):
        return f"{{{index}:.12g}}"
    if kind is type(None):
        return ""
    if issubclass(kind, (bool, np.bool_)):
        return f"{{{index}:d}}"
    return f"{{{index}!s}}"


def format_value(value) -> str:
    """One CSV cell, formatted as write_csv formats it."""
    return _field(0, type(value)).format(value)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> int:
    """Write rows under a header; returns the number of data rows.

    Rows are written as they come.  Each is formatted by one str.format
    call on a line template built once per sequence of cell types.
    """
    path = Path(path)
    width = len(header)
    templates: dict[tuple[type, ...], str] = {}
    count = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            if len(row) != width:
                raise ValueError(
                    f"row of width {len(row)} does not match header width {width}"
                )
            kinds = tuple(map(type, row))
            line = templates.get(kinds)
            if line is None:
                line = templates[kinds] = ",".join(
                    _field(i, kind) for i, kind in enumerate(kinds)
                ) + "\n"
            fh.write(line.format(*row))
            count += 1
    return count


def utc_stamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _sha256(path: Path) -> str:
    digest = sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(
    outdir,
    command: str,
    config_sections: dict,
    seed: int | None,
    workers: int,
    outputs: Sequence[str],
    started: str | None = None,
    diagnostics: dict | None = None,
    timings: dict | None = None,
) -> Path:
    """Write manifest.json next to the outputs; returns its path.

    The manifest itself carries wall-clock timestamps; reproducibility
    guarantees apply to the listed output files, whose digests it pins.
    diagnostics holds the run's worst invariant drifts, failed scan
    points and fit warnings (an empty object for commands that report
    none).  timings holds the wall time in seconds of each phase of the
    run: config_s (reading the configuration), compute_s (the command)
    and write_s (creating the output directory and writing the CSVs,
    which includes building the rows a command yields lazily).
    """
    from . import __version__

    outdir = Path(outdir)
    entries = []
    for name in outputs:
        path = outdir / name
        entries.append(
            {"name": name, "sha256": _sha256(path), "bytes": path.stat().st_size}
        )
    config_blob = json.dumps(config_sections, sort_keys=True).encode("utf-8")
    manifest = {
        "tool": "shakenbec",
        "versions": {"shakenbec": __version__, "numpy": np.__version__},
        "command": command,
        "seed": seed,
        "workers": workers,
        "config": config_sections,
        "config_sha256": sha256(config_blob).hexdigest(),
        "started": started,
        "finished": utc_stamp(),
        "outputs": entries,
        "diagnostics": diagnostics or {},
        "timings": timings or {},
    }
    path = outdir / "manifest.json"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def config_as_dict(cp) -> dict:
    return {section: dict(cp.items(section)) for section in cp.sections()}
