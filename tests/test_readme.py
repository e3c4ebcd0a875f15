"""README's library quickstart runs, its config block loads as written,
and its claims table names tests and presets that exist."""

import math
import re
from pathlib import Path

import pytest

from shakenbec.config import (
    available_presets,
    bdg_from_config,
    drive_from_config,
    lattice_from_config,
    load_config,
    scan_from_config,
    twa_from_config,
)
from shakenbec.model import Envelope, Grid

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quickstart_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md quickstart", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3
    assert float(printed[0]) == pytest.approx(444.5, abs=0.05)  # "~444.5 Hz"


def test_readme_config_block_loads(tmp_path):
    # every key the block shows exists and builds through the config layer
    section = README.read_text(encoding="utf-8").split("## Config format", 1)[1]
    block = re.search(r"```ini\n(.*?)```", section, re.S).group(1)
    path = tmp_path / "readme.cfg"
    path.write_text(block, encoding="utf-8")
    cp = load_config(str(path))
    assert lattice_from_config(cp).j == pytest.approx(2 * math.pi * 50.0)
    assert drive_from_config(cp).envelope == Envelope(ramp_up=2, hold=20)
    assert scan_from_config(cp, allowed=("omega",)).values.size == 3
    assert bdg_from_config(cp).grid == Grid(24, 24, 1, lz=1.0)
    assert twa_from_config(cp).grid == Grid(16, 16, 8, lz=12.9)


def test_readme_claims_table_names_what_exists():
    section = README.read_text(encoding="utf-8").split("## Claims", 1)[1].split("\n## ", 1)[0]
    rows = [[c.strip() for c in line.split("|")[1:-1]]
            for line in section.splitlines() if line.startswith("| ")]
    assert rows[0] == ["claim", "command", "preset", "test", "status"]
    assert len(rows) == 6  # the abstract's four claims and the end-phase study
    for claim, command, preset, test, status in rows[1:]:
        assert re.match(r"(engine-tested|formula only|open|negative result)\b", status), claim
        # only an open claim names no command, preset or test
        is_open = status.startswith("open")
        presets = re.findall(r"`([\w-]+)`", preset)
        tests = re.findall(r"`(tests/\w+\.py)::(\w+)`", test)
        assert (not presets) == (not tests) == is_open, claim
        assert set(presets) <= set(available_presets()), claim
        for path, func in tests:
            source = (README.parent / path).read_text(encoding="utf-8")
            assert re.search(rf"^def {func}\(", source, re.M), (claim, func)
