"""README's library quickstart runs as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quickstart_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md quickstart", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3
    assert float(printed[0]) == pytest.approx(444.5, abs=0.05)  # "~444.5 Hz"
