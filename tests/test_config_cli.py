"""Config parsing, CSV/manifest output contracts, CLI exit codes."""

import configparser
import csv
import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from shakenbec import bdg, fitting, twa
from shakenbec.analytics import critical_drive_amplitude, most_unstable_mode
from shakenbec.bdg import NORM_DRIFT_TOL, BdgRunConfig
from shakenbec.cli import main
from shakenbec.config import (
    _KNOWN_KEYS,
    _preset_dir,
    available_presets,
    bdg_from_config,
    drive_from_config,
    lattice_from_config,
    load_config,
    scan_from_config,
    twa_from_config,
)
from shakenbec.errors import (
    BlowUpError,
    ConfigError,
    DomainError,
    InvertedBandError,
    NoCriticalAmplitudeError,
)
from shakenbec.model import DriveSpec, Envelope, Grid, LatticeParams, Trajectory
from shakenbec.twa import TwaRunConfig
from shakenbec.output import format_value, write_csv
from shakenbec.specialmath import j0_first_zero

TWO_PI = 2.0 * math.pi
ROOT = Path(__file__).resolve().parents[1]


def parse(text):
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    cp.read_string(text)
    return cp


BASE = """
[units]
frequency = rad_s

[lattice]
j = 1.0
g = 12.0
gamma0 = 1.0

[drive]
trajectory = linear_x
k0 = 1.25
omega = 9.0
"""


# ------------------------------------------------------------------ units


def test_hz_units_scale_frequencies():
    cp = parse("[lattice]\nj = 50\ng = 700\ngamma0 = 1.5\n")
    p = lattice_from_config(cp)
    assert p.j == pytest.approx(TWO_PI * 50.0, rel=1e-14)
    assert p.g == pytest.approx(TWO_PI * 700.0, rel=1e-14)
    assert p.gamma0 == 1.5  # e-folding rate, never scaled


def test_rad_s_units_pass_through():
    cp = parse(BASE)
    p = lattice_from_config(cp)
    assert p.j == 1.0
    assert p.g == 12.0
    d = drive_from_config(cp)
    assert d.omega == 9.0
    assert d.trajectory is Trajectory.LINEAR_X
    assert d.envelope is None


def test_bad_unit_rejected():
    cp = parse("[units]\nfrequency = thz\n[lattice]\nj = 1\ng = 0\n")
    with pytest.raises(ConfigError, match="hz"):
        lattice_from_config(cp)


# ---------------------------------------------------------------- lattice


def test_missing_key_message():
    cp = parse("[lattice]\ng = 1.0\n")
    with pytest.raises(
        ConfigError, match=r"missing required key 'j' in section \[lattice\]"
    ):
        lattice_from_config(cp)
    with pytest.raises(ConfigError, match=r"section \[drive\]"):
        drive_from_config(cp)


def test_bad_value_message():
    cp = parse(BASE.replace("k0 = 1.25", "k0 = fast"))
    with pytest.raises(ConfigError, match=r"bad value for 'k0'"):
        drive_from_config(cp)


def test_hopping_from_depth():
    cp = parse(
        "[lattice]\ndepth_er = 11\nwavelength_nm = 814\ng = 700\n"
    )
    p = lattice_from_config(cp)
    # an 11-recoil lattice tunnels at about 53 Hz (Rb-87 recoil at 814 nm:
    # 3464.67475454 Hz)
    assert p.j / TWO_PI == pytest.approx(52.96343431830591, rel=1e-8)


def test_transverse_recoil_sets_mass():
    cp = parse(BASE + "\n[x]\na = 1\n")
    cp.set("lattice", "transverse_recoil", "8.0")
    p = lattice_from_config(cp)
    # recoil pi^2 / (2 m a^2) equated to the configured energy
    assert p.m_z == pytest.approx(math.pi**2 / (2.0 * 8.0), rel=1e-14)
    cp2 = parse(BASE)
    cp2.set("lattice", "m_z", "0.25")
    assert lattice_from_config(cp2).m_z == 0.25


def test_lattice_keys_left_out_keep_the_dataclass_defaults():
    cp = parse("[units]\nfrequency = rad_s\n\n[lattice]\nj = 2\ng = 3\n")
    assert lattice_from_config(cp) == LatticeParams(2.0, 3.0)


@pytest.mark.parametrize("overlay, unread", [
    ("depth_er = 11.0\nwavelength_nm = 814.0", "depth_er, wavelength_nm not read with j"),
    ("mass_u = 86.9", "mass_u not read with j"),
    ("m_z = 5", "m_z not read with transverse_recoil"),
])
def test_cli_lattice_keys_left_unread_exit_2(tmp_path, capsys, overlay, unread):
    # paper-11er sets j and transverse_recoil; an overlay key they leave
    # unread would otherwise be recorded in the manifest and ignored
    out = tmp_path / "o"
    cfg = write_cfg(tmp_path, f"[lattice]\n{overlay}\n")
    assert main(["rates", "--preset", "paper-11er", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"shakenbec: config error: [lattice] {unread}: give one or the other\n")
    assert not out.exists()


# ------------------------------------------------------------------ drive


def test_unknown_trajectory():
    cp = parse(BASE.replace("linear_x", "zigzag"))
    with pytest.raises(ConfigError, match="zigzag"):
        drive_from_config(cp)


def test_envelope_attached_when_keys_present():
    cp = parse(BASE + "ramp_up = 3\nhold = 5\n")
    d = drive_from_config(cp)
    assert d.envelope == Envelope(ramp_up=3, hold=5)
    assert d.envelope.ramp_up == 3
    assert d.envelope.hold == 5
    assert d.envelope.ramp_down == 0
    assert not d.envelope.abrupt_stop
    cp = parse(BASE + "abrupt_stop = yes\nend_phase = 1.5707963\nhold = 4\n")
    d = drive_from_config(cp)
    assert d.envelope.abrupt_stop
    assert d.envelope.end_phase == pytest.approx(0.5 * math.pi, rel=1e-6)


# ------------------------------------------------------------------- scans


def test_scan_values_list():
    cp = parse(BASE + "\n[scan]\nvariable = omega\nvalues = 6, 9, 20\n")
    scan = scan_from_config(cp, allowed=("omega", "k0"))
    np.testing.assert_allclose(scan.values, [6.0, 9.0, 20.0])
    assert scan.variable == "omega"


def test_scan_frequency_scaling_only_for_frequencies():
    text = BASE.replace("frequency = rad_s", "frequency = hz")
    cp = parse(text + "\n[scan]\nvariable = omega\nvalues = 10, 20\n")
    np.testing.assert_allclose(
        scan_from_config(cp, ("omega",)).values, [TWO_PI * 10.0, TWO_PI * 20.0]
    )
    cp = parse(text + "\n[scan]\nvariable = k0\nvalues = 0.5, 1.0\n")
    np.testing.assert_allclose(
        scan_from_config(cp, ("k0",)).values, [0.5, 1.0]
    )


def test_scan_linear_and_log_ranges():
    cp = parse(BASE + "\n[scan]\nvariable = omega\nstart = 2\nstop = 4\ncount = 5\n")
    np.testing.assert_allclose(
        scan_from_config(cp, ("omega",)).values, np.linspace(2, 4, 5)
    )
    cp = parse(
        BASE
        + "\n[scan]\nvariable = omega\nstart = 1\nstop = 100\ncount = 3\nspacing = log\n"
    )
    np.testing.assert_allclose(
        scan_from_config(cp, ("omega",)).values, [1.0, 10.0, 100.0]
    )


def test_scan_validation():
    assert scan_from_config(parse(BASE), ("omega",)) is None
    with pytest.raises(ConfigError, match="not supported"):
        scan_from_config(parse(BASE + "\n[scan]\nvariable = g\nvalues = 1\n"), ("omega",))
    with pytest.raises(ConfigError, match="monotonic"):
        scan_from_config(
            parse(BASE + "\n[scan]\nvariable = omega\nvalues = 1, 3, 2\n"), ("omega",)
        )
    with pytest.raises(ConfigError, match="monotonic"):
        scan_from_config(
            parse(BASE + "\n[scan]\nvariable = omega\nvalues = 1, 1\n"), ("omega",)
        )
    with pytest.raises(ConfigError, match="empty"):
        scan_from_config(
            parse(BASE + "\n[scan]\nvariable = omega\nvalues = ,\n"), ("omega",)
        )
    for body in ("values = inf", "values = 6, nan",
                 "start = 1\nstop = inf\ncount = 3"):
        with pytest.raises(ConfigError, match="finite"):
            scan_from_config(
                parse(BASE + f"\n[scan]\nvariable = omega\n{body}\n"), ("omega",)
            )
    with pytest.raises(ConfigError, match="count"):
        scan_from_config(
            parse(BASE + "\n[scan]\nvariable = omega\nstart = 1\nstop = 2\ncount = 0\n"),
            ("omega",),
        )
    with pytest.raises(ConfigError, match="log"):
        scan_from_config(
            parse(
                BASE
                + "\n[scan]\nvariable = omega\nstart = -1\nstop = 2\ncount = 3\nspacing = log\n"
            ),
            ("omega",),
        )
    # one point cannot span a range: start and stop must agree
    for spacing in ("linear", "log"):
        with pytest.raises(ConfigError, match="start and stop must be equal, got 300.0, 400.0"):
            scan_from_config(
                parse(BASE + "\n[scan]\nvariable = omega\nstart = 300\nstop = 400\n"
                      f"count = 1\nspacing = {spacing}\n"),
                ("omega",),
            )
        scan = scan_from_config(
            parse(BASE + "\n[scan]\nvariable = omega\nstart = 300\nstop = 300\n"
                  f"count = 1\nspacing = {spacing}\n"),
            ("omega",),
        )
        np.testing.assert_allclose(scan.values, [300.0])
    # descending scans are legitimate
    scan = scan_from_config(
        parse(BASE + "\n[scan]\nvariable = omega\nvalues = 3, 2, 1\n"), ("omega",)
    )
    np.testing.assert_allclose(scan.values, [3.0, 2.0, 1.0])


# ----------------------------------------------------------- run sections


def test_bdg_section():
    cp = parse(BASE + "\n[bdg]\nnx = 8\nny = 6\nnz = 2\nlz = 4.0\nsteps_per_period = 128\n")
    cfg = bdg_from_config(cp)
    assert cfg.grid == Grid(8, 6, 2, lz=4.0)
    assert cfg.steps_per_period == 128
    with pytest.raises(ConfigError, match=r"\[bdg\]"):
        bdg_from_config(parse(BASE))


def test_empty_bdg_section_takes_the_dataclass_defaults():
    assert bdg_from_config(parse(BASE + "\n[bdg]\n")) == BdgRunConfig()


def test_empty_twa_section_takes_the_dataclass_defaults():
    cfg = twa_from_config(parse(BASE + "\n[twa]\n"))
    assert cfg == TwaRunConfig()
    assert (cfg.grid, cfg.rate_window_cycles) == (Grid(16, 16), 8)


@pytest.mark.parametrize("section, run_config", [("twa", TwaRunConfig), ("bdg", BdgRunConfig)])
def test_engine_section_keys_are_its_run_config_fields(section, run_config):
    # a key outside the dataclass would bypass its defaults and checks
    fields = {f.name for f in dataclasses.fields(run_config)} - {"grid"}
    assert sorted(_KNOWN_KEYS[section]) == sorted({"nx", "ny", "nz", "lz"} | fields)


@pytest.mark.parametrize("build", [bdg_from_config, twa_from_config])
def test_engine_section_errors_in_one_order(build):
    # the int keys are read before the grid keys, and the grid is checked
    # before the run config it sits in
    section = build.__name__.split("_")[0]
    for body, error, message in (
            ("nx = x\nsteps_per_period = y", ConfigError, "bad value for 'steps_per_period'"),
            ("nz = q\nlz = 0", ConfigError, "bad value for 'nz'"),
            ("nx = 0\nsteps_per_period = 1", DomainError, "grid extents"),
            ("steps_per_period = 1", DomainError, "steps_per_period must be >= ")):
        with pytest.raises(error, match=message):
            build(parse(f"[{section}]\n{body}\n"))


def test_twa_section_and_seed_override():
    cp = parse(BASE + "\n[twa]\nnx = 6\nny = 6\nnz = 2\nlz = 4\nmaster_seed = 5\nn_realizations = 3\n")
    cfg = twa_from_config(cp)
    grid = cfg.grid
    assert (grid.nx, grid.ny, grid.nz, grid.lz) == (6, 6, 2, 4.0)
    assert cfg.master_seed == 5
    assert cfg.n_realizations == 3
    assert cfg.n_cycles is None  # 0 means "use the envelope"
    assert cfg.rate_window_cycles == 8
    assert twa_from_config(cp, seed_override=99).master_seed == 99


# ----------------------------------------------------------------- presets


def test_preset_loading_and_layering(tmp_path):
    assert "paper-11er" in available_presets()
    cp = load_config(preset="paper-11ER")  # case-insensitive
    p = lattice_from_config(cp)
    assert p.j == pytest.approx(TWO_PI * 50.0, rel=1e-12)
    assert p.g == pytest.approx(TWO_PI * 700.0, rel=1e-12)
    override = tmp_path / "over.cfg"
    override.write_text("[lattice]\nj = 75\n", encoding="utf-8")
    p2 = lattice_from_config(load_config(str(override), preset="paper-11er"))
    assert p2.j == pytest.approx(TWO_PI * 75.0, rel=1e-12)
    assert p2.g == p.g  # untouched keys survive the overlay


@pytest.mark.parametrize("path, preset", [
    *[(None, name) for name in available_presets()],
    *[(f"perfbench/workloads/{cfg.name}", None)
      for cfg in sorted((ROOT / "perfbench" / "workloads").glob("*.cfg"))],
])
def test_shipped_configs_load(path, preset):
    assert load_config(path and str(ROOT / path), preset).sections()


HEATING_TINY = (
    "[drive]\nhold = 1\n"
    "\n[bdg]\nnx = 4\nny = 4\nnz = 2\nn_cycles = 2\nfit_window_cycles = 1\n"
    "\n[twa]\nnx = 4\nny = 4\nnz = 2\nsteps_per_period = 32\nn_realizations = 2\n"
)
# one overlay per preset that shrinks each of its runs to well under a second
PRESET_TINY = {
    "paper-11er": (
        "[scan]\nvariable = omega\nvalues = 900, 2500\n"
        "\n[bdg]\nnx = 4\nny = 4\nsteps_per_period = 64\nn_cycles = 2\nfit_window_cycles = 1\n"
    ),
    "heating-16x16x8": HEATING_TINY,
    "endphase-12x12": (
        "[twa]\nnx = 4\nny = 4\nsteps_per_period = 32\nn_realizations = 2\n"
        "\n[endphase]\nphases = 0\n"
    ),
}
COMMAND_OUTPUTS = {
    "rates": ["rates.csv"],
    "bdg": ["bdg.csv", "bdg_modes.csv"],
    "twa": ["twa_trace.csv", "twa_rates.csv"],
    "endphase": ["endphase.csv"],
}
# runs no preset header names: a g scan, and a fit of CI's sampled exp(-2 t)
G_SCAN = ("[scan]\nvariable = g\nvalues = 4, 5\n", ["twa_g_scan.csv"])
DECAY_CSV = ("t,y\n0,1\n0.1,0.818731\n0.2,0.670320\n0.3,0.548812\n0.4,0.449329\n"
             "0.6,0.301194\n0.8,0.201897\n1,0.135335\n")


def preset_commands(name):
    """The commands a preset's header comment names: `shakenbec CMD --preset NAME`."""
    header = _preset_dir().joinpath(f"{name}.cfg").read_text(encoding="utf-8").split("\n[")[0]
    return re.findall(rf"shakenbec (\w+) --preset {re.escape(name)}\b", header)


def test_every_preset_names_its_commands():
    assert sorted(PRESET_TINY) == available_presets()
    for name in available_presets():
        commands = preset_commands(name)
        assert commands and set(commands) <= set(COMMAND_OUTPUTS), (name, commands)


@pytest.mark.parametrize("preset, command, extra", [
    *[pytest.param(name, command, ("", COMMAND_OUTPUTS[command]), id=f"{name}-{command}")
      for name in available_presets() for command in preset_commands(name)],
    pytest.param("endphase-12x12", "twa", G_SCAN, id="endphase-12x12-twa-g-scan"),
    pytest.param("endphase-12x12", "fit", ("", ["fit.csv"]), id="endphase-12x12-fit"),
])
def test_cli_preset_runs_every_command_it_names(tmp_path, preset, command, extra):
    overlay, outputs = extra
    cfg = write_cfg(tmp_path, PRESET_TINY[preset] + "\n" + overlay)
    out = tmp_path / "o"
    trace = tmp_path / "decay.csv"
    trace.write_text(DECAY_CSV, encoding="utf-8")
    argv = [command, "--preset", preset, "--config", cfg, "--out", str(out)]
    assert main(argv + [str(trace)] * (command == "fit")) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    # --out holds exactly the listed files, each as its entry pins it
    assert [entry["name"] for entry in manifest["outputs"]] == outputs
    assert sorted(p.name for p in out.iterdir()) == sorted([*outputs, "manifest.json"])
    for entry in manifest["outputs"]:
        data = (out / entry["name"]).read_bytes()
        assert entry["sha256"] == hashlib.sha256(data).hexdigest()
        assert entry["bytes"] == len(data)
    if command == "bdg":
        points = (out / "bdg.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert points and all(row.endswith(",ok") for row in points)
        grid = bdg_from_config(load_config(cfg, preset)).grid
        modes = (out / "bdg_modes.csv").read_text(encoding="utf-8").splitlines()
        assert len(modes) == 1 + len(points) * grid.nx * grid.ny * grid.nz


def test_heating_preset_is_acceptance_08_system():
    cp = load_config(preset="heating-16x16x8")
    grid = Grid(16, 16, 8, lz=12.9)
    assert lattice_from_config(cp) == LatticeParams(j=1.0, g=12.0, n0=50.0, m_z=0.0712)
    assert drive_from_config(cp) == DriveSpec(
        Trajectory.LINEAR_X, 2.1, 20.0, envelope=Envelope(ramp_up=2, hold=22))
    assert bdg_from_config(cp) == BdgRunConfig(
        steps_per_period=1024, n_cycles=10, grid=grid, fit_window_cycles=4)
    assert twa_from_config(cp) == TwaRunConfig(
        steps_per_period=128, grid=grid, n_realizations=8, master_seed=3, rate_window_cycles=8)


@pytest.mark.parametrize("overlay, name", [
    ("[bdg]\nsteps_per_perod = 64\n", "unknown key 'steps_per_perod' in section [bdg]"),
    ("[lattic]\nj = 2\n", "unknown section [lattic]"),
    # its keys would otherwise be read as keys of every other section
    ("[DEFAULT]\nnx = 8\n", "unknown section [DEFAULT]"),
    # n_cycles sets a TWA run's length; there is no second key for it
    ("[twa]\npost_hold_periods = 4\n", "unknown key 'post_hold_periods' in section [twa]"),
    # the vacuum's half quantum is the only noise, and the ramped control always runs
    ("[twa]\nnoise_scale = 0.5\n", "unknown key 'noise_scale' in section [twa]"),
    ("[endphase]\ninclude_ramped = no\n", "unknown key 'include_ramped' in section [endphase]"),
    # the recoil comes from wavelength_nm and mass_u, the band solver keeps its cutoff,
    # and fit keeps fit_decay_rate's R^2 threshold
    ("[lattice]\nrecoil = 3464.7\n", "unknown key 'recoil' in section [lattice]"),
    ("[lattice]\ncutoff = 25\n", "unknown key 'cutoff' in section [lattice]"),
    ("[fit]\nr2_threshold = 0.8\n", "unknown key 'r2_threshold' in section [fit]"),
])
def test_unknown_names_rejected(tmp_path, capsys, overlay, name):
    cfg = write_cfg(tmp_path, overlay)
    with pytest.raises(ConfigError, match=re.escape(name)):
        load_config(cfg, preset="paper-11er")
    out = tmp_path / "o"
    argv = ["bdg", "--preset", "paper-11er", "--config", cfg, "--out", str(out)]
    assert main(argv) == 2
    assert name in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_cli_default_section_alone_is_not_read(tmp_path, capsys):
    # the only section of the config: fit would otherwise ignore it unseen
    trace = tmp_path / "decay.csv"
    trace.write_text(DECAY_CSV, encoding="utf-8")
    cfg = write_cfg(tmp_path, "[DEFAULT]\nkind = mode_occupation\n")
    out = tmp_path / "o"
    assert main(["fit", str(trace), "--config", cfg, "--out", str(out)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("shakenbec: config error: unknown section [DEFAULT]; known: ")
    assert not out.exists()


@pytest.mark.parametrize("overlay, message", [
    ("[drive]\ntrajectory = linear_x%\n", "unknown trajectory 'linear_x%'"),
    # a %(key)s reference is text, never another key's value
    ("[lattice]\ng = 7%(j)s\n", "bad value for 'g' in section [lattice]: '7%(j)s'"),
], ids=["percent", "reference"])
def test_cli_config_values_are_literal(tmp_path, capsys, overlay, message):
    cfg = write_cfg(tmp_path, overlay)
    out = tmp_path / "o"
    assert main(["rates", "--preset", "paper-11er", "--config", cfg, "--out", str(out)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"shakenbec: config error: {message}")
    assert not out.exists()


def test_unknown_preset():
    with pytest.raises(ConfigError, match="unknown preset"):
        load_config(preset="noexist")


def test_missing_config_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/path.cfg")


# --------------------------------------------------------------- csv layer


def test_format_value_rules():
    assert format_value(None) == ""
    assert format_value(True) == "1"
    assert format_value(False) == "0"
    assert format_value(3) == "3"
    assert format_value(math.pi) == "3.14159265359"  # 12 significant digits
    assert format_value(1.0) == "1"
    assert format_value(float("nan")) == "nan"
    assert format_value("text") == "text"


def test_write_csv_contract(tmp_path):
    path = tmp_path / "t.csv"
    n = write_csv(path, ["a", "b_rad_s"], [[1, 2.5], [None, math.pi]])
    assert n == 2
    raw = path.read_bytes()
    assert b"\r" not in raw  # LF only
    text = raw.decode("utf-8")
    assert text == "a,b_rad_s\n1,2.5\n,3.14159265359\n"
    with pytest.raises(ValueError, match="width"):
        write_csv(path, ["a", "b"], [[1]])


def test_write_csv_mixed_types_exact_bytes(tmp_path):
    path = tmp_path / "m.csv"
    rows = [
        [1.0, np.float64(0.1), None, True, np.True_, 7, "s", np.float32(0.1)],
        (math.nan, -math.inf, -0.0, False, np.False_, np.int64(-3), "",
         np.float64(1e-300)),
        [np.float64(math.pi), 1e22, 123456789012345.0, None, None, 0, "x y",
         np.float64(-math.nan)],
        np.array([2.5, math.inf, -1.0, 0.0, 1e-7, 3.0, 4.0, 5.0]),
    ]
    assert write_csv(path, list("abcdefgh"), rows) == 4
    assert path.read_bytes() == (
        b"a,b,c,d,e,f,g,h\n"
        b"1,0.1,,1,1,7,s,0.1\n"
        b"nan,-inf,-0,0,0,-3,,1e-300\n"
        b"3.14159265359,1e+22,1.23456789012e+14,,,0,x y,nan\n"
        b"2.5,inf,-1,0,1e-07,3,4,5\n"
    )
    # one cell formats as write_csv formats it
    for value in (*rows[0], *rows[1], *rows[2]):
        assert format_value(value) == write_csv_cell(tmp_path, value)


def write_csv_cell(tmp_path, value):
    path = tmp_path / "one.csv"
    write_csv(path, ["v"], [[value]])
    return path.read_text(encoding="utf-8").split("\n")[1]


# ------------------------------------------------------------- cli: rates


def write_cfg(tmp_path, body, name="run.cfg"):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return str(path)


RATES_CFG = BASE + "\n[scan]\nvariable = omega\nvalues = 6, 9, 20\n"


def test_cli_rates_outputs(tmp_path):
    cfg = write_cfg(tmp_path, RATES_CFG)
    out = tmp_path / "out"
    assert main(["rates", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "rates.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9  # 3 frequencies x 3 trajectories
    by_traj = {r["trajectory"] for r in rows}
    assert by_traj == {"linear_x", "diagonal", "circular"}
    first = rows[0]
    assert first["omega_hz"] == format_value(6.0 / TWO_PI)
    assert first["regime"] == "low_freq"
    # g = 12 > omega = 6: no critical amplitude on that row
    assert first["k0_critical"] == ""
    high = [r for r in rows if r["omega_rad_s"] == "20"][0]
    assert float(high["k0_critical"]) > 0.0
    diag = [r for r in rows if r["trajectory"] == "diagonal"][0]
    assert diag["cusp_at_bandwidth"] == "1"
    assert diag["n_pairs"] == "2"


def _per_point_rates(cp, stride):
    """rates.csv rows of every stride-th scan point, one scalar call per cell
    group and format_value per cell, in the CLI's row order."""
    p, drive = lattice_from_config(cp), drive_from_config(cp)
    scan = scan_from_config(cp, allowed=("omega", "k0"))
    for value in scan.values[::stride]:
        d = dataclasses.replace(drive, **{scan.variable: float(value)})
        try:
            k0c = critical_drive_amplitude(d.omega, p)
        except NoCriticalAmplitudeError:
            k0c = None
        for traj in Trajectory:
            try:
                res = most_unstable_mode(traj, d.k0, d.omega, p)
                q, cusp = res.q_mum[0], res.cusp
                row = [traj.value, d.k0, d.omega, d.omega / TWO_PI,
                       res.regime.value, q.qx, q.qy, len(res.q_mum), res.gamma,
                       res.big_gamma, cusp.omega_c, cusp.omega_c / TWO_PI,
                       cusp.bandwidth, cusp.equals_bandwidth, k0c, 0]
            except InvertedBandError:
                row = [traj.value, d.k0, d.omega, d.omega / TWO_PI,
                       *[None] * 10, k0c, 1]
            yield ",".join(format_value(v) for v in row)


K0_VALUES = [0.0, 0.5, 2.4, 2.4048255576957724, 2.41, 10.0, 50.0, 50.5, 60.0]
K0_ACROSS_ZERO = BASE + (
    "\n[scan]\nvariable = k0\nvalues = " + ", ".join(map(repr, K0_VALUES)) + "\n"
)


@pytest.mark.parametrize("source, stride", [
    ("rates-scan", 20), ("paper-11er", 1), ("k0-across-zero", 1),
])
def test_cli_rates_matches_per_point_calls(tmp_path, source, stride):
    # the array path writes, byte for byte, what one scalar call per
    # point formats (rates-scan: every 20th of its 6000 points)
    if source == "paper-11er":
        args, cp = ["--preset", source], load_config(preset=source)
    else:
        cfg = (str(ROOT / "perfbench" / "workloads" / "rates-scan.cfg")
               if source == "rates-scan" else write_cfg(tmp_path, K0_ACROSS_ZERO))
        args, cp = ["--config", cfg], load_config(cfg)
    out = tmp_path / "o"
    assert main(["rates", *args, "--out", str(out)]) == 0
    lines = (out / "rates.csv").read_text(encoding="utf-8").splitlines()[1:]
    n_traj = len(Trajectory)
    assert len(lines) == n_traj * scan_from_config(cp, ("omega", "k0")).values.size
    picked = [line for i, line in enumerate(lines) if (i // n_traj) % stride == 0]
    assert picked == list(_per_point_rates(cp, stride))


def test_cli_rates_k0_scan_past_the_first_zero(tmp_path):
    cfg = write_cfg(tmp_path, K0_ACROSS_ZERO)
    out = tmp_path / "o"
    assert main(["rates", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "rates.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9 * 3
    mode_cells = ["regime", "qx_mum", "qy_mum", "n_pairs", "gamma_rad_s",
                  "big_gamma_rad_s", "omega_c_rad_s", "omega_c_hz",
                  "bandwidth_rad_s", "cusp_at_bandwidth"]
    for i, row in enumerate(rows):
        inverted = K0_VALUES[i // 3] >= j0_first_zero()
        assert row["inverted_band"] == ("1" if inverted else "0")
        assert all((row[c] == "") == inverted for c in mode_cells), row
        assert row["k0_critical"] == ""  # g = 12 > omega = 9: no threshold
    assert sum(r["inverted_band"] == "1" for r in rows) >= 3 * 5  # 2.41 and up


def test_cli_rates_omega_scan_across_g_leaves_k0c_empty(tmp_path):
    # g = 12: below it there is no critical amplitude, and the cell is
    # empty, never "nan"
    body = BASE + "\n[scan]\nvariable = omega\nvalues = 3, 11.9, 12, 12.1, 40\n"
    out = tmp_path / "o"
    assert main(["rates", "--config", write_cfg(tmp_path, body), "--out", str(out)]) == 0
    text = (out / "rates.csv").read_text(encoding="utf-8")
    assert "nan" not in text
    rows = list(csv.DictReader(text.splitlines()))
    for row in rows:
        assert (row["k0_critical"] == "") == (float(row["omega_rad_s"]) < 12.0)
    assert rows[6]["k0_critical"] == "0"  # omega = g: J0(k0c) = 1


@pytest.mark.parametrize("variable, values, message", [
    ("omega", "-3, 6, 9", "drive frequency must be positive, got -3.0"),
    ("omega", "9, 6, 0, -1", "drive frequency must be positive, got 0.0"),
    ("k0", "-0.5, 0.5, 1.0", "drive amplitude must be >= 0, got -0.5"),
])
def test_cli_rates_bad_scan_value_exits_2(tmp_path, capsys, variable, values, message):
    body = BASE + f"\n[scan]\nvariable = {variable}\nvalues = {values}\n"
    out = tmp_path / "o"
    assert main(["rates", "--config", write_cfg(tmp_path, body), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"shakenbec: invalid parameter: {message}\n"
    assert not (out / "rates.csv").exists()


def test_cli_manifest_and_reproducibility(tmp_path):
    cfg = write_cfg(tmp_path, RATES_CFG)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["rates", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["rates", "--config", cfg, "--out", str(out2)]) == 0
    m = json.loads((out1 / "manifest.json").read_text())
    for key in (
        "tool", "versions", "command", "seed", "workers", "config",
        "config_sha256", "started", "finished", "outputs", "diagnostics",
    ):
        assert key in m
    assert m["diagnostics"] == {}
    assert m["tool"] == "shakenbec"
    assert m["command"] == "rates"
    assert m["versions"]["numpy"] == np.__version__
    assert m["config"]["lattice"]["g"] == "12.0"
    entry = m["outputs"][0]
    assert entry["name"] == "rates.csv"
    import hashlib

    digest = hashlib.sha256((out1 / "rates.csv").read_bytes()).hexdigest()
    assert entry["sha256"] == digest
    # identical configs produce byte-identical data files
    assert (out1 / "rates.csv").read_bytes() == (out2 / "rates.csv").read_bytes()
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m2["outputs"] == m["outputs"]
    assert m2["config_sha256"] == m["config_sha256"]


def test_cli_manifest_digests_an_output_of_many_chunks(tmp_path):
    # a 2,000-point scan writes about 1 MB, so the digest reads many
    # 64 KiB chunks; the built-in SHA-256 agrees with hashlib's
    body = BASE + "\n[scan]\nvariable = omega\nstart = 6\nstop = 40\ncount = 2000\n"
    out = tmp_path / "o"
    assert main(["rates", "--config", write_cfg(tmp_path, body), "--out", str(out)]) == 0
    m = json.loads((out / "manifest.json").read_text())
    [entry] = m["outputs"]
    data = (out / "rates.csv").read_bytes()
    assert entry["bytes"] == len(data) > 10 * (1 << 16)
    assert entry["sha256"] == hashlib.sha256(data).hexdigest()
    config_blob = json.dumps(m["config"], sort_keys=True).encode("utf-8")
    assert m["config_sha256"] == hashlib.sha256(config_blob).hexdigest()


@pytest.mark.parametrize("old, new", [
    ("k0 = 1.25", "k0 = nan"),
    ("omega = 9.0", "omega = inf"),
    ("j = 1.0", "j = nan"),
    ("j = 1.0", "wavelength_nm = 814\ndepth_er = nan"),
    ("j = 1.0", "wavelength_nm = 814\ndepth_er = inf"),
    ("j = 1.0", "depth_er = 5\nwavelength_nm = nan"),
    pytest.param("lz = 1", "lz = nan", id="twa-lz-nan"),
])
def test_cli_rejects_non_finite_inputs(tmp_path, capsys, old, new):
    # [twa] inputs are checked where they enter, before any field is evolved
    command, body = ("twa", TWA_BODY) if old == "lz = 1" else ("rates", RATES_CFG)
    cfg = write_cfg(tmp_path, body.replace(old, new))
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    field = new.split("\n")[-1].split(" = ")[0]
    # a NaN wavelength makes a NaN recoil energy, BandProblem's recoil_hz
    field = {"wavelength_nm": "recoil_hz"}.get(field, field)
    assert f"invalid parameter: {field} must be finite" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("n_cycles", ["0", "-3"])
def test_cli_twa_rejects_non_positive_n_cycles(tmp_path, capsys, n_cycles):
    # the envelope's schedule is there to fall back on, and must not be
    body = TWA_BODY.replace("omega = 9.0", "omega = 9.0\nramp_up = 2\nhold = 2")
    cfg = write_cfg(tmp_path, body.replace("n_cycles = 6", f"n_cycles = {n_cycles}"))
    out = tmp_path / "o"
    assert main(["twa", "--config", cfg, "--out", str(out)]) == 2
    assert "invalid parameter: n_cycles must be >= 1" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("out", ["taken", "taken/o"], ids=["file", "under-a-file"])
def test_cli_rejects_unusable_out(tmp_path, capsys, out):
    taken = tmp_path / "taken"
    taken.write_text("keep me\n", encoding="utf-8")
    cfg = write_cfg(tmp_path, RATES_CFG)
    assert main(["rates", "--config", cfg, "--out", str(tmp_path / out)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"shakenbec: config error: cannot create --out {tmp_path / out}: ")
    assert taken.read_text(encoding="utf-8") == "keep me\n"


def test_cli_exit_codes(tmp_path):
    out = str(tmp_path / "x")
    assert main(["rates", "--config", "/nonexistent.cfg", "--out", out]) == 2
    bad = write_cfg(tmp_path, BASE.replace("k0 = 1.25", "k0 = fast"), "bad.cfg")
    assert main(["rates", "--config", bad, "--out", out]) == 2
    neg = write_cfg(tmp_path, BASE.replace("k0 = 1.25", "k0 = -2"), "neg.cfg")
    assert main(["rates", "--config", neg, "--out", out]) == 2


def test_cli_bdg_single_point_failure_is_exit_3(tmp_path, capsys):
    body = BASE.replace("k0 = 1.25", "k0 = 2.1").replace("omega = 9.0", "omega = 20.0")
    body += (
        "\n[bdg]\nnx = 4\nny = 4\nnz = 1\nsteps_per_period = 64\n"
        "n_cycles = 64\nfit_window_cycles = 8\n"
    )
    cfg = write_cfg(tmp_path, body)
    assert main(["bdg", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("shakenbec: numerical failure: ")
    assert not list((tmp_path / "o").glob("*.csv"))


def test_cli_bdg_rejects_a_one_point_grid(tmp_path, capsys):
    # the only mode of a 1 x 1 x 1 grid is the condensate, which a scan
    # excludes: a parameter error before any run, and no --out made
    body = BASE + "\n[bdg]\nnx = 1\nny = 1\nnz = 1\n"
    out = tmp_path / "o"
    assert main(["bdg", "--config", write_cfg(tmp_path, body), "--out", str(out)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line == ("shakenbec: invalid parameter: the grid needs a mode besides "
                    "the condensate q = 0, got 1 x 1 x 1")
    assert not out.exists()


def test_cli_bdg_scan_marks_failed_points(tmp_path):
    body = BASE.replace("k0 = 1.25", "k0 = 2.1")
    body += (
        "\n[bdg]\nnx = 4\nny = 4\nnz = 1\nsteps_per_period = 64\n"
        "n_cycles = 64\nfit_window_cycles = 8\n"
        "\n[scan]\nvariable = omega\nvalues = 20, 100\n"
    )
    cfg = write_cfg(tmp_path, body)
    out = tmp_path / "o"
    assert main(["bdg", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "bdg.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    status = {r["omega_rad_s"]: r["status"] for r in rows}
    assert status["20"] == "IntegratorToleranceError"
    assert status["100"] == "ok"
    failed = [r for r in rows if r["status"] != "ok"][0]
    assert failed["extracted_rate_rad_s"] == ""
    with open(out / "bdg_modes.csv", encoding="utf-8", newline="") as fh:
        modes = list(csv.DictReader(fh))
    assert [r["omega_rad_s"] for r in modes] == ["100"] * 16  # the finished point only
    diag = json.loads((out / "manifest.json").read_text())["diagnostics"]
    [point] = diag["failed_points"]
    assert (point["variable"], point["value"]) == ("omega", 20.0)
    assert point["error"] == "IntegratorToleranceError"
    assert point["message"]
    assert 0.0 <= diag["norm_drift_max"] <= NORM_DRIFT_TOL
    # only the finished point counts: 9 modes of the 4x4 grid (one per
    # (q, -q) pair) over a 32-step half period
    assert diag["mode_steps"] == 9 * 32


def test_cli_bdg_counts_mode_steps(tmp_path):
    # the benchmark's bdg-scan: 4 constant-drive points, one 256-step half
    # period map for each of the 289 modes that represent the 575 grid
    # modes of the 24x24 grid at 512 steps per period
    cfg = str(ROOT / "perfbench" / "workloads" / "bdg-scan.cfg")
    out = tmp_path / "o"
    assert main(["bdg", "--preset", "paper-11er", "--config", cfg, "--out", str(out)]) == 0
    diag = json.loads((out / "manifest.json").read_text())["diagnostics"]
    assert diag["mode_steps"] == 4 * 289 * 256 == 295_936


def test_cli_bdg_modes_match_the_grid_scan(tmp_path):
    body = BASE + (
        "\n[bdg]\nnx = 4\nny = 6\nnz = 2\nlz = 4.0\nsteps_per_period = 512\n"
        "n_cycles = 12\nfit_window_cycles = 4\n"
        "\n[scan]\nvariable = k0\nvalues = 1.25, 2.0\n"
    )
    cfg = write_cfg(tmp_path, body)
    out = tmp_path / "o"
    assert main(["bdg", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "bdg.csv", encoding="utf-8", newline="") as fh:
        points = list(csv.DictReader(fh))
    with open(out / "bdg_modes.csv", encoding="utf-8", newline="") as fh:
        modes = list(csv.DictReader(fh))
    cp = load_config(cfg)
    p, drive, run_cfg = lattice_from_config(cp), drive_from_config(cp), bdg_from_config(cp)
    grid = run_cfg.grid
    assert len(modes) == len(points) * grid.n_modes
    for i, (point, k0) in enumerate(zip(points, [1.25, 2.0])):
        rates = bdg.grid_instability_scan(dataclasses.replace(drive, k0=k0), p, run_cfg).rates
        rows = modes[i * grid.n_modes:(i + 1) * grid.n_modes]
        head = [point[c] for c in ("trajectory", "k0", "omega_rad_s", "omega_hz")]
        want = [
            [*head, *map(format_value, (grid.qx_axis[ix], grid.qy_axis[iy],
                                        grid.qz_axis[iz], rates[ix, iy, iz]))]
            for ix, iy, iz in np.ndindex(rates.shape)
        ]
        assert [list(r.values()) for r in rows] == want
        # the fastest mode is the one bdg.csv reports, up to q -> -q
        top = max(rows, key=lambda r: float(r["rate_rad_s"]))
        assert top["rate_rad_s"] == point["extracted_rate_rad_s"]
        q_top = np.hypot.reduce([float(top[c]) for c in ("qx", "qy", "qz")])
        q_max = np.hypot.reduce([float(point[c]) for c in ("qx_max", "qy_max", "qz_max")])
        assert q_top == pytest.approx(q_max, rel=1e-11)


def test_cli_bdg_analytic_rate_is_twice_gamma(tmp_path):
    # the scan reports occupation rates, 2 gamma per mode, whatever the
    # number of resonant pairs; the analytic column is the same quantity.
    # The k0 scan crosses the first zero of J0 (2.405), past which the
    # band is inverted and the analytic cell is empty
    body = BASE.replace("linear_x", "circular").replace("omega = 9.0", "omega = 11.0") + (
        "\n[bdg]\nnx = 4\nny = 4\nsteps_per_period = 128\nn_cycles = 4\n"
        "fit_window_cycles = 2\n\n[scan]\nvariable = k0\nvalues = 1.25, 2.41\n"
    )
    cfg = write_cfg(tmp_path, body)
    out = tmp_path / "o"
    assert main(["bdg", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "bdg.csv", encoding="utf-8", newline="") as fh:
        row, inverted = csv.DictReader(fh)
    ana = most_unstable_mode(Trajectory.CIRCULAR, 1.25, 11.0, lattice_from_config(load_config(cfg)))
    assert len(ana.q_mum) > 1  # where big_gamma - gamma0 would double count
    assert row["analytic_rate_rad_s"] == format_value(2.0 * ana.gamma)
    assert row["analytic_rate_rad_s"] != format_value(ana.big_gamma)
    assert inverted["k0"] == "2.41" and inverted["analytic_rate_rad_s"] == ""


def test_cli_bdg_workers_byte_identical(tmp_path):
    # bdg runs in one process: the worker count must not touch its output
    body = BASE + (
        "\n[bdg]\nnx = 6\nny = 6\nnz = 1\nsteps_per_period = 512\n"
        "n_cycles = 12\nfit_window_cycles = 4\n"
        "\n[scan]\nvariable = omega\nvalues = 6, 11\n"
    )
    cfg = write_cfg(tmp_path, body)
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    workers = str(min(2, os.cpu_count() or 1))
    assert main(["bdg", "--config", cfg, "--out", str(out1), "--workers", "1"]) == 0
    assert main(["bdg", "--config", cfg, "--out", str(out2), "--workers", workers]) == 0
    assert (out1 / "bdg.csv").read_bytes() == (out2 / "bdg.csv").read_bytes()


@pytest.mark.parametrize("command, args, outputs", [
    ("rates", ["--preset", "paper-11er"], COMMAND_OUTPUTS["rates"]),
    ("bdg", ["--preset", "paper-11er", "--config", "tiny-bdg.cfg"], COMMAND_OUTPUTS["bdg"]),
    ("fit", ["trace.csv"], ["fit.csv"]),
], ids=["rates", "bdg", "fit"])
def test_cli_commands_without_an_ensemble_record_null_seed_and_workers(
        tmp_path, monkeypatch, command, args, outputs):
    # only twa and endphase read --seed and --workers; the other commands
    # accept both, write the same bytes with them, and record neither
    monkeypatch.chdir(tmp_path)
    Path("tiny-bdg.cfg").write_text(
        "[bdg]\nnx = 8\nny = 8\nsteps_per_period = 64\nn_cycles = 2\nfit_window_cycles = 1\n"
        "\n[scan]\nvariable = omega\nvalues = 2500\n", encoding="utf-8")
    Path("trace.csv").write_text(DECAY_CSV, encoding="utf-8")
    workers = str(min(2, os.cpu_count() or 1))
    assert main([command, *args, "--out", "plain"]) == 0
    assert main([command, *args, "--out", "flags", "--seed", "5", "--workers", workers]) == 0
    for out in ("plain", "flags"):
        m = json.loads(Path(out, "manifest.json").read_text())
        assert (m["seed"], m["workers"]) == (None, None)
    for name in outputs:
        assert Path("plain", name).read_bytes() == Path("flags", name).read_bytes()


@pytest.mark.parametrize("workers", ["0", "-1", str((os.cpu_count() or 1) + 1)])
def test_cli_workers_out_of_range(tmp_path, capsys, workers):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["twa", "--out", str(out), "--workers", workers])
    assert exc.value.code == 2
    assert f"1..{os.cpu_count() or 1}" in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------------ cli: others


TWA_BODY = (
    BASE
    + "\n[twa]\nnx = 6\nny = 6\nnz = 1\nlz = 1\nsteps_per_period = 16\n"
    "n_cycles = 6\nn_realizations = 3\nmaster_seed = 2\n"
    "bootstrap_resamples = 20\nrate_window_cycles = 4\n"
)


@pytest.mark.parametrize("keys, message", [
    # a constant drive would become a one-period ramp that stops at t = T
    ("end_phase = 1.0\n", "[drive] end_phase is read only with abrupt_stop = true"),
    ("ramp_up = 2\nend_phase = 1.0\n", "[drive] end_phase is read only with abrupt_stop"),
    ("hold = 3\nabrupt_stop = yes\nramp_down = 2\n",
     "[drive] ramp_down is not read with abrupt_stop = true"),
    ("abrupt_stop = yes\n", "[drive] abrupt_stop needs ramp_up or hold"),
    ("ramp_down = 2\n", "[drive] ramp_down needs ramp_up or hold"),
], ids=["end-phase-alone", "end-phase-without-abrupt-stop", "ramp-down-with-abrupt-stop",
        "abrupt-stop-without-ramp-up-or-hold", "ramp-down-without-ramp-up-or-hold"])
def test_cli_rejects_envelope_keys_it_would_not_read(tmp_path, capsys, monkeypatch,
                                                     keys, message):
    def no_run(*args, **kwargs):
        raise AssertionError("the ensemble ran before the config was checked")

    monkeypatch.setattr(twa, "ensemble_run", no_run)
    cfg = write_cfg(tmp_path, TWA_BODY.replace("omega = 9.0\n", "omega = 9.0\n" + keys))
    out = tmp_path / "o"
    assert main(["twa", "--config", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("scan", ["", "\n[scan]\nvariable = g\nvalues = 4, 5\n"],
                         ids=["run", "g-scan"])
def test_cli_twa_zero_run_length_fails_before_running(tmp_path, capsys, monkeypatch, scan):
    # a constant drive with no [twa] n_cycles has no run length
    def no_run(*args, **kwargs):
        raise AssertionError("the ensemble ran before the run length was checked")

    monkeypatch.setattr(twa, "ensemble_run", no_run)
    cfg = write_cfg(tmp_path, (
        "[units]\nfrequency = rad_s\n\n[lattice]\nj = 1\ng = 5\nn0 = 100\n"
        "\n[drive]\ntrajectory = linear_x\nk0 = 1\nomega = 12.5\n"
        "\n[twa]\nnx = 8\nny = 8\nn_realizations = 4\n" + scan))
    out = tmp_path / "o"
    workers = str(min(2, os.cpu_count() or 1))
    assert main(["twa", "--config", cfg, "--out", str(out), "--workers", workers]) == 2
    assert capsys.readouterr().err == (
        "shakenbec: config error: run length is zero: give n_cycles or an envelope\n")
    assert not out.exists()


def test_cli_twa_trace_run(tmp_path):
    cfg = write_cfg(tmp_path, TWA_BODY)
    out = tmp_path / "o"
    assert main(["twa", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "twa_trace.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 7  # n_cycles + 1 samples
    assert [r["cycle"] for r in rows] == [str(i) for i in range(7)]
    for r in rows:
        n_raw, n_sub = float(r["n_ex_raw"]), float(r["n_ex"])
        assert n_raw > n_sub  # half-quantum subtraction
        assert float(r["band_lo"]) <= n_sub <= float(r["band_hi"])
        assert 0.0 <= float(r["condensed_fraction"]) <= 1.0
    with open(out / "twa_rates.csv", encoding="utf-8", newline="") as fh:
        rate_rows = list(csv.DictReader(fh))
    assert [r["window"] for r in rate_rows] == ["early", "late"]
    manifest = json.loads((out / "manifest.json").read_text())
    names = {e["name"] for e in manifest["outputs"]}
    assert names == {"twa_trace.csv", "twa_rates.csv"}
    assert manifest["seed"] is None
    assert 0.0 < manifest["diagnostics"]["atom_drift_max"] <= twa.ATOM_DRIFT_TOL


def test_cli_twa_seed_flag_recorded(tmp_path):
    cfg = write_cfg(tmp_path, TWA_BODY)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["twa", "--config", cfg, "--out", str(out1), "--seed", "7"]) == 0
    assert main(["twa", "--config", cfg, "--out", str(out2), "--seed", "7",
                 "--workers", "2"]) == 0
    m = json.loads((out1 / "manifest.json").read_text())
    assert m["seed"] == 7
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert (m2["seed"], m2["workers"]) == (7, 2)
    # reruns with the same seed are byte-identical even across workers
    assert (out1 / "twa_trace.csv").read_bytes() == (out2 / "twa_trace.csv").read_bytes()


def test_cli_twa_g_scan(tmp_path):
    cfg = write_cfg(tmp_path, TWA_BODY + "\n[scan]\nvariable = g\nvalues = 6, 12\n")
    out = tmp_path / "o"
    assert main(["twa", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "twa_g_scan.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["g_rad_s"] for r in rows] == ["6", "12"]
    assert [r["g_over_j"] for r in rows] == ["6", "12"]
    assert all(r["status"] == "ok" for r in rows)
    diag = json.loads((out / "manifest.json").read_text())["diagnostics"]
    assert diag["failed_points"] == []
    assert 0.0 < diag["atom_drift_max"] <= twa.ATOM_DRIFT_TOL


@pytest.mark.parametrize("keys", ["n_realizations = 1\n", "bootstrap_resamples = 1\n"],
                         ids=["one-realization", "one-resample"])
def test_cli_twa_quotes_no_degenerate_uncertainty(tmp_path, keys):
    # a bootstrap over one row or one resample has zero width by
    # construction: the band and rate error cells stay empty, the rest not
    body = re.sub(rf"^{keys.split()[0]} = .*\n", keys, TWA_BODY, flags=re.M)
    cfg = write_cfg(tmp_path, body)
    assert main(["twa", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    with open(tmp_path / "o" / "twa_trace.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 7
    for r in rows:
        assert (r["band_lo"], r["band_hi"]) == ("", "")
        assert float(r["n_ex_raw"]) > float(r["n_ex"])
    with open(tmp_path / "o" / "twa_rates.csv", encoding="utf-8", newline="") as fh:
        rate_rows = list(csv.DictReader(fh))
    assert [r["window"] for r in rate_rows] == ["early", "late"]
    assert all(r["rate_err_rad_s"] == "" and r["rate_rad_s"] != "" for r in rate_rows)
    scan = write_cfg(tmp_path, body + "\n[scan]\nvariable = g\nvalues = 6, 12\n", "scan.cfg")
    assert main(["twa", "--config", scan, "--out", str(tmp_path / "g")]) == 0
    with open(tmp_path / "g" / "twa_g_scan.csv", encoding="utf-8", newline="") as fh:
        scan_rows = list(csv.DictReader(fh))
    assert [(r["rate_err_rad_s"], r["status"]) for r in scan_rows] == [("", "ok")] * 2
    assert all(r["rate_rad_s"] != "" for r in scan_rows)


def test_cli_twa_g_scan_records_failed_point(tmp_path, monkeypatch):
    real_run = twa.ensemble_run

    def run_failing_at_g12(drive, p, *rest, **kw):
        if p.g == 12.0:
            raise BlowUpError("atom number drifted")
        return real_run(drive, p, *rest, **kw)

    monkeypatch.setattr(twa, "ensemble_run", run_failing_at_g12)
    cfg = write_cfg(tmp_path, TWA_BODY + "\n[scan]\nvariable = g\nvalues = 6, 12\n")
    out = tmp_path / "o"
    assert main(["twa", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "twa_g_scan.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["status"] for r in rows] == ["ok", "BlowUpError"]
    assert rows[1]["warning"] == ""  # a failed point has no fit to warn about
    diag = json.loads((out / "manifest.json").read_text())["diagnostics"]
    assert diag["failed_points"] == [{
        "variable": "g", "value": 12.0, "error": "BlowUpError",
        "message": "atom number drifted",
    }]
    assert 0.0 < diag["atom_drift_max"] <= twa.ATOM_DRIFT_TOL


def test_cli_twa_g_scan_counts_site_steps_of_finished_points(tmp_path, monkeypatch):
    real_run = twa.ensemble_run

    def run_failing_at_g12(drive, p, *rest, **kw):
        if p.g == 12.0:
            raise BlowUpError("atom number drifted")
        return real_run(drive, p, *rest, **kw)

    monkeypatch.setattr(twa, "ensemble_run", run_failing_at_g12)
    cfg = write_cfg(tmp_path, TWA_BODY + "\n[scan]\nvariable = g\nvalues = 6, 8, 12\n")
    out = tmp_path / "o"
    assert main(["twa", "--config", cfg, "--out", str(out)]) == 0
    diag = json.loads((out / "manifest.json").read_text())["diagnostics"]
    # g = 6 and 8 finished: 6 x 6 x 1 sites, 3 realizations, 16 x 6 steps each
    assert diag["site_steps"] == 2 * 36 * 3 * 16 * 6


@pytest.mark.parametrize("command, workload, workers, site_steps", [
    ("twa", "twa-3d", "2", 31_457_280),  # 16 x 16 x 8 sites, 12 realizations, 128 x 10 steps
    # 12 x 12 x 1 sites, 6 realizations x 3 protocols, 128 x 15 steps
    ("endphase", "endphase-2d", "1", 4_976_640),
])
def test_cli_twa_counts_site_steps(tmp_path, command, workload, workers, site_steps):
    # the benchmark's twa-3d and endphase-2d, whose sizes perfbench/workloads.py states
    cfg = str(ROOT / "perfbench" / "workloads" / f"{workload}.cfg")
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out), "--workers", workers]) == 0
    assert json.loads((out / "manifest.json").read_text())["diagnostics"][
        "site_steps"] == site_steps


ENDPHASE_BODY = (
    BASE.replace("omega = 9.0", "omega = 9.0\nramp_up = 2\nhold = 2")
    + "\n[twa]\nnx = 6\nny = 6\nnz = 1\nlz = 1\nsteps_per_period = 16\n"
    "n_realizations = 2\nmaster_seed = 1\nbootstrap_resamples = 10\n"
    + "\n[endphase]\nphases = 0, 1.5707963267948966\npost_hold_periods = 4\n"
)


def test_cli_endphase(tmp_path):
    cfg = write_cfg(tmp_path, ENDPHASE_BODY)
    out = tmp_path / "o"
    assert main(["endphase", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "endphase.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["protocol"] for r in rows] == ["abrupt", "abrupt", "ramped"]
    assert rows[0]["end_phase_rad"] == "0"
    assert rows[2]["end_phase_rad"] == ""
    for r in rows:
        assert float(r["n_ex_final"]) == float(r["n_ex_final"])  # parses
    diag = json.loads((out / "manifest.json").read_text())["diagnostics"]
    assert 0.0 < diag["atom_drift_max"] <= twa.ATOM_DRIFT_TOL


def test_cli_endphase_lists_twa_keys_it_does_not_read(tmp_path, capsys):
    # endphase accepts the twa command's fit keys, which presets shared with
    # twa set, reads neither, and says so in the manifest and one log line
    outs = {}
    for name, body in (
        ("neither", ENDPHASE_BODY.replace("bootstrap_resamples = 10\n", "")),
        ("one", ENDPHASE_BODY),
        ("both", ENDPHASE_BODY.replace("bootstrap_resamples = 10\n",
                                       "rate_window_cycles = 2\nbootstrap_resamples = 10\n")),
    ):
        out = outs[name] = tmp_path / name
        assert main(["endphase", "--config", write_cfg(tmp_path, body), "--out", str(out)]) == 0
        diag = json.loads((out / "manifest.json").read_text())["diagnostics"]
        want = {"neither": [], "one": ["twa.bootstrap_resamples"],
                "both": ["twa.bootstrap_resamples", "twa.rate_window_cycles"]}[name]
        assert diag["unused_keys"] == want
        err = capsys.readouterr().err.splitlines()
        if want:
            [line] = err
            assert line.startswith(f"shakenbec endphase: {', '.join(want)} not read")
        else:
            assert err == []
    csvs = {(out / "endphase.csv").read_bytes() for out in outs.values()}
    assert len(csvs) == 1


def test_cli_endphase_preset(tmp_path):
    assert "endphase-12x12" in available_presets()
    cfg = write_cfg(tmp_path, "[twa]\nn_realizations = 2\n\n[endphase]\nphases = 0\n")
    out = tmp_path / "o"
    argv = ["endphase", "--preset", "endphase-12x12", "--config", cfg, "--out", str(out)]
    assert main(argv) == 0
    with open(out / "endphase.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["protocol"], r["end_phase_rad"]) for r in rows] == [
        ("abrupt", "0"), ("ramped", "")
    ]
    for r in rows:
        assert float(r["n_ex_at_stop"]) > 0.0 and float(r["n_ex_final"]) > 0.0


def test_cli_endphase_workers_byte_identical(tmp_path):
    body = ENDPHASE_BODY.replace("n_realizations = 2", "n_realizations = 3")
    cfg = write_cfg(tmp_path, body)
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    workers = str(min(2, os.cpu_count() or 1))
    for out, n in ((out1, "1"), (out2, workers)):
        assert main(["endphase", "--config", cfg, "--out", str(out), "--workers", n]) == 0
    assert (out1 / "endphase.csv").read_bytes() == (out2 / "endphase.csv").read_bytes()


@pytest.mark.parametrize("old, new, message", [
    ("post_hold_periods = 4\n", "post_hold_periods = 4\nramp_down = 6\n",
     "ramp_down exceeds post_hold_periods + 1"),
    # an instant switch-off at the end of the hold: a kick, not a ramp
    ("post_hold_periods = 4\n", "post_hold_periods = 4\nramp_down = 0\n",
     "[endphase] ramp_down must be >= 1"),
    # the endphase schedule sets the run length; these [twa] keys would be ignored
    ("bootstrap_resamples = 10\n", "bootstrap_resamples = 10\nn_cycles = 3\n",
     "[twa] n_cycles is not read by endphase, which runs ramp_up + hold + "
     "[endphase] post_hold_periods + 1 periods"),
    # endphase builds its own stops; these [drive] keys would be ignored
    ("ramp_up = 2\n", "ramp_up = 2\nramp_down = 5\n",
     "[drive] ramp_down is not read by endphase, which builds its own stops: "
     "set [endphase] ramp_down and phases instead"),
    ("ramp_up = 2\n", "ramp_up = 2\nabrupt_stop = yes\n", "[drive] abrupt_stop is not read"),
    ("ramp_up = 2\n", "ramp_up = 2\nend_phase = 1.0\n", "[drive] end_phase is not read"),
    # no abrupt stop would leave the ramped control with nothing to compare
    ("phases = 0, 1.5707963267948966\n", "phases =\n", "[endphase] phases list is empty"),
])
def test_cli_endphase_rejects_before_running(tmp_path, capsys, monkeypatch,
                                             old, new, message):
    def no_run(*args, **kwargs):
        raise AssertionError("the ensemble ran before the config was checked")

    monkeypatch.setattr(twa, "ensemble_run", no_run)
    cfg = write_cfg(tmp_path, ENDPHASE_BODY.replace(old, new))
    out = tmp_path / "o"
    assert main(["endphase", "--config", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("command, preset, engine, scan, message", [
    ("bdg", "paper-11er", (bdg, "grid_instability_scan"),
     "[bdg]\nnx = 8\nny = 8\n\n[scan]\nvariable = k0\nvalues = 1.0, 0.5, -0.5\n",
     "drive amplitude must be >= 0, got -0.5"),
    ("twa", "endphase-12x12", (twa, "ensemble_run"),
     "[scan]\nvariable = g\nvalues = 5, 0, -1\n",
     "interaction energy must be >= 0, got -1.0"),
], ids=["bdg-k0", "twa-g"])
def test_cli_scan_checks_every_point_before_running(tmp_path, capsys, monkeypatch,
                                                    command, preset, engine, scan,
                                                    message):
    # a bad last point fails the whole scan before the first point runs
    def no_run(*args, **kwargs):
        raise AssertionError("a scan point ran before every point was checked")

    monkeypatch.setattr(*engine, no_run)
    cfg = write_cfg(tmp_path, scan)
    out = tmp_path / "o"
    assert main([command, "--preset", preset, "--config", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, args", [
    ("endphase", ["--preset", "endphase-12x12"]),
    ("fit", ["trace.csv"]),
])
def test_cli_commands_that_run_no_scan_reject_one(tmp_path, capsys, monkeypatch,
                                                  command, args):
    def no_run(*args, **kwargs):
        raise AssertionError("ran before the config was checked")

    monkeypatch.setattr(twa, "ensemble_run", no_run)
    monkeypatch.setattr(fitting, "fit_decay_rate", no_run)
    monkeypatch.chdir(tmp_path)
    Path("trace.csv").write_text("t,y\n0,1\n1,0.5\n", encoding="utf-8")
    cfg = write_cfg(tmp_path, "[scan]\nvariable = g\nvalues = 4, 5\n")
    out = tmp_path / "o"
    assert main([command, *args, "--config", cfg, "--out", str(out)]) == 2
    assert (capsys.readouterr().err
            == f"shakenbec: config error: {command} runs no scan; remove the [scan] section\n")
    assert not out.exists()


@pytest.mark.parametrize("command, body, seed", [
    ("twa", TWA_BODY, ["--seed", "-1"]),
    ("twa", None, ["--preset", "endphase-12x12", "--seed", "-1"]),
    ("endphase", ENDPHASE_BODY.replace("master_seed = 1", "master_seed = -3"), []),
], ids=["twa-seed-flag", "twa-preset-seed-flag", "endphase-master-seed"])
def test_cli_rejects_negative_seed(tmp_path, capsys, monkeypatch, command, body, seed):
    def no_run(*args, **kwargs):
        raise AssertionError("the ensemble ran before the seed was checked")

    monkeypatch.setattr(twa, "ensemble_run", no_run)
    out = tmp_path / "o"
    config = ["--config", write_cfg(tmp_path, body)] if body else []
    assert main([command, *config, "--out", str(out), *seed]) == 2
    value = seed[-1] if seed else "-3"
    assert (capsys.readouterr().err
            == f"shakenbec: invalid parameter: master_seed must be >= 0, got {value}\n")
    assert not out.exists()


def test_cli_manifest_lists_fit_warnings(tmp_path):
    # an undriven, nearly ideal gas: the one realization of seed 0 starts
    # with a negative excited density, so both windows hold non-positive
    # samples and set their rate to zero with a warning
    body = (TWA_BODY.replace("k0 = 1.25", "k0 = 0").replace("g = 12.0", "g = 0.01")
            .replace("n_realizations = 3", "n_realizations = 1")
            .replace("master_seed = 2", "master_seed = 0"))
    out = tmp_path / "twa"
    assert main(["twa", "--config", write_cfg(tmp_path, body), "--out", str(out)]) == 0
    with open(out / "twa_rates.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    warning = "non-positive samples in window; rate set to zero"
    assert [(r["window"], r["warning"]) for r in rows] == [("early", warning),
                                                          ("late", warning)]
    diag = json.loads((out / "manifest.json").read_text())["diagnostics"]
    assert diag["fit_warnings"] == {"early": warning, "late": warning}
    # a g scan of the same gas warns at each point, keyed by its g, and in
    # its CSV's warning column, just before status
    scan = write_cfg(tmp_path, body + "\n[scan]\nvariable = g\nvalues = 0.01, 0.02\n", "scan.cfg")
    out = tmp_path / "g"
    assert main(["twa", "--config", scan, "--out", str(out)]) == 0
    with open(out / "twa_g_scan.csv", encoding="utf-8", newline="") as fh:
        scan_rows = list(csv.DictReader(fh))
    assert [(r["rate_rad_s"], r["status"]) for r in scan_rows] == [("0", "ok")] * 2
    assert [r["warning"] for r in scan_rows] == [warning] * 2
    assert list(scan_rows[0])[-2:] == ["warning", "status"]
    diag = json.loads((out / "manifest.json").read_text())["diagnostics"]
    assert diag["fit_warnings"] == {"g=0.01": warning, "g=0.02": warning}
    # a growing trace fitted as a condensed fraction warns by method;
    # a clean decay lists no warning
    for rate, warnings in ((2.0, {"exponential": "trace grows against its sign convention"}),
                           (-2.0, {})):
        trace = tmp_path / f"trace{rate}.csv"
        lines = ["time_s,condensed_fraction"]
        lines += [f"{t},{math.exp(rate * t)}" for t in np.linspace(0.0, 1.0, 30)]
        trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / f"fit{rate}"
        assert main(["fit", "--config", write_cfg(tmp_path, BASE), "--out", str(out),
                     str(trace)]) == 0
        with open(out / "fit.csv", encoding="utf-8", newline="") as fh:
            [row] = csv.DictReader(fh)
        assert row["warning"] == "".join(warnings.values())
        diag = json.loads((out / "manifest.json").read_text())["diagnostics"]
        assert diag["fit_warnings"] == warnings


TINY_TWA = "[twa]\nnx = 4\nny = 4\nn_realizations = 2\nsteps_per_period = 32\n"


def _csv_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def test_cli_g_scan_flags_a_rate_against_the_sign_convention(tmp_path):
    # the packaged end-phase preset on a 4x4 lattice at its seed: the mean
    # excited density falls over both points' windows, so each windowed
    # growth rate is negative and must say so, in the CSV and the manifest
    body = TINY_TWA + "\n[scan]\nvariable = g\nvalues = 4, 5\n"
    out = tmp_path / "g"
    assert main(["twa", "--preset", "endphase-12x12", "--config", write_cfg(tmp_path, body),
                 "--out", str(out)]) == 0
    rows = _csv_rows(out / "twa_g_scan.csv")
    warning = "trace decays against its sign convention"
    assert [(float(r["rate_rad_s"]) < 0.0, r["warning"], r["status"]) for r in rows] == [
        (True, warning, "ok")] * 2
    diag = json.loads((out / "manifest.json").read_text())["diagnostics"]
    assert diag["fit_warnings"] == {"g=4.0": warning, "g=5.0": warning}


def test_cli_g_scan_row_is_the_late_fit_of_a_plain_run(tmp_path):
    # one rate window for both shapes of the twa command: a g-scan point
    # writes the cells of the plain run's late row at that g, byte for byte
    body = TINY_TWA + "rate_window_cycles = 3\n"
    plain, scan = tmp_path / "plain", tmp_path / "scan"
    assert main(["twa", "--preset", "endphase-12x12", "--out", str(plain), "--config",
                 write_cfg(tmp_path, body + "\n[lattice]\ng = 5\n", "plain.cfg")]) == 0
    assert main(["twa", "--preset", "endphase-12x12", "--out", str(scan), "--config",
                 write_cfg(tmp_path, body + "\n[scan]\nvariable = g\nvalues = 5\n")]) == 0
    early, late = _csv_rows(plain / "twa_rates.csv")
    [row] = _csv_rows(scan / "twa_g_scan.csv")
    cells = ("rate_rad_s", "rate_err_rad_s", "warning")
    assert [row[c] for c in cells] == [late[c] for c in cells]
    assert early["rate_rad_s"] != late["rate_rad_s"]  # the window picks the late samples


def test_cli_endphase_requires_envelope(tmp_path):
    cfg = write_cfg(tmp_path, TWA_BODY)
    assert main(["endphase", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_cli_fit(tmp_path):
    trace = tmp_path / "trace.csv"
    t = np.linspace(0.0, 1.0, 30)
    lines = ["time_s,condensed_fraction"]
    lines += [f"{ti},{math.exp(-2.0 * ti)}" for ti in t]
    trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = write_cfg(tmp_path, BASE)
    out = tmp_path / "o"
    assert main(["fit", "--config", cfg, "--out", str(out), str(trace)]) == 0
    with open(out / "fit.csv", encoding="utf-8", newline="") as fh:
        row = list(csv.DictReader(fh))[0]
    assert row["method"] == "exponential"
    assert float(row["rate_rad_s"]) == pytest.approx(2.0, rel=1e-9)
    assert row["warning"] == ""


def test_cli_fit_reads_a_byte_order_mark(tmp_path):
    # Excel's "CSV UTF-8": a headerless trace behind a byte-order mark keeps row 1
    trace = tmp_path / "trace.csv"
    lines = [f"{t},{math.exp(-2.0 * t)}" for t in (0.0, 0.1, 0.2, 0.3, 0.4)]
    trace.write_text("\n".join(lines) + "\n", encoding="utf-8-sig")
    out = tmp_path / "o"
    assert main(["fit", "--out", str(out), str(trace)]) == 0
    with open(out / "fit.csv", encoding="utf-8", newline="") as fh:
        row = list(csv.DictReader(fh))[0]
    assert float(row["amplitude"]) == pytest.approx(1.0, rel=1e-9)
    assert float(row["window_start_s"]) == 0.0
    assert float(row["rate_rad_s"]) == pytest.approx(2.0, rel=1e-9)


def test_cli_fit_bad_trace(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,y\n0,1\n0.5,oops\n", encoding="utf-8")
    cfg = write_cfg(tmp_path, BASE)
    assert main(["fit", "--config", cfg, "--out", str(tmp_path / "o"), str(bad)]) == 2
    assert "line 3" in capsys.readouterr().err
    missing = str(tmp_path / "nope.csv")
    assert main(["fit", "--config", cfg, "--out", str(tmp_path / "o"), missing]) == 2


@pytest.mark.parametrize("kind", ["directory", "not-utf-8"])
@pytest.mark.parametrize("command", ["fit-trace", "config"])
def test_cli_unreadable_input_is_a_config_error(tmp_path, capsys, kind, command):
    # a trace or config that exists but cannot be read as text exits 2 with
    # one stderr line naming it, not with a traceback.  A file without read
    # permission takes the same path, but root reads it anyway, so no case
    bad = tmp_path / "input"
    if kind == "directory":
        bad.mkdir()
    else:
        bad.write_bytes(b"t,y\n0,1\n\xff\xfe,0.5\n")
    argv = ["fit", str(bad)] if command == "fit-trace" else ["rates", "--config", str(bad)]
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    what = "trace file" if command == "fit-trace" else "config file"
    assert line.startswith(f"shakenbec: config error: cannot read {what} {bad}: ")
    assert not out.exists()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "shakenbec", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    for sub in ("rates", "bdg", "twa", "endphase", "fit"):
        assert sub in proc.stdout


@pytest.mark.parametrize("command, body", [
    ("rates", RATES_CFG), ("twa", TWA_BODY),
], ids=["rates", "twa"])
def test_cli_manifest_times_each_phase(tmp_path, command, body):
    # the wall time of each phase is a top-level object of the manifest;
    # the CSVs, and the digests the manifest pins, do not carry it
    cfg = write_cfg(tmp_path, body)
    outs = [tmp_path / "o1", tmp_path / "o2"]
    for out in outs:
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
    manifests = [json.loads((out / "manifest.json").read_text()) for out in outs]
    for m in manifests:
        assert set(m["timings"]) == {"config_s", "compute_s", "write_s"}
        for value in m["timings"].values():
            assert isinstance(value, float) and math.isfinite(value) and value >= 0.0
        assert "timings" not in m["diagnostics"]
    assert manifests[0]["outputs"] == manifests[1]["outputs"]
    for entry in manifests[0]["outputs"]:
        data = [(out / entry["name"]).read_bytes() for out in outs]
        assert data[0] == data[1]
        assert hashlib.sha256(data[0]).hexdigest() == entry["sha256"]


ENDPHASE_PROTOCOLS = 3  # ENDPHASE_BODY: two abrupt stops and the ramped control


@pytest.mark.parametrize("command, body, ensembles, periods", [
    ("twa", TWA_BODY, 1, 6),
    ("twa", TWA_BODY + "\n[scan]\nvariable = g\nvalues = 6, 8\n", 2, 6),
    # ramp_up 2 + hold 2 + post_hold_periods 4 + 1
    ("endphase", ENDPHASE_BODY, ENDPHASE_PROTOCOLS, 9),
], ids=["twa", "g-scan", "endphase"])
def test_cli_twa_manifest_counts_realizations_and_transforms(tmp_path, command, body,
                                                              ensembles, periods):
    # every ensemble (scan point, end-phase protocol) of 2 or 3 realizations
    # on 6 x 6 x 1 sites at 16 steps per period: per realization, one set
    # of propagator passes per step and one forward transform per period
    # boundary
    out = tmp_path / "o"
    assert main([command, "--config", write_cfg(tmp_path, body), "--out", str(out)]) == 0
    diag = json.loads((out / "manifest.json").read_text())["diagnostics"]
    n_real = 3 if command == "twa" else 2
    steps = 16 * periods
    assert diag["realizations"] == ensembles * n_real
    assert diag["transforms"] == ensembles * n_real * (steps + periods + 1)
    assert diag["site_steps"] == ensembles * n_real * 36 * steps


def test_cli_twa_csv_independent_of_blas_threads(tmp_path):
    # on a 64 x 64 lattice each transform pass is a 64 x 64 x 64 product,
    # large enough for OpenBLAS to split it over threads; the split must
    # not change a bit of the output
    body = (BASE + "\n[twa]\nnx = 64\nny = 64\nnz = 1\nlz = 1\nsteps_per_period = 16\n"
            "n_cycles = 2\nn_realizations = 2\nmaster_seed = 4\n"
            "bootstrap_resamples = 20\nrate_window_cycles = 1\n")
    cfg = write_cfg(tmp_path, body)
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [
                       str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "shakenbec", "twa", "--config", cfg,
                        "--out", str(out)], env=env, check=True)
        outputs.append([(out / name).read_bytes()
                        for name in ("twa_trace.csv", "twa_rates.csv")])
    assert outputs[0] == outputs[1]


# rates and bdg through main in a fresh interpreter: the modules each run
# leaves behind, then a two-worker TWA run, which starts its pool
_LEAN_RUN = """
import sys
from shakenbec.cli import main
cfg, out = sys.argv[1:]
for command in ("rates", "bdg"):
    assert main([command, "--config", cfg, "--out", out + "-" + command]) == 0
print(sorted({"_hashlib", "concurrent.futures.process"} & set(sys.modules)))
assert main(["twa", "--config", cfg, "--out", out + "-twa", "--workers", "2"]) == 0
print("concurrent.futures.process" in sys.modules)
"""


def test_cli_runs_load_neither_openssl_nor_the_pool_they_do_not_use(tmp_path):
    body = (TWA_BODY + "\n[bdg]\nnx = 4\nny = 4\nnz = 1\nsteps_per_period = 512\n"
            "n_cycles = 2\nfit_window_cycles = 1\n")
    cfg = write_cfg(tmp_path, body)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _LEAN_RUN, cfg, str(tmp_path / "o")],
                          env=env, check=True, capture_output=True, text=True)
    assert done.stdout.splitlines() == ["[]", "True"]
    # the built-in SHA-256 the runs used agrees with hashlib's
    for command in ("rates", "bdg", "twa"):
        out = tmp_path / f"o-{command}"
        for entry in json.loads((out / "manifest.json").read_text())["outputs"]:
            data = (out / entry["name"]).read_bytes()
            assert entry["sha256"] == hashlib.sha256(data).hexdigest()


BDG_OVERFLOW = (
    "[units]\nfrequency = rad_s\n\n[lattice]\nj = 1\ng = 5\n\n"
    "[drive]\ntrajectory = linear_x\nk0 = 1.25\nomega = 12.5\n\n"
    "[bdg]\nnx = 4\nny = 4\nnz = 2\nlz = 0.001\nsteps_per_period = 64\n"
    "n_cycles = 2\nfit_window_cycles = 1\n"
)  # qz^2 / (2 m_z) dt far past the RK4 stability region: the amplitudes overflow
TWA_OVERFLOW = (
    "[units]\nfrequency = rad_s\n\n[lattice]\nj = 1\ng = 10\nn0 = 1e-308\n\n"
    "[drive]\ntrajectory = linear_x\nk0 = 1\nomega = 6\n\n"
    "[twa]\nnx = 4\nny = 4\nn_realizations = 2\nsteps_per_period = 16\nn_cycles = 1\n"
)  # U = g / n0 overflows, and the contact phase with it


@pytest.mark.parametrize("command, body, code, n_lines", [
    ("bdg", BDG_OVERFLOW, 3, 1),
    ("bdg", BDG_OVERFLOW + "\n[scan]\nvariable = omega\nvalues = 12.5, 13\n", 0, 2),
    ("twa", TWA_OVERFLOW, 3, 1),
    ("twa", TWA_OVERFLOW + "\n[scan]\nvariable = g\nvalues = 10, 11\n", 0, 2),
], ids=["bdg", "bdg-scan", "twa", "twa-g-scan"])
def test_cli_numerical_failure_prints_one_line_each(tmp_path, command, body, code, n_lines):
    # each engine's guard owns its overflow: the one line per failure (the
    # error, or each failed scan point's warning) is all stderr gets, from
    # the TWA pool's workers too, and no numpy RuntimeWarning gets past it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONWARNINGS", None)  # numpy's warnings print as they would for a user
    out = tmp_path / "o"
    done = subprocess.run(
        [sys.executable, "-m", "shakenbec", command, "--config", write_cfg(tmp_path, body),
         "--out", str(out), "--workers", str(min(2, os.cpu_count() or 1))],
        env=env, capture_output=True, text=True)
    assert done.returncode == code
    lines = done.stderr.splitlines()
    assert len(lines) == n_lines
    assert all(line.startswith("shakenbec") and "left the finite range in cycle 1" in line
               for line in lines)
    if code == 0:
        table = out / ("twa_g_scan.csv" if command == "twa" else "bdg.csv")
        with open(table, encoding="utf-8", newline="") as fh:
            assert [row["status"] for row in csv.DictReader(fh)] == ["BlowUpError"] * 2
