"""Run configuration: flat key = value files with [section] headers.

Every key is read and checked here, by the *_from_config builders; the
CLI computes from what they return, and output writes every file.
Frequencies in config files are Hz by default ([units] frequency = hz)
and are converted to angular frequencies internally; set
frequency = rad_s to pass values straight through (handy for
dimensionless studies with j = 1).  Exponential rates such as gamma0
are e-folding rates in 1/s and are never scaled by 2*pi.
Each [bdg] and [twa] key is named once: nx, ny, nz and lz set the grid, and
every other field of the run config (BdgRunConfig, TwaRunConfig) is an int key.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields, replace
from importlib import resources

import numpy as np

from .errors import ConfigError
from .fitting import TraceKind
from .model import DriveSpec, Envelope, LatticeParams, Trajectory
from .specialmath import (
    ATOMIC_MASS_KG,
    RB87_MASS_U,
    BandProblem,
    hopping_from_depth,
)
from .twa import TwaRunConfig
from .bdg import BdgRunConfig

TWO_PI = 2.0 * math.pi
_REQUIRED = object()
_GRID_KEYS = {"nx": int, "ny": int, "nz": int, "lz": float}


def _engine_keys(run_config) -> tuple[str, ...]:
    # an engine section's keys: the grid's, then every other run config field
    return (*_GRID_KEYS, *(f.name for f in fields(run_config) if f.name != "grid"))


# Every section a config may hold and the keys each one reads; anything
# else is a typo that would otherwise fall back to a default unseen.
_KNOWN_KEYS = {
    "units": ("frequency",),
    "lattice": ("j", "depth_er", "wavelength_nm", "mass_u", "g", "n0", "gamma0",
                "transverse_recoil", "m_z"),
    "drive": ("trajectory", "k0", "omega", "ramp_up", "hold", "ramp_down",
              "abrupt_stop", "end_phase"),
    "scan": ("variable", "values", "start", "stop", "count", "spacing"),
    "bdg": _engine_keys(BdgRunConfig),
    "twa": _engine_keys(TwaRunConfig),
    "endphase": ("phases", "ramp_down", "post_hold_periods"),
    "fit": ("kind",),
}


def _preset_dir():
    return resources.files("shakenbec").joinpath("presets")


def available_presets() -> list[str]:
    names = []
    for entry in _preset_dir().iterdir():
        if entry.name.endswith(".cfg"):
            names.append(entry.name[: -len(".cfg")])
    return sorted(names)


def unreadable(what: str, path, exc: OSError | UnicodeDecodeError) -> ConfigError:
    """The ConfigError for a file that cannot be opened or is not UTF-8 text."""
    if isinstance(exc, FileNotFoundError):
        return ConfigError(f"{what} not found: {path}")
    reason = exc.strerror if isinstance(exc, OSError) else f"not UTF-8 text ({exc.reason})"
    return ConfigError(f"cannot read {what} {path}: {reason or exc}")


def load_config(
    path: str | None = None, preset: str | None = None
) -> configparser.ConfigParser:
    """Layered config: preset first, then an optional file on top.

    Every section and key must be one _KNOWN_KEYS lists (ConfigError
    otherwise), so a misspelt name fails instead of being ignored.
    Values are literal (no % interpolation), and no section is special:
    [DEFAULT] is an unknown section, not keys for every other one.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None,
                                   default_section="\n")  # no file can name "\n"
    if preset is not None:
        entry = _preset_dir().joinpath(f"{preset.lower()}.cfg")
        if not entry.is_file():
            raise ConfigError(
                f"unknown preset '{preset}'; available: {', '.join(available_presets())}"
            )
        cp.read_string(entry.read_text(encoding="utf-8"), source=f"preset:{preset}")
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                cp.read_file(fh, source=str(path))
        except (OSError, UnicodeDecodeError) as exc:
            raise unreadable("config file", path, exc) from exc
        except configparser.Error as exc:
            raise ConfigError(f"malformed config {path}: {exc}") from exc
    for section in cp.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(
                f"unknown section [{section}]; known: {', '.join(_KNOWN_KEYS)}"
            )
        for key in cp.options(section):
            if key not in _KNOWN_KEYS[section]:
                raise ConfigError(
                    f"unknown key '{key}' in section [{section}]; "
                    f"known: {', '.join(_KNOWN_KEYS[section])}"
                )
    return cp


def _get(cp, section: str, key: str, conv, default=_REQUIRED):
    if not cp.has_option(section, key):
        if default is _REQUIRED:
            raise ConfigError(f"missing required key '{key}' in section [{section}]")
        return default
    raw = cp.get(section, key)
    try:
        return conv(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(
            f"bad value for '{key}' in section [{section}]: {raw!r} ({exc})"
        ) from exc


def _given(cp, section: str, convs: dict) -> dict:
    """The keys of convs present in section, each converted by its conv."""
    return {key: _get(cp, section, key, conv)
            for key, conv in convs.items() if cp.has_option(section, key)}


def _bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _floats(cp, section: str, key: str, default=_REQUIRED) -> list[float]:
    """A comma-separated list of floats; empty entries are skipped."""
    raw = _get(cp, section, key, str, default)
    try:
        return [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad [{section}] {key} list: {raw!r}") from exc


def frequency_scale(cp) -> float:
    """Multiplier turning configured frequencies into rad/s."""
    unit = _get(cp, "units", "frequency", str, "hz").strip().lower()
    if unit == "hz":
        return TWO_PI
    if unit == "rad_s":
        return 1.0
    raise ConfigError(f"[units] frequency must be 'hz' or 'rad_s', got '{unit}'")


def lattice_from_config(cp) -> LatticeParams:
    """Build LatticeParams; hopping either direct (j) or from a depth.

    With depth_er given instead of j, the recoil energy comes from
    wavelength_nm and mass_u (default rubidium-87), and j is solved from
    the band width.  A key left unread is a ConfigError naming it:
    depth_er, wavelength_nm or mass_u with j, m_z with transverse_recoil.
    """
    if not cp.has_section("lattice"):
        raise ConfigError("missing required section [lattice]")
    for key, unread in (("j", ("depth_er", "wavelength_nm", "mass_u")),
                        ("transverse_recoil", ("m_z",))):
        clash = [k for k in unread if cp.has_option("lattice", k)]
        if cp.has_option("lattice", key) and clash:
            raise ConfigError(f"[lattice] {', '.join(clash)} not read with {key}: "
                              "give one or the other")
    scale = frequency_scale(cp)
    if cp.has_option("lattice", "j"):
        j = scale * _get(cp, "lattice", "j", float)
    elif cp.has_option("lattice", "depth_er"):
        depth = _get(cp, "lattice", "depth_er", float)
        wavelength = 1e-9 * _get(cp, "lattice", "wavelength_nm", float)
        mass = ATOMIC_MASS_KG * _get(cp, "lattice", "mass_u", float, RB87_MASS_U)
        j = TWO_PI * hopping_from_depth(BandProblem.from_physical(depth, wavelength, mass))
    else:
        raise ConfigError("missing required key 'j' in section [lattice]")
    g = scale * _get(cp, "lattice", "g", float)
    # gamma0 is in 1/s, never scaled; absent keys keep the dataclass defaults
    given = _given(cp, "lattice", dict.fromkeys(("n0", "gamma0", "m_z"), float))
    if cp.has_option("lattice", "transverse_recoil"):
        er_rad = scale * _get(cp, "lattice", "transverse_recoil", float)
        given["m_z"] = math.pi**2 / (2.0 * er_rad)
    return LatticeParams(j=j, g=g, **given)


_TRAJECTORIES = {t.value: t for t in Trajectory}


def drive_from_config(cp) -> DriveSpec:
    """Build DriveSpec from [drive]; envelope keys are all optional, and
    absent ones keep Envelope's defaults.

    An envelope is attached when any of ramp_up / hold / ramp_down /
    abrupt_stop / end_phase appears (otherwise the drive runs at
    constant amplitude, the natural setting for rate extraction).  A key
    the envelope would not read is a ConfigError naming it: end_phase
    without abrupt_stop = true, ramp_down with it, and ramp_down,
    abrupt_stop or end_phase without ramp_up or hold.
    """
    if not cp.has_section("drive"):
        raise ConfigError("missing required section [drive]")
    scale = frequency_scale(cp)
    name = _get(cp, "drive", "trajectory", str).strip().lower()
    if name not in _TRAJECTORIES:
        raise ConfigError(
            f"unknown trajectory '{name}'; choose from {', '.join(_TRAJECTORIES)}"
        )
    k0 = _get(cp, "drive", "k0", float)
    omega = scale * _get(cp, "drive", "omega", float)
    given = _given(cp, "drive", {"ramp_up": int, "hold": int, "ramp_down": int,
                                 "abrupt_stop": _bool, "end_phase": float})
    envelope = None
    if given:
        if "end_phase" in given and not given.get("abrupt_stop"):
            raise ConfigError("[drive] end_phase is read only with abrupt_stop = true")
        if "ramp_down" in given and given.get("abrupt_stop"):
            raise ConfigError("[drive] ramp_down is not read with abrupt_stop = true, "
                              "which cuts the drive instead")
        if "ramp_up" not in given and "hold" not in given:
            raise ConfigError(f"[drive] {next(iter(given))} needs ramp_up or hold: the "
                              "envelope ramps up and holds before it stops")
        envelope = Envelope(**given)
    return DriveSpec(
        trajectory=_TRAJECTORIES[name], k0=k0, omega=omega, envelope=envelope
    )


@dataclass(frozen=True)
class ScanSpec:
    """A one-dimensional parameter scan."""

    variable: str  # omega | k0 | g
    values: np.ndarray  # rad/s for frequency-like variables


def scan_from_config(cp, allowed: tuple[str, ...]) -> ScanSpec | None:
    """Parse [scan]; returns None when the section is absent."""
    if not cp.has_section("scan"):
        return None
    variable = _get(cp, "scan", "variable", str).strip().lower()
    if variable not in allowed:
        raise ConfigError(
            f"scan variable '{variable}' not supported here; allowed: {', '.join(allowed)}"
        )
    if cp.has_option("scan", "values"):
        values = np.array(_floats(cp, "scan", "values"))
        if values.size == 0:
            raise ConfigError("[scan] values list is empty")
        if not np.all(np.isfinite(values)):
            raise ConfigError("[scan] values must be finite, got "
                              f"{cp.get('scan', 'values')!r}")
    else:
        start = _get(cp, "scan", "start", float)
        stop = _get(cp, "scan", "stop", float)
        count = _get(cp, "scan", "count", int)
        spacing = _get(cp, "scan", "spacing", str, "linear").strip().lower()
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ConfigError(f"[scan] start and stop must be finite, got {start}, {stop}")
        if count < 1:
            raise ConfigError("[scan] count must be >= 1")
        if count == 1 and start != stop:
            raise ConfigError(f"[scan] count = 1 runs one point: start and stop must be "
                              f"equal, got {start}, {stop}")
        if spacing == "linear":
            values = np.linspace(start, stop, count)
        elif spacing == "log":
            if start <= 0.0 or stop <= 0.0:
                raise ConfigError("[scan] log spacing needs positive start and stop")
            values = np.geomspace(start, stop, count)
        else:
            raise ConfigError(f"[scan] spacing must be linear or log, got '{spacing}'")
    if values.size > 1:
        steps = np.diff(values)
        if not (np.all(steps > 0.0) or np.all(steps < 0.0)):
            raise ConfigError("[scan] values must be strictly monotonic")
    if variable in ("omega", "g"):
        values = frequency_scale(cp) * values
    return ScanSpec(variable=variable, values=values)


def _run_config(cp, section: str, run_config, **override):
    """[section] as a run_config (BdgRunConfig or TwaRunConfig): the grid keys
    over its default grid, and every other field an int key.  Absent keys keep
    the dataclass defaults; an override that is not None replaces its field."""
    if not cp.has_section(section):
        raise ConfigError(f"missing required section [{section}]")
    given = _given(cp, section, {key: int for key in _KNOWN_KEYS[section]
                                 if key not in _GRID_KEYS})
    grid = replace(run_config.grid, **_given(cp, section, _GRID_KEYS))
    given.update((key, value) for key, value in override.items() if value is not None)
    return run_config(grid=grid, **given)


def bdg_from_config(cp) -> BdgRunConfig:
    """[bdg] as a BdgRunConfig."""
    return _run_config(cp, "bdg", BdgRunConfig)


def twa_from_config(cp, seed_override: int | None = None) -> TwaRunConfig:
    """[twa] as a TwaRunConfig; seed_override, when given, replaces master_seed."""
    return _run_config(cp, "twa", TwaRunConfig, master_seed=seed_override)


def endphase_from_config(cp, seed_override: int | None = None):
    """The end-phase study: (LatticeParams, TwaRunConfig,
    [(protocol, end phase or None, DriveSpec)]).

    After the [drive] envelope's ramp_up and hold, each [endphase] phases
    entry stops the drive abruptly at that phase, and the ramped control
    ramps it down over [endphase] ramp_down periods (>= 1).  This
    schedule overrides [drive] stop keys and [twa] n_cycles, so they are
    ConfigErrors, as is an empty phases list.
    """
    for key in ("ramp_down", "abrupt_stop", "end_phase"):
        if cp.has_option("drive", key):
            raise ConfigError(f"[drive] {key} is not read by endphase, which builds its own "
                              "stops: set [endphase] ramp_down and phases instead")
    p = lattice_from_config(cp)
    drive = drive_from_config(cp)
    cfg = twa_from_config(cp, seed_override)
    env = drive.envelope
    if env is None:
        raise ConfigError("endphase needs [drive] envelope keys (ramp_up, hold)")
    if cp.has_option("twa", "n_cycles"):
        raise ConfigError("[twa] n_cycles is not read by endphase, which runs ramp_up + "
                          "hold + [endphase] post_hold_periods + 1 periods")
    phases = _floats(cp, "endphase", "phases", "0, 0.7853981633974483, 1.5707963267948966")
    if not phases:
        raise ConfigError("[endphase] phases list is empty")
    ramp_down = _get(cp, "endphase", "ramp_down", int, 1)
    post_hold = _get(cp, "endphase", "post_hold_periods", int, 8)
    if post_hold < 0:
        raise ConfigError("[endphase] post_hold_periods must be >= 0")
    if ramp_down < 1:
        raise ConfigError("[endphase] ramp_down must be >= 1")
    if ramp_down > post_hold + 1:
        raise ConfigError(
            "[endphase] ramp_down exceeds post_hold_periods + 1; "
            "the ramped control would outlast the comparison window"
        )
    stops = [("abrupt", phase, replace(env, abrupt_stop=True, end_phase=phase))
             for phase in phases] + [("ramped", None, replace(env, ramp_down=ramp_down))]
    # the abrupt stops are over after ramp_up + hold + 1 periods, the
    # ramped control (ramp_down <= post_hold + 1) no later: one run length
    # serves every protocol
    cfg = replace(cfg, n_cycles=env.ramp_up + env.hold + post_hold + 1)
    return p, cfg, [
        (name, phase, replace(drive, envelope=e)) for name, phase, e in stops]


def fit_from_config(cp) -> TraceKind:
    """[fit] kind: what the fitted trace measures, condensed_fraction by default."""
    name = _get(cp, "fit", "kind", str, "condensed_fraction").strip().lower()
    kinds = {k.value: k for k in TraceKind}
    if name not in kinds:
        raise ConfigError(f"[fit] kind must be one of {', '.join(kinds)}, got '{name}'")
    return kinds[name]
