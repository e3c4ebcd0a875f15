"""Run the shakenbec CLI up to its first engine call, then exit.

    python3 perfbench/setup_probe.py <shakenbec CLI arguments>

This is what every CLI run pays before it computes anything:
interpreter start, `import shakenbec`, argument parsing, and loading
and validating the workload's config (the band-structure solver
included, when the lattice is given by its depth).  Every function
defined in an engine module, meaning any shakenbec module outside
SETUP_MODULES, is replaced by a stub that ends the run.  So the probe
follows the CLI's own path and needs no knowledge of its config API.
Exit 0 when an engine call was reached, 3 when the CLI finished without
one, or the CLI's own code when it failed first.
"""

from __future__ import annotations

import importlib
import sys

SETUP_MODULES = {
    "shakenbec", "shakenbec.__main__", "shakenbec.cli", "shakenbec.config",
    "shakenbec.output", "shakenbec.errors", "shakenbec.model", "shakenbec.specialmath",
}


class FirstEngineCall(BaseException):
    """Raised by the stubs; not an Exception, so the CLI cannot catch it."""


def _stop(*args, **kwargs):
    raise FirstEngineCall


def install_stubs():
    """Imports the CLI, stubs every engine function; returns the CLI module."""
    cli = importlib.import_module("shakenbec.cli")
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "shakenbec"]
    engine_functions = {
        id(value)
        for module in modules if module.__name__ not in SETUP_MODULES
        for value in vars(module).values()
        if callable(value) and not isinstance(value, type)
        and getattr(value, "__module__", None) == module.__name__
    }
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in engine_functions:
                setattr(module, attr, _stop)
    return cli


def main(argv: list[str]) -> int:
    cli = install_stubs()
    try:
        code = cli.main(argv)
    except FirstEngineCall:
        return 0
    return 3 if code == 0 else code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
