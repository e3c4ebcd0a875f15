"""Parametric instabilities of periodically shaken lattice condensates.

The package covers three layers that cross-check each other:

* closed-form theory (:mod:`shakenbec.analytics`): cusp frequencies,
  most unstable modes, growth rates;
* linearized mode dynamics (:mod:`shakenbec.bdg`): time-dependent
  Bogoliubov pairs on momentum grids;
* classical-field simulation (:mod:`shakenbec.twa`): truncated-Wigner
  ensembles of the driven Gross-Pitaevskii equation.

Each name is imported from its module (``from shakenbec.model import
LatticeParams``); the package namespace re-exports nothing.

Everything runs in hbar = 1 units with the lattice spacing as the
length unit; energies and rates are angular frequencies.
"""

__version__ = "0.1.0"
