"""Bound states of neutral atoms in a static screened Coulomb potential.

Third-order analytic shell binding energies, the radial wavefunction
machinery behind them, a direct Numerov eigensolver for cross-validation,
bundled reference tables, and a command-line front end.

The package exports each layer module's ``__all__``.  ``cli`` is imported
here too, so every layer is in ``sys.modules`` once the package is, but
numpy and scipy are not: each loads on the first call that needs it, so the
closed-form commands run without either.
"""

from . import cli, oracle, perturbation, refdata, wavefunctions
from .perturbation import *
from .wavefunctions import *
from .oracle import *
from .refdata import *

__version__ = "0.1.0"

__all__ = [*perturbation.__all__, *wavefunctions.__all__, *oracle.__all__, *refdata.__all__,
           "__version__"]
