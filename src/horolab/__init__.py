"""horolab: a desk-scale numerical laboratory for unipotent-orbit experiments.

The package is organized around a handful of small modules:

- :mod:`horolab.sl2core`    real unimodular 2x2 matrices, charts, reduction
- :mod:`horolab.affine`     the affine extension, lattice grids, gap statistics
- :mod:`horolab.arith`      divisor counts, exact sums, coset classes, complete
                             exponential sums
- :mod:`horolab.majorant`   Diophantine majorant series with certified tails
- :mod:`horolab.expsum`     weighted sums over coset balls of integer matrices
- :mod:`horolab.autofns`    periodic test functions and their Fourier data
- :mod:`horolab.orbitlab`   orbit integrals and splitting
- :mod:`horolab.smoothfns`  smooth windows with known moments (``bump6``)
- :mod:`horolab.quadrature` adaptive Gauss-Legendre panels
- :mod:`horolab.errors`     the exception types the command line maps to exit codes
- :mod:`horolab.cli`        the `horolab` command line front end
"""

__version__ = "0.1.0"

from .errors import ConvergenceError, DomainError, HorolabError, ResourceGuardError

__all__ = [
    "ConvergenceError",
    "DomainError",
    "HorolabError",
    "ResourceGuardError",
    "__version__",
]
