"""Verification toolkit for the entropy power inequality on integers.

The package decides, with arbitrary-precision and exact-rational
arithmetic, when e^{2H} is superadditive for sums of iid integer-valued
random variables: direct gap evaluation, the sufficient half-log step
condition and its thresholds, discrimination-series identities behind
the step increments, moment/cumulant machinery for entropy lower
bounds, exact polynomial positivity certificates for the thresholds,
and large-n asymptotics including Gaussian-smoothed comparisons.

Each module's ``__all__`` is the one list of its public names, and the
package exports their union.
"""

from . import (asymptotics, discrimination, dist_core, epi_engine, errors,
               moments_bounds, polycert, precision)
from .asymptotics import *
from .discrimination import *
from .dist_core import *
from .epi_engine import *
from .errors import *
from .moments_bounds import *
from .polycert import *
from .precision import *

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (asymptotics, discrimination, dist_core, epi_engine, errors,
                   moments_bounds, polycert, precision)
    for name in module.__all__
)
