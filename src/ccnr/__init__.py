"""Bipartite entanglement detection via the realignment (CCNR) criterion.

The package bundles a dense complex linear algebra kernel, constructors for
the standard symmetric state families, the realignment map with its
separability diagnostic ``tau``, closed-form greatest-cross-norm values, and
comparison criteria (PPT, reduction) with an aggregated per-state report.
"""

from . import criteria, crossnorm, linalg, realign, states

# Built before the star imports, because ``from .realign import *`` rebinds
# ``realign`` from the submodule to the function.
__all__ = [name for module in (linalg, states, realign, crossnorm, criteria)
           for name in module.__all__]

from .linalg import *
from .states import *
from .realign import *
from .crossnorm import *
from .criteria import *

__version__ = "0.1.0"
