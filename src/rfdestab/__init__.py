"""Simulation and sampling-based stability certification for uncertain
time-varying delay systems.

The package integrates delay systems whose right-hand side reads the full
trailing state window, numerically evaluates forward Dini derivatives of
energy functionals and pointwise energy functions, falsifies guarded decay
inequalities by randomized sampling, builds and checks two-parameter decay
envelopes, and ships three fully certified benchmark systems plus a batch
command-line front end.
"""

__version__ = "0.1.0"

from . import compfn, examples, history, lyapunov, signals, simulator, verify
from .history import *
from .signals import *
from .compfn import *
from .simulator import *
from .lyapunov import *
from .verify import *
from .examples import *

# each module's __all__ is its public API; the package exports their union
__all__ = ["__version__"] + [
    name
    for module in (history, signals, compfn, simulator, lyapunov, verify, examples)
    for name in module.__all__
]
