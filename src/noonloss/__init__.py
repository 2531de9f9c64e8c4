"""NOON-state phase precision through a lossy arm: closed forms, a
brute-force Fock-basis oracle, optimal photon numbers, and photon-budget
comparisons against the unentangled baseline."""

from . import analytics, budget, fock_oracle, optimal_search
from .analytics import *
from .budget import *
from .fock_oracle import *
from .optimal_search import *

__version__ = "0.1.0"

# each library module's __all__ is the one list of its public names
__all__ = []
__all__ += analytics.__all__
__all__ += budget.__all__
__all__ += fock_oracle.__all__
__all__ += optimal_search.__all__
