"""Exact covers of subgraph-copy footprints under automorphism symmetry.

The package computes, for a pattern graph K and a finite host graph, the
minimum number of vertices meeting every copy of K and the minimum size of
such a set that is additionally invariant under every automorphism of the
host, together with executable verifiers for the exact inequalities and
boundary conditions that relate the two.
"""
from . import checks, copies, covers, errors, graphs, report, search, symmetry
from .checks import *
from .copies import *
from .covers import *
from .errors import *
from .graphs import *
from .report import *
from .search import *
from .symmetry import *

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = ["__version__"]
__all__ += checks.__all__
__all__ += copies.__all__
__all__ += covers.__all__
__all__ += errors.__all__
__all__ += graphs.__all__
__all__ += report.__all__
__all__ += search.__all__
__all__ += symmetry.__all__
