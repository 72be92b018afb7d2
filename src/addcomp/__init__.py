"""Sparse additive complements on a finite horizon, built and verified exactly.

Given a base set A of naturals whose consecutive-element ratios stay above
some alpha > 1 from a point on, the library constructs a complement B
disjoint from A such that A + B covers everything past a computed
threshold, thins B greedily block by block, certifies the coverage by
exact sumset arithmetic, and profiles B's vanishing density.  Brute-force
oracles double-check every fast path at desk scale.
"""

from . import builder, cover, errors, greedy, natset, oracle, sequences
from .builder import *
from .cover import *
from .errors import *
from .greedy import *
from .natset import *
from .oracle import *
from .sequences import *

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names; the package re-exports them.
__all__ = ["__version__"] + [
    name
    for mod in (natset, sequences, cover, greedy, builder, oracle, errors)
    for name in mod.__all__
]
