"""Exact arithmetic for the polytopes of stochastic and centrosymmetric
stochastic matrices: decompositions into extreme points, extreme-point
predicates and enumerators, explicit bases with exact rank verification,
bipartite zero-pattern graphs, and face vertex counting."""

from centrostoch import bases, core, decompose, extremes, faces, graphs, smx
from centrostoch.bases import *  # noqa: F401,F403
from centrostoch.core import *  # noqa: F401,F403
from centrostoch.decompose import *  # noqa: F401,F403
from centrostoch.extremes import *  # noqa: F401,F403
from centrostoch.faces import *  # noqa: F401,F403
from centrostoch.graphs import *  # noqa: F401,F403
from centrostoch.smx import *  # noqa: F401,F403

__version__ = "0.1.0"

# each module's __all__ is its public surface; the package re-exports them all
__all__ = [
    "__version__",
    *core.__all__,
    *decompose.__all__,
    *extremes.__all__,
    *bases.__all__,
    *graphs.__all__,
    *faces.__all__,
    *smx.__all__,
]
