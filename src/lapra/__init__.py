"""Collaborative rotation averaging and translation recovery.

Multiple robots estimate absolute orientations and positions from noisy
relative measurements by exchanging compressed linear-algebra payloads
with a central server. Each solver iteration works on a fixed graph
Laplacian surrogate of the cost Hessian; the reduced separator system is
compressed once by effective-resistance sampling and reused, and every
robot-to-server upload is metered.

The package exports what the quick start needs; everything else is
imported from its submodule (lapra.rotation, lapra.decomposition, ...).
"""

from .manifold import NumericalError
from .pose_graph import (
    GraphError,
    SyntheticSpec,
    generate_grid,
    partition_contiguous,
    spanning_tree_init,
)
from .rotation import SolverConfig, collaborative_solve
from .translation import collaborative_translation_solve
from .metrics import c_epsilon, rotation_rmse

__version__ = "0.1.0"

__all__ = [
    "GraphError",
    "NumericalError",
    "SolverConfig",
    "SyntheticSpec",
    "c_epsilon",
    "collaborative_solve",
    "collaborative_translation_solve",
    "generate_grid",
    "partition_contiguous",
    "rotation_rmse",
    "spanning_tree_init",
]
