"""Exact-arithmetic workbench for reductive homogeneous-space structure analysis.

Core layers: `liealg` (rational structure-constant calculus), `homspace`
(reductive decompositions and the isotropy action), `connection` (the
canonical connection's identities, read off the adapted table), `affine`
(transvection and affine algebras, fixed torus, gated isometry
identification), `catalog` (named desk-scale presentations), `numlab`
(floating-point sanity lab) and `cli` (the `analyze` front end).
"""

__version__ = "0.1.0"

from .errors import WorkbenchError

__all__ = ["WorkbenchError", "__version__"]
