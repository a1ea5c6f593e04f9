"""Betti numbers of Euclidean point clouds at fixed scales.

The cloud is covered by overlapping grid regions, each region's homology is
computed concurrently by exact matrix reduction over a prime field, and the
union's homology is assembled through Mayer-Vietoris exact sequences.  A
direct persistence computation on the whole cloud serves as an independent
cross-check.
"""

from .core import Chain, ConsistencyError, PointCloud, PrimeField, boundary, chain_boundary
from .covering import AxisIntervals, GridCovering, build_covering, choose_k, full_box, split_axis
from .engine import BettiReport, attach_verification, run, verify
from .mayer_vietoris import FMatrix, MVNodeSolver, NodeRegion, assemble, build_f
from .reduction import (Bar, LeafSolver, ReducedPair, betti_at_scale,
                        build_leaf, persistence_barcode, reduce_columns)
from .rips import BudgetExceededError, RipsComplex, boundary_matrix, enumerate_complex

__version__ = "0.1.0"

__all__ = [
    "Bar",
    "AxisIntervals",
    "BettiReport",
    "BudgetExceededError",
    "Chain",
    "ConsistencyError",
    "FMatrix",
    "GridCovering",
    "LeafSolver",
    "MVNodeSolver",
    "NodeRegion",
    "PointCloud",
    "PrimeField",
    "ReducedPair",
    "RipsComplex",
    "assemble",
    "attach_verification",
    "betti_at_scale",
    "boundary",
    "boundary_matrix",
    "build_covering",
    "build_f",
    "build_leaf",
    "chain_boundary",
    "choose_k",
    "enumerate_complex",
    "full_box",
    "persistence_barcode",
    "reduce_columns",
    "run",
    "split_axis",
    "verify",
]
