"""CIIN graphs and their invariant search subspace.

A CIIN (complete-identity interdependent network) on N = 2n vertices is two
copies of the complete graph K_n joined by a perfect matching: vertex j is
linked to its opposite vertex (j + n) mod N.  Relative to a marked vertex the
dynamics of phase-walk search close on a 4-dimensional subspace spanned by the
walk basis (marked vertex, opposite vertex, and the two per-side uniform
superpositions over the remaining vertices).  This module holds the graph
size, the reduced 4x4 adjacency in the walk basis, and the dual basis of
adjacency eigenvectors, with exact conversions between the two; no N x N
matrix is built (the dense adjacency and walk basis are the tests' oracles).

All constructions are closed-form; only double-precision rounding error is
admissible, so orthonormality and eigen-relations hold to ~1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidSizeError

REDUCED_DIM = 4


@dataclass(frozen=True)
class GraphSize:
    """Side size n of a CIIN; the full graph has N = 2n vertices."""

    n: int

    def __post_init__(self) -> None:
        if isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer)):
            raise InvalidSizeError(f"side size must be an integer, got {self.n!r}")
        if self.n < 2:
            raise InvalidSizeError(f"side size must be >= 2, got {self.n}")
        if self.n >= 2**64:  # numpy holds no larger eigenvalue n as a float64
            raise InvalidSizeError(f"side size must be below 2^64, got {self.n}")
        object.__setattr__(self, "n", int(self.n))

    @classmethod
    def from_vertex_count(cls, big_n: int) -> "GraphSize":
        """Build from the total vertex count N = 2n."""
        if big_n % 2 != 0:
            raise InvalidSizeError(f"vertex count must be even, got {big_n}")
        return cls(big_n // 2)

    @property
    def N(self) -> int:
        return 2 * self.n

    def opposite(self, vertex: int) -> int:
        """Index of the vertex joined to `vertex` by an interconnect edge."""
        return (vertex + self.n) % self.N


def _check_vertex(size: GraphSize, vertex: int) -> int:
    if not 0 <= vertex < size.N:
        raise IndexError(f"vertex {vertex} out of range for N={size.N}")
    return int(vertex)


def reduced_adjacency(size: GraphSize) -> np.ndarray:
    """Closed-form 4x4 adjacency in the walk basis."""
    n = size.n
    s = np.sqrt(n - 1.0)
    return np.array(
        [
            [0.0, 1.0, s, 0.0],
            [1.0, 0.0, 0.0, s],
            [s, 0.0, n - 2.0, 1.0],
            [0.0, s, 1.0, n - 2.0],
        ]
    )


@dataclass(frozen=True)
class DualBasis:
    """Eigenvector basis of the reduced adjacency, eigenvalues (n, n-2, -2, 0).

    The first dual vector is the equal superposition over all vertices.  The
    eigenvalue pairing is fixed by the explicit closed forms, not by an
    eigensolver's ordering, because schedule formulas index it positionally.
    """

    size: GraphSize

    @cached_property
    def matrix(self) -> np.ndarray:
        """4 x 4 orthogonal matrix; columns are the dual vectors in walk coords."""
        return _dual_matrix(float(self.size.n))

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """(n, n-2, -2, 0), built once per instance and read-only."""
        values = _eigenvalues(float(self.size.n))
        values.setflags(write=False)
        return values

    def eigenphases(self, times) -> np.ndarray:
        """The eigenphases -t lambda of exp(-i t A), one row per eigenvalue,
        for walk times of any shape.  Every walk phase of the package is
        formed by `_eigenphases`: here for one size, and by the runner in
        `dynamics` for every step it takes; exp(1j * phase) has the bits of
        exp(-1j * t * lambda)."""
        return _eigenphases(self.eigenvalues, times)

    def to_dual(self, state: np.ndarray) -> np.ndarray:
        """Walk-basis coordinates -> dual coordinates."""
        return self.matrix.T @ np.asarray(state)

    def from_dual(self, coeffs: np.ndarray) -> np.ndarray:
        """Dual coordinates -> walk-basis coordinates."""
        return self.matrix @ np.asarray(coeffs)


# The closed forms of `DualBasis`, for a side size n as a float, or for an
# array of floats that stacks sizes along leading axes S.  Each entry comes
# from n through the same correctly rounded operations at every shape, so a
# size in a stack gets the bits of its own `DualBasis`.

# the dual vectors' entries: the constant ones, and the signs of the
# sqrt(n - 1) ones; each entry has one of the two, so their sum is exact
_UNIT_ENTRIES = np.array([[1.0, -1.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0],
                          [0.0, 0.0, -1.0, 1.0], [0.0, 0.0, 1.0, 1.0]])
_ROOT_SIGNS = np.array([[0.0, 0.0, 1.0, -1.0], [0.0, 0.0, -1.0, -1.0],
                        [1.0, -1.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]])
# (n, n-2, -2, 0) as n (1, 1, 0, 0) + (0, -2, -2, 0): the products and the
# sums with zero are exact, and n + (-2) rounds as n - 2.0 does
_EIGEN_SCALE = np.array([1.0, 1.0, 0.0, 0.0])
_EIGEN_SHIFT = np.array([0.0, -2.0, -2.0, 0.0])


def _dual_matrix(n) -> np.ndarray:
    """The dual vectors as columns in walk coordinates, each entry +-1 or
    +-sqrt(n - 1) over sqrt(2n).  n is a float, or an array of shape
    S + (1, 1), which gives shape S + (4, 4)."""
    return (_UNIT_ENTRIES + np.sqrt(n - 1.0) * _ROOT_SIGNS) / np.sqrt(2.0 * n)


def _eigenvalues(n) -> np.ndarray:
    """(n, n-2, -2, 0).  n is a float, or an array of shape S + (1,), which
    gives shape S + (4,)."""
    return n * _EIGEN_SCALE + _EIGEN_SHIFT


def _eigenphases(eigenvalues: np.ndarray, times) -> np.ndarray:
    """-t lambda, one row per eigenvalue.  One size's eigenvalues, shape
    (4,), take walk times of any shape T and give shape (4,) + T.  A stack
    of sizes' eigenvalues, shape S + (4,), takes times that broadcast
    against S, each size's against its eigenvalues, and gives their shape
    + (4,).  Each phase is the one product (-lambda) t."""
    if eigenvalues.ndim == 1:
        return np.multiply.outer(-eigenvalues, times)
    return -eigenvalues * np.asarray(times)[..., np.newaxis]


def dual_basis(size: GraphSize) -> DualBasis:
    # the name the bench's tracer wraps as graphs.dual_basis
    return DualBasis(size)
