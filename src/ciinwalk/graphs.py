"""CIIN graphs and their invariant search subspace.

A CIIN (complete-identity interdependent network) on N = 2n vertices is two
copies of the complete graph K_n joined by a perfect matching: vertex j is
linked to its opposite vertex (j + n) mod N.  Relative to a marked vertex the
dynamics of phase-walk search close on a 4-dimensional subspace spanned by the
walk basis (marked vertex, opposite vertex, and the two per-side uniform
superpositions over the remaining vertices).  This module builds the graph,
the walk basis, the reduced 4x4 adjacency, and the dual basis of adjacency
eigenvectors, with exact conversions between representations.

All constructions are closed-form; only double-precision rounding error is
admissible, so orthonormality and eigen-relations hold to ~1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, InvalidSizeError

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


@dataclass(frozen=True)
class FullAdjacency:
    """Adjacency of a CIIN as a dense N x N matrix.

    The dense form is built lazily and is meant for small graphs: it is the
    reference that exact tests compare the closed-form propagators against.
    """

    size: GraphSize

    @cached_property
    def dense(self) -> np.ndarray:
        n = self.size.n
        block = np.ones((n, n)) - np.eye(n)
        eye = np.eye(n)
        return np.block([[block, eye], [eye, block]])


@dataclass(frozen=True)
class WalkBasis:
    """Orthonormal 4-vector basis of the invariant search subspace.

    Columns of `matrix` are, in order: the marked vertex, its opposite, the
    uniform superposition over the remaining same-side vertices, and the
    uniform superposition over the remaining far-side vertices.  The
    construction works for an arbitrary marked vertex by vertex transitivity.
    """

    size: GraphSize
    marked: int

    def __post_init__(self) -> None:
        _check_vertex(self.size, self.marked)
        object.__setattr__(self, "marked", int(self.marked))

    @property
    def opposite(self) -> int:
        return self.size.opposite(self.marked)

    @cached_property
    def matrix(self) -> np.ndarray:
        """N x 4 matrix whose columns are the basis vectors."""
        n, big_n = self.size.n, self.size.N
        b = np.zeros((big_n, REDUCED_DIM))
        b[self.marked, 0] = 1.0
        b[self.opposite, 1] = 1.0
        same_side = self.marked // n
        same = np.arange(same_side * n, (same_side + 1) * n)
        far = np.arange((1 - same_side) * n, (2 - same_side) * n)
        b[same, 2] = 1.0 / np.sqrt(n - 1)
        b[self.marked, 2] = 0.0
        b[far, 3] = 1.0 / np.sqrt(n - 1)
        b[self.opposite, 3] = 0.0
        return b

    def lift(self, coeffs: np.ndarray) -> np.ndarray:
        """Map reduced coordinates to the full N-dimensional space."""
        return self.matrix @ np.asarray(coeffs)

    def project(self, state: np.ndarray) -> np.ndarray:
        """Project a full state onto the walk basis (4 coefficients)."""
        if state.shape != (self.size.N,):
            raise DimensionMismatchError(
                f"expected state of length {self.size.N}, got shape {state.shape}"
            )
        return self.matrix.T @ state


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


def reduce_operator(operator: np.ndarray, basis: WalkBasis) -> np.ndarray:
    """Compress a Hermitian N x N operator to its 4x4 walk-basis block.

    For the CIIN adjacency this reproduces `reduced_adjacency` exactly; for
    any operator that leaves the walk subspace invariant the compression is
    faithful (powers, polynomials, propagators).
    """
    big_n = basis.size.N
    operator = np.asarray(operator)
    if operator.shape != (big_n, big_n):
        raise DimensionMismatchError(
            f"expected {big_n}x{big_n} operator, got shape {operator.shape}"
        )
    return basis.matrix.T @ operator @ basis.matrix


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
        n = self.size.n
        s = np.sqrt(n - 1.0)
        return np.array(
            [
                [1.0, -1.0, s, -s],
                [1.0, 1.0, -s, -s],
                [s, -s, -1.0, 1.0],
                [s, s, 1.0, 1.0],
            ]
        ) / np.sqrt(2.0 * n)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """(n, n-2, -2, 0), built once per instance and read-only."""
        n = self.size.n
        values = np.array([n, n - 2.0, -2.0, 0.0])
        values.setflags(write=False)
        return values

    def eigenphases(self, times) -> np.ndarray:
        """The eigenphases -t lambda of exp(-i t A), one row per eigenvalue,
        for walk times of any shape.  Every walk phase of the package is
        formed here; exp(1j * phase) has the bits of exp(-1j * t * lambda)."""
        return np.multiply.outer(-self.eigenvalues, times)

    def to_dual(self, state: np.ndarray) -> np.ndarray:
        """Walk-basis coordinates -> dual coordinates."""
        return self.matrix.T @ np.asarray(state)

    def from_dual(self, coeffs: np.ndarray) -> np.ndarray:
        """Dual coordinates -> walk-basis coordinates."""
        return self.matrix @ np.asarray(coeffs)


def dual_basis(size: GraphSize) -> DualBasis:
    return DualBasis(size)
