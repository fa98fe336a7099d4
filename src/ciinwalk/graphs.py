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
    # the name the bench's tracer wraps as graphs.dual_basis
    return DualBasis(size)
