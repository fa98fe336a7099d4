import numpy as np
import pytest

from ciinwalk.errors import DimensionMismatchError, InvalidSizeError
from ciinwalk.graphs import GraphSize, dual_basis, reduced_adjacency

from conftest import FullAdjacency, WalkBasis, random_state, reduce_operator


class TestGraphSize:
    def test_vertex_count_and_flags(self):
        for n in range(2, 40):
            size = GraphSize(n)
            assert size.N == 2 * n

    @pytest.mark.parametrize("bad", [1, 0, -3, 2.5, "4", True])
    def test_rejects_invalid_side_size(self, bad):
        with pytest.raises(InvalidSizeError):
            GraphSize(bad)

    def test_from_vertex_count(self):
        assert GraphSize.from_vertex_count(24).n == 12
        with pytest.raises(InvalidSizeError):
            GraphSize.from_vertex_count(9)

    def test_refuses_sizes_without_float64_eigenvalues(self):
        assert dual_basis(GraphSize(2**64 - 1)).eigenvalues.dtype == np.float64
        for n in (2**64, 2**70):
            with pytest.raises(InvalidSizeError, match=r"below 2\^64"):
                GraphSize(n)

    def test_opposite_wraps(self):
        size = GraphSize(5)
        assert size.opposite(0) == 5
        assert size.opposite(7) == 2


class TestFullAdjacency:
    def test_neighbourhood_of_vertex_zero_n5(self):
        adj = FullAdjacency(GraphSize(5)).dense
        assert adj.shape == (10, 10)
        assert sorted(np.flatnonzero(adj[0])) == [1, 2, 3, 4, 5]

    def test_n2_is_the_four_cycle(self):
        adj = FullAdjacency(GraphSize(2)).dense
        expected = np.array(
            [[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]], dtype=float
        )
        assert np.array_equal(adj, expected)

    def test_structure_invariants(self):
        for n in (2, 3, 6, 9, 16):
            size = GraphSize(n)
            adj = FullAdjacency(size).dense
            assert np.array_equal(adj, adj.T)
            assert np.all(np.diag(adj) == 0)
            assert np.all(adj.sum(axis=0) == n)

    def test_eigenvalue_multiset_n8(self):
        # independent oracle: dense diagonalization of the 16x16 matrix
        adj = FullAdjacency(GraphSize(8)).dense
        eigs = np.sort(np.linalg.eigvalsh(adj))
        expected = np.sort(np.array([8.0, 6.0] + [-2.0] * 7 + [0.0] * 7))
        assert np.allclose(eigs, expected, atol=1e-10)

    def test_declared_eigenvalues_match_dense(self):
        # the dual basis declares (n, n-2, -2, 0); the last two are (n-1)-fold
        for n in (2, 5, 12):
            size = GraphSize(n)
            dense = np.sort(np.linalg.eigvalsh(FullAdjacency(size).dense))
            declared = np.repeat(dual_basis(size).eigenvalues, [1, 1, n - 1, n - 1])
            assert np.allclose(np.sort(declared), dense, atol=1e-10)


class TestWalkBasis:
    def test_orthonormal_for_all_sizes(self):
        for n in (2, 3, 5, 16, 33):
            basis = WalkBasis(GraphSize(n), marked=1)
            gram = basis.matrix.T @ basis.matrix
            assert np.abs(gram - np.eye(4)).max() < 1e-12

    def test_uniform_state_projection(self):
        for n in (2, 7, 24):
            size = GraphSize(n)
            basis = WalkBasis(size, marked=3 % size.N)
            uniform = np.full(size.N, 1.0 / np.sqrt(size.N))
            expected = np.array([1.0, 1.0, np.sqrt(n - 1.0), np.sqrt(n - 1.0)])
            expected /= np.sqrt(2.0 * n)
            assert np.abs(basis.project(uniform) - expected).max() < 1e-12

    def test_same_side_superposition_n5(self):
        basis = WalkBasis(GraphSize(5), marked=0)
        b3 = basis.matrix[:, 2]
        expected = np.zeros(10)
        expected[[1, 2, 3, 4]] = 0.5
        assert np.abs(b3 - expected).max() < 1e-15

    def test_singleton_groups_n2(self):
        basis = WalkBasis(GraphSize(2), marked=0)
        assert np.argmax(basis.matrix[:, 2]) == 1
        assert np.argmax(basis.matrix[:, 3]) == 3
        assert basis.matrix[1, 2] == 1.0
        assert basis.matrix[3, 3] == 1.0

    def test_opposite_index_wraps_n5_marked7(self):
        basis = WalkBasis(GraphSize(5), marked=7)
        assert basis.opposite == 2
        b2 = basis.matrix[:, 1]
        assert b2[2] == 1.0 and np.count_nonzero(b2) == 1
        # full-matrix symmetry: basis diagonalizes the same reduced block
        graph = FullAdjacency(GraphSize(5))
        assert np.abs(
            reduce_operator(graph.dense, basis) - reduced_adjacency(GraphSize(5))
        ).max() < 1e-12

    def test_marked_out_of_range(self):
        with pytest.raises(IndexError):
            WalkBasis(GraphSize(3), marked=6)
        with pytest.raises(IndexError):
            WalkBasis(GraphSize(3), marked=-1)

    def test_lift_project_roundtrip(self, rng):
        basis = WalkBasis(GraphSize(6), marked=2)
        coeffs = random_state(rng, 4)
        assert np.abs(basis.project(basis.lift(coeffs)) - coeffs).max() < 1e-12


class TestReduceOperator:
    def test_reduction_matches_closed_form_sweep(self):
        for n in range(2, 65):
            size = GraphSize(n)
            basis = WalkBasis(size, marked=0)
            brute = reduce_operator(FullAdjacency(size).dense, basis)
            assert np.abs(brute - reduced_adjacency(size)).max() < 1e-12

    def test_closed_form_entries_n5(self):
        reduced = reduced_adjacency(GraphSize(5))
        assert reduced[0, 2] == 2.0  # sqrt(n - 1) = sqrt(4)
        assert reduced[2, 2] == 3.0
        assert np.array_equal(reduced, reduced.T)

    def test_identity_reduces_to_identity(self):
        basis = WalkBasis(GraphSize(7), marked=4)
        assert np.abs(reduce_operator(np.eye(14), basis) - np.eye(4)).max() < 1e-12

    def test_square_commutes_with_reduction_n6(self):
        # valid because the walk subspace is invariant under the adjacency
        size = GraphSize(6)
        basis = WalkBasis(size, marked=0)
        dense = FullAdjacency(size).dense
        assert np.abs(
            reduce_operator(dense @ dense, basis) - reduced_adjacency(size) @ reduced_adjacency(size)
        ).max() < 1e-10

    def test_dimension_mismatch(self):
        basis = WalkBasis(GraphSize(4), marked=0)
        with pytest.raises(DimensionMismatchError):
            reduce_operator(np.eye(6), basis)

    def test_vertex_transitivity(self):
        size = GraphSize(9)
        dense = FullAdjacency(size).dense
        first = reduce_operator(dense, WalkBasis(size, marked=0))
        second = reduce_operator(dense, WalkBasis(size, marked=13))
        assert np.abs(first - second).max() < 1e-12


class TestDualBasis:
    def test_first_vector_is_uniform_superposition(self):
        for n in (2, 5, 50):
            size = GraphSize(n)
            expected = np.array([1.0, 1.0, np.sqrt(n - 1.0), np.sqrt(n - 1.0)])
            expected /= np.sqrt(2.0 * n)
            assert np.abs(dual_basis(size).matrix[:, 0] - expected).max() < 1e-12

    def test_third_vector_n2(self):
        assert np.abs(
            dual_basis(GraphSize(2)).matrix[:, 2] - np.array([1, -1, -1, 1]) / 2.0
        ).max() < 1e-15

    def test_eigen_relation_all_vectors(self):
        for n in (2, 4, 9, 31, 64):
            size = GraphSize(n)
            dual = dual_basis(size)
            reduced = reduced_adjacency(size)
            for k in range(4):
                residual = reduced @ dual.matrix[:, k] - dual.eigenvalues[k] * dual.matrix[:, k]
                assert np.abs(residual).max() < 1e-12

    def test_eigenvalues_cached_and_read_only(self):
        for n in (2, 9, 2 ** 30):
            dual = dual_basis(GraphSize(n))
            values = dual.eigenvalues
            assert values is dual.eigenvalues
            assert values.tobytes() == np.array([n, n - 2.0, -2.0, 0.0]).tobytes()
            with pytest.raises(ValueError):
                values[0] = 0.0

    def test_kernel_vector_n9(self):
        size = GraphSize(9)
        vec = dual_basis(size).matrix[:, 3]
        assert np.abs(reduced_adjacency(size) @ vec).max() < 1e-12

    def test_reduced_eigenvalues_sorted(self):
        for n in (2, 3, 12, 64):
            eigs = np.sort(np.linalg.eigvalsh(reduced_adjacency(GraphSize(n))))
            assert np.allclose(eigs, sorted([-2.0, 0.0, n - 2.0, float(n)]), atol=1e-12)

    def test_marked_state_in_dual_coordinates(self):
        for n in (3, 8, 30):
            size = GraphSize(n)
            marked = np.zeros(4)
            marked[0] = 1.0
            expected = np.array([1.0, -1.0, np.sqrt(n - 1.0), -np.sqrt(n - 1.0)])
            expected /= np.sqrt(2.0 * n)
            assert np.abs(dual_basis(size).to_dual(marked) - expected).max() < 1e-12

    def test_round_trip_is_identity(self, rng):
        for n in (2, 6, 17):
            dual = dual_basis(GraphSize(n))
            state = random_state(rng, 4)
            assert np.abs(dual.from_dual(dual.to_dual(state)) - state).max() < 1e-12
