"""Tests for the oriented-graph layer and its spectral quantities."""

from pathlib import Path

import numpy as np
import pytest

from bittide_sim.analysis import WorstCaseResult, worst_case_frequency
from bittide_sim.graph import (_SIGN_TOL, NotConnectedError, OrientedGraph,
                               _sign_normalize_columns, complete, incidence_matrix, mesh, path,
                               resistance_matrix, spectral_data)
from bittide_sim.ode import Gains, build_reduced_system
from bittide_sim.scenario import load_scenario
from helpers import (bfs_distance, neighbors, random_connected_graph, resistance_distance,
                     sign_normalize_columns, union_find_connected)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


class TestOrientedGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            OrientedGraph(3, ((0, 0),))

    def test_rejects_duplicate_undirected(self):
        with pytest.raises(ValueError, match="duplicate"):
            OrientedGraph(3, ((0, 1), (1, 0)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            OrientedGraph(2, ((0, 2),))

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            OrientedGraph(1, ())

    def test_neighbors(self):
        g = OrientedGraph(4, ((0, 1), (2, 1), (1, 3)))
        assert neighbors(g, 1) == [0, 2, 3]
        assert neighbors(g, 0) == [1]

    def test_directed_links_pairing(self):
        g = OrientedGraph(3, ((0, 1), (0, 2)))
        assert g.directed_links() == [(0, 1), (1, 0), (0, 2), (2, 0)]

    def test_connectivity(self):
        assert OrientedGraph(3, ((0, 1), (1, 2))).is_connected()
        assert not OrientedGraph(4, ((0, 1), (2, 3))).is_connected()


class TestGenerators:
    def test_complete_edge_count(self):
        assert complete(3).m == 3
        assert complete(5).m == 10

    def test_mesh_dimensions(self):
        g = mesh(4, 6)
        assert g.n == 24
        assert g.m == 38  # rows*(cols-1) + cols*(rows-1)

    def test_path_two_equals_complete_two(self):
        assert path(2).edges == complete(2).edges

    def test_orientation_lower_to_higher(self):
        for g in (complete(4), mesh(2, 3), path(5)):
            assert all(u < v for u, v in g.edges)

    def test_too_small(self):
        # complete and path leave the size rule to OrientedGraph
        for make, n in ((complete, 1), (path, 1), (path, 0)):
            with pytest.raises(ValueError, match=f"need at least 2 nodes, got n={n}"):
                make(n)
        with pytest.raises(ValueError):
            mesh(1, 1)


class TestIncidenceAndLaplacian:
    def test_single_edge_column(self):
        b = incidence_matrix(OrientedGraph(2, ((0, 1),)))
        assert np.array_equal(b, [[1.0], [-1.0]])

    def test_triangle_incidence(self):
        g = OrientedGraph(3, ((0, 1), (1, 2), (0, 2)))
        b = incidence_matrix(g)
        assert np.array_equal(b, [[1, 0, 1], [-1, 1, 0], [0, -1, -1]])

    def test_columns_sum_to_zero(self):
        g = random_connected_graph(np.random.RandomState(0), 10)
        b = incidence_matrix(g)
        assert np.array_equal(b.sum(axis=0), np.zeros(g.m))

    def test_triangle_laplacian(self):
        sd = spectral_data(complete(3))
        lap = sd.incidence @ sd.incidence.T
        assert np.array_equal(lap, 3 * np.eye(3) - np.ones((3, 3)))

    def test_path_laplacian(self):
        sd = spectral_data(path(3))
        lap = sd.incidence @ sd.incidence.T
        assert np.array_equal(lap, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])

    def test_rank_n_minus_one(self):
        rng = np.random.RandomState(1)
        for _ in range(5):
            g = random_connected_graph(rng, rng.randint(2, 9))
            sd = spectral_data(g)
            assert np.linalg.matrix_rank(sd.incidence @ sd.incidence.T) == g.n - 1


class TestSpectralData:
    def test_triangle_eigenvalues(self):
        sd = spectral_data(complete(3))
        assert np.allclose(sd.eigenvalues, [0.0, 3.0, 3.0])

    def test_disconnected_raises(self):
        with pytest.raises(NotConnectedError):
            spectral_data(OrientedGraph(4, ((0, 1), (2, 3))))

    def test_edgeless_raises(self):
        with pytest.raises(NotConnectedError):
            spectral_data(OrientedGraph(2, ()))

    def test_pseudo_inverse_identities(self):
        rng = np.random.RandomState(2)
        for _ in range(5):
            sd = spectral_data(random_connected_graph(rng, rng.randint(3, 10)))
            lap, lp = sd.incidence @ sd.incidence.T, sd.pseudo_inverse
            assert np.linalg.norm(lap @ lp @ lap - lap) <= 1e-10 * np.linalg.norm(lap)
            assert np.abs(lp @ np.ones(sd.graph.n)).max() <= 1e-10

    def test_basis_orthogonality(self):
        sd = spectral_data(mesh(3, 3))
        u1 = sd.eigenvectors[:, 1:]
        n = sd.graph.n
        assert np.abs(u1.T @ u1 - np.eye(n - 1)).max() <= 1e-12
        assert np.abs(u1.T @ np.ones(n)).max() <= 1e-12

    def test_full_basis_orthogonal(self):
        sd = spectral_data(complete(4))
        u = np.column_stack([sd.eigenvectors[:, 1:], np.full(4, 0.5)])
        assert np.abs(u.T @ u - np.eye(4)).max() <= 1e-12

    def test_reduced_laplacian_positive_definite(self):
        rng = np.random.RandomState(3)
        for _ in range(5):
            sd = spectral_data(random_connected_graph(rng, rng.randint(2, 9)))
            lap_hat = build_reduced_system(sd, Gains(k_p=1.0, k_i=1.0)).lap_hat
            assert np.linalg.eigvalsh(lap_hat).min() > 0

    def test_reduced_laplacian_reconstructs(self):
        sd = spectral_data(mesh(2, 4))
        u1 = sd.eigenvectors[:, 1:]
        rebuilt = u1 @ build_reduced_system(sd, Gains(k_p=1.0, k_i=1.0)).lap_hat @ u1.T
        assert np.abs(rebuilt - sd.incidence @ sd.incidence.T).max() <= 1e-10

    def test_lambda2_positive_iff_connected(self):
        # union-find oracle against the spectrum, including disconnected graphs
        rng = np.random.RandomState(4)
        for _ in range(20):
            n = rng.randint(2, 9)
            n_edges = rng.randint(0, n * (n - 1) // 2 + 1)
            pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
            rng.shuffle(pool)
            g = OrientedGraph(n, tuple(pool[:n_edges]))
            b = incidence_matrix(g)
            w = np.linalg.eigvalsh(b @ b.T)  # L; spectral_data refuses a disconnected graph
            connected = union_find_connected(n, g.edges)
            assert (w[1] > 1e-9) == connected


class TestResistanceDistance:
    def test_single_edge(self):
        sd = spectral_data(path(2))
        assert resistance_distance(sd, 0, 1) == pytest.approx(1.0, rel=1e-12)

    def test_triangle_series_parallel(self):
        # direct 1-ohm edge in parallel with the 2-ohm two-edge route
        sd = spectral_data(complete(3))
        assert resistance_distance(sd, 0, 1) == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_mesh_contains_quoted_pairs(self):
        sd = spectral_data(mesh(4, 6))
        r = resistance_matrix(sd)
        off = r[np.triu_indices(24, k=1)]
        assert np.any(np.abs(off - 0.700) <= 0.007)
        assert np.any(np.abs(off - 2.262) <= 0.02262)

    def test_symmetry_and_zero_diagonal(self):
        sd = spectral_data(mesh(3, 3))
        r = resistance_matrix(sd)
        assert np.abs(r - r.T).max() <= 1e-12
        assert np.abs(np.diag(r)).max() <= 1e-12

    def test_bounded_by_path_length(self):
        # the pairwise oracle also checks every entry of the matrix, bit for bit
        rng = np.random.RandomState(5)
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(3, 9))
            sd = spectral_data(g)
            r = resistance_matrix(sd)
            for i in range(g.n):
                for j in range(i + 1, g.n):
                    assert r[i, j] == resistance_distance(sd, i, j)
                    assert resistance_distance(sd, i, j) <= bfs_distance(g, i, j) + 1e-10

    def test_triangle_inequality(self):
        rng = np.random.RandomState(6)
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(3, 9))
            r = resistance_matrix(spectral_data(g))
            for i in range(g.n):
                for j in range(g.n):
                    for k in range(g.n):
                        assert r[i, j] <= r[i, k] + r[k, j] + 1e-10

    def test_rayleigh_monotonicity(self):
        rng = np.random.RandomState(7)
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(3, 9), extra_edges=1)
            existing = {(min(u, v), max(u, v)) for u, v in g.edges}
            non_edges = [(i, j) for i in range(g.n) for j in range(i + 1, g.n)
                         if (i, j) not in existing]
            if not non_edges:
                continue
            r_before = resistance_matrix(spectral_data(g))
            extra = non_edges[rng.randint(len(non_edges))]
            g2 = OrientedGraph(g.n, g.edges + (extra,))
            r_after = resistance_matrix(spectral_data(g2))
            assert (r_after <= r_before + 1e-10).all()

    def test_index_out_of_range(self):
        sd = spectral_data(path(3))
        with pytest.raises(IndexError):
            resistance_distance(sd, 0, 3)


class TestFiedlerVector:
    """The Fiedler vector and lambda_2, read as the gamma = 1 worst case."""

    def test_path_three(self):
        res = worst_case_frequency(spectral_data(path(3)), 1.0)
        assert isinstance(res, WorstCaseResult)
        assert not res.degenerate
        assert 1.0 / res.attained_quadratic_form == pytest.approx(1.0, rel=1e-12)
        expected = np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0)
        assert np.allclose(res.omega_u, expected, atol=1e-12)

    def test_complete_graph_degenerate(self):
        res = worst_case_frequency(spectral_data(complete(4)), 1.0)
        assert res.degenerate
        assert 1.0 / res.attained_quadratic_form == pytest.approx(4.0, rel=1e-12)

    def test_orthogonal_to_ones(self):
        rng = np.random.RandomState(8)
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(3, 10))
            res = worst_case_frequency(spectral_data(g), 1.0)
            assert abs(res.omega_u @ np.ones(g.n)) <= 1e-12
            assert np.linalg.norm(res.omega_u) == pytest.approx(1.0, abs=1e-12)

    def test_sign_convention_deterministic(self):
        res = worst_case_frequency(spectral_data(mesh(4, 6)), 1.0)
        nz = res.omega_u[np.abs(res.omega_u) > 1e-9]
        assert nz[0] > 0


class TestSignNormalization:
    """The bulk sign flip gives the bits of the column-by-column loop in helpers."""

    @staticmethod
    def assert_same_bits(v):
        assert _sign_normalize_columns(v).tobytes() == sign_normalize_columns(v).tobytes()

    @pytest.mark.parametrize("name", ["triangle_pi", "mesh_close_pair", "mesh_far_pair",
                                      "mesh_12x12"])
    def test_shipped_graph_eigenvectors(self, name):
        graph = (mesh(12, 12) if name == "mesh_12x12"
                 else load_scenario(SCENARIOS / f"{name}.json")[0])
        b = incidence_matrix(graph)
        v = np.linalg.eigh(b @ b.T)[1]
        self.assert_same_bits(v)
        self.assert_same_bits(-v)

    def test_negligible_leading_entries_and_zero_columns(self):
        rng = np.random.RandomState(21)
        for _ in range(200):
            n, k = rng.randint(2, 10), rng.randint(1, 6)
            # column scales from far below 1, where every entry is negligible, to 1e3
            v = rng.randn(n, k) * 10.0 ** rng.uniform(-15, 3, k)
            for j, lead in enumerate(rng.randint(0, n, k)):
                # entries above row lead fall below the threshold, with either sign
                v[:lead, j] = (rng.choice([-1.0, 1.0], lead) * rng.uniform(0.0, 1.0, lead)
                               * _SIGN_TOL * max(np.abs(v[:, j]).max(), 1.0))
            v[:, rng.randint(k)] = rng.choice([0.0, -0.0])
            self.assert_same_bits(v)
