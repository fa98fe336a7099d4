import numpy as np
import pytest

from ciinwalk import cg, dynamics
from ciinwalk.cg import CGConfig, cg_evolve, cg_hamiltonian, cg_prediction, rotation_pair_gap
from ciinwalk.graphs import GraphSize, reduced_adjacency


class TestConfig:
    @pytest.mark.parametrize("field", ["gamma", "total_time", "dt"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_refuses_non_finite_values(self, field, value):
        values = {"gamma": 1.0 / 64, "total_time": 10.0, "dt": 0.1, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            CGConfig(GraphSize(64), **values)


def reference_columns(config):
    """cg_evolve's sample times and (k, 4) probabilities, computed afresh
    from the eigendecomposition."""
    energies, vectors = np.linalg.eigh(cg_hamiltonian(config.size, config.gamma))
    coeffs = vectors.T @ dynamics.uniform_state(config.size)
    times = cg._sample_times(config.total_time, config.dt)
    states = vectors @ (np.exp(-1j * np.outer(energies, times)) * coeffs[:, None])
    return times, np.abs(states.T) ** 2


class TestTrajectoryColumns:
    def test_samples_equal_the_per_sample_form(self):
        config = CGConfig(GraphSize(256), 1.0 / 256, 30.0, 0.01)
        trajectory = cg_evolve(config).trajectory
        times, probabilities = reference_columns(config)
        assert len(trajectory) == len(times) == 3001
        assert np.array_equal(trajectory.probabilities, probabilities)
        assert np.array_equal(trajectory.walk_time_so_far, times)
        assert trajectory.step.tolist() == list(range(3001))
        assert not trajectory.queries_so_far.any()


class TestHamiltonian:
    def test_entries_n4_critical_rate(self):
        h = cg_hamiltonian(GraphSize(4), gamma=0.25)
        assert h[0, 0] == -1.0
        assert h[2, 2] == -0.5
        assert h[3, 3] == -0.5
        assert np.array_equal(h, h.T)

    def test_zero_rate_leaves_projector_only(self):
        for n in (4, 17):
            h = cg_hamiltonian(GraphSize(n), gamma=0.0)
            expected = np.zeros((4, 4))
            expected[0, 0] = -1.0
            assert np.array_equal(h, expected)

    def test_no_large_n_truncation(self):
        size = GraphSize(12)
        gamma = 0.07
        assert np.abs(
            cg_hamiltonian(size, gamma)
            + gamma * reduced_adjacency(size)
            + np.diag([1.0, 0, 0, 0])
        ).max() < 1e-15

    def test_rotation_pair_gap_n1024(self):
        # dense 4x4 diagonalization against the 2/sqrt(n) splitting
        gap = rotation_pair_gap(GraphSize(1024), gamma=1.0 / 1024.0)
        assert abs(gap - 0.0625) < 1e-4


class TestPrediction:
    def test_closed_form_n1024(self):
        pred = cg_prediction(GraphSize(1024))
        assert pred.gamma_star == 1.0 / 1024.0
        assert abs(pred.peak_time - np.pi / 2.0 * 32.0) < 1e-12
        assert abs(pred.peak_time - 50.265) < 1e-2

    def test_delta_e_n4(self):
        assert cg_prediction(GraphSize(4)).delta_e == 1.0

    def test_peak_time_consistency(self):
        for n in (4, 100, 4096):
            pred = cg_prediction(GraphSize(n))
            assert abs(pred.peak_time - np.pi / pred.delta_e) < 1e-12

    def test_rejects_tiny_sizes(self):
        with pytest.raises(ValueError):
            cg_prediction(GraphSize(3))

    def test_measured_peak_near_prediction_n256(self):
        size = GraphSize(256)
        pred = cg_prediction(size)
        config = CGConfig(size, pred.gamma_star, 2.0 * pred.peak_time, 0.01)
        report = cg_evolve(config)
        probs = report.trajectory.probabilities[:, 0]
        times = report.trajectory.walk_time_so_far
        peak = probs.max()
        assert 0.48 <= peak <= 0.52
        assert abs(times[probs.argmax()] - pred.peak_time) <= 0.05 * pred.peak_time


class TestEvolution:
    def test_config_validation(self):
        size = GraphSize(8)
        with pytest.raises(ValueError):
            CGConfig(size, gamma=-0.1, total_time=1.0, dt=0.1)
        with pytest.raises(ValueError):
            CGConfig(size, gamma=0.1, total_time=-1.0, dt=0.1)
        with pytest.raises(ValueError):
            CGConfig(size, gamma=0.1, total_time=1.0, dt=0.0)

    def test_initial_probability_is_uniform(self):
        size = GraphSize(32)
        report = cg_evolve(CGConfig(size, 1.0 / 32, 0.0, 0.1))
        assert abs(report.final_success_probability - 1.0 / 64.0) < 1e-12

    def test_half_probability_peak_N2048(self):
        size = GraphSize(1024)
        config = CGConfig(size, 1.0 / 1024.0, 60.0, 0.01)
        report = cg_evolve(config)
        probs = report.trajectory.probabilities[:, 0]
        times = report.trajectory.walk_time_so_far
        assert 0.48 <= probs.max() <= 0.52
        assert abs(times[probs.argmax()] - 50.27) < 0.05 * 50.27
        # value close to one half right at the predicted time
        at_predicted = probs[np.argmin(np.abs(times - np.pi / 2 * 32))]
        assert abs(at_predicted - 0.5) < 0.02

    def test_spectator_groups_stay_put_N2048(self):
        # bound frozen from the measured maxima (3e-6 and 2.1e-3)
        size = GraphSize(1024)
        pred = cg_prediction(size)
        report = cg_evolve(CGConfig(size, pred.gamma_star, pred.peak_time, 0.05))
        p2 = report.trajectory.probabilities[:, 1]
        p4 = report.trajectory.probabilities[:, 3]
        assert np.abs(p2 - p2[0]).max() < 0.01
        assert np.abs(p4 - p4[0]).max() < 0.01

    def test_energy_conservation(self):
        size = GraphSize(64)
        gamma = 1.0 / 64.0
        h = cg_hamiltonian(size, gamma)
        energies, vectors = np.linalg.eigh(h)
        from ciinwalk.dynamics import uniform_state

        coeffs = vectors.T @ uniform_state(size)
        reference = None
        for t in np.linspace(0.0, 40.0, 37):
            state = vectors @ (np.exp(-1j * energies * t) * coeffs)
            value = np.real(np.vdot(state, h @ state))
            reference = value if reference is None else reference
            assert abs(value - reference) < 1e-10

    def test_detuned_rate_lowers_peak(self):
        size = GraphSize(1024)
        pred = cg_prediction(size)
        horizon = 2.0 * pred.peak_time

        def peak(gamma):
            report = cg_evolve(CGConfig(size, gamma, horizon, 0.02))
            return report.trajectory.probabilities[:, 0].max()

        optimal = peak(pred.gamma_star)
        assert peak(0.8 / 1024.0) < optimal
        assert peak(1.2 / 1024.0) < optimal

    def test_peak_band_across_sizes(self):
        for n in (64, 256, 1024):
            size = GraphSize(n)
            pred = cg_prediction(size)
            report = cg_evolve(CGConfig(size, pred.gamma_star, 2.0 * pred.peak_time, 0.02))
            peak = report.trajectory.probabilities[:, 0].max()
            band = 5.0 / np.sqrt(n)
            assert 0.5 - band <= peak <= 0.5 + band

    def test_sampling_includes_endpoint(self):
        size = GraphSize(16)
        report = cg_evolve(CGConfig(size, 1.0 / 16, 1.05, 0.5))
        times = report.trajectory.walk_time_so_far
        assert times[0] == 0.0
        assert abs(times[-1] - 1.05) < 1e-12
