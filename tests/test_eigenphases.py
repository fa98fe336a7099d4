"""Every walk phase of the package comes from `DualBasis.eigenphases`, or
from its size-axis form `graphs._eigenphases`, which `dynamics` calls for
every step that its runner takes and for the complement of a full run.

Each site that turns a walk time into a phase keeps its own formula here as
the reference, and that formula gives the method's bits at random t and n.
A shift of the method's output moves the output of every one of those
sites, so a site that forms its phases some other way fails the guard.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ciinwalk import circuit, dynamics
from ciinwalk import schedules as sch
from ciinwalk.cli import main
from ciinwalk.graphs import DualBasis, GraphSize, dual_basis

from conftest import flat, random_state

TIMES = st.floats(-1e9, 1e9)
# walk_full runs only where a full state fits in memory; float n - 2 and
# n - 2.0 agree below 2^53
FULL_SIDES = st.integers(2, 2**53)
SIDES = st.integers(2, 2**64 - 1)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSiteFormulas:
    @settings(max_examples=100, deadline=None)
    @given(n=SIDES, t=TIMES)
    def test_reduced_walks_and_the_complement(self, n, t):
        """exp(-1j t lambda) for `walk_reduced`, `schedule_matrix` and the
        step loop; exp(2j tau) for the complement of a full run, for one tau
        and for a vector of them."""
        dual = dual_basis(GraphSize(n))
        phases = np.exp(1j * dual.eigenphases(t))
        assert same_bits(np.exp(-1j * t * dual.eigenvalues), phases)
        assert same_bits(np.exp(2j * t), np.exp(1j * dual.eigenphases(t)[2]))
        taus = np.array([t, -t, 0.5 * t, 0.0])
        assert same_bits(np.exp(2j * taus), np.exp(1j * dual.eigenphases(taus)[2]))

    @settings(max_examples=100, deadline=None)
    @given(n=FULL_SIDES, t=TIMES)
    def test_full_space_walk(self, n, t):
        top, mid, turn, _ = np.exp(1j * dual_basis(GraphSize(n)).eigenphases(t))
        assert same_bits(np.exp(-1j * t * n), top)
        assert same_bits(np.exp(-1j * t * (n - 2)), mid)
        assert same_bits(np.exp(2j * t), turn)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 2**30), times=st.lists(st.floats(0.0, 1e4), min_size=1, max_size=40))
    def test_walk_from_the_marked_vertex(self, n, times):
        """fig4's phase block exp(-1j outer(lambda, times)), phase first:
        the group probabilities keep their bits."""
        size, times = GraphSize(n), np.array(times)
        dual = dual_basis(size)
        phases = np.exp(-1j * np.multiply.outer(dual.eigenvalues, times))
        marked = dynamics.marked_state(size)
        former = np.abs(dual.from_dual(phases * dual.to_dual(marked)[:, np.newaxis])) ** 2
        assert same_bits(former, np.abs(dynamics.walk_reduced(marked, times, size)) ** 2)

    @settings(max_examples=100, deadline=None)
    @given(n=SIDES, t=TIMES)
    def test_spectrum_angles(self, n, t):
        """n t2 / 2 and 2 t2 in the approximate spectrum, 4 pi / n in the
        deterministic one."""
        dual = dual_basis(GraphSize(n))
        minus_tau, _, double_t, _ = dual.eigenphases(t).tolist()
        assert same_bits(n * t / 2.0, -minus_tau / 2.0)
        assert same_bits(2.0 * t, double_t)
        assert same_bits(4.0 * np.pi / n, 2.0 * dual.eigenphases(np.pi / n).item(2))

    @settings(max_examples=100, deadline=None)
    @given(m=st.integers(1, 63), t=TIMES)
    def test_walk_circuit_angles(self, m, t):
        side, phase = (g for g in circuit.walk_circuit(m, t).gates
                       if isinstance(g, circuit.ControlledPhase))
        assert side.condition == "1" + "-" * m and same_bits(side.phase, 2.0 * t)
        assert phase.condition == "-" + "0" * m and same_bits(phase.phase, -t * 2**m)


# built before any patch, so that only the run forms phases under it
SIZE = GraphSize(12)
BUILT = sch.deterministic_schedule(SIZE)
FLAT = flat(BUILT)


def run(schedule, full):
    """Trajectory probabilities, one row per step.  From a full state, the
    run from its walk-basis part is subtracted, which leaves what the
    complement adds to the rest groups."""
    state = random_state(np.random.default_rng(7), SIZE.N)
    coeffs = dynamics._split_full(state, SIZE, 5)[0]
    reduced = dynamics.apply_schedule(coeffs, schedule, SIZE).trajectory.probabilities
    if not full:
        return reduced
    return dynamics.apply_schedule(state, schedule, SIZE, marked=5).trajectory.probabilities \
        - reduced


def fig4(tmp_path):
    out = tmp_path / "fig4.csv"
    assert main(["fig4-walk", "--n", "9", "--samples", "7", "--out", str(out)]) == 0
    return np.loadtxt(out, delimiter=",", skiprows=1)[:, 1:5]


def gate_angles(_):
    return [angle for gate in circuit.walk_circuit(3, 0.7).gates
            for angle in vars(gate).values() if isinstance(angle, float)]


# each site, with the eigenvalue rows of its phases: shifting any one of
# them must move the site's output
SITES = {
    "walk_reduced": (lambda _: dynamics.walk_reduced(
        random_state(np.random.default_rng(1), 4), 0.7, SIZE), range(4)),
    "schedule_matrix": (lambda _: dynamics.schedule_matrix(BUILT.iterate, SIZE), range(4)),
    "built schedule, reduced state": (lambda _: run(BUILT, full=False), range(4)),
    "flat schedule, reduced state": (lambda _: run(FLAT, full=False), range(4)),
    "built schedule, complement": (lambda _: run(BUILT, full=True), [2]),
    "flat schedule, complement": (lambda _: run(FLAT, full=True), [2]),
    "walk_full": (lambda _: dynamics.walk_full(
        random_state(np.random.default_rng(2), SIZE.N), 0.7, SIZE), range(3)),
    "fig4 reduced probabilities": (fig4, range(4)),
    "approx spectrum": (lambda _: sch.approx_schedule(GraphSize(13)).spectrum.angles, [0, 2]),
    "deterministic spectrum": (lambda _: sch.deterministic_schedule(SIZE).spectrum.angles, [2]),
    "walk_circuit angles": (gate_angles, [0, 2]),
}


@pytest.mark.parametrize("site, row", [(site, row) for site, (_, rows) in SITES.items()
                                       for row in rows])
def test_every_site_takes_its_phases_from_the_method(site, row, monkeypatch, tmp_path):
    """Shifting the eigenphases of one eigenvalue by 1e-3 moves the site's
    output.  One row at a time, so that a site fails when it forms any one
    of its phases some other way.  The odd route's spectra form no float
    walk phase: their W(pi/2) phases are exact powers of i.
    """
    function, _ = SITES[site]
    before = np.asarray(function(tmp_path))
    original, stacked = DualBasis.eigenphases, dynamics._eigenphases

    def shifted(self, times):
        phases = original(self, times)
        phases[row] += 1e-3
        return phases

    def shifted_stack(eigenvalues, times):
        # one size's eigenvalues give a row each; the runner's, a stack of
        # sizes or one as shape (1, 4), run along the last axis
        phases = stacked(eigenvalues, times)
        phases[(row,) if eigenvalues.ndim == 1 else (..., row)] += 1e-3
        return phases

    monkeypatch.setattr(DualBasis, "eigenphases", shifted)
    monkeypatch.setattr(dynamics, "_eigenphases", shifted_stack)
    after = np.asarray(function(tmp_path))
    assert np.max(np.abs(after - before)) > 1e-6
