"""Continuous-time spatial-search baseline on the CIIN.

Evolves the equal superposition under H = -gamma * A - |marked><marked| in
the reduced 4-dimensional space, by exact diagonalization of the exact 4x4
Hamiltonian (no large-n truncation).  At the critical hopping rate
gamma* = 1/n an avoided crossing rotates amplitude between the marked vertex
and its same-side superposition with splitting 2/sqrt(n), so the success
probability peaks near 1/2 at time pi/2 * sqrt(n); the far side of the graph
stays essentially untouched.  The Laplacian convention would only add a
global phase (the graph is regular), so the adjacency is used throughout.

`cg_evolve` holds its output plus one block of samples (about 1 MB): it
evolves the samples in the blocks of `dynamics._blocks`, whose docstring
says why they keep the bits of a single pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import RunReport, Trajectory, _blocks, uniform_state
from .graphs import GraphSize, reduced_adjacency


@dataclass(frozen=True)
class CGConfig:
    """Evolution parameters; `dt` is an output sampling interval, not an
    integration step (the propagator is exact at any t)."""

    size: GraphSize
    gamma: float
    total_time: float
    dt: float

    def __post_init__(self) -> None:
        for name, value in (("gamma", self.gamma), ("total_time", self.total_time),
                            ("dt", self.dt)):
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.total_time < 0:
            raise ValueError(f"total_time must be >= 0, got {self.total_time}")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not np.isfinite(self.total_time / self.dt):
            raise ValueError(f"total_time / dt must be finite, got "
                             f"{self.total_time} / {self.dt}")


@dataclass(frozen=True)
class CGPrediction:
    """Leading-order predictions at the critical hopping rate."""

    gamma_star: float
    delta_e: float
    peak_time: float


def cg_hamiltonian(size: GraphSize, gamma: float) -> np.ndarray:
    """Exact reduced search Hamiltonian -gamma * A - |b1><b1|."""
    h = -gamma * reduced_adjacency(size)
    h[0, 0] -= 1.0
    return h


def cg_prediction(size: GraphSize) -> CGPrediction:
    """Closed-form critical rate, splitting, and 50%-peak time.

    Meaningful in the perturbative regime n >= 4.  The peak time equals
    pi / delta_e exactly.
    """
    if size.n < 4:
        raise ValueError(f"prediction requires n >= 4, got n={size.n}")
    delta_e = 2.0 / np.sqrt(size.n)
    return CGPrediction(
        gamma_star=1.0 / size.n,
        delta_e=delta_e,
        peak_time=np.pi / delta_e,
    )


def _sample_times(total_time: float, dt: float) -> np.ndarray:
    count = int(np.floor(total_time / dt + 1e-9))
    times = dt * np.arange(count + 1)
    if times[-1] < total_time - 1e-12:
        times = np.append(times, total_time)
    else:
        times[-1] = total_time
    return times


def cg_evolve(config: CGConfig, marked: int = 0) -> RunReport:
    """Evolve |s> under the search Hamiltonian; sample every dt up to total_time.

    Returns a RunReport whose walk_time_so_far column carries the evolution
    time t and whose query count is zero (the oracle acts continuously here,
    not as discrete phase queries).
    """
    h = cg_hamiltonian(config.size, config.gamma)
    energies, vectors = np.linalg.eigh(h)
    coeffs = vectors.T @ uniform_state(config.size)
    times = _sample_times(config.total_time, config.dt)
    count = len(times)
    probs = np.empty((4, count))
    for lo, hi in _blocks(count):
        # exp(-i H t_k) |s> in walk coordinates, one block of samples at a time
        phases = np.exp(-1j * np.outer(energies, times[lo:hi]))
        probs[:, lo:hi] = np.abs(vectors @ (phases * coeffs[:, None])) ** 2
    return RunReport(
        trajectory=Trajectory(np.arange(count), probs.T, np.zeros(count, dtype=np.int64), times),
        final_success_probability=float(probs[0, -1]),
        oracle_queries=0,
        total_walk_time=float(config.total_time),
    )

