"""The color-erasure detector on the exact Fock layer: color post-selection,
indistinguishability and the approach to the strong-pump color rotation.

A detector converts between the two signal colors with mixing angle
theta = chi*T*sqrt(N) and pump phase phi, filters one output color, and in
the strong-pump limit acts on the signal color qubit as the unitary

    [[cos(theta), -exp(-i*phi)*sin(theta)],
     [exp(i*phi)*sin(theta),  cos(theta)]]

over the basis {|1>_1 |0>_2, |0>_1 |1>_2}: interferometry.effective_rotation.
Its column k is the asymptotic output of an input photon of color k.

Filtering color 2 is the projector 1 (x) |1><1|_2 (x) 1: on an evolved
state's amplitude grid it keeps the n2 = 1 plane, grid[:, 1].
"""

from __future__ import annotations

import numpy as np

from .fock import (
    EPS_NORM,
    CoherentSpec,
    FockBasis,
    SectorError,
    TripleModeState,
    default_pump_cutoff,
    evolve_closed_form,
)
from .interferometry import DetectorSetting  # re-export: perfbench's exact_oracle builds it

# Post-selection branches below this probability are treated as empty.
EMPTY_BRANCH_PROB = 1e-15


def _evolved(input_mode: int, mean_photons: float, theta: float,
             phase: float) -> TripleModeState:
    """The closed-form evolved state of one input photon at conversion angle
    theta = chi*T*sqrt(N), on the default pump cutoff for N."""
    if mean_photons <= 0:
        raise ValueError("mean photon number must be positive")
    basis = FockBasis(1, 1, default_pump_cutoff(mean_photons))
    pump = CoherentSpec(mean_photons, phase)
    return evolve_closed_form(input_mode, pump, theta / np.sqrt(mean_photons), basis)


def erasure_overlap(mean_photons: float, theta: float, phase: float = 0.0) -> float:
    """|<Psi~1|Psi~2>| computed exactly on the truncated space.

    Evolves one photon of each color with the same pump, keeps the color-2
    plane of each grid, and takes the modulus of the normalized planes'
    inner product.  The overlap against an empty branch (probability below
    EMPTY_BRANCH_PROB) is defined as 0.
    """
    planes = [_evolved(mode, mean_photons, theta, phase).grid[:, 1] for mode in (1, 2)]
    probs = [float(np.sum(np.abs(plane) ** 2)) for plane in planes]
    if min(probs) < EMPTY_BRANCH_PROB:
        return 0.0
    return float(abs(np.vdot(*(plane / np.sqrt(prob)
                               for plane, prob in zip(planes, probs)))))


def reduced_signal_density(state: TripleModeState) -> np.ndarray:
    """Trace out the pump mode, returning the 2x2 signal color density matrix.

    Requires the state to carry exactly one signal photon; basis order is
    {|1,0>, |0,1>}.  The result is Hermitian, unit trace and PSD.
    """
    sector = ([1, 0], [0, 1])  # grid rows |1,0,m> and |0,1,m>
    outside = np.abs(state.grid) ** 2
    outside[sector] = 0.0
    weight_outside = float(np.sum(outside))
    if weight_outside > 1e3 * EPS_NORM:
        raise SectorError(
            f"state has probability {weight_outside:.3e} outside the "
            "single-signal-photon sector")
    psi = state.grid[sector]
    rho = psi @ psi.conj().T
    rho /= np.trace(rho).real
    return rho


def evolved_signal_density(input_mode: int, mean_photons: float, theta: float,
                           phase: float = 0.0) -> np.ndarray:
    """Reduced signal density matrix of the exactly evolved state."""
    return reduced_signal_density(_evolved(input_mode, mean_photons, theta, phase))
