"""The color-erasure detector on the exact Fock layer: post-selection,
indistinguishability and the approach to the strong-pump color rotation.

A detector converts between the two signal colors with mixing angle
theta = chi*T*sqrt(N) and pump phase phi, filters one output color, and in
the strong-pump limit acts on the signal color qubit as the unitary

    [[cos(theta), -exp(-i*phi)*sin(theta)],
     [exp(i*phi)*sin(theta),  cos(theta)]]

over the basis {|1>_1 |0>_2, |0>_1 |1>_2}: interferometry.effective_rotation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import (
    EPS_NORM,
    CoherentSpec,
    FockBasis,
    SectorError,
    TripleModeState,
    default_pump_cutoff,
    evolve_closed_form,
    inner_product,
)
from .interferometry import effective_rotation
from .interferometry import DetectorSetting  # re-export: perfbench's exact_oracle builds it

# Post-selection branches below this probability are treated as empty.
EMPTY_BRANCH_PROB = 1e-15


@dataclass(frozen=True)
class ColorQubitState:
    """Signal color qubit (a, b) over {|1,0>, |0,1>} with |a|^2+|b|^2 = 1."""

    a: complex
    b: complex

    def __post_init__(self):
        n = abs(self.a) ** 2 + abs(self.b) ** 2
        if abs(n - 1.0) > 1e3 * EPS_NORM:
            raise ValueError(f"color qubit norm {n} deviates from 1")

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.a, self.b], dtype=complex)


@dataclass(frozen=True)
class PostSelection:
    """Result of filtering a state on one output color.

    state is None when the branch is empty (probability below
    EMPTY_BRANCH_PROB); probability is always the raw projection weight.
    """

    state: TripleModeState | None
    probability: float

    @property
    def empty(self) -> bool:
        return self.state is None


def post_select(state: TripleModeState, output_filter: int) -> PostSelection:
    """Project onto exactly one photon in the chosen signal mode, renormalize.

    Implements the projector 1 (x) |1><1|_filter (x) 1; the complementary
    occupations of the filtered mode are discarded.  Never divides by zero:
    a branch with probability below EMPTY_BRANCH_PROB is returned empty.
    """
    if output_filter not in (1, 2):
        raise ValueError("output_filter must be 1 or 2")
    occ = state.basis.occupations()[:, output_filter - 1]
    mask = occ == 1
    kept = np.where(mask, state.amplitudes, 0.0)
    prob = float(np.sum(np.abs(kept) ** 2))
    if prob < EMPTY_BRANCH_PROB:
        return PostSelection(None, prob)
    return PostSelection(TripleModeState(state.basis, kept / np.sqrt(prob)), prob)


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

    Builds the two evolved single-photon states for the same pump, filters
    both on color 2 and takes the inner-product modulus.  The overlap against
    an empty branch is defined as 0.
    """
    sel1, sel2 = (post_select(_evolved(mode, mean_photons, theta, phase), 2)
                  for mode in (1, 2))
    if sel1.empty or sel2.empty:
        return 0.0
    return abs(inner_product(sel1.state, sel2.state))


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


def rotation_output(input_mode: int, theta: float, phase: float = 0.0) -> ColorQubitState:
    """Asymptotic color-qubit state for a single input photon."""
    col = effective_rotation(theta, phase)[:, input_mode - 1]
    return ColorQubitState(col[0], col[1])


def pure_state_fidelity(rho: np.ndarray, qubit: ColorQubitState) -> float:
    """Uhlmann fidelity against a pure state: F = <phi|rho|phi>."""
    v = qubit.vector
    return float(np.real(np.conj(v) @ rho @ v))


def evolved_signal_density(input_mode: int, mean_photons: float, theta: float,
                           phase: float = 0.0) -> np.ndarray:
    """Reduced signal density matrix of the exactly evolved state."""
    return reduced_signal_density(_evolved(input_mode, mean_photons, theta, phase))
