"""Exact state mechanics on a truncated three-mode Fock space.

The three modes are the long-wavelength signal (mode 1), the short-wavelength
signal (mode 2) and the strong pump (mode 3).  A state is the C-order
flattening of its (n1, n2, n3) amplitude grid (FockBasis.shape,
TripleModeState.grid); the Hamiltonian acts on that grid by slicing, with
no matrix, so a desk machine handles pump cutoffs of a few thousand photons.

All operations are pure: states and operators are never mutated after
construction and are safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Numerical contracts used throughout the package.
EPS_NORM = 1e-12
EPS_TRUNC = 1e-8


class BasisMismatchError(ValueError):
    """Two states (or a state and an operator) live on different bases."""


class CutoffError(ValueError):
    """A mode cutoff is too small to hold the requested state."""

    def __init__(self, message: str, leakage: float):
        super().__init__(message)
        self.leakage = leakage


class SectorError(ValueError):
    """The state is outside the photon-number sector an operation requires."""


def default_pump_cutoff(mean_photons: float) -> int:
    """Pump-mode cutoff for a coherent pump with the given mean photon number.

    12 standard deviations of Poisson headroom plus a constant floor keeps
    the probability on the cutoff shell below ~1e-28, so shell amplitudes
    stay under 1e-14 and closed-form/brute-force evolutions agree to well
    beyond the 1e-10 oracle tolerance even at mean photon numbers of order 1.
    """
    if mean_photons < 0:
        raise ValueError("mean photon number must be nonnegative")
    return int(np.ceil(mean_photons + 12.0 * np.sqrt(mean_photons) + 14.0))


@dataclass(frozen=True)
class FockBasis:
    """Truncated three-mode occupation basis: the (n1, n2, n3) grid of
    shape `shape`, flattened in C order."""

    n1_max: int
    n2_max: int
    n3_max: int

    def __post_init__(self):
        if min(self.n1_max, self.n2_max, self.n3_max) < 0:
            raise ValueError("cutoffs must be nonnegative")

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.n1_max + 1, self.n2_max + 1, self.n3_max + 1

    @property
    def dim(self) -> int:
        return math.prod(self.shape)


@dataclass(frozen=True)
class TripleModeState:
    """A pure state as a complex amplitude vector over a FockBasis."""

    basis: FockBasis
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.basis.dim,):
            raise ValueError(f"amplitude vector has shape {amps.shape}, basis dim {self.basis.dim}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def grid(self) -> np.ndarray:
        """The amplitudes as an array of shape basis.shape, indexed
        [n1, n2, n3]; a view, not a copy."""
        return self.amplitudes.reshape(self.basis.shape)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "TripleModeState":
        n = self.norm
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return TripleModeState(self.basis, self.amplitudes / n)


@dataclass(frozen=True)
class CoherentSpec:
    """Coherent pump description: alpha = exp(i*phase) * sqrt(mean_photons)."""

    mean_photons: float
    phase: float = 0.0

    def __post_init__(self):
        if self.mean_photons < 0:
            raise ValueError("mean photon number must be nonnegative")

    def amplitude_series(self, n_max: int) -> np.ndarray:
        """Truncated expansion exp(-|a|^2/2) a^n / sqrt(n!) for n = 0..n_max."""
        n = np.arange(n_max + 1)
        if self.mean_photons == 0.0:
            out = np.zeros(n_max + 1, dtype=complex)
            out[0] = 1.0
            return out
        # log |c_n| summed from the ratios |c_k / c_(k-1)| = sqrt(|a|^2 / k):
        # the partial sums stay near the final magnitudes, so the series
        # carries none of the rounding of n log|a|^2 and log n! cancelling
        log_ratio = 0.5 * np.log(self.mean_photons / n[1:])
        log_mag = np.cumsum(np.concatenate(([-0.5 * self.mean_photons], log_ratio)))
        return np.exp(log_mag) * np.exp(1j * n * self.phase)


@dataclass(frozen=True)
class TrilinearHamiltonian:
    """H = i*(a1 a2^dag a3 - a1^dag a2 a3^dag) on a truncated basis, in units
    of the coupling chi (the evolution time carries chi*t).

    The operator conserves n1+n2 and n1-n3, so evolution is block diagonal
    over those two charges.  H is held as its hop grid, with
    hop[n1-1, n2, n3-1] = i*sqrt(n1*(n2+1)*n3) the amplitude of
    |n1,n2,n3> -> |n1-1,n2+1,n3-1>; apply() writes each hop together with
    its conjugate, so H is Hermitian by construction.
    """

    basis: FockBasis
    hop: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n1, n2, n3 = np.ogrid[1:self.basis.n1_max + 1, :self.basis.n2_max,
                              1:self.basis.n3_max + 1]
        object.__setattr__(self, "hop", 1j * np.sqrt((n1 * (n2 + 1) * n3).astype(float)))

    def apply(self, grid: np.ndarray) -> np.ndarray:
        """H psi for an amplitude grid of shape basis.shape."""
        out = np.zeros_like(grid)
        out[:-1, 1:, :-1] = self.hop * grid[1:, :-1, 1:]
        out[1:, :-1, 1:] += self.hop.conj() * grid[:-1, 1:, :-1]
        return out

    def norm_1(self) -> float:
        """||H||_1, the largest column sum of |H|: each state's hops out
        of it plus the hops into it."""
        column = np.zeros(self.basis.shape)
        column[1:, :-1, 1:] = np.abs(self.hop)
        column[:-1, 1:, :-1] += np.abs(self.hop)
        return float(column.max())


def _pump_series(spec: CoherentSpec, basis: FockBasis) -> np.ndarray:
    """The pump's amplitude series up to its cutoff.

    Raises CutoffError when the cutoff retains less than 1 - EPS_TRUNC of
    the coherent-state norm.
    """
    series = spec.amplitude_series(basis.n3_max)
    retained = float(np.sum(np.abs(series) ** 2))
    if retained < 1.0 - EPS_TRUNC:
        raise CutoffError(
            f"pump cutoff {basis.n3_max} retains only {retained:.12f} of the "
            f"coherent norm for mean photon number {spec.mean_photons}",
            1.0 - retained)
    return series


def single_photon_with_pump(input_mode: int, spec: CoherentSpec,
                            basis: FockBasis) -> TripleModeState:
    """|1,0> or |0,1> in the signal modes tensored with the coherent pump."""
    if input_mode not in (1, 2):
        raise ValueError("input_mode must be 1 or 2")
    if basis.n1_max < 1 or basis.n2_max < 1:
        raise ValueError("signal cutoffs must be at least 1")
    grid = np.zeros(basis.shape, dtype=complex)
    grid[(1, 0) if input_mode == 1 else (0, 1)] = _pump_series(spec, basis)
    return TripleModeState(basis, grid.ravel()).normalized()


def evolve_closed_form(input_mode: int, pump: CoherentSpec, chi_t: float,
                       basis: FockBasis) -> TripleModeState:
    """Evolve a single signal photon with a coherent pump, in closed form.

    For a mode-1 photon the pump component |n> rotates by the angle
    chi_t*sqrt(n) into the mode-2/(n-1) branch; for a mode-2 photon the
    component |n> rotates by chi_t*sqrt(n+1) into the mode-1/(n+1) branch
    with a minus sign.  Components that would exceed the pump cutoff are
    dropped; their weight is bounded by the cutoff-shell amplitude.
    """
    if input_mode not in (1, 2):
        raise SectorError("closed-form evolution requires a single signal photon "
                          "in mode 1 or mode 2")
    series = _pump_series(pump, basis)
    grid = np.zeros(basis.shape, dtype=complex)
    ns = np.arange(basis.n3_max + 1)
    if input_mode == 1:
        angles = chi_t * np.sqrt(ns)
        grid[1, 0] += series * np.cos(angles)
        grid[0, 1, :-1] += series[1:] * np.sin(angles[1:])
    else:
        angles = chi_t * np.sqrt(ns + 1)
        grid[0, 1] += series * np.cos(angles)
        grid[1, 0, 1:] += -series[:-1] * np.sin(angles[:-1])
    return TripleModeState(basis, grid.ravel()).normalized()


def evolve_brute_force(state: TripleModeState, hamiltonian: TrilinearHamiltonian,
                       time: float) -> TripleModeState:
    """exp(-i H t)|state> as s steps of the degree-18 Taylor polynomial in
    A = -i H t/s, with s = max(1, ceil(|t| ||H||_1)).

    Then ||A||_1 <= 1, so each step's truncation error is below
    sum_{k>18} 1/k! < 2^-53 and the result is exact to round-off.  This is
    the independent oracle for evolve_closed_form, so it shares no code
    with it.
    """
    if state.basis != hamiltonian.basis:
        raise BasisMismatchError("state and Hamiltonian live on different bases")
    steps = max(1, math.ceil(abs(time) * hamiltonian.norm_1()))
    a = -1j * time / steps
    psi = state.grid
    for _ in range(steps):
        term, psi = psi, psi.copy()
        for k in range(1, 19):
            term = hamiltonian.apply(term)
            term *= a / k
            psi += term
    evolved = TripleModeState(state.basis, psi.ravel())
    if abs(evolved.norm - state.norm) > EPS_NORM:
        raise ValueError(f"evolution changed the norm by {abs(evolved.norm - state.norm):.3e}")
    leak = float(np.sum(np.abs(evolved.grid[:, :, -1]) ** 2))
    if leak > EPS_TRUNC:
        raise CutoffError(f"evolved state leaks {leak:.3e} onto the pump cutoff shell", leak)
    return evolved

