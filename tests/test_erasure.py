import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from chromint.erasure import erasure_overlap, evolved_signal_density, reduced_signal_density
from chromint.fock import (
    CoherentSpec,
    FockBasis,
    TrilinearHamiltonian,
    TripleModeState,
    default_pump_cutoff,
    evolve_brute_force,
    evolve_closed_form,
    single_photon_with_pump,
)
from chromint.interferometry import DetectorSetting, effective_rotation
from test_fock import dense_hamiltonian


def color2_branch(grid):
    """The gamma-2 post-selection of an amplitude grid: its n2 = 1 plane,
    normalized, and that plane's probability."""
    plane = grid[:, 1]
    prob = float(np.sum(np.abs(plane) ** 2))
    return plane / math.sqrt(prob), prob


def brute_force_filtered(input_mode, n_mean, theta, phase=0.0):
    """Independent pipeline: dense expm evolution, then the gamma-2 projector.

    Dense expm costs O(dim^3), so this reference is kept to N <= 64."""
    basis = FockBasis(1, 1, default_pump_cutoff(n_mean))
    chi_t = theta / math.sqrt(n_mean)
    ham = TrilinearHamiltonian(basis)
    psi0 = single_photon_with_pump(input_mode, CoherentSpec(n_mean, phase), basis)
    psi = expm(-1j * dense_hamiltonian(ham) * chi_t) @ psi0.amplitudes
    return color2_branch(psi.reshape(basis.shape))


def test_post_select_probability_against_series_oracle():
    # oracle: Poisson-averaged sin^2(theta*sqrt(n/N)) for the converted branch
    from scipy.special import gammaln

    n_mean, theta = 64.0, math.pi / 2
    basis = FockBasis(1, 1, default_pump_cutoff(n_mean))
    state = evolve_closed_form(1, CoherentSpec(n_mean), theta / 8.0, basis)
    _, prob = color2_branch(state.grid)
    n = np.arange(basis.n3_max + 1)
    pn = np.exp(-n_mean + n * np.log(n_mean) - gammaln(n + 1))
    oracle = float((pn * np.sin(theta * np.sqrt(n / n_mean)) ** 2).sum())
    assert prob == pytest.approx(oracle, abs=1e-10)
    assert 1.0 - prob < 10.0 / math.sqrt(n_mean)


def test_post_select_empty_branch():
    # with no conversion a gamma-1 photon leaves the gamma-2 plane exactly
    # empty; a branch of probability ~theta^2 counts as empty below
    # EMPTY_BRANCH_PROB = 1e-15 and as a branch above it
    basis = FockBasis(1, 1, default_pump_cutoff(4.0))
    state = evolve_closed_form(1, CoherentSpec(4.0), 0.0, basis)
    assert not np.any(state.grid[:, 1])
    assert erasure_overlap(4.0, 1e-9) == 0.0
    assert erasure_overlap(4.0, 1e-6) > 0.99


def test_post_select_balanced_point_matches_brute_force():
    # chi*T*sqrt(N) = pi/4 at N=64: probability near 1/2, pinned by the
    # expm oracle
    n_mean, theta = 64.0, math.pi / 4
    basis = FockBasis(1, 1, default_pump_cutoff(n_mean))
    state = evolve_closed_form(1, CoherentSpec(n_mean), theta / 8.0, basis)
    _, prob = color2_branch(state.grid)
    assert abs(prob - 0.5) <= 10.0 / math.sqrt(64.0)
    assert prob == pytest.approx(0.4984678526940278, abs=1e-10)
    _, prob_oracle = brute_force_filtered(1, n_mean, theta)
    assert prob == pytest.approx(prob_oracle, abs=1e-10)


@settings(deadline=None, max_examples=25)
@given(st.floats(0.05, 1.5), st.floats(0.0, 2 * math.pi), st.integers(1, 2))
def test_filter_probabilities_sum_to_one(theta, phase, mode):
    n_mean = 4.0
    basis = FockBasis(1, 1, default_pump_cutoff(n_mean))
    state = evolve_closed_form(mode, CoherentSpec(n_mean, phase),
                               theta / math.sqrt(n_mean), basis)
    # the gamma-1 filter keeps the n1 = 1 plane, the gamma-2 filter the n2 = 1 plane
    probs = np.abs(state.grid) ** 2
    assert probs[1].sum() + probs[:, 1].sum() == pytest.approx(1.0, abs=1e-12)


def test_erasure_overlap_frozen_value_and_brute_force_route():
    # value recorded by the expm oracle run at N=4, theta=pi/4
    ov = erasure_overlap(4.0, math.pi / 4)
    assert ov == pytest.approx(0.9885856776336768, abs=1e-10)
    a, _ = brute_force_filtered(1, 4.0, math.pi / 4)
    b, _ = brute_force_filtered(2, 4.0, math.pi / 4)
    assert abs(np.vdot(a, b)) == pytest.approx(ov, abs=1e-10)


def test_erasure_overlap_zero_conversion_is_empty():
    assert erasure_overlap(4.0, 0.0) == 0.0


def test_erasure_overlap_exact_scaling_is_one_over_n():
    """Oracle-checked ladder N = 4 .. 1024 at theta = pi/4: the exact modulus
    deficit decays ~1/N; the distinguishability sqrt(1-ov^2) carries the
    1/sqrt(N) law."""
    theta = math.pi / 4
    ns = [2 ** k for k in range(2, 11)]
    overlaps = {}
    for n in ns:
        ov = erasure_overlap(float(n), theta)
        basis = FockBasis(1, 1, default_pump_cutoff(n))
        ham = TrilinearHamiltonian(basis)
        pump = CoherentSpec(float(n))
        chi_t = theta / math.sqrt(n)
        a, b = (color2_branch(evolve_brute_force(
                    single_photon_with_pump(mode, pump, basis), ham, chi_t).grid)[0]
                for mode in (1, 2))
        assert abs(np.vdot(a, b)) == pytest.approx(ov, abs=1e-10)
        assert (1.0 - ov) * math.sqrt(n) < 1.0
        overlaps[n] = ov
    for n in ns[2:-1]:
        lo, hi = overlaps[n], overlaps[2 * n]
        deficit_slope = math.log2((1.0 - hi) / (1.0 - lo))
        dist_slope = 0.5 * math.log2((1.0 - hi ** 2) / (1.0 - lo ** 2))
        assert -1.05 <= deficit_slope <= -0.95, (n, deficit_slope)
        assert -0.525 <= dist_slope <= -0.475, (n, dist_slope)


def test_reduced_density_of_product_state():
    basis = FockBasis(1, 1, 30)
    grid = np.zeros(basis.shape, dtype=complex)
    grid[1, 0] = CoherentSpec(4.0).amplitude_series(basis.n3_max)
    rho = reduced_signal_density(TripleModeState(basis, grid.ravel()).normalized())
    assert np.allclose(rho, [[1, 0], [0, 0]], atol=1e-14)


def test_reduced_density_sector_check():
    basis = FockBasis(1, 1, 5)
    # vacuum in both signal modes: outside the single-photon sector
    grid = np.zeros(basis.shape, dtype=complex)
    grid[0, 0, 1] = 1.0
    with pytest.raises(Exception):
        reduced_signal_density(TripleModeState(basis, grid.ravel()))


def test_density_properties_and_rotation_limit():
    # the fidelity to the rotation's output is acceptance criterion 03,
    # checked by selftest's color-rotation-limit
    for mode in (1, 2):
        rho = evolved_signal_density(mode, 64.0, 0.9, 0.3)
        assert np.allclose(rho, rho.conj().T, atol=1e-14)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert min(np.linalg.eigvalsh(rho)) > -1e-14


def test_fidelity_monotone_in_pump_strength():
    # fidelity <v|rho|v> to the rotation's output v for the input color
    for theta in (math.pi / 8, math.pi / 4, 3 * math.pi / 8):
        for mode, v in zip((1, 2), effective_rotation(theta, 0.0).T):
            fids = [np.vdot(v, evolved_signal_density(mode, n, theta) @ v).real
                    for n in (4.0, 16.0, 64.0)]
            assert fids[0] <= fids[1] + 1e-12 <= fids[2] + 2e-12


def test_effective_rotation_identity_and_balanced():
    assert np.allclose(effective_rotation(0.0, 0.0), np.eye(2), atol=1e-15)
    u = effective_rotation(math.pi / 4, 0.0)
    assert np.allclose(np.abs(u) ** 2, 0.5, atol=1e-15)


def test_effective_rotation_columns_are_output_states():
    theta, phase = 0.77, 1.9
    u = effective_rotation(theta, phase)
    expected1 = [math.cos(theta), np.exp(1j * phase) * math.sin(theta)]
    expected2 = [-np.exp(-1j * phase) * math.sin(theta), math.cos(theta)]
    assert np.allclose(u[:, 0], expected1, atol=1e-15)
    assert np.allclose(u[:, 1], expected2, atol=1e-15)


@settings(deadline=None, max_examples=100)
@given(st.floats(0.0, 2 * math.pi), st.floats(0.0, 2 * math.pi))
def test_effective_rotation_unitary(theta, phase):
    u = effective_rotation(theta, phase)
    assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-14


def test_detector_setting_validation():
    with pytest.raises(ValueError):
        DetectorSetting(0.3, efficiency=1.5)
    with pytest.raises(ValueError):
        DetectorSetting(0.3, output_filter=3)
    with pytest.raises(ValueError):
        DetectorSetting(0.3, dark_count_rate=-1.0)
