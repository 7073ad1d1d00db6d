import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import gammaln

from chromint.fock import (
    BasisMismatchError,
    CoherentSpec,
    CutoffError,
    FockBasis,
    SectorError,
    TrilinearHamiltonian,
    TripleModeState,
    default_pump_cutoff,
    evolve_brute_force,
    evolve_closed_form,
    single_photon_with_pump,
)


def fock_state(basis, n1, n2, n3):
    """The basis state |n1, n2, n3>."""
    grid = np.zeros(basis.shape, dtype=complex)
    grid[n1, n2, n3] = 1.0
    return TripleModeState(basis, grid.ravel())


def mean_occupation(state, mode):
    """Expectation value of the number operator of one mode (1, 2 or 3)."""
    probs = np.abs(state.grid) ** 2
    return float(np.sum(np.indices(probs.shape)[mode - 1] * probs))


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 12))
def test_basis_index_roundtrip(c1, c2, c3):
    basis = FockBasis(c1, c2, c3)
    assert basis.dim == (c1 + 1) * (c2 + 1) * (c3 + 1)
    state = TripleModeState(basis, np.arange(basis.dim) * (1.0 - 0.5j))
    # amplitude k is that of the k-th occupation triple in lexicographic order
    triples = np.indices(basis.shape).reshape(3, -1)
    assert np.array_equal(state.grid[tuple(triples)], state.amplitudes)


def test_coherent_vacuum():
    basis = FockBasis(1, 1, 10)
    state = single_photon_with_pump(1, CoherentSpec(0.0, 0.0), basis)
    assert mean_occupation(state, 3) == 0.0
    assert abs(state.grid[1, 0, 0]) == pytest.approx(1.0)


def test_coherent_mean_photon_number():
    # oracle: direct summation of the truncated Poisson series at cutoff 24
    basis = FockBasis(1, 1, 24)
    state = single_photon_with_pump(1, CoherentSpec(4.0, 0.0), basis)
    assert mean_occupation(state, 3) == pytest.approx(3.999999999966763, abs=1e-12)
    assert abs(mean_occupation(state, 3) - 4.0) < 0.04


def test_coherent_phase_invisible_in_probabilities():
    basis = FockBasis(1, 1, 30)
    flat = single_photon_with_pump(2, CoherentSpec(4.0, 0.0), basis)
    turned = single_photon_with_pump(2, CoherentSpec(4.0, math.pi / 3), basis)
    assert np.allclose(np.abs(flat.amplitudes) ** 2, np.abs(turned.amplitudes) ** 2,
                       atol=1e-15)


@pytest.mark.parametrize("mean_photons", [2.0 ** k for k in range(2, 11)])
def test_amplitude_series_matches_gammaln_form(mean_photons):
    # oracle: the series through scipy's log-gamma on the overlap ladder's
    # pumps (4 .. 1024).  Its own rounding reaches 1.2e-12 relative in the
    # far tail at 1024, so the error is read against the largest amplitude
    n_max = default_pump_cutoff(mean_photons)
    n = np.arange(n_max + 1)
    oracle = np.exp(-0.5 * mean_photons + 0.5 * n * np.log(mean_photons)
                    - 0.5 * gammaln(n + 1) + 0.7j * n)
    series = CoherentSpec(mean_photons, 0.7).amplitude_series(n_max)
    assert np.max(np.abs(series - oracle)) <= 1e-12 * np.max(np.abs(oracle))


def test_coherent_cutoff_too_small():
    # one truncation check serves the input state and the closed form
    basis = FockBasis(1, 1, 3)
    for build in (lambda spec: single_photon_with_pump(1, spec, basis),
                  lambda spec: evolve_closed_form(1, spec, 0.1, basis)):
        with pytest.raises(CutoffError) as err:
            build(CoherentSpec(16.0, 0.0))
        assert err.value.leakage > 0


def dense_hamiltonian(ham):
    """H as a dense (dim, dim) matrix: column k is H applied to the k-th
    basis state."""
    units = np.eye(ham.basis.dim, dtype=complex).reshape(-1, *ham.basis.shape)
    return np.stack([ham.apply(unit).ravel() for unit in units], axis=1)


def assert_hermitian(matrix):
    assert np.array_equal(matrix, matrix.conj().T)


def test_hamiltonian_hermitian_and_sector_structure():
    basis = FockBasis(1, 1, 12)
    matrix = dense_hamiltonian(TrilinearHamiltonian(basis))
    assert_hermitian(matrix)
    n1, n2, n3 = np.indices(basis.shape).reshape(3, -1)
    n12 = n1 + n2
    n13 = n1 - n3
    rows, cols = matrix.nonzero()
    assert rows.size > 0
    assert np.array_equal(n12[rows], n12[cols])
    assert np.array_equal(n13[rows], n13[cols])


def test_hamiltonian_multiphoton_signal_cutoffs():
    # two-photon signal sectors stay available for the superposition cases
    basis = FockBasis(2, 2, 8)
    matrix = dense_hamiltonian(TrilinearHamiltonian(basis))
    assert_hermitian(matrix)
    i = np.ravel_multi_index((2, 0, 3), basis.shape)
    j = np.ravel_multi_index((1, 1, 2), basis.shape)
    assert matrix[j, i] == pytest.approx(1j * math.sqrt(2 * 1 * 3))
    assert matrix[i, j] == pytest.approx(-1j * math.sqrt(2 * 1 * 3))


def test_closed_form_identity_at_zero_coupling():
    basis = FockBasis(1, 1, default_pump_cutoff(4.0))
    pump = CoherentSpec(4.0, 0.7)
    start = single_photon_with_pump(1, pump, basis)
    evolved = evolve_closed_form(1, pump, 0.0, basis)
    assert np.allclose(evolved.amplitudes, start.amplitudes, atol=1e-14)


def test_closed_form_full_conversion_large_pump():
    # oracle: Poisson-averaged sin^2(theta*sqrt(n/N)) at N=100, theta=pi/2
    basis = FockBasis(1, 1, default_pump_cutoff(100.0))
    state = evolve_closed_form(1, CoherentSpec(100.0), (math.pi / 2) / 10.0, basis)
    occ2 = mean_occupation(state, 2)
    assert occ2 == pytest.approx(0.9938425657129182, abs=1e-10)
    assert abs(occ2 - 1.0) < 10.0 / math.sqrt(100.0)


def test_closed_form_balanced_splitting_gamma2_input():
    # chi*T*sqrt(N) = pi/4 on a gamma-2 photon: marginals near (1/2, 1/2)
    basis = FockBasis(1, 1, default_pump_cutoff(100.0))
    state = evolve_closed_form(2, CoherentSpec(100.0), (math.pi / 4) / 10.0, basis)
    p_stay = mean_occupation(state, 2)
    assert p_stay == pytest.approx(0.4970612039364303, abs=1e-10)
    assert abs(p_stay - 0.5) < 1.0 / math.sqrt(100.0)
    assert mean_occupation(state, 1) == pytest.approx(1.0 - p_stay, abs=1e-12)


def test_closed_form_rejects_bad_mode():
    basis = FockBasis(1, 1, 20)
    with pytest.raises(SectorError):
        evolve_closed_form(3, CoherentSpec(1.0), 0.1, basis)


def test_brute_force_identity_at_zero_time():
    basis = FockBasis(1, 1, default_pump_cutoff(4.0))
    ham = TrilinearHamiltonian(basis)
    state = single_photon_with_pump(2, CoherentSpec(4.0), basis)
    evolved = evolve_brute_force(state, ham, 0.0)
    assert np.allclose(evolved.amplitudes, state.amplitudes, atol=1e-14)


def test_brute_force_conserved_two_state_sector():
    # |1,0,n> evolution stays inside span{|1,0,n>, |0,1,n-1>}
    basis = FockBasis(1, 1, 12)
    ham = TrilinearHamiltonian(basis)
    n = 7
    evolved = evolve_brute_force(fock_state(basis, 1, 0, n), ham, 0.37)
    rest = evolved.grid.copy()
    rest[1, 0, n] = rest[0, 1, n - 1] = 0.0
    assert np.argwhere(np.abs(rest) > 1e-13).tolist() == []


def test_brute_force_matches_closed_form():
    pump = CoherentSpec(16.0, 0.4)
    basis = FockBasis(1, 1, default_pump_cutoff(16.0))
    ham = TrilinearHamiltonian(basis)
    chi_t = (math.pi / 4) / 4.0
    for mode in (1, 2):
        closed = evolve_closed_form(mode, pump, chi_t, basis)
        brute = evolve_brute_force(single_photon_with_pump(mode, pump, basis),
                                   ham, chi_t)
        assert np.max(np.abs(closed.amplitudes - brute.amplitudes)) < 1e-10


@settings(deadline=None, max_examples=20)
@given(st.floats(0.0, 2.0), st.floats(0.0, 2 * math.pi))
def test_unitarity_and_sector_expectations(chi_t, phase):
    basis = FockBasis(1, 1, default_pump_cutoff(4.0))
    ham = TrilinearHamiltonian(basis)
    state = single_photon_with_pump(1, CoherentSpec(4.0, phase), basis)
    evolved = evolve_brute_force(state, ham, chi_t)
    assert abs(evolved.norm - 1.0) < 1e-12

    def charge(s, signs):
        q = np.tensordot(signs, np.indices(s.basis.shape), axes=1)
        return float(np.sum(q * np.abs(s.grid) ** 2))

    for signs in ((1, 1, 0), (1, 0, -1)):
        assert abs(charge(evolved, signs) - charge(state, signs)) < 1e-11


@pytest.mark.parametrize("cutoffs,start", [((2, 2, 8), (2, 0, 3)),
                                            ((3, 4, 30), (3, 0, 10)),
                                            ((1, 1, 40), (1, 0, 20))])
@pytest.mark.parametrize("chi_t", [-0.7, 0.01, 2.0, 10.0])
def test_brute_force_matches_dense_expm(cutoffs, start, chi_t):
    # up to a few hundred Taylor steps on multi-photon sectors; the charges
    # n1+n2 and n1-n3 keep each start state off the pump cutoff shell
    basis = FockBasis(*cutoffs)
    ham = TrilinearHamiltonian(basis)
    state = fock_state(basis, *start)
    evolved = evolve_brute_force(state, ham, chi_t)
    reference = expm(-1j * chi_t * dense_hamiltonian(ham)) @ state.amplitudes
    assert np.max(np.abs(evolved.amplitudes - reference)) < 1e-12


def test_brute_force_large_pump_cutoff():
    # pump cutoff 510 (dimension 2044): the largest basis the fock tests evolve
    basis = FockBasis(1, 1, 510)
    ham = TrilinearHamiltonian(basis)
    n, chi_t = 100, 0.21
    evolved = evolve_brute_force(fock_state(basis, 1, 0, n), ham, chi_t)
    angle = chi_t * math.sqrt(n)
    assert evolved.grid[1, 0, n] == pytest.approx(math.cos(angle), abs=1e-9)
    assert abs(evolved.grid[0, 1, n - 1]) == pytest.approx(abs(math.sin(angle)), abs=1e-9)


def pump_state(mean_photons, basis):
    """|0,0> in the signal modes tensored with the truncated coherent pump."""
    grid = np.zeros(basis.shape, dtype=complex)
    grid[0, 0] = CoherentSpec(mean_photons).amplitude_series(basis.n3_max)
    return TripleModeState(basis, grid.ravel()).normalized()


def test_inner_product_contracts():
    # <a|b> is np.vdot of the amplitude vectors
    basis = FockBasis(1, 1, 30)
    coh = pump_state(4.0, basis).amplitudes
    vac = pump_state(0.0, basis).amplitudes
    assert np.vdot(coh, coh) == pytest.approx(1.0)
    # closed form: <0|alpha> = exp(-|alpha|^2/2) = exp(-2)
    assert abs(np.vdot(vac, coh)) == pytest.approx(math.exp(-2.0), abs=1e-12)
    assert np.vdot(fock_state(basis, 1, 0, 3).amplitudes,
                   fock_state(basis, 0, 1, 3).amplitudes) == 0.0
    # conjugate linearity in the first argument
    assert np.vdot(coh * np.exp(0.3j), coh) == pytest.approx(np.exp(-0.3j), abs=1e-12)


def test_validate_flags_pump_shell_leakage():
    # evolving a state that sits on the pump cutoff shell leaves most of it
    # there, which evolve_brute_force reports as truncation
    basis = FockBasis(1, 1, 6)
    with pytest.raises(CutoffError) as err:
        evolve_brute_force(fock_state(basis, 1, 0, 6), TrilinearHamiltonian(basis), 0.1)
    assert err.value.leakage > 0.9
    # as is a Hamiltonian on another basis than the state's
    other = TrilinearHamiltonian(FockBasis(1, 1, 7))
    with pytest.raises(BasisMismatchError):
        evolve_brute_force(fock_state(basis, 1, 0, 3), other, 0.1)
