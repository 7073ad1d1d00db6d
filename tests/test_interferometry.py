import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromint.interferometry import (
    CoincidenceResult,
    DetectorSetting,
    InterferometerGeometry,
    amplitudes,
    coincidence_single_photon,
    coincidence_superposition,
    coincidence_thermal,
    delay_scan,
    fringe_phase,
    fringe_scan,
    pair_fringe_law,
    time_average_superposition,
)
from chromint.scenarios import _write_scan_csv
from chromint.selftest import check_superposition_reduction

LAM1, LAM2, LAM3 = 1549.800e-9, 863.344e-9, 1949.157e-9


def random_geometry(rng):
    return InterferometerGeometry(LAM1, LAM2, LAM3, *rng.uniform(0.01, 0.2, 4))


# ---------------------------------------------------------------------------
# Independent four-mode oracle for the superposition formula: polynomial
# algebra in the creation operators of (1A, 2A, 1B, 2B), beamsplitter
# propagation, strong-pump color rotation at each detector, projection on a
# single color-2 photon at each output.  Emitted photon pairs carry the
# bosonic sqrt(2), so the displayed-formula convention is recovered by
# rescaling the two-photon coefficients by sqrt(2) (see the matching test).

def _poly_mul(p, q):
    out = {}
    for e1, a in p.items():
        for e2, b in q.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, 0.0) + a * b
    return out


def _poly_pow(p, n):
    out = {(0, 0, 0, 0): 1.0}
    for _ in range(n):
        out = _poly_mul(out, p)
    return out


def _substitute(poly, table):
    """Replace each creation symbol by a linear combination of new symbols."""
    out = {(0, 0, 0, 0): 0.0}
    for exps, coeff in poly.items():
        term = {(0, 0, 0, 0): coeff}
        for mode, power in enumerate(exps):
            if power:
                term = _poly_mul(term, _poly_pow(table[mode], power))
        for k, v in term.items():
            out[k] = out.get(k, 0.0) + v
    return out


def hbt2_pipeline_probability(amps, theta, phase, c, d):
    """True quantum probability of one color-2 photon at each detector."""
    src1 = {(0, 0, 0, 0): complex(c[0])}
    split1 = {(1, 0, 0, 0): amps.d_1a, (0, 0, 1, 0): amps.d_1b}
    for n in (1, 2):
        for k, v in _poly_pow(split1, n).items():
            src1[k] = src1.get(k, 0.0) + complex(c[n]) * v / math.sqrt(math.factorial(n))
    src2 = {(0, 0, 0, 0): complex(d[0])}
    split2 = {(0, 1, 0, 0): amps.d_2a, (0, 0, 0, 1): amps.d_2b}
    for n in (1, 2):
        for k, v in _poly_pow(split2, n).items():
            src2[k] = src2.get(k, 0.0) + complex(d[n]) * v / math.sqrt(math.factorial(n))
    state = _poly_mul(src1, src2)
    ct, stn = math.cos(theta), math.sin(theta)
    eph = cmath.exp(1j * phase)
    rot = {
        0: {(1, 0, 0, 0): ct, (0, 1, 0, 0): eph * stn},       # color 1 at A
        1: {(1, 0, 0, 0): -stn / eph, (0, 1, 0, 0): ct},      # color 2 at A
        2: {(0, 0, 1, 0): ct, (0, 0, 0, 1): eph * stn},       # color 1 at B
        3: {(0, 0, 1, 0): -stn / eph, (0, 0, 0, 1): ct},      # color 2 at B
    }
    rotated = _substitute(state, rot)
    amp = rotated.get((0, 1, 0, 1), 0.0)
    return abs(amp) ** 2


# ---------------------------------------------------------------------------

def test_amplitudes_symmetric_geometry():
    geo = InterferometerGeometry(LAM1, LAM2, LAM3, 0, 0, 0, 0)
    a = amplitudes(geo)
    for d in (a.d_1a, a.d_1b, a.d_2a, a.d_2b):
        assert d == pytest.approx(1 / math.sqrt(2), abs=1e-15)


def test_amplitudes_quarter_wave_path():
    geo = InterferometerGeometry(LAM1, LAM2, LAM3, 0.25 * LAM1, 0, 0, 0)
    a = amplitudes(geo)
    assert a.d_1a == pytest.approx(1j / math.sqrt(2), abs=1e-12)


def test_free_space_paths_are_euclidean():
    geo = InterferometerGeometry.from_free_space(125e-6, 0.40, 2e-3,
                                                 LAM1, LAM2, LAM3)
    assert geo.l_1a == pytest.approx(math.hypot(0.40, -1e-3 + 62.5e-6), abs=1e-15)
    assert geo.l_2b == pytest.approx(math.hypot(0.40, 1e-3 - 62.5e-6), abs=1e-15)


def test_geometry_wavelength_constraint():
    with pytest.raises(ValueError):
        InterferometerGeometry(LAM1, LAM2, 1800e-9, 0.1, 0.1, 0.1, 0.1)
    # degenerate same-wavelength arrangement carries no pump constraint
    InterferometerGeometry(LAM1, LAM1, None, 0.1, 0.1, 0.1, 0.1)


def test_fringe_phase_zero_geometry():
    geo = InterferometerGeometry(LAM1, LAM2, LAM3, 0, 0, 0, 0)
    assert fringe_phase(geo) == 0.0


def test_fringe_phase_delay_rate_is_pump_frequency():
    geo = InterferometerGeometry(LAM1, LAM2, LAM3, 0.05, 0.05, 0.05, 0.05)
    for periods in (0.25, 1.7, 3.0):
        d = periods * LAM3
        shift = fringe_phase(geo.with_delay(d)) - fringe_phase(geo)
        expected = 2 * math.pi * d / LAM3
        wrapped = (shift - expected + math.pi) % (2 * math.pi) - math.pi
        assert abs(wrapped) < 1e-6


def test_fringe_phase_invariant_under_per_source_path_shifts():
    # shifting both paths of one source preserves the phase combination
    geo = InterferometerGeometry(LAM1, LAM2, LAM3, 0.021, 0.043, 0.017, 0.038)
    base = fringe_phase(geo)
    shift = 0.007
    shifted1 = InterferometerGeometry(LAM1, LAM2, LAM3, 0.021 + shift,
                                      0.043 + shift, 0.017, 0.038)
    shifted2 = InterferometerGeometry(LAM1, LAM2, LAM3, 0.021, 0.043,
                                      0.017 + shift, 0.038 + shift)
    for other in (shifted1, shifted2):
        wrapped = (fringe_phase(other) - base + math.pi) % (2 * math.pi) - math.pi
        assert abs(wrapped) < 1e-7


def test_fringe_phase_ignores_source_phases():
    # the emission phases never enter the fringe combination; the
    # coincidence built from phase-shifted amplitudes agrees with it exactly
    geo = InterferometerGeometry(LAM1, LAM2, LAM3, 0.021, 0.043, 0.017, 0.038)
    ref = coincidence_single_photon(amplitudes(geo), math.pi / 4).probability
    for t1, t2 in ((0.9, 0.0), (0.0, 2.2), (1.3, 4.4)):
        shifted = coincidence_single_photon(
            amplitudes(geo).with_source_phases(t1, t2), math.pi / 4)
        assert shifted.probability == pytest.approx(ref, abs=1e-13)


def test_fringe_phase_equal_paths_with_delay():
    # equal geometric paths, arm-B delay L: phase = 2*pi*L*(1/l2 - 1/l1)
    ell = 0.03
    geo = InterferometerGeometry(LAM1, LAM2, LAM3, 0.05, 0.05, 0.05, 0.05,
                                 delay_b=ell)
    expected = 2 * math.pi * ell * (1 / LAM2 - 1 / LAM1)
    wrapped = (fringe_phase(geo) - expected + math.pi) % (2 * math.pi) - math.pi
    assert abs(wrapped) < 1e-6


def test_single_photon_examples():
    geo = InterferometerGeometry(LAM1, LAM2, LAM3, 0, 0, 0, 0)
    res = coincidence_single_photon(amplitudes(geo), math.pi / 4)
    assert res.probability == pytest.approx(0.25, abs=1e-14)
    assert coincidence_single_photon(amplitudes(geo), 0.0).probability == 0.0
    dark = geo.with_delay(LAM3 / 2)
    res_dark = coincidence_single_photon(amplitudes(dark), math.pi / 4)
    assert res_dark.probability < 1e-10


def test_fringe_identity_thousand_geometries():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        geo = random_geometry(rng)
        res = coincidence_single_photon(amplitudes(geo), math.pi / 4)
        ref = 0.125 * (1 + math.cos(fringe_phase(geo)))
        assert abs(res.probability - ref) < 1e-12
        assert res.probability == pytest.approx(
            res.constant_term + res.interference_term, abs=1e-15)


def test_superposition_reduces_to_single_photon():
    ok, detail = check_superposition_reduction()
    assert ok, detail


def test_superposition_first_term_dominates():
    rng = np.random.default_rng(5)
    eps = 1e-3
    c = (eps, math.sqrt(1 - 2 * eps ** 2), eps)
    d = (eps, math.sqrt(1 - 2 * eps ** 2), eps)
    geo = random_geometry(rng)
    res = coincidence_superposition(amplitudes(geo), math.pi / 4, 0.2, c, d)
    others = sum(abs(t) for t in res.terms[1:])
    assert others < 10 * eps * res.terms[0] + 1e-12


def test_superposition_matches_quantum_pipeline():
    """Oracle check: the displayed formula equals the exact four-mode
    computation once the two-photon coefficients absorb the bosonic sqrt(2)
    of pair emission (the displayed amplitudes track photon paths, not
    normalized Fock amplitudes)."""
    rng = np.random.default_rng(8)
    draws = []
    for _ in range(20):
        c = rng.normal(size=3) + 1j * rng.normal(size=3)
        d = rng.normal(size=3) + 1j * rng.normal(size=3)
        draws.append((c / np.linalg.norm(c), d / np.linalg.norm(d)))
    eps = 1e-4
    draws.append((np.array([0, 1, eps]) / math.sqrt(1 + eps ** 2),
                  np.array([eps, 1, 0]) / math.sqrt(1 + eps ** 2)))
    for c, d in draws:
        geo = random_geometry(rng)
        amp = amplitudes(geo).with_source_phases(rng.uniform(0, 2 * math.pi),
                                                 rng.uniform(0, 2 * math.pi))
        theta = rng.uniform(0.1, 1.4)
        phase = rng.uniform(0, 2 * math.pi)
        truth = hbt2_pipeline_probability(amp, theta, phase, c, d)
        scaled_c = (c[0], c[1], math.sqrt(2) * c[2])
        scaled_d = (d[0], d[1], math.sqrt(2) * d[2])
        formula = coincidence_superposition(amp, theta, phase, scaled_c, scaled_d)
        assert formula.probability == pytest.approx(truth, abs=1e-12)


def test_time_average_kills_phase_terms():
    rng = np.random.default_rng(12)
    for grid in (5, 16, 64):
        geo = random_geometry(rng)
        c = rng.normal(size=3) + 1j * rng.normal(size=3)
        d = rng.normal(size=3) + 1j * rng.normal(size=3)
        c, d = c / np.linalg.norm(c), d / np.linalg.norm(d)
        avg = time_average_superposition(amplitudes(geo), 0.8, 0.5,
                                         tuple(c), tuple(d), grid)
        assert max(abs(t) for t in avg.terms[3:]) < 1e-10
        assert avg.probability >= 0.0


def test_time_average_noop_for_single_photons():
    geo = InterferometerGeometry(LAM1, LAM2, LAM3, 0.02, 0.05, 0.04, 0.03)
    amp = amplitudes(geo)
    avg = time_average_superposition(amp, 0.7, 0.1, (0, 1, 0), (0, 1, 0), 8)
    direct = coincidence_superposition(amp, 0.7, 0.1, (0, 1, 0), (0, 1, 0))
    assert avg.probability == pytest.approx(direct.probability, abs=1e-12)


def test_time_average_equals_double_loop():
    rng = np.random.default_rng(13)
    base = amplitudes(random_geometry(rng))
    c = tuple(rng.normal(size=3) + 1j * rng.normal(size=3))
    d = tuple(rng.normal(size=3) + 1j * rng.normal(size=3))
    grid = 8
    phis = 2 * math.pi * np.arange(grid) / grid
    rows = [coincidence_superposition(base.with_source_phases(t1, t2), 0.8, 0.5, c, d)
            for t1 in phis for t2 in phis]
    avg = time_average_superposition(base, 0.8, 0.5, c, d, grid)
    loop = [np.mean([r.probability for r in rows]),
            np.mean([r.constant_term for r in rows]),
            np.mean([r.interference_term for r in rows]),
            *np.mean([r.terms for r in rows], axis=0)]
    batch = [avg.probability, avg.constant_term, avg.interference_term, *avg.terms]
    assert np.max(np.abs(np.subtract(batch, loop))) <= 1e-14


def test_time_average_grid_too_small():
    geo = InterferometerGeometry(LAM1, LAM2, LAM3, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        time_average_superposition(amplitudes(geo), 0.5, 0.0,
                                   (0, 1, 0), (0, 1, 0), 3)


def test_thermal_reduction_and_pedestal():
    rng = np.random.default_rng(21)
    geo = random_geometry(rng)
    amp = amplitudes(geo)
    pure = coincidence_thermal(amp, math.pi / 4, (0, 1, 0), (0, 1, 0))
    single = coincidence_single_photon(amp, math.pi / 4)
    assert pure.probability == pytest.approx(single.probability, abs=1e-14)
    # two-photon occupation adds a constant pedestal: visibility strictly drops
    mixed = coincidence_thermal(amp, math.pi / 4, (0.1, 0.8, 0.1), (0.1, 0.8, 0.1))
    vis_pure = abs(single.interference_term) / single.constant_term
    vis_mixed = abs(mixed.interference_term) / mixed.constant_term
    assert vis_mixed < vis_pure
    # analytic ratio of the displayed terms
    expected = (0.8 ** 2 * single.interference_term) / \
        (0.8 ** 2 * single.constant_term
         + 0.1 * 0.1 * 0.25 * (abs(amp.d_1a * amp.d_1b) ** 2
                               + abs(amp.d_2a * amp.d_2b) ** 2))
    assert vis_mixed == pytest.approx(abs(expected), rel=1e-9)


def test_phase_average_equals_thermal_matched_moduli():
    rng = np.random.default_rng(30)
    for _ in range(20):
        geo = random_geometry(rng)
        amp = amplitudes(geo)
        theta = rng.uniform(0.2, 1.3)
        chi = rng.uniform(0, 2 * math.pi, 3)
        xi = rng.uniform(0, 2 * math.pi, 3)
        p = rng.dirichlet(np.ones(3))
        q = rng.dirichlet(np.ones(3))
        c = tuple(math.sqrt(pi_) * cmath.exp(1j * a) for pi_, a in zip(p, chi))
        d = tuple(math.sqrt(qi) * cmath.exp(1j * a) for qi, a in zip(q, xi))
        avg = time_average_superposition(amp, theta, 0.4, c, d, 16)
        therm = coincidence_thermal(amp, theta, tuple(p), tuple(q))
        assert abs(avg.probability - therm.probability) < 1e-3


def test_thermal_equals_random_phase_monte_carlo_average():
    rng = np.random.default_rng(31)
    geo = random_geometry(rng)
    base = amplitudes(geo)
    theta = 0.9
    p = (0.2, 0.6, 0.2)
    q = (0.3, 0.5, 0.2)
    total = 0.0
    n_draws = 20000
    for _ in range(n_draws):
        c = tuple(math.sqrt(pi_) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
                  for pi_ in p)
        d = tuple(math.sqrt(qi) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
                  for qi in q)
        amp = base.with_source_phases(rng.uniform(0, 2 * math.pi),
                                      rng.uniform(0, 2 * math.pi))
        total += coincidence_superposition(amp, theta, 0.4, c, d).probability
    therm = coincidence_thermal(base, theta, p, q)
    assert total / n_draws == pytest.approx(therm.probability, abs=1e-3)


@settings(deadline=None, max_examples=50)
@given(st.floats(0.0, math.pi / 2), st.floats(0.0, 2 * math.pi),
       st.floats(0.0, 2 * math.pi))
def test_probabilities_in_unit_interval(theta, t1, t2):
    geo = InterferometerGeometry(LAM1, LAM2, LAM3, 0.02, 0.07, 0.011, 0.047)
    amp = amplitudes(geo).with_source_phases(t1, t2)
    for res in (coincidence_single_photon(amp, theta),
                coincidence_superposition(amp, theta, 0.3, (0.6, 0.8, 0), (0, 0.8, 0.6)),
                coincidence_thermal(amp, theta, (0.5, 0.5, 0), (0, 0.5, 0.5))):
        assert -1e-12 <= res.probability <= 1.0 + 1e-12


@settings(deadline=None, max_examples=40)
@given(st.floats(0.2, 1.3), st.floats(0.0, 2 * math.pi),
       st.lists(st.floats(0.01, 0.2), min_size=4, max_size=4),
       st.sampled_from(["coherent", "thermal"]))
def test_weak_source_formulas_are_the_pair_fringe_law(theta, phase, paths, source_kind):
    """The rate law is the photon-number formulas' weak-source limit, for two
    filter-2 detectors at one theta and pump phase: phase-averaged coherent
    sources at c = d = (1, eps, eps^2), thermal mixtures at
    p = q = (1, eps, 2 eps^2).  The formulas' fringe is read from their
    interference terms at delays 0 and lambda3/4, a quarter period apart."""
    geo = InterferometerGeometry(LAM1, LAM2, LAM3, *paths)
    eps = 1e-3

    def formula(delay):
        amps = amplitudes(geo.with_delay(delay))
        if source_kind == "coherent":
            weak = (1.0, eps, eps ** 2)
            return time_average_superposition(amps, theta, phase, weak, weak, 16)
        weak = (1.0, eps, 2 * eps ** 2)
        return coincidence_thermal(amps, theta, weak, weak)

    at_zero, at_quarter = formula(0.0), formula(LAM3 / 4)
    fringe = complex(at_zero.interference_term, -at_quarter.interference_term)
    det = DetectorSetting(theta, phase, output_filter=2)
    base, amp, offset = pair_fringe_law(det, det, geo, source_kind)
    assert abs(fringe) / at_zero.constant_term == pytest.approx(amp / base, abs=1e-6)
    assert abs(math.remainder(cmath.phase(fringe) - fringe_phase(geo) - offset,
                              2 * math.pi)) < 1e-6


def test_delay_scan_coherent_law():
    geo = InterferometerGeometry(LAM1, LAM2, LAM3, 0.05, 0.05, 0.05, 0.05)
    det = DetectorSetting(math.pi / 4)
    delays = np.linspace(0, 2 * LAM3, 32, endpoint=False)
    rows = delay_scan(geo, delays, "coherent", det, det)
    values = np.array([r.probability for r in rows])
    expected = 1.0 + 0.5 * np.cos([fringe_phase(geo.with_delay(d)) for d in delays])
    assert np.allclose(values, expected, atol=1e-9)
    # v_deg scales the interference term only
    det8 = DetectorSetting(math.pi / 4, visibility_degradation=0.8)
    rows8 = delay_scan(geo, delays, "coherent", det8, det8)
    assert np.allclose([r.constant_term for r in rows8], 1.0, atol=1e-12)
    assert np.allclose([r.interference_term for r in rows8],
                       0.8 * (values - 1.0), atol=1e-9)
    # pump off: the two colors do not beat, so the curve is flat
    off = delay_scan(geo, delays, "coherent", DetectorSetting(None),
                     DetectorSetting(None))
    assert all(r.interference_term == 0.0 for r in off)


def test_delay_scan_thermal_baseline():
    geo = InterferometerGeometry(LAM1, LAM2, LAM3, 0.05, 0.05, 0.05, 0.05)
    det = DetectorSetting(math.pi / 4)
    rows = delay_scan(geo, [0.0, LAM3 / 2], "thermal", det, det)
    assert rows[0].constant_term == pytest.approx(1.5, abs=1e-12)
    vis = max(abs(r.interference_term) for r in rows) / rows[0].constant_term
    assert vis == pytest.approx(1.0 / 3.0, abs=1e-9)


def _scalar_scan(geometries, source_kind, det_a, det_b):
    """The per-geometry reference: the law and the fringe phase in floats."""
    rows = []
    for geo in geometries:
        base, amp, offset = pair_fringe_law(det_a, det_b, geo, source_kind)
        osc = amp * math.cos(fringe_phase(geo) + offset)
        rows.append((base + osc, base, osc))
    return np.array(rows)


def _fields(geometries):
    return [dataclasses.astuple(geo) for geo in geometries]


@pytest.mark.parametrize("source_kind", ["coherent", "thermal"])
def test_batch_scans_equal_the_scalar_loop(source_kind):
    det_a, det_b = DetectorSetting(math.pi / 4, 0.3), DetectorSetting(0.7, 2.1)
    xs = np.linspace(0.2e-3, 14.4e-3, 37)
    batch = InterferometerGeometry.from_free_space(125e-6, 0.40, xs, LAM1, LAM2, LAM3)
    scalars = [InterferometerGeometry.from_free_space(125e-6, 0.40, x, LAM1, LAM2, LAM3)
               for x in xs]
    assert _fields(batch.points()) == _fields(scalars)
    free = fringe_scan(batch, source_kind, det_a, det_b)
    reference = _scalar_scan(scalars, source_kind, det_a, det_b)
    assert np.array_equal(np.column_stack([free.probability, free.constant_term,
                                           free.interference_term]), reference)
    geo = InterferometerGeometry(LAM1, LAM2, LAM3, 0.031, 0.052, 0.047, 0.018,
                                 delay_b=1e-4)
    assert next(geo.points()) is geo and len(list(geo.points())) == 1
    delays = np.linspace(0, 3 * LAM3, 41)
    scalars = [geo.with_delay(geo.delay_b + d) for d in delays]
    assert _fields(geo.with_delay(geo.delay_b + delays).points()) == _fields(scalars)
    scan = delay_scan(geo, delays, source_kind, det_a, det_b)
    reference = _scalar_scan(scalars, source_kind, det_a, det_b)
    assert np.array_equal(np.column_stack([scan.probability, scan.constant_term,
                                           scan.interference_term]), reference)


def test_batch_geometry_rejects_one_negative_path():
    paths = np.full(5, 0.05)
    paths[3] = -1e-9
    with pytest.raises(ValueError, match="l_2b"):
        InterferometerGeometry(LAM1, LAM2, LAM3, 0.05, 0.05, 0.05, paths)


def test_pair_fringe_law_unbalanced_reduces_visibility():
    det = DetectorSetting(math.pi / 4)
    geo = InterferometerGeometry(LAM1, LAM2, LAM3, 0.05, 0.05, 0.05, 0.05)
    _, amp_bal, _ = pair_fringe_law(det, det, geo, "coherent", 0.5, 0.5)
    _, amp_unbal, _ = pair_fringe_law(det, det, geo, "coherent", 0.8, 0.2)
    assert amp_bal == pytest.approx(0.5, abs=1e-12)
    assert amp_unbal < amp_bal


@pytest.mark.parametrize("source_kind", ["coherent", "thermal"])
def test_pair_fringe_law_dark_counts_dilute_each_detector(source_kind):
    # a rotation row has |k1|^2 + |k2|^2 = 1, so a detector's signal rate
    # at w photons/s from each source is eff*w, and its dark rate d leaves
    # the share rho = eff*w/(eff*w + d) of its counts correlated
    geo = InterferometerGeometry(LAM1, LAM2, LAM3, 0.031, 0.052, 0.047, 0.018)
    det_a, det_b = (DetectorSetting(math.pi / 4, 0.3, efficiency=0.8),
                    DetectorSetting(0.7, 2.1, efficiency=0.5))
    w = 2e7
    base, amp, offset = pair_fringe_law(det_a, det_b, geo, source_kind, w, w)
    dark = (dataclasses.replace(det_a, dark_count_rate=3e6),
            dataclasses.replace(det_b, dark_count_rate=1e6))
    base_d, amp_d, offset_d = pair_fringe_law(*dark, geo, source_kind, w, w)
    rho = 0.8 * w / (0.8 * w + 3e6) * (0.5 * w / (0.5 * w + 1e6))
    assert amp_d == pytest.approx(rho * amp, rel=1e-12)
    assert base_d - 1.0 == pytest.approx(rho * (base - 1.0), rel=1e-12, abs=0.0)
    assert offset_d == offset
    if source_kind == "thermal":
        assert base > 1.0


def test_scan_csv_format(tmp_path):
    geo = InterferometerGeometry(LAM1, LAM2, LAM3, 0.05, 0.05, 0.05, 0.05)
    det = DetectorSetting(math.pi / 4)
    delays = np.linspace(0, LAM3, 5)
    rows = delay_scan(geo, delays, "coherent", det, det)
    path = tmp_path / "scan.csv"
    _write_scan_csv(path, "delay_m", delays, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "delay_m,probability,constant_term,interference_term"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(rows[0].probability, rel=1e-11)


def test_coincidence_result_invariant():
    with pytest.raises(ValueError):
        CoincidenceResult(-0.5, 0.0, -0.5)
