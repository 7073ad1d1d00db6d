import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare, ks_2samp, kstest

from chromint import stochastic
from chromint.erasure import DetectorSetting
from chromint.interferometry import (
    SPEED_OF_LIGHT,
    InterferometerGeometry,
    detector_couplings,
)
from chromint.stochastic import (
    CoincidencePartial,
    EventStream,
    G2Curve,
    PS_PER_S,
    ThermalFieldModel,
    estimate_g2,
    fit_fringe,
    fit_fringe_free_period,
    fit_g2_envelope,
    fringe_fft,
    fitted_visibility,
    g2_vs_tau_scan,
    simulate_events,
    substream,
    write_g2_csv,
)

LAM1, LAM2, LAM3 = 1549.800e-9, 863.344e-9, 1949.157e-9
GEO = InterferometerGeometry(LAM1, LAM2, LAM3, 0.05, 0.05, 0.05, 0.05)


def coherent_pair(rate=2e7, tc=318e-9, detuning=0.0):
    return (ThermalFieldModel(rate, tc, "coherent"),
            ThermalFieldModel(rate, tc, "coherent", detuning))


def quiet_simulate(*args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return simulate_events(*args, **kwargs)


# ---------------------------------------------------------------------------
# Event generation.

def test_event_stream_validation():
    with pytest.raises(ValueError):
        EventStream("A", np.array([5, 5, 7]), 100, 0)
    with pytest.raises(ValueError):
        EventStream("A", np.array([5, 120]), 100, 0)


def test_simulation_determinism():
    s1, s2 = coherent_pair()
    det = DetectorSetting(math.pi / 4)
    runs = [quiet_simulate(s1, s2, GEO, det, det, 2e-3, seed=77, trial=3)
            for _ in range(2)]
    for d in (0, 1):
        assert np.array_equal(runs[0][d].timestamps, runs[1][d].timestamps)
    other = quiet_simulate(s1, s2, GEO, det, det, 2e-3, seed=77, trial=4)
    assert not np.array_equal(runs[0][0].timestamps, other[0].timestamps)


def test_poisson_rate_and_dedup():
    source = ThermalFieldModel(2e7, 318e-9, "coherent")
    det = DetectorSetting(0.0, output_filter=2)
    a, b = quiet_simulate(source, None, GEO, det, det, 5e-3, seed=5,
                          standard_detection=True)
    # standard detection of one source: mean detected rate = rate/2
    expect = 2e7 / 2 * 5e-3
    for s in (a, b):
        assert abs(s.count - expect) < 6 * math.sqrt(expect)
        assert np.all(np.diff(s.timestamps) > 0)
        assert s.duration_ps == 5_000_000_000


def test_dark_counts_only():
    source = ThermalFieldModel(1e3, 1e-6, "coherent")
    det = DetectorSetting(0.0, output_filter=2, efficiency=0.0,
                          dark_count_rate=2e5)
    a, _ = quiet_simulate(source, None, GEO, det, det, 10e-3, seed=6,
                          standard_detection=False)
    # efficiency 0 silences the source; only darks remain
    expect = 2e5 * 10e-3
    assert abs(a.count - expect) < 6 * math.sqrt(expect)


def test_short_duration_warns():
    s1, s2 = coherent_pair(tc=1e-3)
    det = DetectorSetting(math.pi / 4)
    with pytest.warns(UserWarning):
        simulate_events(s1, s2, GEO, det, det, 1e-3, seed=1)


def test_substream_roles_disjoint():
    a = substream(9, 0, 0).integers(0, 1 << 62, 8)
    b = substream(9, 0, 1).integers(0, 1 << 62, 8)
    assert not np.array_equal(a, b)
    with pytest.raises(ValueError):
        substream(9, 0, 8)


# ---------------------------------------------------------------------------
# The g2 estimator.

def test_g2_independent_poisson_streams():
    rng = substream(314, 0, 0)
    duration_ps = 5_000_000_000
    streams = [EventStream(d, np.unique(rng.integers(0, duration_ps, 100_000)
                                        .astype(np.int64)), duration_ps, 314)
               for d in "AB"]
    curve = estimate_g2(streams[0], streams[1], [0, 10_000, 50_000], 1000)
    for value, nc in zip(curve.values, curve.n_coincidence):
        assert abs(value - 1.0) < 5.0 / math.sqrt(nc)


def test_g2_duplicated_stream_limit():
    # sparse events, one per occupied bin: g2(0) = n_bin / n_A exactly
    rng = substream(11, 0, 0)
    duration_ps = 1_000_000_000
    gate = 1000
    bins = np.unique(rng.integers(0, duration_ps // gate, 2000))
    ts = bins * gate + 17
    a = EventStream("A", ts, duration_ps, 11)
    b = EventStream("B", ts, duration_ps, 11)
    curve = estimate_g2(a, b, [0], gate)
    n_bin = duration_ps // gate
    assert curve.n_coincidence[0] == ts.size
    assert curve.values[0] == pytest.approx(n_bin / ts.size)
    assert curve.values[0] > 100


def test_g2_empty_stream_reports_nan():
    duration_ps = 1_000_000
    a = EventStream("A", np.array([], dtype=np.int64), duration_ps, 0)
    b = EventStream("B", np.array([10, 500]), duration_ps, 0)
    curve = estimate_g2(a, b, [0], 100)
    assert np.isnan(curve.values[0])
    assert curve.n_a == 0 and curve.n_b == 2


def test_g2_requires_equal_durations():
    a = EventStream("A", np.array([10]), 1000, 0)
    b = EventStream("B", np.array([10]), 2000, 0)
    with pytest.raises(ValueError):
        estimate_g2(a, b, [0], 100)


@settings(deadline=None, max_examples=30)
@given(st.lists(st.integers(0, 99_999), min_size=0, max_size=300),
       st.lists(st.integers(0, 99_999), min_size=1, max_size=300),
       st.sampled_from([100, 250, 500]),
       st.lists(st.integers(1, 99), min_size=1, max_size=3))
def test_partial_merge_equals_single_pass(ts_a, ts_b, gate, cuts_pct):
    duration_ps = 100_000
    a = EventStream("A", np.unique(np.array(ts_a, dtype=np.int64)), duration_ps, 0)
    b = EventStream("B", np.unique(np.array(ts_b, dtype=np.int64)), duration_ps, 0)
    taus = [0, gate * 3]
    single = CoincidencePartial.from_streams(a, b, gate).to_curve(taus)
    bounds = sorted({0, duration_ps}
                    | {(duration_ps * p // 100) // gate * gate for p in cuts_pct})
    parts = [CoincidencePartial.from_streams(a, b, gate, lo, hi)
             for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
    merged = parts[0]
    for p in parts[1:]:
        merged = merged.merge(p)
    got = merged.to_curve(taus)
    assert np.array_equal(got.n_coincidence, single.n_coincidence)
    assert got.n_a == single.n_a and got.n_b == single.n_b
    assert got.n_bin == single.n_bin


def dense_coincidences(ts_a, ts_b, taus, gate, duration_ps):
    """Reference n_coinc: per-bin counts multiplied and summed, tau by tau."""
    n_bin = -(-duration_ps // gate)
    c_a = np.bincount(np.asarray(ts_a, dtype=np.int64) // gate, minlength=n_bin)
    c_b = np.bincount(np.asarray(ts_b, dtype=np.int64) // gate, minlength=n_bin)
    out = []
    for tau in taus:
        o = round(tau / gate)
        lo, hi = max(0, -o), min(n_bin, n_bin - o)
        out.append(int(np.dot(c_a[lo:hi], c_b[lo + o:hi + o])) if hi > lo else 0)
    return np.array(out, dtype=np.int64)


@settings(deadline=None, max_examples=200)
@given(st.lists(st.integers(0, 9_999), max_size=200),
       st.lists(st.integers(0, 9_999), max_size=200),
       st.sampled_from([1, 2, 7, 100, 250, 10_000, 25_000]),
       st.lists(st.integers(-30_000, 30_000), max_size=6),
       st.lists(st.integers(-9, 9), max_size=4))
def test_g2_equals_dense_reference(ts_a, ts_b, gate, raw_taus, halves):
    duration_ps = 10_000
    # multiples of half a gate exercise round-half-to-even; the repeat
    # makes duplicates, and the draws are unsorted and of either sign
    taus = raw_taus + [h * gate // 2 for h in halves] + raw_taus[:2] + [0]
    a = EventStream("A", np.unique(np.array(ts_a, dtype=np.int64)), duration_ps, 0)
    b = EventStream("B", np.unique(np.array(ts_b, dtype=np.int64)), duration_ps, 0)
    curve = estimate_g2(a, b, taus, gate)
    expected = dense_coincidences(a.timestamps, b.timestamps, taus, gate, duration_ps)
    assert np.array_equal(curve.taus_ps, taus)
    assert np.array_equal(curve.n_coincidence, expected)
    assert (curve.n_a, curve.n_b, curve.n_bin) == (a.count, b.count,
                                                   -(-duration_ps // gate))
    if a.count and b.count:
        assert np.allclose(curve.values,
                           expected * curve.n_bin / (a.count * b.count), rtol=1e-12)
    else:
        assert np.all(np.isnan(curve.values))


def test_g2_unbiased_at_high_occupancy():
    # 0.4 counts per gate: many bins hold two or more events, and every
    # pair of events still counts once
    rng = substream(4242, 0, 0)
    duration_ps, gate = 1_000_000_000, 1000
    streams = [EventStream(d, np.unique(rng.integers(0, duration_ps, 400_000)),
                           duration_ps, 4242)
               for d in "AB"]
    curve = estimate_g2(streams[0], streams[1], [0, 7000, -20_000], gate)
    assert curve.n_a / curve.n_bin > 0.39
    for value, nc in zip(curve.values, curve.n_coincidence):
        assert abs(value - 1.0) < 5.0 / math.sqrt(nc)


def test_g2_wide_sparse_grid_is_cheap():
    rng = substream(77, 0, 0)
    duration_ps, gate = 1_000_000_000, 1000
    a, b = (EventStream(d, np.unique(rng.integers(0, duration_ps, 100_000)),
                        duration_ps, 77)
            for d in "AB")
    taus = [-(duration_ps - gate), 0, duration_ps - gate]
    started = time.perf_counter()
    curve = estimate_g2(a, b, taus, gate)
    # a walk over every offset of the 2 * 10^6-bin span would take minutes
    assert time.perf_counter() - started < 5.0
    assert np.array_equal(curve.n_coincidence,
                          dense_coincidences(a.timestamps, b.timestamps, taus,
                                             gate, duration_ps))


def test_g2_coarse_grid_is_one_pass(monkeypatch):
    # 76 offsets at a 4-gate step: the three empty offsets between two
    # requested ones cost far less pair work than another pass over the bins
    passes = []
    window_sums = CoincidencePartial._window_sums

    def counted(self, first, last):
        passes.append((first, last))
        return window_sums(self, first, last)

    monkeypatch.setattr(CoincidencePartial, "_window_sums", counted)
    rng = substream(78, 0, 0)
    duration_ps, gate = 1_000_000_000, 1000
    a, b = (EventStream(d, np.unique(rng.integers(0, duration_ps, 100_000)),
                        duration_ps, 78)
            for d in "AB")
    taus = np.arange(76) * 4 * gate
    curve = estimate_g2(a, b, taus, gate)
    assert passes == [(0, 300)]
    assert np.array_equal(curve.n_coincidence,
                          dense_coincidences(a.timestamps, b.timestamps, taus,
                                             gate, duration_ps))


def test_merge_rejects_unaligned_segment():
    a = EventStream("A", np.array([10]), 10_000, 0)
    b = EventStream("B", np.array([10]), 10_000, 0)
    with pytest.raises(ValueError):
        CoincidencePartial.from_streams(a, b, 300, start_ps=150)


# ---------------------------------------------------------------------------
# Physics of the simulated streams.

def test_thermal_splitter_g2_of_two():
    source = ThermalFieldModel(2e7, 6.366e-9, "thermal")
    det = DetectorSetting(0.0, efficiency=0.55)
    # 0.15 s: about 4500 coincidences, so the window is 5 standard errors
    # g2/sqrt(n_coinc) wide
    a, b = quiet_simulate(source, None, GEO, det, det, 0.15, seed=99,
                          standard_detection=True)
    curve = estimate_g2(a, b, [0], 500)
    assert abs(curve.values[0] - 2.0) < 0.15


def assert_bose_einstein(stream, tc):
    """Counts per coherence slot follow the geometric (Bose-Einstein) law."""
    slot_ps = int(round(tc * 1e12))
    n_slots = stream.duration_ps // slot_ps
    counts = np.bincount((stream.timestamps // slot_ps).astype(np.int64),
                         minlength=n_slots)
    mean = counts.mean()
    kmax = int(counts.max())
    observed = np.bincount(counts, minlength=kmax + 1).astype(float)
    r = mean / (1.0 + mean)
    expected = n_slots * (1 - r) * r ** np.arange(kmax + 1)
    # pool the tail so expected counts stay above 5
    while expected[-1] < 5 and expected.size > 3:
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected, observed = expected[:-1], observed[:-1]
    expected *= observed.sum() / expected.sum()
    stat, p = chisquare(observed, expected, ddof=1)
    assert p > 0.01


def test_thermal_slot_counts_are_bose_einstein():
    tc = 10e-9
    source = ThermalFieldModel(2e7, tc, "thermal")
    det = DetectorSetting(0.0, efficiency=1.0)
    a, _ = quiet_simulate(source, None, GEO, det, det, 2e-3, seed=404,
                          standard_detection=True)
    assert_bose_einstein(a, tc)


def test_thermal_splitter_g2_is_triangular():
    # one thermal beam on a splitter: two times share a slot with
    # probability (1 - |tau|/tc)+ over the slot position, and a shared slot
    # doubles the pair rate, so g2(tau) = 1 + (1 - |tau|/tc)+, not the
    # Lorentzian 1 + exp(-2|tau|/tc) (9% away at tc/4); the gate divides tc,
    # so gate bins nest in slots and the law holds at whole-gate offsets
    tc, gate = 100e-9, 500
    source = ThermalFieldModel(4e7, tc, "thermal")
    det = DetectorSetting(0.0, efficiency=1.0)
    a, b = quiet_simulate(source, None, GEO, det, det, 0.1, seed=1759,
                          standard_detection=True)
    fractions = np.array([0.0, 0.25, 0.5, 1.0, 2.0])
    curve = estimate_g2(a, b, np.rint(fractions * tc * PS_PER_S), gate)
    law = 1.0 + np.clip(1.0 - fractions, 0.0, None)
    # 5 standard errors: g2 / sqrt(n_coinc) is the Poisson error of g2
    assert np.all(np.abs(curve.values / law - 1.0) < 5.0 / np.sqrt(curve.n_coincidence))


def test_thermal_pair_g2_at_zero_delay():
    # two thermal sources beating at a detector: its rate is
    # b1*i1 + b2*i2 + s*sqrt(i1*i2)*cos(phase + o), s = 2*sqrt(b1*b2), with
    # i ~ Exp(1) and a uniform phase per slot.  The gate divides tc, so both
    # events of a pair share their slots, and over i and the phase
    # g2(0) = 1 + (b1A*b1B + b2A*b2B + sA*sB*cos(oA - oB)/2) / (nA * nB)
    # with nA = b1A + b2A and nB = b1B + b2B, the singles rates
    tc, gate, rate, duration = 20e-9, 1000, 2e7, 0.05
    source = ThermalFieldModel(rate, tc, "thermal")
    det = DetectorSetting(math.pi / 4, efficiency=1.0)
    a, b = quiet_simulate(source, source, GEO, det, det, duration, seed=1913)
    terms = []
    for name in "AB":
        k1, k2 = detector_couplings(det)
        psi = GEO.path_phase(1, name) - GEO.path_phase(2, name)
        b1, b2 = abs(k1) ** 2 * rate / 2, abs(k2) ** 2 * rate / 2
        offset = np.angle(k1 * np.conj(k2) * np.exp(1j * psi))
        terms.append((b1, b2, 2 * math.sqrt(b1 * b2), offset))
    (b1a, b2a, sa, oa), (b1b, b2b, sb, ob) = terms
    excess = b1a * b1b + b2a * b2b + sa * sb * math.cos(oa - ob) / 2
    law = 1 + excess / ((b1a + b2a) * (b1b + b2b))
    curve = estimate_g2(a, b, [0], gate)
    assert abs(curve.values[0] / law - 1.0) < 5.0 / math.sqrt(curve.n_coincidence[0])
    for stream, (b1, b2, s, _) in zip((a, b), terms):
        # shot noise plus the variance of the integrated intensity
        mean = (b1 + b2) * duration
        assert abs(stream.count - mean) < 5 * math.sqrt(mean + duration * tc * (
            s ** 2 + b1 ** 2 + b2 ** 2))


def test_thermal_slot_field_across_batches():
    # a slot's intensity and phase are drawn once, whichever batch reads
    # them (batch ends fall inside slots, and each batch reads from the end
    # of the one before); over all slots, those that received candidates
    # (Gamma given the count) and those that did not (Exp(1 + a)), they
    # follow the prior: intensity Exp(1), phase uniform
    tc = 20e-9
    envelope = stochastic._Envelope(ThermalFieldModel(2e7, tc, "thermal"),
                                    (1e7, 1e7), substream(8, 0, 0))
    drawn, start = {}, 0.0
    for end in np.arange(1, 2000) * 7.3 * tc:
        envelope.candidates(end)
        centres = (np.arange(math.ceil(start / tc), math.ceil(end / tc)) + 0.5) * tc
        times = np.append(start, centres[centres < end])
        intensity, phase = envelope.field(times, np.full(times.size, -1))
        for k, value in zip(np.floor(times / tc).astype(int), zip(intensity, phase)):
            assert drawn.setdefault(k, value) == value
        start = end
    intensity, phase = np.array(list(drawn.values())).T
    assert intensity.size > 14_000
    assert kstest(intensity, "expon").pvalue > 0.01
    assert kstest(phase / (2 * math.pi), "uniform").pvalue > 0.01


def test_batches_keep_the_laws(monkeypatch):
    # a few hundred expected candidates per batch, so every run below
    # crosses many batch ends, most of them inside a coherence slot
    monkeypatch.setattr(stochastic, "_CHUNK", 333)
    rate = 0.7 * 2e7 / 2
    laser = ThermalFieldModel(2e7, 318e-9, "coherent")
    det = DetectorSetting(0.0, efficiency=0.7)
    for s in simulate_events(laser, None, GEO, det, det, 2e-3, seed=22,
                             standard_detection=True):
        assert abs(s.count - rate * 2e-3) < 5 * math.sqrt(rate * 2e-3)
        gaps = np.diff(s.timestamps) / PS_PER_S
        assert kstest(gaps, "expon", args=(0.0, 1.0 / rate)).pvalue > 0.01

    det = DetectorSetting(0.0, efficiency=1.0)
    for tc in (10e-9, 1e-6):
        # at 1 us, each slot spans several batches
        monkeypatch.setattr(stochastic, "_CHUNK", 333 if tc < 1e-6 else 7)
        beam = ThermalFieldModel(2e7, tc, "thermal")
        streams = quiet_simulate(beam, None, GEO, det, det, 2e-3, seed=405,
                                 standard_detection=True)
        for s in streams:
            mean = 1e7 * 2e-3
            assert abs(s.count - mean) < 5 * math.sqrt(mean + 1e14 * tc * 2e-3)
            assert_bose_einstein(s, tc)


def test_thinning_invariance():
    # efficiency scales the rate and its bound alike: singles scale by eta
    # and the distribution of g2(0) over seeds does not move
    s1, s2 = coherent_pair(rate=3e7, tc=100e-9)
    singles, g2 = {}, {}
    for eta, seed0 in ((0.6, 0), (1.0, 1000)):
        det = DetectorSetting(math.pi / 4, efficiency=eta)
        singles[eta], g2[eta] = 0, []
        for seed in range(seed0, seed0 + 40):
            a, b = quiet_simulate(s1, s2, GEO, det, det, 2e-3, seed=seed)
            singles[eta] += a.count + b.count
            g2[eta].append(estimate_g2(a, b, [0], 1000).values[0])
    # 80 streams of ~3e4 counts, super-Poissonian by the beat: the ratio's
    # standard error is about 0.15%
    assert abs(singles[0.6] / singles[1.0] / 0.6 - 1.0) < 0.01
    _, p = ks_2samp(g2[0.6], g2[1.0])
    assert p > 0.01


def test_constant_rate_interarrivals_are_exponential():
    # one laser under standard detection has a constant rate, so thinning
    # keeps every candidate and arrivals form a homogeneous Poisson process:
    # exponential gaps, and arrival times uniform over the run
    eta = 0.7
    source = ThermalFieldModel(2e7, 318e-9, "coherent")
    det = DetectorSetting(0.0, efficiency=eta)
    a, b = simulate_events(source, None, GEO, det, det, 2e-3, seed=21,
                           standard_detection=True)
    rate = eta * 2e7 / 2
    for s in (a, b):
        gaps = np.diff(s.timestamps) / PS_PER_S
        assert gaps.size > 10_000
        assert kstest(gaps, "expon", args=(0.0, 1.0 / rate)).pvalue > 0.01
        assert kstest(s.timestamps / s.duration_ps, "uniform").pvalue > 0.01


@settings(deadline=None, max_examples=40, derandomize=True)
@given(st.floats(0.0, math.pi / 2), st.floats(0.0, 2 * math.pi),
       st.floats(0.0, 2 * math.pi), st.floats(0.0, 1.0),
       st.floats(0.0, 3e-6),
       st.sampled_from([("coherent", "coherent"), ("thermal", "thermal"),
                        ("coherent", "thermal")]),
       st.sampled_from([1.0, 1.7]), st.booleans(), st.integers(0, 2 ** 32))
def test_thinning_rate_within_bound(theta, phase_a, phase_b, v_deg, delay,
                                    kinds, stretch, standard, seed):
    # by AM-GM the rate never exceeds its bound and is never negative for
    # v_deg <= 1, so simulate_events never raises; each detector counts its
    # mean rate within 5 sigma, with the variance of the integrated
    # intensity added to the shot noise.  Source 2 may have the longer
    # coherence time, so the two slot grids differ, and the detectors'
    # efficiencies differ, so a thermal term splits unevenly between them.
    duration, rate = 1e-3, 2e7
    tcs = [50e-9 if kind == "coherent" else 5e-9 for kind in kinds]
    tcs[1] *= stretch
    s1 = ThermalFieldModel(rate, tcs[0], kinds[0])
    s2 = ThermalFieldModel(rate, tcs[1], kinds[1], 10e6)
    dets = [DetectorSetting(theta, phase, output_filter=1, efficiency=eff,
                            visibility_degradation=v_deg)
            for phase, eff in ((phase_a, 0.5), (phase_b, 0.3))]
    streams = simulate_events(s1, s2, GEO.with_delay(delay), *dets, duration,
                              seed, standard_detection=standard)
    for stream, det in zip(streams, dets):
        # standard detection of two distinct colors has no beat term
        k1, k2 = (1.0, 1.0) if standard else detector_couplings(det)
        b = [det.efficiency * abs(k) ** 2 * rate / 2 for k in (k1, k2)]
        cross2 = 0.0 if standard else v_deg * b[0] * b[1]
        mean = sum(b) * duration
        # a thermal term varies slot by slot; the beat decorrelates within
        # the longer coherence time
        excess = duration * (4 * cross2 * max(tcs) + sum(
            bj ** 2 * tc for bj, tc, kind in zip(b, tcs, kinds) if kind == "thermal"))
        assert abs(stream.count - mean) <= 5 * math.sqrt(mean + excess)


def test_g2_decorrelates_beyond_coherence_time():
    tc = 50e-9
    s1, s2 = coherent_pair(rate=4e7, tc=tc)
    det = DetectorSetting(math.pi / 4)
    curve = g2_vs_tau_scan(s1, s2, GEO, det, det, 0.05,
                           [0, int(tc * 1e12), int(20 * tc * 1e12)], 1000,
                           seed=2718)
    near, one_tc, far = curve.values
    assert near > 1.2
    assert abs(far - 1.0) < 0.05
    # the phase difference of the pair diffuses at 2/tc, so the beat
    # correlation decays as exp(-tau/tc); the ratio's standard error is ~0.02
    assert abs((one_tc - 1.0) / (near - 1.0) - math.exp(-1.0)) < 0.08


# ---------------------------------------------------------------------------
# Spectra and fits.

def test_fringe_fft_synthetic_peak():
    delays = np.linspace(0, 10 * LAM3, 64, endpoint=False)
    values = 1.0 + 0.5 * np.cos(2 * math.pi * delays / LAM3 + 0.4)
    freqs, spectrum, peak = fringe_fft(delays, values)
    target = SPEED_OF_LIGHT / LAM3
    assert abs(peak - target) <= freqs[1] - freqs[0]


def test_fringe_fft_flat_input_no_peak():
    rng = np.random.default_rng(17)
    delays = np.linspace(0, 10 * LAM3, 48, endpoint=False)
    values = np.ones(48) + 0.01 * rng.normal(size=48)
    _, spectrum, _ = fringe_fft(delays, values)
    assert spectrum[1:].max() < 5.0 * np.median(spectrum[1:])


def test_fringe_fft_rejections():
    with pytest.raises(ValueError):
        fringe_fft(np.linspace(0, 1, 8), np.ones(8))
    bad = np.concatenate([np.linspace(0, 1, 10), [2.5, 2.6, 2.7, 2.8, 2.9, 3.5]])
    with pytest.raises(ValueError):
        fringe_fft(bad, np.ones(16))


def test_fit_fringe_recovers_parameters():
    xs = np.linspace(0, 4 * LAM3, 40)
    values = 1.3 + 0.4 * np.cos(2 * math.pi * xs / LAM3 + 0.9)
    offset, amplitude, phase = fit_fringe(xs, values, LAM3)
    assert offset == pytest.approx(1.3, abs=1e-9)
    assert amplitude == pytest.approx(0.4, abs=1e-9)
    assert fitted_visibility(xs, values, LAM3) == pytest.approx(0.4 / 1.3, abs=1e-9)


def test_fit_fringe_free_period():
    xs = np.linspace(0, 12e-3, 48)
    values = 1.0 + 0.45 * np.cos(2 * math.pi * xs / 3.55e-3 + 0.2)
    _, amp, period, _ = fit_fringe_free_period(xs, values)
    assert period == pytest.approx(3.55e-3, rel=1e-6)
    assert amp == pytest.approx(0.45, abs=1e-9)


def test_fit_g2_envelope_recovers_decay():
    taus = np.arange(0, 300e-9, 4e-9)
    values = 1.0 + 0.5 * np.exp(-taus / 100e-9) * np.cos(2 * math.pi * 25e6 * taus)
    amp, decay, _ = fit_g2_envelope(taus, values, 25e6)
    assert amp == pytest.approx(0.5, abs=1e-6)
    assert decay == pytest.approx(100e-9, rel=1e-6)


# ---------------------------------------------------------------------------
# Text formats.

def test_g2_csv_format(tmp_path):
    curve = G2Curve([0, 1000], [1.5, float("nan")], 500, [30, 0], 100, 200, 4000)
    path = tmp_path / "g2.csv"
    write_g2_csv(path, curve)
    lines = path.read_text().splitlines()
    assert lines[0] == "tau_ps,g2,n_coincidence,n_A,n_B,n_bin"
    assert lines[1] == "0,1.5,30,100,200,4000"
    assert lines[2].startswith("1000,nan,0")
