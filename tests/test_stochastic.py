import dataclasses
import hashlib
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import curve_fit, least_squares
from scipy.stats import chisquare, ks_2samp, kstest

from chromint import scenarios, stochastic
from chromint.interferometry import (
    SPEED_OF_LIGHT,
    DetectorSetting,
    InterferometerGeometry,
    SourcePair,
    detector_couplings,
    detector_rates,
)
from chromint.scenarios import (
    _write_g2_csv,
    apply_overrides,
    default_config,
    make_detectors,
    make_geometry,
    make_sources,
)
from chromint.selftest import check_thermal_g2
from chromint.stochastic import (
    EventStream,
    G2Curve,
    PS_PER_S,
    estimate_g2,
    fit_fringe,
    fit_fringe_free_period,
    fit_g2_envelope,
    fringe_fft,
    fitted_visibility,
    simulate_events,
    substream,
)

LAM1, LAM2, LAM3 = 1549.800e-9, 863.344e-9, 1949.157e-9
GEO = InterferometerGeometry(LAM1, LAM2, LAM3, 0.05, 0.05, 0.05, 0.05)


def coherent_pair(rate=2e7, tc=318e-9, detuning=0.0):
    return SourcePair("coherent", rate, rate, tc, detuning)


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
    pair = coherent_pair()
    det = DetectorSetting(math.pi / 4)
    runs = [quiet_simulate(pair, GEO, det, det, 2e-3, seed=77, trial=3)
            for _ in range(2)]
    for d in (0, 1):
        assert np.array_equal(runs[0][d].timestamps, runs[1][d].timestamps)
    other = quiet_simulate(pair, GEO, det, det, 2e-3, seed=77, trial=4)
    assert not np.array_equal(runs[0][0].timestamps, other[0].timestamps)


def test_poisson_rate_and_dedup():
    beam = SourcePair("coherent", 2e7, 0.0, 318e-9)
    det = DetectorSetting(None)
    a, b = quiet_simulate(beam, GEO, det, det, 5e-3, seed=5)
    # one source seen without conversion: mean detected rate = rate/2
    expect = 2e7 / 2 * 5e-3
    for s in (a, b):
        assert abs(s.count - expect) < 6 * math.sqrt(expect)
        assert np.all(np.diff(s.timestamps) > 0)
        assert s.duration_ps == 5_000_000_000


@pytest.mark.parametrize("fields,match", [
    (("lamp", 2e7, 2e7, 1e-9), "kind"),
    (("coherent", 0.0, 2e7, 1e-9), "rate1"),
    (("thermal", -2e7, 2e7, 1e-9), "rate1"),
    (("coherent", 2e7, -1.0, 1e-9), "rate2"),
    (("thermal", 2e7, 2e7, 0.0), "coherence_time"),
    (("coherent", 2e7, 2e7, -1e-9), "coherence_time"),
], ids=["kind", "rate1=0", "rate1<0", "rate2<0", "tc=0", "tc<0"])
def test_source_pair_rejects_what_no_source_can_be(fields, match):
    with pytest.raises(ValueError, match=match):
        SourcePair(*fields)


def test_source_pair_rates_at_detector_are_the_simulated_ones():
    # rate2 = 0 is one beam on a splitter.  Two colors seen without
    # conversion do not beat, so each detector counts both sources' rates
    # at it: the singles law of test_poisson_rate_and_dedup
    assert SourcePair("thermal", 2e7, 0.0, 1e-9).rates_at_detector == (1e7, 0.0)
    pair = SourcePair("coherent", 2e7, 0.6e7, 318e-9)
    assert pair.rates_at_detector == (1e7, 0.3e7)
    det = DetectorSetting(None)
    a, b = quiet_simulate(pair, GEO, det, det, 5e-3, seed=5)
    expect = sum(pair.rates_at_detector) * 5e-3
    for s in (a, b):
        assert abs(s.count - expect) < 6 * math.sqrt(expect)


def test_dark_counts_only():
    beam = SourcePair("coherent", 1e3, 0.0, 1e-6)
    det = DetectorSetting(0.0, output_filter=2, efficiency=0.0,
                          dark_count_rate=2e5)
    a, _ = quiet_simulate(beam, GEO, det, det, 10e-3, seed=6)
    # efficiency 0 silences the source; only darks remain
    expect = 2e5 * 10e-3
    assert abs(a.count - expect) < 6 * math.sqrt(expect)


def test_short_duration_warns():
    det = DetectorSetting(math.pi / 4)
    with pytest.warns(UserWarning):
        simulate_events(coherent_pair(tc=1e-3), GEO, det, det, 1e-3, seed=1)


def pinned_setups():
    """Source pair, detectors and run (geometry, duration, seed, trial) of
    each pinned stream digest."""
    run = (GEO, 2e-3, 2718, 5)
    gate_study = default_config("gate_time_study")
    thermal = SourcePair("thermal", 2e7, 2e7, 20e-9)
    # source 2 at a lower rate, detuned by 30 MHz
    detuned = SourcePair("thermal", 2e7, 1.5e7, 20e-9, 3e7)
    conv = DetectorSetting(math.pi / 4)
    lossy_a = DetectorSetting(math.pi / 4, efficiency=0.8, dark_count_rate=2e5)
    lossy_b = DetectorSetting(math.pi / 3, pump_phase=0.4, efficiency=0.55,
                              dark_count_rate=5e5)
    off = DetectorSetting(None)
    return {
        "thermal_pair": (thermal, conv, conv, run),
        "unequal_thermal_pair": (detuned, lossy_a, lossy_b, run),
        "laser_pair": (coherent_pair(detuning=2e7), conv, conv, run),
        "splitter": (dataclasses.replace(thermal, rate2=0.0), off, off, run),
        "pump_off_pair": (detuned, off, lossy_b, run),
        # the gate study's pair at delay 13 of 16, where source 2 splits its
        # candidates between the detectors at share 0.5000000000000001, one
        # ulp off the balanced 0.5: a candidate's uniform u goes to A below
        # the share, and the share also scales u into the candidate's place
        "gate_study_pair": (make_sources(gate_study), *make_detectors(gate_study),
                            (make_geometry(gate_study).with_delay(
                                13 * 1.5 * gate_study.lambda3_m / 16), 1e-3, 12345, 13)),
    }


# sha256 of each setup's streams in one batch and at _CHUNK = 1000: a change
# to any random draw, its order or its count changes them
PINNED_DIGESTS = {
    "gate_study_pair": (
        "d9b1ff9472887022e3cb3f7792ec0f2f49975fd0a03cb70cb91967eac0374705",
        "d548a70ffb0a66a1490f3a7261d26821fea68e4bbec56feb216f6c46a8435be0"),
    "laser_pair": (
        "3b1a655a7e87cd9d530de29129e14a3bf56f3e7aad4981684af2e200f607cbbc",
        "93e580254ef5fd5c2993a6c26f3fa159de3ca7e9dcfe47db7e9d6eab1ba0b905"),
    "pump_off_pair": (
        "6efb1ad79c03789bc355cefc96a85b18d28d5f84a62116463338ee6041ee2b34",
        "eb8af6ad9bda27a6d0b5cb2fd0499a596e05f03661b1ffa57e618d560c644c64"),
    "splitter": (
        "44469326a5571c5faa4b6ad63b8c923bd186943bf3fe936032ac47d86fe449ef",
        "a2ccd4c7aebf58726ebf7786fed3eb2436a2d0954adf5bb33051e20ba5d87ffc"),
    "thermal_pair": (
        "b9de5840ac1768896b645a241f69d4ad6028df2aedce0f0a62612493e1c1d496",
        "adef4208d6ce4e15e25f85c99e3729f72126af066d887de6308dcb01c8d7ea6c"),
    "unequal_thermal_pair": (
        "76853ff577ce5e23e228ea72e691251fef22a2e41ced9cba8c1b75f17d784cd7",
        "a40879fc79ba1bced3a73aea8d435feed6a88ba4ca3cddc5d14405a69fc8e933"),
}


def stream_digest(name):
    """sha256 of both detectors' timestamps of one pinned setup."""
    pair, det_a, det_b, (geometry, duration, seed, trial) = pinned_setups()[name]
    a, b = quiet_simulate(pair, geometry, det_a, det_b, duration, seed=seed, trial=trial)
    return hashlib.sha256(a.timestamps.tobytes() + b.timestamps.tobytes()).hexdigest()


@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_streams_match_pinned_digests(monkeypatch, name, batched):
    # the exact draw order of every source kind and detector pair, in one
    # batch and in about a hundred, whose ends fall inside slots
    if batched:
        monkeypatch.setattr(stochastic, "_CHUNK", 1000)
    assert stream_digest(name) == PINNED_DIGESTS[name][batched]


def test_substream_roles_disjoint():
    def draws(seed, trial, role):
        return substream(seed, trial, role).integers(0, 1 << 62, 8).tolist()

    key = (9, 3, 2)
    assert draws(*key) == draws(*key)
    # changing any one of seed, trial and role changes the stream; seed
    # 2**33 + 1 at role 0 and seed 1 at role 2 are keys whose 32-bit words
    # join alike when the two key words are passed as a list
    others = [(10, 3, 2), (9 + (1 << 32), 3, 2), (9, 4, 2), (9, 3 + (1 << 40), 2),
              (9, 3, 0), (9, 3, 5)]
    assert all(draws(*key) != draws(*other) for other in others)
    assert draws((1 << 33) + 1, 0, 0) != draws(1, 0, 2)
    # the seed is taken mod 2**64: a seed of 2**63 or more and a negative
    # one reach the same stream as their residue
    big = (1 << 63) + 9
    assert draws(big, 3, 2) == draws(big + (1 << 64), 3, 2) == draws(big - (1 << 64), 3, 2)
    assert draws(-1, 3, 2) == draws((1 << 64) - 1, 3, 2)
    assert draws(big, 3, 2) != draws(9, 3, 2)
    for role in (-1, 6, 8):
        with pytest.raises(ValueError):
            substream(9, 0, role)


def test_detector_streams_only_accept(monkeypatch):
    # roles 2/3 draw each candidate's acceptance and nothing else: without
    # the pump a laser pair does not beat, nothing is thinned, and detector
    # streams of another seed leave both event streams as they are; with
    # the pump they thin, and the events change
    pair, own = coherent_pair(detuning=2e7), substream

    def other_detector_streams(seed, trial, role):
        return own(seed + 1 if role in (2, 3) else seed, trial, role)

    for theta, same in ((None, True), (math.pi / 4, False)):
        det = DetectorSetting(theta)
        before = quiet_simulate(pair, GEO, det, det, 2e-3, seed=2718, trial=5)
        monkeypatch.setattr(stochastic, "substream", other_detector_streams)
        after = quiet_simulate(pair, GEO, det, det, 2e-3, seed=2718, trial=5)
        monkeypatch.undo()
        assert all(a.count > 10_000 for a in before)
        assert all(np.array_equal(a.timestamps, b.timestamps)
                   for a, b in zip(before, after)) is same


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


@pytest.mark.parametrize("gate", [0, -5, 10.5])
def test_g2_rejects_gate_not_a_positive_integer(gate):
    a = EventStream("A", np.array([10]), 1000, 0)
    with pytest.raises(ValueError, match="gate"):
        estimate_g2(a, a, [0], gate)


def test_g2_requires_equal_durations():
    a = EventStream("A", np.array([10]), 1000, 0)
    b = EventStream("B", np.array([10]), 2000, 0)
    with pytest.raises(ValueError):
        estimate_g2(a, b, [0], 100)


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
       st.lists(st.integers(-9, 9), max_size=4),
       st.sampled_from([1, 2, 7, stochastic._SLICE]))
def test_g2_equals_dense_reference(ts_a, ts_b, gate, raw_taus, halves, slice_events):
    duration_ps = 10_000
    # multiples of half a gate exercise round-half-to-even; the repeat
    # makes duplicates, and the draws are unsorted and of either sign
    taus = raw_taus + [h * gate // 2 for h in halves] + raw_taus[:2] + [0]
    a = EventStream("A", np.unique(np.array(ts_a, dtype=np.int64)), duration_ps, 0)
    b = EventStream("B", np.unique(np.array(ts_b, dtype=np.int64)), duration_ps, 0)
    # short slices of A cut bins and runs at their edges, and leave some
    # slices no B event within reach
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stochastic, "_SLICE", slice_events)
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


@settings(deadline=None, max_examples=200)
@given(st.lists(st.integers(0, 1199), max_size=40),
       st.lists(st.integers(0, 1199), max_size=40),
       st.integers(-1300, 1300), st.integers(1, 7))
@example([], [], 0, 1)
@example([], [3, 700], 0, 2)
@example([5, 9], [], 1300, 3)
def test_one_offset_counts_every_pair(ts_a, ts_b, shift, gate):
    # B also holds A's events moved by `shift`, so the offset shift // gate
    # and its neighbours hold coincidences; the offsets reach past both ends
    duration_ps = 1200
    ts_b = ts_b + [t + shift for t in ts_a if 0 <= t + shift < duration_ps]
    a, b = (EventStream(d, np.unique(np.array(ts, dtype=np.int64)), duration_ps, 0)
            for d, ts in (("A", ts_a), ("B", ts_b)))
    n_bin = -(-duration_ps // gate)
    o = shift // gate
    offsets = [-n_bin - 2, -n_bin, 1 - n_bin, -1, 0, 1, o - 1, o, o + 1,
               n_bin - 1, n_bin, n_bin + 2]
    # B bin minus A bin for every pair of events
    apart = np.subtract.outer(b.timestamps // gate, a.timestamps // gate)
    expected = [np.count_nonzero(apart == off) for off in offsets]
    # one tau per call, as every delay-scan and gate-study point asks
    assert [estimate_g2(a, b, [off * gate], gate).n_coincidence[0]
            for off in offsets] == expected
    # the 499 empty offsets between two of these cost more than a pass over
    # at most 120 events, so they make one-offset runs around a three-offset
    # one, walked once per slice of A (none for an empty A)
    many = [o - 1000, o - 500, o - 1, o, o + 1, o + 500, o + 1000]
    passes = []
    window_sums = stochastic._window_sums
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stochastic, "_window_sums",
                      lambda *args: passes.append(args[-2:]) or window_sums(*args))
        curve = estimate_g2(a, b, [off * gate for off in many], gate)
    slices = -(-a.count // stochastic._SLICE)
    assert passes == [(o - 1000, o - 1000), (o - 500, o - 500), (o - 1, o + 1),
                      (o + 500, o + 500), (o + 1000, o + 1000)] * slices
    assert curve.n_coincidence.tolist() == [np.count_nonzero(apart == off)
                                            for off in many]


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


def test_g2_memory_is_bounded_by_the_slice():
    # A is counted a slice at a time, so the working memory of 201 offsets
    # does not grow with the streams
    duration_ps, gate = 20_000_000_000, 1000
    taus = np.arange(-100, 101) * gate
    peaks = []
    for n in (200_000, 800_000):
        rng = substream(79, n, 0)
        a, b = (EventStream(d, np.unique(rng.integers(0, duration_ps, n)),
                            duration_ps, 79)
                for d in "AB")
        tracemalloc.start()
        try:
            estimate_g2(a, b, taus, gate)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.1 * peaks[0]


def test_g2_coarse_grid_is_one_pass(monkeypatch):
    # 76 offsets at a 4-gate step: the three empty offsets between two
    # requested ones cost far less pair work than another pass over the
    # events, so each slice of A makes one pass
    passes = []
    window_sums = stochastic._window_sums

    def counted(*args):
        passes.append(args[-2:])  # (first, last) after the bins and counts
        return window_sums(*args)

    monkeypatch.setattr(stochastic, "_window_sums", counted)
    rng = substream(78, 0, 0)
    duration_ps, gate = 1_000_000_000, 1000
    a, b = (EventStream(d, np.unique(rng.integers(0, duration_ps, 100_000)),
                        duration_ps, 78)
            for d in "AB")
    taus = np.arange(76) * 4 * gate
    curve = estimate_g2(a, b, taus, gate)
    assert passes == [(0, 300)] * -(-a.count // stochastic._SLICE)
    assert np.array_equal(curve.n_coincidence,
                          dense_coincidences(a.timestamps, b.timestamps, taus,
                                             gate, duration_ps))


# ---------------------------------------------------------------------------
# Physics of the simulated streams.

def test_thermal_splitter_g2_of_two():
    ok, detail = check_thermal_g2()
    assert ok, detail


def assert_bose_einstein(stream, tc, seed, trial=0):
    """Counts per coherence slot follow the geometric (Bose-Einstein) law.
    The slots are the run's own: the lattice offset u*tc is the first draw
    of the run's field stream (role 0)."""
    u = substream(seed, trial, 0).uniform()
    slots = np.floor(stream.timestamps / (tc * PS_PER_S) - u).astype(np.int64)
    # whole slots inside the run only
    n_slots = int(stream.duration_ps / (tc * PS_PER_S) - u)
    counts = np.bincount(slots[(slots >= 0) & (slots < n_slots)], minlength=n_slots)
    r = counts.mean() / (1.0 + counts.mean())
    expected = n_slots * (1 - r) * r ** np.arange(counts.max() + 1)
    assert pooled_chisquare(np.bincount(counts), expected, ddof=1) > 0.01


def pooled_chisquare(observed, expected, ddof=0):
    """Chi-square p-value of counts per outcome against the expected ones,
    the tail pooled so that expected counts stay above 5."""
    observed, expected = observed.astype(float), expected.astype(float)
    while expected[-1] < 5 and expected.size > 3:
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected, observed = expected[:-1], observed[:-1]
    expected *= observed.sum() / expected.sum()
    return chisquare(observed, expected, ddof=ddof).pvalue


def test_thermal_slot_counts_are_bose_einstein():
    tc = 10e-9
    beam = SourcePair("thermal", 2e7, 0.0, tc)
    det = DetectorSetting(None, efficiency=1.0)
    a, _ = quiet_simulate(beam, GEO, det, det, 2e-3, seed=404)
    assert_bose_einstein(a, tc, seed=404)


def gate_averaged_triangle(taus, gate, tc):
    """Mean of (1 - |tau + D|/tc)+ over the offset D of two events' places
    in their gate bins, triangular on [-gate, gate]."""
    d = np.linspace(-gate, gate, 4001)
    weight = gate - np.abs(d)
    triangle = np.clip(1.0 - np.abs(np.add.outer(taus, d)) / tc, 0.0, None)
    return triangle @ weight / weight.sum()


def test_thermal_splitter_g2_is_triangular():
    # one thermal beam on a splitter: two times share a slot with
    # probability (1 - |tau|/tc)+ over the slot position, and a shared slot
    # doubles the pair rate, so g2(tau) = 1 + (1 - |tau|/tc)+, not the
    # Lorentzian 1 + exp(-2|tau|/tc) (9% away at tc/4); the lattice has a
    # random offset, so the gate averages the triangle over the offset of
    # two events' places in their bins: 1 + 1 - w/(3*tc) at tau = 0, the
    # triangle itself at whole-gate offsets inside it
    tc, gate = 100e-9, 500
    beam = SourcePair("thermal", 4e7, 0.0, tc)
    det = DetectorSetting(None, efficiency=1.0)
    a, b = quiet_simulate(beam, GEO, det, det, 0.1, seed=1759)
    fractions = np.array([0.0, 0.25, 0.5, 1.0, 2.0])
    curve = estimate_g2(a, b, np.rint(fractions * tc * PS_PER_S), gate)
    law = 1.0 + gate_averaged_triangle(fractions * tc, gate / PS_PER_S, tc)
    # 5 standard errors: g2 / sqrt(n_coinc) is the Poisson error of g2
    assert np.all(np.abs(curve.values / law - 1.0) < 5.0 / np.sqrt(curve.n_coincidence))


def test_thermal_splitter_g2_is_gate_averaged_triangle():
    # a gate w <= tc straddles a slot edge with probability w/tc, at a
    # uniform place, and then splits a pair of its events across the edge
    # with mean probability 1/3, so the splitter's g2(0) is the triangle
    # averaged over the gate, 2 - w/(3*tc): 1.974 at criterion 08's 500 ps,
    # 1.843 at 3000 ps, where 2.0 is excluded
    tc, gate = 6366e-12, 3000
    beam = SourcePair("thermal", 2e7, 0.0, tc)
    det = DetectorSetting(None, efficiency=0.55)
    a, b = quiet_simulate(beam, GEO, det, det, 0.15, seed=7)
    curve = estimate_g2(a, b, [0], gate)
    g2, se = curve.values[0], curve.values[0] / math.sqrt(curve.n_coincidence[0])
    law = 2.0 - gate / (3.0 * tc * PS_PER_S)
    assert abs(g2 - law) < 5 * se
    assert abs(g2 - 2.0) > 5 * se


def test_thermal_splitter_g2_is_stationary_at_a_dividing_gate():
    # the slot lattice sits at a random offset, so a gate that divides tc
    # straddles slot edges like any other: at w = tc/4 the splitter reads
    # 2 - 1/12, not the 2 of gate bins nested in slots aligned to t = 0
    tc, gate, seeds = 20e-9, 5000, range(40)
    beam = SourcePair("thermal", 2e7, 0.0, tc)
    det = DetectorSetting(None, efficiency=1.0)
    g2 = [estimate_g2(*quiet_simulate(beam, GEO, det, det, 5e-3, seed=seed),
                      [0], gate).values[0]
          for seed in seeds]
    mean, se = np.mean(g2), np.std(g2, ddof=1) / math.sqrt(len(g2))
    assert abs(mean - (2 - 1 / 12)) < 5 * se
    assert abs(mean - 2) > 5 * se


def test_thermal_pair_g2_at_zero_delay():
    # two thermal sources beating at a detector: its rate is
    # b1*i1 + b2*i2 + s*sqrt(i1*i2)*cos(phase + o), s = 2*sqrt(b1*b2), with
    # i ~ Exp(1) and a uniform phase per slot.  Both events of a pair in one
    # gate bin share their slots with probability f = 1 - w/(3*tc), and over
    # i and the phase
    # g2(0) = 1 + f*(b1A*b1B + b2A*b2B + sA*sB*cos(oA - oB)/2) / (nA * nB)
    # with nA = b1A + b2A and nB = b1B + b2B, the singles rates
    tc, gate, rate, duration = 20e-9, 1000, 2e7, 0.05
    pair = SourcePair("thermal", rate, rate, tc)
    det = DetectorSetting(math.pi / 4, efficiency=1.0)
    a, b = quiet_simulate(pair, GEO, det, det, duration, seed=1913)
    terms = []
    for name in "AB":
        k1, k2, _ = detector_couplings(det, GEO)
        psi = GEO.path_phase(1, name) - GEO.path_phase(2, name)
        b1, b2 = abs(k1) ** 2 * rate / 2, abs(k2) ** 2 * rate / 2
        offset = np.angle(k1 * np.conj(k2) * np.exp(1j * psi))
        terms.append((b1, b2, 2 * math.sqrt(b1 * b2), offset))
    (b1a, b2a, sa, oa), (b1b, b2b, sb, ob) = terms
    excess = b1a * b1b + b2a * b2b + sa * sb * math.cos(oa - ob) / 2
    law = 1 + (1 - gate / (3 * tc * PS_PER_S)) * excess / ((b1a + b2a) * (b1b + b2b))
    curve = estimate_g2(a, b, [0], gate)
    assert abs(curve.values[0] / law - 1.0) < 5.0 / math.sqrt(curve.n_coincidence[0])
    for stream, (b1, b2, s, _) in zip((a, b), terms):
        # shot noise plus the variance of the integrated intensity
        mean = (b1 + b2) * duration
        assert abs(stream.count - mean) < 5 * math.sqrt(mean + duration * tc * (
            s ** 2 + b1 ** 2 + b2 ** 2))


def test_thermal_slot_field_across_batches():
    # a slot's intensities and phase are drawn once, and a batch returns
    # every candidate of the slots it draws, those past its end included,
    # so each slot's candidates come from exactly one call although batch
    # ends fall inside slots.  Over the slots with candidates,
    # the count is the sum of two independent geometric (Bose-Einstein)
    # counts of means a1 and a2, given that it is not zero; with the empty
    # slots' intensities drawn from their posterior Exp(1 + a_j), each
    # source's intensity follows the prior Exp(1), and the phase is uniform
    tc = 20e-9
    ends = np.arange(1, 2000) * 7.3 * tc
    pair = stochastic._ThermalPair(tc, 0.0, [(1e7, 0.6e7), (0.2e7, 0.5e7)],
                                   substream(8, 0, 0), ends[-1])
    drawn, counts, call_of, start = {}, {}, {}, 0.0
    for call, end in enumerate(ends):
        batch = pair.candidates(start, end)
        for (t, _), field in zip(batch, pair.field(batch)):
            for k, value in zip(np.floor(t / tc - pair.offset).astype(int), zip(*field)):
                assert drawn.setdefault(k, value) == value
                assert call_of.setdefault(k, call) == call
                counts[k] = counts.get(k, 0) + 1
        start = end
    # the slots wholly inside the run
    inside = [k for k in drawn if 0 <= k < pair.next_slot - 1]
    n = np.array([counts[k] for k in inside])
    (a1, a2), kmax = pair.a, n.max()
    geometric = [(1 - a / (1 + a)) * (a / (1 + a)) ** np.arange(kmax + 1) for a in (a1, a2)]
    law = np.convolve(*geometric)[:kmax + 1]
    assert pooled_chisquare(np.bincount(n)[1:], n.size * law[1:] / law[1:].sum()) > 0.01
    assert n.size > 4_000 and pair.next_slot - 1 > 14_000
    empty = pair.next_slot - 1 - n.size
    rng = np.random.default_rng(8)
    i1, i2, phase = np.array([drawn[k] for k in inside]).T
    for i, a in ((i1, a1), (i2, a2)):
        prior = np.concatenate((i, rng.exponential(1 / (1 + a), empty)))
        assert kstest(prior, "expon").pvalue > 0.01
    assert kstest(phase / (2 * math.pi), "uniform").pvalue > 0.01


def slot_counts(drawn, n_rows):
    """Per detector, its candidates in each table row of one batch, rows 1
    to n_rows - 2: the run's ends can cut the first and the last."""
    return [np.bincount(rows, minlength=n_rows)[1:n_rows - 1] for _, rows in drawn]


def test_thermal_slot_intensity_is_gamma_given_its_count():
    # a source's intensity in a slot where it puts n candidates is
    # Gamma(n + 1, rate 1 + a): n + 1 unit exponentials over 1 + a.  Source
    # 1 lights only detector A and source 2 only B, so each detector's
    # count in a slot is one source's n.  Six KS tests: each at p > 0.001
    tc = 20e-9
    pair = stochastic._ThermalPair(tc, 0.0, [(5e7, 0.0), (0.0, 3e7)], substream(31, 0, 0),
                                   20_000 * tc)
    drawn = pair.candidates(0.0, 20_000 * tc)
    n_rows = pair.table[0].size
    for n, a, intensity in zip(slot_counts(drawn, n_rows), pair.a, pair.table):
        scaled = (1.0 + a) * intensity[1:n_rows - 1]
        for k in (0, 1, 2):
            assert (n == k).sum() > 1_000
            assert kstest(scaled[n == k], "gamma", args=(k + 1,)).pvalue > 0.001


def test_thermal_candidate_detector_and_place():
    # one uniform u per candidate: detector A below the share w, so A's
    # count in a slot of n candidates is Binomial(n, w), and the candidate
    # sits at u/w (A) or (u - w)/(1 - w) (B) of its own slot: uniform there.
    # Five tests, each at p > 0.001
    tc, w = 20e-9, 0.3
    beam = stochastic._ThermalPair(tc, 0.0, [(1.5e7, 3.5e7), (0.0, 0.0)], substream(32, 0, 0),
                                   20_000 * tc)
    drawn = beam.candidates(0.0, 20_000 * tc)
    n_rows = beam.table[0].size
    count_a, count_b = slot_counts(drawn, n_rows)
    for k in (1, 2, 3):
        law = [math.comb(k, m) * w ** m * (1 - w) ** (k - m) for m in range(k + 1)]
        observed = np.bincount(count_a[count_a + count_b == k], minlength=k + 1)
        assert pooled_chisquare(observed, observed.sum() * np.array(law)) > 0.001
    places = []
    for t, rows in drawn:
        inner = (rows > 0) & (rows < n_rows - 1)
        x = t[inner] / tc - beam.offset
        assert kstest(x % 1.0, "uniform").pvalue > 0.001
        places.append((rows[inner], np.floor(x)))
    # the candidates of one table row lie in one slot, and rows in distinct slots
    rows, slots = map(np.concatenate, zip(*places))
    distinct = np.unique(np.stack((rows, slots)), axis=1).shape[1]
    assert distinct == np.unique(rows).size == np.unique(slots).size


def test_thermal_rows_are_int32_and_ascend_within_each_source(monkeypatch):
    # what the digests do not see: every table row candidates returns is
    # int32, so field indexes the table without copying the rows, and each
    # source's candidates come slot by slot, in ascending rows, so field
    # reads the table in order; at a first batch, which holds slot -1, and
    # at the middle batch of three
    tc = 20e-9
    pair = stochastic._ThermalPair(tc, 0.0, [(4e8, 1e8), (1e8, 3e8)], substream(33, 0, 0),
                                   3_000 * tc)
    blocks, source = [], stochastic._ThermalPair._source

    def spy(self, *args):
        intensity, by_det = source(self, *args)
        blocks.extend(rows for _, rows in by_det)
        return intensity, by_det

    monkeypatch.setattr(stochastic._ThermalPair, "_source", spy)
    for end in np.array([1_000, 2_000]) * tc:
        first = pair.next_slot
        blocks.clear()
        drawn = pair.candidates(end - 1_000 * tc, end)
        assert len(blocks) == 4 and sum(rows.size for rows in blocks) > 4_000
        for rows in blocks:
            assert rows.dtype == np.int32 and np.all(np.diff(rows) >= 0)
        for t, rows in drawn:
            assert rows.dtype == np.int32 and rows.size == t.size
        if first < 0:
            # slot -1 holds row 0, and its candidates from 0 on are drawn
            t, rows = drawn[0]
            assert np.any((rows == 0) & (t < pair.offset * tc))


def test_batches_keep_the_laws(monkeypatch):
    # a few hundred expected candidates per batch, so every run below
    # crosses many batch ends, most of them inside a coherence slot
    monkeypatch.setattr(stochastic, "_CHUNK", 333)
    rate = 0.7 * 2e7 / 2
    laser = SourcePair("coherent", 2e7, 0.0, 318e-9)
    det = DetectorSetting(None, efficiency=0.7)
    for s in simulate_events(laser, GEO, det, det, 2e-3, seed=22):
        assert abs(s.count - rate * 2e-3) < 5 * math.sqrt(rate * 2e-3)
        gaps = np.diff(s.timestamps) / PS_PER_S
        assert kstest(gaps, "expon", args=(0.0, 1.0 / rate)).pvalue > 0.01

    det = DetectorSetting(None, efficiency=1.0)
    for tc in (10e-9, 1e-6):
        # at 1 us, each slot spans several batches
        monkeypatch.setattr(stochastic, "_CHUNK", 333 if tc < 1e-6 else 7)
        beam = SourcePair("thermal", 2e7, 0.0, tc)
        streams = quiet_simulate(beam, GEO, det, det, 2e-3, seed=405)
        for s in streams:
            mean = 1e7 * 2e-3
            assert abs(s.count - mean) < 5 * math.sqrt(mean + 1e14 * tc * 2e-3)
            assert_bose_einstein(s, tc, seed=405)


def traced_run(name, duration):
    """(candidates, tracemalloc's peak, bytes of the timestamps kept) of one
    simulate_events call of a pinned setup over `duration`, after an
    untraced call of the same run that counts the candidates."""
    pair, det_a, det_b, (geometry, _, seed, trial) = pinned_setups()[name]
    sizes, thin = [], stochastic._thin
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stochastic, "_thin",
                      lambda rng, *terms: sizes.append(terms[-1].size) or thin(rng, *terms))
        quiet_simulate(pair, geometry, det_a, det_b, duration, seed=seed, trial=trial)
    tracemalloc.start()
    try:
        a, b = quiet_simulate(pair, geometry, det_a, det_b, duration, seed=seed, trial=trial)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return sum(sizes), peak, a.timestamps.nbytes + b.timestamps.nbytes


@pytest.mark.parametrize("name, duration", [("gate_study_pair", 1e-2), ("laser_pair", 2e-3)])
def test_each_batch_goes_before_the_next(monkeypatch, name, duration):
    # a run's memory is one batch's however many it draws: the traced peak
    # of 1, 2 and 4 equal batches, less the timestamps each run keeps,
    # stays within 1.1 times one batch's
    n, _, _ = traced_run(name, duration)
    monkeypatch.setattr(stochastic, "_CHUNK", 1.15 * n)  # k batches over k * duration
    one, two, four = (peak - kept for _, peak, kept in
                      (traced_run(name, k * duration) for k in (1, 2, 4)))
    assert max(two, four) <= 1.1 * one


def test_thermal_batch_peaks_below_48_bytes_per_candidate():
    # one batch at the gate study's 10 ms point, of about 78k candidates in
    # 69k slots: its traced peak, kept timestamps included
    n, peak, _ = traced_run("gate_study_pair", 1e-2)
    assert n > 70_000 and peak <= 48 * n


def test_thinning_invariance():
    # efficiency scales the rate and its bound alike: singles scale by eta
    # and the distribution of g2(0) over seeds does not move
    pair = coherent_pair(rate=3e7, tc=100e-9)
    singles, g2 = {}, {}
    for eta, seed0 in ((0.6, 0), (1.0, 1000)):
        det = DetectorSetting(math.pi / 4, efficiency=eta)
        singles[eta], g2[eta] = 0, []
        for seed in range(seed0, seed0 + 40):
            a, b = quiet_simulate(pair, GEO, det, det, 2e-3, seed=seed)
            singles[eta] += a.count + b.count
            g2[eta].append(estimate_g2(a, b, [0], 1000).values[0])
    # 80 streams of ~3e4 counts, super-Poissonian by the beat: the ratio's
    # standard error is about 0.15%
    assert abs(singles[0.6] / singles[1.0] / 0.6 - 1.0) < 0.01
    _, p = ks_2samp(g2[0.6], g2[1.0])
    assert p > 0.01


def test_constant_rate_interarrivals_are_exponential():
    # one laser seen without conversion has a constant rate, so thinning
    # keeps every candidate and arrivals form a homogeneous Poisson process:
    # exponential gaps, and arrival times uniform over the run
    eta = 0.7
    beam = SourcePair("coherent", 2e7, 0.0, 318e-9)
    det = DetectorSetting(None, efficiency=eta)
    a, b = simulate_events(beam, GEO, det, det, 2e-3, seed=21)
    rate = eta * 2e7 / 2
    for s in (a, b):
        gaps = np.diff(s.timestamps) / PS_PER_S
        assert gaps.size > 10_000
        assert kstest(gaps, "expon", args=(0.0, 1.0 / rate)).pvalue > 0.01
        assert kstest(s.timestamps / s.duration_ps, "uniform").pvalue > 0.01


@settings(deadline=None, max_examples=40, derandomize=True)
@given(st.floats(0.0, math.pi / 2), st.floats(0.0, 2 * math.pi),
       st.floats(0.0, 2 * math.pi), st.floats(0.0, 1.0),
       st.floats(0.0, 3e-6), st.sampled_from(["coherent", "thermal"]),
       st.booleans(), st.integers(0, 2 ** 32))
def test_thinning_rate_within_bound(theta, phase_a, phase_b, v_deg, delay,
                                    kind, standard, seed):
    # by AM-GM the rate never exceeds its bound and is never negative for
    # v_deg <= 1, so simulate_events never raises; each detector counts its
    # mean rate within 5 sigma, with the variance of the integrated
    # intensity added to the shot noise.  The detectors' efficiencies
    # differ, so a thermal term splits unevenly between them.
    duration, rate = 1e-3, 2e7
    tc = 50e-9 if kind == "coherent" else 5e-9
    pair = SourcePair(kind, rate, rate, tc, 10e6)
    # standard: no conversion stage, so two distinct colors do not beat
    dets = [DetectorSetting(None if standard else theta, phase, output_filter=1,
                            efficiency=eff, visibility_degradation=v_deg)
            for phase, eff in ((phase_a, 0.5), (phase_b, 0.3))]
    streams = simulate_events(pair, GEO.with_delay(delay), *dets, duration, seed)
    for stream, det in zip(streams, dets):
        k1, k2, beats = detector_couplings(det, GEO)
        b = [det.efficiency * abs(k) ** 2 * rate / 2 for k in (k1, k2)]
        cross2 = v_deg * b[0] * b[1] if beats else 0.0
        mean = sum(b) * duration
        # a thermal term varies slot by slot; the beat decorrelates within
        # the coherence time
        excess = duration * tc * (4 * cross2 + (sum(bj ** 2 for bj in b)
                                                if kind == "thermal" else 0.0))
        assert abs(stream.count - mean) <= 5 * math.sqrt(mean + excess)


class FixedUniforms:
    """Stands in for a detector's Generator: random(n) hands out the given
    uniforms."""

    def __init__(self, u):
        self.u = u

    def random(self, n):
        assert n == self.u.size
        return self.u.copy()


@settings(deadline=None, max_examples=60, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.booleans(), st.sampled_from([0.0, 0.3, 1.0]),
       st.floats(1e-3, 1e9))
@example(seed=0, per_candidate=False, v=0.0, scale=1.0)
def test_squeeze_keeps_every_float64_decision(seed, per_candidate, v, scale):
    # the candidates _thin keeps are those of the float64 rule
    # u*bound < base + k*np.cos(theta), for one rate per candidate (a
    # thermal pair's intensities) or one scalar rate (a laser pair's), with
    # k = 0 among them; a third of the u put u*bound within 1e-12 of the
    # float64 rate, or on it, where only the float64 cosine can decide
    rng = np.random.default_rng(seed)
    n = 3000
    b1, b2 = rng.uniform(0.1, 2.0, 2) * scale
    swing = v * 2.0 * math.sqrt(b1 * b2)
    j1, j2 = rng.standard_exponential((2, n)) if per_candidate else (1.0, 1.0)
    base = b1 * j1 + b2 * j2
    bound = base + swing * (j1 + j2) / 2.0
    k = swing * np.sqrt(j1 * j2)
    theta = rng.uniform(-1e9, 1e9, n)
    theta[:n // 3] = rng.uniform(-10.0, 10.0, n // 3)
    rate = base + k * np.cos(theta)
    u = rng.random(n)
    near = rng.random(n) < 1 / 3
    u[near] = np.clip(np.broadcast_to(rate / bound, (n,))[near]
                      * (1.0 + rng.uniform(-1e-12, 1e-12, np.count_nonzero(near))
                         * rng.integers(0, 2, np.count_nonzero(near))), 0.0, 1.0 - 2 ** -53)
    expected = np.flatnonzero(u * bound < rate)
    kept = stochastic._thin(FixedUniforms(u), bound, base, k, theta)
    assert np.array_equal(kept, expected)


@pytest.mark.parametrize("per_candidate", [True, False], ids=["thermal", "laser"])
@pytest.mark.parametrize("v", [0.0, 0.37, 1.0])
def test_thinning_terms_are_the_straight_line_float64_terms(per_candidate, v):
    # bound, base, k and theta bit for bit as the rate terms read, in this
    # order of operations, for per-candidate intensities (a thermal pair's)
    # and unit ones (a laser pair's), with a swing of 0, below 2*sqrt(b1*b2)
    # and exactly at it
    rng = np.random.default_rng(35)
    for b1, b2 in 10.0 ** rng.uniform(-3.0, 9.0, (40, 2)):
        swing = v * (2.0 * math.sqrt(b1 * b2))
        j1, j2 = rng.standard_exponential((2, 500)) if per_candidate else (1.0, 1.0)
        beat = rng.uniform(-1e9, 1e9, 500)
        offset = rng.uniform(-10.0, 10.0)
        expected = (b1 * j1 + b2 * j2 + swing * (j1 + j2) / 2, b1 * j1 + b2 * j2,
                    swing * np.sqrt(j1 * j2), beat + offset)
        fields = [(j1.copy(), j2.copy(), beat.copy()) if per_candidate else (j1, j2, beat.copy())]
        terms = stochastic._thinning_terms((b1, b2, swing, offset), fields, 0)
        assert fields == [None]
        for got, want in zip(terms, expected):
            assert np.asarray(got, float).tobytes() == np.asarray(want, float).tobytes()


def test_float32_cosine_is_within_a_quarter_of_the_margin():
    # the gap between the float32 and the float64 cosine over 10**7 phases
    # in [-1e9, 1e9], and over 10**6 of magnitude up to 1e13, where the
    # reduction's error outgrows the float32 terms, stays under a quarter of
    # _squeeze_margin per unit of k
    rng = np.random.default_rng(2024)
    worst = 0.0
    for chunk in range(11):
        if chunk < 10:
            theta = rng.uniform(-1e9, 1e9, 10 ** 6)
        else:
            theta = 10.0 ** rng.uniform(0.0, 13.0, 10 ** 6) * rng.choice([-1.0, 1.0], 10 ** 6)
        gap = np.abs(stochastic._cos32(theta) - np.cos(theta))
        worst = max(worst, float(np.max(gap / stochastic._squeeze_margin(1.0, np.abs(theta), 0.0))))
    assert worst < 0.25


@pytest.mark.parametrize("kind, duration", [
    ("coherent", 1e-4), ("thermal", 1e-4), ("coherent", 1e-12), ("thermal", 1e-12)],
    ids=["coherent", "thermal", "coherent-no-candidate", "thermal-no-candidate"])
def test_rate_below_zero_raises(monkeypatch, kind, duration):
    # a swing above 2*sqrt(b1*b2), as a visibility degradation above 1
    # would give, takes the rate below zero at some phase: each detector's
    # terms are checked once, so a run too short for any candidate raises too
    def too_strong(*args):
        b1, b2, _, offset = detector_rates(*args)
        return b1, b2, 2.5 * math.sqrt(b1 * b2), offset

    monkeypatch.setattr(stochastic, "detector_rates", too_strong)
    det = DetectorSetting(math.pi / 4)
    with pytest.raises(RuntimeError, match="outside"):
        quiet_simulate(SourcePair(kind, 2e7, 2e7, 20e-9), GEO, det, det, duration, seed=3)


def test_g2_decorrelates_beyond_coherence_time():
    tc = 50e-9
    det = DetectorSetting(math.pi / 4)
    a, b = simulate_events(coherent_pair(rate=4e7, tc=tc), GEO, det, det, 0.05, seed=2718)
    curve = estimate_g2(a, b, [0, int(tc * 1e12), int(20 * tc * 1e12)], 1000)
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


@pytest.mark.parametrize("level", [0.0, 1.0, 0.3])
def test_flat_curve_has_no_fringe(level):
    # g2 at one value on every point, as a run too short for a coincidence
    # leaves it at 0: no power lies outside DC, so there is no peak to
    # report and no period to fit (0.3: the mean is not exact in floats)
    xs = np.linspace(0, 10 * LAM3, 36, endpoint=False)
    values = np.full(36, level)
    assert math.isnan(fringe_fft(xs, values)[2])
    assert all(math.isnan(v) for v in fit_fringe_free_period(xs, values))


def test_fringe_fft_rejections():
    with pytest.raises(ValueError):
        fringe_fft(np.linspace(0, 1, 8), np.ones(8))
    bad = np.concatenate([np.linspace(0, 1, 10), [2.5, 2.6, 2.7, 2.8, 2.9, 3.5]])
    with pytest.raises(ValueError):
        fringe_fft(bad, np.ones(16))
    with pytest.raises(ValueError):
        fit_fringe_free_period(bad, np.ones(16))


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


@pytest.mark.parametrize("n", [16, 24])
def test_fit_fringe_free_period_at_nyquist(n):
    # a fringe of two points per period puts the Fourier peak in the last
    # rfft bin, so the search has only the bin below it for a neighbour
    xs = 0.5e-3 * np.arange(n)
    _, amp, period, _ = fit_fringe_free_period(xs, 1.0 + 0.3 * (-1.0) ** np.arange(n))
    assert period == pytest.approx(1e-3, rel=1e-6)
    assert amp == pytest.approx(0.3, abs=1e-9)


def test_fit_g2_envelope_recovers_decay():
    taus = np.arange(0, 300e-9, 4e-9)
    values = 1.0 + 0.5 * np.exp(-taus / 100e-9) * np.cos(2 * math.pi * 25e6 * taus)
    amp, decay, _, at_bound = fit_g2_envelope(taus, values, 25e6)
    assert amp == pytest.approx(0.5, abs=1e-6)
    assert decay == pytest.approx(100e-9, rel=1e-6)
    assert not at_bound


def test_fit_g2_envelope_reports_each_bound():
    # an undamped beat has no decay to fit, so the decay ends on its upper
    # bound (1e3 tau spans), and a swing of 2.5 lies beyond the largest
    # amplitude the fit allows (2): at_bound says so in both
    taus = np.arange(0, 300e-9, 4e-9)
    beat = np.cos(2 * math.pi * 25e6 * taus)
    _, decay, _, at_bound = fit_g2_envelope(taus, 1.0 + 0.5 * beat, 25e6)
    assert decay == pytest.approx(1e3 * (taus[-1] - taus[0])) and at_bound
    amp, _, _, at_bound = fit_g2_envelope(taus, 1.0 + 2.5 * np.exp(-taus / 100e-9) * beat,
                                          25e6)
    assert amp == pytest.approx(2.0) and at_bound


def test_fit_g2_envelope_seeds_inside_its_bounds():
    # a short run's zero-delay bin can read g2 above 3, beyond the largest
    # amplitude the fit allows (2): the fit stays inside its bounds
    taus = np.arange(0, 300e-9, 4e-9)
    values = 1.0 + 0.5 * np.exp(-taus / 100e-9) * np.cos(2 * math.pi * 25e6 * taus)
    values[0] = 3.3
    amp, decay, phase, _ = fit_g2_envelope(taus, values, 25e6)
    assert 0.0 <= amp <= 2.0 and 0.0 < decay and abs(phase) <= math.pi


def fringe_model(x, off, amp, period, phi):
    return off + amp * np.cos(2 * math.pi * x / period + phi)


def envelope_model(taus, beat_hz, amp, decay, phi):
    return 1.0 + amp * np.exp(-taus / decay) * np.cos(2 * math.pi * beat_hz * taus + phi)


@pytest.mark.parametrize("seed", range(4))
def test_fit_fringe_free_period_matches_curve_fit(seed):
    # reference: scipy's curve_fit from the Fourier peak's period
    xs = np.linspace(0, 12e-3, 48)
    values = (fringe_model(xs, 1.0, 0.45, 3.55e-3, 0.2)
              + 0.05 * np.random.default_rng(seed).normal(size=xs.size))
    spectrum = np.abs(np.fft.rfft(values - values.mean()))
    period0 = 1.0 / np.fft.rfftfreq(xs.size, d=xs[1] - xs[0])[1 + np.argmax(spectrum[1:])]
    p0 = (values.mean(), values.std() * math.sqrt(2.0), period0, 0.0)
    reference, _ = curve_fit(fringe_model, xs, values, p0=p0, maxfev=20000)
    rss = [np.sum((fringe_model(xs, *p) - values) ** 2)
           for p in (fit_fringe_free_period(xs, values), reference)]
    assert rss[0] <= rss[1] * (1 + 1e-12)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("amp, decay, at_bound", [(0.5, 100e-9, False),  # inside
                                                  (2.5, 100e-9, True),  # a beyond 2
                                                  # no decay: noise decides
                                                  (0.5, math.inf, None)])
def test_fit_g2_envelope_matches_bounded_least_squares(seed, amp, decay, at_bound):
    # reference: scipy's bounded least_squares on (a, t, phi), seeded inside
    # its bounds from the curve's peak
    taus = np.arange(0, 300e-9, 4e-9)
    values = (envelope_model(taus, 25e6, amp, decay, 0.3)
              + 0.05 * np.random.default_rng(seed).normal(size=taus.size))
    span = taus[-1] - taus[0]
    bounds = ([0.0, span * 1e-3, -math.pi], [2.0, span * 1e3, math.pi])
    p0 = np.clip((max(values.max() - 1.0, 0.1), span / 3.0, 0.0), *bounds)
    reference = least_squares(lambda p: envelope_model(taus, 25e6, *p) - values, p0,
                              bounds=bounds, max_nfev=20000)
    *fit, bound = fit_g2_envelope(taus, values, 25e6)
    rss = np.sum((envelope_model(taus, 25e6, *fit) - values) ** 2)
    assert rss <= np.sum(reference.fun ** 2) * (1 + 1e-12)
    assert at_bound is None or bound is at_bound


@pytest.mark.parametrize("decay", [math.inf, 100e-9, 3e-6])
def test_fit_g2_envelope_ends_on_the_decay_bound_where_the_sum_falls_to_it(decay):
    # at the upper decay bound T (1e3 tau spans) and the best a*cos(phi),
    # a*sin(phi) there, the residual sum's slope in log t is
    # 2 sum r*(tau/T)*(model - 1), as d/dlog t exp(-tau/t) = (tau/t) exp(-tau/t):
    # where it is negative the sum still falls toward T, so the fit ends on T
    # and says so, however flat the sum is; elsewhere the decay is fitted
    taus = np.arange(0, 300e-9, 4e-9)
    top = 1e3 * (taus[-1] - taus[0])
    beat = 2 * math.pi * 25e6 * taus
    design = np.exp(-taus / top)[:, None] * np.column_stack([np.cos(beat), -np.sin(beat)])
    for seed in range(200):
        values = (envelope_model(taus, 25e6, 0.5, decay, 0.3)
                  + 0.05 * np.random.default_rng(seed).normal(size=taus.size))
        coef = np.linalg.lstsq(design, values - 1.0, rcond=None)[0]
        assert math.hypot(*coef) < 2.0  # inside the amplitude bound
        model = 1.0 + design @ coef
        falls = bool(np.sum((model - values) * taus * (model - 1.0)) < 0)
        assert fit_g2_envelope(taus, values, 25e6)[3] is falls, seed


# ---------------------------------------------------------------------------
# The gate-time study's statistics.

def gate_study_with_visibilities(monkeypatch, tmp_path, visibilities):
    """The gate-time study's rows at one gate, one trial per entry of
    `visibilities`, each trial's fitted visibility taken from it and no
    photons simulated."""
    monkeypatch.setattr(stochastic, "simulate_events", lambda *a, **k: (None, None))
    monkeypatch.setattr(stochastic, "estimate_g2",
                        lambda *a, **k: G2Curve([0], [1.0], 1000, [0], 0, 0, 0))
    fitted = iter(visibilities)
    monkeypatch.setattr(scenarios, "fitted_visibility", lambda *a: next(fitted))
    cfg = apply_overrides(default_config("gate_time_study"),
                          ["delay_points=4", "gates_ps=1000",
                           f"gate_trials={len(visibilities)}"])
    return scenarios._run_gate_time(cfg, tmp_path)["rows"]


def test_gate_time_ci95_is_student_t(monkeypatch, tmp_path):
    vis = [0.40, 0.55, 0.47, 0.61]
    (row,) = gate_study_with_visibilities(monkeypatch, tmp_path, vis)
    half = row["ci95"] / (np.std(vis, ddof=1) / math.sqrt(4))
    # the 97.5% quantile of Student's t with 3 degrees of freedom (tables:
    # 3.182446305284263), bit for bit the package's own quantile
    assert half == pytest.approx(3.182446305284263, rel=1e-12)
    assert row["ci95"] == (scenarios._t_quantile(0.975, 3) * np.std(vis, ddof=1)
                           / math.sqrt(4))
    assert row["visibility"] == np.mean(vis) and row["trials"] == vis


# Student's t 97.5% quantiles, solved at 40 significant digits and given to
# 25: the root of the two-sided tail I_(nu/(nu+t^2))(nu/2, 1/2) = 0.05, a
# regularized incomplete beta function (mpmath 1.3.0)
T_975 = {
    1: "12.70620473617470464602168", 2: "4.302652729749463852320944",
    3: "3.182446305283709592723225", 4: "2.776445105197794357803105",
    5: "2.570581835636315514696246", 6: "2.446911851144969971071297",
    7: "2.364624251592785341680901", 8: "2.306004135204166683295121",
    9: "2.26215716279820554260777", 10: "2.228138851986274748395491",
    11: "2.2009851600916398678772", 12: "2.178812829667228866326344",
    13: "2.160368656462792501530678", 14: "2.144786687917803828671412",
    15: "2.131449545559775682145073", 16: "2.119905299221254674455701",
    17: "2.109815577833317085929555", 18: "2.100922040241038488060872",
    19: "2.093024054408309769177315", 20: "2.085963447265864842717361",
    21: "2.079613844727680395121662", 22: "2.073873067904026165846478",
    23: "2.068657610419048651508525", 24: "2.063898561628025849245784",
    25: "2.059538552753297748892909", 26: "2.055529438642873213542017",
    27: "2.051830516480285556152091", 28: "2.048407141795245159893884",
    29: "2.045229642132704298193772", 30: "2.042272456301238309958042",
    60: "2.000297822014260504503473", 100: "1.983971518523552286595185",
    200: "1.971896223633909382225052",
}


@pytest.mark.parametrize("nu", sorted(T_975))
def test_t_quantile_matches_40_digit_values(nu):
    assert scenarios._t_quantile(0.975, nu) == pytest.approx(float(T_975[nu]), rel=1e-14)


# ---------------------------------------------------------------------------
# Text formats.

def test_g2_csv_format(tmp_path):
    curve = G2Curve([0, 1000], [1.5, float("nan")], 500, [30, 0], 100, 200, 4000)
    path = tmp_path / "g2.csv"
    _write_g2_csv(path, curve)
    lines = path.read_text().splitlines()
    assert lines[0] == "tau_ps,g2,n_coincidence,n_A,n_B,n_bin"
    assert lines[1] == "0,1.5,30,100,200,4000"
    assert lines[2].startswith("1000,nan,0")
