"""Monte Carlo photon event generation and coincidence analysis.

Semiclassical model: each source carries a stochastic complex field envelope
(modulus 1 and a random-walking phase for a laser, one complex Gaussian
amplitude per coherence slot for a thermally populated mode), detectors see
the interfering intensity through the color-erasure couplings, and photon
arrivals are the inhomogeneous Poisson process with that intensity as rate.
They are drawn exactly, in continuous time, by thinning (Lewis & Shedler,
Naval Res. Logist. Q. 26, 403 (1979)): the envelope moduli are constant on
pieces (the whole run, or one coherence slot), so candidates are drawn at a
constant bound per piece, the envelopes are evaluated at the candidate
times (exact Wiener increments in between), and each candidate is kept with
probability rate/bound.  The cost follows the candidates, not a time grid.

Randomness is drawn from named Philox counter streams keyed as
(seed, trial*8 + role) with roles: 0/1 source-1/2 envelope, 2/3 detector
A/B candidates (count, placement and acceptance), 4/5 detector A/B dark
counts.  Identical (config, seed, trial) input therefore reproduces
bit-identical event streams.

Timestamps are integer picoseconds; simultaneous arrivals within 1 ps
collapse to a single count (detector dead-time proxy).

Coincidences are counted over gate bins.  With c_A[k] and c_B[k] the events
each detector recorded in bin k, n_coinc(tau) = sum_k c_A[k] * c_B[k + o],
o = round(tau / gate), counts every pair of events, so
g2 = n_coinc * n_bin / (n_A * n_B) is unbiased for independent Poisson
streams at any occupancy (pair counting over sorted time tags: Laurence,
Fore & Huser, Opt. Lett. 31, 829 (2006); Wahl et al., Opt. Express 11, 3583
(2003)).  Every requested offset comes out of one walk over the sparse,
sorted bin counts.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox
from scipy.optimize import curve_fit
from scipy.stats import t as student_t

from .erasure import DetectorSetting
from .interferometry import InterferometerGeometry, detector_couplings

PS_PER_S = 1_000_000_000_000
_CHUNK = 1 << 20  # coherence slots per batch: bounds the thermal slot loop's memory


def substream(seed: int, trial: int, role: int) -> Generator:
    """Philox counter stream for one (trial, role) pair under a master seed."""
    if not 0 <= role < 6:
        raise ValueError("role must be in 0..5")
    key = [np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64((trial << 3) | role)]
    return Generator(Philox(key=key))


@dataclass(frozen=True)
class ThermalFieldModel:
    """Stochastic field envelope of one source.

    mode "coherent" is a constant-intensity field whose phase random-walks
    with the configured coherence time (Lorentzian line, linewidth
    1/(pi*coherence_time)); mode "thermal" draws an independent complex
    Gaussian amplitude for each coherence slot [k*tc, (k+1)*tc), so slot
    intensities are exponential (Bose-Einstein counts per slot).
    carrier_offset_hz shifts the field frequency; the offset difference of a
    source pair sets the beat rate seen in g2(tau).
    """

    mean_rate: float
    coherence_time: float
    mode: str = "coherent"
    carrier_offset_hz: float = 0.0

    def __post_init__(self):
        if self.mean_rate <= 0:
            raise ValueError("mean_rate must be positive")
        if self.coherence_time <= 0:
            raise ValueError("coherence_time must be positive")
        if self.mode not in ("coherent", "thermal"):
            raise ValueError("mode must be 'coherent' or 'thermal'")

    @property
    def linewidth(self) -> float:
        return 1.0 / (math.pi * self.coherence_time)


@dataclass(frozen=True)
class EventStream:
    """Timestamped detections of one detector over [0, duration_ps)."""

    detector_id: str
    timestamps: np.ndarray
    duration_ps: int
    rng_seed: int

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=np.int64)
        object.__setattr__(self, "timestamps", ts)
        if ts.size:
            if ts[0] < 0 or ts[-1] >= self.duration_ps:
                raise ValueError("timestamps must lie in [0, duration_ps)")
            if np.any(np.diff(ts) <= 0):
                raise ValueError("timestamps must be strictly increasing")

    @property
    def count(self) -> int:
        return int(self.timestamps.size)


@dataclass(frozen=True)
class G2Curve:
    """Binned second-order coherence estimates over a set of offsets."""

    taus_ps: np.ndarray
    values: np.ndarray
    gate_ps: int
    n_coincidence: np.ndarray
    n_a: int
    n_b: int
    n_bin: int

    def __post_init__(self):
        object.__setattr__(self, "taus_ps", np.asarray(self.taus_ps, dtype=np.int64))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        object.__setattr__(self, "n_coincidence",
                           np.asarray(self.n_coincidence, dtype=np.int64))
        finite = self.values[np.isfinite(self.values)]
        if np.any(finite < 0):
            raise ValueError("g2 values must be nonnegative")


class _Envelope:
    """Field envelope of one source, drawn forward in time from its stream.

    A laser: modulus 1, phase random-walking with Wiener increments of
    variance dt/coherence_time, plus the carrier.  A thermal source: one
    complex Gaussian amplitude (exponential intensity, uniform phase) per
    slot [k*tc, (k+1)*tc), times the carrier.
    """

    def __init__(self, source: ThermalFieldModel, rng: Generator):
        self.source, self.rng = source, rng
        self.time, self.phase = 0.0, float(rng.uniform(0.0, 2.0 * math.pi))
        # intensity and phase of slot next_slot - 1 (a stand-in before slot 0)
        self.next_slot, self.held = 0, np.zeros((2, 1))

    def slots(self, edges: np.ndarray) -> np.ndarray:
        """Intensity and phase of the amplitude on each piece between the
        sorted edges."""
        if self.source.mode == "coherent":
            return np.stack((np.ones(edges.size - 1), np.zeros(edges.size - 1)))
        mids = 0.5 * (edges[:-1] + edges[1:])
        # column c of the table is slot next_slot - 1 + c
        cols = np.floor(mids / self.source.coherence_time).astype(np.int64)
        cols -= self.next_slot - 1
        fresh = int(cols[-1])
        table = np.hstack((self.held, [self.rng.standard_exponential(fresh),
                                       self.rng.uniform(0.0, 2.0 * math.pi, fresh)]))
        self.next_slot += fresh
        self.held = table[:, -1:].copy()
        return np.take(table, cols, axis=1)

    def phases(self, times: np.ndarray) -> np.ndarray:
        """Phase on top of the slot amplitude at each of the sorted times."""
        carrier = 2.0 * math.pi * self.source.carrier_offset_hz
        if self.source.mode == "thermal":
            return carrier * times
        steps = np.diff(times, prepend=self.time)
        phases = carrier * steps
        steps /= self.source.coherence_time
        phases += np.sqrt(steps, out=steps) * self.rng.standard_normal(times.size)
        np.cumsum(phases, out=phases)
        phases += self.phase
        if times.size:
            self.time, self.phase = times[-1], phases[-1]
        return phases


def _pieces(slot_lengths: list[float], duration: float):
    """Edges of the pieces of [0, duration) on which every envelope modulus
    is constant (the whole run without thermal sources), in batches of at
    most _CHUNK of the shortest slots."""
    tc = slot_lengths[0] if slot_lengths else duration
    n_slots = math.ceil(duration / tc)
    for k0 in range(0, n_slots, _CHUNK):
        edges = np.arange(k0, min(k0 + _CHUNK, n_slots) + 1) * tc
        for other in slot_lengths[1:]:
            edges = np.union1d(edges, np.arange(math.floor(edges[0] / other) + 1,
                                                math.ceil(edges[-1] / other)) * other)
        yield np.minimum(edges, duration)  # pieces past the end are empty


def _poisson_points(rng: Generator, rate: np.ndarray, edges: np.ndarray):
    """Sorted points of a Poisson process of rate[j] on [edges[j], edges[j+1]),
    and the piece j of each: sorted uniform points over the total expected
    count, mapped back into the pieces through the cumulative count."""
    lengths = np.diff(edges)
    expected = rate * lengths
    cumulative = np.concatenate(([0.0], np.cumsum(expected)))
    x = np.sort(rng.uniform(size=rng.poisson(cumulative[-1]))) * cumulative[-1]
    piece = np.searchsorted(cumulative, x, side="right") - 1
    x -= cumulative[piece]
    x /= expected[piece]
    # x < 1 but for rounding; clipping keeps every point inside its piece
    return edges[piece] + np.minimum(x, 1.0, out=x) * lengths[piece], piece


def simulate_events(source1: ThermalFieldModel, source2: ThermalFieldModel | None,
                    geometry: InterferometerGeometry,
                    det_a: DetectorSetting, det_b: DetectorSetting,
                    duration: float, seed: int, trial: int = 0,
                    standard_detection: bool = False
                    ) -> tuple[EventStream, EventStream]:
    """Generate one event stream per detector for the configured setup.

    The detection rate of each detector is the semiclassical intensity of
    the two interfering source fields through the detector couplings,
    scaled by its efficiency; its interference part carries sqrt(v_deg)
    per detector so a matched pair degrades the coincidence fringe by v_deg
    exactly once.  With standard_detection the conversion stage is bypassed
    and the two colors beat only if their wavelengths coincide.

    Arrivals are drawn by thinning (see the module docstring): on each piece
    where the envelope moduli m1, m2 are constant, the rate
    b1*m1^2 + b2*m2^2 + 2*m1*m2*Re(c*exp(i*(phi1 - phi2))) is bounded by
    b1*m1^2 + b2*m2^2 + 2*|c|*m1*m2.  A rate outside [0, bound] raises
    RuntimeError.  Dark counts are merged in from their own streams.
    """
    sources = [source1] + ([source2] if source2 is not None else [])
    if duration < 100.0 * max(s.coherence_time for s in sources):
        warnings.warn(f"duration {duration:g}s is under 100 coherence times; "
                      "estimates may be statistically unstable", stacklevel=2)
    duration_ps = int(round(duration * PS_PER_S))

    w1 = source1.mean_rate / 2.0
    w2 = source2.mean_rate / 2.0 if source2 else 0.0
    same_wavelength = abs(geometry.lambda1 - geometry.lambda2) <= 1e-12 * geometry.lambda1

    # per detector: b1, b2, the swing 2|c| and arg(c), efficiency folded in
    det_consts = []
    for det, name in ((det_a, "A"), (det_b, "B")):
        if standard_detection:
            # no conversion stage: colors beat only when degenerate
            k1 = k2 = 1.0 + 0.0j
            mix = same_wavelength and source2 is not None
        else:
            k1, k2 = detector_couplings(det)
            mix = source2 is not None
        psi = geometry.path_phase(1, name) - geometry.path_phase(2, name)
        cross = (math.sqrt(det.visibility_degradation) * k1 * np.conj(k2)
                 * math.sqrt(w1 * w2) * np.exp(1j * psi)) if mix else 0.0j
        eff = det.efficiency
        det_consts.append((eff * abs(k1) ** 2 * w1, eff * abs(k2) ** 2 * w2,
                           eff * 2.0 * abs(cross), float(np.angle(cross))))
    beating = any(swing for _, _, swing, _ in det_consts)

    envelopes = [_Envelope(s, substream(seed, trial, role))
                 for role, s in enumerate(sources)]
    rng_det = [substream(seed, trial, 2), substream(seed, trial, 3)]
    slot_lengths = sorted({s.coherence_time for s in sources if s.mode == "thermal"})
    times = [[], []]
    for edges in _pieces(slot_lengths, duration):
        fields = [env.slots(edges) for env in envelopes]
        # without source 2, b2 and the swing are 0 and fields[-1] is a stand-in
        (i1, p1), (i2, p2) = fields[0], fields[-1]
        root = np.sqrt(i1 * i2)
        candidates = [_poisson_points(rng, b1 * i1 + b2 * i2 + swing * root, edges)
                      for rng, (b1, b2, swing, _) in zip(rng_det, det_consts)]
        if beating:
            # both envelopes at the merged, sorted candidate times of A and B
            beat = np.concatenate([t for t, _ in candidates])
            order = np.argsort(beat, kind="stable")
            at = beat[order]
            beat[order] = envelopes[0].phases(at) - envelopes[1].phases(at)
            beat = np.split(beat, [candidates[0][0].size])
        for d, (t, piece) in enumerate(candidates):
            if beating:
                b1, b2, swing, offset = det_consts[d]
                base = b1 * i1[piece] + b2 * i2[piece]
                swing = swing * root[piece]
                bound = base + swing
                rate = base + swing * np.cos(beat[d] + offset + p1[piece] - p2[piece])
                # rate <= bound exactly; below 0 only by rounding when v_deg <= 1
                if np.any(rate > bound) or np.any(rate < -1e-12 * bound):
                    raise RuntimeError("detection rate outside [0, bound]: "
                                       f"{rate.min():.6g} .. {rate.max():.6g}")
                t = t[rng_det[d].uniform(size=t.size) * bound < rate]
            times[d].append(np.floor(t * PS_PER_S).astype(np.int64))

    streams = []
    for d, (det, name) in enumerate(((det_a, "A"), (det_b, "B"))):
        rng_dark = substream(seed, trial, 4 + d)
        dark = np.sort(rng_dark.uniform(
            0.0, duration, size=rng_dark.poisson(det.dark_count_rate * duration)))
        ts = np.concatenate(times[d] + [np.floor(dark * PS_PER_S).astype(np.int64)])
        ts.sort(kind="stable")  # merges the two sorted runs
        # arrivals within one picosecond collapse to one count
        ts = ts[(np.diff(ts, prepend=-1) != 0) & (ts < duration_ps)]
        streams.append(EventStream(name, ts, duration_ps, seed))
    return streams[0], streams[1]


# ---------------------------------------------------------------------------
# Coincidence counting.

def _collapse(bins: np.ndarray, counts: np.ndarray | None = None
              ) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values of the sorted `bins` and the total count of each.

    Each entry counts once when `counts` is None; otherwise the counts of
    equal entries are summed.
    """
    ends = np.flatnonzero(np.diff(bins, append=bins[-1:] + 1)) + 1
    totals = ends if counts is None else np.cumsum(counts)[ends - 1]
    return bins[ends - 1], np.diff(totals, prepend=0)


def _dense_runs(offsets: list[int]):
    """Split sorted distinct offsets into (first, stop) index runs.

    A run ends where taking in the next offset would make its span in bins
    more than twice the number of offsets it holds, so a run's window spans
    at most twice as many offsets as it reports, however wide and sparse
    the whole grid is.
    """
    first = 0
    for j in range(1, len(offsets)):
        if offsets[j] - offsets[first] + 1 > 2 * (j - first + 1):
            yield first, j
            first = j
    if offsets:
        yield first, len(offsets)


@dataclass(frozen=True)
class CoincidencePartial:
    """Mergeable per-segment coincidence bookkeeping.

    Holds, for each detector, the distinct gate bins of a gate-aligned time
    segment that received events and how many events fell in each.  Merging
    partials sums the counts bin by bin, so merging and then finalizing
    yields exactly the single-pass G2Curve: the reduction is associative and
    commutative.
    """

    bins_a: np.ndarray
    counts_a: np.ndarray
    bins_b: np.ndarray
    counts_b: np.ndarray
    n_bin: int
    gate_ps: int

    @property
    def n_a(self) -> int:
        return int(self.counts_a.sum())

    @property
    def n_b(self) -> int:
        return int(self.counts_b.sum())

    @classmethod
    def from_streams(cls, stream_a: EventStream, stream_b: EventStream,
                     gate_ps: int, start_ps: int = 0,
                     stop_ps: int | None = None) -> "CoincidencePartial":
        if gate_ps <= 0:
            raise ValueError("gate must be positive")
        if stream_a.duration_ps != stream_b.duration_ps:
            raise ValueError("streams must cover equal durations")
        if stop_ps is None:
            stop_ps = stream_a.duration_ps
        if start_ps % gate_ps or (stop_ps % gate_ps and stop_ps != stream_a.duration_ps):
            raise ValueError("segment boundaries must be gate-aligned")
        binned = []
        for ts in (stream_a.timestamps, stream_b.timestamps):
            i, j = np.searchsorted(ts, (start_ps, stop_ps))
            binned.extend(_collapse(ts[i:j] // gate_ps))
        n_bin = -(-(stop_ps - start_ps) // gate_ps)
        return cls(*binned, int(n_bin), gate_ps)

    def merge(self, other: "CoincidencePartial") -> "CoincidencePartial":
        if self.gate_ps != other.gate_ps:
            raise ValueError("cannot merge partials with different gates")
        summed = []
        for bins_1, counts_1, bins_2, counts_2 in (
                (self.bins_a, self.counts_a, other.bins_a, other.counts_a),
                (self.bins_b, self.counts_b, other.bins_b, other.counts_b)):
            bins = np.concatenate((bins_1, bins_2))
            order = np.argsort(bins, kind="stable")
            summed.extend(_collapse(bins[order],
                                    np.concatenate((counts_1, counts_2))[order]))
        return CoincidencePartial(*summed, self.n_bin + other.n_bin, self.gate_ps)

    def _window_sums(self, first: int, last: int) -> np.ndarray:
        """Sum over k of c_A[k]*c_B[k+o] for every offset o in first..last.

        Two searchsorted calls bound each A bin's window [k+first, k+last]
        in B's bins.  Windows are sorted longest first, so the windows that
        still hold an r-th B bin are a prefix; rank r visits that bin of
        every such window at once.
        """
        start = np.searchsorted(self.bins_b, self.bins_a + first)
        length = np.searchsorted(self.bins_b, self.bins_a + last, side="right")
        length -= start
        order = np.argsort(-length)[:np.count_nonzero(length)]
        # still_open[r]: number of windows holding at least r B bins
        still_open = np.cumsum(np.bincount(length)[::-1])[::-1]
        del length
        pos = start[order]
        del start
        ka, ca = self.bins_a[order], self.counts_a[order]
        del order
        sums = np.zeros(last - first + 1, dtype=np.int64)
        for m in still_open[1:]:
            np.add.at(sums, self.bins_b[pos[:m]] - ka[:m] - first,
                      ca[:m] * self.counts_b[pos[:m]])
            pos[:m] += 1
        return sums

    def to_curve(self, taus_ps) -> G2Curve:
        taus = np.asarray(taus_ps, dtype=np.int64)
        offsets, where = np.unique(np.round(taus / self.gate_ps).astype(np.int64),
                                   return_inverse=True)
        wanted = offsets.tolist()
        per_offset = np.zeros(offsets.size, dtype=np.int64)
        for first, stop in _dense_runs(wanted):
            lo = wanted[first]
            per_offset[first:stop] = (self._window_sums(lo, wanted[stop - 1])
                                      [offsets[first:stop] - lo])
        ncoinc = per_offset[where]
        n_a, n_b = self.n_a, self.n_b
        if n_a * n_b > 0:
            values = ncoinc * (self.n_bin / (n_a * n_b))
        else:
            values = np.full(taus.size, np.nan)
        return G2Curve(taus, values, self.gate_ps, ncoinc, n_a, n_b, self.n_bin)


def estimate_g2(stream_a: EventStream, stream_b: EventStream,
                taus_ps, gate_ps: int) -> G2Curve:
    """Binned coincidence estimate g2(tau) = n_coinc * n_bin / (n_A * n_B).

    Both streams are binned at the gate width, giving per-bin event counts
    c_A[k] and c_B[k].  The coincidences at offset tau are the event pairs
    n_coinc = sum_k c_A[k] * c_B[k + o] with o = round(tau / gate), so
    every pair of events is counted, however many share a bin; for
    independent Poisson streams g2 is then 1 in expectation at any
    occupancy.  All offsets are evaluated in one pass over the sorted bins.
    Empty streams yield NaN values with the counts preserved.
    """
    return CoincidencePartial.from_streams(stream_a, stream_b, gate_ps).to_curve(taus_ps)


# ---------------------------------------------------------------------------
# Fringe fitting and spectra.

def fit_fringe(xs: np.ndarray, values: np.ndarray, period: float
               ) -> tuple[float, float, float]:
    """Least-squares sinusoid with known period: offset, amplitude, phase."""
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=float)
    ang = 2.0 * math.pi * xs / period
    design = np.column_stack([np.ones_like(ang), np.cos(ang), np.sin(ang)])
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    offset, a, b = coef
    return float(offset), float(math.hypot(a, b)), float(math.atan2(-b, a))


def fitted_visibility(xs: np.ndarray, values: np.ndarray, period: float) -> float:
    """(max-min)/(max+min) of the fitted sinusoid, i.e. amplitude/offset."""
    offset, amplitude, _ = fit_fringe(xs, values, period)
    if offset <= 0:
        return 0.0
    return amplitude / offset


def fit_fringe_free_period(xs: np.ndarray, values: np.ndarray
                           ) -> tuple[float, float, float, float]:
    """Sinusoid fit with the period free: (offset, amplitude, period, phase).

    A free-period cosine fit is multimodal, so the period is seeded from the
    discrete Fourier peak of the mean-subtracted curve (uniform grid
    required) and then refined by least squares.
    """
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=float)
    steps = np.diff(xs)
    if np.max(np.abs(steps - steps[0])) > 1e-9 * abs(steps[0]):
        raise ValueError("free-period fit needs a uniform grid")
    spec = np.abs(np.fft.rfft(values - values.mean()))
    freqs = np.fft.rfftfreq(xs.size, d=steps[0])
    k = 1 + int(np.argmax(spec[1:]))
    period0 = 1.0 / freqs[k]

    def model(x, off, amp, period, phi):
        return off + amp * np.cos(2.0 * math.pi * x / period + phi)

    p0 = (float(values.mean()), float(values.std() * math.sqrt(2.0)), period0, 0.0)
    popt, _ = curve_fit(model, xs, values, p0=p0, maxfev=20000)
    off, amp, period, phi = popt
    if amp < 0:
        amp, phi = -amp, phi + math.pi
    return float(off), float(amp), float(abs(period)), float(phi)


def fringe_fft(delays_m: np.ndarray, values: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, float]:
    """Fourier magnitude of a mean-subtracted delay scan.

    Delays convert to light travel time (d/c), so the returned axis and peak
    are optical frequencies in Hz.  Requires a uniform grid of at least 16
    points; the peak search excludes the DC bin.
    """
    from .interferometry import SPEED_OF_LIGHT

    delays_m = np.asarray(delays_m, dtype=float)
    values = np.asarray(values, dtype=float)
    if delays_m.size < 16:
        raise ValueError("need at least 16 scan points")
    steps = np.diff(delays_m)
    if np.max(np.abs(steps - steps[0])) > 1e-9 * abs(steps[0]):
        raise ValueError("delay grid must be uniform")
    dt_s = steps[0] / SPEED_OF_LIGHT
    spectrum = np.abs(np.fft.rfft(values - values.mean()))
    freqs = np.fft.rfftfreq(delays_m.size, d=dt_s)
    peak_idx = 1 + int(np.argmax(spectrum[1:]))
    return freqs, spectrum, float(freqs[peak_idx])


def fit_g2_envelope(taus_s: np.ndarray, values: np.ndarray, beat_hz: float
                    ) -> tuple[float, float, float]:
    """Fit g2(tau) = 1 + a*exp(-tau/t)*cos(2*pi*f*tau + phi) at known f.

    Returns (amplitude, decay_time, phase).  The decay time estimates the
    mutual coherence time of the source pair.
    """
    taus_s = np.asarray(taus_s, dtype=float)
    values = np.asarray(values, dtype=float)
    ok = np.isfinite(values)
    taus_s, values = taus_s[ok], values[ok]

    def model(tau, a, t_dec, phi):
        return 1.0 + a * np.exp(-tau / t_dec) * np.cos(2.0 * math.pi * beat_hz * tau + phi)

    span = taus_s.max() - taus_s.min() if taus_s.size else 1.0
    p0 = (max(values.max() - 1.0, 0.1), span / 3.0, 0.0)
    popt, _ = curve_fit(model, taus_s, values, p0=p0,
                        bounds=([0.0, span * 1e-3, -math.pi],
                                [2.0, span * 1e3, math.pi]), maxfev=20000)
    return float(popt[0]), float(popt[1]), float(popt[2])


# ---------------------------------------------------------------------------
# Composite studies.

def g2_vs_tau_scan(source1: ThermalFieldModel, source2: ThermalFieldModel | None,
                   geometry: InterferometerGeometry, det_a: DetectorSetting,
                   det_b: DetectorSetting, duration: float, taus_ps,
                   gate_ps: int, seed: int, trial: int = 0,
                   standard_detection: bool = False) -> G2Curve:
    """Simulate one long run and estimate g2 over a grid of offsets.

    The oscillation rate in tau is the carrier beat of the source pair and
    the sign of the correlation at tau = 0 follows the detector pump-phase
    difference; the envelope decays on the mutual coherence time.
    """
    a, b = simulate_events(source1, source2, geometry, det_a, det_b,
                           duration, seed, trial,
                           standard_detection=standard_detection)
    return estimate_g2(a, b, taus_ps, gate_ps)


def delay_scan_events(source1: ThermalFieldModel, source2: ThermalFieldModel,
                      geometry: InterferometerGeometry, det_a: DetectorSetting,
                      det_b: DetectorSetting, delays_m: np.ndarray,
                      duration: float, gate_ps: int, seed: int,
                      standard_detection: bool = False, tau_ps: int = 0,
                      trial_base: int = 0) -> np.ndarray:
    """Monte Carlo g2(tau) versus arm-B optical delay, one run per delay."""
    out = np.zeros(len(delays_m))
    for i, d in enumerate(np.asarray(delays_m, dtype=float)):
        geo = geometry.with_delay(geometry.delay_b + d)
        a, b = simulate_events(source1, source2, geo, det_a, det_b, duration,
                               seed, trial=trial_base + i,
                               standard_detection=standard_detection)
        out[i] = estimate_g2(a, b, [tau_ps], gate_ps).values[0]
    return out


def gate_time_study(source1: ThermalFieldModel, source2: ThermalFieldModel,
                    geometry: InterferometerGeometry, det_a: DetectorSetting,
                    det_b: DetectorSetting, delays_m: np.ndarray,
                    duration: float, gates_ps: list[int], period_m: float,
                    seed: int, n_trials: int = 4) -> list[dict]:
    """Fringe visibility versus coincidence gate width.

    Each trial simulates one event-stream pair per delay and re-bins the
    same streams at every gate, so gate-to-gate differences carry no extra
    shot noise.  Returns one row per gate with the trial mean visibility
    and a 95% confidence half-width.
    """
    vis = np.zeros((len(gates_ps), n_trials))
    for trial in range(n_trials):
        curves = {g: [] for g in gates_ps}
        for i, d in enumerate(np.asarray(delays_m, dtype=float)):
            geo = geometry.with_delay(geometry.delay_b + d)
            a, b = simulate_events(source1, source2, geo, det_a, det_b,
                                   duration, seed,
                                   trial=trial * len(delays_m) + i)
            for g in gates_ps:
                curves[g].append(estimate_g2(a, b, [0], g).values[0])
        for gi, g in enumerate(gates_ps):
            vis[gi, trial] = fitted_visibility(np.asarray(delays_m),
                                               np.asarray(curves[g]), period_m)
    rows = []
    tcrit = student_t.ppf(0.975, n_trials - 1) if n_trials > 1 else 0.0
    for gi, g in enumerate(gates_ps):
        mean = float(vis[gi].mean())
        half = float(tcrit * vis[gi].std(ddof=1) / math.sqrt(n_trials)) \
            if n_trials > 1 else 0.0
        rows.append({"gate_ps": g, "visibility": mean, "ci95": half,
                     "trials": vis[gi].tolist()})
    return rows


# ---------------------------------------------------------------------------
# Text formats.

def write_event_csv(path, *streams: EventStream) -> None:
    """Event file: detector_id,timestamp_ps rows sorted by timestamp."""
    rows = []
    for s in streams:
        rows.extend((int(t), s.detector_id) for t in s.timestamps)
    rows.sort()
    with open(path, "w") as fh:
        fh.write("detector_id,timestamp_ps\n")
        for t, det in rows:
            fh.write(f"{det},{t}\n")


def read_event_csv(path, duration_ps: int | None = None, seed: int = 0
                   ) -> dict[str, EventStream]:
    by_det: dict[str, list[int]] = {}
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "detector_id,timestamp_ps":
            raise ValueError(f"unexpected event file header: {header!r}")
        for line in fh:
            det, t = line.strip().split(",")
            by_det.setdefault(det, []).append(int(t))
    if duration_ps is None:
        duration_ps = 1 + max((max(v) for v in by_det.values() if v), default=0)
    return {det: EventStream(det, np.array(sorted(v), dtype=np.int64),
                             duration_ps, seed)
            for det, v in by_det.items()}


def write_g2_csv(path, curve: G2Curve) -> None:
    """G2 curve file: tau_ps,g2,n_coincidence,n_A,n_B,n_bin."""
    with open(path, "w") as fh:
        fh.write("tau_ps,g2,n_coincidence,n_A,n_B,n_bin\n")
        for tau, val, nc in zip(curve.taus_ps, curve.values, curve.n_coincidence):
            val_s = f"{val:.12g}" if np.isfinite(val) else "nan"
            fh.write(f"{tau},{val_s},{nc},{curve.n_a},{curve.n_b},{curve.n_bin}\n")
