"""Monte Carlo photon event generation and coincidence analysis.

Semiclassical model: each source carries a stochastic complex field envelope
(modulus 1 and a random-walking phase for a laser, one complex Gaussian
amplitude per coherence slot for a thermally populated mode), detectors see
the interfering intensity through the color-erasure couplings, and photon
arrivals are the inhomogeneous Poisson process with that intensity as rate.
They are drawn exactly, in continuous time, by thinning (Lewis & Shedler,
Naval Res. Logist. Q. 26, 403 (1979)): candidates come at an upper bound of
the rate, each kept with probability rate/bound.  By AM-GM the cross term
2|c|*sqrt(i1*i2)*cos(.) of source intensities i1, i2 is at most
|c|*(i1 + i2), so each detector's bound has one linear term per source.  A
laser's term is constant (i = 1), drawn per detector.  A thermal term, over
both detectors, puts Poisson(a*i) candidates into a slot of intensity
i ~ Exp(1): geometric (Bose-Einstein) with mean a (Mandel, Proc. Phys. Soc.
74, 233 (1959)).  Only slots that receive one are drawn, by geometric skips
of success a/(1 + a), with a zero-truncated geometric count, an intensity
~ Gamma(count + 1, rate 1 + a) and a uniform phase; its candidates fall
uniformly in it and split between the detectors by their weights.  A slot
only the other source's candidates reach has intensity ~ Exp(rate 1 + a).
The envelopes are evaluated at the candidate times (exact Wiener increments
in between); the cost follows the candidates, batched by about _CHUNK.

Randomness is drawn from named Philox counter streams keyed as
(seed, trial*8 + role) with roles: 0/1 source-1/2 envelope (a laser's
phase walk; a thermal source's slots, its candidates' placement and
detector), 2/3 detector A/B (the lasers' candidates and every candidate's
acceptance), 4/5 detector A/B dark counts.  Identical (config, seed, trial)
input therefore reproduces bit-identical event streams.

Timestamps are integer picoseconds; simultaneous arrivals within 1 ps
collapse to a single count (detector dead-time proxy).

Coincidences are counted over gate bins.  With c_A[k] and c_B[k] the events
each detector recorded in bin k, n_coinc(tau) = sum_k c_A[k] * c_B[k + o],
o = round(tau / gate), counts every pair of events, so
g2 = n_coinc * n_bin / (n_A * n_B) is unbiased for independent Poisson
streams at any occupancy (pair counting over sorted time tags: Laurence,
Fore & Huser, Opt. Lett. 31, 829 (2006); Wahl et al., Opt. Express 11, 3583
(2003)).  Nearby requested offsets come out of one walk over the sparse,
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
_CHUNK = 1 << 20  # expected candidates per time batch: bounds a run's memory


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
    intensities are exponential (Bose-Einstein counts per slot); a split beam
    has g2(tau) = 1 + (1 - |tau|/tc)+, not a Lorentzian 1 + exp(-2|tau|/tc).
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
    slot [k*tc, (k+1)*tc), times the carrier; it also draws the candidates
    of its term of the bound, `weights` per detector at unit intensity.
    """

    def __init__(self, source: ThermalFieldModel, weights: tuple[float, float],
                 rng: Generator):
        self.source, self.weights, self.rng = source, weights, rng
        self.time, self.phase = 0.0, float(rng.uniform(0.0, 2.0 * math.pi))
        self.a = sum(weights) * source.coherence_time  # candidates per slot at i = 1
        # drawn slots (index, intensity, phase), between batches the last one;
        # carry: per detector, candidates of that slot past the batch end
        self.next_slot, self.table = 0, (np.array([-1]), np.zeros(1), np.zeros(1))
        self.carry = [(np.zeros(0), np.zeros(0, np.int64))] * 2

    def candidates(self, end: float):
        """Per detector, the times and slots of this thermal term's
        candidates before `end`; only the slots that receive one are drawn."""
        tc, a, rng = self.source.coherence_time, self.a, self.rng
        first, self.next_slot = self.next_slot, max(self.next_slot, math.ceil(end / tc))
        slots = _occupied(rng, a / (1.0 + a), first, self.next_slot)
        # zero-truncated geometric count, then the intensity given the count
        counts = rng.geometric(1.0 / (1.0 + a), slots.size)
        values = (slots, rng.standard_gamma(counts + 1.0) / (1.0 + a),
                  rng.uniform(0.0, 2.0 * math.pi, slots.size))
        self.table = tuple(np.concatenate((x[-1:], y)) for x, y in zip(self.table, values))
        # each candidate goes to detector A with probability its weight share
        to_a = rng.binomial(counts, self.weights[0] / (sum(self.weights) or 1.0))
        drawn = []
        for d, n in enumerate((to_a, counts - to_a)):
            slot = np.repeat(slots, n)
            t, slot = (np.concatenate(x) for x in zip(
                self.carry[d], ((slot + rng.uniform(size=slot.size)) * tc, slot)))
            later = t >= end
            self.carry[d] = (t[later], slot[later])
            drawn.append((t[~later], slot[~later]))
        return drawn

    def field(self, times: np.ndarray, slot: np.ndarray | None):
        """Intensity (1.0 for a laser) and phase at the sorted times of one
        batch; `slot` holds a thermal source's own candidates' slots, else -1."""
        carrier = 2.0 * math.pi * self.source.carrier_offset_hz
        if self.source.mode == "coherent":
            steps = np.diff(times, prepend=self.time)
            phases = carrier * steps
            steps /= self.source.coherence_time
            phases += np.sqrt(steps, out=steps) * self.rng.standard_normal(times.size)
            np.cumsum(phases, out=phases)
            phases += self.phase
            if times.size:
                self.time, self.phase = times[-1], phases[-1]
            return 1.0, phases
        known, intensity, phase = self.table
        floor = np.clip(np.floor(times / self.source.coherence_time), known[0], self.next_slot - 1)
        slot = np.where(slot < 0, floor.astype(np.int64), slot)
        # a slot only the other term reached had no candidate: Exp(rate 1 + a)
        seen = _collapse(np.sort(np.append(slot, self.next_slot - 1), kind="stable"))[0]
        at = np.minimum(np.searchsorted(known, seen), known.size - 1)
        hit = known[at] == seen
        intensity = np.where(hit, intensity[at],
                             self.rng.standard_exponential(seen.size) / (1.0 + self.a))
        phase = np.where(hit, phase[at], self.rng.uniform(0.0, 2.0 * math.pi, seen.size))
        self.table = (seen[-1:], intensity[-1:], phase[-1:])
        at = np.searchsorted(seen, slot)
        return intensity[at], phase[at] + carrier * times


def _occupied(rng: Generator, q: float, first: int, stop: int) -> np.ndarray:
    """Sorted slots of [first, stop), each occupied with probability q, by
    geometric skips drawn by inversion (a tiny q cannot overflow them)."""
    found, last = [np.zeros(0)], first - 1.0
    while q > 0 and last < stop - 1:
        expected = (stop - 1 - last) * q
        skips = rng.standard_exponential(int(expected + 5.0 * math.sqrt(expected)) + 16)
        slots = last + np.cumsum(np.ceil(skips / -math.log1p(-q)))
        found.append(slots[slots < stop])
        last = slots[-1]
    return np.concatenate(found).astype(np.int64)


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

    Arrivals are drawn by thinning (see the module docstring): with source
    intensities i1, i2, the rate b1*i1 + b2*i2 + 2*|c|*sqrt(i1*i2)*cos(.)
    has the bound b1*i1 + b2*i2 + |c|*(i1 + i2).  A rate outside [0, bound]
    raises RuntimeError.  Dark counts are merged in from their own streams.
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

    # the bound is b_j + swing/2 per unit of source j's intensity: the lasers'
    # share is drawn per detector, a thermal source's by its envelope
    envelopes = [_Envelope(s, tuple(c[j] + c[2] / 2.0 for c in det_consts),
                           substream(seed, trial, j))
                 for j, s in enumerate(sources)]
    thermal = [e for e in envelopes if e.source.mode == "thermal"]
    steady = [sum(e.weights[d] for e in envelopes if e not in thermal) for d in (0, 1)]
    expected = duration * (sum(steady) + sum(sum(e.weights) for e in thermal))
    edges = np.linspace(0.0, duration, 1 + max(1, math.ceil(expected / _CHUNK)))
    rng_det = [substream(seed, trial, 2), substream(seed, trial, 3)]
    times = [[], []]
    for t0, t1 in zip(edges[:-1], edges[1:]):
        # (times, detector, slot, the envelope that drew them)
        parts = [(np.sort(rng.uniform(t0, t1, rng.poisson(c * (t1 - t0)))), d, None, None)
                 for d, (rng, c) in enumerate(zip(rng_det, steady))]
        parts += [(t, d, slot, e) for e in thermal
                  for d, (t, slot) in enumerate(e.candidates(t1))]
        t = np.concatenate([p[0] for p in parts])
        if beating:
            # both envelopes at the merged, sorted candidate times of A and B
            # (a thermal one takes the slots of its own candidates, -1
            # elsewhere), then back in the order of parts
            order = np.argsort(t, kind="stable")
            back = np.empty_like(order)
            back[order] = np.arange(order.size)
            (i1, ph1), (i2, ph2) = (e.field(t[order], np.concatenate(
                [s if by is e else np.full(p.size, -1) for p, _, s, by in parts])[order]
                if e in thermal else None) for e in envelopes)
            beat, i1, i2 = (x[back] if np.ndim(x) else x for x in (ph1 - ph2, i1, i2))
        detector = np.repeat([p[1] for p in parts], [p[0].size for p in parts])
        for d in (0, 1):
            mine = np.flatnonzero(detector == d)
            td = t[mine]
            if beating:
                b1, b2, swing, offset = det_consts[d]
                j1, j2 = (x[mine] if np.ndim(x) else x for x in (i1, i2))
                base = b1 * j1 + b2 * j2
                bound = base + swing * (j1 + j2) / 2.0
                rate = base + swing * np.sqrt(j1 * j2) * np.cos(beat[mine] + offset)
                # by AM-GM rate <= bound, and rate >= 0 if v_deg <= 1, up to rounding
                if np.any(rate > bound * (1.0 + 1e-12)) or np.any(rate < -1e-12 * bound):
                    raise RuntimeError("detection rate outside [0, bound]: "
                                       f"{rate.min():.6g} .. {rate.max():.6g}")
                td = td[rng_det[d].uniform(size=td.size) * bound < rate]
            times[d].append(np.floor(td * PS_PER_S).astype(np.int64))

    streams = []
    for d, (det, name) in enumerate(((det_a, "A"), (det_b, "B"))):
        rng_dark = substream(seed, trial, 4 + d)
        dark = np.sort(rng_dark.uniform(
            0.0, duration, size=rng_dark.poisson(det.dark_count_rate * duration)))
        ts = np.concatenate(times[d] + [np.floor(dark * PS_PER_S).astype(np.int64)])
        ts.sort(kind="stable")  # mostly a merge of sorted runs
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


def _runs(offsets: list[int], pair_work: float, pass_work: int):
    """Split sorted distinct offsets into (first, stop) index runs: a run ends
    where the offsets up to the next one, at pair_work expected pairs and one
    sum each, cost more than another pass over the bins (pass_work)."""
    first = 0
    for j in range(1, len(offsets)):
        if (offsets[j] - offsets[j - 1] - 1) * (pair_work + 1.0) > pass_work:
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
        pairs = self.bins_a.size * self.bins_b.size / max(self.n_bin, 1)
        for first, stop in _runs(wanted, pairs, self.bins_a.size + self.bins_b.size):
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
    occupancy.  Nearby offsets share one pass over the sorted bins.
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

def write_g2_csv(path, curve: G2Curve) -> None:
    """G2 curve file: tau_ps,g2,n_coincidence,n_A,n_B,n_bin."""
    with open(path, "w") as fh:
        fh.write("tau_ps,g2,n_coincidence,n_A,n_B,n_bin\n")
        for tau, val, nc in zip(curve.taus_ps, curve.values, curve.n_coincidence):
            val_s = f"{val:.12g}" if np.isfinite(val) else "nan"
            fh.write(f"{tau},{val_s},{nc},{curve.n_a},{curve.n_b},{curve.n_bin}\n")
