"""Monte Carlo photon event generation and coincidence analysis.

Semiclassical model: a source pair carries a stochastic complex field
(modulus 1 and a random-walking phase for lasers, one complex Gaussian
amplitude per coherence slot for thermally populated modes), detectors see
the interfering intensity through the color-erasure couplings, and photon
arrivals are the inhomogeneous Poisson process with that intensity as rate.
They are drawn exactly, in continuous time, by thinning (Lewis & Shedler,
Naval Res. Logist. Q. 26, 403 (1979)): candidates come at an upper bound of
the rate, each kept with probability rate/bound.  By AM-GM the cross term
2|c|*sqrt(i1*i2)*cos(.) of source intensities i1, i2 is at most
|c|*(i1 + i2), so each detector's bound has one linear term per source.

A candidate is kept where u*bound < base + k*cos(theta), u uniform,
base = b1*i1 + b2*i2, k = 2|c|*sqrt(i1*i2), decided bit for bit as float64
decides it, with float64 cosines for about eight candidates in a million
(Marsaglia's squeeze, Comput. Math. Appl. 3, 321 (1977)).  theta is reduced
to r = theta - 2*pi*rint(theta/(2*pi)) in float64, and the float32 cosine
of r gives the rate to within the margin
k*(2**-20 + |theta|*2**-50) + 1e-14*bound; only candidates whose u*bound
lies within it of that rate get the float64 one.  Per unit of k, 2**-20
covers rounding r to float32 (at most pi*2**-24) and numpy's float32
cosine, budgeted at 8 ulp (2**-21); |theta|*2**-50 covers the reduction's
own error, at most |theta|*2**-51 (2*pi and its multiple are each rounded
once); 1e-14*bound covers the float64 rounding of both sums, a few ulp of
the bound.  A batch's largest |theta|, k and bound stand in for each
candidate's: the margin grows with each, so they only widen the fallback.

A source pair (interferometry.SourcePair) is of one kind, with one mutual
coherence time tc.  Either kind draws one candidate process for both
detectors, and one uniform per candidate picks its detector: a Poisson
process split by independent marks is an independent one per detector.
A laser pair has constant intensities (i = 1) and one beat phase
phi0 + 2*pi*(f1 - f2)*t + W(t): the difference of two phase walks of
variance t/tc is one Wiener process W of variance 2t/tc, stepped exactly
between the candidate times, so the beat decays as exp(-|tau|/tc) and each
laser's line is 1/(2*pi*tc) wide.  A thermal pair shares one stationary
slot lattice [(k + u)*tc, (k + 1 + u)*tc), u ~ U(0, 1) drawn once per run.
Source j puts Poisson(a_j*i_j) candidates into a slot of intensity
i_j ~ Exp(1): geometric (Bose-Einstein) with mean a_j (Mandel, Proc. Phys.
Soc. 74, 233 (1959)).  Only slots that receive one are drawn, by geometric
skips, each with both counts, both intensities and a uniform phase
difference into one table.  Given its n_j candidates,
i_j ~ Gamma(n_j + 1, rate 1 + a_j): n_j + 1 unit exponentials, one for the
slot and one per candidate, summed over 1 + a_j.  A candidate carries its
slot's table row, and its uniform u, below w_j (source j's share of the
detectors' weights) for A, also places it at u/w_j or (u - w_j)/(1 - w_j)
of the way through its slot.  One thermal beam on a splitter is the pair
with a2 = 0.  The cost follows the candidates, in batches of about _CHUNK:
a batch holds the whole slots that start before its end; none carries over.

Randomness is drawn from PCG64 streams (O'Neill 2014), one per key
(seed, trial, role), seeded through numpy's SeedSequence with the key words
seed mod 2**64 and trial*8 + role.  Roles: 0 the pair's field (every
candidate's time and detector; a laser pair's beat walk; a thermal pair's
lattice offset and slots), 2/3 detector A/B, which only accept candidates,
4/5 detector A/B dark counts; role 1 is not drawn.
Identical (config, seed, trial) input therefore reproduces bit-identical
event streams.

Timestamps are integer picoseconds; simultaneous arrivals within 1 ps
collapse to a single count (detector dead-time proxy).

Coincidences are counted over gate bins.  With c_A[k] and c_B[k] the events
each detector recorded in bin k, n_coinc(tau) = sum_k c_A[k] * c_B[k + o],
o = round(tau / gate), counts every pair of events, so
g2 = n_coinc * n_bin / (n_A * n_B) is unbiased for independent Poisson
streams at any occupancy (pair counting over sorted time tags: Laurence,
Fore & Huser, Opt. Lett. 31, 829 (2006); Wahl et al., Opt. Express 11, 3583
(2003)).  The sum is linear in c_A, so A is counted a slice at a time: working
memory is bounded by the slice and B's events within its reach, not by the
streams, and nearby offsets share one walk over a slice's events and B's
sparse bin counts.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence

from .interferometry import (SPEED_OF_LIGHT, DetectorSetting, InterferometerGeometry,
                             SourcePair, detector_rates)

PS_PER_S = 1_000_000_000_000
FFT_MIN_POINTS = 16  # shortest delay scan fringe_fft resolves
_CHUNK = 1 << 20  # expected candidates per time batch: bounds a run's memory
_SLICE = 1 << 16  # A's events per g2 pass: B's searched bins stay in cache
#                   and the pass's temporaries a few MB (measured fastest)
_ENVELOPE_GRID = 61  # log-spaced decay times an envelope fit scans first


def substream(seed: int, trial: int, role: int) -> Generator:
    """PCG64 stream for one (trial, role) pair under a master seed.

    The key words seed mod 2**64 and trial*8 + role enter SeedSequence as
    the low and high half of one integer: a list of ints would be split
    into 32-bit words of varying count and joined, so (seed, trial, role)
    keys whose words join alike (seed 2**33 + 1 at role 0 and seed 1 at
    role 2, both trial 0) would share a stream.
    """
    if not 0 <= role < 6:
        raise ValueError("role must be in 0..5")
    key = (((trial << 3) | role) << 64) | (seed & 0xFFFFFFFFFFFFFFFF)
    return Generator(PCG64(SeedSequence(key)))


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


class _LaserPair:
    """A laser pair at unit intensities: its candidates at the detectors'
    summed bound, each to A if its uniform lies below A's share; the beat
    phase phi0 + 2*pi*(f1 - f2)*t + W(t), W stepped with variance 2*dt/tc
    over the batch's candidates, which are in time order."""

    def __init__(self, tc: float, carrier: float, weights: list[tuple[float, float]],
                 rng: Generator):
        self.carrier, self.rng, self.diffusion = carrier, rng, 2.0 / tc
        self.bound = sum(map(sum, weights))
        self.share = sum(w[0] for w in weights) / (self.bound or 1.0)
        self.time, self.walk = 0.0, float(rng.uniform(0.0, 2.0 * math.pi))

    def candidates(self, start: float, end: float) -> list:
        """Per detector, the times and batch rows of its candidates in [start, end)."""
        self.times = None  # the batch before goes before this one is drawn
        # start + (end - start)*u, as uniform(start, end) computes it
        times = self.rng.random(self.rng.poisson(self.bound * (end - start)))
        times *= end - start
        times += start
        times.sort()
        self.times, to_a = times, self.rng.random(times.size) < self.share
        return [(times.take(rows), rows) for rows in (np.flatnonzero(to_a), np.flatnonzero(~to_a))]

    def field(self, drawn: list) -> list:
        """Per detector: both intensities (1.0) and the beat phase, by batch row."""
        times = self.times
        steps = np.empty_like(times)
        np.subtract(times[1:], times[:-1], out=steps[1:])
        steps[:1] = times[:1] - self.time
        steps *= self.diffusion
        walk = np.sqrt(steps, out=steps)
        walk *= self.rng.standard_normal(times.size)
        np.cumsum(walk, out=walk)
        walk += self.walk
        if times.size:
            self.time, self.walk = times[-1], walk[-1]
        walk += self.carrier * times
        return [(1.0, 1.0, walk.take(rows)) for _, rows in drawn]


class _ThermalPair:
    """A thermal pair on one stationary slot lattice [(k + u)*tc,
    (k + 1 + u)*tc): source j puts a_j = (its weights summed)*tc candidates
    into a slot at unit intensity.  A batch holds the whole slots that start
    before its end, and nothing crosses into the next batch; its table holds,
    per drawn slot, both intensities and the phase difference.  A source's
    candidates are drawn, placed and reduced to its slot intensities one
    source at a time, in bulk draws from the field stream: one unit
    exponential per slot and per candidate, one uniform per candidate.
    Each array goes at its last use, and the table as field reads it."""

    def __init__(self, tc: float, carrier: float, weights: list[tuple[float, float]],
                 rng: Generator, duration: float):
        self.tc, self.carrier, self.weights, self.rng = tc, carrier, weights, rng
        self.a = [sum(w) * tc for w in weights]
        self.offset = float(rng.uniform())
        self.next_slot, self.duration = -1, duration

    def candidates(self, start: float, end: float) -> list:
        """Per detector, the times and table rows of the candidates in every
        slot that starts before `end`, those past `end` last, cut to the run
        [0, duration); only the slots that receive one are drawn."""
        self.table = None  # the batch before goes before this one is drawn
        tc, (a1, a2), rng = self.tc, self.a, self.rng
        first = self.next_slot
        self.next_slot = max(first, math.ceil(end / tc - self.offset))
        p1, p2 = a1 / (1.0 + a1), a2 / (1.0 + a2)  # a source has candidates
        occupied = p1 + (1.0 - p1) * p2
        slots = _occupied(rng, occupied, first, self.next_slot)
        n_slots = slots.size
        # source 1 has candidates (source 2 any number) or only source 2 has:
        # zero-truncated geometric counts, in proportion p1 : (1 - p1)*p2
        alone = rng.random(n_slots)
        alone = np.multiply(alone, occupied, out=alone) < (1.0 - p1) * p2
        # per source, its candidates' table rows, int32 (a batch has fewer than
        # 2**31 slots): the slots with a count, repeated (np.repeat is slow on 0s)
        lit = np.flatnonzero(~alone)
        rows = [np.repeat(lit.astype(np.int32), rng.geometric(1.0 / (1.0 + a1), lit.size))]
        n2 = rng.geometric(1.0 / (1.0 + a2), n_slots)
        n2 -= 1
        n2 += alone
        lit = np.flatnonzero(n2 > 0)
        rows.append(np.repeat(lit.astype(np.int32), n2.take(lit)))
        # and their slots, so that the slots go before the sources are drawn
        by_source = [(r, slots.take(r)) for r in rows]
        del slots, alone, n2, lit, rows
        # popped: a source's rows and slots go once it is drawn
        (i1, blocks1), (i2, blocks2) = [self._source(n_slots, *by_source.pop(0), a, w)
                                        for a, w in zip(self.a, self.weights)]
        phase = rng.random(n_slots)
        phase *= 2.0 * math.pi
        self.table = (i1, i2, phase)
        drawn = []
        for d in (0, 1):
            t, rows = map(np.concatenate, zip(blocks1[d], blocks2[d]))
            blocks1[d] = blocks2[d] = None  # each block goes once joined
            # only slot -1 (row 0 of the first batch, which starts before 0)
            # and the batch's last slot reach outside [0, end); those past
            # `end` go last, in block order, and those outside the run go
            edge = np.flatnonzero((rows >= n_slots - 1) | ((rows == 0) & (first < 0)))
            te = t[edge]
            if np.any((te < 0.0) | (te >= end)):
                keep = np.ones(t.size, bool)
                keep[edge] = (te >= 0.0) & (te < end)
                order = np.concatenate((np.flatnonzero(keep),
                                        edge[(te >= end) & (te < self.duration)]))
                t, rows = t[order], rows[order]
            drawn.append((t, rows))
        return drawn

    def _source(self, n_slots: int, rows: np.ndarray, slots: np.ndarray, a: float,
                weights: tuple[float, float]) -> tuple:
        """One source's intensity per slot, given the table row and slot of
        each of its candidates, and per detector the times and table rows of
        those candidates."""
        rng = self.rng
        # Gamma(n + 1, rate 1 + a): n + 1 unit exponentials, one for the
        # slot and one per candidate, summed and divided by 1 + a
        intensity = rng.standard_exponential(n_slots)
        intensity += np.bincount(rows, rng.standard_exponential(rows.size), n_slots)
        intensity /= 1.0 + a
        # one uniform u per candidate: below the share w it goes to detector
        # A at u/w in its slot, otherwise to B at (u - w)/(1 - w); indices
        # and take split a random mask several times faster than the mask
        share = weights[0] / (sum(weights) or 1.0)
        u = rng.random(rows.size)
        to_a = u < share
        by_det = []
        for low, width in ((0.0, share), (share, 1.0 - share)):
            pick = np.flatnonzero(to_a)
            np.logical_not(to_a, out=to_a)  # B's next
            t = u.take(pick)  # in place: fewer temporaries
            t -= low
            t /= width
            t += slots.take(pick)
            t += self.offset
            t *= self.tc
            by_det.append((t, rows.take(pick)))
        return intensity, by_det

    def field(self, drawn: list) -> list:
        """Per detector: both intensities and the beat phase, by table row.
        The table goes a column at a time as it is read, and each detector's
        rows leave `drawn` with its last column."""
        columns, self.table = list(self.table), None
        fields = [[] for _ in drawn]
        for j in range(3):
            for d, f in enumerate(fields):
                t, rows = drawn[d]
                f.append(columns[j][rows])  # int32 rows: indexing does not copy them, take does
                if j == 2:
                    drawn[d] = t, None
            columns[j] = None
        if self.carrier:  # a carrier of 0 would add a zero, which leaves the phase as it is
            for f, (t, _) in zip(fields, drawn):
                f[2] += self.carrier * t
        return fields


def _occupied(rng: Generator, q: float, first: int, stop: int) -> np.ndarray:
    """Sorted slots of [first, stop), as whole floats, each occupied with
    probability q, by geometric skips drawn by inversion (a tiny q cannot
    overflow them)."""
    found, last = [np.zeros(0)], first - 1.0
    while q > 0 and last < stop - 1:
        expected = (stop - 1 - last) * q
        slots = rng.standard_exponential(int(expected + 5.0 * math.sqrt(expected)) + 16)
        slots /= -math.log1p(-q)
        np.ceil(slots, out=slots)
        np.cumsum(slots, out=slots)
        slots += last
        found.append(slots[:np.searchsorted(slots, stop)])
        last = slots[-1]
    return np.concatenate(found) if len(found) > 2 else found[-1]  # one round: no copy


def _cos32(theta: np.ndarray) -> np.ndarray:
    """float32 cosine of theta, reduced in float64 to about [-pi, pi] first
    (numpy's float32 cosine is fast only on small arguments)."""
    reduced = theta * (0.5 / math.pi)
    np.rint(reduced, out=reduced)
    reduced *= -2.0 * math.pi
    reduced += theta
    cos = reduced.astype(np.float32)
    return np.cos(cos, out=cos)


def _squeeze_margin(k, theta_abs, bound):
    """Bound on |base + k*cos(theta) - (base + k*_cos32(theta))| as float64
    evaluates both, for |theta| <= theta_abs (derived in the module
    docstring)."""
    return k * (2.0 ** -20 + theta_abs * 2.0 ** -50) + 1e-14 * bound


def _thin(rng: Generator, bound, base, k, theta: np.ndarray) -> np.ndarray:
    """Indices of the candidates kept, each with y = u*bound for one uniform
    u of `rng`: those with y < base + k*np.cos(theta), bit for bit as float64
    decides it.  The float32 cosine decides every candidate whose y lies
    beyond _squeeze_margin of its approximate rate, taken at the batch's
    largest k and bound; the float64 cosine decides the rest (Marsaglia's
    squeeze).  bound, base and k are scalars or one value per candidate; a
    bound of one value per candidate is overwritten with y."""
    theta_abs = max(theta.max(initial=0.0), -theta.min(initial=0.0))
    margin = _squeeze_margin(np.max(k, initial=0.0), theta_abs, np.max(bound, initial=0.0))
    y = rng.random(theta.size)
    y = np.multiply(y, bound, out=bound if np.ndim(bound) else y)
    approx = np.multiply(_cos32(theta), k, dtype=np.float64)
    approx += base
    kept = y < approx
    gap = np.abs(np.subtract(y, approx, out=approx), out=approx)
    unsure = np.flatnonzero(gap <= margin)
    del approx, gap
    if unsure.size:
        base_u, k_u = (np.broadcast_to(a, theta.shape)[unsure] for a in (base, k))
        kept[unsure] = y[unsure] < base_u + k_u * np.cos(theta[unsure])
    return np.flatnonzero(kept)


def _thinning_terms(consts: tuple, fields: list, d: int) -> tuple:
    """bound, base and k of detector d's candidates and theta, the phase of
    their cosine, from its rate terms and its field fields[d] = (j1, j2,
    beat): base = b1*j1 + b2*j2, bound = base + swing*(j1 + j2)/2 and
    k = swing*sqrt(j1*j2).  fields[d] is dropped and its arrays are reused
    in place."""
    b1, b2, swing, offset = consts
    (j1, j2, theta), fields[d] = fields[d], None
    bound = j1 + j2
    bound *= swing * 0.5  # halving is exact: as *= swing, then /= 2.0
    base = j1 * b1
    j1 *= j2
    j2 *= b2
    base += j2
    bound += base
    k = np.sqrt(j1, out=j1 if np.ndim(j1) else None)
    k *= swing
    theta += offset
    return bound, base, k, theta


def simulate_events(pair: SourcePair, geometry: InterferometerGeometry,
                    det_a: DetectorSetting, det_b: DetectorSetting,
                    duration: float, seed: int, trial: int = 0
                    ) -> tuple[EventStream, EventStream]:
    """Generate one event stream per detector for the configured setup.

    The detection rate of each detector is the semiclassical intensity of
    the two interfering source fields through its couplings, scaled by its
    efficiency: interferometry.detector_rates gives its rate terms from the
    pair's rates at the detector, the same ones pair_fringe_law reads.

    Arrivals are drawn by thinning (see the module docstring): with source
    intensities i1, i2, the rate b1*i1 + b2*i2 + 2*|c|*sqrt(i1*i2)*cos(.)
    has the bound b1*i1 + b2*i2 + |c|*(i1 + i2), and each candidate is kept
    by the float32-cosine squeeze of the module docstring, which decides as
    the float64 rate does.  A detector with 2*|c| above 2*sqrt(b1*b2)
    beyond 1e-12 relative (v_deg > 1) raises RuntimeError: its rate falls
    below 0 somewhere.  Dark counts are merged in from their own streams.
    """
    if duration < 100.0 * pair.coherence_time:
        warnings.warn(f"duration {duration:g}s is under 100 coherence times; "
                      "estimates may be statistically unstable", stacklevel=2)
    duration_ps = int(round(duration * PS_PER_S))

    det_consts = [detector_rates(det, geometry, *pair.rates_at_detector,
                                 geometry.path_phase(1, name) - geometry.path_phase(2, name))
                  for det, name in ((det_a, "A"), (det_b, "B"))]
    for b1, b2, swing, _ in det_consts:
        # by AM-GM the rate lies in [-1e-12*bound, bound] at every intensity
        # and phase while swing <= 2*sqrt(b1*b2)*(1 + 1e-12)
        if swing > 2.0 * math.sqrt(b1 * b2) * (1.0 + 1e-12):
            raise RuntimeError(f"detection rate outside [0, bound]: swing {swing:.6g} "
                               f"above 2*sqrt(b1*b2) = {2.0 * math.sqrt(b1 * b2):.6g}")
    beating = any(swing for _, _, swing, _ in det_consts)

    # the bound is b_j + swing/2 per unit of source j's intensity, per detector
    weights = [tuple(c[j] + c[2] / 2.0 for c in det_consts) for j in (0, 1)]
    args = pair.coherence_time, -math.tau * pair.detuning_hz, weights, substream(seed, trial, 0)
    sources = _ThermalPair(*args, duration) if pair.kind == "thermal" else _LaserPair(*args)
    rng_det = [substream(seed, trial, 2), substream(seed, trial, 3)]
    expected = duration * sum(map(sum, weights))
    edges = np.linspace(0.0, duration, 1 + max(1, math.ceil(expected / _CHUNK)))
    times = [[], []]
    for t0, t1 in zip(edges[:-1], edges[1:]):
        # what the batch before left goes before this one is drawn; the last
        # batch's stays while the streams are merged, so they lie above the
        # heap the next call reuses and glibc does not trim it (measured)
        terms = td = None
        drawn = sources.candidates(t0, t1)
        if beating:
            fields = sources.field(drawn)
        for d in (0, 1):  # one detector at a time: its arrays go before the next one's come
            td, terms = drawn[d][0], None
            if beating:
                terms = _thinning_terms(det_consts[d], fields, d)
                td = td.take(_thin(rng_det[d], *terms))
            td *= PS_PER_S  # td is the batch's own: scaled in place
            times[d].append(td.astype(np.int64))  # td >= 0: truncation floors
        del drawn

    streams = []
    for d, (det, name) in enumerate(((det_a, "A"), (det_b, "B"))):
        rng_dark = substream(seed, trial, 4 + d)
        dark = rng_dark.random(rng_dark.poisson(det.dark_count_rate * duration))
        dark *= duration
        dark.sort()
        ts = np.concatenate(times[d] + [(dark * PS_PER_S).astype(np.int64)])
        times[d] = None
        ts.sort(kind="stable")  # mostly a merge of sorted runs
        # arrivals within one picosecond collapse to one count
        keep = ts < duration_ps
        keep[1:] &= ts[1:] != ts[:-1]
        streams.append(EventStream(name, ts[keep], duration_ps, seed))
    return streams[0], streams[1]


# ---------------------------------------------------------------------------
# Coincidence counting.

def _collapse(bins: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values of the sorted `bins` and how often each occurs."""
    if not bins.size:
        return bins, np.zeros(0, np.int64)
    # the index of each run's last element
    last = np.empty(bins.size, bool)
    np.not_equal(bins[1:], bins[:-1], out=last[:-1])
    last[-1] = True
    ends = np.flatnonzero(last)
    counts = np.empty_like(ends)
    counts[:1] = ends[:1] + 1
    np.subtract(ends[1:], ends[:-1], out=counts[1:])
    return bins[ends], counts


def _runs(offsets: list[int], pair_work: float, pass_work: int):
    """Split sorted distinct offsets into (first, stop) index runs: a run ends
    where the offsets up to the next one, at pair_work expected pairs and one
    sum each, cost more than another pass over the events (pass_work)."""
    first = 0
    for j in range(1, len(offsets)):
        if (offsets[j] - offsets[j - 1] - 1) * (pair_work + 1.0) > pass_work:
            yield first, j
            first = j
    if offsets:
        yield first, len(offsets)


def _window_sums(bins_a: np.ndarray, bins_b: np.ndarray, counts_b: np.ndarray,
                 first: int, last: int) -> np.ndarray:
    """Sum over k of c_A[k]*c_B[k+o] for every offset o in first..last, from
    the sorted bins of A's events, a bin repeated for each of its events,
    and B's distinct occupied bins with their event counts.

    Two searchsorted calls bound each A event's window [k+first, k+last] in
    B's bins.  A one-bin window (first == last) holds the B bin that
    `start` points at or none, so while B has bins one comparison finds the
    A events whose window holds one, and the sum is one gather.  Other
    windows are sorted longest first, so the windows that still hold an
    r-th B bin are a prefix; rank r visits that bin of every such window at
    once.
    """
    start = np.searchsorted(bins_b, bins_a + first)
    if first == last and bins_b.size:
        hit = bins_b.take(start, mode="clip") == bins_a + first
        return np.array([counts_b[start[hit]].sum()])
    length = np.searchsorted(bins_b, bins_a + last, side="right")
    length -= start
    order = np.argsort(-length)[:np.count_nonzero(length)]
    # still_open[r]: number of windows holding at least r B bins
    still_open = np.cumsum(np.bincount(length)[::-1])[::-1]
    del length
    pos = start[order]
    del start
    ka = bins_a[order]
    del order
    sums = np.zeros(last - first + 1, dtype=np.int64)
    for m in still_open[1:]:
        np.add.at(sums, bins_b[pos[:m]] - ka[:m] - first, counts_b[pos[:m]])
        pos[:m] += 1
    return sums


def estimate_g2(stream_a: EventStream, stream_b: EventStream,
                taus_ps, gate_ps: int) -> G2Curve:
    """Binned coincidence estimate g2(tau) = n_coinc * n_bin / (n_A * n_B).

    Both streams are binned at the gate width, giving per-bin event counts
    c_A[k] and c_B[k].  The coincidences at offset tau are the event pairs
    n_coinc = sum_k c_A[k] * c_B[k + o] with o = round(tau / gate), so
    every pair of events is counted, however many share a bin; for
    independent Poisson streams g2 is then 1 in expectation at any
    occupancy.  A is counted a slice at a time (exact, as the sum is linear
    in c_A), nearby offsets in one pass over its bins and B's within their
    reach: working memory is bounded by the slice and that reach, not by
    the streams.  The gate is a positive integer.  Empty streams yield NaN
    values with the counts preserved.
    """
    if isinstance(gate_ps, bool) or not isinstance(gate_ps, (int, np.integer)) or gate_ps <= 0:
        raise ValueError("gate must be a positive integer")
    if stream_a.duration_ps != stream_b.duration_ps:
        raise ValueError("streams must cover equal durations")
    n_bin = int(-(-stream_a.duration_ps // gate_ps))
    taus = np.asarray(taus_ps, dtype=np.int64)
    offsets, where = np.unique(np.round(taus / gate_ps).astype(np.int64),
                               return_inverse=True)
    wanted = offsets.tolist()
    per_offset = np.zeros(offsets.size, dtype=np.int64)
    n_a, n_b = stream_a.count, stream_b.count
    runs = list(_runs(wanted, n_a * n_b / max(n_bin, 1), n_a + n_b))
    ts_b, gate = stream_b.timestamps, int(gate_ps)  # a Python int: K*gate is exact
    for i in range(0, n_a, _SLICE):
        bins_a = stream_a.timestamps[i:i + _SLICE] // gate
        for first, stop in runs:
            lo, hi = wanted[first], wanted[stop - 1]
            # B's events in bins bins_a[0] + lo .. bins_a[-1] + hi
            j = np.searchsorted(ts_b, (int(bins_a[0]) + lo) * gate)
            k = np.searchsorted(ts_b, (int(bins_a[-1]) + hi + 1) * gate)
            bins_b, counts_b = _collapse(ts_b[j:k] // gate)
            sums = _window_sums(bins_a, bins_b, counts_b, lo, hi)
            per_offset[first:stop] += sums[offsets[first:stop] - lo]
    ncoinc = per_offset[where]
    if n_a * n_b > 0:
        values = ncoinc * (n_bin / (n_a * n_b))
    else:
        values = np.full(taus.size, np.nan)
    return G2Curve(taus, values, gate_ps, ncoinc, n_a, n_b, n_bin)


# ---------------------------------------------------------------------------
# Fringe fitting and spectra.

def _fringe_design(ang: np.ndarray) -> np.ndarray:
    return np.column_stack([np.ones_like(ang), np.cos(ang), np.sin(ang)])


def fit_fringe(xs: np.ndarray, values: np.ndarray, period: float
               ) -> tuple[float, float, float]:
    """Least-squares sinusoid with known period: offset, amplitude, phase."""
    ang = 2.0 * math.pi * np.asarray(xs, dtype=float) / period
    _, (offset, a, b) = _lstsq(_fringe_design(ang), np.asarray(values, dtype=float))
    return float(offset), float(math.hypot(a, b)), float(math.atan2(-b, a))


def fitted_visibility(xs: np.ndarray, values: np.ndarray, period: float) -> float:
    """(max-min)/(max+min) of the fitted sinusoid, i.e. amplitude/offset, or NaN."""
    offset, amplitude, _ = fit_fringe(xs, values, period)
    return amplitude / offset if offset > 0 else math.nan


def _fourier_peak(xs: np.ndarray, values: np.ndarray
                  ) -> tuple[float, np.ndarray, int | None]:
    """(step, |rfft| of the mean-subtracted values, index of the largest
    non-DC bin) of a curve sampled on xs; ValueError unless xs is uniform.

    The index is None for a curve with no peak: a flat curve, whose power
    is all at DC, or one with a non-finite point."""
    steps = np.diff(xs)
    if np.max(np.abs(steps - steps[0])) > 1e-9 * abs(steps[0]):
        raise ValueError("Fourier analysis needs a uniform grid")
    spectrum = np.abs(np.fft.rfft(values - values.mean()))
    peak = 1 + int(np.argmax(spectrum[1:])) if 0 < np.ptp(values) < math.inf else None
    return float(steps[0]), spectrum, peak


def _minimise(cost, lo: float, hi: float) -> float:
    """A minimiser of cost on [lo, hi] by golden-section search (Kiefer,
    Proc. Amer. Math. Soc. 4, 502 (1953)): x, the best point so far, lies in
    the bracket (a, b), and each probe in its longer side.  When the bracket
    stops shrinking in floating point, the best of x, lo and hi (an end on a
    tie) is returned, so an end is found exactly and no tolerance is needed."""
    golden = (3.0 - math.sqrt(5.0)) / 2.0  # 1 - 1/phi, the shorter golden part
    a, b, width = lo, hi, math.inf
    x = a + golden * (b - a)
    fx = cost(x)
    while abs(b - a) < width:
        width = abs(b - a)
        y = x + golden * (b - x)
        fy = cost(y)
        if fy < fx:
            a, x, fx = x, y, fy
        else:
            a, b = y, a
    return min([(cost(lo), lo), (cost(hi), hi), (fx, x)], key=lambda p: p[0])[1]


def _lstsq(design: np.ndarray, target: np.ndarray, bound: float = math.inf):
    """(residual sum, coefficients c) of least squares design @ c ~ target, |c| <= bound."""
    def rss(coef):
        return float(np.sum((design @ coef - target) ** 2))

    coef = np.linalg.lstsq(design, target, rcond=None)[0]
    if math.hypot(*coef) > bound:
        # c has two coefficients here; on |c| = bound the best c solves
        # (D^T D + lam*I) c = D^T y at some lam >= 0 (More & Sorensen, SIAM J. Sci.
        # Stat. Comput. 4, 553 (1983)); as lam grows, that c turns from the free
        # c's direction to D^T y's, and no other c on the arc between is stationary
        lo = math.atan2(*coef[::-1])
        hi = lo + math.remainder(math.atan2(*(design.T @ target)[::-1]) - lo, 2.0 * math.pi)
        psi = _minimise(lambda p: rss(bound * np.array([math.cos(p), math.sin(p)])),
                        min(lo, hi), max(lo, hi))
        coef = bound * np.array([math.cos(psi), math.sin(psi)])
    return rss(coef), coef


def _profiled_fit(design_of_p, target: np.ndarray, grid: np.ndarray, bound: float = math.inf):
    """(p, residual sum, coefficients) of the _lstsq fit of design_of_p(p) @ c at the p
    of least residual sum, on the grid, then between the best grid point's neighbours
    (variable projection: Golub & Pereyra, SIAM J. Numer. Anal. 10, 413 (1973))."""
    def fit(p):
        return _lstsq(design_of_p(p), target, bound)

    i = int(np.argmin([fit(p)[0] for p in grid]))
    p = _minimise(lambda p: fit(p)[0], *map(float, grid[max(i - 1, 0):i + 2][[0, -1]]))
    return (p, *fit(p))


def fit_fringe_free_period(xs: np.ndarray, values: np.ndarray
                           ) -> tuple[float, float, float, float]:
    """Sinusoid fit with the period free: (offset, amplitude, period, phase).

    The sinusoid is linear given the frequency, which is searched alone
    (_profiled_fit) within one bin of the discrete Fourier peak of the
    mean-subtracted curve, as the fit is multimodal (uniform grid required).
    A curve without that peak, flat or with a non-finite point, reads NaN.
    """
    xs, values = np.asarray(xs, dtype=float), np.asarray(values, dtype=float)
    step, _, peak = _fourier_peak(xs, values)
    if peak is None:
        return (math.nan,) * 4

    freq = _profiled_fit(lambda f: _fringe_design(2.0 * math.pi * f * xs), values,
                         np.fft.rfftfreq(xs.size, d=step)[peak - 1:peak + 2])[0]
    period = 1.0 / freq if freq else math.inf  # below the first bin lies DC, of infinite period
    offset, amplitude, phase = fit_fringe(xs, values, period)
    return offset, amplitude, period, phase


def fringe_fft(delays_m: np.ndarray, values: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, float]:
    """Fourier magnitude of a mean-subtracted delay scan.

    Delays convert to light travel time (d/c), so the returned axis and peak
    are optical frequencies in Hz.  Requires a uniform grid of at least
    FFT_MIN_POINTS points; the peak search excludes the DC bin.  A flat
    curve or one with a non-finite point gives a NaN peak, as the fits give
    NaN.
    """
    delays_m = np.asarray(delays_m, dtype=float)
    values = np.asarray(values, dtype=float)
    if delays_m.size < FFT_MIN_POINTS:
        raise ValueError(f"need at least {FFT_MIN_POINTS} scan points")
    step, spectrum, peak = _fourier_peak(delays_m, values)
    freqs = np.fft.rfftfreq(delays_m.size, d=step / SPEED_OF_LIGHT)
    return freqs, spectrum, math.nan if peak is None else float(freqs[peak])


def fit_g2_envelope(taus_s: np.ndarray, values: np.ndarray, beat_hz: float
                    ) -> tuple[float, float, float, bool]:
    """Fit g2(tau) = 1 + a*exp(-tau/t)*cos(2*pi*f*tau + phi) at known f.

    Returns (amplitude, decay_time, phase, at_bound).  The decay time
    estimates the mutual coherence time of the source pair.  Given t the
    model is linear in a*cos(phi) and a*sin(phi), so the residual sum, with
    a <= 2, is minimised over log t alone (_profiled_fit), t within a factor
    1e3 of the tau span.  at_bound says that a or t ended on its bound, so
    the value is the bound's, not a fitted one.  Non-finite points are left out;
    without a tau span left, each result is NaN and at_bound false.
    """
    ok = np.isfinite(values)
    taus_s, target = np.asarray(taus_s, dtype=float)[ok], np.asarray(values, dtype=float)[ok] - 1
    span = float(np.ptp(taus_s)) if taus_s.size else 0.0
    if not span > 0.0:
        return math.nan, math.nan, math.nan, False
    beat = 2.0 * math.pi * beat_hz * taus_s

    def design(log_t):
        envelope = np.exp(-taus_s / math.exp(log_t))
        return np.column_stack([envelope * np.cos(beat), -envelope * np.sin(beat)])

    grid = math.log(span) + np.linspace(math.log(1e-3), math.log(1e3), _ENVELOPE_GRID)
    (log_t, _, coef), at_bound = _profiled_fit(design, target, grid, 2.0), False
    for end, inner in ((grid[0], grid[1]), (grid[-1], grid[-2])):
        # at fixed c the sum's slope in log t is 2 sum r*(tau/t)*Dc, as d/dlog t
        # exp(-tau/t) = (tau/t) exp(-tau/t): where it still falls toward an end
        # too flat for the search to resolve, the decay is the bound's
        if (log_t - inner) * (end - inner) > 0:
            model = design(end) @ (end_coef := _lstsq(design(end), target, 2.0)[1])
            if np.sum((model - target) * taus_s * model) * (end - inner) < 0:
                log_t, coef, at_bound = end, end_coef, True
    amp = math.hypot(*_lstsq(design(log_t), target)[1])
    return min(amp, 2.0), math.exp(log_t), math.atan2(*coef[::-1]), at_bound or amp > 2.0


# ---------------------------------------------------------------------------
# Composite studies.

def g2_zero_scan(pair: SourcePair, geometry: InterferometerGeometry,
                 det_a: DetectorSetting, det_b: DetectorSetting, duration: float,
                 gates_ps: list[int], seed: int, first_trial: int = 0) -> np.ndarray:
    """Monte Carlo g2(0) at each point of a batch geometry and each gate.

    Point i is simulated once, as trial first_trial + i for `duration`
    seconds, and its streams are counted at every gate, so gate-to-gate
    differences carry no extra shot noise.  Returns a points x gates array.
    """
    runs = (simulate_events(pair, point, det_a, det_b, duration, seed,
                            trial=first_trial + i)
            for i, point in enumerate(geometry.points()))
    return np.array([[estimate_g2(a, b, [0], g).values[0] for g in gates_ps]
                     for a, b in runs], dtype=float)
