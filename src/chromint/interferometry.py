"""Closed-form chromatic intensity interferometry and the detector model.

Propagation amplitudes from geometry, coincidence probabilities for
single-photon, coherent-superposition and incoherent-mixture sources,
source-phase averaging, analytic fringe scans, and the one model each of
the color-erasure detector (DetectorSetting) and of the source pair
(SourcePair) that the law and Monte Carlo share.

Source 1 emits at wavelength lambda1 (long), source 2 at lambda2 (short);
the pump wavelength lambda3 satisfies 1/lambda3 = 1/lambda2 - 1/lambda1.
An optical delay applied to arm B adds to both path lengths into detector B,
so scanning it advances the fringe at the pump frequency c/lambda3.

Everything here is a pure function of its arguments.  A geometry whose
path lengths or arm-B delay are numpy arrays is a batch, one geometry per
element; scans evaluate the fringe law once over such a batch and return
numpy record arrays, one row per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

SPEED_OF_LIGHT = 299792458.0  # m/s

WAVELENGTH_REL_TOL = 1e-6


@dataclass(frozen=True)
class InterferometerGeometry:
    """Two sources, two detectors, explicit path lengths in meters.

    The path lengths and delay_b may be numpy arrays that broadcast
    together: a batch of geometries sharing their wavelengths.  lambda3 may
    be None for the degenerate same-wavelength (standard HBT)
    arrangement; when given it must satisfy the energy-conservation
    constraint against lambda1 and lambda2.
    """

    lambda1: float
    lambda2: float
    lambda3: float | None
    l_1a: float | np.ndarray
    l_1b: float | np.ndarray
    l_2a: float | np.ndarray
    l_2b: float | np.ndarray
    delay_b: float | np.ndarray = 0.0

    def __post_init__(self):
        if self.lambda1 <= 0 or self.lambda2 <= 0:
            raise ValueError("wavelengths must be positive")
        for name in ("l_1a", "l_1b", "l_2a", "l_2b"):
            if np.any(getattr(self, name) < 0):
                raise ValueError(f"path length {name} must be nonnegative")
        if self.lambda3 is not None:
            if self.lambda3 <= 0:
                raise ValueError("pump wavelength must be positive")
            inv3 = 1.0 / self.lambda2 - 1.0 / self.lambda1
            if inv3 <= 0:
                raise ValueError("lambda2 must be shorter than lambda1 for a real pump")
            rel = abs(inv3 - 1.0 / self.lambda3) * self.lambda3
            if rel > WAVELENGTH_REL_TOL:
                raise ValueError(
                    f"1/lambda3 = 1/lambda2 - 1/lambda1 violated by relative error "
                    f"{rel:.3e} (> {WAVELENGTH_REL_TOL:.0e})")

    @classmethod
    def from_free_space(cls, source_separation: float, screen_distance: float,
                        detector_separation: float | np.ndarray, lambda1: float,
                        lambda2: float, lambda3: float | None
                        ) -> "InterferometerGeometry":
        """Planar geometry: sources at (+-s/2, 0), detectors at (+-x/2, R).

        The detector separation is applied symmetrically about the optical
        axis, which keeps the fringe strictly periodic in x; paths are exact
        Euclidean distances.  Source 1 sits at -s/2 and detector A at -x/2.
        An array of separations gives a batch, one geometry per separation.
        """
        if screen_distance <= 0:
            raise ValueError("screen distance must be positive")
        s, x, r = source_separation, detector_separation, screen_distance

        def dist(xs, xd):
            return np.hypot(r, xd - xs)

        return cls(lambda1, lambda2, lambda3,
                   l_1a=dist(-s / 2, -x / 2), l_1b=dist(-s / 2, +x / 2),
                   l_2a=dist(+s / 2, -x / 2), l_2b=dist(+s / 2, +x / 2))

    def with_delay(self, delay_b: float | np.ndarray) -> "InterferometerGeometry":
        return InterferometerGeometry(self.lambda1, self.lambda2, self.lambda3,
                                      self.l_1a, self.l_1b, self.l_2a, self.l_2b,
                                      delay_b=delay_b)

    def points(self):
        """The scalar geometries of a batch, in order; a scalar geometry
        yields itself."""
        lengths = np.broadcast(self.l_1a, self.l_1b, self.l_2a, self.l_2b, self.delay_b)
        if lengths.ndim == 0:
            yield self
            return
        for l_1a, l_1b, l_2a, l_2b, delay_b in lengths:
            yield InterferometerGeometry(self.lambda1, self.lambda2, self.lambda3,
                                         l_1a, l_1b, l_2a, l_2b, delay_b)

    def path_phase(self, source: int, detector: str) -> float | np.ndarray:
        """Propagation phase 2*pi*L/lambda from a source (1 or 2) to a
        detector ('A' or 'B'), reduced modulo 2*pi.

        L is the path length plus, into detector B, the arm-B delay, which
        adds to both wavelengths equally (fiber-delay picture).  Macroscopic
        paths span ~1e5 wavelengths, so the unreduced phase would round at
        the 1e-10 rad level and sums of such phases would lose the
        interference identities; reducing L/lambda modulo one cycle first
        keeps every downstream phase combination consistent to machine
        precision."""
        if detector == "A":
            length, delay = (self.l_1a if source == 1 else self.l_2a), 0.0
        else:
            length, delay = (self.l_1b if source == 1 else self.l_2b), self.delay_b
        lam = self.lambda1 if source == 1 else self.lambda2
        cycles = (length + delay) / lam
        return 2.0 * math.pi * np.fmod(cycles, 1.0)


@dataclass(frozen=True)
class PropagationAmplitudes:
    """The four single-photon amplitudes D_1A, D_1B, D_2A, D_2B."""

    d_1a: complex
    d_1b: complex
    d_2a: complex
    d_2b: complex

    def with_source_phases(self, theta1, theta2) -> "PropagationAmplitudes":
        """Source j's amplitudes times exp(i*theta_j), elementwise for arrays."""
        e1, e2 = np.exp(1j * theta1), np.exp(1j * theta2)
        return PropagationAmplitudes(self.d_1a * e1, self.d_1b * e1,
                                     self.d_2a * e2, self.d_2b * e2)


@dataclass(frozen=True)
class CoincidenceResult:
    """probability = constant_term + interference_term, with an optional
    per-term breakdown for the superposition formula."""

    probability: float
    constant_term: float
    interference_term: float
    terms: tuple = field(default=())

    def __post_init__(self):
        if self.probability < -1e-12:
            raise ValueError(f"negative probability {self.probability}")


def amplitudes(geometry: InterferometerGeometry) -> PropagationAmplitudes:
    """D = (1/sqrt2) * exp(i*2*pi*L/lambda) for each source-detector pair;
    emission phases are applied by with_source_phases."""
    amp = 1.0 / math.sqrt(2.0)
    return PropagationAmplitudes(*(amp * np.exp(1j * geometry.path_phase(source, det))
                                   for source in (1, 2) for det in ("A", "B")))


def fringe_phase(geometry: InterferometerGeometry) -> float:
    """2*pi*(L1A/l1 + L2B/l2 - L1B/l1 - L2A/l2), source phases cancel."""
    return (geometry.path_phase(1, "A") + geometry.path_phase(2, "B")
            - geometry.path_phase(1, "B") - geometry.path_phase(2, "A"))


def _two_photon_paths(amps: PropagationAmplitudes, theta: float, phase: float) -> tuple:
    """Amplitudes of the two-photon paths to one color-2 photon at each
    detector: (direct, swap, pair1, pair2), one photon from each source into
    A and B or into B and A, or both photons from source 1 or from source 2.
    Each photon passes the detector's color rotation, whose color-2 row
    (k1, k2) is what detector_couplings gives a filter-2 DetectorSetting."""
    k1, k2 = effective_rotation(theta, phase)[1]
    return (k1 * k2 * amps.d_1a * amps.d_2b, k1 * k2 * amps.d_1b * amps.d_2a,
            k1 ** 2 * amps.d_1a * amps.d_1b, k2 ** 2 * amps.d_2a * amps.d_2b)


def coincidence_single_photon(amps: PropagationAmplitudes,
                              theta: float) -> CoincidenceResult:
    """Both-detectors-fire probability for one photon from each source,
    both detectors at conversion angle theta and filter color 2:
    |k1 k2 (D1A D2B + D1B D2A)|^2, which is (1/8)(1 + cos Delta) at pi/4."""
    return coincidence_thermal(amps, theta, (0, 1, 0), (0, 1, 0))


def _superposition_terms(amps: PropagationAmplitudes, theta: float,
                         phase: float, c: tuple, d: tuple) -> tuple:
    """(terms, constant, interference) of coincidence_superposition,
    elementwise over array amplitudes: the terms expand |a_s + a_1 + a_2|^2,
    a_s one photon from each source, a_1 and a_2 a pair from source 1 or 2."""
    if len(c) != 3 or len(d) != 3:
        raise ValueError("coefficient vectors must have three entries (n = 0, 1, 2)")
    direct, swap, pair1, pair2 = _two_photon_paths(amps, theta, phase)
    a_s = c[1] * d[1] * (direct + swap)
    a_1, a_2 = c[2] * d[0] * pair1, c[0] * d[2] * pair2
    terms = (abs(a_s) ** 2, abs(a_1) ** 2, abs(a_2) ** 2,
             2.0 * (a_s * np.conj(a_1)).real, 2.0 * (a_s * np.conj(a_2)).real,
             2.0 * (a_1 * np.conj(a_2)).real)
    single_const = abs(c[1] * d[1]) ** 2 * (abs(direct) ** 2 + abs(swap) ** 2)
    constant = single_const + terms[1] + terms[2]
    return terms, constant, terms[0] - single_const + sum(terms[3:])


def coincidence_superposition(amps: PropagationAmplitudes, theta: float,
                              phase: float, c: tuple, d: tuple) -> CoincidenceResult:
    """Coincidence probability for number-superposition sources, truncated
    at two photons per source.

    The six terms of the displayed expansion are returned separately
    (attribute .terms) in the order: single-single, pair-from-1,
    pair-from-2, and the three cross terms.  Only the cross terms and the
    swap part of the first term depend on the emission phases.
    """
    terms, constant, interference = _superposition_terms(amps, theta, phase, c, d)
    return CoincidenceResult(sum(terms), constant, interference, terms)


def time_average_superposition(base: PropagationAmplitudes, theta: float,
                               phase: float, c: tuple, d: tuple,
                               grid_size: int) -> CoincidenceResult:
    """Average the superposition coincidence over emission phases.

    theta1 and theta2 run over a uniform grid_size x grid_size grid on
    [0, 2*pi); the phase-dependent terms are trigonometric polynomials of
    harmonic order at most two, so any grid_size >= 3 kills them exactly.
    grid sizes below 4 are rejected per contract.
    """
    if grid_size < 4:
        raise ValueError("grid_size must be at least 4")
    phis = 2.0 * math.pi * np.arange(grid_size) / grid_size
    # theta1 down the rows, theta2 along the columns; a term of one source's
    # phases alone stays one row or column, whose mean is the grid's
    terms, constant, interference = _superposition_terms(
        base.with_source_phases(phis[:, None], phis), theta, phase, c, d)
    return CoincidenceResult(sum(terms).mean(), constant.mean(),
                             interference.mean(), tuple(t.mean() for t in terms))


def coincidence_thermal(amps: PropagationAmplitudes, theta: float,
                        p: tuple, q: tuple) -> CoincidenceResult:
    """Coincidence probability for incoherent number mixtures (two lines):
    the incoherent sum p1 q1 |direct + swap|^2 + p2 q0 |pair1|^2
    + p0 q2 |pair2|^2 of the two-photon paths, whose only phase-sensitive
    piece is the swap interference inside the first term."""
    if len(p) != 3 or len(q) != 3:
        raise ValueError("probability vectors must have three entries (n = 0, 1, 2)")
    # the pump phase drops out of every modulus of an incoherent sum
    direct, swap, pair1, pair2 = _two_photon_paths(amps, theta, 0.0)
    terms = (p[1] * q[1] * abs(direct + swap) ** 2, p[2] * q[0] * abs(pair1) ** 2,
             p[0] * q[2] * abs(pair2) ** 2)
    interference = p[1] * q[1] * 2.0 * (direct * np.conj(swap)).real
    probability = sum(terms)
    return CoincidenceResult(probability, probability - interference, interference, terms)


# ---------------------------------------------------------------------------
# The color-erasure detector, the source pair and the semiclassical
# pair-detection law.

def effective_rotation(theta: float, phase: float = 0.0) -> np.ndarray:
    """Strong-pump color rotation on the signal qubit.

    Columns applied to (1,0) and (0,1) give the asymptotic post-conversion
    states of an incoming color-1 and color-2 photon respectively.
    """
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -np.exp(-1j * phase) * s],
                     [np.exp(1j * phase) * s, c]], dtype=complex)


@dataclass(frozen=True)
class DetectorSetting:
    """Operating point of one color-erasure detector.

    theta is the conversion angle chi*T*sqrt(N), or None for a detector
    without a conversion stage (pump off; see detector_couplings).
    output_filter selects which color is detected (1 or 2);
    visibility_degradation is a scalar standing in for multimode noise and
    multiplies interference terms downstream, never the constant terms.
    """

    theta: float | None
    pump_phase: float = 0.0
    output_filter: int = 2
    efficiency: float = 1.0
    dark_count_rate: float = 0.0
    visibility_degradation: float = 1.0

    def __post_init__(self):
        if self.output_filter not in (1, 2):
            raise ValueError("output_filter must be 1 or 2")
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError("efficiency must lie in [0, 1]")
        if not 0.0 <= self.visibility_degradation <= 1.0:
            raise ValueError("visibility_degradation must lie in [0, 1]")
        if self.dark_count_rate < 0.0:
            raise ValueError("dark_count_rate must be nonnegative")


@dataclass(frozen=True)
class SourcePair:
    """The two sources, one record that the law and the Monte Carlo share.

    Both are of one kind and share coherence_time tc, the pair's mutual
    coherence time.  "coherent" is two lasers of constant intensity whose
    beat phase walks with variance 2|t|/tc (each laser's with |t|/tc), so
    the beat decays as exp(-|tau|/tc) and each line is 1/(2*pi*tc) wide.
    "thermal" gives each source one complex Gaussian amplitude per slot of
    one lattice of period tc at a uniform random offset: a split beam has
    g2(tau) = 1 + (1 - |tau|/tc)+, not a Lorentzian 1 + exp(-2|tau|/tc).
    rate1 and rate2 are photon rates (s^-1), rate2 = 0 one beam on a
    splitter; source 2's carrier lies detuning_hz above source 1's.
    """

    kind: str
    rate1: float
    rate2: float
    coherence_time: float
    detuning_hz: float = 0.0

    def __post_init__(self):
        if self.kind not in ("coherent", "thermal"):
            raise ValueError(f"unknown source kind {self.kind!r}")
        if self.rate1 <= 0.0:
            raise ValueError("rate1 must be positive")
        if self.rate2 < 0.0:
            raise ValueError("rate2 must be nonnegative")
        if self.coherence_time <= 0.0:
            raise ValueError("coherence_time must be positive")

    @property
    def rates_at_detector(self) -> tuple[float, float]:
        """Each source's photon rate at each detector in s^-1: the arms split
        each source's light evenly between detectors A and B."""
        return self.rate1 / 2.0, self.rate2 / 2.0


def detector_couplings(det: DetectorSetting, geometry: InterferometerGeometry
                       ) -> tuple[complex, complex, bool]:
    """What one detector sees of the two colors: (k1, k2, beats).

    k1 and k2 are the amplitude couplings of source-1 and source-2 light
    into the detected output color; beats says whether the two colors
    interfere there.  A converting detector's couplings are the row of
    effective_rotation for the filtered color, and its colors always beat.
    A detector without a conversion stage (theta None, the pump off) sees
    both colors at unit coupling, and they beat only when their wavelengths
    coincide to 1e-12 relative.
    """
    if det.theta is None:
        same = abs(geometry.lambda1 - geometry.lambda2) <= 1e-12 * geometry.lambda1
        return 1.0 + 0.0j, 1.0 + 0.0j, same
    k1, k2 = effective_rotation(det.theta, det.pump_phase)[det.output_filter - 1]
    return complex(k1), complex(k2), True


def detector_rates(det: DetectorSetting, geometry: InterferometerGeometry, w1: float,
                   w2: float, psi: float = 0.0) -> tuple[float, float, float, float]:
    """Rate terms (b1, b2, swing, offset) of one detector, efficiency folded
    in: at source intensities i1, i2 and beat phase phi it detects
    b1*i1 + b2*i2 + swing*sqrt(i1*i2)*cos(phi + offset) photons per second,
    for source photon rates w1, w2 at it (s^-1) and path-phase difference psi."""
    k1, k2, beats = detector_couplings(det, geometry)
    cross = (math.sqrt(det.visibility_degradation) * k1 * np.conj(k2)
             * math.sqrt(w1 * w2) * np.exp(1j * psi)) if beats else 0.0j
    eff = det.efficiency
    return (eff * abs(k1) ** 2 * w1, eff * abs(k2) ** 2 * w2,
            eff * 2.0 * abs(cross), float(np.angle(cross)))


def pair_fringe_law(det_a: DetectorSetting, det_b: DetectorSetting,
                    geometry: InterferometerGeometry, source_kind: str,
                    weight1: float = 0.5, weight2: float = 0.5
                    ) -> tuple[float, float, float]:
    """Normalized coincidence law g2 = baseline + amplitude*cos(Delta + offset).

    Returns (baseline, amplitude, offset) for the given detector pair,
    wavelengths and source statistics; Delta is the geometric fringe phase.
    weight1/weight2 are each source's photon rate at each detector in s^-1
    (SourcePair.rates_at_detector).
    From each detector's detector_rates, with S = b1 + b2, the amplitude is
    swing_A*swing_B/(2*S_A*S_B) and the thermal pedestal
    (b1_A*b1_B + b2_A*b2_B)/(S_A*S_B); dark counts at rate d dilute both by
    rho = S/(S + d) per detector.
    """
    (b1a, b2a, swing_a, offset_a), (b1b, b2b, swing_b, offset_b) = (
        detector_rates(det, geometry, weight1, weight2) for det in (det_a, det_b))
    s_a, s_b = b1a + b2a, b1b + b2b
    if s_a <= 0 or s_b <= 0:
        raise ValueError("detector sees no light; check couplings and weights")
    dilution = s_a / (s_a + det_a.dark_count_rate) * (s_b / (s_b + det_b.dark_count_rate))
    pedestal = {"coherent": 0.0, "thermal": (b1a * b1b + b2a * b2b) / (s_a * s_b)}
    if source_kind not in pedestal:
        raise ValueError(f"unknown source kind {source_kind!r}")
    return (1.0 + dilution * pedestal[source_kind],
            dilution * swing_a * swing_b / (2.0 * s_a * s_b), offset_a - offset_b)


def fringe_scan(geometry: InterferometerGeometry, source_kind: str,
                det_a: DetectorSetting, det_b: DetectorSetting,
                weight1: float = 0.5, weight2: float = 0.5) -> np.recarray:
    """Analytic normalized coincidence over a batch geometry (free space:
    one per detector separation), one record per geometry with the fields
    probability, constant_term and interference_term."""
    base, amp, offset = pair_fringe_law(det_a, det_b, geometry, source_kind, weight1, weight2)
    osc = amp * np.cos(fringe_phase(geometry) + offset)
    scan = np.rec.fromarrays(np.broadcast_arrays(base + osc, base, osc),
                             names="probability,constant_term,interference_term")
    if np.any(scan.probability < -1e-12):
        raise ValueError(f"negative probability {scan.probability.min()}")
    return scan


def delay_scan(geometry: InterferometerGeometry, delays: np.ndarray,
               source_kind: str, det_a: DetectorSetting, det_b: DetectorSetting,
               weight1: float = 0.5, weight2: float = 0.5) -> np.recarray:
    """Analytic normalized coincidence versus arm-B optical delay.

    For balanced coherent sources and matched pi/4 detectors without dark
    counts the curve is 1 + 0.5*v_deg*cos(2*pi*d/lambda3 + const).
    """
    delayed = geometry.with_delay(geometry.delay_b + np.asarray(delays, dtype=float))
    return fringe_scan(delayed, source_kind, det_a, det_b, weight1, weight2)
