"""Built-in consistency checks behind the `selftest` CLI command.

The fast level runs analytic identities in a few seconds; the full level
adds the Fock-space oracle equivalences and short statistical runs.  Each
check prints one PASS/FAIL line; any failure makes the suite fail.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .erasure import erasure_overlap, evolved_signal_density
from .fock import (
    CoherentSpec,
    FockBasis,
    TrilinearHamiltonian,
    default_pump_cutoff,
    evolve_brute_force,
    evolve_closed_form,
    single_photon_with_pump,
)
from .interferometry import (
    DetectorSetting,
    InterferometerGeometry,
    SPEED_OF_LIGHT,
    SourcePair,
    amplitudes,
    coincidence_single_photon,
    coincidence_superposition,
    coincidence_thermal,
    effective_rotation,
    fringe_phase,
    time_average_superposition,
)
from .stochastic import (
    EventStream,
    estimate_g2,
    fitted_visibility,
    fringe_fft,
    g2_zero_scan,
    simulate_events,
    substream,
)

LASER_GEOMETRY = InterferometerGeometry(1549.800e-9, 863.344e-9, 1949.157e-9,
                                        0.05, 0.05, 0.05, 0.05)


def _random_geometry(rng) -> InterferometerGeometry:
    paths = rng.uniform(0.005, 0.25, size=4)
    return InterferometerGeometry(1549.800e-9, 863.344e-9, 1949.157e-9,
                                  *paths)


def check_rotation_unitarity() -> tuple[bool, str]:
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        theta, phi = rng.uniform(0, 2 * math.pi, size=2)
        u = effective_rotation(theta, phi)
        worst = max(worst, float(np.max(np.abs(u @ u.conj().T - np.eye(2)))))
    return worst < 1e-14, f"max |U U^dag - 1| = {worst:.2e}"


def check_fringe_identity() -> tuple[bool, str]:
    """Acceptance criterion 04."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        geo = _random_geometry(rng)
        res = coincidence_single_photon(amplitudes(geo), math.pi / 4)
        ref = 0.125 * (1.0 + math.cos(fringe_phase(geo)))
        worst = max(worst, abs(res.probability - ref))
    return worst <= 1e-12, (f"max |P - (1/8)(1+cos Delta)| = {worst:.2e} <= 1e-12 "
                            "over 1000 geometries")


def check_color_rotation_limit() -> tuple[bool, str]:
    """Acceptance criterion 03: at N = 64 the exactly evolved signal state
    of either input color is within 1 - 3/sqrt(N) of the asymptotic color
    rotation, whose two outputs are orthogonal."""
    n_mean, theta, phase = 64.0, 0.9, 0.4
    outputs = effective_rotation(theta, phase).T  # row k-1: color k's output
    # pure-state fidelity <v|rho|v>
    fids = [np.vdot(v, evolved_signal_density(mode, n_mean, theta, phase) @ v).real
            for mode, v in zip((1, 2), outputs)]
    ortho = abs(np.vdot(*outputs))
    floor = 1.0 - 3.0 / math.sqrt(n_mean)
    return min(fids) >= floor and ortho <= 1e-12, (
        f"fidelities {fids[0]:.5f}/{fids[1]:.5f} >= {floor:.5f}, "
        f"<Phi1|Phi2> = {ortho:.1e} <= 1e-12")


def check_superposition_reduction() -> tuple[bool, str]:
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(100):
        geo = _random_geometry(rng)
        theta = rng.uniform(0.1, 1.4)
        amps = amplitudes(geo).with_source_phases(rng.uniform(0, 2 * math.pi),
                                                  rng.uniform(0, 2 * math.pi))
        full = coincidence_superposition(amps, theta, 0.3, (0, 1, 0), (0, 1, 0))
        single = coincidence_single_photon(amps, theta)
        worst = max(worst, abs(full.probability - single.probability))
    return worst < 1e-12, f"max reduction mismatch = {worst:.2e}"


def check_phase_average() -> tuple[bool, str]:
    """Acceptance criterion 05."""
    rng = np.random.default_rng(55)
    worst_cross = 0.0
    worst_match = 0.0
    for _ in range(20):
        geo = _random_geometry(rng)
        amps = amplitudes(geo)
        theta = rng.uniform(0.15, 1.4)
        p, q = rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3))
        c = tuple(math.sqrt(x) * np.exp(1j * rng.uniform(0, 2 * math.pi)) for x in p)
        d = tuple(math.sqrt(x) * np.exp(1j * rng.uniform(0, 2 * math.pi)) for x in q)
        avg = time_average_superposition(amps, theta, 0.6, c, d, 16)
        worst_cross = max(worst_cross, max(abs(t) for t in avg.terms[3:]))
        therm = coincidence_thermal(amps, theta, tuple(p), tuple(q))
        worst_match = max(worst_match, abs(avg.probability - therm.probability))
    ok = worst_cross < 1e-10 and worst_match < 1e-3
    return ok, (f"16x16 grid cross-term residual {worst_cross:.2e} < 1e-10, "
                f"thermal match {worst_match:.2e} < 1e-3")


def check_fft_peak() -> tuple[bool, str]:
    lam3 = 1949.157e-9
    delays = np.linspace(0, 10 * lam3, 64, endpoint=False)
    values = 1.0 + 0.5 * np.cos(2 * math.pi * delays / lam3 + 0.4)
    freqs, _, peak = fringe_fft(delays, values)
    bin_hz = freqs[1] - freqs[0]
    target = SPEED_OF_LIGHT / lam3
    return abs(peak - target) <= bin_hz, \
        f"peak {peak / 1e12:.2f} THz vs {target / 1e12:.2f} THz (bin {bin_hz / 1e12:.2f})"


def check_oracle_equivalence() -> tuple[bool, str]:
    """Acceptance criterion 01 (without its time bound)."""
    worst = 0.0
    for n_mean in (1.0, 4.0, 16.0, 64.0):
        basis = FockBasis(1, 1, default_pump_cutoff(n_mean))
        ham = TrilinearHamiltonian(basis)
        pump = CoherentSpec(n_mean, 0.3)
        for theta in (math.pi / 8, math.pi / 4, math.pi / 2):
            chi_t = theta / math.sqrt(n_mean)
            for mode in (1, 2):
                closed = evolve_closed_form(mode, pump, chi_t, basis)
                start = single_photon_with_pump(mode, pump, basis)
                brute = evolve_brute_force(start, ham, chi_t)
                worst = max(worst, float(np.max(np.abs(closed.amplitudes
                                                       - brute.amplitudes))))
    return worst <= 1e-10, f"max amplitude mismatch {worst:.2e} <= 1e-10"


def check_overlap_scaling() -> tuple[bool, str]:
    """The indistinguishability deficit is bounded by O(1/sqrt(N)) and the
    overlap grows monotonically, exceeding 0.99 well before N = 1000 (the
    exact truncated computation runs the whole range; no asymptotic series
    is needed)."""
    ns = (4.0, 16.0, 64.0, 1000.0)
    overlaps = [erasure_overlap(n, math.pi / 4) for n in ns]
    deficits = [1.0 - ov for ov in overlaps]
    bounded = all(d * math.sqrt(n) < 1.0 for n, d in zip(ns, deficits))
    monotone = all(a < b for a, b in zip(overlaps, overlaps[1:]))
    ok = bounded and monotone and overlaps[-1] > 0.99
    return ok, ("deficit*sqrt(N) = "
                + ", ".join(f"{d * math.sqrt(n):.3f}" for n, d in zip(ns, deficits)))


def check_poisson_independence() -> tuple[bool, str]:
    # two independent Poisson streams at 0.02 counts per gate: g2 = 1 at
    # every offset within shot noise
    rng = substream(2024, 0, 0)
    duration_ps = 5_000_000_000
    streams = []
    for det in ("A", "B"):
        ts = np.unique(rng.integers(0, duration_ps, size=100_000).astype(np.int64))
        streams.append(EventStream(det, ts, duration_ps, 2024))
    curve = estimate_g2(streams[0], streams[1], [0, 5000, 40_000], 1000)
    worst = 0.0
    for val, nc in zip(curve.values, curve.n_coincidence):
        bound = 5.0 / math.sqrt(max(int(nc), 1))
        worst = max(worst, abs(val - 1.0) / bound)
    return worst < 1.0, f"max |g2-1|/(5/sqrt(nc)) = {worst:.3f}"


def check_thermal_g2() -> tuple[bool, str]:
    beam = SourcePair("thermal", 2e7, 0.0, 6.366e-9)
    det = DetectorSetting(None, efficiency=0.55)
    # 0.15 s: about 4500 coincidences, so the window is 5 standard errors
    # g2/sqrt(n_coinc) wide
    a, b = simulate_events(beam, LASER_GEOMETRY, det, det, 0.15, 99)
    g2 = estimate_g2(a, b, [0], 500).values[0]
    return abs(g2 - 2.0) < 0.15, f"splitter g2(0) = {g2:.3f}"


def check_laser_visibility() -> tuple[bool, str]:
    lam3 = 1949.157e-9
    delays = np.linspace(0, 1.5 * lam3, 9, endpoint=False)
    pair = SourcePair("coherent", 4e7, 4e7, 318e-9)
    det = DetectorSetting(math.pi / 4, efficiency=0.5)
    g2 = g2_zero_scan(pair, LASER_GEOMETRY.with_delay(delays), det, det, 0.03, [1000], 515)
    vis = fitted_visibility(delays, g2[:, 0], lam3)
    return abs(vis - 0.5) < 0.06, f"fitted visibility = {vis:.3f}"


FAST_CHECKS = [
    ("rotation-unitarity", check_rotation_unitarity),
    ("fringe-identity", check_fringe_identity),
    ("color-rotation-limit", check_color_rotation_limit),
    ("superposition-reduction", check_superposition_reduction),
    ("phase-average", check_phase_average),
    ("fft-peak", check_fft_peak),
]

FULL_CHECKS = FAST_CHECKS + [
    ("fock-oracle-equivalence", check_oracle_equivalence),
    ("overlap-scaling", check_overlap_scaling),
    ("poisson-independence", check_poisson_independence),
    ("thermal-splitter-g2", check_thermal_g2),
    ("laser-visibility", check_laser_visibility),
]


def run_selftest(full: bool = False) -> bool:
    checks = FULL_CHECKS if full else FAST_CHECKS
    all_ok = True
    for name, fn in checks:
        started = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok &= ok
        status = "PASS" if ok else "FAIL"
        print(f"{status} {name:28s} {detail}  [{time.perf_counter() - started:.1f}s]")
    return all_ok
