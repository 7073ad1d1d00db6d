"""One repetition of one chromint benchmark workload, in a fresh interpreter.

    python3 perfbench/workloads.py --workload NAME --seed N --trace 0|1 \\
        --dir RUN_DIR --spawned MONOTONIC_TIME

run.py starts this once per repetition, with the checkout's src/ on
PYTHONPATH and the BLAS thread count fixed in the environment, and removes
RUN_DIR afterwards.  The repetition sets up its input from the seed, runs
the timed region, checks the outputs and prints one JSON line: set-up time
(from --spawned, taken by run.py just before starting this interpreter),
wall time of the timed region, peak resident memory, the failed checks, a
digest of the outputs that must not change between repetitions of a seed
and, when traced, the per-layer metrics.

The package is driven only through its public functions; with --trace 1
the calls into each layer are timed from outside (see spans.py).
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import os
import platform
import resource
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import scipy
import yaml

from chromint import cli, erasure, fock, interferometry, scenarios, stochastic
from spans import Tracer

GATE_PS = 1000
LAMBDAS_M = (1549.800e-9, 863.344e-9, 1949.157e-9)

# laser_scan: the published laser operating point, 24 delays of 10 ms each.
LASER_RATE_HZ = 4.0e7
LASER_EFFICIENCY = 0.195
LASER_DURATION_PS = 1.0e10
LASER_DELAYS = 24

# thermal_gates: gate_time_study at 10 ms per delay.
THERMAL_DURATION_PS = 1.0e10
THERMAL_GATES_PS = (100, 1000, 200_000)

# timetag_g2: two recorded tag streams over 20 ms.
TAG_DURATION_PS = 20_000_000_000
TAG_RATE_HZ = 2.0e7
TAG_PLANTED_FRACTION = 0.05
TAG_JITTER_PS = 100.0
TAG_TAUS_PS = np.arange(-100, 101, dtype=np.int64) * GATE_PS
TAG_MAX_DELAY_BINS = 80

# exact_oracle
ORACLE_N = (16, 64, 128, 256)
ORACLE_THETA = math.pi / 4
ORACLE_TOLERANCE = 1e-10  # acceptance criterion 01
LADDER_N = tuple(2 ** k for k in range(2, 11))  # 4 .. 1024
SCAN_POINTS = 10_000
PHASE_GRID = 64


def sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def sha256_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Workloads.  Each takes (seed, run_dir), does its set-up and returns
# (run, check): run() is the timed region and check(output) returns
# (failed checks, output digest, counters reported with the per-layer
# metrics).

def write_config(path: Path, **fields) -> Path:
    path.write_text(yaml.safe_dump(fields))
    return path


def run_cli(config: Path, out: Path) -> int:
    return cli.main(["run", str(config), "--out", str(out)])


def read_manifest(code: int, out: Path, expected_files: set) -> tuple[dict, list]:
    """The scenario's manifest and the checks every scenario run must pass."""
    manifest_path = out / "manifest.json"
    if code != 0 or not manifest_path.is_file():
        return {}, [f"chromint run exited {code} without a manifest"]
    manifest = json.loads(manifest_path.read_text())
    files = set(manifest["data_files"])
    if files != expected_files:
        return manifest, [f"manifest data_files {sorted(files)} != {sorted(expected_files)}"]
    return manifest, []


def laser_scan(seed: int, run_dir: Path):
    """`chromint run` on a laser_delay_scan config, 24 delays of 10 ms each.

    Generation dominates: when the benchmark was written, simulate_events
    took 90% of the run over 24 calls, estimate_g2 9.6% with one tau per
    call, and the analytic scan, fit and CSV together under 0.1%.  This is the
    coherent-source path that event-driven generation would rewrite.
    """
    config = write_config(run_dir / "laser.yaml", scenario="laser_delay_scan",
                          seed=seed, duration_ps=LASER_DURATION_PS,
                          source_rate_hz=LASER_RATE_HZ,
                          efficiency=LASER_EFFICIENCY, gate_ps=GATE_PS,
                          delay_points=LASER_DELAYS)
    out = run_dir / "scenario"

    def check(code):
        manifest, errors = read_manifest(
            code, out, {"delay_scan_analytic.csv", "delay_scan_mc.csv"})
        if errors:
            return errors, "", {}
        # At theta = pi/4 each detector counts half the source rate, thinned
        # by the efficiency; an uncorrelated pair of such streams gives
        # `coincidences` per delay, and a known-period fit over the delays
        # has visibility standard error sqrt(2 / (delays * coincidences)).
        singles = LASER_RATE_HZ / 2 * LASER_EFFICIENCY * LASER_DURATION_PS * 1e-12
        coincidences = singles ** 2 / (LASER_DURATION_PS / GATE_PS)
        bound = 5.0 * math.sqrt(2.0 / (LASER_DELAYS * coincidences))
        vis = manifest["results"]["fitted_visibility"]
        if not abs(vis - 0.5) <= bound:
            errors.append(f"fitted visibility {vis:.4f} outside 0.5 +- {bound:.4f}")
        return errors, sha256_json(manifest["data_files"]), {}

    return (lambda: run_cli(config, out)), check


def thermal_gates(seed: int, run_dir: Path):
    """`chromint run` on a gate_time_study config at 10 ms per delay.

    10 delays x 4 trials x 3 gates: generation goes through the
    thermal-slot path instead, and the estimator is called 120 times with
    one tau per call at three gates, including the 200 ns gate at high
    occupancy.  A gain for coherent generation or many-tau estimation that
    costs another use of the same layer shows up here.
    """
    config = write_config(run_dir / "thermal.yaml", scenario="gate_time_study",
                          seed=seed, duration_ps=THERMAL_DURATION_PS,
                          gates_ps=list(THERMAL_GATES_PS), gate_trials=4,
                          delay_points=10)
    out = run_dir / "scenario"

    def check(code):
        manifest, errors = read_manifest(code, out, {"gate_time.csv"})
        if errors:
            return errors, "", {}
        lines = (out / "gate_time.csv").read_text().splitlines()[1:]
        vis = {int(row.split(",")[0]): float(row.split(",")[1]) for row in lines}
        if not vis[200_000] < vis[1000]:
            errors.append(f"no washout: 200 ns visibility {vis[200_000]:.4f} "
                          f">= 1 ns visibility {vis[1000]:.4f}")
        return errors, sha256_json(manifest["data_files"]), {}

    return (lambda: run_cli(config, out)), check


def timetag_streams(seed: int):
    """Two tag streams of independent Poisson arrivals, plus a copy in B of
    a fraction of A's tags at a planted delay (a whole number of gates,
    with picosecond jitter).  Generated with numpy alone, so changes to
    chromint's own random streams leave this input unchanged."""
    rng = np.random.default_rng(seed)
    mean = TAG_RATE_HZ * TAG_DURATION_PS * 1e-12
    a = rng.integers(0, TAG_DURATION_PS, size=rng.poisson(mean))
    b = rng.integers(0, TAG_DURATION_PS,
                     size=rng.poisson(mean * (1 - TAG_PLANTED_FRACTION)))
    delay_ps = int(rng.integers(-TAG_MAX_DELAY_BINS, TAG_MAX_DELAY_BINS + 1)) * GATE_PS
    copied = a[rng.random(a.size) < TAG_PLANTED_FRACTION]
    jitter = np.rint(rng.normal(0.0, TAG_JITTER_PS, copied.size)).astype(np.int64)
    partners = copied + delay_ps + jitter
    partners = partners[(partners >= 0) & (partners < TAG_DURATION_PS)]
    return sorted_unique(a), sorted_unique(np.concatenate([b, partners])), delay_ps


def sorted_unique(tags: np.ndarray) -> np.ndarray:
    # np.unique gives the same array but is an order of magnitude slower
    # here than a sort, on numpy 2.4.
    tags = np.sort(tags)
    return tags[np.concatenate(([True], tags[1:] != tags[:-1]))]


def timetag_g2(seed: int, run_dir: Path):
    """estimate_g2 over 201 tau at a 1 ns gate on two tag streams of about
    400k events each over 20 ms.

    The estimator does all the work here and generation none: this is the
    workload a many-tau, one-pass estimator has to speed up.
    """
    a, b, delay_ps = timetag_streams(seed)
    stream_a = stochastic.EventStream("A", a, TAG_DURATION_PS, seed)
    stream_b = stochastic.EventStream("B", b, TAG_DURATION_PS, seed)

    def check(curve):
        errors = []
        n_bin = -(-TAG_DURATION_PS // GATE_PS)
        if (curve.n_a, curve.n_b, curve.n_bin) != (a.size, b.size, n_bin):
            errors.append(f"counts (n_a, n_b, n_bin) = {(curve.n_a, curve.n_b, curve.n_bin)}"
                          f", expected {(a.size, b.size, n_bin)}")
        if not np.array_equal(curve.taus_ps, TAG_TAUS_PS):
            errors.append("curve taus differ from the requested taus")
            return errors, "", {}
        expected = curve.n_coincidence * (curve.n_bin / (curve.n_a * curve.n_b))
        if not np.allclose(curve.values, expected, rtol=1e-12, atol=0.0):
            errors.append("g2 != n_coinc * n_bin / (n_a * n_b)")
        peak = int(curve.taus_ps[np.argmax(curve.values)])
        if peak != delay_ps:
            errors.append(f"g2 peak at {peak} ps, planted at {delay_ps} ps")
        baseline = np.abs(curve.taus_ps - delay_ps) > 2 * GATE_PS
        bias = abs(float(np.mean(curve.values[baseline])) - 1.0)
        digest = sha256_arrays(curve.taus_ps, curve.n_coincidence, curve.values,
                               np.array([curve.n_a, curve.n_b, curve.n_bin]))
        return errors, digest, {"stochastic.g2_baseline_bias": bias}

    return (lambda: stochastic.estimate_g2(stream_a, stream_b, TAG_TAUS_PS, GATE_PS)), check


def oracle_bases() -> dict:
    return {n: fock.FockBasis(1, 1, fock.default_pump_cutoff(n)) for n in ORACLE_N}


def exact_oracle(seed: int, run_dir: Path):
    """evolve_brute_force against evolve_closed_form for both input modes at
    N = 16, 64, 128 and 256 (dim 316/700/1116/1852), then the
    erasure_overlap ladder N = 4..1024, delay_scan at 10^4 points and
    time_average_superposition at grid 64.

    The only workload on fock, erasure and interferometry, which would
    otherwise go unmeasured; brute force at N = 256 dominates it.
    """
    rng = np.random.default_rng(seed)
    pump_phase = float(rng.uniform(0.0, 2.0 * math.pi))
    bases = oracle_bases()
    geometry = interferometry.InterferometerGeometry(*LAMBDAS_M, *rng.uniform(0.005, 0.25, 4))
    det_a, det_b = (erasure.DetectorSetting(math.pi / 4, float(phi), output_filter=1)
                    for phi in rng.uniform(0.0, 2.0 * math.pi, 2))
    delays = np.linspace(0.0, 2.0 * LAMBDAS_M[2], SCAN_POINTS, endpoint=False)
    amps = interferometry.amplitudes(geometry)
    sup_theta, sup_phase = float(rng.uniform(0.15, 1.4)), float(rng.uniform(0.0, 2.0 * math.pi))
    c, d = (tuple(np.sqrt(p) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 3)))
            for p in (rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3))))

    def run():
        pairs = []
        for n, basis in bases.items():
            hamiltonian = fock.TrilinearHamiltonian(basis)
            pump = fock.CoherentSpec(float(n), pump_phase)
            chi_t = ORACLE_THETA / math.sqrt(n)
            for mode in (1, 2):
                closed = fock.evolve_closed_form(mode, pump, chi_t, basis)
                brute = fock.evolve_brute_force(
                    fock.single_photon_with_pump(mode, pump, basis), hamiltonian, chi_t)
                pairs.append((closed.amplitudes, brute.amplitudes))
        overlaps = [erasure.erasure_overlap(float(n), ORACLE_THETA, pump_phase)
                    for n in LADDER_N]
        scan = interferometry.delay_scan(geometry, delays, "coherent", det_a, det_b)
        average = interferometry.time_average_superposition(
            amps, sup_theta, sup_phase, c, d, PHASE_GRID)
        return pairs, overlaps, scan, average

    def check(output):
        pairs, overlaps, scan, average = output
        errors = []
        worst = max(float(np.max(np.abs(closed - brute))) for closed, brute in pairs)
        if not worst <= ORACLE_TOLERANCE:
            errors.append(f"oracle mismatch {worst:.3e} > {ORACLE_TOLERANCE:.0e}")
        deficits = 1.0 - np.array(overlaps)
        if not (np.all(deficits > 0) and np.all(np.diff(deficits) < 0)):
            errors.append(f"overlap deficits not decreasing in N: {deficits.tolist()}")
        prob = np.array([r.probability for r in scan])
        const = np.array([r.constant_term for r in scan])
        inter = np.array([r.interference_term for r in scan])
        if not (np.allclose(prob, const + inter, rtol=0.0, atol=1e-15)
                and np.all(np.abs(inter) <= const)):
            errors.append("delay scan terms inconsistent")
        cross = max(abs(t) for t in average.terms[3:])
        if not cross < 1e-10:
            errors.append(f"phase average leaves cross terms {cross:.2e}")
        digest = sha256_arrays(*(closed for closed, _ in pairs), np.array(overlaps),
                               prob, np.array([average.probability, *average.terms]))
        return errors, digest, {"fock.oracle_max_err": worst}

    return run, check


# Workload -> (set-up, span call counts every traced repetition must show).
WORKLOADS = {
    "laser_scan": (laser_scan, {
        "cli.main": 1, "scenarios.run_scenario": 1,
        "stochastic.simulate_events": 24, "stochastic.estimate_g2": 24}),
    "thermal_gates": (thermal_gates, {
        "cli.main": 1, "scenarios.run_scenario": 1,
        "stochastic.simulate_events": 40, "stochastic.estimate_g2": 120}),
    "timetag_g2": (timetag_g2, {
        "stochastic.simulate_events": 0, "stochastic.estimate_g2": 1}),
    "exact_oracle": (exact_oracle, {
        "fock.hamiltonian": 4, "fock.brute_force": 8,
        "fock.closed_form": 2 * len(ORACLE_N) + 2 * len(LADDER_N),
        "erasure.overlap": len(LADDER_N), "interferometry.delay_scan": 1,
        "interferometry.phase_average": 1}),
}


# ---------------------------------------------------------------------------
# Tracing: which module attributes to wrap, and the per-layer metrics.

FIT_FUNCTIONS = ("fitted_visibility", "fringe_fft", "fit_fringe",
                 "fit_fringe_free_period", "fit_g2_envelope")


def layer_targets() -> list:
    """(module, attribute, span, count) for every public function a layer's
    caller looks up.  scenarios imports stochastic's and interferometry's
    functions by name, while stochastic's composite studies resolve them
    through stochastic's own globals, so both places are wrapped."""
    run_signature = inspect.signature(scenarios.run_scenario)

    def simulated(args, kwargs, streams):
        return {"events": sum(s.count for s in streams),
                "sim_s": streams[0].duration_ps * 1e-12}

    def estimated(args, kwargs, curve):
        return {"taus": curve.taus_ps.size, "events_in": curve.n_a + curve.n_b,
                "gate_ps": curve.gate_ps,
                "occupancy": (curve.n_a + curve.n_b) / (2 * curve.n_bin)}

    def scenario_written(args, kwargs, manifest):
        out = Path(run_signature.bind(*args, **kwargs).arguments["out_dir"])
        return {"data_files": len(manifest["data_files"]),
                "bytes": sum(p.stat().st_size for p in out.rglob("*") if p.is_file())}

    def dim(args, kwargs, result):
        return {"dim": result.basis.dim}

    targets = []
    for module in (stochastic, scenarios):
        targets += [(module, "simulate_events", "stochastic.simulate_events", simulated),
                    (module, "estimate_g2", "stochastic.estimate_g2", estimated)]
        targets += [(module, name, "stochastic.fit", None) for name in FIT_FUNCTIONS]
    for module in (interferometry, scenarios):
        targets.append((module, "delay_scan", "interferometry.delay_scan",
                        lambda args, kwargs, rows: {"points": len(rows)}))
    for module in (scenarios, cli):
        targets.append((module, "run_scenario", "scenarios.run_scenario", scenario_written))
    for module in (fock, erasure):
        targets.append((module, "evolve_closed_form", "fock.closed_form", None))
    targets += [
        (cli, "main", "cli.main", None),
        (fock, "TrilinearHamiltonian", "fock.hamiltonian", dim),
        (fock, "evolve_brute_force", "fock.brute_force", dim),
        (erasure, "erasure_overlap", "erasure.overlap", None),
        (interferometry, "time_average_superposition", "interferometry.phase_average", None),
    ]
    return targets


def ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    sim, est = "stochastic.simulate_events", "stochastic.estimate_g2"
    events = tracer.total(sim, "events")
    taus = tracer.total(est, "taus")
    m = {
        f"{sim}.self_s": tracer.self_s(sim),
        f"{sim}.calls": len(tracer.named(sim)),
        "stochastic.events_out": events,
        "stochastic.events_per_s": ratio(events, tracer.self_s(sim)),
        "stochastic.events_per_sim_s": ratio(events, tracer.total(sim, "sim_s")),
        f"{est}.self_s": tracer.self_s(est),
        f"{est}.calls": len(tracer.named(est)),
        f"{est}.taus": taus,
        f"{est}.s_per_tau": ratio(tracer.self_s(est), taus),
        f"{est}.events_in": tracer.total(est, "events_in"),
        "stochastic.fit.self_s": tracer.self_s("stochastic.fit"),
        "scenarios.run_scenario.self_s": tracer.self_s("scenarios.run_scenario"),
        "scenarios.data_files": tracer.total("scenarios.run_scenario", "data_files"),
        "scenarios.bytes_written": tracer.total("scenarios.run_scenario", "bytes"),
        "cli.main.self_s": tracer.self_s("cli.main"),
        "fock.closed_form.self_s": tracer.self_s("fock.closed_form"),
        "erasure.overlap.self_s": tracer.self_s("erasure.overlap"),
        "interferometry.delay_scan.points_per_s": ratio(
            tracer.total("interferometry.delay_scan", "points"),
            tracer.self_s("interferometry.delay_scan")),
        "interferometry.phase_average.self_s": tracer.self_s("interferometry.phase_average"),
    }
    for gate in THERMAL_GATES_PS:
        occupancy = [s.counts["occupancy"] for s in tracer.named(est)
                     if s.counts["gate_ps"] == gate]
        m[f"stochastic.counts_per_gate.{gate}ps"] = float(np.mean(occupancy)) if occupancy else 0.0
    for n, basis in oracle_bases().items():
        for layer in ("hamiltonian", "brute_force"):
            m[f"fock.{layer}.self_s.n{n}"] = sum(
                s.self_s for s in tracer.named(f"fock.{layer}")
                if s.counts["dim"] == basis.dim)
    return m


# Counters the checks of some workloads measure; 0 on the others.
CHECK_COUNTERS = {"stochastic.g2_baseline_bias": 0.0, "fock.oracle_max_err": 0.0}


def call_count_errors(tracer: Tracer, expected: dict) -> list:
    calls = tracer.calls()
    return [f"{name}: {calls.get(name, 0)} traced calls, expected {count}"
            for name, count in expected.items() if calls.get(name, 0) != count]


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    args = parser.parse_args(argv)

    setup, expected_calls = WORKLOADS[args.workload]
    args.dir.mkdir(parents=True)
    run, check = setup(args.seed, args.dir)
    tracer = Tracer()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with tracer.patched(layer_targets() if args.trace else []):
            start = time.monotonic()
            output = run()
            wall_s = time.monotonic() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    errors, digest, counters = check(output)
    result = {"setup_s": start - args.spawned, "wall_s": wall_s,
              "peak_rss_mb": peak_rss_mb, "errors": errors, "digest": digest,
              "env": environment()}
    if args.trace:
        result["errors"] += call_count_errors(tracer, expected_calls)
        result["layers"] = {**layer_metrics(tracer), **CHECK_COUNTERS, **counters,
                            "warnings": len(caught)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
