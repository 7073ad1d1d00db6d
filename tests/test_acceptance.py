"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with the measured value at the stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.  The
Monte Carlo scenarios execute once per session through module-scoped
fixtures; total runtime is several minutes.

Criterion 2 is implemented exactly as stated and is expected to fail: the
exactly computed overlap deficit 1-|<Psi~1|Psi~2>| decreases as 1/N (ratio
~0.25 between N=16 and N=64), faster than the ~1/sqrt(N) the criterion's
[1/3, 3/4] ratio window presumes.  The distinguishability sqrt(1-|ov|^2)
does follow 1/sqrt(N) with ratio ~0.5.  See the decisions ledger.
"""

import math
import time
import warnings

import pytest

from chromint.erasure import erasure_overlap
from chromint.interferometry import DetectorSetting, InterferometerGeometry, SourcePair
from chromint.scenarios import apply_overrides, default_config, run_scenario
from chromint.selftest import (
    check_color_rotation_limit,
    check_fringe_identity,
    check_oracle_equivalence,
    check_phase_average,
)
from chromint.stochastic import estimate_g2, simulate_events

warnings.filterwarnings("ignore")

LAM1, LAM2, LAM3 = 1549.800e-9, 863.344e-9, 1949.157e-9


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


def run_default(name, tmp_path_factory, overrides=()):
    cfg = default_config(name)
    if overrides:
        cfg = apply_overrides(cfg, list(overrides))
    out = tmp_path_factory.mktemp(name)
    started = time.perf_counter()
    manifest = run_scenario(cfg, out)
    manifest["elapsed_s"] = time.perf_counter() - started
    manifest["out_dir"] = out
    return manifest


@pytest.fixture(scope="module")
def laser_scan(tmp_path_factory):
    return run_default("laser_delay_scan", tmp_path_factory)


@pytest.fixture(scope="module")
def laser_scan_vdeg08(tmp_path_factory):
    return run_default("laser_delay_scan", tmp_path_factory,
                       ["v_deg=0.8", "seed=20202"])


@pytest.fixture(scope="module")
def laser_scan_matched_rate(tmp_path_factory):
    # thermal comparison partner: same source rate as the thermal scenario
    return run_default("laser_delay_scan", tmp_path_factory,
                       ["source_rate_hz=2e7", "duration_ps=1.5e11", "seed=31415"])


@pytest.fixture(scope="module")
def thermal_scan(tmp_path_factory):
    return run_default("thermal_delay_scan", tmp_path_factory)


@pytest.fixture(scope="module")
def fft_on(tmp_path_factory):
    return run_default("laser_fft", tmp_path_factory)


@pytest.fixture(scope="module")
def fft_off(tmp_path_factory):
    return run_default("laser_fft", tmp_path_factory,
                       ["pump_on=false", "seed=40404"])


@pytest.fixture(scope="module")
def g2_tau(tmp_path_factory):
    return run_default("laser_g2_tau", tmp_path_factory)


@pytest.fixture(scope="module")
def gate_study(tmp_path_factory):
    return run_default("gate_time_study", tmp_path_factory)


@pytest.fixture(scope="module")
def free_space(tmp_path_factory):
    return run_default("free_space_hbt", tmp_path_factory)


@pytest.fixture(scope="module")
def free_space_same(tmp_path_factory):
    return run_default("free_space_same_wavelength", tmp_path_factory)


def test_criterion_01_oracle_equivalence():
    started = time.perf_counter()
    ok, detail = check_oracle_equivalence()
    elapsed = time.perf_counter() - started
    report(1, "oracle-equivalence", ok and elapsed < 60.0,
           f"{detail}, {elapsed:.1f}s < 60s")


def test_criterion_02_erasure_scaling():
    deficit = {n: 1.0 - erasure_overlap(float(n), math.pi / 4) for n in (16, 64)}
    ratio = deficit[64] / deficit[16]
    dist_ratio = (math.sqrt(1 - (1 - deficit[64]) ** 2)
                  / math.sqrt(1 - (1 - deficit[16]) ** 2))
    report(2, "erasure-scaling", 1 / 3 <= ratio <= 3 / 4,
           f"deficit ratio N64/N16 = {ratio:.4f}, window [1/3, 3/4]; "
           f"exact deficit is ~1/N (within the O(1/sqrt N) bound); "
           f"distinguishability sqrt(1-ov^2) ratio = {dist_ratio:.4f}; "
           f"see decisions ledger")


def test_criterion_03_color_rotation_limit():
    report(3, "color-rotation-limit", *check_color_rotation_limit())


def test_criterion_04_fringe_identity():
    report(4, "fringe-identity", *check_fringe_identity())


def test_criterion_05_phase_average():
    report(5, "phase-average", *check_phase_average())


def test_criterion_06_laser_visibility(laser_scan, laser_scan_vdeg08):
    vis = laser_scan["results"]["fitted_visibility"]
    mean = laser_scan["results"]["mean_g2"]
    vis08 = laser_scan_vdeg08["results"]["fitted_visibility"]
    elapsed = laser_scan["elapsed_s"]
    ok = (abs(vis - 0.50) <= 0.03 and abs(mean - 1.00) <= 0.02
          and abs(vis08 - 0.40) <= 0.03 and elapsed < 300.0)
    report(6, "laser-visibility", ok,
           f"v_deg=1: vis {vis:.4f} (0.50+-0.03), mean g2 {mean:.4f} (1.00+-0.02); "
           f"v_deg=0.8: vis {vis08:.4f} (0.40+-0.03); {elapsed:.0f}s < 300s")


def test_criterion_07_fourier_peak(fft_on, fft_off):
    r_on, r_off = fft_on["results"], fft_off["results"]
    peak_err = abs(r_on["peak_frequency_hz"] - r_on["expected_frequency_hz"])
    ok = (peak_err <= r_on["frequency_bin_hz"] and r_off["peak_to_median"] < 5.0)
    report(7, "fourier-peak", ok,
           f"peak {r_on['peak_frequency_hz'] / 1e12:.2f} THz vs nu3 = c/lambda3 = "
           f"{r_on['expected_frequency_hz'] / 1e12:.2f} THz within one bin "
           f"({r_on['frequency_bin_hz'] / 1e12:.2f} THz); pump-off peak/median "
           f"{r_off['peak_to_median']:.2f} < 5")


def test_criterion_08_thermal_statistics(thermal_scan, laser_scan_matched_rate):
    beam = SourcePair("thermal", 2e7, 0.0, 6366e-12)
    det = DetectorSetting(None, efficiency=0.55)
    geo = InterferometerGeometry(LAM1, LAM2, LAM3, 0.05, 0.05, 0.05, 0.05)
    a, b = simulate_events(beam, geo, det, det, 0.05, seed=808)
    g2_zero = estimate_g2(a, b, [0], 500).values[0]
    baseline = thermal_scan["results"]["mean_g2"]
    vis_th = thermal_scan["results"]["fitted_visibility"]
    vis_laser = laser_scan_matched_rate["results"]["fitted_visibility"]
    ok = (abs(g2_zero - 2.0) <= 0.1 and baseline > 1.0 and vis_th < vis_laser)
    report(8, "thermal-statistics", ok,
           f"splitter g2(0) = {g2_zero:.3f} (2.0+-0.1); fringe baseline "
           f"{baseline:.3f} > 1; visibility {vis_th:.3f} < laser {vis_laser:.3f} "
           f"at matched rate")


def test_criterion_09_g2_envelope(g2_tau):
    res = g2_tau["results"]
    decay = res["envelope_decay_ps"]
    configured = res["configured_coherence_ps"]
    rel = abs(decay - configured) / configured
    report(9, "g2-envelope", rel <= 0.20,
           f"fitted decay {decay / 1e3:.1f} ns vs configured "
           f"{configured / 1e3:.1f} ns, rel err {rel:.3f} <= 0.20")


def test_criterion_10_gate_time_study(gate_study):
    rows = {r["gate_ps"]: r for r in gate_study["results"]["rows"]}
    v100, v1k, v200k = rows[100], rows[1000], rows[200000]
    gap = abs(v100["visibility"] - v1k["visibility"])
    ci_sum = v100["ci95"] + v1k["ci95"]
    washed = v200k["visibility"] < 0.5 * v1k["visibility"]
    ok = gap <= ci_sum and washed
    report(10, "gate-time-study", ok,
           f"vis(0.1ns) = {v100['visibility']:.3f}+-{v100['ci95']:.3f} vs "
           f"vis(1ns) = {v1k['visibility']:.3f}+-{v1k['ci95']:.3f} "
           f"(95% CIs {'overlap' if gap <= ci_sum else 'disjoint'}); "
           f"vis(200ns) = {v200k['visibility']:.3f} < half of vis(1ns)")


def test_criterion_11_free_space(free_space, free_space_same):
    r = free_space["results"]
    rel = abs(r["fitted_period_m"] - r["analytic_period_m"]) / r["analytic_period_m"]
    rs = free_space_same["results"]
    # standard HBT with one wavelength: period = R*lambda/s
    classic = 0.40 * LAM1 / 125e-6
    rel_same = abs(rs["fitted_period_m"] - classic) / classic
    ok = rel <= 0.02 and rel_same <= 0.02 and rs["fitted_visibility"] > 0.25
    report(11, "free-space-hbt", ok,
           f"chromatic period {r['fitted_period_m'] * 1e3:.3f} mm vs analytic "
           f"{r['analytic_period_m'] * 1e3:.3f} mm (rel {rel:.4f} <= 0.02); "
           f"same-wavelength period {rs['fitted_period_m'] * 1e3:.3f} mm vs "
           f"R*lambda/s = {classic * 1e3:.3f} mm (rel {rel_same:.4f}), "
           f"visibility {rs['fitted_visibility']:.3f}")


def test_criterion_12_determinism(tmp_path_factory):
    overrides = ["duration_ps=2e9", "delay_points=6"]
    first = run_default("laser_delay_scan", tmp_path_factory, overrides)
    second = run_default("laser_delay_scan", tmp_path_factory, overrides)
    ok = first["data_files"] == second["data_files"] and len(first["data_files"]) > 0
    report(12, "determinism", ok,
           f"{len(first['data_files'])} data files byte-identical across runs")
