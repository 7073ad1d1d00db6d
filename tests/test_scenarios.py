import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from chromint import cli, scenarios, selftest, stochastic
from chromint.cli import main
from chromint.scenarios import (
    SCENARIOS,
    ConfigError,
    apply_overrides,
    config_from_mapping,
    config_hash,
    default_config,
    load_config,
    run_scenario,
    serialize_config,
)


def test_defaults_follow_operating_tables():
    laser = default_config("laser_delay_scan")
    assert laser.lambda1_nm == 1549.800
    assert laser.lambda2_nm == 863.344
    assert laser.lambda3_nm == 1949.157
    assert laser.efficiency == 0.195
    assert laser.metadata["pump_power_mw"] == 152.6
    thermal = default_config("thermal_delay_scan")
    assert thermal.lambda1_nm == 1549.968
    assert thermal.lambda2_nm == 863.396
    assert thermal.metadata["filter_bandwidth_hz"] == 50e6
    # 50 MHz etalon: coherence time = 1/(pi * bandwidth)
    assert thermal.coherence_time_ps == pytest.approx(1e12 / (math.pi * 50e6), rel=1e-3)


def test_unknown_scenario_and_keys():
    with pytest.raises(ConfigError):
        config_from_mapping({"scenario": "warp"})
    with pytest.raises(ConfigError):
        config_from_mapping({"scenario": "laser_fft", "sideband": 3})
    with pytest.raises(ConfigError, match="unknown scenario"):
        config_from_mapping({"scenario": ["laser_fft"]})


def test_wavelength_consistency_enforced():
    with pytest.raises(ConfigError):
        config_from_mapping({"scenario": "laser_fft", "lambda3_nm": 1800.0})


def test_roundtrip_idempotent():
    cfg = default_config("thermal_fft")
    text1 = serialize_config(cfg)
    cfg2 = config_from_mapping(yaml.safe_load(text1))
    assert serialize_config(cfg2) == text1
    assert config_hash(cfg2) == config_hash(cfg)


def test_overrides_coerce_types():
    cfg = default_config("laser_delay_scan")
    out = apply_overrides(cfg, ["seed=7", "v_deg=0.8", "pump_on=false",
                                "delay_points=12"])
    assert out.seed == 7 and out.v_deg == 0.8
    assert out.pump_on is False and out.delay_points == 12
    # values are YAML scalars; exponent numbers without a point are floats
    out = apply_overrides(default_config("gate_time_study"),
                          ["duration_ps=1.5e11", "source_rate_hz=2e7",
                           "gates_ps=100,1000", "theta=1e-05", "source_kind=thermal"])
    assert out.duration_ps == 1.5e11 and out.source_rate_hz == 2e7
    assert out.gates_ps == [100, 1000] and out.theta == 1e-05
    assert out.source_kind == "thermal"
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["nonsense=1"])
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["v_deg"])


def test_every_default_config_loads():
    for name in SCENARIOS:
        cfg = default_config(name)
        assert config_from_mapping(dataclasses.asdict(cfg)) == cfg


@pytest.mark.parametrize("key,value", [
    ("gate_ps", 999.5),
    ("delay_points", 4.5),
    ("pump_on", 0),
    ("overlap_mean_photons", 4),
])
def test_config_field_types_checked(key, value):
    with pytest.raises(ConfigError, match=key):
        config_from_mapping({"scenario": "laser_delay_scan", key: value})


def test_cli_rejects_exponent_string_for_int_field(tmp_path, capsys):
    # a config file reads 1e3 as the float 1000.0, as an override does, and
    # an integer field takes no float
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text("scenario: laser_delay_scan\ngate_ps: 1e3\n")
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert "gate_ps" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("override", ["pump_on=ture", "gate_ps=999.5",
                                      "delay_points=4.9", "gates_ps=0.5,1000",
                                      "gates_ps=100.7,1000"])
def test_cli_override_is_type_checked(tmp_path, capsys, override):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text("scenario: erasure_overlap_scan\n"
                        "overlap_mean_photons: [4]\n")
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out"),
                 "--override", override]) == 2
    assert override.partition("=")[0] in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, override", [
    ("scenario: [laser_fft]\n", []),
    ("scenario: laser_fft\n", ["scenario={a: 1}"]),
    # the file's scenario resolved the other fields to its defaults
    ("scenario: laser_delay_scan\n", ["scenario=thermal_delay_scan"]),
], ids=["list-in-file", "mapping-override", "other-scenario-override"])
def test_cli_scenario_is_a_name_from_the_file(tmp_path, capsys, text, override):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(text)
    argv = ["run", str(cfg_path), "--out", str(tmp_path / "out")]
    assert main(argv + [a for o in override for a in ("--override", o)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "scenario" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, out", [
    (["scan", "--scenario", "erasure_overlap_scan", "--param", "overlap_theta=0.4:0.8:0"],
     "out"),
    (["scan", "--scenario", "erasure_overlap_scan", "--param", "nope=0:1:2"], "out"),
    (["run", "list.yaml"], "out"),
    (["run", "bare.yaml"], "out"),
    (["run", "cfg.yaml", "--override", "seed={"], "out"),
    (["run", "cfg.yaml"], "cfg.yaml/out"),
], ids=["scan-no-points", "scan-unknown-key", "yaml-list", "no-scenario",
        "unparsed-override", "out-under-a-file"])
def test_cli_config_errors_create_nothing(tmp_path, capsys, argv, out):
    files = {"list.yaml": "- scenario: erasure_overlap_scan\n",
             "bare.yaml": "overlap_mean_photons: [4]\n",
             "cfg.yaml": "scenario: erasure_overlap_scan\noverlap_mean_photons: [4]\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    assert main(argv + ["--out", str(tmp_path / out)]) == 2
    assert capsys.readouterr().err.startswith("config error")
    assert sorted(p.name for p in tmp_path.rglob("*")) == sorted(files)


def test_wall_time_is_nonnegative_when_the_clock_steps_back(tmp_path, monkeypatch):
    # the wall clock steps back 1000 s at every read, as a clock adjustment can
    clock = itertools.count(1e9, -1000.0)
    monkeypatch.setattr(time, "time", lambda: next(clock))
    cfg = apply_overrides(default_config("erasure_overlap_scan"),
                          ["overlap_mean_photons=4"])
    manifest = run_scenario(cfg, tmp_path / "run")
    saved = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["wall_time_s"] >= 0 and saved["wall_time_s"] >= 0


def test_config_file_reads_numbers_like_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text("scenario: gate_time_study\nduration_ps: 1.0e9\n"
                        "source_rate_hz: 2e7\ngates_ps: [100, 1000]\n")
    from_file = load_config(cfg_path)
    assert from_file.duration_ps == 1e9 and from_file.source_rate_hz == 2e7
    assert from_file == apply_overrides(default_config("gate_time_study"),
                                        ["duration_ps=1.0e9", "source_rate_hz=2e7",
                                         "gates_ps=100,1000"])


def test_validation_bounds():
    with pytest.raises(ConfigError):
        config_from_mapping({"scenario": "laser_fft", "v_deg": 1.5})
    with pytest.raises(ConfigError):
        config_from_mapping({"scenario": "laser_fft", "source_rate_hz": -1.0})
    with pytest.raises(ConfigError):
        config_from_mapping({"scenario": "laser_fft", "output_filter": 5})
    # every delay-scanning scenario steps the delay in pump wavelengths
    for name in ("laser_fft", "thermal_delay_scan", "gate_time_study"):
        with pytest.raises(ConfigError, match="pump wavelength"):
            config_from_mapping({"scenario": name, "lambda3_nm": -1.0})
    # an empty list would run and write a table with no rows
    for name, key in (("gate_time_study", "gates_ps"),
                      ("erasure_overlap_scan", "overlap_mean_photons")):
        with pytest.raises(ConfigError, match=key):
            config_from_mapping({"scenario": name, key: []})


def test_overlap_scan_outputs(tmp_path):
    cfg = apply_overrides(default_config("erasure_overlap_scan"),
                          ["overlap_mean_photons=4,16"])
    manifest = run_scenario(cfg, tmp_path / "run")
    table = (tmp_path / "run" / "overlap.csv").read_text().splitlines()
    assert table[0] == "mean_photons,overlap,deficit"
    assert len(table) == 3
    assert set(manifest["data_files"]) == {"overlap.csv"}
    assert manifest["config_sha256"] == config_hash(cfg)
    saved = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert saved["seed"] == cfg.seed
    assert set(manifest["versions"]) == {"chromint", "numpy", "pyyaml", "python"}


def test_manifest_lists_only_files_of_this_run(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    (out / "leftover.csv").write_text("stale\n")
    cfg = apply_overrides(default_config("erasure_overlap_scan"),
                          ["overlap_mean_photons=4"])
    for _ in range(2):
        manifest = run_scenario(cfg, out)
        assert set(manifest["data_files"]) == {"overlap.csv"}
    assert (out / "leftover.csv").read_text() == "stale\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run"]


def test_failed_run_leaves_no_csv_and_no_manifest(tmp_path, monkeypatch):
    def crash(cfg, out):
        (out / "partial.csv").write_text("x\n")
        raise RuntimeError("runner failed")

    monkeypatch.setitem(scenarios.SCENARIOS, "erasure_overlap_scan",
                        (crash, SCENARIOS["erasure_overlap_scan"][1]))
    out = tmp_path / "run"
    with pytest.raises(RuntimeError):
        run_scenario(default_config("erasure_overlap_scan"), out)
    assert list(out.iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run"]


# Per scenario, overrides small enough for a sub-second run that still
# reach every branch of its runner: the laser envelope fit of laser_g2_tau
# and the thermal splitter of thermal_g2_tau run at their defaults.
TINY_OVERRIDES = {
    "laser_delay_scan": ["duration_ps=1e9", "delay_points=4"],
    "laser_fft": ["duration_ps=2e8", "delay_points=16", "delay_span_periods=4"],
    "laser_g2_tau": ["duration_ps=2e10", "tau_max_ps=200000"],
    "thermal_delay_scan": ["duration_ps=1e9", "delay_points=4"],
    "thermal_fft": ["duration_ps=2e8", "delay_points=16", "delay_span_periods=4"],
    "thermal_g2_tau": ["duration_ps=1e9"],
    "free_space_hbt": ["duration_ps=1e9", "separation_points=12"],
    "free_space_same_wavelength": ["duration_ps=1e9", "separation_points=12"],
    "gate_time_study": ["duration_ps=1e9", "delay_points=4", "gate_trials=2"],
    "erasure_overlap_scan": ["overlap_mean_photons=4,8"],
}
BRANCH_RESULTS = {"laser_g2_tau": "envelope_decay_ps",
                  "thermal_g2_tau": "splitter_g2_zero"}


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_every_scenario_runs_end_to_end(tmp_path, name):
    cfg = apply_overrides(default_config(name), TINY_OVERRIDES[name])
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # short runs warn by design
        manifest = run_scenario(cfg, out)
    assert set(manifest["data_files"]) == {p.name for p in out.glob("*.csv")}
    assert manifest["data_files"]
    assert json.loads((out / "manifest.json").read_text()) == manifest
    assert manifest["results"]
    if name in BRANCH_RESULTS:
        assert BRANCH_RESULTS[name] in manifest["results"]


# sha256 of the data files of the tiny runs of every Monte Carlo scan over a
# batch geometry and of both g2(tau) runs: a change to the points, their
# trial numbers or their order, or to a source kind's draws, changes them
PINNED_DATA_FILES = {
    "free_space_hbt": {
        "fringe_analytic.csv":
            "20a02df0004f994b8826251cda03c4bd879b447a69c530c9a77226c33d7f1b99",
        "fringe_mc.csv":
            "44a9096a2d0b984e4ac962b3e20f28277d8a7f91311f8917183af4787d24d925"},
    "gate_time_study": {
        "gate_time.csv":
            "e308fba3b68b88f03fe3c2bca05103a2bba4033be30ca5c84b512e9cd2da624a"},
    "laser_delay_scan": {
        "delay_scan_analytic.csv":
            "61e0c71c566a936a86a89d30d20c8d9658ba52937aa581f1b525842d4aba7b9e",
        "delay_scan_mc.csv":
            "2bb2f308bad6406c489a06de31fe8db50e13b6242538652e434a7b9e7eeb84dc"},
    "laser_g2_tau": {
        "g2_tau.csv":
            "f72a6269bc846a83886bd2ed2dfc9e372b01d94a217c438a5810eb632c50d837"},
    "laser_fft": {
        "delay_scan_mc.csv":
            "40196a4b40e79d247d64ab7c378b44a5173567fce29b585278b3d7e5cd4e9473",
        "spectrum.csv":
            "cc4c84c996250af2d918e0067a0653c10a8baba61e5a6b444f7c11471d77d212"},
    # the law's thermal pedestal, and colors that beat only at one wavelength
    "thermal_delay_scan": {
        "delay_scan_analytic.csv":
            "ebfbbc10beddd60f3042ae710249ae930b0b34576bdf42f942e5fb722c81f29a",
        "delay_scan_mc.csv":
            "1f7e570236909fa2d02de8e196e0e8efd4fa380c5fa43d28b46a6a7d536430a5"},
    "thermal_g2_tau": {
        "g2_tau.csv":
            "53194f17a295fe53ab188a7a58e40c69d35dda35e4d01e157aa0706638a9bf48",
        "splitter_g2.csv":
            "c6d92da501003e910516988fb288210523fe02639f1f4b4219b36daa8a738c7d"},
    "free_space_same_wavelength": {
        "fringe_analytic.csv":
            "d24b2df8ff5ed08204ddfbfccd404db58d092cc98f4f3d55004f2018e06101f4",
        "fringe_mc.csv":
            "2e80c563e9c1e51c0ce54401c1773796417381c29113be59451992b418081030"},
}


@pytest.mark.parametrize("duration_ps, noise", [(1e8, True), (1e10, False)])
def test_envelope_fit_reports_its_bound(tmp_path, duration_ps, noise):
    # a 0.1 ms run is too short to see the 106 ns decay: its fit reads
    # noise, which may or may not end on one of the fit's bounds (a <= 2,
    # decay within a factor 1e3 of the tau span), and envelope_at_bound
    # says which; at 10 ms it fits the configured coherence, inside them
    cfg = apply_overrides(default_config("laser_g2_tau"),
                          [f"duration_ps={duration_ps}", "seed=12345"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        results = run_scenario(cfg, tmp_path / "run")["results"]
    amp, decay = results["envelope_amplitude"], results["envelope_decay_ps"]
    on_bound = (amp == pytest.approx(2.0) or decay == pytest.approx(1e-3 * cfg.tau_max_ps)
                or decay == pytest.approx(1e3 * cfg.tau_max_ps))
    assert results["envelope_at_bound"] is on_bound
    assert noise or not on_bound


def test_negative_detuning_fits_the_envelope(tmp_path):
    # source 2 below source 1 beats as well: the cosine is even, so the
    # envelope decays alike and is fitted as for a positive detuning
    cfg = apply_overrides(default_config("laser_g2_tau"),
                          ["duration_ps=1e10", "detuning_hz=-25e6", "seed=12345"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        results = run_scenario(cfg, tmp_path / "run")["results"]
    assert math.isfinite(results["envelope_decay_ps"])
    assert results["envelope_at_bound"] is False


@pytest.mark.parametrize("name", ["free_space_hbt", "laser_g2_tau", "laser_fft"])
def test_fit_without_a_finite_curve_reads_nan(tmp_path, name):
    # 0.1 us leaves detectors without a count, so g2 has no finite value
    # (free-space and FFT: at some separations or delays; g2(tau): at every
    # tau): the run still ends, as a delay scan's does, and its fit reads NaN
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(f"scenario: {name}\nduration_ps: 1.0e5\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # short runs warn by design
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    results = json.loads((tmp_path / "out" / "manifest.json").read_text())["results"]
    fitted = {"free_space_hbt": ["fitted_period_m", "fitted_visibility"],
              "laser_g2_tau": ["envelope_amplitude", "envelope_decay_ps"],
              "laser_fft": ["peak_frequency_hz", "peak_to_median"]}[name]
    assert all(math.isnan(results[key]) for key in fitted)
    assert results.get("envelope_at_bound", False) is False


@pytest.mark.parametrize("name, seed, fitted, mc_file", [
    ("laser_fft", 81, ["peak_frequency_hz", "peak_to_median"], "delay_scan_mc.csv"),
    ("free_space_hbt", 145, ["fitted_period_m", "fitted_visibility"], "fringe_mc.csv")],
    ids=["laser_fft", "free_space_hbt"])
def test_flat_curve_reads_nan(tmp_path, name, seed, fitted, mc_file):
    # at 10 us this seed leaves every point without a coincidence: g2 is a
    # finite 0 throughout, a flat curve that has no fringe to report
    cfg = apply_overrides(default_config(name), ["duration_ps=1e7", f"seed={seed}"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_scenario(cfg, tmp_path / "run")
    g2 = np.loadtxt(tmp_path / "run" / mc_file, delimiter=",", skiprows=1, usecols=1)
    assert not g2.any()
    manifest = (tmp_path / "run" / "manifest.json").read_text()
    assert "Infinity" not in manifest
    results = json.loads(manifest)["results"]
    assert all(math.isnan(results[key]) for key in fitted)


@pytest.mark.parametrize("name", sorted(PINNED_DATA_FILES))
def test_scan_data_files_match_pinned_digests(tmp_path, name):
    cfg = apply_overrides(default_config(name), TINY_OVERRIDES[name])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        manifest = run_scenario(cfg, tmp_path / "run")
    assert manifest["data_files"] == PINNED_DATA_FILES[name]


@pytest.mark.parametrize("run, visibility", [
    ("laser_delay_scan", 0.5), ("thermal_delay_scan", 1 / 3),
    # 2 MHz of dark counts dilute each detector's 3.9 MHz of signal by 3.9/5.9
    ("laser_delay_scan dark_count_rate_hz=2e6", 0.5 * (3.9 / 5.9) ** 2)])
def test_analytic_visibility_is_the_law_value(tmp_path, run, visibility):
    # pump phases 0.5 and 0 move the fringe crest off every grid point
    name, *extra = run.split()
    cfg = apply_overrides(default_config(name), ["duration_ps=1e8", "delay_points=5",
                                                 "pump_phase_a=0.5", *extra])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        manifest = run_scenario(cfg, tmp_path / "run")
    assert manifest["results"]["analytic_visibility"] == pytest.approx(visibility,
                                                                       abs=1e-12)


def test_dark_count_dilution_matches_monte_carlo(tmp_path):
    # the law reads 0.218 here; over seeds 1-40 the fitted visibility had
    # mean 0.216 and standard deviation 0.014, so 0.06 is over 4 of them
    cfg = apply_overrides(default_config("laser_delay_scan"),
                          ["duration_ps=1e10", "dark_count_rate_hz=2e6"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        results = run_scenario(cfg, tmp_path / "run")["results"]
    assert abs(results["fitted_visibility"] - results["analytic_visibility"]) < 0.06


def test_gate_time_study_pump_off_uses_standard_detection(tmp_path, monkeypatch):
    # pump off: every run's detectors (det_a, det_b) have no conversion stage
    calls = []
    simulate = stochastic.simulate_events

    def recorded(*args, **kwargs):
        calls.append(args[2:4])
        return simulate(*args, **kwargs)

    monkeypatch.setattr(stochastic, "simulate_events", recorded)
    cfg = apply_overrides(default_config("gate_time_study"),
                          TINY_OVERRIDES["gate_time_study"] + ["pump_on=false"])
    run_scenario(cfg, tmp_path / "run")
    assert len(calls) == cfg.delay_points * cfg.gate_trials
    assert all(det.theta is None for dets in calls for det in dets)


# Pump-off runs whose analytic curve the Monte Carlo must reproduce: the
# thermal pedestal of two colors that do not beat, and one-color HBT.
PUMP_OFF_LAYERS = {
    "thermal_delay_scan": (["pump_on=false", "duration_ps=1e10", "delay_points=16"],
                           "delay_scan"),
    "free_space_same_wavelength": (["duration_ps=2e9", "separation_points=24"],
                                   "fringe"),
}


@pytest.mark.parametrize("name", ["free_space_hbt", "free_space_same_wavelength"])
def test_analytic_fringe_period_across_path_phase_wraps(tmp_path, name):
    # analytic_period_m is the law curve's fitted period; the reference is
    # the local period at the scan centre, from unreduced path-length
    # differences; each path phase is reduced modulo 2*pi, and at 0.3005 m
    # one of free_space_hbt's wraps at the centre
    for distance in (0.30, 0.3005, 0.33, 0.40):
        cfg = apply_overrides(default_config(name), TINY_OVERRIDES[name]
                              + [f"screen_distance_m={distance!r}"])
        x0 = 0.5 * (cfg.separation_min_m + cfg.separation_max_m)

        def phase(x):
            geo = scenarios._free_space_geometry(cfg, x)
            return 2 * math.pi * ((geo.l_1a - geo.l_1b) / geo.lambda1
                                  + (geo.l_2b - geo.l_2a) / geo.lambda2)

        expected = 2 * math.pi * 2e-6 / abs(phase(x0 + 1e-6) - phase(x0 - 1e-6))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            results = run_scenario(cfg, tmp_path / str(distance))["results"]
        assert results["analytic_period_m"] == pytest.approx(expected, rel=2e-4)


def test_pump_off_free_space_law_period_reads_nan(tmp_path):
    # pump off, the two colours do not beat: the law curve is flat, so its
    # period and the visibility fitted at that period read NaN
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text("scenario: free_space_hbt\npump_on: false\nduration_ps: 1.0e9\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "off")]) == 0
    results = json.loads((tmp_path / "off" / "manifest.json").read_text())["results"]
    assert math.isnan(results["analytic_period_m"])
    assert math.isnan(results["fitted_visibility"])


@pytest.mark.parametrize("name", list(PUMP_OFF_LAYERS))
def test_pump_off_analytic_curve_matches_monte_carlo(tmp_path, name):
    overrides, stem = PUMP_OFF_LAYERS[name]
    cfg = apply_overrides(default_config(name), overrides)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        results = run_scenario(cfg, tmp_path)["results"]
    xs, analytic = np.loadtxt(tmp_path / f"{stem}_analytic.csv", delimiter=",",
                              skiprows=1, usecols=(0, 1), unpack=True)
    g2 = np.loadtxt(tmp_path / f"{stem}_mc.csv", delimiter=",", skiprows=1, usecols=1)
    period = cfg.lambda3_m if stem == "delay_scan" else results["analytic_period_m"]
    base, amp, _ = stochastic.fit_fringe(xs, analytic, period)
    base_mc, amp_mc, phase_mc = stochastic.fit_fringe(xs, g2, period)
    # standard errors of the fitted offset and amplitude from the residuals
    model = base_mc + amp_mc * np.cos(2 * math.pi * xs / period + phase_mc)
    sigma = math.sqrt(np.sum((g2 - model) ** 2) / (xs.size - 3))
    assert abs(base_mc - base) < 5 * sigma / math.sqrt(xs.size)
    assert abs(amp_mc / base_mc - amp / base) < 5 * sigma * math.sqrt(2 / xs.size) / base_mc


@pytest.mark.parametrize("command", ["run", "scan"])
def test_delay_scan_without_pump_is_a_config_error(tmp_path, capsys, command):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text("scenario: laser_delay_scan\nlambda3_nm: -1.0\n")
    argv = {"run": ["run", str(cfg_path)],
            "scan": ["scan", "--scenario", "laser_delay_scan",
                     "--param", "lambda3_nm=-1:1949.157:2"]}[command]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert "pump wavelength" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags", [[], ["--full"]], ids=["fast", "full"])
def test_cli_selftest_prints_one_pass_line_per_fast_check(capsys, flags):
    assert main(["selftest"] + flags) == 0
    lines = capsys.readouterr().out.splitlines()
    checks = selftest.FULL_CHECKS if flags else selftest.FAST_CHECKS
    assert [line.split()[:2] for line in lines] == [["PASS", name] for name, _ in checks]
    assert "color-rotation-limit" in dict(selftest.FAST_CHECKS)


# Values only a constructor or the runner itself rejects, as a `run`
# override and as the first value of a `scan` sweep.
REJECTED_AT_CONFIG_TIME = [
    ("laser_delay_scan", "dark_count_rate_hz=-5", "dark_count_rate_hz=-5:0:2"),
    ("thermal_g2_tau", "splitter_efficiency=1.5", "splitter_efficiency=1.5:0.5:2"),
    ("free_space_hbt", "screen_distance_m=-0.4", "screen_distance_m=-0.4:0.4:2"),
    ("laser_g2_tau", "tau_step_ps=0", "tau_step_ps=0:4000:2"),
    ("erasure_overlap_scan", "overlap_mean_photons=0,4", "overlap_mean_photons=0:4:2"),
    ("gate_time_study", "gates_ps=0,1000", "gates_ps=0:1000:2"),
    # runs that crashed or wrote meaningless results: a fit with more
    # parameters than points, an empty or one-point tau grid, an FFT scan
    # too short to resolve or too sparse to keep its fringe below Nyquist,
    # a zero-width scan, no trials or one trial
    ("free_space_hbt", "separation_points=2", "separation_points=2:36:2"),
    ("laser_g2_tau", "tau_max_ps=-1", "tau_max_ps=-1:300000:2"),
    ("laser_g2_tau", "tau_max_ps=0", "tau_max_ps=0:300000:2"),
    ("laser_fft", "delay_points=8", "delay_points=8:40:2"),
    ("thermal_fft", "delay_points=15", "delay_points=15:40:2"),
    ("laser_fft", "delay_points=16", "delay_points=16:40:2"),
    ("laser_delay_scan", "delay_span_periods=0", "delay_span_periods=0:2:2"),
    ("free_space_same_wavelength", "separation_max_m=0.0002",
     "separation_max_m=0.0002:0.0152:2"),
    ("gate_time_study", "gate_trials=0", "gate_trials=0:4:2"),
    ("gate_time_study", "gate_trials=1", "gate_trials=1:4:2"),
    # a detector that sees no light: no law or fit describes its run
    ("laser_delay_scan", "efficiency=0", "efficiency=0:0.195:2"),
    # a detector's own check, reached through make_detectors
    ("laser_delay_scan", "v_deg=1.5", "v_deg=1.5:1:2"),
    # the source pair's own checks, reached through make_sources
    ("thermal_delay_scan", "source_rate_hz=0", "source_rate_hz=0:2e7:2"),
    ("laser_g2_tau", "coherence_time_ps=0", "coherence_time_ps=0:106103:2"),
]


@pytest.mark.parametrize("command", ["run", "scan"])
@pytest.mark.parametrize("scenario,override,sweep", REJECTED_AT_CONFIG_TIME,
                         ids=[case[1] for case in REJECTED_AT_CONFIG_TIME])
def test_runtime_rejects_are_config_errors(tmp_path, capsys, command, scenario,
                                           override, sweep):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(f"scenario: {scenario}\n")
    argv = {"run": ["run", str(cfg_path), "--override", override],
            "scan": ["scan", "--scenario", scenario, "--param", sweep]}[command]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    # the message names the key the value was given for
    assert err.startswith("config error") and override.partition("=")[0] in err
    assert not (tmp_path / "out").exists()


def test_unknown_source_kind_is_a_config_error(tmp_path, capsys):
    # a kind is no number, so it has no sweep: a `run` override only
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text("scenario: laser_delay_scan\n")
    assert main(["run", str(cfg_path), "--override", "source_kind=lamp",
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "'lamp'" in err
    assert not (tmp_path / "out").exists()


def loaded_after(heavy: tuple, *imports: str) -> list[str]:
    """Per import statement, run in turn in a fresh interpreter, the names
    in `heavy` that sys.modules then holds, space-separated."""
    code = f"import sys\nheavy = {heavy!r}\n" + "".join(
        f"{line}\nprint(*[m for m in heavy if m in sys.modules])\n" for line in imports)
    src = Path(scenarios.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    return proc.stdout.split("\n")[:len(imports)]


def test_cli_import_leaves_out_stats_and_optimize():
    # scipy is a test-only dependency: the curve fits, the gate study's
    # Student-t quantile, the Fock pump series and the exact layer run on
    # numpy alone, so no submodule loads any part of scipy.  The manifest
    # reads each version from the loaded module: importlib.metadata would
    # load email, zipfile and csv into every run's start
    heavy = ("scipy", "scipy.special", "scipy.stats", "scipy.optimize", "scipy.sparse",
             "scipy.linalg", "importlib.metadata")
    after_cli, after_all = loaded_after(
        heavy, "import chromint.cli",
        "from chromint import erasure, fock, interferometry, scenarios, selftest, stochastic")
    assert after_cli == "", f"import chromint.cli loads {after_cli}"
    assert after_all == "", f"importing every submodule loads {after_all}"


@pytest.mark.parametrize("name", ["free_space_hbt", "laser_g2_tau"])
def test_cli_fitting_run_leaves_out_scipy_and_metadata(tmp_path, name):
    # the curve fits run on numpy's least squares, and recording the
    # manifest's versions loads no importlib.metadata: a run that fits ends
    # as lean as it started
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(f"scenario: {name}\n")
    argv = ["run", str(cfg_path), "--out", str(tmp_path / "out"),
            *(arg for item in TINY_OVERRIDES[name] for arg in ("--override", item))]
    after_run, = loaded_after(
        ("scipy", "importlib.metadata"),
        "import contextlib, io\nfrom chromint.cli import main\n"
        f"with contextlib.redirect_stdout(io.StringIO()): assert main({argv!r}) == 0")
    assert after_run == "", f"a {name} run loads {after_run}"
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert {"fitted_period_m", "envelope_decay_ps"} & set(manifest["results"])


def test_cli_import_leaves_out_the_exact_layer():
    # the detector model lives in interferometry: only the overlap scan and
    # the selftest load the Fock layer, when they run
    after_cli, = loaded_after(("chromint.fock", "chromint.erasure", "chromint.selftest"),
                              "import chromint.cli")
    assert after_cli == "", f"import chromint.cli loads {after_cli}"


def test_cli_selftest_failure_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(selftest, "FAST_CHECKS",
                        [("always-fails", lambda: (False, "forced failure"))])
    assert main(["selftest"]) == 3
    assert capsys.readouterr().out.startswith("FAIL always-fails")


def test_run_is_deterministic(tmp_path):
    cfg = apply_overrides(default_config("laser_delay_scan"),
                          ["duration_ps=2e9", "delay_points=6"])
    hashes = []
    for name in ("one", "two"):
        manifest = run_scenario(cfg, tmp_path / name)
        hashes.append(manifest["data_files"])
    assert hashes[0] == hashes[1]


def test_cli_run_and_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text("scenario: erasure_overlap_scan\n"
                        "overlap_mean_photons: [4, 16]\n")
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "overlap.csv").exists()
    assert main(["run", str(tmp_path / "nope.yaml"),
                 "--out", str(tmp_path / "o2")]) == 2
    bad = tmp_path / "bad.yaml"
    bad.write_text("scenario: laser_fft\nlambda3_nm: 1800.0\n")
    assert main(["run", str(bad), "--out", str(tmp_path / "o3")]) == 2
    capsys.readouterr()


def test_cli_seed_and_override(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text("scenario: erasure_overlap_scan\n"
                        "overlap_mean_photons: [4]\n")
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "a"),
                 "--seed", "99", "--override", "overlap_theta=0.5"]) == 0
    saved = yaml.safe_load((tmp_path / "a" / "config.yaml").read_text())
    assert saved["seed"] == 99
    assert saved["overlap_theta"] == 0.5
    capsys.readouterr()


def test_cli_scan(tmp_path, capsys):
    assert main(["scan", "--scenario", "erasure_overlap_scan",
                 "--param", "overlap_theta=0.4:0.8:2",
                 "--out", str(tmp_path / "sweep"),
                 "--seed", "5"]) == 0
    sweep = json.loads((tmp_path / "sweep" / "sweep.json").read_text())
    assert [r["value"] for r in sweep["runs"]] == [0.4, 0.8]
    assert main(["scan", "--scenario", "erasure_overlap_scan",
                 "--param", "overlap_theta=bad",
                 "--out", str(tmp_path / "s2")]) == 2
    capsys.readouterr()


def test_interrupted_rescan_leaves_no_stale_sweep_listing(tmp_path, monkeypatch, capsys):
    # a re-sweep into the same directory that stops after its first run
    # (Ctrl-C, a full disk) leaves no sweep.json listing the earlier sweep's
    # results next to a run directory that now holds the new run
    out = tmp_path / "sweep"
    argv = ["scan", "--scenario", "erasure_overlap_scan",
            "--param", "overlap_theta=0.4:0.8:2", "--out", str(out)]
    assert main(argv + ["--seed", "5"]) == 0
    assert (out / "sweep.json").exists()
    runs = []

    def interrupted(cfg, out_dir):
        runs.append(cfg.seed)
        if len(runs) == 2:
            raise KeyboardInterrupt
        return run_scenario(cfg, out_dir)

    monkeypatch.setattr(cli, "run_scenario", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(argv + ["--seed", "6"])
    assert runs == [6, 6]
    assert sorted(p.name for p in out.iterdir()) == ["run_000_overlap_theta_0.4",
                                                     "run_001_overlap_theta_0.8"]
    monkeypatch.undo()
    assert main(argv + ["--seed", "6"]) == 0
    sweep = json.loads((out / "sweep.json").read_text())
    assert [r["value"] for r in sweep["runs"]] == [0.4, 0.8]
    assert sorted(p.name for p in out.iterdir()) == ["run_000_overlap_theta_0.4",
                                                     "run_001_overlap_theta_0.8",
                                                     "sweep.json"]
    capsys.readouterr()


def test_cli_scan_int_field(tmp_path, capsys):
    assert main(["scan", "--scenario", "erasure_overlap_scan",
                 "--param", "delay_points=4:8:5",
                 "--out", str(tmp_path / "sweep")]) == 0
    sweep = json.loads((tmp_path / "sweep" / "sweep.json").read_text())
    saved = [yaml.safe_load((tmp_path / "sweep" / r["dir"] / "config.yaml").read_text())
             for r in sweep["runs"]]
    assert [c["delay_points"] for c in saved] == [4, 5, 6, 7, 8]
    # 4.5 is not a whole number of points: nothing runs
    assert main(["scan", "--scenario", "erasure_overlap_scan",
                 "--param", "delay_points=4:5:3",
                 "--out", str(tmp_path / "s2")]) == 2
    assert "delay_points" in capsys.readouterr().err
    assert not (tmp_path / "s2").exists()
    # a list field of integers takes whole values the same way
    assert main(["scan", "--scenario", "erasure_overlap_scan",
                 "--param", "gates_ps=100:1000:2",
                 "--out", str(tmp_path / "gates")]) == 0
    sweep = json.loads((tmp_path / "gates" / "sweep.json").read_text())
    assert [yaml.safe_load((tmp_path / "gates" / r["dir"] / "config.yaml").read_text())
            ["gates_ps"] for r in sweep["runs"]] == [[100], [1000]]
    assert main(["scan", "--scenario", "erasure_overlap_scan",
                 "--param", "gates_ps=100:101:3",
                 "--out", str(tmp_path / "g2")]) == 2
    assert "gates_ps" in capsys.readouterr().err


def test_mutated_color_rotation_breaks_reduction_identity():
    """A sign error in the effective color mixing must not survive the
    analytic cross-checks: flipping the conversion sign breaks the
    superposition-to-single-photon reduction identity the selftest relies
    on."""
    from chromint.interferometry import (
        amplitudes,
        coincidence_single_photon,
        InterferometerGeometry,
    )

    rng = np.random.default_rng(0)
    geo = InterferometerGeometry(1549.8e-9, 863.344e-9, 1949.157e-9,
                                 *rng.uniform(0.01, 0.2, 4))
    amp = amplitudes(geo)
    theta = 0.7
    w = (math.cos(theta) * math.sin(theta)) ** 2
    cross, swap = amp.d_1a * amp.d_2b, amp.d_1b * amp.d_2a
    sign_flipped = w * abs(cross - swap) ** 2
    good = coincidence_single_photon(amp, theta).probability
    assert abs(sign_flipped - good) > 1e-3
