"""Config-driven scenario runner.

Each scenario reproduces one of the interferometry figures as data files in
an output directory, together with a manifest recording the resolved
configuration, its hash, library versions, the seed and wall time.  Configs
are YAML key-value files; wavelengths are given in nm, times in ps, rates
in counts/s and lengths in m, converted once here at the boundary.

Default parameter values follow the published operating tables of the
tabletop experiment (laser and thermal source cases); purely hardware
figures such as pump powers and waveguide temperatures ride along as
metadata and feed no physics.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import platform
import re
import shutil
import tempfile
import time
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

from . import __version__
from .interferometry import (
    SPEED_OF_LIGHT,
    DetectorSetting,
    InterferometerGeometry,
    SourcePair,
    delay_scan,
    fringe_scan,
    pair_fringe_law,
)
from .stochastic import (
    FFT_MIN_POINTS,
    G2Curve,
    estimate_g2,
    fit_fringe_free_period,
    fit_g2_envelope,
    fitted_visibility,
    fringe_fft,
    g2_zero_scan,
    simulate_events,
)

class ConfigError(ValueError):
    """Configuration cannot be parsed or validated."""


@dataclass
class ScenarioConfig:
    """Resolved parameters of one run; every field has a scenario default."""

    scenario: str
    seed: int = 12345
    # wavelengths (nm)
    lambda1_nm: float = 1549.800
    lambda2_nm: float = 863.344
    lambda3_nm: float = 1949.157
    # sources
    source_kind: str = "coherent"
    source_rate_hz: float = 4.0e7
    coherence_time_ps: float = 318_000.0
    detuning_hz: float = 0.0
    # detectors
    theta: float = math.pi / 4.0
    pump_phase_a: float = 0.0
    pump_phase_b: float = 0.0
    output_filter: int = 1
    efficiency: float = 0.195
    splitter_efficiency: float = 0.55
    dark_count_rate_hz: float = 0.0
    v_deg: float = 1.0
    pump_on: bool = True
    # geometry
    base_path_m: float = 0.05
    # scan grids
    delay_points: int = 24
    delay_span_periods: float = 2.0
    duration_ps: float = 1.0e11
    gate_ps: int = 1000
    tau_max_ps: int = 300_000
    tau_step_ps: int = 4_000
    gates_ps: list[int] = field(default_factory=lambda: [100, 1000, 200000])
    gate_trials: int = 4
    # free space (Fig. 4 arrangement)
    source_separation_m: float = 125e-6
    screen_distance_m: float = 0.40
    separation_min_m: float = 0.2e-3
    separation_max_m: float = 14.4e-3
    separation_points: int = 36
    # erasure overlap scan
    overlap_mean_photons: list[float] = field(default_factory=lambda: [4, 8, 16, 32, 64, 128])
    overlap_theta: float = math.pi / 4.0
    overlap_phase: float = 0.0
    # hardware metadata, not modeled physics
    metadata: dict = field(default_factory=dict)

    @property
    def lambda3_m(self) -> float | None:
        return None if self.lambda3_nm <= 0 else self.lambda3_nm * 1e-9

    @property
    def duration_s(self) -> float:
        return self.duration_ps * 1e-12


def default_config(scenario: str) -> ScenarioConfig:
    return config_from_mapping({"scenario": scenario})


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# Values each annotated field type accepts.  bool is a subclass of int, so
# it is excluded from the numeric types explicitly.
_TYPE_CHECKS = {
    int: _is_int,
    float: _is_number,
    bool: lambda v: isinstance(v, bool),
    str: lambda v: isinstance(v, str),
    list[int]: lambda v: isinstance(v, list) and all(map(_is_int, v)),
    list[float]: lambda v: isinstance(v, list) and all(map(_is_number, v)),
    dict: lambda v: isinstance(v, dict),
}


def _check_types(cfg: ScenarioConfig) -> None:
    """Raise ConfigError naming the first field whose value has the wrong type."""
    for name, kind in typing.get_type_hints(ScenarioConfig).items():
        value = getattr(cfg, name)
        if not _TYPE_CHECKS[kind](value):
            expected = kind if typing.get_origin(kind) else kind.__name__
            raise ConfigError(f"{name} must be {expected}, got "
                              f"{type(value).__name__} {value!r}")


def config_from_mapping(data: dict) -> ScenarioConfig:
    if not isinstance(data, dict) or "scenario" not in data:
        raise ConfigError("config must be a mapping with a 'scenario' key")
    scenario = data["scenario"]
    if not isinstance(scenario, str) or scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}; valid: {', '.join(SCENARIOS)}")
    known = {f.name for f in dataclasses.fields(ScenarioConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    merged = dict(SCENARIOS[scenario][1])
    merged.update({k: v for k, v in data.items() if k != "scenario"})
    cfg = ScenarioConfig(scenario=scenario, **merged)
    _check_types(cfg)
    validate_config(cfg)
    return cfg


class _NumberLoader(yaml.SafeLoader):
    """Safe YAML that also reads exponent floats such as 2e9 as numbers.

    PyYAML follows YAML 1.1, which reads 2e9 and 1.0e9 as strings; YAML 1.2
    and Python read them as floats.  Config files and overrides both use it.
    """


_NumberLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?[0-9][0-9_]*(?:\.[0-9_]*)?[eE][-+]?[0-9]+$"),
    list("-+0123456789"))


def _read_yaml(text: str):
    return yaml.load(text, Loader=_NumberLoader)


def load_config(path: str | Path) -> ScenarioConfig:
    try:
        data = _read_yaml(Path(path).read_text())
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_mapping(data)


def serialize_config(cfg: ScenarioConfig) -> str:
    """Canonical YAML of the fully resolved config (round-trip idempotent)."""
    return yaml.safe_dump(dataclasses.asdict(cfg), sort_keys=True)


def config_hash(cfg: ScenarioConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()


def apply_overrides(cfg: ScenarioConfig, overrides: list[str]) -> ScenarioConfig:
    """Apply key=value strings, each value read as a YAML scalar.

    A list field takes comma-separated scalars.  Types are not coerced:
    the resolved config is type-checked like a loaded file, so pump_on=ture
    or gate_ps=999.5 is a ConfigError naming the field.  The scenario takes
    no override: cfg's other fields already hold its scenario's defaults.
    """
    data = dataclasses.asdict(cfg)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, _, raw = item.partition("=")
        if key not in data or key in ("scenario", "metadata"):
            raise ConfigError(f"unknown override key {key!r}")
        try:
            if isinstance(data[key], list):
                data[key] = [_read_yaml(x) for x in raw.split(",")]
            else:
                data[key] = _read_yaml(raw)
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse override {item!r}: {exc}") from exc
    return config_from_mapping(data)


def validate_config(cfg: ScenarioConfig) -> None:
    for name in ("duration_ps", "gate_ps", "tau_step_ps", "delay_span_periods", "efficiency"):
        if getattr(cfg, name) <= 0:
            raise ConfigError(f"{name} must be positive")
    for name in ("gates_ps", "overlap_mean_photons"):
        values = getattr(cfg, name)
        if not values or any(v <= 0 for v in values):
            raise ConfigError(f"{name} must have at least one entry, each positive")
    # the sinusoid fits have 3 (known period) or 4 (free period) parameters
    for name in ("delay_points", "separation_points"):
        if getattr(cfg, name) < 4:
            raise ConfigError(f"{name} must be at least 4")
    if cfg.separation_max_m <= cfg.separation_min_m:
        raise ConfigError("separation_max_m must exceed separation_min_m")
    if cfg.gate_trials < 2:
        raise ConfigError("gate_trials must be at least 2 for a confidence interval")
    runner = SCENARIOS[cfg.scenario][0]
    if runner in _DELAY_RUNNERS and cfg.lambda3_m is None:
        raise ConfigError("delay scans require a pump wavelength")
    if runner is _run_fft and cfg.delay_points < FFT_MIN_POINTS:
        raise ConfigError(f"FFT scans need at least {FFT_MIN_POINTS} delay_points")
    if runner is _run_fft and cfg.delay_points <= 2 * cfg.delay_span_periods:
        raise ConfigError(f"FFT scans need delay_points above 2 * delay_span_periods = "
                          f"{2 * cfg.delay_span_periods:g}: at two points per pump "
                          f"period or fewer the fringe aliases")
    if runner is _run_g2_tau and cfg.tau_max_ps < 2 * cfg.tau_step_ps:
        # the three-parameter envelope fit needs three tau points
        raise ConfigError("tau_max_ps must be at least 2 * tau_step_ps")
    # the constructors check the rest here rather than mid-run, and an error
    # names the config keys its builder reads
    for build, keys in (
            (make_geometry, "lambda1_nm, lambda2_nm, lambda3_nm, base_path_m"),
            (make_sources, "source_kind, source_rate_hz, coherence_time_ps, detuning_hz"),
            (make_detectors, "theta, pump_on, pump_phase_a, pump_phase_b, output_filter, "
                             "efficiency, dark_count_rate_hz, v_deg"),
            (_splitter_detector, "splitter_efficiency"),
            (lambda c: _free_space_geometry(c, c.separation_min_m),
             "source_separation_m, screen_distance_m, separation_min_m, lambda1_nm, "
             "lambda2_nm, lambda3_nm")):
        try:
            build(cfg)
        except ValueError as exc:
            raise ConfigError(f"{exc} (read from {keys})") from exc


# ---------------------------------------------------------------------------
# Builders.

def make_geometry(cfg: ScenarioConfig) -> InterferometerGeometry:
    ell = cfg.base_path_m
    return InterferometerGeometry(cfg.lambda1_nm * 1e-9, cfg.lambda2_nm * 1e-9,
                                  cfg.lambda3_m, ell, ell, ell, ell)


def make_sources(cfg: ScenarioConfig) -> SourcePair:
    return SourcePair(cfg.source_kind, cfg.source_rate_hz, cfg.source_rate_hz,
                      cfg.coherence_time_ps * 1e-12, cfg.detuning_hz)


def make_detectors(cfg: ScenarioConfig) -> tuple[DetectorSetting, DetectorSetting]:
    theta = cfg.theta if cfg.pump_on else None  # pump off: no conversion stage
    common = dict(output_filter=cfg.output_filter, efficiency=cfg.efficiency,
                  dark_count_rate=cfg.dark_count_rate_hz,
                  visibility_degradation=cfg.v_deg)
    return (DetectorSetting(theta, cfg.pump_phase_a, **common),
            DetectorSetting(theta, cfg.pump_phase_b, **common))


def _splitter_detector(cfg: ScenarioConfig) -> DetectorSetting:
    """Each output of the splitter that characterizes one thermal beam."""
    return DetectorSetting(None, efficiency=cfg.splitter_efficiency)


def _delays(cfg: ScenarioConfig) -> np.ndarray:
    """The arm-B delays of a delay scan, over delay_span_periods pump
    wavelengths."""
    return np.linspace(0.0, cfg.delay_span_periods * cfg.lambda3_m,
                       cfg.delay_points, endpoint=False)


def _free_space_geometry(cfg: ScenarioConfig, separation_m: float | np.ndarray
                         ) -> InterferometerGeometry:
    return InterferometerGeometry.from_free_space(
        cfg.source_separation_m, cfg.screen_distance_m, separation_m,
        cfg.lambda1_nm * 1e-9, cfg.lambda2_nm * 1e-9, cfg.lambda3_m)


def write_csv(path: Path, header: str, *columns) -> None:
    """Text table: the header line, then one line per row.

    Scalar columns broadcast against the array ones.  Integer columns are
    written as integers, the others at 12 significant digits with any
    non-finite value (an empty stream's g2) as nan.
    """
    cells = []
    for column in np.broadcast_arrays(*columns):
        values = column.tolist()
        cells.append([str(v) for v in values] if column.dtype.kind in "iu" else
                     [f"{v:.12g}" if math.isfinite(v) else "nan" for v in values])
    Path(path).write_text("\n".join([header, *map(",".join, zip(*cells))]) + "\n")


def _write_scan_csv(path: Path, x_name: str, xs, scan: np.recarray) -> None:
    names = scan.dtype.names
    write_csv(path, ",".join((x_name, *names)), xs, *(scan[n] for n in names))


def _write_g2_csv(path: Path, curve: G2Curve) -> None:
    write_csv(path, "tau_ps,g2,n_coincidence,n_A,n_B,n_bin", curve.taus_ps,
              curve.values, curve.n_coincidence, curve.n_a, curve.n_b, curve.n_bin)


# ---------------------------------------------------------------------------
# Scenario implementations.  Each returns a dict of result metrics; emitted
# file names are collected by the caller.

def _mc_scan(cfg: ScenarioConfig, geometry: InterferometerGeometry) -> np.ndarray:
    """The Monte Carlo g2(0) at each point of a batch geometry, at the
    configured gate."""
    return g2_zero_scan(make_sources(cfg), geometry, *make_detectors(cfg),
                        cfg.duration_s, [cfg.gate_ps], cfg.seed)[:, 0]


def _mc_delay_scan(cfg: ScenarioConfig, out: Path, delays: np.ndarray) -> np.ndarray:
    """The Monte Carlo g2(0) at each arm-B delay, written to delay_scan_mc.csv."""
    g2 = _mc_scan(cfg, make_geometry(cfg).with_delay(delays))
    write_csv(out / "delay_scan_mc.csv", "delay_m,g2", delays, g2)
    return g2


def _run_delay_scan(cfg: ScenarioConfig, out: Path) -> dict:
    delays = _delays(cfg)
    g2 = _mc_delay_scan(cfg, out, delays)
    geometry, pair = make_geometry(cfg), make_sources(cfg)
    det_a, det_b = make_detectors(cfg)
    analytic = delay_scan(geometry, delays, pair.kind, det_a, det_b, *pair.rates_at_detector)
    _write_scan_csv(out / "delay_scan_analytic.csv", "delay_m", delays, analytic)
    vis = fitted_visibility(delays, g2, cfg.lambda3_m)
    base, amp, _ = pair_fringe_law(det_a, det_b, geometry, pair.kind, *pair.rates_at_detector)
    return {"fitted_visibility": vis, "mean_g2": float(np.mean(g2)),
            "analytic_visibility": amp / base}


def _run_fft(cfg: ScenarioConfig, out: Path) -> dict:
    delays = _delays(cfg)
    freqs, spectrum, peak = fringe_fft(delays, _mc_delay_scan(cfg, out, delays))
    write_csv(out / "spectrum.csv", "frequency_hz,magnitude", freqs, spectrum)
    median = float(np.median(spectrum[1:]))
    ratio = float(np.max(spectrum[1:])) / median if median > 0 else math.inf
    return {"peak_frequency_hz": peak,
            "expected_frequency_hz": SPEED_OF_LIGHT / cfg.lambda3_m,
            "peak_to_median": math.nan if math.isnan(peak) else ratio,
            "frequency_bin_hz": float(freqs[1] - freqs[0])}


def _run_g2_tau(cfg: ScenarioConfig, out: Path) -> dict:
    geometry, pair = make_geometry(cfg), make_sources(cfg)
    det_a, det_b = make_detectors(cfg)
    taus = np.arange(0, cfg.tau_max_ps + 1, cfg.tau_step_ps, dtype=np.int64)
    a, b = simulate_events(pair, geometry, det_a, det_b, cfg.duration_s, cfg.seed)
    curve = estimate_g2(a, b, taus, cfg.gate_ps)
    _write_g2_csv(out / "g2_tau.csv", curve)
    result: dict = {"n_a": curve.n_a, "n_b": curve.n_b,
                    "g2_zero": float(curve.values[0])}
    # slot-model thermal sources decay with a triangular correlation
    # instead, so the envelope fit applies to beating lasers only
    if pair.kind == "coherent" and pair.detuning_hz != 0 and cfg.pump_on:
        amp, decay_s, _, at_bound = fit_g2_envelope(curve.taus_ps * 1e-12, curve.values,
                                                    cfg.detuning_hz)
        result.update({"envelope_amplitude": amp,
                       "envelope_decay_ps": decay_s * 1e12,
                       "envelope_at_bound": at_bound,
                       "configured_coherence_ps": cfg.coherence_time_ps})
    if pair.kind == "thermal":
        # source characterization: one thermal beam on a balanced splitter
        splitter_det = _splitter_detector(cfg)
        a, b = simulate_events(dataclasses.replace(pair, rate2=0.0), geometry,
                               splitter_det, splitter_det, cfg.duration_s,
                               cfg.seed, trial=len(taus) + 1)
        sp_taus = np.arange(0, 10 * int(cfg.coherence_time_ps) + 1,
                            cfg.gate_ps, dtype=np.int64)
        sp = estimate_g2(a, b, sp_taus, cfg.gate_ps)
        _write_g2_csv(out / "splitter_g2.csv", sp)
        result["splitter_g2_zero"] = float(sp.values[0])
    return result


def _run_free_space(cfg: ScenarioConfig, out: Path) -> dict:
    xs = np.linspace(cfg.separation_min_m, cfg.separation_max_m,
                     cfg.separation_points)
    geometry = _free_space_geometry(cfg, xs)
    pair = make_sources(cfg)
    analytic = fringe_scan(geometry, pair.kind, *make_detectors(cfg), *pair.rates_at_detector)
    _write_scan_csv(out / "fringe_analytic.csv", "separation_m", xs, analytic)
    g2 = _mc_scan(cfg, geometry)
    write_csv(out / "fringe_mc.csv", "separation_m,g2", xs, g2)
    period = fit_fringe_free_period(xs, analytic.probability)[2]
    fitted_period = fit_fringe_free_period(xs, g2)[2]
    vis = fitted_visibility(xs, g2, period) if math.isfinite(period) else math.nan
    return {"analytic_period_m": period, "fitted_period_m": fitted_period,
            "fitted_visibility": vis}


def _t_quantile(p: float, nu: int) -> float:
    """Quantile of Student's t with nu degrees of freedom at p > 1/2.

    For integer nu the two-sided tail P(|T| > t) has a finite closed form
    (Abramowitz & Stegun 26.7.3-4): with cos^2(theta) = nu / (nu + t^2) it
    is (2/pi)*(atan(sqrt(nu)/t) - S) for odd nu and 1 - S for even nu, S a
    finite series in cos^2(theta).  The tail is convex in t, so Newton's
    method from t = 0 climbs to the root from below; it stops at the first
    step that does not move t up.
    """
    tail = 2.0 * (1.0 - p)
    odd = nu % 2
    log_density0 = (math.lgamma((nu + 1) / 2) - math.lgamma(nu / 2)
                    - 0.5 * math.log(nu * math.pi))
    t = 0.0
    while True:
        cos2 = nu / (nu + t * t)
        term = t / math.sqrt(nu + t * t) * (math.sqrt(cos2) if odd else 1.0)
        series = 0.0
        for j in range(2 + odd, nu + 1, 2):
            series += term
            term *= cos2 * (j - 1) / j
        excess = (2.0 / math.pi * (math.atan2(math.sqrt(nu), t) - series) if odd
                  else 1.0 - series) - tail
        t_next = t + excess / (2.0 * math.exp(log_density0 + 0.5 * (nu + 1) * math.log(cos2)))
        if t_next <= t:
            return t
        t = t_next


def _run_gate_time(cfg: ScenarioConfig, out: Path) -> dict:
    """Fringe visibility versus coincidence gate width: per gate, the mean
    over gate_trials trials and its 95% Student-t half-width.

    Each trial is one g2_zero_scan over the arm-B delays, its points
    numbered on from the trial before, whose visibility is fitted at every
    gate."""
    delays, n = _delays(cfg), cfg.gate_trials
    scan = (make_sources(cfg), make_geometry(cfg).with_delay(delays), *make_detectors(cfg),
            cfg.duration_s, cfg.gates_ps, cfg.seed)
    # visibility per gate (rows) and trial (columns); the copy makes each
    # row contiguous, so its mean and std sum in a lone row's pairwise order
    vis = np.array([[fitted_visibility(delays, g2, cfg.lambda3_m)
                     for g2 in g2_zero_scan(*scan, first_trial=trial * delays.size).T]
                    for trial in range(n)]).T.copy()
    mean = vis.mean(axis=1)
    half = _t_quantile(0.975, n - 1) * vis.std(axis=1, ddof=1) / math.sqrt(n)
    write_csv(out / "gate_time.csv", "gate_ps,visibility,ci95_halfwidth",
              cfg.gates_ps, mean, half)
    return {"rows": [{"gate_ps": g, "visibility": m, "ci95": h, "trials": t}
                     for g, m, h, t in zip(cfg.gates_ps, mean.tolist(), half.tolist(),
                                           vis.tolist())]}


def _run_overlap_scan(cfg: ScenarioConfig, out: Path) -> dict:
    from .erasure import erasure_overlap  # the exact layer: only this scan loads it
    ns = [float(n) for n in cfg.overlap_mean_photons]
    overlaps = np.array([erasure_overlap(n, cfg.overlap_theta, cfg.overlap_phase)
                         for n in ns])
    write_csv(out / "overlap.csv", "mean_photons,overlap,deficit",
              ns, overlaps, 1.0 - overlaps)
    return {"deficits": {f"{n:g}": 1.0 - ov for n, ov in zip(ns, overlaps.tolist())}}


_LASER_METADATA = {
    "ucspd_efficiency": 0.195,
    "waveguide_temp_a_celsius": 36.4,
    "waveguide_temp_b_celsius": 52.9,
    "pump_power_mw": 152.6,
}
_THERMAL_METADATA = {
    "si_apd_efficiency": 0.55,
    "ucspd_efficiency": 0.195,
    "waveguide_temp_a_celsius": 37.4,
    "waveguide_temp_b_celsius": 34.9,
    "pump_power_mw": 192.3,
    "filter_bandwidth_hz": 50e6,
}
_THERMAL_BASE = {
    "lambda1_nm": 1549.968,
    "lambda2_nm": 863.396,
    "source_kind": "thermal",
    "source_rate_hz": 2.0e7,
    # 50 MHz etalon: coherence time = 1/(pi * bandwidth)
    "coherence_time_ps": 6366.0,
    "gate_ps": 500,
    "metadata": _THERMAL_METADATA,
}

# Scenario name -> (runner, defaults): the runner writes the data files of
# one resolved config and returns its result metrics; the defaults
# override ScenarioConfig's field defaults.
SCENARIOS: dict[str, tuple[Callable[[ScenarioConfig, Path], dict], dict]] = {
    "laser_delay_scan": (_run_delay_scan, {"metadata": _LASER_METADATA}),
    "laser_fft": (_run_fft, {"delay_points": 40, "delay_span_periods": 10.0,
                             "duration_ps": 2.5e10, "metadata": _LASER_METADATA}),
    "laser_g2_tau": (_run_g2_tau, {"coherence_time_ps": 106_103.0,
                                   "detuning_hz": 25e6, "duration_ps": 3.0e11,
                                   "metadata": _LASER_METADATA}),
    "thermal_delay_scan": (_run_delay_scan, dict(_THERMAL_BASE, duration_ps=1.0e11)),
    "thermal_fft": (_run_fft, dict(_THERMAL_BASE, delay_points=40,
                                   delay_span_periods=10.0, duration_ps=4.0e10)),
    "thermal_g2_tau": (_run_g2_tau, dict(_THERMAL_BASE, detuning_hz=100e6,
                                         duration_ps=5.0e10, tau_max_ps=25_000,
                                         tau_step_ps=1_000, gate_ps=500)),
    "free_space_hbt": (_run_free_space, {"duration_ps": 5.0e10,
                                         "source_rate_hz": 4.0e7}),
    "free_space_same_wavelength": (_run_free_space, {
        "lambda2_nm": 1549.800, "lambda3_nm": -1.0, "pump_on": False,
        "duration_ps": 5.0e10, "separation_min_m": 0.2e-3,
        "separation_max_m": 15.2e-3, "separation_points": 36}),
    "gate_time_study": (_run_gate_time, dict(
        _THERMAL_BASE, coherence_time_ps=20_000.0, duration_ps=2.5e11,
        delay_points=10, delay_span_periods=1.5, source_rate_hz=2.0e7)),
    "erasure_overlap_scan": (_run_overlap_scan, {}),
}

# runners whose delay grid is measured in pump wavelengths
_DELAY_RUNNERS = (_run_delay_scan, _run_fft, _run_gate_time)


def run_scenario(cfg: ScenarioConfig, out_dir: str | Path) -> dict:
    """Run one scenario into out_dir; returns the written manifest.

    The scenario writes into a temporary sibling directory; only when it
    has finished are its files moved into out_dir, the manifest last.  The
    manifest lists exactly the data files this run wrote, and a run that
    raises leaves out_dir as it was.
    """
    out = Path(out_dir).resolve()
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
        staging = Path(tempfile.mkdtemp(prefix=f".{out.name}.", dir=out.parent))
    except OSError as exc:
        raise ConfigError(f"output directory {out} is not writable: {exc}") from exc
    try:
        started = time.perf_counter()
        results = SCENARIOS[cfg.scenario][0](cfg, staging)
        elapsed = time.perf_counter() - started
        (staging / "config.yaml").write_text(serialize_config(cfg))
        data_files = sorted(p.name for p in staging.iterdir() if p.suffix == ".csv")
        manifest = {
            "scenario": cfg.scenario,
            "seed": cfg.seed,
            "config_sha256": config_hash(cfg),
            "versions": {"chromint": __version__, "numpy": np.__version__,
                         "pyyaml": yaml.__version__, "python": platform.python_version()},
            "wall_time_s": round(elapsed, 3),
            "data_files": {name: hashlib.sha256((staging / name).read_bytes()).hexdigest()
                           for name in data_files},
            "results": results,
        }
        (staging / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True))
        # a previous manifest must not vouch for files replaced below
        (out / "manifest.json").unlink(missing_ok=True)
        for name in data_files + ["config.yaml", "manifest.json"]:
            os.replace(staging / name, out / name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return manifest
