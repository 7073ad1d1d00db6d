#!/usr/bin/env python3
"""Reproduce the headline interference figures as data files.

Runs every scenario with its default (published operating point) parameters
into runs/<scenario>/, including the pump-off comparison curves that show
the interference disappearing without color erasure.  Expect roughly ten
minutes of wall time for the full set.

    python scripts/run_figures.py [--out runs] [--seed 12345] [--quick]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from chromint.scenarios import SCENARIOS, apply_overrides, default_config, run_scenario

QUICK_OVERRIDES = ["duration_ps=5e9", "delay_points=16", "gate_trials=2"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs")
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--quick", action="store_true",
                        help="tiny durations, for smoke-testing the pipeline")
    args = parser.parse_args()

    jobs = [(name, []) for name in SCENARIOS]
    # pump-off comparison partners (blue curves of the fringe figures)
    jobs += [("laser_delay_scan", ["pump_on=false"]),
             ("laser_fft", ["pump_on=false"]),
             ("thermal_delay_scan", ["pump_on=false"]),
             ("free_space_hbt", ["pump_on=false"])]

    out_root = Path(args.out)
    for name, extra in jobs:
        cfg = default_config(name)
        overrides = [f"seed={args.seed}"] + extra
        if args.quick and name != "erasure_overlap_scan":
            overrides += QUICK_OVERRIDES
            if name.endswith("_fft"):
                # keep the fringe below Nyquist at 16 scan points
                overrides += ["delay_span_periods=4"]
        cfg = apply_overrides(cfg, overrides)
        suffix = "_pump_off" if "pump_on=false" in extra else ""
        target = out_root / f"{name}{suffix}"
        started = time.perf_counter()
        manifest = run_scenario(cfg, target)
        keys = ", ".join(f"{k}={v}" for k, v in manifest["results"].items()
                         if isinstance(v, (int, float)))
        print(f"{target}  [{time.perf_counter() - started:.1f}s]  {keys}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
