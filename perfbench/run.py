#!/usr/bin/env python3
"""chromint benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a chromint checkout.  The workloads, metrics and
bounds are listed in BENCHMARK.json; why each workload was chosen is in the
docstring of its set-up function in perfbench/workloads.py.

Load is a closed loop from this one process: it runs repetitions of the
workload one after another, each in a fresh interpreter (workloads.py),
and waits for each before starting the next.  It keeps starting them until
S seconds have passed, and runs at least MIN_REPS of them (with --trace 1,
at least MIN_REPS untraced and MIN_REPS traced).  The BLAS thread count of the
workload process is fixed here, before numpy is imported, at BLAS_THREADS
capped at the number of usable cores.

--trace 0 reports the end-to-end metrics: the median over repetitions of
wall time of the timed region (wall_s), of set-up time from starting the
interpreter to the timed region (setup_s), and of peak resident memory
(peak_rss_mb).  --trace 1 alternates untraced and traced repetitions and
reports the per-layer metrics as medians over the traced ones, plus
trace_overhead_share, the traced median wall time over the untraced one,
minus 1.

Every repetition checks its outputs; a repetition whose checks fail, or
that crashes, counts as failed.  Repetitions of one seed must produce
identical output digests.  The last line printed is one JSON object with
the keys correct, attempted, failed and metrics.

Seeds 1 to 30 were used while the benchmark was written; HELD_OUT_SEED was
not.  Confirm a claimed gain on the held-out seed as well.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BLAS_THREADS = 2
MIN_REPS = 3
# Every repetition must end this long after the benchmark starts.
DEADLINE_S = 170.0
HELD_OUT_SEED = 271828


def workload_env(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_rep(args, traced: bool, index: int, env: dict, deadline: float) -> dict:
    """One repetition in a fresh interpreter; its JSON result, with 'ok'."""
    run_dir = Path.cwd() / ".bench_work" / f"{args.workload}-{os.getpid()}-{index}"
    shutil.rmtree(run_dir, ignore_errors=True)
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(traced)),
           "--dir", str(run_dir), "--spawned", repr(spawned)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        return {"ok": False, "traced": traced, "errors": ["timed out"]}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-5:]
        # Exit code 2 is argparse's: the workload rejected its arguments.
        return {"ok": False, "traced": traced, "usage": proc.returncode == 2,
                "errors": [f"exited {proc.returncode}: " + " | ".join(tail)]}
    result.update(traced=traced, ok=proc.returncode == 0 and not result["errors"])
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="chromint benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "chromint" / "__init__.py").is_file():
        print("perfbench: run from the root of a chromint checkout "
              "(no src/chromint here)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())

    env = workload_env(root)
    started = time.monotonic()
    deadline = started + DEADLINE_S
    modes = (False, True) if args.trace else (False,)
    reps: list[dict] = []
    while ((len(reps) < MIN_REPS * len(modes)
            or time.monotonic() - started < args.seconds)
           and time.monotonic() < deadline):
        rep = run_rep(args, modes[len(reps) % len(modes)], len(reps), env, deadline)
        if rep.get("usage"):
            print(f"perfbench: {rep['errors'][0]}", file=sys.stderr)
            return 2
        reps.append(rep)
        print(f"rep {len(reps)} traced={int(rep['traced'])} ok={rep['ok']} "
              f"wall_s={rep.get('wall_s')} setup_s={rep.get('setup_s')}", file=sys.stderr)
        for error in rep["errors"]:
            print(f"  check failed: {error}", file=sys.stderr)

    timed = [r for r in reps if "wall_s" in r]
    plain = [r for r in timed if not r["traced"]]
    traced = [r for r in timed if r["traced"]]
    if not plain or (args.trace and not traced):
        print("perfbench: no repetition produced a timing", file=sys.stderr)
        return 1
    digests = {r["digest"] for r in timed}
    if len(digests) > 1:
        print(f"perfbench: outputs differ between repetitions of seed {args.seed}",
              file=sys.stderr)
    failed = sum(not r["ok"] for r in reps)

    if args.trace:
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        values["trace_overhead_share"] = (
            statistics.median(r["wall_s"] for r in traced)
            / statistics.median(r["wall_s"] for r in plain) - 1.0)
        wanted = spec["per_layer"]
    else:
        values = {name: statistics.median(r[name] for r in plain)
                  for name in ("wall_s", "setup_s", "peak_rss_mb")}
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: workload reported no {', '.join(missing)}", file=sys.stderr)
        return 1

    print(json.dumps({"env": timed[0]["env"], "repetitions": len(reps),
                      "held_out_seed": HELD_OUT_SEED}))
    print(json.dumps({
        "correct": failed == 0 and len(digests) == 1,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
