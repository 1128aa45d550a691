"""One command for the whole benchmark: every workload untraced and traced,
printed as tables with units.

    python3 perfbench/report.py [--seconds 25] [--seed 0] [--suite] [--json FILE]

Prints cells_per_ref_s, cells_per_s (unscaled), setup_s, peak_rss_mb and
failed_ratio per workload,
then each layer's self time per cell and share from the traced run, the
tracing overhead and whether traced outputs matched untraced ones byte for
byte, then non-gating context. ``--suite`` adds a one-shot, non-gating
timing of each acceptance criterion from ``pytest --durations=0`` (about
85 s on a 2-core host). ``--json`` also writes everything to FILE.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import re
import statistics
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from layers import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DURATION = re.compile(r"^\s*([\d.]+)s (setup|call|teardown)\s+"
                      r"tests/test_acceptance\.py::(\S+)")


def suite_timings() -> dict:
    """Seconds per acceptance test (setup + call + teardown); a shared
    fixture's cost lands on the first test that uses it."""
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "tests/test_acceptance.py",
         "--durations=0", "--durations-min=0", "-q", "-p", "no:cacheprovider"],
        cwd=run.ROOT, env=env, capture_output=True, text=True, timeout=900)
    times: dict = {}
    for line in proc.stdout.splitlines():
        m = DURATION.match(line)
        if m:
            times[m.group(3)] = times.get(m.group(3), 0.0) + float(m.group(1))
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return {"tests": dict(sorted(times.items())), "summary": summary}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    parser.add_argument("--suite", action="store_true")
    parser.add_argument("--json", type=Path)
    args = parser.parse_args()
    if not (run.SRC / "plantedclique" / "cli.py").is_file():
        print(f"perfbench: no program source under {run.SRC}", file=sys.stderr)
        return 2

    # each run.run in a fresh process: a child's ru_maxrss starts from the
    # high-water mark of the process that spawned it
    results = {}
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(1, mp_context=spawn, max_tasks_per_child=1) as pool:
        for name in WORKLOADS:
            results[name] = {
                "untraced": pool.submit(run.run, name, args.seed, args.seconds,
                                        False).result(),
                "traced": pool.submit(run.run, name, args.seed, args.seconds,
                                      True).result()}

    print(f"{'workload':12s} {'cells_per_ref_s':>16s} {'cells_per_s':>12s} "
          f"{'setup_s':>9s} {'peak_rss_mb':>12s} {'failed_ratio':>13s}")
    print(f"{'':12s} {'(1/s)':>16s} {'(1/s)':>12s} {'(s)':>9s} {'(MB)':>12s} "
          f"{'(ratio)':>13s}")
    for name, r in results.items():
        u, m = r["untraced"], r["untraced"]["metrics"]
        raw = statistics.median(u["cells_per_s"]) if u["cells_per_s"] else 0.0
        print(f"{name:12s} {m.get('cells_per_ref_s', 0):16.4f} {raw:12.4f} "
              f"{m.get('setup_s', 0):9.4f} {m.get('peak_rss_mb', 0):12.1f} "
              f"{u['failed'] / u['attempted']:13.4f}")

    print("\nlayer self time per cell, s (share of traced call time + set-up)")
    print(f"{'workload':12s} " + " ".join(f"{layer:>17s}" for layer in LAYERS))
    for name, r in results.items():
        m = r["traced"]["metrics"]
        print(f"{name:12s} " + " ".join(
            f"{m.get(f'{layer}.self_s', 0):9.4f} ({m.get(f'{layer}.share', 0):5.1%})"
            for layer in LAYERS))

    print(f"\n{'workload':12s} {'overhead':>9s} {'identical':>10s} "
          f"{'stay_ratio':>11s} {'gd_step_us':>11s} {'gibbs_us':>9s}")
    for name, r in results.items():
        m = r["traced"]["metrics"]
        print(f"{name:12s} {m.get('trace.overhead', 0):9.1%} "
              f"{m.get('trace.identical_calls', 0):4d}/{m.get('trace.calls', 0):<5d} "
              f"{m.get('chains.stay_ratio', 0):11.3f} "
              f"{m.get('chains.gd_step_us', 0):11.1f} "
              f"{m.get('chains.gibbs_step_us', 0):9.1f}")
        for problem in r["untraced"]["problems"] + r["traced"]["problems"]:
            print(f"  problem: {problem}")

    ctx = next(iter(results.values()))["untraced"]["context"]
    print(f"\nsrc_lines {ctx['src_lines']}, nproc {ctx['nproc']}, "
          f"L2 per core {ctx['l2_bytes_per_core']} B")
    for name, r in results.items():
        graphs = r["untraced"]["context"]["packed_graph_bytes"]
        print(f"  {name}: packed graph bytes {graphs}")

    out = {"seed": args.seed, "seconds": args.seconds, "workloads": results}
    if args.suite:
        out["suite"] = suite_timings()
        print(f"\nacceptance suite ({out['suite']['summary']}), seconds per test:")
        for test, secs in out["suite"]["tests"].items():
            print(f"  {secs:8.2f}  {test}")
    if args.json:
        args.json.write_text(json.dumps(out, indent=1, default=str) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
