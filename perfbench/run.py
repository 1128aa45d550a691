"""Benchmark entry point: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload figure-gd --seed 0 --seconds 25 --trace 0

Runs batches of cells until ``--seconds`` have passed. Each batch is one
multi-seed experiment per CLI call of the workload (see workloads.py), each
call in a fresh interpreter (child.py) and a fresh directory. Every batch
repeats the same experiment, on instance seeds that come from ``--seed``
alone, so batches differ only in how fast the host ran them. After the timed
loop the first batch's outputs are checked (checks.py), with the digests
pinned in digests.json when ``--seed`` is 0, and every later batch must
write the same bytes.

With ``--trace 0`` the result holds the end-to-end metrics:
  cells_per_ref_s  median over batches of cells finished per second of CLI
                   time, at the reference host speed (below)
  setup_s          median over calls of import plus config parse and
                   validation, at the reference host speed
  peak_rss_mb      median over batches of the largest call's ru_maxrss
Each CPU of the host this was built on runs for seconds to minutes at a
time at speeds about 1.5x apart, which no statistic over one run can hide.
So a run pins itself and its children to one CPU and times a fixed kernel
that does not use the program (reference_s) right before and right after
each call; REF_S_NOMINAL / their mean is the host speed at that call, and
the call's times are multiplied by it. The unscaled values and the host
speed are printed too.
With ``--trace 1`` every batch also runs a traced twin of each call; the
result holds the per-layer metrics (layers.py), the tracing overhead and
whether the traced outputs equal the untraced ones byte for byte.

The last line of stdout is the JSON result; the lines before it print each
metric with its unit, the failed ratio and non-gating context.

    python3 perfbench/run.py --record-digests

re-records digests.json from the current program (after a deliberate change
of output bytes only).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, cell_seeds, seeds_text

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
# L2 per core of the reference host (2-core Xeon), used where libc cannot tell
L2_BYTES_PER_CORE = 2 * 2**20
CHILD_TIMEOUT_S = 150
# median reference_s() on the reference host (2-core Xeon VM)
REF_S_NOMINAL = 0.11


def reference_s() -> float:
    """Seconds for fixed work that does not use the program: a pure-Python
    loop, small numpy calls in a loop and large-array numpy work, about a
    third each, so it slows down with the host the way the workloads do."""
    import numpy as np
    rng = np.random.Generator(np.random.PCG64(0))
    small = np.arange(2000, dtype=np.int64)
    member = np.zeros(2000, dtype=bool)
    t0 = time.perf_counter()
    total = 0
    for i in range(600_000):
        total += i
    for i in range(3000):
        np.where(member, 5 * small - 3, 3 - 5 * small).min()
        member[i % 2000] ^= True
    for _ in range(12):
        np.packbits(rng.random(250_000) < 0.5)
    return time.perf_counter() - t0


def timed_child(call_dir: Path, argv: list, trace: bool) -> dict:
    """``run_child`` bracketed by the reference kernel."""
    before = reference_s()
    result = run_child(call_dir, argv, trace)
    result["ref_s"] = (before + reference_s()) / 2
    return result


def run_child(call_dir: Path, argv: list, trace: bool) -> dict:
    """Run one CLI call in a fresh interpreter; returns its timings."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), json.dumps(argv),
         "1" if trace else "0"],
        cwd=call_dir, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"child exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-500:]}"}


def prepare(call, call_dir: Path, seeds) -> list:
    call_dir.mkdir(parents=True)
    for name, text in call.files(seeds_text(seeds)).items():
        (call_dir / name).write_text(text)
    return call.argv(seeds_text(seeds))


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def context(calls) -> dict:
    """Non-gating facts printed with every result."""
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "plantedclique").glob("*.py")))
    try:
        l2 = os.sysconf("SC_LEVEL2_CACHE_SIZE") or L2_BYTES_PER_CORE
    except (ValueError, OSError):
        l2 = L2_BYTES_PER_CORE
    graphs = {c.label: c.params["n"] * math.ceil(c.params["n"] / 8)
              * (2 if c.label == "coupled" else 1) for c in calls}
    return {"src_lines": src_lines, "packed_graph_bytes": graphs,
            "l2_bytes_per_core": l2, "nproc": os.cpu_count()}


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    run_dir = OUT / f"{name}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})   # children inherit it
    try:
        # warm-up: fill the page cache (and byte-compile where allowed)
        subprocess.run([sys.executable, "-c",
                        f"import sys; sys.path.insert(0, {str(SRC)!r}); "
                        "import plantedclique.cli"],
                       cwd=run_dir, check=True, timeout=CHILD_TIMEOUT_S)
        batches = []
        start = time.perf_counter()
        while not batches or time.perf_counter() - start < seconds:
            batch = []
            for call in WORKLOADS[name]:
                seeds = cell_seeds(seed, call.cells)
                call_dir = run_dir / f"b{len(batches)}" / call.label
                argv = prepare(call, call_dir, seeds)
                entry = {"call": call, "seeds": seeds, "dir": call_dir,
                         "r": timed_child(call_dir, argv, False)}
                if trace:
                    twin = call_dir.with_name(call.label + ".traced")
                    prepare(call, twin, seeds)
                    entry["twin"] = twin
                    entry["rt"] = timed_child(twin, argv, True)
                batch.append(entry)
            batches.append(batch)
        return evaluate(name, seed, trace, batches)
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(run_dir, ignore_errors=True)
        if OUT.is_dir() and not any(OUT.iterdir()):
            OUT.rmdir()


def evaluate(name, seed, trace, batches) -> dict:
    """Check every output, then reduce the timings to metrics."""
    sys.path.insert(0, str(SRC))
    from checks import check_call, digest_errors, same_outputs
    pinned = {}
    if seed == DEFAULT_SEED:
        pinned = json.loads(DIGESTS.read_text())["workloads"].get(name, {})
    attempted = failed = steps = stays = identical = 0
    problems = []
    checked = {}    # call label -> (output dir, CallCheck) of its first batch
    for entry in (e for batch in batches for e in batch):
        call, seeds, out = entry["call"], entry["seeds"], entry["dir"] / "out"
        attempted += len(seeds)
        errors = [entry[k]["error"] for k in ("r", "rt")
                  if k in entry and entry[k]["error"]]
        if not errors:
            if call.label not in checked:
                res = check_call(call.label, call.params, out, seeds)
                digest_errors(res, pinned.get(call.label, {}))
                checked[call.label] = out, res
                steps += res.steps
                stays += res.stays
            first, res = checked[call.label]
            errors = [f"differs from the first batch: {d}"
                      for d in same_outputs(first, out)]
            if trace:
                differ = same_outputs(out, entry["twin"] / "out")
                identical += not differ
                errors += [f"traced output: {d}" for d in differ]
        if errors:
            failed += len(seeds)
            problems += [f"seeds {seeds.start}..{seeds.stop - 1}: {e}" for e in errors]
        else:
            bad = [s for s in seeds if res.failed(s)]
            failed += len(bad)
            problems += [f"seed {s}: {res.errors[s][0]}" for s in bad]
        entry["out_bytes"] = dir_bytes(out)

    def speed(entry, key):
        """Host speed at this call, relative to the reference host."""
        return REF_S_NOMINAL / entry[key]["ref_s"]

    def rate(batch, key, scaled=True):
        """Cells per second of the batch's CLI time, at the reference host
        speed unless ``scaled`` is false."""
        return (sum(e["call"].cells for e in batch)
                / sum(e[key]["run_s"] * (speed(e, key) if scaled else 1)
                      for e in batch))

    ok = [b for b in batches if all(not e["r"]["error"] for e in b)]
    if trace:
        import numpy as np
        from layers import TracedCall, layer_metrics
        traced = [TracedCall(e["call"].label, e["call"].params["n"], e["call"].cells,
                             e["rt"]["run_s"], e["rt"]["import_s"],
                             e["rt"]["parse_s"],
                             dict(np.load(e["twin"] / "spans.npz")),
                             e["out_bytes"])
                  for b in batches for e in b if not e["rt"]["error"]]
        metrics = layer_metrics(traced, steps, stays) if traced else {}
        both = [b for b in ok if all(not e["rt"]["error"] for e in b)]
        if both:
            metrics["trace.cells_per_ref_s"] = statistics.median(
                rate(b, "rt") for b in both)
            metrics["trace.untraced_cells_per_ref_s"] = statistics.median(
                rate(b, "r") for b in both)
            metrics["trace.overhead"] = statistics.median(
                rate(b, "r") / rate(b, "rt") - 1 for b in both)
        metrics["trace.identical_calls"] = identical
        metrics["trace.calls"] = sum(len(b) for b in batches)
    elif ok:
        metrics = {
            "cells_per_ref_s": statistics.median(rate(b, "r") for b in ok),
            "setup_s": statistics.median((e["r"]["import_s"] + e["r"]["parse_s"])
                                         * speed(e, "r") for b in ok for e in b),
            "peak_rss_mb": statistics.median(max(e["r"]["rss_mb"] for e in b)
                                             for b in ok),
        }
    else:
        metrics = {}
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "problems": problems,
            "cells_per_s": [rate(b, "r", scaled=False) for b in ok],
            "setup_s": [e["r"]["import_s"] + e["r"]["parse_s"] for b in ok for e in b],
            "host_speed": [speed(e, "r") for b in ok for e in b],
            "context": context(WORKLOADS[name])}


def record_digests() -> int:
    """Run every workload's calls on the default seed and pin the digests of
    what they write; refuses if any recomputed check fails."""
    sys.path.insert(0, str(SRC))
    from checks import check_call
    table = {}
    run_dir = OUT / f"record-{os.getpid()}"
    try:
        for name, calls in WORKLOADS.items():
            for call in calls:
                seeds = cell_seeds(DEFAULT_SEED, call.cells)
                call_dir = run_dir / name / call.label
                r = run_child(call_dir, prepare(call, call_dir, seeds), False)
                if r["error"]:
                    raise SystemExit(f"{name}/{call.label}: {r['error']}")
                res = check_call(call.label, call.params, call_dir / "out", seeds)
                if res.errors:
                    raise SystemExit(f"{name}/{call.label}: {res.errors}")
                table.setdefault(name, {})[call.label] = {
                    str(s): res.digests[s] for s in seeds}
                print(f"{name}/{call.label}: {call.cells} cells recorded")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    DIGESTS.write_text(json.dumps(
        {"scheme": "pcg64-streams-v1", "seed": DEFAULT_SEED, "workloads": table},
        indent=1, sort_keys=True) + "\n")
    return 0


def _terminate(signum, frame):
    # unwinds through subprocess.run, which kills and reaps the running
    # child, and through run(), which removes the run directory
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "plantedclique" / "cli.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.record_digests:
        return record_digests()
    if args.workload is None or args.seed < 0:
        parser.error("pass --workload NAME and a seed >= 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = {}
    for m in wanted:
        value = result["metrics"].get(m["name"])
        if value is not None:
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"{m['name']:34s} {value:14.6g} {m['unit']}")
    for problem in result["problems"][:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    attempted, failed = result["attempted"], result["failed"]
    print(f"{'failed_ratio':34s} {failed / attempted:14.6g} ratio "
          f"({failed} of {attempted} cells)")
    for key, label, unit in (("cells_per_s", "cells_per_s unscaled", "1/s"),
                             ("setup_s", "setup_s unscaled", "s"),
                             ("host_speed", "host_speed", "ratio")):
        values = result[key] or [0.0]
        print(f"{label:34s} {statistics.median(values):14.6g} {unit} (per "
              "batch or call: " + " ".join(f"{v:.4g}" for v in values) + ")")
    print("context " + json.dumps(result["context"]))
    print(json.dumps({"correct": failed == 0 and len(metrics) == len(wanted),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
