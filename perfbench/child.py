"""One CLI call in a fresh interpreter: the unit the benchmark times.

Usage: python3 perfbench/child.py '<json argv list>' <trace 0|1>

Run from the call directory, which holds the config. Times the import of
``plantedclique.cli`` and the parse and validation of the config (together
the set-up every CLI call pays), then ``cli.main(argv)`` itself. With trace 1
the span recorder wraps the layer boundaries first and writes ``spans.npz``.
Prints one JSON line with the timings and this process's peak RSS.
"""

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def parse_config(cli, harness, argv):
    """What the CLI does before its first cell: parse flags, load the
    config and validate it."""
    args = cli.build_parser().parse_args(argv)
    if getattr(args, "config", None):
        return harness.parse_config(args.config)
    config = harness.ExperimentConfig(
        n=args.n, k=args.k, gamma=args.gamma, tie_policy=args.tie,
        init=args.init, max_steps=args.max_steps, seeds=args.seeds)
    config.validate()
    return config


def main() -> int:
    argv = json.loads(sys.argv[1])
    trace = sys.argv[2] == "1"
    t0 = time.perf_counter()
    from plantedclique import cli, harness
    t1 = time.perf_counter()
    parse_config(cli, harness, argv)
    t2 = time.perf_counter()
    tracer = None
    if trace:
        sys.path.insert(0, str(HERE))
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    out = {"import_s": t1 - t0, "parse_s": t2 - t1, "error": None}
    t3 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            out["error"] = f"cli exit code {rc}"
    except Exception as exc:  # reported as failed cells, not a crash
        out["error"] = f"{type(exc).__name__}: {exc}"
    out["run_s"] = time.perf_counter() - t3
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.save("spans.npz")
    print(json.dumps(out))
    return 0 if out["error"] is None else 1


if __name__ == "__main__":
    sys.exit(main())
