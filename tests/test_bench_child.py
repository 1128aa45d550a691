"""The benchmark's child process builds each workload's config as the CLI does.

``perfbench/child.py`` times the CLI's set-up by repeating it: it parses the
call's flags and reads ``args.tie``, ``args.init`` and ``args.max_steps`` by
their dests. A renamed dest or field would break every benchmark run of that
workload, so each call of ``perfbench/workloads.py`` is checked here, in
process, against the config ``cli.main`` hands the harness.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

from plantedclique import cli, harness

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """Import ``perfbench/<name>.py`` by path, as module ``perfbench_<name>``
    (registered first: its dataclasses look their module up)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
CALLS = [pytest.param(call, id=f"{name}-{call.label}")
         for name, calls in workloads.WORKLOADS.items() for call in calls]


class _Built(Exception):
    """Raised by the stand-in harness verbs, carrying the config they got."""


@pytest.mark.parametrize("call", CALLS)
def test_child_builds_the_config_the_cli_builds(tmp_path, monkeypatch, call):
    monkeypatch.setattr(sys, "path", list(sys.path))  # child.py prepends src/
    child = _load("child")
    seeds = workloads.seeds_text(workloads.cell_seeds(0, call.cells))
    monkeypatch.chdir(tmp_path)
    for name, text in call.files(seeds).items():
        Path(name).write_text(text)
    argv = call.argv(seeds)
    timed = child.parse_config(cli, harness, argv)

    def built(config, *rest):
        raise _Built(config)

    for verb in ("run_experiment", "run_coupled_cells", "run_landscape"):
        monkeypatch.setattr(harness, verb, built)
    with pytest.raises(_Built) as got:
        cli.main(argv)
    assert (dataclasses.replace(timed, out_dir="")
            == dataclasses.replace(got.value.args[0], out_dir=""))
