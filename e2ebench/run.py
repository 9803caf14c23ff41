"""End-to-end benchmark of the rocket-rig solver on shipped scenario packs.

Run from the root of a source checkout::

    python3 e2ebench/run.py --workload rollup-cutoff --seed 1 --seconds 16 --trace 0

One run does two things, each in fresh interpreters started from here:

1. set-up: one discarded probe (it compiles bytecode into the run's
   scratch directory), then ``PROBES`` probes, each timing a fresh
   interpreter from its first import of the program to "ready to step"
   (``probe.py``);
2. the timed work, split over ``PARTS`` fresh processes
   (``measure.py``): each makes one untimed unit (the first one's
   outputs are checked), then timed units for its share of
   ``--seconds``.

The probes are made in ``PARTS + 1`` groups, before, between and after
the timed processes, so that one slow spell of the host does not shift
all of them.  The exit status is 0 only when every check passed.

It prints one line per check and per metric, and as its last line one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``run_s``, ``peak_rss_mb``); with ``--trace 1`` they are the per-layer
ones listed in ``layers.py``.  Workloads are defined in
``workloads.py``; README.md says what each one exercises and why.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from workloads import PINNED_ENV, WORKLOADS  # noqa: E402

#: Seconds a whole run may take before it is abandoned.
RUN_BUDGET = 170.0
#: Set-up probes whose median is ``setup_s``.
PROBES = 16
#: Fresh processes the timed work is split over.  How fast one process
#: runs the same units varies by up to 30% from process to process on
#: the reference host; the median over units of three processes varies
#: far less than that of one.
PARTS = 3
#: One OS thread per numerical library in this process and its children.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(scratch: Path) -> dict[str, str]:
    """Environment of every child: the checkout's sources, one BLAS
    thread, scratch files inside the checkout, no engine overrides."""
    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    env["PYTHONPATH"] = str(ROOT / "src")
    # Bytecode goes to the run's scratch directory even where the caller
    # turned writing it off, so the discarded probe compiles it and the
    # timed probes only load it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(scratch / "pycache")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(scratch)
    for name in THREAD_ENV:
        env[name] = "1"
    return env


def run_child(script: str, args: list[str], env: dict[str, str], deadline: float) -> dict:
    """Run one benchmark script; its last stdout line is a JSON object."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError(f"run budget of {RUN_BUDGET:.0f}s spent before {script}")
    proc = subprocess.run(
        [sys.executable, str(HERE / script), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"{script} {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="seed of the multi-mode initial conditions and "
                             "of the checks' random inputs (default: the packs')")
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed units run "
                             "(BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics instead")
    parser.add_argument("--perfetto", default=None,
                        help="with --trace 1 on a solo workload, write the "
                             "last traced unit as a Perfetto trace here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not (
        ROOT / "scenarios"
    ).is_dir():
        print(f"e2ebench: {ROOT} holds no src/repro and scenarios/ to benchmark",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET
    scratch_root = ROOT / ".bench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=scratch_root))
    env = child_env(scratch)
    seed = [] if args.seed is None else ["--seed", str(args.seed)]
    try:
        probe_args = ["--workload", args.workload, *seed]
        run_child("probe.py", probe_args, env, deadline)  # discarded
        probes: list[dict] = []
        parts = []

        def probe_group(group: int) -> None:
            count = PROBES // (PARTS + 1) + (group < PROBES % (PARTS + 1))
            probes.extend(run_child("probe.py", probe_args, env, deadline)
                          for _ in range(count))

        for part in range(PARTS):
            probe_group(part)
            measure_args = [
                *probe_args, "--seconds", str(args.seconds / PARTS),
                "--trace", str(args.trace), "--check", str(int(part == 0)),
            ]
            if args.perfetto and part == PARTS - 1:
                measure_args += ["--perfetto", str(Path(args.perfetto).resolve())]
            parts.append(run_child("measure.py", measure_args, env, deadline))
        probe_group(PARTS)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass

    checks = parts[0]["checks"]
    for name, check in checks.items():
        limit = "" if check["limit"] is None else f" (limit {check['limit']:g})"
        print(f"check {name}: {'ok' if check['ok'] else 'FAILED'} "
              f"value={check['value']}{limit}")
    run_s = [t for p in parts for t in p["run_s"]]

    if args.trace:
        values = layers.median_layers([s for p in parts for s in p["layers"]])
        stages = {
            "setup.import_s": "import_s",
            "scenarios.resolve_s": "resolve_s",
            "core.build_s": "build_s",
            "campaign.expand_s": "expand_s",
        }
        for name, stage in stages.items():
            values[name] = statistics.median(p[stage] for p in probes)
        traced_s = [t for p in parts for t in p["traced_s"]]
        values["telemetry.overhead_ratio"] = (
            statistics.median(traced_s) / statistics.median(run_s)
        )
        unpinned_s = [t for p in parts for t in p.get("unpinned_s", [])]
        values["mpi.unpinned_ratio"] = (
            statistics.median(unpinned_s) / statistics.median(run_s)
            if unpinned_s else 0.0
        )
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, (unit, _) in layers.METRICS.items()
        }
    else:
        setup = [sum(p.values()) for p in probes]
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "run_s": {"value": statistics.median(run_s), "unit": "s"},
            "peak_rss_mb": {
                "value": max(p["peak_rss_mb"] for p in parts), "unit": "MB",
            },
        }
        print(f"timed units: {len(run_s)}, run_s per unit: "
              + " ".join(f"{t:.3f}" for t in run_s))
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    correct = all(p["correct"] for p in parts) and bool(checks)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
