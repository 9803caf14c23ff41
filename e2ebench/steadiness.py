"""Steadiness self-check: do two sets of runs of the same code agree?

    python3 e2ebench/steadiness.py --runs 10 --out e2ebench/steadiness.json

For every workload in ``BENCHMARK.json`` this makes two sets of
``--runs`` untraced runs of ``run.py``, interleaved (A B, B A, A B, ...)
and each with its own seed.  For every end-to-end metric it prints each
set's median and quartiles and the spread ``(q3 - q1) / median``, and
whether the two sets agree within the metric's bound:

* both sets' spreads are at most the bound,
* the two medians differ by at most the bound (as a share of set A's),
* the share of failed operations is the same in both sets, and every
  run's checks passed.

The result goes to ``--out`` as JSON, with a fingerprint of the host.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def host_fingerprint() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(
                (line.split(":", 1)[1].strip() for line in fh
                 if line.startswith("model name")), "",
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": "1 (OPENBLAS/OMP/MKL_NUM_THREADS set by run.py)",
    }


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        # A run whose checks failed exits 1 but still prints its result.
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(
            f"run.py --workload {workload} --seed {seed} exited "
            f"{proc.returncode}:\n{proc.stderr}"
        ) from None
    return result


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / med, "values": values,
    }


def compare(sets: dict[str, list[dict]], metrics: list[dict]) -> dict:
    report: dict = {"metrics": {}}
    ok = True
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        a, b = (
            summarize([r["metrics"][name]["value"] for r in sets[key]])
            for key in ("A", "B")
        )
        sign = 1.0 if metric["better"] == "lower" else -1.0
        worse = sign * (b["median"] - a["median"]) / a["median"]
        agree = max(a["spread"], b["spread"]) <= bound and abs(worse) <= bound
        ok &= agree
        report["metrics"][name] = {
            "bound": bound, "A": a, "B": b,
            "b_worse_than_a": worse, "agree": agree,
        }
    shares = {
        key: sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
        for key, runs in sets.items()
    }
    report["failed_share"] = shares
    report["correct"] = all(r["correct"] for runs in sets.values() for r in runs)
    report["agree"] = ok and shares["A"] == shares["B"] and report["correct"]
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="*", default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    result = {
        "host": host_fingerprint(),
        "run_seconds": bench["run_seconds"],
        "runs_per_set": args.runs,
        "workloads": {},
    }
    for workload in names:
        started = time.strftime("%Y-%m-%d %H:%M:%S")
        sets: dict[str, list[dict]] = {"A": [], "B": []}
        for i in range(args.runs):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for key in order:
                seed = (1000 if key == "A" else 2000) + i
                sets[key].append(one_run(workload, seed, bench["run_seconds"]))
        report = {"started": started, **compare(sets, bench["end_to_end"])}
        result["workloads"][workload] = report
        print(f"{workload}: {'agree' if report['agree'] else 'DISAGREE'}")
        for name, m in report["metrics"].items():
            a, b = m["A"], m["B"]
            print(
                f"  {name:12s} bound {m['bound']:.2f} | "
                f"A {a['median']:.4g} [{a['q1']:.4g}, {a['q3']:.4g}] "
                f"spread {a['spread']:.3f} | "
                f"B {b['median']:.4g} [{b['q1']:.4g}, {b['q3']:.4g}] "
                f"spread {b['spread']:.3f} | B worse by {m['b_worse_than_a']:+.3f}"
            )
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0 if all(r["agree"] for r in result["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
