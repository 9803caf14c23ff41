"""One set-up probe: fresh interpreter to "ready to step", in stages.

Started by ``run.py`` in a new interpreter each time; prints one JSON
object with the seconds each stage took:

* ``import_s`` — importing the program's modules (numpy included);
* ``resolve_s`` — resolving the workload's packs in the scenario registry;
* ``expand_s`` — expanding the campaign deck (campaign only, else 0);
* ``build_s`` — building the ``Solver`` on every rank (solo workloads),
  or the store and executor (campaign).

The clock starts after this script's own imports, so interpreter
start-up and the benchmark's code stay outside it.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time

from workloads import (
    TRANSPORT,
    WORKLOADS,
    SoloWorkload,
    build_executor,
    campaign_deck,
    resolve_packs,
    solo_inputs,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    solo = isinstance(wl, SoloWorkload)

    t0 = time.perf_counter()
    if solo:
        from repro import mpi
        from repro.core import Solver
        import repro.scenarios  # noqa: F401
    else:
        import repro.campaign  # noqa: F401
        import repro.scenarios  # noqa: F401
    t1 = time.perf_counter()
    if solo:
        _, config, ic = solo_inputs(wl, args.seed)
    else:
        scenarios = resolve_packs(wl)
    t2 = time.perf_counter()
    stages = {"import_s": t1 - t0, "resolve_s": t2 - t1, "expand_s": 0.0}
    if solo:
        def program(comm):
            Solver(comm, config, ic)
            comm.Barrier()

        mpi.run_spmd(wl.ranks, program, transport=TRANSPORT)
        stages["build_s"] = time.perf_counter() - t2
    else:
        campaign_deck(wl, scenarios, args.seed).expand()
        t3 = time.perf_counter()
        stages["expand_s"] = t3 - t2
        root = tempfile.mkdtemp(prefix="probe-")
        try:
            build_executor(wl, root)
            stages["build_s"] = time.perf_counter() - t3
        finally:
            shutil.rmtree(root, ignore_errors=True)
    print(json.dumps(stages))
    return 0


if __name__ == "__main__":
    sys.exit(main())
