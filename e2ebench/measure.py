"""The timed part of one benchmark run, in a fresh interpreter.

Started by ``run.py``; prints one JSON object as its last line::

    {"run_s": [...], "traced_s": [...], "layers": [{...}, ...],
     "peak_rss_mb": .., "attempted": .., "failed": .., "correct": ..,
     "checks": {name: {"value", "limit", "ok"}}}

The first unit is not reported: it pays lazy set-up and warms caches
before timing starts, and with ``--check 1`` its outputs go through the
workload's physics checks.  Further units run until ``--seconds`` have
passed; ``run_s`` holds one entry per untraced unit.  With
``--trace 1`` traced and untraced units alternate; ``traced_s`` and
``layers`` hold the traced units' times and per-layer figures.  On a
workload whose rank threads run on one CPU, each traced unit is then
followed by an untraced unit with the threads free to use every CPU,
timed into ``unpinned_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from typing import Any, Callable, Optional

import numpy as np

import layers
import reference
from workloads import (
    TRANSPORT,
    WORKLOADS,
    CampaignWorkload,
    SoloWorkload,
    build_executor,
    campaign_deck,
    resolve_packs,
    solo_inputs,
)

#: Timed units a process always makes, however short ``--seconds`` is.
MIN_UNITS = 2
#: Default seed of the checks' random inputs when ``--seed`` is unset.
CHECK_SEED = 0

#: Stated tolerances of the physics checks (see README.md).
CUTOFF_VS_DIRECT = 1e-12       # max relative, cutoff solver vs masked sum
TRANSPOSE_SYMMETRY = 1e-12     # max |h - h^T| / max |h|
RT_LINEAR_GROWTH = 0.015       # |growth / linear theory - 1|, dominant modes
RT_MODES = 4                   # dominant modes checked
TREE_VS_DIRECT = 0.02          # relative L2 error at theta 0.5
FLEET_POOL_VS_SOLO = 1e-12     # relative, every stored diagnostic


class Checks:
    """Named pass/fail checks with the value each one measured."""

    def __init__(self) -> None:
        self.results: dict[str, dict[str, Any]] = {}

    def at_most(self, name: str, value: float, limit: float) -> None:
        self.results[name] = {
            "value": float(value), "limit": limit,
            "ok": bool(np.isfinite(value) and value <= limit),
        }

    def true(self, name: str, ok: bool, value: Any = None) -> None:
        self.results[name] = {"value": value, "limit": None, "ok": bool(ok)}

    @property
    def ok(self) -> bool:
        return bool(self.results) and all(r["ok"] for r in self.results.values())


def _owned(solver) -> tuple[tuple[int, ...], tuple[int, int]]:
    return solver.mesh.local_grid.owned_space.mins, solver.config.num_nodes


# -- solo workloads -----------------------------------------------------------

def _probe_cutoff(comm, solver, seed: int) -> dict[str, Any]:
    """Cutoff-solver velocity for a seeded vorticity on the final surface."""
    mins, shape = _owned(solver)
    z_own = solver.pm.z.own
    omega = np.random.default_rng(seed).standard_normal(tuple(shape) + (3,))
    (i0, j0), (ni, nj) = mins, z_own.shape[:2]
    velocity = solver.br_solver.compute_velocities(
        z_own.copy(), omega[i0: i0 + ni, j0: j0 + nj].copy()
    )
    owned = solver.br_solver.ownership_counts()
    z, v = reference.gather_fields(comm, mins, [z_own, velocity], shape)
    return {"z": z, "omega": omega, "v": v, "owned": int(owned.sum())}


def _probe_tree(comm, solver, seed: int) -> dict[str, Any]:
    """Tree velocity for the final surface's own vortex-sheet strength."""
    mins, shape = _owned(solver)
    z, gamma = reference.gather_fields(
        comm, mins, [solver.pm.z.own, solver.pm.w.own], shape
    )
    omega = reference.tangent_vorticity(z, gamma, solver.config.spacing())
    (i0, j0), (ni, nj) = mins, solver.pm.z.own.shape[:2]
    velocity = solver.br_solver.compute_velocities(
        z[i0: i0 + ni, j0: j0 + nj].copy(), omega[i0: i0 + ni, j0: j0 + nj].copy()
    )
    (v,) = reference.gather_fields(comm, mins, [velocity], shape)
    return {"z": z, "omega": omega, "v": v}


def _probe_height(comm, solver, seed: int) -> dict[str, Any]:
    mins, shape = _owned(solver)
    (z,) = reference.gather_fields(comm, mins, [solver.pm.z.own], shape)
    return {"z": z, "time": solver.time}


PROBES: dict[str, Callable[..., dict[str, Any]]] = {
    "rollup-cutoff": _probe_cutoff,
    "multimode-fft": _probe_height,
    "free-tree": _probe_tree,
}


def solo_unit(wl: SoloWorkload, config, ic, *, trace=None, check_seed=None):
    """One timed unit; returns ``(seconds, before, after)``.

    ``before``/``after`` are the check probes of the last solve, taken
    outside the timed interval, when ``check_seed`` is set.
    """
    from repro import mpi
    from repro.core import Solver

    probe = PROBES[wl.name]

    def program(comm):
        solvers = [Solver(comm, config, ic) for _ in range(wl.solves)]
        before = (
            _probe_height(comm, solvers[-1], check_seed)
            if check_seed is not None else None
        )
        comm.Barrier()
        t0 = time.perf_counter()
        for solver in solvers:
            for _ in range(wl.steps):
                if trace is None:
                    solver.step()
                else:
                    with trace.phase(layers.STEP_SPAN):
                        solver.step()
        comm.Barrier()
        elapsed = time.perf_counter() - t0
        after = (
            probe(comm, solvers[-1], check_seed)
            if check_seed is not None else None
        )
        return elapsed, before, after

    return mpi.run_spmd(wl.ranks, program, trace=trace, transport=TRANSPORT)[0]


def check_solo(wl: SoloWorkload, config, before, after, checks: Checks) -> None:
    n1, n2 = config.num_nodes
    z = after["z"]
    if wl.name == "rollup-cutoff":
        ref = reference.br_direct_sum(
            z, z, after["omega"], config.effective_eps(),
            _cell_area(config), cutoff=config.cutoff,
        )
        err = np.abs(after["v"].reshape(-1, 3) - ref).max() / np.abs(ref).max()
        checks.at_most("cutoff_velocity_vs_masked_direct_sum", err, CUTOFF_VS_DIRECT)
        checks.true(
            "owned_points_sum_to_grid", after["owned"] == n1 * n2, after["owned"]
        )
        h = z[..., 2]
        asym = np.abs(h - h.T).max() / np.abs(h).max()
        checks.at_most("height_symmetric_under_axis_exchange", asym, TRANSPOSE_SYMMETRY)
    elif wl.name == "free-tree":
        ref = reference.br_direct_sum(
            z, z, after["omega"], config.effective_eps(), _cell_area(config),
        )
        err = np.linalg.norm(after["v"].reshape(-1, 3) - ref) / np.linalg.norm(ref)
        checks.at_most("tree_velocity_vs_direct_sum", err, TREE_VS_DIRECT)
    else:
        h0, h1 = before["z"][..., 2], after["z"][..., 2]
        f0, f1 = np.fft.fft2(h0), np.fft.fft2(h1)
        extent = np.subtract(config.high, config.low)
        kx = 2 * np.pi * np.fft.fftfreq(n1, d=extent[0] / n1)
        ky = 2 * np.pi * np.fft.fftfreq(n2, d=extent[1] / n2)
        worst = 0.0
        for i, j in reference.dominant_modes(h0, RT_MODES):
            growth = abs(f1[i, j]) / abs(f0[i, j])
            predicted = reference.rt_linear_growth(
                config.atwood, config.gravity, np.hypot(kx[i], ky[j]),
                after["time"], mu=config.mu,
            )
            worst = max(worst, abs(growth / predicted - 1.0))
        checks.at_most("dominant_modes_follow_linear_rt", worst, RT_LINEAR_GROWTH)


def _cell_area(config) -> float:
    dx, dy = config.spacing()
    return dx * dy


def timed_units(args, unit: Callable[[bool], tuple]) -> dict[str, Any]:
    """Run ``unit(traced)`` until ``args.seconds`` have passed.

    ``unit`` returns ``(seconds, failed, layers_or_None)``.  With
    ``--trace 1`` traced and untraced units alternate.
    """
    out: dict[str, Any] = {"run_s": [], "traced_s": [], "layers": [], "failed": 0}
    deadline = time.perf_counter() + args.seconds
    while (len(out["run_s"]) + len(out["traced_s"]) < MIN_UNITS
           or time.perf_counter() < deadline):
        traced = bool(args.trace) and len(out["traced_s"]) <= len(out["run_s"])
        elapsed, failed, layer = unit(traced)
        out["traced_s" if traced else "run_s"].append(elapsed)
        out["failed"] += failed
        if layer is not None:
            out["layers"].append(layer)
    out["units"] = 1 + len(out["run_s"]) + len(out["traced_s"])
    return out


def run_solo(wl: SoloWorkload, args, checks: Checks) -> dict[str, Any]:
    # Rank threads inherit the CPUs of the thread that starts them.
    all_cpus = os.sched_getaffinity(0)
    one_cpu = {min(all_cpus)}
    if wl.one_cpu:
        os.sched_setaffinity(0, one_cpu)
    _, config, ic = solo_inputs(wl, args.seed)
    if args.check:
        check_seed = CHECK_SEED if args.seed is None else args.seed
        _, before, after = solo_unit(wl, config, ic, check_seed=check_seed)
        check_solo(wl, config, before, after, checks)
    else:
        solo_unit(wl, config, ic)

    from repro.mpi import CommTrace

    last_trace = []
    unpinned_s: list[float] = []

    def unit(traced: bool):
        if not traced:
            return solo_unit(wl, config, ic)[0], 0, None
        trace = CommTrace()
        elapsed = solo_unit(wl, config, ic, trace=trace)[0]
        last_trace[:] = [trace]
        if wl.one_cpu:
            os.sched_setaffinity(0, all_cpus)
            try:
                unpinned_s.append(solo_unit(wl, config, ic)[0])
            finally:
                os.sched_setaffinity(0, one_cpu)
        return elapsed, 0, layers.solo_unit_layers(
            trace, wl.steps_per_unit, config.br_solver
        )

    out = timed_units(args, unit)
    out["unpinned_s"] = unpinned_s
    out["attempted"] = (out.pop("units") + len(unpinned_s)) * wl.steps_per_unit
    if args.perfetto and last_trace:
        from repro.telemetry import write_chrome_trace

        write_chrome_trace(args.perfetto, last_trace[0], process_name=wl.name)
    return out


# -- the campaign -------------------------------------------------------------

@contextmanager
def fleet_spans(record: list[float]):
    """Time every ``ScenarioFleet.run`` call (traced units only)."""
    from repro.batch import ScenarioFleet

    original = ScenarioFleet.run

    def timed_run(self, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return original(self, *args, **kwargs)
        finally:
            record.append(time.perf_counter() - t0)

    ScenarioFleet.run = timed_run
    try:
        yield
    finally:
        ScenarioFleet.run = original


def campaign_unit(wl: CampaignWorkload, specs, scratch: str, *, traced=False,
                  checks: Optional[Checks] = None):
    """Submit the deck into a fresh store; returns ``(seconds, failed, layers)``."""
    root = tempfile.mkdtemp(prefix="store-", dir=scratch)
    try:
        executor = build_executor(wl, root)
        fleet_s: list[float] = []
        if traced:
            with fleet_spans(fleet_s):
                t0 = time.perf_counter()
                outcomes = executor.submit(specs)
                elapsed = time.perf_counter() - t0
        else:
            t0 = time.perf_counter()
            outcomes = executor.submit(specs)
            elapsed = time.perf_counter() - t0
        failed = sum(1 for o in outcomes if o.status != "completed")
        if checks is None and not traced:
            return elapsed, failed, None
        store = executor.store
        telemetry = {o.run_hash: store.load_telemetry(o.run_hash) or {} for o in outcomes}
        computed = executor.metrics.snapshot().get("campaign.runs_completed", 0.0)
        t0 = time.perf_counter()
        again = executor.submit(specs)
        resubmit_s = time.perf_counter() - t0
        if checks is not None:
            check_campaign(wl, outcomes, again, telemetry, executor, computed, checks)
        if not traced:
            return elapsed, failed, None
        from repro.campaign import makespan_estimate

        pool = [o for o in outcomes if "fleet_size" not in telemetry[o.run_hash]]
        busy = sum(o.elapsed for o in pool)
        modeled = makespan_estimate(specs, wl.workers)
        layer = {
            "batch.fleet_s": sum(fleet_s),
            "batch.absorbed_runs": executor.metrics.snapshot().get(
                "campaign.batch_absorbed", 0.0
            ),
            "campaign.worker_busy_s": busy,
            "campaign.worker_idle_s": wl.workers * (elapsed - sum(fleet_s)) - busy,
            "campaign.resubmit_s": resubmit_s,
            "campaign.eta_ratio": max(modeled / elapsed, elapsed / modeled),
            **layers.campaign_kernel_walls(telemetry.values()),
        }
        return elapsed, failed, layer
    finally:
        shutil.rmtree(root, ignore_errors=True)


def check_campaign(wl, outcomes, again, telemetry, executor, computed, checks: Checks):
    by_pack = dict(zip(wl.packs, outcomes))
    checks.true(
        "every_run_completed",
        all(o.status == "completed" for o in outcomes),
        sum(o.status == "completed" for o in outcomes),
    )
    recomputed = executor.metrics.snapshot().get("campaign.runs_completed", 0.0) - computed
    checks.true(
        "resubmission_hits_store_and_computes_nothing",
        all(o.status == "skipped" for o in again) and recomputed == 0,
        sum(o.status == "skipped" for o in again),
    )
    amps = [by_pack[p].result["diagnostics"]["amplitude"]
            for p in ("atwood-low", "atwood-mid", "atwood-high")]
    checks.true("atwood_amplitudes_increase", amps[0] < amps[1] < amps[2], amps)
    # One fleet-absorbed run and one pool run against a solo Solver.
    for label, pack, fleet in (("fleet", "atwood-mid", True),
                               ("pool", "multimode-quickstart", False)):
        outcome = by_pack[pack]
        routed = ("fleet_size" in telemetry[outcome.run_hash]) == fleet
        stored = executor.store.load_result(outcome.run_hash)["diagnostics"]
        solo = _solo_diagnostics(outcome.spec)
        err = max(
            abs(stored[k] - solo[k]) / max(abs(solo[k]), 1e-300) for k in solo
        )
        checks.at_most(f"{label}_run_matches_solo_solver", err if routed else np.inf,
                       FLEET_POOL_VS_SOLO)


def _solo_diagnostics(spec) -> dict[str, float]:
    from repro import mpi
    from repro.core import Solver

    def program(comm):
        solver = Solver(comm, spec.config, spec.ic)
        solver.run(spec.steps)
        return solver.diagnostics()

    return mpi.run_spmd(spec.ranks, program, transport=TRANSPORT)[0]


def run_campaign(wl: CampaignWorkload, args, checks: Checks) -> dict[str, Any]:
    specs = campaign_deck(wl, resolve_packs(wl), args.seed).expand()
    scratch = tempfile.mkdtemp(prefix="campaign-")
    try:
        _, failed, _ = campaign_unit(
            wl, specs, scratch, checks=checks if args.check else None
        )
        out = timed_units(
            args, lambda traced: campaign_unit(wl, specs, scratch, traced=traced)
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    out["failed"] += failed
    out["attempted"] = out.pop("units") * wl.runs_per_unit
    return out


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest worker (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", type=int, choices=(0, 1), default=1,
                        help="0: the first unit only warms up, unchecked")
    parser.add_argument("--perfetto", default=None)
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]
    checks = Checks()
    try:
        if isinstance(wl, SoloWorkload):
            out = run_solo(wl, args, checks)
        else:
            out = run_campaign(wl, args, checks)
    except Exception:
        traceback.print_exc()
        return 1
    out["peak_rss_mb"] = peak_rss_mb()
    out["checks"] = checks.results
    out["correct"] = checks.ok or not args.check
    print(json.dumps(out, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
