"""Per-layer metrics: names, units, and how they are read from a run.

The traced run collects the program's own ``CommTrace`` through the
public ``trace=`` argument of ``run_spmd`` and reads it through its
public queries (``phase_walls``, ``spans``, ``compute_events``,
``events``, ``total_bytes``); campaign runs are read from the ``telemetry.json``
each run leaves in the store.  Every metric is reported on every
workload, as 0 where the workload does not run that layer.
"""

from __future__ import annotations

import statistics
from typing import Any, Iterable, Mapping

#: Kernels whose time and throughput are reported as ``backend.<k>_*``.
KERNELS = (
    "br_neighbors",
    "neighbor_search",
    "br_allpairs",
    "tree_farfield",
    "tree_moments",
    "mac_walk",
    "fft1d",
    "riesz",
    "rk3_axpy",
)

#: Phase spans of the program whose slowest-rank self time is reported.
PHASES = {
    "core.integrate_s": "integrate",
    "core.stencil_s": "stencil",
    "grid.halo_s": "halo",
    "fft.transform_s": "fft",
    "spatial.migrate_s": "migrate",
    "spatial.halo_s": "spatial_halo",
    "spatial.neighbor_s": "neighbor",
    "spatial.neighbor_cache_s": "neighbor_cache",
    "spatial.tree_gather_s": "tree_gather",
    "spatial.tree_build_s": "tree_build",
    "spatial.tree_walk_s": "tree_walk",
}

#: The span the benchmark puts around each ``Solver.step`` call.
STEP_SPAN = "bench.step"
#: Phase label of events outside every span (the benchmark's barriers).
UNPHASED = "unphased"

#: ``name -> (unit, better)`` of every per-layer metric, in report order.
METRICS: dict[str, tuple[str, str]] = {
    "setup.import_s": ("s", "lower"),
    "scenarios.resolve_s": ("s", "lower"),
    "core.build_s": ("s", "lower"),
    "campaign.expand_s": ("s", "lower"),
    "core.step_ms": ("ms", "lower"),
    "core.rank_imbalance": ("ratio", "lower"),
    **{name: ("s", "lower") for name in PHASES},
    "grid.halo_bytes_per_step": ("B", "lower"),
    "fft.bytes_per_step": ("B", "lower"),
    "spatial.neighbor_pairs_per_step": ("count", "lower"),
    "spatial.tree_far_pairs": ("count", "lower"),
    "spatial.tree_near_pairs": ("count", "lower"),
    **{f"backend.{k}_s": ("s", "lower") for k in KERNELS},
    **{f"backend.{k}_gflops": ("GFLOP/s", "higher") for k in KERNELS},
    "mpi.messages_per_step": ("count", "lower"),
    "mpi.bytes_per_step": ("B", "lower"),
    "mpi.unpinned_ratio": ("ratio", "lower"),
    "batch.fleet_s": ("s", "lower"),
    "batch.absorbed_runs": ("count", "higher"),
    "campaign.worker_busy_s": ("s", "lower"),
    "campaign.worker_idle_s": ("s", "lower"),
    "campaign.resubmit_s": ("s", "lower"),
    "campaign.eta_ratio": ("ratio", "lower"),
    "telemetry.overhead_ratio": ("ratio", "lower"),
}


def _kernel_totals(events: Iterable[Any]) -> dict[str, dict[str, float]]:
    totals: dict[str, dict[str, float]] = {}
    for ev in events:
        bucket = totals.setdefault(
            ev.kernel, {"wall": 0.0, "flops": 0.0, "items": 0.0}
        )
        bucket["wall"] += ev.t_wall or 0.0
        bucket["flops"] += ev.flops
        bucket["items"] += ev.items
    return totals


def solo_unit_layers(trace, steps: int, br_solver: str) -> dict[str, float]:
    """Per-layer figures of one traced solo unit of ``steps`` steps."""
    walls = trace.phase_walls()
    out = {
        name: max(walls.get(phase, {0: 0.0}).values())
        for name, phase in PHASES.items()
    }
    # Steps end in collectives, so the k-th step span of every rank
    # covers the same step; the slowest rank sets its time.
    per_rank: dict[int, list[float]] = {}
    for span in trace.spans:
        if span.phase == STEP_SPAN:
            per_rank.setdefault(span.rank, []).append(span.duration)
    slowest = [max(ds) for ds in zip(*per_rank.values())]
    out["core.step_ms"] = 1e3 * statistics.median(slowest)
    busy: dict[int, float] = {}
    for ev in trace.compute_events:
        busy[ev.rank] = busy.get(ev.rank, 0.0) + (ev.t_wall or 0.0)
    out["core.rank_imbalance"] = (
        max(busy.values()) / statistics.fmean(busy.values()) if busy else 0.0
    )

    kernels = _kernel_totals(trace.compute_events)
    for k in KERNELS:
        bucket = kernels.get(k, {"wall": 0.0, "flops": 0.0})
        out[f"backend.{k}_s"] = bucket["wall"]
        out[f"backend.{k}_gflops"] = (
            bucket["flops"] / bucket["wall"] / 1e9 if bucket["wall"] > 0 else 0.0
        )
    pairs = kernels.get("br_neighbors", {"items": 0.0})["items"] / steps
    far = kernels.get("tree_farfield", {"items": 0.0})["items"] / steps
    out["spatial.neighbor_pairs_per_step"] = pairs if br_solver == "cutoff" else 0.0
    out["spatial.tree_near_pairs"] = pairs if br_solver == "tree" else 0.0
    out["spatial.tree_far_pairs"] = far

    # Sends only (a Send/Recv pair counts once); the benchmark's own
    # barriers sit outside every span and are left out.
    sends = [
        ev for ev in trace.events
        if ev.kind != "recv" and ev.phase != UNPHASED
    ]
    out["mpi.messages_per_step"] = len(sends) / steps
    out["mpi.bytes_per_step"] = sum(ev.nbytes for ev in sends) / steps
    out["grid.halo_bytes_per_step"] = trace.total_bytes(phase="halo") / steps
    out["fft.bytes_per_step"] = trace.total_bytes(phase="fft") / steps
    return out


def campaign_kernel_walls(telemetry: Iterable[Mapping[str, Any]]) -> dict[str, float]:
    """``backend.<k>_s`` summed over a campaign's ``telemetry.json`` files.

    Fleet-absorbed runs share one trace and each file holds its state
    when that run finished, so only the fullest fleet file counts.
    """
    docs = list(telemetry)
    fleet = [d for d in docs if "fleet_size" in d]
    chosen = [d for d in docs if "fleet_size" not in d]
    if fleet:
        chosen.append(max(fleet, key=lambda d: d["events"]["compute"]))
    out = {f"backend.{k}_s": 0.0 for k in KERNELS}
    for doc in chosen:
        for k in KERNELS:
            out[f"backend.{k}_s"] += doc["kernel"].get(k, {}).get("wall", 0.0)
    return out


def median_layers(samples: list[Mapping[str, float]]) -> dict[str, float]:
    """Per-metric median over units; a metric no unit produced reads 0."""
    out = {}
    for name in METRICS:
        values = [s[name] for s in samples if name in s]
        out[name] = statistics.median(values) if values else 0.0
    return out
