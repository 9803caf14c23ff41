"""The benchmark's workloads: what each one runs and how it is set up.

Each workload starts from a shipped scenario pack and pins every
execution choice the environment could otherwise change:

* engine ``blocked`` (``$REPRO_BACKEND`` ignored),
* transport ``naive`` (``$REPRO_COMM`` ignored),
* campaign workers ``process`` (``$REPRO_CAMPAIGN_WORKER_TYPE`` ignored),
* two ranks or two workers: the CPU count of the reference host, so
  rank threads and worker processes never outnumber its CPUs.

This module imports nothing from ``repro`` at import time, so the
set-up probe can load it before its clock starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

BACKEND = "blocked"
TRANSPORT = "naive"
WORKER_TYPE = "process"
#: The run-level environment knobs the pins above make irrelevant; the
#: benchmark also strips them from its children's environment.
PINNED_ENV = (
    "REPRO_BACKEND",
    "REPRO_COMM",
    "REPRO_CAMPAIGN_WORKER_TYPE",
    "REPRO_SCENARIO_PATH",
    "REPRO_LOG",
)

#: The nine single-rank packs the campaign deck sweeps, in deck order.
CAMPAIGN_PACKS = (
    "atwood-low",
    "atwood-mid",
    "atwood-high",
    "cfl-tight",
    "cfl-loose",
    "singlemode-periodic",
    "multimode-quickstart",
    "sech2-convergence",
    "gaussian-convergence",
)


@dataclass(frozen=True)
class SoloWorkload:
    """One pack on ``ranks`` simulated ranks.

    A timed unit builds ``solves`` solvers from the initial condition,
    then advances each by ``steps`` steps between two barriers.
    """

    name: str
    pack: str
    ranks: int
    steps: int
    solves: int = 1
    overrides: dict[str, Any] = field(default_factory=dict)
    #: Run the rank threads on one CPU.  For a step made of many small
    #: numpy calls the ranks hold the interpreter lock in turn; handing
    #: it between CPUs makes the step 1.5-2.5x slower, and that slowdown
    #: changes from spell to spell on a shared 2-CPU host.  The traced
    #: run still measures it, as ``mpi.unpinned_ratio``.
    one_cpu: bool = False

    @property
    def steps_per_unit(self) -> int:
        return self.steps * self.solves


@dataclass(frozen=True)
class CampaignWorkload:
    """One deck over ``packs`` submitted to a fresh store per unit."""

    name: str
    packs: tuple[str, ...]
    steps: int
    workers: int

    @property
    def runs_per_unit(self) -> int:
        return len(self.packs)


WORKLOADS: dict[str, "SoloWorkload | CampaignWorkload"] = {
    "rollup-cutoff": SoloWorkload(
        name="rollup-cutoff", pack="singlemode-rollup", ranks=2, steps=6,
    ),
    "multimode-fft": SoloWorkload(
        name="multimode-fft", pack="multimode-periodic", ranks=2, steps=20,
        solves=4, one_cpu=True,
    ),
    "free-tree": SoloWorkload(
        name="free-tree", pack="multimode-free", ranks=2, steps=10,
        overrides={"br_solver": "tree", "theta": 0.5},
    ),
    "pack-campaign": CampaignWorkload(
        name="pack-campaign", packs=CAMPAIGN_PACKS, steps=40, workers=2,
    ),
}


def ic_overrides(ic: dict[str, Any], seed: Optional[int]) -> dict[str, Any]:
    """The seed override for one pack's initial condition.

    Only multi-mode initial conditions draw random numbers; every other
    kind keeps its pack fields, so ``seed=None`` reproduces the pack.
    """
    if seed is None or ic.get("kind") != "multi_mode":
        return {}
    return {"seed": int(seed)}


def solo_inputs(wl: SoloWorkload, seed: Optional[int]):
    """Resolve the pack: ``(scenario, SolverConfig, InitialCondition)``."""
    from repro.scenarios import get_scenario

    scenario = get_scenario(wl.pack)
    config = scenario.solver_config(backend=BACKEND, **wl.overrides)
    ic = scenario.initial_condition(**ic_overrides(scenario.ic, seed))
    return scenario, config, ic


def resolve_packs(wl: CampaignWorkload) -> list:
    """The campaign's packs, resolved in the scenario registry."""
    from repro.scenarios import get_scenario

    return [get_scenario(name) for name in wl.packs]


def campaign_deck(wl: CampaignWorkload, scenarios, seed: Optional[int]):
    """The deck sweeping the resolved ``scenarios``, seeded per pack."""
    from repro.campaign import CampaignDeck

    # Every pack gets an explicit seed: the override for random initial
    # conditions, its own (unused) one otherwise, so a pack that draws
    # no random numbers hashes the same under every benchmark seed.
    seeds = [
        sc.initial_condition(**ic_overrides(sc.ic, seed)).seed
        for sc in scenarios
    ]
    return CampaignDeck.from_dict({
        "name": wl.name,
        "steps": wl.steps,
        "base": {"backend": BACKEND},
        "zip": {"scenario": [sc.name for sc in scenarios], "ic.seed": seeds},
    })


def build_executor(wl: CampaignWorkload, root: str):
    """A process-worker executor over a fresh store under ``root``."""
    from repro.campaign import CampaignExecutor, CampaignStore

    store = CampaignStore(wl.name, root=root)
    return CampaignExecutor(
        store,
        max_workers=wl.workers,
        worker_type=WORKER_TYPE,
        log=lambda line: None,
    )
