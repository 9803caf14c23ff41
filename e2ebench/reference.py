"""Reference computations the benchmark checks the program against.

Everything here is plain numpy written from the physics, not from the
program: nothing under ``repro`` is imported, so a fault in the
program's kernels cannot hide in its own reference.

* :func:`br_direct_sum` — the Krasny-desingularized Birkhoff-Rott sum

      W(t) = (dA / 4 pi) sum_j  w_j x (t - s_j) / (|t - s_j|^2 + eps^2)^(3/2)

  over every source, or only over sources within ``cutoff`` of the
  target (inclusive), which is what the cutoff solver approximates.
* :func:`rt_linear_growth` — the linear Rayleigh-Taylor amplitude
  factor ``cosh(sqrt(A g |k|) t)`` of a mode that starts at rest,
  with the damping of the Z-model's vorticity diffusion ``mu``.
* :func:`gather_fields` / :func:`assemble_blocks` — the global
  ``(n1, n2, c)`` arrays of a distributed state, from the blocks each
  rank owns.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "assemble_blocks",
    "br_direct_sum",
    "dominant_modes",
    "gather_fields",
    "rt_linear_growth",
    "tangent_vorticity",
]


def br_direct_sum(
    targets: np.ndarray,
    sources: np.ndarray,
    omega: np.ndarray,
    eps: float,
    dA: float,
    cutoff: Optional[float] = None,
    chunk: int = 128,
) -> np.ndarray:
    """Birkhoff-Rott velocity at ``targets`` from every source.

    ``targets`` is ``(nt, 3)``, ``sources`` and ``omega`` ``(ns, 3)``.
    With ``cutoff`` set, a pair contributes only when
    ``|t - s| <= cutoff``.  Targets are processed ``chunk`` at a time so
    the temporaries stay a few MB whatever the problem size.
    """
    tgt = np.asarray(targets, dtype=np.float64).reshape(-1, 3)
    src = np.asarray(sources, dtype=np.float64).reshape(-1, 3)
    om = np.asarray(omega, dtype=np.float64).reshape(-1, 3)
    if src.shape != om.shape:
        raise ValueError(f"sources {src.shape} and omega {om.shape} differ")
    out = np.zeros_like(tgt)
    eps2 = float(eps) ** 2
    for lo in range(0, tgt.shape[0], chunk):
        diff = tgt[lo: lo + chunk, None, :] - src[None, :, :]
        r2 = np.einsum("tsk,tsk->ts", diff, diff)
        weight = (r2 + eps2) ** -1.5
        if cutoff is not None:
            weight = np.where(r2 <= cutoff * cutoff, weight, 0.0)
        # Sum of w_j x (t - s_j) weighted per pair.
        cross = np.cross(om[None, :, :], diff)
        out[lo: lo + chunk] = np.einsum("ts,tsk->tk", weight, cross)
    return out * (dA / (4.0 * math.pi))


def rt_linear_growth(
    atwood: float, gravity: float, k: np.ndarray, t: float, mu: float = 0.0
) -> np.ndarray:
    """Linear RT amplitude factor of wavenumber ``|k|`` after time ``t``.

    A mode released from rest obeys ``h'' + mu k^2 h' - sigma^2 h = 0``
    with ``sigma = sqrt(A g |k|)``: the growth rate of the inviscid
    sheet, damped by a vorticity diffusion ``mu``.  With ``h(0) = 1``
    and ``h'(0) = 0`` the factor is
    ``(r+ e^(r- t) - r- e^(r+ t)) / (r+ - r-)`` for the two roots
    ``r+-``, which is ``cosh(sigma t)`` when ``mu = 0``.
    """
    k = np.abs(np.asarray(k, dtype=np.float64))
    sigma2 = atwood * gravity * k
    damp = mu * k * k
    root = np.sqrt(damp * damp + 4.0 * sigma2)
    r_plus, r_minus = 0.5 * (root - damp), -0.5 * (root + damp)
    return (r_plus * np.exp(r_minus * t) - r_minus * np.exp(r_plus * t)) / root


def dominant_modes(height: np.ndarray, count: int) -> list[tuple[int, int]]:
    """FFT indices of the ``count`` largest non-mean modes of ``height``.

    Conjugate pairs are kept once (the one with the larger flat index),
    so ``count`` distinct physical modes come back, largest first.
    """
    spectrum = np.abs(np.fft.fft2(height))
    n1, n2 = height.shape
    spectrum[0, 0] = 0.0
    chosen: list[tuple[int, int]] = []
    for flat in np.argsort(spectrum, axis=None)[::-1]:
        i, j = divmod(int(flat), n2)
        mirror = ((-i) % n1, (-j) % n2)
        if mirror in chosen:
            continue
        chosen.append((i, j))
        if len(chosen) == count:
            break
    return chosen


def tangent_vorticity(z: np.ndarray, gamma: np.ndarray, spacing: Sequence[float]) -> np.ndarray:
    """Vortex-sheet strength ``w = g1 dz/da1 + g2 dz/da2`` of a surface.

    ``z`` is ``(n1, n2, 3)``, ``gamma`` ``(n1, n2, 2)``; tangents are
    numpy second-order differences (one-sided at the edges).
    """
    t1 = np.gradient(z, spacing[0], axis=0)
    t2 = np.gradient(z, spacing[1], axis=1)
    return gamma[..., 0:1] * t1 + gamma[..., 1:2] * t2


def assemble_blocks(
    blocks: Iterable[tuple[Sequence[int], np.ndarray]],
    shape: Sequence[int],
) -> np.ndarray:
    """Global array from ``(owned_mins, owned_block)`` pairs, one per rank.

    Raises when the blocks leave a node uncovered or cover one twice,
    so a decomposition fault shows up as an error, not as zeros.
    """
    blocks = list(blocks)
    trailing = blocks[0][1].shape[2:]
    out = np.zeros(tuple(shape) + trailing)
    hits = np.zeros(tuple(shape), dtype=np.int64)
    for mins, block in blocks:
        i0, j0 = (int(m) for m in mins)
        ni, nj = block.shape[:2]
        out[i0: i0 + ni, j0: j0 + nj] = block
        hits[i0: i0 + ni, j0: j0 + nj] += 1
    if not np.all(hits == 1):
        raise ValueError(
            f"owned blocks cover {int((hits == 0).sum())} nodes zero times "
            f"and {int((hits > 1).sum())} nodes more than once"
        )
    return out


def gather_fields(
    comm,
    mins: Sequence[int],
    fields: Sequence[np.ndarray],
    shape: Sequence[int],
) -> list[np.ndarray]:
    """Global arrays of per-rank owned ``fields``, on every rank.

    ``comm`` is any communicator with an mpi4py-style ``allgather``;
    ``mins`` is the calling rank's first owned global index.
    """
    blocks = comm.allgather(
        (tuple(int(m) for m in mins), [np.array(f, copy=True) for f in fields])
    )
    return [
        assemble_blocks(((m, fs[k]) for m, fs in blocks), shape)
        for k in range(len(fields))
    ]
