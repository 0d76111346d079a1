"""Grid-search grasp-point selection.

Candidates are a stride lattice over the graspable tray interior crossed
with a list of insertion depths. Each candidate's patch is scored by the
mass model and reduced to a (mu, sigma) pair; points where the gripper
would reach the tray floor are masked to (0, inf) so they can never win.
The selected grasp minimises |target - mu| + sigma among candidates whose
predicted mass clears target + alpha * sigma, with ties broken by the
lowest enumeration index so any evaluation schedule returns the same point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

from . import mdn
from .sim import (PATCH_MARGIN, HeapState, SimConfig, Z_INFER_DEEP, _kept,
                  batch_unit_medians, check_number, clears_floor, height_units,
                  local_median_height, observe_patch)

@dataclass
class SelectionConfig:
    """What one pick aims at: the target mass and the weight alpha of sigma
    in the feasibility rule. The candidate lattice is the same for every
    pick: every ``stride_px`` px at least ``margin_px`` from each tray edge,
    crossed with the ``z_candidates_cm`` depths. Each depth is a whole
    multiple of 0.005 cm, as the exact features of ``_lattice_features``
    need."""
    target_mass_g: float
    alpha: float = 1.0
    stride_px: ClassVar[int] = 15
    margin_px: ClassVar[int] = PATCH_MARGIN
    z_candidates_cm: ClassVar[tuple] = Z_INFER_DEEP

    def __post_init__(self):
        # 0 g is allowed: a percentile of the training masses can be 0 g
        check_number("SelectionConfig.target_mass_g", self.target_mass_g, 0)
        check_number("SelectionConfig.alpha", self.alpha, 0)


@dataclass
class SelectedGrasp:
    x: int
    y: int
    z_cm: float
    mu_g: float
    sigma_g: float
    index: int


def _axis_points(length: int) -> list:
    margin, stride = SelectionConfig.margin_px, SelectionConfig.stride_px
    interior = length - 2 * margin
    n = max(interior // stride + 1, 0)
    start = margin + (interior - (n - 1) * stride) // 2
    return [start + i * stride for i in range(n)]


def _lattice_points(heap_dims: tuple) -> list:
    """(x, y) lattice in row-major order (y rows, then x). An interior
    narrower than the stride leaves one centred point."""
    xs = _axis_points(heap_dims[0])
    ys = _axis_points(heap_dims[1])
    return [(x, y) for y in ys for x in xs]


def enumerate_candidates(heap_dims: tuple, config: SelectionConfig = None) -> list:
    """(x, y, z) lattice in deterministic row-major order (y rows, then x,
    then z). Every config shares it, so ``config`` is not read."""
    return [(x, y, z) for x, y in _lattice_points(heap_dims)
            for z in SelectionConfig.z_candidates_cm]


def score_candidate(model: mdn.ModelParams, heap: HeapState, x: int, y: int,
                    z_cm: float, clearance_mm: float = SimConfig.clearance_mm) -> tuple:
    """(mu, sigma) for one candidate: observe, forward, reduce. Candidates
    that fail ``clears_floor`` are masked to (0, inf)."""
    if not clears_floor(local_median_height(heap, x, y), z_cm, clearance_mm):
        return 0.0, math.inf
    patch = observe_patch(heap, x, y)
    mix = mdn.mdn_forward(model, mdn.PatchObservation(patch.heights, z_cm))
    return mdn.mixture_moments(mix)


# footprints per gather step: at the 40 x 24 mm capture window a step's
# temporary is 123 KB, below the 128 KiB at which glibc's malloc maps (and
# on free unmaps) a block of its own
_GATHER_ROWS = 16


def _capture_sums(units, cx, cy, shape, tips):
    """Exact capture sums over footprints of an integer height grid.

    Footprint i is ``units[cx[i]:cx[i] + cw, cy[i]:cy[i] + cl]`` and
    ``tips[i, j]`` a tip plane in half units of the grid. Returns the int64
    sums of max(2u - t, 0) over each footprint, shaped like ``tips``. Since
    max(a, 0) = a + max(-a, 0), each sum is 2 * sum(u) - n * t plus
    sum(max(t - 2u, 0)), and that last term is computed only where the
    footprint's lowest cell lies below the plane: one gather, one sum and one
    minimum per footprint, whatever the number of planes.

    The gathered footprints live in a kept working array (``sim._kept``):
    without it a warm TABLE4 run at 30 episodes made 34,000 to 41,000
    minor faults instead of 31,000, and 60 picks of one session 561
    instead of 223. Integer sums are exact in any grouping.
    """
    windows = np.lib.stride_tricks.sliding_window_view(units, shape)
    cells = _kept("capture.cells", (len(cx),) + tuple(shape), np.int64)
    # gathered a few footprints at a time, so no temporary nears the grid's size
    for s in range(0, len(cx), _GATHER_ROWS):
        cells[s:s + _GATHER_ROWS] = windows[cx[s:s + _GATHER_ROWS], cy[s:s + _GATHER_ROWS]]
    cells = cells.reshape(len(cx), -1)
    sums = 2 * cells.sum(axis=1)[:, None] - cells.shape[1] * tips
    below = 2 * cells.min(axis=1)[:, None] < tips
    for j in range(tips.shape[1]):
        rows = np.flatnonzero(below[:, j])
        if rows.size:
            # max(t - 2u, 0) over the footprints whose lowest cell lies below t
            work = cells[rows]
            work *= 2
            np.subtract(tips[rows, j, None], work, out=work)
            np.maximum(work, 0, out=work)
            sums[rows, j] += work.sum(axis=1)
    return sums


class _Lattice(NamedTuple):
    """What scoring an xy lattice x depth list reads besides the heights,
    all fixed by the grid's shape, the points, the depths and the pooled
    side. Read-only: the selection lattice of a tray is shared by every pick
    on it (``_tray_lattice``)."""
    candidates: tuple     # (x, y, z), row-major in xy, then z
    pooled_side: int
    depths: np.ndarray    # z (cm)
    depth_units: np.ndarray   # 200 z: each depth in 0.05 mm units, int64
    ix: np.ndarray        # origin of each point's observation window
    iy: np.ndarray
    x_of: np.ndarray      # each point's row block of `rows`
    y_of: np.ndarray      # and column block of `cols`
    rows: np.ndarray      # 0/1 spans of the pooling blocks of every distinct ix
    cols: np.ndarray      # and every distinct iy
    areas: np.ndarray     # of the pooling blocks, row-major
    cx: np.ndarray        # origin of each point's capture footprint
    cy: np.ndarray


def _lattice(grid_shape, xy_points, z_list, pooled_side) -> _Lattice:
    """The ``_Lattice`` of (x, y) points and depths (cm) on a grid of
    ``grid_shape`` under a model of ``pooled_side``."""
    m = PATCH_MARGIN
    side = 2 * m
    ix = np.array([x - m for x, _ in xy_points], dtype=int)
    iy = np.array([y - m for _, y in xy_points], dtype=int)
    lo, hi, areas = mdn._pool_spans(side, pooled_side)
    xs, x_of = np.unique(ix, return_inverse=True)
    ys, y_of = np.unique(iy, return_inverse=True)
    depths = np.asarray(z_list, dtype=float)
    (r0, _), (c0, _) = mdn._capture_spans(side)
    lattice = _Lattice(
        tuple((x, y, z) for x, y in xy_points for z in z_list), pooled_side, depths,
        np.rint(depths * mdn.DEPTH_UNITS_PER_CM).astype(np.int64), ix, iy, x_of, y_of,
        mdn._span_matrix(np.add.outer(xs, lo), np.add.outer(xs, hi), grid_shape[0]),
        mdn._span_matrix(np.add.outer(ys, lo), np.add.outer(ys, hi), grid_shape[1]),
        areas, ix + r0, iy + c0)
    for a in lattice[2:]:
        a.flags.writeable = False
    return lattice


@functools.lru_cache(maxsize=4)   # a process sees a tray shape or two
def _tray_lattice(grid_shape, pooled_side) -> _Lattice:
    """The selection lattice (``enumerate_candidates``) of a tray, built
    once per grid shape and pooled side and shared by every pick on it."""
    return _lattice(grid_shape, _lattice_points(grid_shape),
                    SelectionConfig.z_candidates_cm, pooled_side)


def _lattice_features(heap, lattice):
    """Window medians (mm), shape (n_xy,), and model features, shape
    (n_xy, n_z, n_features), of a ``_Lattice``: bit for bit
    ``mdn.features_from_rows`` of each ``observe_patch`` at each depth.

    No window is materialised. ``batch_unit_medians`` reads each window's
    exact median M off the grid in 0.1 mm units u. In the 0.05 mm units of
    the features, a pooling block of area A and unit sum S (read off 0/1
    span matrices over the distinct window edges) sums to 2S - 2AM, and a
    footprint captures the sum of max(2u - t, 0) for the tip plane
    t = 2M - 200 z, which ``_capture_sums`` gathers once for every depth.
    The depths must be whole multiples of 0.005 cm.

    The grid's 0.1 mm units (``sim.height_units``), int64 and as whole
    float64 values for the span products, live in kept working arrays
    (``sim._kept``): without them a warm TABLE1 run at 30 episodes made
    33,000 minor faults instead of 21,500, a TABLE3 run 22,000 instead of
    224, and 60 picks of one session 993 instead of 223. The span products
    run as rows @ (grid @ cols.T), the cheaper order; whole units times 0/1
    spans are exact in either.
    """
    n_xy = len(lattice.ix)
    side = 2 * PATCH_MARGIN
    grid = height_units(heap.heights, out=_kept("lattice.grid", heap.heights.shape))
    units_grid = _kept("lattice.units", heap.heights.shape, np.int64)
    np.copyto(units_grid, grid, casting="unsafe")
    median_units = batch_unit_medians(units_grid, lattice.ix, lattice.iy, (side, side))

    s = lattice.pooled_side
    sums = (lattice.rows @ (grid @ lattice.cols.T)).reshape(len(lattice.rows) // s, s,
                                                           len(lattice.cols) // s, s)
    block_sums = (2 * sums[lattice.x_of, :, lattice.y_of, :].reshape(n_xy, -1)
                  - lattice.areas * 2 * median_units[:, None])
    tips = (2 * median_units).astype(np.int64)[:, None] - lattice.depth_units
    caps = _capture_sums(units_grid, lattice.cx, lattice.cy, mdn.CAPTURE_WINDOW_MM, tips)
    feats = mdn._features(block_sums[:, None, :], lattice.areas, caps, lattice.depths)
    return median_units / 10.0, feats


def _score_grid(model, heap, lattice, clearance_mm):
    """Vectorised scoring of a ``_Lattice``: one forward pass over
    ``_lattice_features``. Returns (mu, sigma) arrays of shape (n_xy, n_z)
    matching score_candidate pointwise, up to the batched forward's float
    order."""
    medians, feats = _lattice_features(heap, lattice)
    pi, mu_k, sigma_k = mdn._forward_batch(model, feats.reshape(-1, feats.shape[-1]))
    mu, sigma = mdn._reduce_mixture(pi, mu_k, sigma_k)
    clear = clears_floor(medians[:, None], lattice.depths, clearance_mm)
    return (np.where(clear, mu.reshape(clear.shape), 0.0),
            np.where(clear, sigma.reshape(clear.shape), math.inf))


def _pick(target, alpha, mu, sigma):
    """Index of the winning candidate among flat (mu, sigma) arrays, or None.

    Feasible means target + alpha * sigma < mu (strict); the winner
    minimises |target - mu| + sigma, first index on ties. Infinite-sigma
    cells are never feasible.
    """
    finite = np.isfinite(sigma)
    feasible = finite & (target + alpha * np.where(finite, sigma, 0.0) < mu)
    if not feasible.any():
        return None, feasible
    score = np.where(feasible, np.abs(target - mu) + sigma, math.inf)
    return int(np.argmin(score)), feasible


def _score_lattice(model, heap, clearance_mm):
    """The enumerated candidates, as a tuple, with their flat (mu, sigma)
    arrays, in enumeration order."""
    lattice = _tray_lattice(heap.heights.shape, model.config.pooled_side)
    mu, sigma = _score_grid(model, heap, lattice, clearance_mm)
    return lattice.candidates, mu.ravel(), sigma.ravel()


def pick_grasp(lattice, config: SelectionConfig):
    """The winner of a ``_score_lattice`` result under the config's target
    and alpha, or None when no candidate is feasible. Scoring depends on
    neither, so one lattice serves every (target, alpha) on its heap."""
    cands, flat_mu, flat_sigma = lattice
    idx, _ = _pick(config.target_mass_g, config.alpha, flat_mu, flat_sigma)
    if idx is None:
        return None
    x, y, z = cands[idx]
    return SelectedGrasp(x, y, z, float(flat_mu[idx]), float(flat_sigma[idx]), idx)


def select_grasp(model: mdn.ModelParams, heap: HeapState, config: SelectionConfig,
                 clearance_mm: float = SimConfig.clearance_mm):
    """Best grasp point under the uncertainty-penalised criterion, or None
    when no candidate is feasible."""
    return pick_grasp(_score_lattice(model, heap, clearance_mm), config)


def selection_report(model: mdn.ModelParams, heap: HeapState, config: SelectionConfig,
                     clearance_mm: float = SimConfig.clearance_mm) -> dict:
    """Every candidate with its score plus the winner, for inspection."""
    cands, flat_mu, flat_sigma = _score_lattice(model, heap, clearance_mm)
    idx, feasible = _pick(config.target_mass_g, config.alpha, flat_mu, flat_sigma)
    scores = np.abs(config.target_mass_g - flat_mu) + flat_sigma
    rows = []
    for (x, y, z), mu, sigma, ok, score in zip(cands, flat_mu.tolist(), flat_sigma.tolist(),
                                               feasible.tolist(), scores.tolist()):
        rows.append({
            "x": x, "y": y, "z_cm": z,
            "mu_g": mu,
            "sigma_g": sigma if math.isfinite(sigma) else "inf",
            "feasible": ok,
            "score": score if math.isfinite(score) else "inf",
        })
    winner = None
    if idx is not None:
        x, y, z = cands[idx]
        winner = {"index": idx, "x": x, "y": y, "z_cm": z,
                  "mu_g": float(flat_mu[idx]), "sigma_g": float(flat_sigma[idx])}
    return {
        "target_mass_g": config.target_mass_g,
        "alpha": config.alpha,
        "stride_px": config.stride_px,
        "z_candidates_cm": list(config.z_candidates_cm),
        "n_candidates": len(cands),
        "candidates": rows,
        "winner": winner,
    }
