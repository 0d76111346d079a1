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

import math
from dataclasses import dataclass

import numpy as np

from . import mdn
from .sim import (PATCH_MARGIN, HeapState, SimConfig, Z_INFER_DEEP,
                  batch_unit_medians, clears_floor, height_units,
                  local_median_height, observe_patch)

# depths and heights meet in the capture channel as integers of 0.05 mm:
# a 0.1 mm height unit is 2 of them, a depth of z cm is 200 z
DEPTH_UNITS_PER_CM = 200


@dataclass
class SelectionConfig:
    target_mass_g: float
    alpha: float = 1.0
    stride_px: int = 15
    z_candidates_cm: tuple = Z_INFER_DEEP
    margin_px: int = PATCH_MARGIN

    def __post_init__(self):
        if self.stride_px < 1:
            raise ValueError("stride must be at least 1 px")
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        zs = tuple(self.z_candidates_cm)
        if not zs or list(zs) != sorted(zs):
            raise ValueError("z candidates must be a non-empty sorted list")
        for z in zs:
            if abs(z * DEPTH_UNITS_PER_CM - round(z * DEPTH_UNITS_PER_CM)) > 1e-9:
                raise ValueError(f"z_candidates_cm entries must be whole multiples of "
                                 f"{1 / DEPTH_UNITS_PER_CM} cm, got {z!r}")
        if self.margin_px < PATCH_MARGIN:
            raise ValueError(f"margin must be at least {PATCH_MARGIN} px so patches fit")
        self.z_candidates_cm = zs


@dataclass
class SelectedGrasp:
    x: int
    y: int
    z_cm: float
    mu_g: float
    sigma_g: float
    score: float
    index: int


def _axis_points(length: int, margin: int, stride: int) -> list:
    interior = length - 2 * margin
    if interior < 0:
        return []
    n = interior // stride + 1
    start = margin + (interior - (n - 1) * stride) // 2
    return [start + i * stride for i in range(n)]


def _lattice_points(heap_dims: tuple, config: SelectionConfig) -> list:
    """(x, y) lattice in row-major order (y rows, then x). A stride wider
    than the interior leaves one centred point."""
    xs = _axis_points(heap_dims[0], config.margin_px, config.stride_px)
    ys = _axis_points(heap_dims[1], config.margin_px, config.stride_px)
    return [(x, y) for y in ys for x in xs]


def enumerate_candidates(heap_dims: tuple, config: SelectionConfig) -> list:
    """(x, y, z) lattice in deterministic row-major order (y rows, then x,
    then z)."""
    return [(x, y, z) for x, y in _lattice_points(heap_dims, config)
            for z in config.z_candidates_cm]


def _reduce_mixture(model, pi, mu, sigma):
    if model.config.reduction == "dominant":
        idx = pi.argmax(axis=1)
        rows = np.arange(pi.shape[0])
        return mu[rows, idx], sigma[rows, idx]
    mu_bar = (pi * mu).sum(axis=1)
    var = (pi * (sigma ** 2 + mu ** 2)).sum(axis=1) - mu_bar ** 2
    return mu_bar, np.sqrt(np.maximum(var, 0.0))


def score_candidate(model: mdn.ModelParams, heap: HeapState, x: int, y: int,
                    z_cm: float, clearance_mm: float = SimConfig.clearance_mm) -> tuple:
    """(mu, sigma) for one candidate: observe, forward, reduce. Candidates
    that fail ``clears_floor`` are masked to (0, inf)."""
    if not clears_floor(local_median_height(heap, x, y), z_cm, clearance_mm):
        return 0.0, math.inf
    patch = observe_patch(heap, x, y)
    mix = mdn.mdn_forward(model, mdn.PatchObservation(patch.heights, z_cm))
    if model.config.reduction == "dominant":
        return mdn.dominant_component(mix)
    return mdn.mixture_moments(mix)


def _capture_sums(units, cx, cy, shape, tips):
    """Exact capture sums over footprints of an integer height grid.

    Footprint i is ``units[cx[i]:cx[i] + cw, cy[i]:cy[i] + cl]`` and
    ``tips[i, j]`` a tip plane in half units of the grid. Returns the int64
    sums of max(2u - t, 0) over each footprint, shaped like ``tips``. Since
    max(a, 0) = a + max(-a, 0), each sum is 2 * sum(u) - n * t plus
    sum(max(t - 2u, 0)), and that last term is computed only where the
    footprint's lowest cell lies below the plane: one gather, one sum and one
    minimum per footprint, whatever the number of planes.
    """
    cells = np.lib.stride_tricks.sliding_window_view(units, shape)[cx, cy].reshape(len(cx), -1)
    sums = 2 * cells.sum(axis=1)[:, None] - cells.shape[1] * tips
    below = 2 * cells.min(axis=1)[:, None] < tips
    for j in range(tips.shape[1]):
        rows = np.flatnonzero(below[:, j])
        if rows.size:
            sums[rows, j] += np.maximum(tips[rows, j, None] - 2 * cells[rows], 0).sum(axis=1)
    return sums


def _score_grid(model, heap, xy_points, z_list, clearance_mm):
    """Vectorised scoring of an xy lattice x z list. Returns (mu, sigma)
    arrays of shape (n_xy, n_z) matching score_candidate pointwise.

    No window is materialised. The heights are converted once to integer
    0.1 mm units, the unit ``local_median_height`` uses, and
    ``batch_unit_medians`` reads every window's exact median off strip
    histograms of that grid, slid from one row of windows to the next.
    Pooled block means come from a summed-area table (median subtraction
    commutes with mean pooling). The capture channel is exact integer
    arithmetic in 0.05 mm: with 2M the doubled median and t = 2M - 200 z the
    tip plane, a footprint of n cells captures
    (2 sum(u) - n t + sum(max(t - 2u, 0))) / 20 mm, and ``_capture_sums``
    gathers each footprint once for every depth. The depths must be whole
    multiples of 0.005 cm, as ``SelectionConfig`` checks.
    """
    n_xy = len(xy_points)
    n_z = len(z_list)
    m = PATCH_MARGIN
    side = 2 * m
    ix = np.fromiter((x - m for x, _ in xy_points), dtype=int, count=n_xy)
    iy = np.fromiter((y - m for _, y in xy_points), dtype=int, count=n_xy)

    units_grid = height_units(heap.heights)
    median_units = batch_unit_medians(units_grid, ix, iy, (side, side))
    medians = median_units / 10.0

    sat = mdn._summed_area(heap.heights)
    s_out = model.config.pooled_side
    bounds = np.append((np.arange(s_out) * side) // s_out, side)
    corners = sat[np.add.outer(ix, bounds)[:, :, None],
                  np.add.outer(iy, bounds)[:, None, :]]
    block_sums = np.diff(np.diff(corners, axis=1), axis=2)
    widths = np.diff(bounds).astype(float)
    pooled = (block_sums / (widths[:, None] * widths[None, :])).reshape(n_xy, -1)
    pooled = (pooled - medians[:, None]) * mdn.HEIGHT_SCALE

    z_arr = np.asarray(z_list, dtype=float)
    cols = [np.repeat(pooled, n_z, axis=0)]
    if model.config.capture_window_mm is not None:
        cw, cl = (int(v) for v in model.config.capture_window_mm)
        depth_units = np.rint(z_arr * DEPTH_UNITS_PER_CM).astype(np.int64)
        tips = (2 * median_units).astype(np.int64)[:, None] - depth_units
        sums = _capture_sums(units_grid, ix + (m - cw // 2), iy + (m - cl // 2), (cw, cl), tips)
        cap = sums / 20.0 * 1e-3
        cols.append((cap.reshape(-1) * mdn.CAPTURE_SCALE)[:, None])
    cols.append(np.tile(z_arr, n_xy)[:, None])
    feats = np.hstack(cols)
    pi, mu_k, sigma_k = mdn._forward_batch(model, feats)
    mu, sigma = _reduce_mixture(model, pi, mu_k, sigma_k)
    mu = mu.reshape(n_xy, n_z)
    sigma = sigma.reshape(n_xy, n_z)

    clear = clears_floor(medians[:, None], z_arr[None, :], clearance_mm)
    return np.where(clear, mu, 0.0), np.where(clear, sigma, math.inf)


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


def _score_lattice(model, heap, config, clearance_mm):
    """The enumerated candidates with their flat (mu, sigma) arrays, in
    enumeration order; all three are empty when there are no candidates."""
    cands = enumerate_candidates(heap.tray_mm, config)
    if not cands:
        return cands, np.empty(0), np.empty(0)
    xy_points = _lattice_points(heap.tray_mm, config)
    mu, sigma = _score_grid(model, heap, xy_points, config.z_candidates_cm, clearance_mm)
    return cands, mu.ravel(), sigma.ravel()


def pick_grasp(lattice, config: SelectionConfig):
    """The winner of a ``_score_lattice`` result under the config's target
    and alpha, or None when no candidate is feasible. Scoring depends on
    neither, so one lattice serves every (target, alpha) on its heap."""
    cands, flat_mu, flat_sigma = lattice
    idx, _ = _pick(config.target_mass_g, config.alpha, flat_mu, flat_sigma)
    if idx is None:
        return None
    x, y, z = cands[idx]
    return SelectedGrasp(x, y, z, float(flat_mu[idx]), float(flat_sigma[idx]),
                         float(abs(config.target_mass_g - flat_mu[idx]) + flat_sigma[idx]),
                         idx)


def select_grasp(model: mdn.ModelParams, heap: HeapState, config: SelectionConfig,
                 clearance_mm: float = SimConfig.clearance_mm):
    """Best grasp point under the uncertainty-penalised criterion, or None
    when no candidate is feasible."""
    return pick_grasp(_score_lattice(model, heap, config, clearance_mm), config)


def selection_report(model: mdn.ModelParams, heap: HeapState, config: SelectionConfig,
                     clearance_mm: float = SimConfig.clearance_mm) -> dict:
    """Every candidate with its score plus the winner, for inspection."""
    cands, flat_mu, flat_sigma = _score_lattice(model, heap, config, clearance_mm)
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
