"""End-to-end picking state machines.

``run_collection`` drives the self-supervised data-collection loop: observe
a random point, loosen, grasp at a random depth from the food-class pool,
record (patch, depth, mass), place the mass outside the tray. The result is
a split dataset ready for training.

``run_inference_episode`` drives one target-mass pick: select a grasp point
under the uncertainty criterion, loosen, grasp, then either release-and-
retry (grasped at or below target - 2 g), discard excess through cyclic
post-grasping (grasped at or above target + 2 g), or place directly. The
post-grasp loop is governed by *scale readings* - quantised, lagged, and
transient-corrupted - so the achievable accuracy is set by the sensor, while
true masses are tracked separately for the episode ledger.

The post-grasp cycle speed falls linearly from v_max to v_min as the
estimated load approaches target + stop_band.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import mdn
from .select import SelectionConfig, pick_grasp, select_grasp
from .sim import (PATCH_MARGIN, GripperLoad, HeapState, PostgraspParams,
                  ScaleState, SimConfig, Z_POOL_DEEP, apply_pregrasp,
                  clears_floor, execute_grasp, init_heap, local_median_height,
                  make_gripper_load, observe_patch, postgrasp_step, read_scale,
                  release_mass)


@dataclass
class ControllerConfig:
    """Linear speed law for the post-grasp cycle, plus the ALGO-2 bands."""

    v_min: float = 0.5
    v_max: float = 2.0
    stop_band_g: float = 2.0
    retry_band_g: float = 2.0
    control_hz: float = 30.0

    def __post_init__(self):
        if not 0 < self.v_min <= self.v_max:
            raise ValueError("need 0 < v_min <= v_max")

    @classmethod
    def from_sim(cls, sim_config: SimConfig) -> "ControllerConfig":
        return cls(v_min=sim_config.postgrasp.v_min, v_max=sim_config.postgrasp.v_max)


@dataclass
class EpisodeConfig:
    """An inference episode. Selection uses the default SelectionConfig
    lattice; pre-grasping and the spines are always on."""

    sim: SimConfig
    controller: ControllerConfig
    use_postgrasp: bool = True
    retry_cap: int = 10
    trace: bool = False

    @classmethod
    def default(cls, sim_config: SimConfig, **kw) -> "EpisodeConfig":
        return cls(sim=sim_config, controller=ControllerConfig.from_sim(sim_config), **kw)


@dataclass
class EpisodeResult:
    chosen: tuple | None          # (x, y, z_cm) of the final attempt
    predicted: tuple | None       # (mu_g, sigma_g)
    grasped_initial: float
    retries: int
    postgrasp_trace: list         # (t_s, v, dropped_g)
    final_mass: float
    placed_g: float
    discarded_g: float
    status: str                   # placed | infeasible | failed_to_grasp
    success_band_2g: bool
    events: list = field(default_factory=list)


def controller_speed(current: float, target: float, start: float,
                     cfg: ControllerConfig) -> float:
    """Cycle speed, linear in the remaining excess: v_max at the start mass,
    v_min once the current estimate reaches target + stop_band."""
    if not (start >= current >= 0):
        raise ValueError(f"need start >= current >= 0, got start={start}, current={current}")
    floor = target + cfg.stop_band_g
    if not start > floor:
        raise ValueError(f"start mass {start} must exceed target + stop band {floor}")
    frac = (current - floor) / (start - floor)
    frac = min(max(frac, 0.0), 1.0)
    return cfg.v_min + (cfg.v_max - cfg.v_min) * frac


def run_postgrasp(load: GripperLoad, target: float, scale: ScaleState,
                  cfg: ControllerConfig, rng: np.random.Generator,
                  postgrasp_params=None) -> tuple:
    """Cycle the movable gripper until the *reading-based* load estimate
    drops below target + stop_band. Returns (true final mass, trace)."""
    if target < 0:
        raise ValueError("target mass must be non-negative")
    if postgrasp_params is None:
        postgrasp_params = PostgraspParams()
    start = load.remaining_mass
    dt = 1.0 / cfg.control_hz
    t = 0.0
    trace = []
    for _ in range(100_000):  # bounded for safety; the guard exits first
        reading = read_scale(scale, t)
        estimate = min(start, max(0.0, start - reading))
        if not target + cfg.stop_band_g <= estimate + 1e-12:
            break
        if start > target + cfg.stop_band_g:
            v = controller_speed(estimate, target, start, cfg)
        else:
            v = cfg.v_min  # entered exactly at the band edge
        dropped = postgrasp_step(load, v, postgrasp_params, rng)
        scale.add_mass(dropped, t)
        trace.append((t, v, dropped))
        t += dt
    return load.remaining_mass, trace


def run_inference_episode(model: mdn.ModelParams, heap: HeapState, target: float,
                          alpha: float, cfg: EpisodeConfig,
                          rng: np.random.Generator, lattice=None) -> EpisodeResult:
    """One target-mass pick with release-and-retry and post-grasp adjustment.

    `lattice`, when given, is ``select._score_lattice`` of `heap` exactly as
    passed, with the default candidate lattice: the first pick reads it
    instead of scoring again. Every retry scores the mutated heap."""
    ctl = cfg.controller
    events = []
    retries = 0
    chosen = None
    predicted = None
    grasped = 0.0
    sel_cfg = SelectionConfig(target_mass_g=target, alpha=alpha)

    while True:
        if lattice is None:
            sel = select_grasp(model, heap, sel_cfg, clearance_mm=cfg.sim.clearance_mm)
        else:
            sel, lattice = pick_grasp(lattice, sel_cfg), None
        events.append({"event": "observe"})
        if sel is None:
            return _finish(events, None, None, 0.0, retries, [], 0.0, 0.0, 0.0,
                           "infeasible", target, cfg)
        chosen = (sel.x, sel.y, sel.z_cm)
        predicted = (sel.mu_g, sel.sigma_g)
        events.append({"event": "select", "x": sel.x, "y": sel.y, "z_cm": sel.z_cm,
                       "mu_g": sel.mu_g, "sigma_g": sel.sigma_g})

        apply_pregrasp(heap, sel.x, sel.y, sel.z_cm, rng, cfg.sim)
        events.append({"event": "pregrasp", "x": sel.x, "y": sel.y})

        outcome = execute_grasp(heap, sel.x, sel.y, sel.z_cm, rng, cfg.sim)
        grasped = outcome.grasped_mass
        events.append({"event": "grasp", "grasped_g": grasped,
                       "base_g": outcome.base_mass, "extra_g": outcome.entangled_extra})

        if grasped <= target - ctl.retry_band_g:
            release_mass(heap, sel.x, sel.y, grasped, cfg.sim)
            events.append({"event": "release", "released_g": grasped})
            retries += 1
            if retries > cfg.retry_cap:
                return _finish(events, chosen, predicted, grasped, retries, [],
                               0.0, 0.0, 0.0, "failed_to_grasp", target, cfg)
            continue
        break

    trace = []
    discarded = 0.0
    final = grasped
    if cfg.use_postgrasp and grasped >= target + ctl.stop_band_g:
        load = make_gripper_load(outcome, cfg.sim.postgrasp)
        scale = ScaleState(params=cfg.sim.scale)
        final, trace = run_postgrasp(load, target, scale, ctl, rng, cfg.sim.postgrasp)
        discarded = grasped - final
        if cfg.trace:
            # interleave discard steps with the scale readings that drove them
            merged = ([("poststep", t, (v, dropped)) for t, v, dropped in trace]
                      + [("scale", t, value) for t, value in scale.readings])
            for kind, t, payload in sorted(merged, key=lambda e: (e[1], e[0] == "poststep")):
                if kind == "scale":
                    events.append({"event": "scale", "t_s": t, "reading_g": payload})
                else:
                    v, dropped = payload
                    events.append({"event": "poststep", "t_s": t, "v": v,
                                   "dropped_g": dropped})

    events.append({"event": "place", "placed_g": final})
    return _finish(events, chosen, predicted, grasped, retries, trace,
                   final, final, discarded, "placed", target, cfg)


def _finish(events, chosen, predicted, grasped, retries, trace, final, placed,
            discarded, status, target, cfg):
    err = abs(final - target)
    return EpisodeResult(
        chosen=chosen, predicted=predicted, grasped_initial=grasped,
        retries=retries, postgrasp_trace=trace, final_mass=final,
        placed_g=placed, discarded_g=discarded, status=status,
        success_band_2g=err <= 2.0,
        events=events if cfg.trace else [])


# ---------------------------------------------------------------------------
# data collection
# ---------------------------------------------------------------------------

def _random_grasp_point(heap, zpool, rng, sim_config, max_tries=200):
    """Random margin-respecting point with a depth drawn from the pool among
    the depths that keep the gripper off the tray floor."""
    w, d, _ = heap.tray_mm
    m = PATCH_MARGIN
    for _ in range(max_tries):
        x = int(rng.integers(m, w - m + 1))
        y = int(rng.integers(m, d - m + 1))
        med = local_median_height(heap, x, y)
        valid = [z for z in zpool if clears_floor(med, z, sim_config.clearance_mm)]
        if valid:
            return x, y, valid[int(rng.integers(len(valid)))]
    raise RuntimeError(f"no pool depth clears the tray floor at {max_tries} random points; "
                       "tray too depleted to place the gripper safely")


def run_collection(sim_config: SimConfig, n: int, zpool=Z_POOL_DEEP,
                   seed: int = 0) -> mdn.Dataset:
    """Self-supervised data collection: n loosened grasps at random points
    and pool depths, each recorded as (pre-loosening patch, depth, grasped
    mass) with the mass placed outside the tray. Rows are split 75/25 into
    train/eval (150/50 at the standard n=200), keeping at least one eval
    row."""
    if n < 2:
        raise ValueError("need at least 2 grasps to form train and eval splits")
    ss = np.random.SeedSequence(seed)
    heap_seed, ops_seed = ss.spawn(2)
    heap = init_heap(sim_config, heap_seed.generate_state(1)[0])
    rng = np.random.default_rng(ops_seed)

    rows = []
    for _ in range(n):
        x, y, z = _random_grasp_point(heap, zpool, rng, sim_config)
        obs = observe_patch(heap, x, y)
        apply_pregrasp(heap, x, y, z, rng, sim_config)
        outcome = execute_grasp(heap, x, y, z, rng, sim_config)
        rows.append(mdn.DataRow(obs.heights, z, outcome.grasped_mass, "train"))

    n_train = min(round(0.75 * n), n - 1)
    order = rng.permutation(n)
    for i in order[n_train:]:
        rows[i].split = "eval"
    return mdn.Dataset(rows)
