"""End-to-end picking state machines.

``run_collection`` drives the self-supervised data-collection loop: observe
a random point, loosen, grasp at a random depth from the food-class pool,
record (patch, depth, mass), place the mass outside the tray. The result is
a split dataset ready for training.

``run_inference_episode`` drives one target-mass pick: select a grasp point
under the uncertainty criterion, loosen, grasp, then either release-and-
retry (grasped at or below target - ``RETRY_BAND_G``, at most ``RETRY_CAP``
times), discard excess through cyclic post-grasping (grasped at or above
target + ``STOP_BAND_G``), or place directly. The post-grasp loop runs one
cycle per 1 / ``CONTROL_HZ`` s until the load estimate falls below target +
``STOP_BAND_G``. It is governed by *scale readings* - quantised, lagged, and
transient-corrupted - so the achievable accuracy is set by the sensor, while
true masses are tracked separately for the episode ledger.

The post-grasp cycle speed falls linearly from v_max to v_min as the
estimated load approaches target + ``STOP_BAND_G``; ``sim.PostgraspParams``
owns and checks that speed range.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import zip_longest

import numpy as np

from . import mdn
from .select import SelectionConfig, pick_grasp, select_grasp
from .sim import (PATCH_MARGIN, GripperLoad, HeapState, PostgraspParams,
                  ScaleState, SimConfig, Z_POOL_DEEP, apply_pregrasp,
                  clears_floor, execute_grasp, init_heap, local_median_height,
                  make_gripper_load, observe_patch, postgrasp_step, read_scale,
                  release_mass)

# ALGO 2: release and retry a grasp at or below target - RETRY_BAND_G, giving
# up after RETRY_CAP retries; post-grasp one at or above target + STOP_BAND_G
# until the estimate falls below it, one cycle per 1 / CONTROL_HZ s
RETRY_BAND_G = 2.0
STOP_BAND_G = 2.0
CONTROL_HZ = 30.0
RETRY_CAP = 10


@dataclass
class EpisodeConfig:
    """An inference episode. Selection scores the fixed SelectionConfig
    lattice; pre-grasping and the spines are always on."""

    sim: SimConfig
    use_postgrasp: bool = True
    trace: bool = False

    @classmethod
    def default(cls, sim_config: SimConfig, **kw) -> "EpisodeConfig":
        return cls(sim=sim_config, **kw)


@dataclass
class EpisodeResult:
    chosen: tuple | None          # (x, y, z_cm) of the final attempt
    predicted: tuple | None       # (mu_g, sigma_g)
    grasped_initial: float
    retries: int
    postgrasp_trace: list         # (t_s, v, dropped_g)
    final_mass: float
    discarded_g: float
    status: str                   # placed | infeasible | failed_to_grasp
    success_band_2g: bool         # |final_mass - target| <= 2 g
    events: list = field(default_factory=list)

    @property
    def placed_g(self) -> float:
        """The mass placed, which is the final mass."""
        return self.final_mass


def controller_speed(current: float, target: float, start: float,
                     params: PostgraspParams) -> float:
    """Cycle speed, linear in the remaining excess: v_max at the start mass,
    v_min once the current estimate reaches target + STOP_BAND_G."""
    if not (start >= current >= 0):
        raise ValueError(f"need start >= current >= 0, got start={start}, current={current}")
    floor = target + STOP_BAND_G
    if not start > floor:
        raise ValueError(f"start mass {start} must exceed target + stop band {floor}")
    frac = (current - floor) / (start - floor)
    frac = min(max(frac, 0.0), 1.0)
    return params.v_min + (params.v_max - params.v_min) * frac


def run_postgrasp(load: GripperLoad, target: float, scale: ScaleState,
                  params: PostgraspParams, rng: np.random.Generator) -> tuple:
    """Cycle the movable gripper until the *reading-based* load estimate
    drops below target + STOP_BAND_G. Reads the scale once before each
    step. Returns (true final mass, trace)."""
    if target < 0:
        raise ValueError("target mass must be non-negative")
    start = load.remaining_mass
    dt = 1.0 / CONTROL_HZ
    t = 0.0
    trace = []
    for _ in range(100_000):  # bounded for safety; the guard exits first
        reading = read_scale(scale, t)
        estimate = min(start, max(0.0, start - reading))
        if not target + STOP_BAND_G <= estimate + 1e-12:
            break
        if start > target + STOP_BAND_G:
            v = controller_speed(estimate, target, start, params)
        else:
            v = params.v_min  # entered exactly at the band edge
        dropped = postgrasp_step(load, v, params, rng)
        scale.add_mass(dropped, t)
        trace.append((t, v, dropped))
        t += dt
    return load.remaining_mass, trace


def run_inference_episode(model: mdn.ModelParams, heap: HeapState, target: float,
                          alpha: float, cfg: EpisodeConfig,
                          rng: np.random.Generator, lattice=None) -> EpisodeResult:
    """One target-mass pick with release-and-retry and post-grasp adjustment.

    `lattice`, when given, is ``select._score_lattice`` of `heap` exactly as
    passed: the first pick reads it instead of scoring again. Every retry
    scores the mutated heap."""
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
            return EpisodeResult(
                chosen=None, predicted=None, grasped_initial=0.0, retries=retries,
                postgrasp_trace=[], final_mass=0.0, discarded_g=0.0, status="infeasible",
                success_band_2g=False, events=events if cfg.trace else [])
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

        if grasped <= target - RETRY_BAND_G:
            release_mass(heap, sel.x, sel.y, grasped, cfg.sim)
            events.append({"event": "release", "released_g": grasped})
            retries += 1
            if retries > RETRY_CAP:
                return EpisodeResult(
                    chosen=chosen, predicted=predicted, grasped_initial=grasped,
                    retries=retries, postgrasp_trace=[], final_mass=0.0, discarded_g=0.0,
                    status="failed_to_grasp", success_band_2g=False,
                    events=events if cfg.trace else [])
            continue
        break

    trace = []
    discarded = 0.0
    final = grasped
    if cfg.use_postgrasp and grasped >= target + STOP_BAND_G:
        load = make_gripper_load(outcome, cfg.sim.postgrasp)
        scale = ScaleState(params=cfg.sim.scale)
        final, trace = run_postgrasp(load, target, scale, cfg.sim.postgrasp, rng)
        discarded = grasped - final
        if cfg.trace:
            # reading i drove step i, at the same time; the last reading
            # ended the loop
            for (t, reading), step in zip_longest(scale.readings, trace):
                events.append({"event": "scale", "t_s": t, "reading_g": reading})
                if step is not None:
                    t, v, dropped = step
                    events.append({"event": "poststep", "t_s": t, "v": v,
                                   "dropped_g": dropped})

    events.append({"event": "place", "placed_g": final})
    return EpisodeResult(
        chosen=chosen, predicted=predicted, grasped_initial=grasped, retries=retries,
        postgrasp_trace=trace, final_mass=final, discarded_g=discarded, status="placed",
        success_band_2g=abs(final - target) <= 2.0, events=events if cfg.trace else [])


# ---------------------------------------------------------------------------
# data collection
# ---------------------------------------------------------------------------

class NoClearDepthError(RuntimeError):
    """No pool depth clears the tray floor: the config or the pool is at fault."""


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
    fw, fl = sim_config.footprint_mm
    raise NoClearDepthError(f"no pool depth clears the tray floor at {max_tries} random points "
                            f"(fill_mm {sim_config.fill_mm:g}, clearance_mm "
                            f"{sim_config.clearance_mm:g}): tray too shallow or depleted, or "
                            f"worn flat by the craters of footprint_mm {fw:g} x {fl:g}")


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
        patch = mdn.patch_units(obs.heights)
        rows.append(mdn.DataRow(patch, z, outcome.grasped_mass, "train"))

    n_train = min(round(0.75 * n), n - 1)
    order = rng.permutation(n)
    for i in order[n_train:]:
        rows[i].split = "eval"
    return mdn.Dataset(rows)
