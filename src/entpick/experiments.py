"""Study presets, the study runner and bootstrap evaluation.

A study is arms x cells. A preset lists its arms as (label, episode
kwargs) rows; its cells are percentile targets (nearest-rank percentiles of
the model's training masses, which the training log carries), or fixed
drops when it has no targets. ``run_experiment`` runs the preset's episodes
as paired trials (common random numbers): episode i of every arm x cell
starts from a copy of the same heap with the same ops seed. It runs them
through the study's episode function in ``STUDIES`` and reports per band a
bootstrap mean +- std rate of the study's success predicate, and the paired
difference of each later arm against the first:

  TABLE1    selection margin alpha 0 vs 1, a single pick; success = grasped
            mass above target - 2 g, at the 10th/50th/70th percentiles.
  TABLE2    pre-grasp on/off before random grasps, then a fixed drop
            (3/4/5/10/15 g) discarded by spined post-grasping; success =
            final within +-2 g of (grasped - drop). Loads under drop + 5 g
            are re-grasped.
  TABLE3    spines on/off for a 10 g drop after loosened random grasps,
            bands +-2..5 g.
  TABLE4    the full pipeline (alpha 1, pre-grasp, spined post-grasp)
            against alpha 0 with pre-grasp and no post-grasp, at the
            percentile targets and bands +-2/3/4 g.

Every report carries an episode mass ledger (heap loss vs placed +
discarded).
"""

from __future__ import annotations

import math
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import mdn, pipeline
from .pipeline import EpisodeConfig
# select_grasp stays bound here for perfbench's tracer; the studies pick
# off one shared scoring per heap instead
from .select import SelectionConfig, _score_lattice, pick_grasp, select_grasp  # noqa: F401
from .sim import (ScaleState, SimConfig, Z_POOL_DEEP, apply_pregrasp,
                  execute_grasp, init_heap, make_gripper_load, release_mass,
                  total_mass)

# Reference targets reported for the imitation-cabbage class at the
# 10th/50th/70th percentiles on the original hardware; annotation only,
# never an assertion target.
REFERENCE_TARGETS_G = {"imitation_cabbage": (22.0, 46.0, 56.0)}

REGRASP_MARGIN_G = 5.0     # random grasps under drop + margin are re-grasped
BOOTSTRAP_B = 2000


@dataclass
class ExperimentPreset:
    name: str
    arms: tuple                            # (label, episode kwargs); the first is the reference
    targets: tuple | None = (10, 50, 70)   # percentiles of training masses
    episodes: int = 200
    bands: tuple = (2.0, 3.0, 4.0)
    seed: int = 20240601
    drops_g: tuple | None = None           # the cells when targets is None

    def __post_init__(self):
        if self.episodes < 30:
            raise ValueError("need at least 30 episodes per cell")
        if self.targets is not None and any(not 0 < p < 100 for p in self.targets):
            raise ValueError("percentiles must lie in (0, 100)")
        if self.targets is None and not self.drops_g:
            raise ValueError("a preset without percentile targets needs drops_g")


def _switch(flag: str, **fixed) -> tuple:
    """Off/on arms of one random-grasp episode flag."""
    return tuple((f"{flag}={'on' if v else 'off'}", {**fixed, flag: v}) for v in (False, True))


_PRESETS = {
    "TABLE1": dict(arms=tuple((f"alpha={a:g}", {"alpha": a}) for a in (0.0, 1.0)), bands=()),
    "TABLE2": dict(arms=_switch("pregrasp", spines=True), targets=None, bands=(2.0,),
                   drops_g=(3.0, 4.0, 5.0, 10.0, 15.0)),
    "TABLE3": dict(arms=_switch("spines", pregrasp=True), targets=None,
                   bands=(2.0, 3.0, 4.0, 5.0), drops_g=(10.0,)),
    # the inference episode always pre-grasps and always uses the spines
    "TABLE4": dict(arms=(("baseline", {"alpha": 0.0, "use_postgrasp": False}),
                         ("ours", {"alpha": 1.0}))),
}
PRESET_NAMES = tuple(_PRESETS)


def preset(name: str, episodes: int = 200, seed: int = 20240601,
           drops_g: tuple | None = None) -> ExperimentPreset:
    """A shipped study preset by name; `drops_g` replaces the drops of the
    drop-based presets."""
    name = name.upper()
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    fields = dict(_PRESETS[name])
    if drops_g and fields.get("drops_g"):
        fields["drops_g"] = drops_g
    return ExperimentPreset(name, episodes=episodes, seed=seed, **fields)


@dataclass
class BootstrapReport:
    preset: str
    cells: list       # {arm, target_g, [percentile], band_g, metric, mean_pct, std_pct}
    paired: list      # {difference, target_g, [percentile], band_g, metric, mean_pp, std_pp}
    regrasp: list               # {arm, target_g, rate_pct}
    seeds: dict
    ledger: dict
    counts: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def nearest_rank_percentile(values, p: float) -> float:
    """Nearest-rank percentile: the ceil(p/100 * n)-th smallest value."""
    if len(values) == 0:
        raise ValueError("no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def success_rate(finals, target: float, band: float) -> float:
    """Fraction of final masses within +-band of the target."""
    finals = list(finals)
    if not finals:
        raise ValueError("no results")
    hits = sum(1 for f in finals if abs(f - target) <= band)
    return hits / len(finals)


def bootstrap(successes, B: int, seed: int) -> tuple:
    """Resample-with-replacement mean and std of the success rate, in percent."""
    outcomes = np.asarray(list(successes), dtype=float)
    if outcomes.size == 0:
        raise ValueError("no outcomes to resample")
    if B < 1000:
        raise ValueError("use at least 1000 bootstrap resamples")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, outcomes.size, size=(B, outcomes.size))
    rates = outcomes[idx].mean(axis=1) * 100.0
    return float(rates.mean()), float(rates.std())


# ---------------------------------------------------------------------------
# histogram
# ---------------------------------------------------------------------------

@dataclass
class Histogram:
    bin_width_g: float
    bins: list     # {lo, count}

    def counts(self):
        return [b["count"] for b in self.bins]

    def to_dict(self) -> dict:
        return {"bin_width_g": self.bin_width_g, "bins": self.bins}


def mass_histogram(dataset: mdn.Dataset, bin_width: float, split=None) -> Histogram:
    """Counts of grasped masses in fixed-width bins starting at 0."""
    if bin_width <= 0:
        raise ValueError("bin width must be positive")
    masses = dataset.masses(split)
    if not masses:
        raise ValueError("no masses to bin")
    n_bins = int(max(masses) // bin_width) + 1
    counts = [0] * n_bins
    for m in masses:
        counts[min(int(m // bin_width), n_bins - 1)] += 1
    return Histogram(bin_width, [{"lo": i * bin_width, "count": c}
                                 for i, c in enumerate(counts)])


def count_modes(hist: Histogram, window: int = 3, min_height_frac: float = 0.15,
                min_prominence_frac: float = 0.12) -> int:
    """Modes of the smoothed histogram: peaks of the window-bin moving
    average with both height and topographic prominence above fractions of
    the smoothed maximum, so Poisson zigzag in adjacent bins does not
    count as structure."""
    from scipy.signal import find_peaks
    counts = np.asarray(hist.counts(), dtype=float)
    padded = np.concatenate([[0.0], counts, [0.0]])
    kernel = np.ones(window) / window
    s = np.convolve(padded, kernel, mode="same")
    top = s.max()
    if top <= 0:
        return 0
    peaks, _ = find_peaks(s, height=min_height_frac * top,
                          prominence=min_prominence_frac * top)
    return int(len(peaks))


# ---------------------------------------------------------------------------
# episodes: fn(sim_cfg, model, heap, rng_seed, cell value, [lattice], **arm kwargs)
# ---------------------------------------------------------------------------

def _random_grasp_episode(sim_cfg, model, heap, rng_seed, drop_g, pregrasp, spines):
    """One TABLE2/TABLE3 style episode: random grasp (re-grasping light loads),
    then drop `drop_g` by post-grasping. The model is not used."""
    rng = np.random.default_rng(rng_seed)
    before = total_mass(heap)
    for retries in range(30):
        x, y, z = pipeline._random_grasp_point(heap, Z_POOL_DEEP, rng, sim_cfg)
        if pregrasp:
            apply_pregrasp(heap, x, y, z, rng, sim_cfg)
        outcome = execute_grasp(heap, x, y, z, rng, sim_cfg)
        if outcome.grasped_mass >= drop_g + REGRASP_MARGIN_G:
            break
        release_mass(heap, x, y, outcome.grasped_mass, sim_cfg)
    else:
        return {"ok": False, "retries": 30, "imbalance": 0.0}
    target = outcome.grasped_mass - drop_g
    load = make_gripper_load(outcome, sim_cfg.postgrasp, spines)
    scale = ScaleState(params=sim_cfg.scale)
    final, _ = pipeline.run_postgrasp(load, target, scale, sim_cfg.postgrasp, rng)
    return {"ok": True, "retries": retries, "err": abs(final - target),
            "imbalance": before - total_mass(heap) - outcome.grasped_mass}


def _selection_episode(sim_cfg, model, heap, rng_seed, target, alpha, lattice=None,
                       **episode_kw):
    """One target-mass pick with retries (TABLE4 and `run_episode_batch`);
    `lattice` is the scoring of `heap` for the first pick, `episode_kw` are
    EpisodeConfig fields."""
    rng = np.random.default_rng(rng_seed)
    cfg = EpisodeConfig.default(sim_cfg, **episode_kw)
    before = total_mass(heap)
    r = pipeline.run_inference_episode(model, heap, target, alpha, cfg, rng, lattice)
    imbalance = before - total_mass(heap) - r.placed_g - r.discarded_g
    return {"status": r.status, "grasped": r.grasped_initial, "final": r.final_mass,
            "retries": r.retries, "imbalance": imbalance, "events": r.events,
            "chosen": r.chosen, "predicted": r.predicted}


def _table1_episode(sim_cfg, model, heap, rng_seed, target, alpha, lattice):
    """Selection study episode: single pick off the heap's scoring, no
    retry, success judged on the grasped mass itself."""
    rng = np.random.default_rng(rng_seed)
    sel = pick_grasp(lattice, SelectionConfig(target_mass_g=target, alpha=alpha))
    if sel is None:
        return {"status": "infeasible", "grasped": 0.0, "imbalance": 0.0}
    before = total_mass(heap)
    apply_pregrasp(heap, sel.x, sel.y, sel.z_cm, rng, sim_cfg)
    outcome = execute_grasp(heap, sel.x, sel.y, sel.z_cm, rng, sim_cfg)
    imbalance = before - total_mass(heap) - outcome.grasped_mass
    return {"status": "placed", "grasped": outcome.grasped_mass, "imbalance": imbalance}


def _run_index(episode, selects, sim_config, model, arms, values, heap_seed, ops_seed):
    """Every arm x cell of one episode index, arm-major: one heap build, and
    each arm x cell on a fresh heap with a fresh generator on the same ops
    seed. Every arm x cell but the last gets a copy; the last takes the
    built heap itself, which nothing reads after it. A study that selects
    scores the fresh heap once for all of them, since scoring reads neither
    the target nor alpha."""
    heap = init_heap(sim_config, heap_seed)
    shared = {}
    if selects:
        shared["lattice"] = _score_lattice(model, heap, SelectionConfig(target_mass_g=0.0),
                                           sim_config.clearance_mm)
    jobs = [(kw, value) for kw in arms for value in values]
    return [episode(sim_config, model, heap if i == len(jobs) - 1 else heap.copy(), ops_seed,
                    value, **shared, **kw)
            for i, (kw, value) in enumerate(jobs)]


def _map_episodes(episode, rows, workers: int) -> list:
    """episode(*row) for every row, in order, on up to `workers` processes."""
    if workers <= 1:
        return [episode(*row) for row in rows]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(episode, *zip(*rows), chunksize=8))


def _episode_seeds(root_seed: int, n: int) -> list:
    """(heap seed, ops seed) per episode."""
    return [tuple(int(w) for w in child.generate_state(2))
            for child in np.random.SeedSequence(root_seed).spawn(n)]


# ---------------------------------------------------------------------------
# the studies
# ---------------------------------------------------------------------------

class Study(NamedTuple):
    episode: Callable
    metric: str
    success: Callable          # (episode result, cell value, band) -> bool
    regrasp: bool              # report the share of re-grasped episodes per cell
    selects: bool              # the episode takes the shared `lattice` of its heap


_RANDOM_GRASP = Study(_random_grasp_episode, "final_within_band_of_drop_target",
                      lambda r, drop, band: r["ok"] and r["err"] <= band, True, False)
STUDIES = {
    "TABLE1": Study(_table1_episode, "grasped_above_target_minus_2g",
                    lambda r, target, band: r["status"] == "placed"
                    and r["grasped"] > target - 2.0, False, True),
    "TABLE2": _RANDOM_GRASP,
    "TABLE3": _RANDOM_GRASP,
    "TABLE4": Study(_selection_episode, "final_within_band",
                    lambda r, target, band: r["status"] == "placed"
                    and abs(r["final"] - target) <= band, True, True),
}


def _targets_from_model(model: mdn.ModelParams, percentiles) -> list:
    masses = model.training_log.get("train_masses_g")
    if not masses:
        raise ValueError("model checkpoint carries no training masses; "
                         "retrain or pass a model produced by train()")
    return [nearest_rank_percentile(masses, p) for p in percentiles]


def run_experiment(preset_obj: ExperimentPreset, sim_config: SimConfig,
                   model: mdn.ModelParams | None = None,
                   workers: int = 1) -> BootstrapReport:
    """Run every arm x cell of a study preset and bootstrap one success rate
    per band, and one paired difference per band of each later arm against
    the first. Cells are percentile targets (which need the model), or the
    preset's drops when it has no targets. Episode indices are the unit of
    work, and of the `workers` map."""
    name = preset_obj.name.upper()
    study = STUDIES.get(name)
    if study is None:
        raise ValueError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    percentiles = preset_obj.targets
    if percentiles is None:
        cell_values = [(drop, drop) for drop in preset_obj.drops_g]
    elif model is None:
        raise ValueError(f"{name} needs a trained model")
    else:
        cell_values = list(zip(percentiles, _targets_from_model(model, percentiles)))

    seeds = _episode_seeds(_cell_seed(preset_obj.seed, name), preset_obj.episodes)
    index = partial(_run_index, study.episode, study.selects, sim_config, model,
                    tuple(kw for _, kw in preset_obj.arms), tuple(v for _, v in cell_values))
    # per-index lists of arm-major results, transposed into arm x cell columns
    columns = iter(zip(*_map_episodes(index, seeds, workers)))

    cells, paired, regrasp, imbalances = [], [], [], []
    counts = {"episodes": 0, "infeasible": 0, "failed_to_grasp": 0}
    boot_seed = preset_obj.seed + 104729
    bands = preset_obj.bands or (None,)
    wins = {}
    for label, _ in preset_obj.arms:
        for part, value in cell_values:
            results = next(columns)
            for band in bands:
                wins[label, part, band] = np.array(
                    [1.0 if study.success(r, value, band) else 0.0 for r in results])
                mean, std = bootstrap(wins[label, part, band], BOOTSTRAP_B, boot_seed)
                cells.append({"arm": label, "target_g": value,
                              **({} if percentiles is None else {"percentile": part}),
                              "band_g": band, "metric": study.metric,
                              "mean_pct": mean, "std_pct": std})
            if study.regrasp:
                rate = 100.0 * sum(1 for r in results if r["retries"] > 0) / len(results)
                regrasp.append({"arm": label, "target_g": value, "rate_pct": rate})
            counts["episodes"] += len(results)
            for status in ("infeasible", "failed_to_grasp"):
                counts[status] += sum(1 for r in results if r.get("status") == status)
            imbalances.extend(r["imbalance"] for r in results)

    # the arms share episode index i, so resampling per-index differences
    # is the paired bootstrap over indices
    first = preset_obj.arms[0][0]
    for label, _ in preset_obj.arms[1:]:
        for part, value in cell_values:
            for band in bands:
                mean, std = bootstrap(wins[label, part, band] - wins[first, part, band],
                                      BOOTSTRAP_B, boot_seed)
                paired.append({"difference": f"{label} - {first}", "target_g": value,
                               **({} if percentiles is None else {"percentile": part}),
                               "band_g": band, "metric": study.metric,
                               "mean_pp": mean, "std_pp": std})

    ledger = {
        "episodes": counts["episodes"],
        "max_abs_imbalance_g": max((abs(i) for i in imbalances), default=0.0),
        "cumulative_imbalance_g": float(math.fsum(imbalances)),
    }
    return BootstrapReport(preset=name, cells=cells, paired=paired, regrasp=regrasp,
                           seeds={"root": preset_obj.seed, "bootstrap": boot_seed},
                           ledger=ledger, counts=counts)


def run_episode_batch(sim_config: SimConfig, model: mdn.ModelParams, target: float,
                      alpha: float, episodes: int, seed: int, workers: int = 1,
                      trace: bool = True) -> tuple:
    """Independent seeded episodes at one (target, alpha), each on its own
    heap: one arm x one cell of the study runner; returns the summary dict
    and JSON-lines trace records."""
    index = partial(_run_index, _selection_episode, True, sim_config, model,
                    ({"alpha": alpha, "trace": trace},), (target,))
    results = [r for rs in _map_episodes(index, _episode_seeds(seed, episodes), workers)
               for r in rs]
    finals = [r["final"] if r["status"] == "placed" else math.inf for r in results]
    summary = {
        "target_g": target,
        "alpha": alpha,
        "episodes": episodes,
        "success": {
            **{f"band_{b:.0f}g": success_rate(finals, target, b) for b in (2.0, 3.0, 4.0)},
            "above_target_minus_2g": sum(
                1 for r in results
                if r["status"] == "placed" and r["final"] > target - 2.0) / len(results),
        },
        "counts": {
            "placed": sum(1 for r in results if r["status"] == "placed"),
            "infeasible": sum(1 for r in results if r["status"] == "infeasible"),
            "failed_to_grasp": sum(1 for r in results if r["status"] == "failed_to_grasp"),
            "regrasped": sum(1 for r in results if r["retries"] > 0),
        },
        "ledger": {
            "max_abs_imbalance_g": max(abs(r["imbalance"]) for r in results),
            "cumulative_imbalance_g": float(math.fsum(r["imbalance"] for r in results)),
        },
        "seeds": {"root": seed},
    }
    traces = [{"episode": i, **event} for i, r in enumerate(results) for event in r["events"]]
    return summary, traces


def _cell_seed(root: int, *parts) -> int:
    h = 0
    for part in parts:
        h = zlib.crc32(str(part).encode(), h)
    return (root * 2 ** 32 + h) % (2 ** 63)

