"""The study table, the study runner and bootstrap evaluation.

Each study is one row of ``STUDIES``: its arms as (label, episode kwargs)
rows, its cells (percentile targets, nearest-rank percentiles of the
training masses that the model's training log carries, or fixed drops when
it has no targets), its bands, index function, metric and success rule.
``run_experiment`` runs a study's arms x a preset's cells as paired trials
(common random numbers): episode i of every arm x cell starts from a copy
of the same heap with the same ops seed. The index function
(``_run_index`` over an episode function, or ``_random_grasp_index``,
which grasps once per pre-grasp flag) returns one record per arm x cell of
index i, each with a ``status`` in ``STATUSES``. The runner counts the
statuses, judges success on placed records only, and reports per band a
bootstrap mean +- std rate and the paired difference of each later arm
against the first:

  TABLE1    selection margin alpha 0 vs 1, a single pick; success = grasped
            mass above target - 2 g, at the 10th/50th/70th percentiles.
  TABLE2    pre-grasp on/off before random grasps, then a fixed drop
            (3/4/5/10/15 g) discarded by spined post-grasping; success =
            final within +-2 g of (grasped - drop). Loads under drop + 5 g
            are re-grasped, 30 attempts at most.
  TABLE3    spines on/off for a 10 g drop after loosened random grasps,
            bands +-2..5 g.
  TABLE4    the full pipeline (alpha 1, pre-grasp, spined post-grasp)
            against alpha 0 with pre-grasp and no post-grasp, at the
            percentile targets and bands +-2/3/4 g.

Every report carries an episode mass ledger (heap loss vs placed +
discarded).
"""

from __future__ import annotations

import copy
import math
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict, replace
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

STATUSES = ("placed", "infeasible", "failed_to_grasp")   # of every episode record
REGRASP_MARGIN_G = 5.0     # random grasps under drop + margin are re-grasped
BOOTSTRAP_B = 2000
MODE_WINDOW_BINS = 3            # count_modes' moving-average window
MODE_MIN_HEIGHT_FRAC = 0.15     # its least peak height and prominence,
MODE_MIN_PROMINENCE_FRAC = 0.12  # as fractions of the smoothed maximum


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


def count_modes(hist: Histogram) -> int:
    """Modes of the smoothed histogram: peaks of the MODE_WINDOW_BINS-bin
    moving average with both height and topographic prominence above
    fractions of the smoothed maximum, so Poisson zigzag in adjacent bins
    does not count as structure."""
    from scipy.signal import find_peaks
    padded = np.concatenate([[0.0], np.asarray(hist.counts(), dtype=float), [0.0]])
    s = np.convolve(padded, np.ones(MODE_WINDOW_BINS) / MODE_WINDOW_BINS, mode="same")
    top = s.max()
    if top <= 0:
        return 0
    peaks, _ = find_peaks(s, height=MODE_MIN_HEIGHT_FRAC * top,
                          prominence=MODE_MIN_PROMINENCE_FRAC * top)
    return int(len(peaks))


# ---------------------------------------------------------------------------
# episodes: fn(sim_cfg, model, heap, rng_seed, cell value, lattice, before,
#              **arm kwargs)
# ---------------------------------------------------------------------------

def _selection_episode(sim_cfg, model, heap, rng_seed, target, alpha, lattice, before,
                       **episode_kw):
    """One target-mass pick with retries (TABLE4 and `run_episode_batch`);
    `lattice` is the scoring of `heap` for the first pick, `before` its
    total mass, `episode_kw` are EpisodeConfig fields."""
    rng = np.random.default_rng(rng_seed)
    cfg = EpisodeConfig.default(sim_cfg, **episode_kw)
    r = pipeline.run_inference_episode(model, heap, target, alpha, cfg, rng, lattice)
    imbalance = before - total_mass(heap) - r.placed_g - r.discarded_g
    return {"status": r.status, "grasped": r.grasped_initial, "final": r.final_mass,
            "retries": r.retries, "imbalance": imbalance, "events": r.events,
            "chosen": r.chosen, "predicted": r.predicted}


def _table1_episode(sim_cfg, model, heap, rng_seed, target, alpha, lattice, before):
    """Selection study episode: single pick off the heap's scoring, no
    retry, success judged on the grasped mass itself."""
    rng = np.random.default_rng(rng_seed)
    sel = pick_grasp(lattice, SelectionConfig(target_mass_g=target, alpha=alpha))
    if sel is None:
        return {"status": "infeasible", "imbalance": 0.0}
    apply_pregrasp(heap, sel.x, sel.y, sel.z_cm, rng, sim_cfg)
    outcome = execute_grasp(heap, sel.x, sel.y, sel.z_cm, rng, sim_cfg)
    imbalance = before - total_mass(heap) - outcome.grasped_mass
    return {"status": "placed", "grasped": outcome.grasped_mass, "imbalance": imbalance}


# ---------------------------------------------------------------------------
# episode indices: fn(sim_config, model, arms, cell values, heap seed, ops seed)
# -> every arm x cell's result, arm-major
# ---------------------------------------------------------------------------

def _run_index(episode, sim_config, model, arms, values, heap_seed, ops_seed):
    """Every arm x cell of one episode index, arm-major: one heap build, and
    each arm x cell on a fresh heap with a fresh generator on the same ops
    seed. Every arm x cell but the last gets a copy; the last takes the
    built heap itself, which nothing reads after it. The fresh heap is
    scored and weighed once, and each episode gets that ``lattice`` and
    total mass ``before``: scoring reads neither the target nor alpha, and
    every copy is bitwise the built heap."""
    heap = init_heap(sim_config, heap_seed)
    lattice = _score_lattice(model, heap, sim_config.clearance_mm)
    before = total_mass(heap)
    jobs = [(kw, value) for kw in arms for value in values]
    return [episode(sim_config, model, heap if i == len(jobs) - 1 else heap.copy(), ops_seed,
                    value, lattice=lattice, before=before, **kw)
            for i, (kw, value) in enumerate(jobs)]


def _postgrasp_error(outcome, drop_g, spines, rng, sim_cfg) -> float:
    """Post-grasp a grasp down by `drop_g`; |final - target| in grams."""
    target = outcome.grasped_mass - drop_g
    load = make_gripper_load(outcome, sim_cfg.postgrasp, spines)
    scale = ScaleState(params=sim_cfg.scale)
    final, _ = pipeline.run_postgrasp(load, target, scale, sim_cfg.postgrasp, rng)
    return abs(final - target)


def _random_grasp_index(sim_config, model, arms, values, heap_seed, ops_seed):
    """Every arm x drop of one TABLE2/TABLE3 index, arm-major: random grasps
    (re-grasping loads under drop + REGRASP_MARGIN_G, 30 attempts at most),
    then the drop by post-grasping. The model is not used.

    Each arm x drop starts from the same heap and ops seed, so arms that
    share a `pregrasp` flag make the same grasps until one falls short of a
    drop's threshold. One grasp sequence runs per flag (the last on the
    built heap, any other on a copy). Each attempt ends every pending drop
    that it meets, and each arm of that drop post-grasps on its own copy of
    the generator; the drops still pending release the load and grasp
    again. The results equal one fresh heap and generator per arm x drop,
    bit for bit. The built heap is weighed once for every sequence's
    ledger, since each copy is bitwise the built heap."""
    heap = init_heap(sim_config, heap_seed)
    before = total_mass(heap)
    flags = list(dict.fromkeys(kw["pregrasp"] for kw in arms))
    results = {}
    for f, pregrasp in enumerate(flags):
        grasp_heap = heap if f == len(flags) - 1 else heap.copy()
        rng = np.random.default_rng(ops_seed)
        group = [a for a, kw in enumerate(arms) if kw["pregrasp"] == pregrasp]
        pending = list(range(len(values)))
        for retries in range(30):
            x, y, z = pipeline._random_grasp_point(grasp_heap, Z_POOL_DEEP, rng, sim_config)
            if pregrasp:
                apply_pregrasp(grasp_heap, x, y, z, rng, sim_config)
            outcome = execute_grasp(grasp_heap, x, y, z, rng, sim_config)
            met = [j for j in pending if outcome.grasped_mass >= values[j] + REGRASP_MARGIN_G]
            if met:
                imbalance = before - total_mass(grasp_heap) - outcome.grasped_mass
            for j in met:
                pending.remove(j)
                for a in group:
                    err = _postgrasp_error(outcome, values[j], arms[a]["spines"],
                                           copy.deepcopy(rng), sim_config)
                    results[a, j] = {"status": "placed", "retries": retries, "err": err,
                                     "imbalance": imbalance}
            if not pending:
                break
            release_mass(grasp_heap, x, y, outcome.grasped_mass, sim_config)
        for j in pending:
            for a in group:
                results[a, j] = {"status": "failed_to_grasp", "retries": 30, "imbalance": 0.0}
    return [results[a, j] for a in range(len(arms)) for j in range(len(values))]


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
    arms: tuple                # (label, episode kwargs); the first is the reference
    targets: tuple | None      # percentiles of training masses, or None for drops
    bands: tuple
    drops_g: tuple | None      # the cells when targets is None
    index: Callable            # every arm x cell of one episode index
    metric: str
    success: Callable          # (placed record, cell value, band) -> bool
    regrasp: bool              # report the share of re-grasped episodes per cell


def _random_grasp_study(flag: str, bands: tuple, drops_g: tuple, **fixed) -> Study:
    """A random-grasp study of one episode flag off and on, the others fixed."""
    arms = tuple((f"{flag}={'on' if v else 'off'}", {**fixed, flag: v}) for v in (False, True))
    return Study(arms, None, bands, drops_g, _random_grasp_index,
                 "final_within_band_of_drop_target",
                 lambda r, drop, band: r["err"] <= band, True)


STUDIES = {
    "TABLE1": Study(tuple((f"alpha={a:g}", {"alpha": a}) for a in (0.0, 1.0)),
                    (10, 50, 70), (), None, partial(_run_index, _table1_episode),
                    "grasped_above_target_minus_2g",
                    lambda r, target, band: r["grasped"] > target - 2.0, False),
    "TABLE2": _random_grasp_study("pregrasp", (2.0,), (3.0, 4.0, 5.0, 10.0, 15.0), spines=True),
    "TABLE3": _random_grasp_study("spines", (2.0, 3.0, 4.0, 5.0), (10.0,), pregrasp=True),
    # the inference episode always pre-grasps and always uses the spines
    "TABLE4": Study((("baseline", {"alpha": 0.0, "use_postgrasp": False}),
                     ("ours", {"alpha": 1.0})),
                    (10, 50, 70), (2.0, 3.0, 4.0), None, partial(_run_index, _selection_episode),
                    "final_within_band",
                    lambda r, target, band: abs(r["final"] - target) <= band, True),
}
PRESET_NAMES = tuple(STUDIES)


@dataclass
class ExperimentPreset:
    """One run of a study of ``STUDIES``. The row fixes the arms, the bands
    and the kind of cell; the preset gives the cells of that kind (the
    row's own when left None), the episodes per cell and the seed."""
    name: str                       # a study of STUDIES, upper-cased when built
    targets: tuple | None = None    # percentiles of training masses
    episodes: int = 200
    seed: int = 20240601
    drops_g: tuple | None = None    # the cells of a drop-based study

    def __post_init__(self):
        self.name = self.name.upper()
        if self.name not in STUDIES:
            raise ValueError(f"unknown preset {self.name!r}; available: {', '.join(STUDIES)}")
        study = STUDIES[self.name]
        if self.episodes < 30:
            raise ValueError("need at least 30 episodes per cell")
        cells, other = ("targets", "drops_g") if study.targets else ("drops_g", "targets")
        if getattr(self, other) is not None:
            raise ValueError(f"ExperimentPreset.{other}: {self.name} takes {cells}, "
                             f"got {other}={getattr(self, other)!r}")
        if getattr(self, cells) is None:
            setattr(self, cells, getattr(study, cells))
        if not getattr(self, cells):
            raise ValueError(f"ExperimentPreset.{cells}: {self.name} needs at least one cell")
        if self.targets is not None and any(not 0 < p < 100 for p in self.targets):
            raise ValueError("percentiles must lie in (0, 100)")


def preset(name: str, episodes: int = 200, seed: int = 20240601,
           drops_g: tuple | None = None) -> ExperimentPreset:
    """The preset of a study of ``STUDIES`` by name; `drops_g` replaces the
    drops of the drop-based studies and is ignored by the others."""
    p = ExperimentPreset(name, episodes=episodes, seed=seed)
    return replace(p, drops_g=drops_g) if drops_g and p.drops_g else p


def _targets_from_model(model: mdn.ModelParams, percentiles) -> list:
    masses = model.training_log.get("train_masses_g")
    if not masses:
        raise ValueError("training_log.train_masses_g is missing or empty, and the "
                         "percentile targets need it; retrain or pass a model "
                         "produced by train()")
    return [nearest_rank_percentile(masses, p) for p in percentiles]


def _ledger(imbalances) -> dict:
    """The mass ledger of a run's episodes: the largest and the summed
    heap loss less placed and discarded mass."""
    return {"max_abs_imbalance_g": max((abs(i) for i in imbalances), default=0.0),
            "cumulative_imbalance_g": float(math.fsum(imbalances))}


def run_experiment(preset_obj: ExperimentPreset, sim_config: SimConfig,
                   model: mdn.ModelParams | None = None,
                   workers: int = 1) -> BootstrapReport:
    """Run every arm x cell of a study preset and bootstrap one success rate
    per band, and one paired difference per band of each later arm against
    the first. Cells are percentile targets (which need the model), or the
    preset's drops when it has no targets. Episode indices are the unit of
    work, and of the `workers` map."""
    name = preset_obj.name
    study = STUDIES[name]
    percentiles = preset_obj.targets
    if percentiles is None:
        cell_values = [(drop, drop) for drop in preset_obj.drops_g]
    elif model is None:
        raise ValueError(f"{name} needs a trained model")
    else:
        cell_values = list(zip(percentiles, _targets_from_model(model, percentiles)))

    seeds = _episode_seeds(_cell_seed(preset_obj.seed, name), preset_obj.episodes)
    index = partial(study.index, sim_config, model, tuple(kw for _, kw in study.arms),
                    tuple(v for _, v in cell_values))
    # per-index lists of arm-major results, transposed into arm x cell columns
    columns = iter(zip(*_map_episodes(index, seeds, workers)))

    cells, paired, regrasp, imbalances = [], [], [], []
    counts = {"episodes": 0, **dict.fromkeys(STATUSES[1:], 0)}
    boot_seed = preset_obj.seed + 104729
    bands = study.bands or (None,)
    wins = {}
    for label, _ in study.arms:
        for part, value in cell_values:
            results = next(columns)
            for band in bands:
                wins[label, part, band] = np.array(
                    [1.0 if r["status"] == "placed" and study.success(r, value, band) else 0.0
                     for r in results])
                mean, std = bootstrap(wins[label, part, band], BOOTSTRAP_B, boot_seed)
                cells.append({"arm": label, "target_g": value,
                              **({} if percentiles is None else {"percentile": part}),
                              "band_g": band, "metric": study.metric,
                              "mean_pct": mean, "std_pct": std})
            if study.regrasp:
                rate = 100.0 * sum(1 for r in results if r["retries"] > 0) / len(results)
                regrasp.append({"arm": label, "target_g": value, "rate_pct": rate})
            counts["episodes"] += len(results)
            for status in STATUSES[1:]:
                counts[status] += sum(1 for r in results if r["status"] == status)
            imbalances.extend(r["imbalance"] for r in results)

    # the arms share episode index i, so resampling per-index differences
    # is the paired bootstrap over indices
    first = study.arms[0][0]
    for label, _ in study.arms[1:]:
        for part, value in cell_values:
            for band in bands:
                mean, std = bootstrap(wins[label, part, band] - wins[first, part, band],
                                      BOOTSTRAP_B, boot_seed)
                paired.append({"difference": f"{label} - {first}", "target_g": value,
                               **({} if percentiles is None else {"percentile": part}),
                               "band_g": band, "metric": study.metric,
                               "mean_pp": mean, "std_pp": std})

    return BootstrapReport(preset=name, cells=cells, paired=paired, regrasp=regrasp,
                           seeds={"root": preset_obj.seed, "bootstrap": boot_seed},
                           ledger={"episodes": counts["episodes"], **_ledger(imbalances)},
                           counts=counts)


def run_episode_batch(sim_config: SimConfig, model: mdn.ModelParams, target: float,
                      alpha: float, episodes: int, seed: int, workers: int = 1,
                      trace: bool = True) -> tuple:
    """Independent seeded episodes at one (target, alpha), each on its own
    heap: one arm x one cell of the study runner; returns the summary dict
    and JSON-lines trace records."""
    index = partial(_run_index, _selection_episode, sim_config, model,
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
            **{s: sum(1 for r in results if r["status"] == s) for s in STATUSES},
            "regrasped": sum(1 for r in results if r["retries"] > 0),
        },
        "ledger": _ledger([r["imbalance"] for r in results]),
        "seeds": {"root": seed},
    }
    traces = [{"episode": i, **event} for i, r in enumerate(results) for event in r["events"]]
    return summary, traces


def _cell_seed(root: int, *parts) -> int:
    h = 0
    for part in parts:
        h = zlib.crc32(str(part).encode(), h)
    return (root * 2 ** 32 + h) % (2 ** 63)

