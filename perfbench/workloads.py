"""The three benchmark workloads.

Each workload is a set-up step and a unit of measured work. A run repeats
the unit and reports medians; every repetition of the unit gets the same
inputs, so its output digest must repeat exactly. The program only ever
sees the tray, episode, collection and model seeds derived here from the
workload seed.

  collect_train  ``entpick collect --n 200`` then ``entpick train`` with the
                 default ModelConfig, through ``cli.main`` in-process, then
                 the checkpoint is loaded. Dataset JSONL I/O and training
                 dominate; no selection runs.
  session        one seeded tray picked repeatedly at alpha 1 through
                 ``pipeline.run_inference_episode``, targets cycling over the
                 model's 10/50/70 nearest-rank percentiles, the next seeded
                 tray when a pick ends infeasible. Selection on a heap that
                 every grasp mutates dominates; almost no heaps are built.
  studies        ``experiments.run_experiment`` for TABLE1-4 at reduced
                 episodes per cell: one fresh heap per episode, so heap
                 builds, scoring, post-grasping and bootstrap dominate.

``session`` and ``studies`` need a trained model; collecting and training it
is their set-up.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from entpick import cli, experiments, mdn, pipeline, sim

LEDGER_TOL_G = 1e-9
ALPHA = 1.0
PERCENTILES = (10, 50, 70)


@dataclass(frozen=True)
class Size:
    collect_n: int = 200
    epochs: int | None = None          # None keeps the default ModelConfig
    picks_per_unit: int = 200           # p95 then has ten picks beyond it
    study_episodes: int = 30            # the smallest a preset accepts
    study_targets: tuple | None = None  # None keeps each preset's cells
    study_drops_g: tuple | None = None


FULL = Size()
TINY = Size(collect_n=20, epochs=3, picks_per_unit=12, study_episodes=30,
            study_targets=(50,), study_drops_g=(10.0,))


@dataclass
class Seeds:
    collect: int
    model: int
    tray: int
    ops: int
    study: int

    @classmethod
    def from_workload_seed(cls, seed: int) -> "Seeds":
        words = np.random.SeedSequence(seed).generate_state(5)
        return cls(*(int(w) for w in words))


@dataclass
class Unit:
    """What one repetition of a workload did."""
    wall_s: float
    episodes: int           # collection grasps, picks, or study episodes
    attempted: int
    failed: int
    digest: str
    problems: list          # failed output checks
    pick_ms: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
    return h.hexdigest()[:16]


def _file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def train_model(seeds: Seeds, size: Size, workdir: str) -> mdn.ModelParams:
    """Set-up of session and studies: collect, train, save and reload the
    model, as a user would before picking."""
    sim_cfg = sim.SimConfig()
    dataset = pipeline.run_collection(sim_cfg, size.collect_n, seed=seeds.collect)
    mcfg = mdn.ModelConfig(seed=seeds.model)
    if size.epochs is not None:
        mcfg.epochs = size.epochs
    path = os.path.join(workdir, "model.json")
    mdn.save_checkpoint(mdn.train(dataset, mcfg), path)
    return mdn.load_checkpoint(path)


# ---------------------------------------------------------------------------
# collect_train
# ---------------------------------------------------------------------------

class CollectTrain:
    name = "collect_train"

    def __init__(self, seeds: Seeds, size: Size, workdir: str):
        self.seeds = seeds
        self.size = size
        self.workdir = workdir
        self.model_config = None
        if size.epochs is not None:
            self.model_config = os.path.join(workdir, "model_config.json")
            with open(self.model_config, "w", encoding="utf-8") as f:
                json.dump({"epochs": size.epochs}, f)

    def run_unit(self, rec) -> Unit:
        data = os.path.join(self.workdir, "dataset.jsonl")
        model = os.path.join(self.workdir, "model.json")
        collect = ["collect", "--n", str(self.size.collect_n),
                   "--seed", str(self.seeds.collect), "--out", data]
        train = ["train", data, "--seed", str(self.seeds.model), "--out", model]
        if self.model_config:
            train[2:2] = ["--config", self.model_config]
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            with rec.span("cli.collect"):
                codes = [cli.main(collect)]
            if codes[0] == 0:
                with rec.span("cli.train"):
                    codes.append(cli.main(train))
        params = mdn.load_checkpoint(model) if codes == [0, 0] else None
        wall = time.perf_counter() - t0

        problems = [f"entpick {argv[0]} exited {code}"
                    for argv, code in zip((collect, train), codes) if code != 0]
        digest = ""
        diagnostics = {}
        if params is not None:
            log = params.training_log
            if not log["best_eval_nll"] <= log["epochs"][0]["eval_nll"]:
                problems.append(f"best eval NLL {log['best_eval_nll']} exceeds the "
                                f"epoch-0 eval NLL {log['epochs'][0]['eval_nll']}")
            digest = _digest([_file_digest(data), _file_digest(model)])
            diagnostics = {"dataset_mb": os.path.getsize(data) / 1e6,
                           "best_eval_nll": log["best_eval_nll"],
                           "epoch0_eval_nll": log["epochs"][0]["eval_nll"]}
        failed = sum(code != 0 for code in codes) + (2 - len(codes))
        diagnostics["failed_frac"] = failed / 2
        for path in (data, model):
            if os.path.exists(path):
                os.remove(path)
        return Unit(wall, self.size.collect_n, 2, failed, digest, problems,
                    diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# session
# ---------------------------------------------------------------------------

class Session:
    name = "session"

    def __init__(self, seeds: Seeds, size: Size, workdir: str):
        self.seeds = seeds
        self.size = size
        self.sim_cfg = sim.SimConfig()
        self.cfg = pipeline.EpisodeConfig.default(self.sim_cfg)
        self.model = train_model(seeds, size, workdir)
        masses = self.model.training_log["train_masses_g"]
        self.targets = [experiments.nearest_rank_percentile(masses, p) for p in PERCENTILES]

    def _tray(self, k):
        word = np.random.SeedSequence([self.seeds.tray, k]).generate_state(1)[0]
        return sim.init_heap(self.sim_cfg, int(word))

    def run_unit(self, rec) -> Unit:
        rng = np.random.default_rng(self.seeds.ops)
        t0 = time.perf_counter()
        tray = 0
        heap = self._tray(tray)
        mass = sim.total_mass(heap)
        pick_ms, records, problems = [], [], []
        statuses = {"placed": 0, "infeasible": 0, "failed_to_grasp": 0}
        within_2g = 0
        for i in range(self.size.picks_per_unit):
            target = self.targets[i % len(self.targets)]
            t = time.perf_counter()
            r = pipeline.run_inference_episode(self.model, heap, target, ALPHA, self.cfg, rng)
            pick_ms.append((time.perf_counter() - t) * 1e3)
            after = sim.total_mass(heap)
            imbalance = mass - after - r.placed_g - r.discarded_g
            if not abs(imbalance) <= LEDGER_TOL_G:
                problems.append(f"pick {i}: mass ledger off by {imbalance:.3e} g")
            mass = after
            statuses[r.status] += 1
            within_2g += r.status == "placed" and r.success_band_2g
            records.append((tray, r.status, r.chosen, r.final_mass.hex(),
                            r.discarded_g.hex(), r.retries))
            if r.status == "infeasible":
                tray += 1
                heap = self._tray(tray)
                mass = sim.total_mass(heap)
        wall = time.perf_counter() - t0
        n = self.size.picks_per_unit
        return Unit(wall, n, n, 0, _digest(records), problems, pick_ms, {
            "failed_frac": (statuses["infeasible"] + statuses["failed_to_grasp"]) / n,
            "within_2g_frac": within_2g / n,
            "trays": tray + 1,
            "statuses": statuses,
            "targets_g": self.targets,
        })


# ---------------------------------------------------------------------------
# studies
# ---------------------------------------------------------------------------

class Studies:
    name = "studies"

    def __init__(self, seeds: Seeds, size: Size, workdir: str):
        self.sim_cfg = sim.SimConfig()
        self.model = train_model(seeds, size, workdir)
        self.presets = []
        for name in experiments.PRESET_NAMES:
            p = experiments.preset(name, episodes=size.study_episodes, seed=seeds.study,
                                   drops_g=size.study_drops_g)
            if size.study_targets is not None and p.targets is not None:
                p = dataclasses.replace(p, targets=size.study_targets)
            self.presets.append(p)

    def run_unit(self, rec) -> Unit:
        t0 = time.perf_counter()
        reports = []
        for p in self.presets:
            with rec.span(f"experiments.run_experiment.{p.name}"):
                reports.append(experiments.run_experiment(p, self.sim_cfg, self.model,
                                                          workers=1))
        wall = time.perf_counter() - t0
        problems = []
        episodes = bad = 0
        cells = []
        for rep in reports:
            worst = rep.ledger["max_abs_imbalance_g"]
            if not worst <= LEDGER_TOL_G:
                problems.append(f"{rep.preset}: mass ledger off by {worst:.3e} g")
            episodes += rep.counts["episodes"]
            bad += rep.counts.get("infeasible", 0) + rep.counts.get("failed_to_grasp", 0)
            cells += [(rep.preset, c["arm"], round(c["target_g"], 3), c["band_g"],
                       round(c["mean_pct"], 2)) for c in rep.cells]
        digest = _digest(json.dumps(r.to_dict(), sort_keys=True) for r in reports)
        return Unit(wall, episodes, episodes, 0, digest, problems, diagnostics={
            "failed_frac": bad / episodes if episodes else math.nan,
            "cells": cells,
        })


WORKLOADS = {w.name: w for w in (CollectTrain, Session, Studies)}
