#!/usr/bin/env python3
"""Calibration diagnostics for the default simulator configuration.

Prints the collected-mass distribution, model fit quality, fresh-heap
prediction bias and histogram mode counts. Run after touching simulator
defaults; `entpick experiment` and `scripts/run_studies.py` run the studies.
"""

import argparse
import time

import numpy as np

from entpick import experiments as ex
from entpick import mdn, pipeline, select, sim
from entpick.sim import PatchObservation


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=101)
    args = ap.parse_args()

    cfg = sim.SimConfig()
    t0 = time.perf_counter()
    ds = pipeline.run_collection(cfg, 200, seed=args.seed)
    masses = np.array(ds.masses())
    print("collect 200: %.1fs  pcts10/50/70 %s  std %.1f  min %.1f max %.1f"
          % (time.perf_counter() - t0, np.percentile(masses, [10, 50, 70]).round(1),
             masses.std(), masses.min(), masses.max()))

    t0 = time.perf_counter()
    model = mdn.train(ds, mdn.ModelConfig(seed=7))
    errs, sigs = [], []
    for r in ds.eval_rows():
        obs = PatchObservation(r.patch / mdn.UNITS_PER_MM, r.z_cm)
        mu, s = mdn.mixture_moments(mdn.mdn_forward(model, obs))
        errs.append(r.mass_g - mu)
        sigs.append(s)
    print("train: %.1fs  eval resid std %.2f  sigma_hat %.2f"
          % (time.perf_counter() - t0, np.std(errs), np.mean(sigs)))

    rng = np.random.default_rng(0)
    biases = []
    for i in range(120):
        heap = sim.init_heap(cfg, 50_000 + i)
        x = int(rng.integers(80, 345))
        y = int(rng.integers(80, 229))
        z = float(rng.choice([2.0, 3.0, 4.0]))
        if not sim.clears_floor(sim.local_median_height(heap, x, y), z, cfg.clearance_mm):
            continue
        mu, _ = select.score_candidate(model, heap, x, y, z)
        sim.apply_pregrasp(heap, x, y, z, rng, cfg)
        out = sim.execute_grasp(heap, x, y, z, rng, cfg)
        biases.append(out.grasped_mass - mu)
    print("fresh-heap bias: mean %.2f std %.2f" % (np.mean(biases), np.std(biases)))

    hist = ex.mass_histogram(ds, 2.0, split="train")
    ds1 = pipeline.run_collection(cfg, 200, zpool=(3.0,), seed=args.seed)
    hist1 = ex.mass_histogram(ds1, 2.0, split="train")
    print("modes: multi-z %d  single-z %d" % (ex.count_modes(hist), ex.count_modes(hist1)))


if __name__ == "__main__":
    main()
