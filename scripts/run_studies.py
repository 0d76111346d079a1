#!/usr/bin/env python3
"""The paper's pipeline end to end, each command in a fresh
``python -m entpick.cli`` writing into one output directory: ``collect
--n 200``, ``train --seed 7``, ``experiment HISTOGRAM``, ``collect --n 200
--zpool 3`` (grasps at 3 cm only), ``experiment TABLE1``-``TABLE4`` and
``run <model> --target 30 --episodes 40``.

    PYTHONPATH=src python scripts/run_studies.py --seed 101 --episodes 30 --out studies

Then it prints, read from the run's own files and ``getrusage(RUSAGE_CHILDREN)``:
  - the paired rows of all four studies as one table, each prefixed by its study;
  - each command's wall time, minor faults and system time, after a bare
    ``import entpick.cli, entpick.experiments``, the floor every command pays;
  - calibration diagnostics: the collected-mass distribution, the eval
    residual std against the mean sigma, the bias at 120 random grasps on
    fresh heaps, and the mode counts of the two collections' histograms.
It checks no number.
"""

import argparse
import json
import os
import pathlib
import resource
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np

from entpick import cli, experiments, mdn, select, sim

PRESETS = ("TABLE1", "TABLE2", "TABLE3", "TABLE4")


def child(*argv) -> tuple:
    """Wall seconds, minor faults and system seconds of ``python argv``."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *map(str, argv)], check=True)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return wall, after.ru_minflt - before.ru_minflt, after.ru_stime - before.ru_stime


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="studies")
    ap.add_argument("--seed", type=int, default=20240601)
    ap.add_argument("--episodes", type=int, default=200)
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args()

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dataset = out / "dataset.jsonl"
    model = out / "model.json"
    commands = {
        "collect": ("collect", "--n", 200, "--seed", args.seed, "--out", dataset),
        "train": ("train", dataset, "--seed", 7, "--out", model),
        "HISTOGRAM": ("experiment", "HISTOGRAM", "--n", 200, "--seed", args.seed,
                      "--out", out / "histogram.json"),
        "collect z3": ("collect", "--n", 200, "--zpool", 3, "--seed", args.seed,
                       "--out", out / "dataset_z3.jsonl"),
    }
    for preset in PRESETS:
        commands[preset] = ("experiment", preset,
                            *([model] if preset in ("TABLE1", "TABLE4") else []),
                            "--episodes", args.episodes, "--seed", args.seed,
                            "--workers", args.workers, "--out", out / f"{preset.lower()}.json")
    commands["run"] = ("run", model, "--target", 30, "--episodes", 40, "--seed", args.seed,
                       "--workers", args.workers, "--out", out / "run")

    costs = {"import": child("-c", "import entpick.cli, entpick.experiments")}
    for name, argv in commands.items():
        print("+", " ".join(map(str, argv)), flush=True)
        costs[name] = child("-m", "entpick.cli", *argv)
    print(f"\nall reports in {out}/")
    print_paired_table(out)
    print(f"\n{'command':<10} {'wall_s':>7} {'minflt':>8} {'sys_s':>6}   ({os.cpu_count()} cores)")
    for name, (wall, faults, sys_s) in costs.items():
        print(f"{name:<10} {wall:7.2f} {faults:8d} {sys_s:6.2f}")
    print_calibration(out)


def print_paired_table(out):
    """The paired rows of the four study reports in ``out`` as one table,
    each difference prefixed by its study."""
    paired = []
    for preset in PRESETS:
        with open(out / f"{preset.lower()}.json", encoding="utf-8") as f:
            paired += [{**row, "difference": f"{preset} {row['difference']}"}
                       for row in json.load(f)["paired"]]
    print("paired differences:")
    cli.print_paired(SimpleNamespace(paired=paired))


def print_calibration(out):
    """Calibration diagnostics of the default simulator, read from the
    datasets, model and histogram in ``out``."""
    ds = mdn.Dataset.from_jsonl(out / "dataset.jsonl")
    masses = np.array(ds.masses())
    print("\ncalibration of the default simulator:")
    print("  dataset.jsonl masses: pcts10/50/70 %s  std %.1f  min %.1f max %.1f"
          % (np.percentile(masses, [10, 50, 70]).round(1), masses.std(), masses.min(),
             masses.max()))

    model = mdn.load_checkpoint(out / "model.json")
    errs, sigs = [], []
    for r in ds.eval_rows():
        obs = sim.PatchObservation(r.patch / mdn.UNITS_PER_MM, r.z_cm)
        mu, s = mdn.mixture_moments(mdn.mdn_forward(model, obs))
        errs.append(r.mass_g - mu)
        sigs.append(s)
    print("  model.json: eval resid std %.2f  sigma_hat %.2f" % (np.std(errs), np.mean(sigs)))

    # grasps at random clear points of fresh heaps, the kind the studies pick on
    cfg = sim.SimConfig()
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
        biases.append(sim.execute_grasp(heap, x, y, z, rng, cfg).grasped_mass - mu)
    print("  fresh-heap bias: mean %.2f std %.2f" % (np.mean(biases), np.std(biases)))

    with open(out / "histogram.json", encoding="utf-8") as f:
        multi = json.load(f)["modes"]
    single = experiments.count_modes(experiments.mass_histogram(
        mdn.Dataset.from_jsonl(out / "dataset_z3.jsonl"), 2.0, split="train"))
    print("  modes: multi-z %d  single-z %d" % (multi, single))


if __name__ == "__main__":
    main()
