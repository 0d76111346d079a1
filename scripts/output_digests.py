#!/usr/bin/env python3
"""Digests of every seeded output that a behaviour-preserving change must
keep bit-identical: one ``name digest`` line per output, each digest the
first 16 hex digits of a sha256.

Run it on two trees (for example a ``git archive`` of the parent commit and
the working tree) and compare the columns:

    PYTHONPATH=src python scripts/output_digests.py

The outputs:
  - ``model.theta``: the default test model (collection seed 101, model
    seed 7), which the selection outputs below use;
  - ``dataset.units``: the int16 bytes of the 0.05 mm units of every patch
    of that collection, rint(20 h) of a float64 patch of heights (mm) or
    the patch itself when it is stored as int16 units, so two trees that
    store patches differently give equal digests when neither loses a unit;
  - ``features``: the model features of the eval rows of that collection
    (``mdn._dataset_features``, which reads patches as the tree stores
    them), the variant table of its first 8 train rows, and the features of
    the observed patch at every lattice point and depth of the seed-5 heap,
    each under the default ``ModelConfig``; and ``features.offgrid``, the
    features of seeded N(0, 5) mm patches of sides 160 and 150 at
    uniform(1, 4) cm depths, under the default ``ModelConfig`` and under
    ``feature_downsample`` 40. Lattice and off-grid patches go in as
    stacked arrays, which every version of ``features_from_rows`` takes;
  - ``lattice.scores.alternating_trays``: the (mu, sigma) bits of lattice
    scorings on the test model that alternate between a default heap and
    a 170 x 160 heap, each grasped between its scorings, so that constants
    kept for one tray shape can never serve the other unnoticed;
  - ``collect``/``train``: the dataset bytes of ``collect --n 200 --seed
    12345`` and the checkpoint bytes of ``train --seed 3`` on it;
  - ``inspect``: four selection reports on the test model, the last on a
    170 x 160 tray whose lattice is one point, and exit code plus stdout
    with the output directory masked;
  - ``run_episode_batch``: summary and traces at the 50th-percentile
    target, 12 episodes on seed 3, for alpha 0 and 1 with trace on and off;
    and at the 10th percentile, alpha 1, seed 4, on 1 and 2 workers;
  - ``run_experiment``: the TABLE1-4 reports at 30 episodes per cell on
    seeds 5 and 20240601, TABLE2 with drops of 3, 25 and 40 g, which
    re-grasp often, on seed 5, and TABLE3 with a 70 g drop on seed 5, whose
    every random grasp falls short, so its report counts failed grasps;
  - ``perfbench``: the output digest of one unit of each workload.

Takes about a minute on two cores.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import subprocess
import sys
import tempfile

import numpy as np

from entpick import cli, experiments, mdn, pipeline, select, sim

ROOT = pathlib.Path(__file__).resolve().parents[1]
PERFBENCH_SEEDS = {"collect_train": 901, "session": 951, "studies": 801}


def digest(data) -> str:
    if not isinstance(data, bytes):
        data = json.dumps(data, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def emit(name, data):
    print(f"{name} {digest(data)}", flush=True)


def run_cli(*argv) -> tuple:
    """cli.main's exit code and stdout."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main([str(a) for a in argv])
    return code, stdout.getvalue()


def as_units(patch) -> np.ndarray:
    """The 0.05 mm units of a patch, whether stored as heights or units."""
    if patch.dtype == np.int16:
        return patch
    return np.rint(20.0 * patch).astype(np.int16)


def feature_outputs(dataset):
    cfg = mdn.ModelConfig()
    emit("dataset.units.seed101",
         b"".join(as_units(r.patch).astype("<i2").tobytes() for r in dataset.rows))
    feats, _ = mdn._dataset_features(dataset.eval_rows(), cfg)
    emit("features.eval.seed101", feats.tobytes())
    emit("features.variants.seed101.train8",
         mdn._variant_features(dataset.train_rows()[:8], cfg).tobytes())
    heap = sim.init_heap(sim.SimConfig(), seed=5)
    zs = np.array(select.SelectionConfig.z_candidates_cm)
    lattice = [mdn.features_from_rows(np.repeat(sim.observe_patch(heap, x, y).heights[None],
                                                len(zs), axis=0), zs, cfg)
               for x, y in select._lattice_points(heap.tray_mm)]
    emit("features.lattice.seed5", np.concatenate(lattice).tobytes())
    # N(0, 5) mm patches at uniform(1, 4) cm depths, as the gradient check
    # draws them: the depths lie off the 0.005 cm grid, so the capture sums
    # are not whole and their bits depend on the order of summation
    rng = np.random.default_rng(42)
    offgrid = []
    for side in (sim.PATCH_SIDE, mdn.CROP_SIDE):
        patches, depths = rng.normal(0, 5, (20, side, side)), rng.uniform(1, 4, 20)
        for config in (cfg, mdn.ModelConfig(feature_downsample=40)):
            offgrid.append(mdn.features_from_rows(patches, depths, config).tobytes())
    emit("features.offgrid", b"".join(offgrid))


def lattice_outputs(model):
    cfg = sim.SimConfig()
    heaps = (sim.init_heap(cfg, seed=5),
             sim.init_heap(sim.SimConfig(tray_mm=(170, 160, 160)), seed=5))
    rng = np.random.default_rng(6)
    scores = []
    for _ in range(4):
        for heap in heaps:
            _, mu, sigma = select._score_lattice(model, heap, cfg.clearance_mm)
            scores += [mu.tobytes(), sigma.tobytes()]
            w, d, _ = heap.tray_mm
            x = int(rng.integers(sim.PATCH_MARGIN, w - sim.PATCH_MARGIN + 1))
            y = int(rng.integers(sim.PATCH_MARGIN, d - sim.PATCH_MARGIN + 1))
            sim.execute_grasp(heap, x, y, 2.0, rng, cfg)
    emit("lattice.scores.alternating_trays", b"".join(scores))


def cli_outputs(model, tmp):
    data, ckpt = tmp / "data.jsonl", tmp / "model.json"
    assert run_cli("collect", "--n", 200, "--seed", 12345, "--out", data)[0] == 0
    emit("collect.n200.seed12345", data.read_bytes())
    assert run_cli("train", data, "--seed", 3, "--out", ckpt)[0] == 0
    emit("train.seed3", ckpt.read_bytes())

    test_model = tmp / "test_model.json"
    mdn.save_checkpoint(model, test_model)
    one_point = tmp / "tray170x160.json"
    one_point.write_text(json.dumps({"tray_mm": [170, 160, 160]}))
    for target, alpha, seed, config in (("20", "1.0", "0", None), ("33.99", "0.0", "3", None),
                                        ("500", "1.0", "1", None), ("20", "1.0", "0", one_point)):
        name = f"inspect.target{target}.alpha{alpha}.seed{seed}"
        extra = ()
        if config is not None:
            name += f".{config.stem}"
            extra = ("--config", config)
        out = tmp / "inspect.json"
        code, stdout = run_cli("inspect", test_model, "--target", target, "--alpha", alpha,
                               "--seed", seed, "--out", out, *extra)
        emit(f"{name}.report", out.read_bytes())
        emit(f"{name}.exit_stdout", f"exit {code}\n{stdout}".replace(str(tmp), "<out>").encode())


def batch_outputs(sim_cfg, model):
    p10, p50 = experiments._targets_from_model(model, (10, 50))
    for alpha in (0.0, 1.0):
        for trace in (True, False):
            summary, traces = experiments.run_episode_batch(sim_cfg, model, p50, alpha, 12, 3,
                                                            trace=trace)
            name = f"run_episode_batch.alpha{alpha:g}.trace{int(trace)}"
            emit(f"{name}.summary", summary)
            emit(f"{name}.traces", traces)
    for workers in (1, 2):
        summary, traces = experiments.run_episode_batch(sim_cfg, model, p10, 1.0, 12, 4,
                                                        workers=workers)
        emit(f"run_episode_batch.p10.workers{workers}.summary", summary)
        emit(f"run_episode_batch.p10.workers{workers}.traces", traces)


def study_outputs(sim_cfg, model):
    for seed in (5, 20240601):
        for name in experiments.PRESET_NAMES:
            report = experiments.run_experiment(experiments.preset(name, episodes=30, seed=seed),
                                                sim_cfg, model)
            emit(f"run_experiment.{name}.episodes30.seed{seed}", report.to_dict())
    # drops that re-grasp often, so the digest covers the re-grasp path
    report = experiments.run_experiment(
        experiments.preset("TABLE2", episodes=30, seed=5, drops_g=(3.0, 25.0, 40.0)),
        sim_cfg, model)
    emit("run_experiment.TABLE2.drops3-25-40.episodes30.seed5", report.to_dict())
    # a drop no random grasp reaches, so the digest covers the failure counts
    report = experiments.run_experiment(
        experiments.preset("TABLE3", episodes=30, seed=5, drops_g=(70.0,)), sim_cfg, model)
    emit("run_experiment.TABLE3.drop70.episodes30.seed5", report.to_dict())


def perfbench_outputs():
    for workload, seed in PERFBENCH_SEEDS.items():
        out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                              "--seed", str(seed), "--seconds", "1"],
                             cwd=ROOT, capture_output=True, text=True, check=True)
        line = next(ln for ln in out.stdout.splitlines() if ln.startswith("digest "))
        print(f"perfbench.{workload}.seed{seed} {line.split()[1]}", flush=True)


def main():
    sim_cfg = sim.SimConfig()
    dataset = pipeline.run_collection(sim_cfg, 200, seed=101)
    model = mdn.train(dataset, mdn.ModelConfig(seed=7))
    emit("model.theta", model.theta.tobytes())
    feature_outputs(dataset)
    lattice_outputs(model)
    with tempfile.TemporaryDirectory() as tmp:
        cli_outputs(model, pathlib.Path(tmp))
    batch_outputs(sim_cfg, model)
    study_outputs(sim_cfg, model)
    perfbench_outputs()


if __name__ == "__main__":
    main()
