import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entpick import experiments as ex
from entpick import cli, mdn, pipeline, select, sim
from entpick.experiments import REGRASP_MARGIN_G
from entpick.sim import (ScaleState, Z_POOL_DEEP, apply_pregrasp, execute_grasp,
                         make_gripper_load, release_mass, total_mass)


def dataset_of(masses, split="train"):
    rows = [mdn.DataRow(np.zeros((2, 2), np.int16), 2.0, m, split) for m in masses]
    return mdn.Dataset(rows)


# ---------------------------------------------------------------- percentiles

def test_nearest_rank_hand_case():
    assert ex.nearest_rank_percentile(list(range(1, 101)), 50) == 50.0
    assert ex.nearest_rank_percentile(list(range(1, 101)), 10) == 10.0
    assert ex.nearest_rank_percentile(list(range(1, 101)), 70) == 70.0


def test_percentile_constant_dataset():
    assert [ex.nearest_rank_percentile([10.0] * 20, p) for p in (10, 50, 70)] == [10.0] * 3


def test_percentile_empty_errors():
    with pytest.raises(ValueError):
        ex.nearest_rank_percentile([], 50)


# ---------------------------------------------------------------- success rate

def test_success_rate_hand_count():
    assert ex.success_rate([20.0, 22.0, 25.0], 22.0, 2.0) == pytest.approx(2 / 3)


def test_success_rate_all_exact():
    for band in (2.0, 3.0, 4.0):
        assert ex.success_rate([22.0] * 5, 22.0, band) == 1.0


def test_success_rate_empty_errors():
    with pytest.raises(ValueError):
        ex.success_rate([], 22.0, 2.0)


@given(st.lists(st.floats(0, 60), min_size=1, max_size=50), st.floats(5, 50))
@settings(max_examples=60, deadline=None)
def test_band_monotonicity(finals, target):
    r2 = ex.success_rate(finals, target, 2.0)
    r3 = ex.success_rate(finals, target, 3.0)
    r4 = ex.success_rate(finals, target, 4.0)
    assert r2 <= r3 <= r4


# ---------------------------------------------------------------- bootstrap

def test_bootstrap_matches_binomial():
    successes = [1] * 88 + [0] * 12
    mean, std = ex.bootstrap(successes, 10_000, seed=3)
    assert mean == pytest.approx(88.0, abs=0.5)
    assert std == pytest.approx(100 * math.sqrt(0.88 * 0.12 / 100), abs=0.5)


def test_bootstrap_degenerate_all_successes():
    mean, std = ex.bootstrap([1] * 40, 2000, seed=1)
    assert (mean, std) == (100.0, 0.0)


def test_bootstrap_deterministic():
    outcomes = [1, 0, 1, 1, 0, 1]
    assert ex.bootstrap(outcomes, 2000, seed=9) == ex.bootstrap(outcomes, 2000, seed=9)


def test_bootstrap_preconditions():
    with pytest.raises(ValueError):
        ex.bootstrap([], 2000, seed=1)
    with pytest.raises(ValueError):
        ex.bootstrap([1, 0], 500, seed=1)


def test_bootstrap_unbiased_on_bernoulli():
    rng = np.random.default_rng(5)
    sample = (rng.random(100) < 0.7).astype(int)
    mean, _ = ex.bootstrap(sample, 10_000, seed=2)
    assert abs(mean - 100 * sample.mean()) < 0.1


# ---------------------------------------------------------------- histogram

def test_histogram_counts_sum_to_rows():
    ds = dataset_of([1.0, 3.5, 7.2, 7.9, 30.0])
    hist = ex.mass_histogram(ds, 2.0)
    assert sum(hist.counts()) == 5


def test_histogram_bin_width_validated():
    with pytest.raises(ValueError):
        ex.mass_histogram(dataset_of([1.0]), 0.0)


def test_histogram_bin_edges():
    hist = ex.mass_histogram(dataset_of([0.0, 1.9, 2.0, 3.9, 4.0]), 2.0)
    assert hist.counts() == [2, 2, 1]
    assert [b["lo"] for b in hist.bins] == [0.0, 2.0, 4.0]


def test_count_modes_bimodal_vs_unimodal():
    rng = np.random.default_rng(0)
    uni = dataset_of(list(rng.normal(20, 2.5, 150).clip(0)))
    bi = dataset_of(list(np.concatenate([rng.normal(14, 2, 75), rng.normal(30, 2, 75)]).clip(0)))
    assert ex.count_modes(ex.mass_histogram(uni, 2.0)) == 1
    assert ex.count_modes(ex.mass_histogram(bi, 2.0)) == 2


# ---------------------------------------------------------------- presets

def test_preset_names_and_validation():
    assert ex.PRESET_NAMES == tuple(ex.STUDIES)
    for name in ex.PRESET_NAMES:
        p = ex.preset(name.lower(), episodes=30)
        assert p.name == name
        assert p.episodes == 30
        row = ex.STUDIES[name]
        assert (p.targets, p.drops_g) == (row.targets, row.drops_g)
        assert ex.ExperimentPreset(name) == dataclasses.replace(p, episodes=200)
    with pytest.raises(ValueError, match="TABLE9"):
        ex.preset("TABLE9")
    with pytest.raises(ValueError, match="at least 30 episodes"):
        ex.ExperimentPreset("TABLE1", episodes=10)
    with pytest.raises(ValueError, match="percentiles"):
        ex.ExperimentPreset("TABLE1", targets=(0, 50))
    with pytest.raises(ValueError, match="ExperimentPreset.drops_g: TABLE3 needs at least one"):
        ex.ExperimentPreset("TABLE3", drops_g=())
    with pytest.raises(ValueError, match="ExperimentPreset.targets: TABLE4 needs at least one"):
        ex.ExperimentPreset("TABLE4", targets=())


def test_preset_cells_of_the_other_kind_are_rejected_when_built():
    """The study's row alone decides whether its cells are percentile
    targets or drops; cells of the other kind are rejected by field when
    the preset is built, not taken silently or met deep in the run."""
    with pytest.raises(ValueError, match=r"ExperimentPreset.targets: TABLE3 takes drops_g, "
                                         r"got targets=\(10, 50, 70\)"):
        ex.ExperimentPreset("TABLE3", targets=(10, 50, 70), episodes=30, drops_g=(10.0,))
    with pytest.raises(ValueError, match=r"ExperimentPreset.drops_g: TABLE1 takes targets, "
                                         r"got drops_g=\(5.0,\)"):
        ex.ExperimentPreset("TABLE1", targets=None, episodes=30, drops_g=(5.0,))
    with pytest.raises(ValueError, match="ExperimentPreset.targets: TABLE2 takes drops_g"):
        dataclasses.replace(ex.preset("TABLE2", episodes=30), targets=(50,))


def test_preset_of_an_unknown_study_is_rejected_when_built():
    with pytest.raises(ValueError, match="unknown preset 'TABLE9'"):
        ex.ExperimentPreset("table9", episodes=30, drops_g=(10.0,))


def test_drops_replace_only_the_drops_of_drop_based_studies():
    assert ex.preset("TABLE2", episodes=30, drops_g=(7.0,)).drops_g == (7.0,)
    assert ex.preset("TABLE3", episodes=30).drops_g == (10.0,)
    assert ex.preset("TABLE4", episodes=30, drops_g=(7.0,)).drops_g is None


def test_run_experiment_requires_model_for_selection_tables(sim_config):
    with pytest.raises(ValueError, match="model"):
        ex.run_experiment(ex.preset("TABLE1", episodes=30), sim_config, None)


def test_table3_report_shape_and_ledger(sim_config):
    report = ex.run_experiment(ex.preset("TABLE3", episodes=30, seed=5), sim_config)
    assert report.preset == "TABLE3"
    assert len(report.cells) == 2 * 4  # two arms x four bands
    for c in report.cells:
        assert 0.0 <= c["mean_pct"] <= 100.0
        assert c["std_pct"] >= 0.0
    assert len(report.regrasp) == 2
    assert report.ledger["max_abs_imbalance_g"] < 1e-6
    # band monotonicity within each arm
    for arm in ("spines=off", "spines=on"):
        rates = [c["mean_pct"] for c in report.cells if c["arm"] == arm]
        assert rates == sorted(rates)


def test_experiment_deterministic(sim_config):
    a = ex.run_experiment(ex.preset("TABLE3", episodes=30, seed=5), sim_config)
    b = ex.run_experiment(ex.preset("TABLE3", episodes=30, seed=5), sim_config)
    assert a.to_dict() == b.to_dict()


def test_workers_do_not_change_results(sim_config):
    a = ex.run_experiment(ex.preset("TABLE3", episodes=30, seed=6), sim_config, workers=1)
    b = ex.run_experiment(ex.preset("TABLE3", episodes=30, seed=6), sim_config, workers=2)
    assert a.to_dict() == b.to_dict()


# ---------------------------------------------------------------- report contract

def test_table1_single_pick_is_never_failed_to_grasp(sim_config, trained_model, monkeypatch):
    grasped = []
    real = ex.execute_grasp

    def spy(*args, **kwargs):
        outcome = real(*args, **kwargs)
        grasped.append(outcome.grasped_mass)
        return outcome

    monkeypatch.setattr(ex, "execute_grasp", spy)
    p = dataclasses.replace(ex.preset("TABLE1", episodes=30, seed=5), targets=(50,))
    report = ex.run_experiment(p, sim_config, trained_model)
    target = report.cells[0]["target_g"]
    assert report.regrasp == []
    # one grasp per feasible episode, never released and retried
    assert len(grasped) == report.counts["episodes"] - report.counts["infeasible"]
    assert any(g <= target - 2.0 for g in grasped)
    assert report.counts["failed_to_grasp"] == 0
    assert [c["arm"] for c in report.cells] == ["alpha=0", "alpha=1"]
    for c in report.cells:
        assert list(c) == ["arm", "target_g", "percentile", "band_g", "metric",
                           "mean_pct", "std_pct"]
        assert c["percentile"] == 50 and c["band_g"] is None


def test_random_grasp_failures_are_counted(sim_config, monkeypatch, tmp_path, capsys):
    # no random grasp on the default tray reaches 70 + 5 g in 30 attempts
    report = ex.run_experiment(ex.preset("TABLE3", episodes=30, seed=5, drops_g=(70.0,)),
                               sim_config)
    assert report.counts == {"episodes": 60, "infeasible": 0, "failed_to_grasp": 60}
    assert [c["mean_pct"] for c in report.cells] == [0.0] * 8
    assert [r["rate_pct"] for r in report.regrasp] == [100.0, 100.0]

    # the CLI reads the same row, and prints the counts after the paired rows
    monkeypatch.setitem(ex.STUDIES, "TABLE3", ex.STUDIES["TABLE3"]._replace(drops_g=(70.0,)))
    out = tmp_path / "t3_70g.json"
    capsys.readouterr()
    assert cli.main(["experiment", "TABLE3", "--episodes", "30", "--seed", "5",
                     "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert json.loads(out.read_text()) == json.loads(json.dumps(report.to_dict()))
    assert lines[-3:] == ["counts: 60 episodes, 0 infeasible, 60 failed to grasp",
                          "  regrasp spines=off     target   70.0: 100.0%",
                          "  regrasp spines=on      target   70.0: 100.0%"]


@pytest.mark.parametrize("name, kwargs", [("TABLE2", {"drops_g": (10.0,)}), ("TABLE3", {})])
def test_random_grasp_reports_count_no_failures(sim_config, name, kwargs):
    p = ex.preset(name, episodes=30, seed=5, **kwargs)
    report = ex.run_experiment(p, sim_config)
    assert report.counts["infeasible"] == report.counts["failed_to_grasp"] == 0
    assert report.counts["episodes"] == 2 * len(p.drops_g) * 30
    assert [r["target_g"] for r in report.regrasp] == list(p.drops_g) * 2
    for c in report.cells:
        assert list(c) == ["arm", "target_g", "band_g", "metric", "mean_pct", "std_pct"]
        assert c["band_g"] in ex.STUDIES[name].bands


def test_workers_do_not_change_selection_results(sim_config, trained_model):
    p = dataclasses.replace(ex.preset("TABLE4", episodes=30, seed=6), targets=(50,))
    a = ex.run_experiment(p, sim_config, trained_model, workers=1)
    b = ex.run_experiment(p, sim_config, trained_model, workers=2)
    assert a.to_dict() == b.to_dict()
    assert [c["percentile"] for c in a.cells] == [50] * 6


# ---------------------------------------------------------------- common random numbers

def test_episode_index_shares_one_heap_and_ops_seed(sim_config, monkeypatch):
    builds = []
    real_init = ex.init_heap

    def counting_init(*args, **kwargs):
        builds.append(args[1])
        return real_init(*args, **kwargs)

    # the heap and generator state of each grasp sequence's first grasp;
    # the generators are kept, so each object is one sequence
    generators, starts = [], []
    real_point = pipeline._random_grasp_point

    def recording_point(heap, zpool, rng, cfg):
        if not any(rng is g for g in generators):
            generators.append(rng)
            starts.append((heap.state_digest(), rng.bit_generator.state))
        return real_point(heap, zpool, rng, cfg)

    monkeypatch.setattr(ex, "init_heap", counting_init)
    monkeypatch.setattr(pipeline, "_random_grasp_point", recording_point)
    p = ex.preset("TABLE3", episodes=30, seed=5)
    ex.run_experiment(p, sim_config)
    assert len(builds) == 30
    seeds = ex._episode_seeds(ex._cell_seed(p.seed, p.name), p.episodes)
    assert builds == [hs for hs, _ in seeds]
    # both arms pre-grasp: one sequence per index, on the built heap and a
    # fresh generator on the index's ops seed
    assert len(starts) == 30
    for (digest, state), (heap_seed, ops_seed) in zip(starts, seeds):
        assert digest == real_init(sim_config, heap_seed).state_digest()
        assert state == np.random.default_rng(ops_seed).bit_generator.state
    assert len({d for d, _ in starts}) == 30


def test_episode_index_copies_all_but_the_last_heap(sim_config, trained_model, monkeypatch):
    copies, builds = [], []
    real_copy, real_init = sim.HeapState.copy, ex.init_heap

    def counting_copy(heap):
        copies.append(heap)
        return real_copy(heap)

    def recording_init(*args, **kwargs):
        builds.append(real_init(*args, **kwargs))
        return builds[-1]

    monkeypatch.setattr(sim.HeapState, "copy", counting_copy)
    monkeypatch.setattr(ex, "init_heap", recording_init)
    starts = []

    def recording_episode(sim_cfg, model, heap, rng_seed, value, **kw):
        starts.append((heap, heap.state_digest()))
        sim.execute_grasp(heap, 200, 150, 2.0, np.random.default_rng(rng_seed), sim_cfg)
        return value

    arms = ({"spines": False}, {"spines": True})
    values = (10.0, 20.0, 30.0)
    assert ex._run_index(recording_episode, sim_config, trained_model, arms, values,
                         4, 5) == list(values) * 2
    # 2 arms x 3 cells: five copies, then the built heap itself
    assert len(copies) == 5 and len(builds) == 1
    assert [h for h, _ in starts][-1] is builds[0]
    assert len({id(h) for h, _ in starts}) == 6
    assert len({d for _, d in starts}) == 1

    # one arm x one cell: `entpick run` copies no heap
    copies.clear()
    summary, _ = ex.run_episode_batch(sim_config, trained_model, 20.0, 1.0, 4, seed=3)
    assert copies == [] and summary["episodes"] == 4


def _reference_report(p, sim_config, model):
    """The preset's cells, regrasp rows and counts from a loop that builds
    the heap again from the shared seeds for every arm x cell and selects
    with select_grasp."""
    seeds = ex._episode_seeds(ex._cell_seed(p.seed, p.name), p.episodes)
    targets = ex._targets_from_model(model, p.targets)
    boot_seed = p.seed + 104729
    cells, regrasp = [], []
    counts = {"episodes": 0, "infeasible": 0, "failed_to_grasp": 0}
    study = ex.STUDIES[p.name]
    for label, kw in study.arms:
        for part, target in zip(p.targets, targets):
            outcomes = []
            for heap_seed, ops_seed in seeds:
                heap = sim.init_heap(sim_config, heap_seed)
                rng = np.random.default_rng(ops_seed)
                if p.name == "TABLE1":
                    sel = select.select_grasp(
                        model, heap, select.SelectionConfig(target, kw["alpha"]),
                        clearance_mm=sim_config.clearance_mm)
                    if sel is None:
                        outcomes.append(("infeasible", 0.0, 0))
                        continue
                    sim.apply_pregrasp(heap, sel.x, sel.y, sel.z_cm, rng, sim_config)
                    g = sim.execute_grasp(heap, sel.x, sel.y, sel.z_cm, rng, sim_config)
                    outcomes.append(("placed", g.grasped_mass, 0))
                else:
                    cfg = pipeline.EpisodeConfig.default(
                        sim_config, **{k: v for k, v in kw.items() if k != "alpha"})
                    r = pipeline.run_inference_episode(model, heap, target, kw["alpha"],
                                                       cfg, rng)
                    outcomes.append((r.status, r.final_mass, r.retries))
            for band in study.bands or (None,):
                if p.name == "TABLE1":
                    wins = [s == "placed" and m > target - 2.0 for s, m, _ in outcomes]
                else:
                    wins = [s == "placed" and abs(m - target) <= band for s, m, _ in outcomes]
                mean, std = ex.bootstrap([float(w) for w in wins], ex.BOOTSTRAP_B, boot_seed)
                cells.append((label, target, part, band, mean, std))
            if p.name == "TABLE4":
                rate = 100.0 * sum(1 for *_, n in outcomes if n > 0) / len(outcomes)
                regrasp.append({"arm": label, "target_g": target, "rate_pct": rate})
            counts["episodes"] += len(outcomes)
            for status in ("infeasible", "failed_to_grasp"):
                counts[status] += sum(1 for s, *_ in outcomes if s == status)
    return cells, regrasp, counts


@pytest.mark.parametrize("name", ["TABLE1", "TABLE4"])
def test_shared_scoring_equals_rescoring_every_arm(sim_config, trained_model, name):
    p = dataclasses.replace(ex.preset(name, episodes=30, seed=8), targets=(50,))
    report = ex.run_experiment(p, sim_config, trained_model)
    cells, regrasp, counts = _reference_report(p, sim_config, trained_model)
    assert [(c["arm"], c["target_g"], c["percentile"], c["band_g"], c["mean_pct"],
             c["std_pct"]) for c in report.cells] == cells
    assert report.regrasp == regrasp
    assert report.counts == counts


def test_episode_batch_equals_reference_loop(sim_config, trained_model):
    # one arm x one cell on the index runner: each episode on its own fresh
    # heap, the first pick off the shared scoring as select_grasp would pick
    target = ex._targets_from_model(trained_model, (50,))[0]
    summary, traces = ex.run_episode_batch(sim_config, trained_model, target, 1.0, 8, seed=3)
    cfg = pipeline.EpisodeConfig.default(sim_config, trace=True)
    events, results = [], []
    for i, (heap_seed, ops_seed) in enumerate(ex._episode_seeds(3, 8)):
        heap = sim.init_heap(sim_config, heap_seed)
        r = pipeline.run_inference_episode(trained_model, heap, target, 1.0, cfg,
                                           np.random.default_rng(ops_seed))
        events.extend({"episode": i, **e} for e in r.events)
        results.append(r)
    assert traces == events
    finals = [r.final_mass if r.status == "placed" else math.inf for r in results]
    assert summary["success"]["band_2g"] == ex.success_rate(finals, target, 2.0)
    assert summary["counts"]["placed"] == sum(r.status == "placed" for r in results)
    assert summary["counts"]["regrasped"] == sum(r.retries > 0 for r in results)


def test_paired_difference_of_identical_arms_is_zero(sim_config, monkeypatch):
    twin = {"pregrasp": True, "spines": True}
    monkeypatch.setitem(ex.STUDIES, "TABLE3", ex.STUDIES["TABLE3"]._replace(
        arms=(("a", twin), ("b", twin)), bands=(2.0, 5.0)))
    report = ex.run_experiment(ex.preset("TABLE3", episodes=30, seed=5), sim_config)
    assert [c["mean_pct"] for c in report.cells[:2]] == [c["mean_pct"] for c in report.cells[2:]]
    assert len(report.paired) == 2
    for row in report.paired:
        assert row["difference"] == "b - a"
        assert row["mean_pp"] == row["std_pp"] == 0.0


def test_paired_rows_are_arm_differences_per_cell_and_band(sim_config):
    report = ex.run_experiment(ex.preset("TABLE2", episodes=30, seed=5, drops_g=(5.0, 10.0)),
                               sim_config)
    assert [(r["target_g"], r["band_g"]) for r in report.paired] == [(5.0, 2.0), (10.0, 2.0)]
    for row in report.paired:
        assert list(row) == ["difference", "target_g", "band_g", "metric", "mean_pp", "std_pp"]
        assert row["difference"] == "pregrasp=on - pregrasp=off"
        on, off = (next(c["mean_pct"] for c in report.cells
                        if c["arm"] == arm and c["target_g"] == row["target_g"])
                   for arm in ("pregrasp=on", "pregrasp=off"))
        # one resampling of the indices serves both arms and their difference
        assert row["mean_pp"] == pytest.approx(on - off, abs=1e-9)


# ---------------------------------------------------------------- one grasp sequence per flag

# The per-episode loop that TABLE2 and TABLE3 ran until one grasp sequence
# served every arm x drop of a pre-grasp flag, kept as the reference.

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
        return {"status": "failed_to_grasp", "retries": 30, "imbalance": 0.0}
    target = outcome.grasped_mass - drop_g
    load = make_gripper_load(outcome, sim_cfg.postgrasp, spines)
    scale = ScaleState(params=sim_cfg.scale)
    final, _ = pipeline.run_postgrasp(load, target, scale, sim_cfg.postgrasp, rng)
    return {"status": "placed", "retries": retries, "err": abs(final - target),
            "imbalance": before - total_mass(heap) - outcome.grasped_mass}


def _reference_index(sim_config, arms, drops, heap_seed, ops_seed):
    """A freshly built heap and a fresh generator per arm x drop, each
    running the whole per-episode loop, arm-major."""
    return [_random_grasp_episode(sim_config, None, sim.init_heap(sim_config, heap_seed),
                                  ops_seed, drop, **kw)
            for kw in arms for drop in drops]


@pytest.mark.parametrize("name, drops, episodes", [
    ("TABLE2", (3.0, 25.0, 40.0), 30),   # re-grasps at every drop but 3 g
    ("TABLE3", (3.0, 25.0, 40.0), 12),
    ("TABLE2", (10.0, 500.0), 2),        # 500 g: 30 failed attempts
    ("TABLE3", (500.0,), 2),
    ("TABLE2", (10.0, 4.0, 10.0), 6),    # a repeated drop
    ("TABLE3", (10.0, 10.0), 6),
])
def test_random_grasp_index_equals_per_episode_loop(sim_config, name, drops, episodes):
    p = ex.preset(name, episodes=30, seed=5, drops_g=drops)
    arms = tuple(kw for _, kw in ex.STUDIES[p.name].arms)
    results = []
    for heap_seed, ops_seed in ex._episode_seeds(ex._cell_seed(p.seed, p.name), 30)[:episodes]:
        got = ex._random_grasp_index(sim_config, None, arms, drops, heap_seed, ops_seed)
        assert got == _reference_index(sim_config, arms, drops, heap_seed, ops_seed)
        results.extend(zip([d for _ in arms for d in drops], got))
    for drop in drops:
        retries = [r["retries"] for d, r in results if d == drop]
        if drop >= 500:
            assert retries == [30] * len(retries)
        elif drop >= 25:
            assert 0 < sum(n > 0 for n in retries) < len(retries)


@pytest.mark.parametrize("name, sequences", [("TABLE2", 2), ("TABLE3", 1)])
def test_random_grasp_index_runs_one_sequence_per_pregrasp_flag(sim_config, monkeypatch,
                                                               name, sequences):
    heaps = []
    real_grasp = ex.execute_grasp

    def recording_grasp(heap, *args):
        heaps.append(heap)
        return real_grasp(heap, *args)

    monkeypatch.setattr(ex, "execute_grasp", recording_grasp)
    p = ex.preset(name, episodes=30, seed=5)
    arms = tuple(kw for _, kw in ex.STUDIES[p.name].arms)
    for heap_seed, ops_seed in ex._episode_seeds(ex._cell_seed(p.seed, p.name), 4):
        heaps.clear()
        results = ex._random_grasp_index(sim_config, None, arms, p.drops_g, heap_seed, ops_seed)
        assert len({id(h) for h in heaps}) == sequences
        # each sequence grasps as often as its longest drop needed
        per_flag = len(results) // sequences
        assert len(heaps) == sum(1 + max(r["retries"] for r in results[i:i + per_flag])
                                 for i in range(0, len(results), per_flag))
