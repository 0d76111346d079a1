import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entpick import experiments as ex
from entpick import mdn, pipeline, select, sim


def dataset_of(masses, split="train"):
    rows = [mdn.DataRow(np.zeros((2, 2)), 2.0, m, split) for m in masses]
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


def test_reference_targets_documented():
    assert ex.REFERENCE_TARGETS_G["imitation_cabbage"] == (22.0, 46.0, 56.0)


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
    for name in ex.PRESET_NAMES:
        p = ex.preset(name, episodes=30)
        assert p.name == name
        assert p.episodes == 30
    with pytest.raises(ValueError):
        ex.preset("TABLE9")
    with pytest.raises(ValueError):
        ex.ExperimentPreset("X", {}, episodes=10)
    with pytest.raises(ValueError):
        ex.ExperimentPreset("X", {}, targets=(0, 50))
    with pytest.raises(ValueError, match="drops_g"):
        ex.ExperimentPreset("X", (), targets=None)


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


@pytest.mark.parametrize("name, kwargs", [("TABLE2", {"drops_g": (10.0,)}), ("TABLE3", {})])
def test_random_grasp_reports_count_no_failures(sim_config, name, kwargs):
    p = ex.preset(name, episodes=30, seed=5, **kwargs)
    report = ex.run_experiment(p, sim_config)
    assert report.counts["infeasible"] == report.counts["failed_to_grasp"] == 0
    assert report.counts["episodes"] == 2 * len(p.drops_g) * 30
    assert [r["target_g"] for r in report.regrasp] == list(p.drops_g) * 2
    for c in report.cells:
        assert list(c) == ["arm", "target_g", "band_g", "metric", "mean_pct", "std_pct"]
        assert c["band_g"] in p.bands


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

    starts = []
    study = ex.STUDIES["TABLE3"]

    def recording_episode(sim_cfg, model, heap, rng_seed, value, **kw):
        starts.append((heap.state_digest(), rng_seed, kw["spines"]))
        return study.episode(sim_cfg, model, heap, rng_seed, value, **kw)

    monkeypatch.setattr(ex, "init_heap", counting_init)
    monkeypatch.setitem(ex.STUDIES, "TABLE3", study._replace(episode=recording_episode))
    p = ex.preset("TABLE3", episodes=30, seed=5)
    ex.run_experiment(p, sim_config)
    assert len(builds) == 30
    seeds = ex._episode_seeds(ex._cell_seed(p.seed, p.name), p.episodes)
    assert builds == [hs for hs, _ in seeds]
    # one index at a time, arm-major within it: spines off, then on
    assert len(starts) == 60
    for i, (heap_seed, ops_seed) in enumerate(seeds):
        off, on = starts[2 * i], starts[2 * i + 1]
        assert (off[2], on[2]) == (False, True)
        assert off[:2] == on[:2]
        assert off[1] == ops_seed
        assert off[0] == real_init(sim_config, heap_seed).state_digest()
    assert len({s[0] for s in starts}) == 30


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
    assert ex._run_index(recording_episode, False, sim_config, None, arms, values,
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
    for label, kw in p.arms:
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
            for band in p.bands or (None,):
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


def test_paired_difference_of_identical_arms_is_zero(sim_config):
    twin = {"pregrasp": True, "spines": True}
    p = ex.ExperimentPreset("TABLE3", arms=(("a", twin), ("b", twin)), targets=None,
                            episodes=30, seed=5, bands=(2.0, 5.0), drops_g=(10.0,))
    report = ex.run_experiment(p, sim_config)
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
