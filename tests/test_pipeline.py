import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entpick import mdn, pipeline, sim
from entpick.pipeline import ControllerConfig, EpisodeConfig
from entpick.select import SelectedGrasp
from entpick.sim import GraspOutcome, GripperLoad, ScaleState


# ---------------------------------------------------------------- controller

def test_controller_endpoints_and_midpoint():
    cfg = ControllerConfig(v_min=0.5, v_max=2.0)
    assert pipeline.controller_speed(30.0, 22.0, 30.0, cfg) == 2.0
    assert pipeline.controller_speed(24.0, 22.0, 30.0, cfg) == 0.5
    assert pipeline.controller_speed(27.0, 22.0, 30.0, cfg) == pytest.approx(1.25)


def test_controller_precondition_errors():
    cfg = ControllerConfig()
    with pytest.raises(ValueError):
        pipeline.controller_speed(31.0, 22.0, 30.0, cfg)   # current > start
    with pytest.raises(ValueError):
        pipeline.controller_speed(-1.0, 22.0, 30.0, cfg)   # current < 0
    with pytest.raises(ValueError):
        pipeline.controller_speed(23.0, 22.0, 23.5, cfg)   # start <= target + band


@given(st.floats(0.0, 1.0), st.floats(5.0, 50.0), st.floats(0.1, 30.0))
@settings(max_examples=100, deadline=None)
def test_controller_bounded_and_monotone(frac, target, excess):
    cfg = ControllerConfig(v_min=0.5, v_max=2.0)
    start = target + cfg.stop_band_g + excess
    floor = target + cfg.stop_band_g
    current = floor + frac * (start - floor)
    v = pipeline.controller_speed(current, target, start, cfg)
    assert cfg.v_min <= v <= cfg.v_max
    lower = pipeline.controller_speed(max(floor, current - 0.5 * excess), target, start, cfg)
    assert lower <= v + 1e-12


# ---------------------------------------------------------------- run_postgrasp

def test_postgrasp_skips_when_within_band():
    cfg = ControllerConfig()
    load = GripperLoad([23.0])
    scale = ScaleState()
    final, trace = pipeline.run_postgrasp(load, 22.0, scale, cfg, np.random.default_rng(0))
    assert trace == []
    assert final == 23.0


def test_postgrasp_reaches_band_with_bounded_overshoot():
    params = sim.PostgraspParams()
    cfg = ControllerConfig(v_min=params.v_min, v_max=params.v_max)
    q_max = sim.spines_drop_q99(params)
    rng = np.random.default_rng(101)
    load = GripperLoad([2.5] * 12)  # 30 g
    scale = ScaleState()
    final, trace = pipeline.run_postgrasp(load, 22.0, scale, cfg, rng, params)
    assert len(trace) > 0
    assert final < 24.0 + q_max
    # mass ledger: start = final + discarded
    assert 30.0 - final == pytest.approx(scale.true_discarded, abs=1e-9)


def test_postgrasp_without_spines_can_undershoot():
    # clumped loads without spines fall in uncontrollable lumps: over many
    # seeded runs some episodes end below target - 2 g
    params = sim.PostgraspParams()
    cfg = ControllerConfig(v_min=params.v_min, v_max=params.v_max)
    undershoots = 0
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        load = GripperLoad([4.0, 9.0, 5.0, 7.0, 6.0], spines_enabled=False)  # 31 g
        scale = ScaleState()
        final, _ = pipeline.run_postgrasp(load, 22.0, scale, cfg, rng, params)
        if final < 20.0:
            undershoots += 1
    assert undershoots > 0


def test_postgrasp_true_mass_monotone_along_trace():
    params = sim.PostgraspParams()
    cfg = ControllerConfig(v_min=params.v_min, v_max=params.v_max)
    rng = np.random.default_rng(7)
    load = GripperLoad([2.5] * 16)
    scale = ScaleState()
    final, trace = pipeline.run_postgrasp(load, 30.0, scale, cfg, rng, params)
    drops = [d for _, _, d in trace]
    assert all(d >= 0 for d in drops)
    assert final == pytest.approx(40.0 - sum(drops), abs=1e-9)


# ---------------------------------------------------------------- ALGO-2 thresholds

@pytest.fixture()
def forced_episode(monkeypatch):
    """Force the selection and the grasp outcome so the ALGO-2 guards can be
    probed at exact threshold values."""
    sim_cfg = sim.SimConfig()
    heap = sim.init_heap(sim_cfg, seed=1)
    cfg = EpisodeConfig.default(sim_cfg, trace=True)
    model = mdn.init_params(mdn.ModelConfig(K=1, feature_downsample=40, hidden_sizes=(8,)))

    state = {"grasped": []}

    def force(grasped_seq):
        seq = iter(grasped_seq)

        def fake_select(model_, heap_, sel_cfg, clearance_mm=5.0):
            return SelectedGrasp(200, 150, 3.0, 25.0, 1.0, 4.0, 0)

        def fake_grasp(heap_, x, y, z, rng_, config_):
            g = next(seq)
            state["grasped"].append(g)
            return GraspOutcome(g, g, 0.0, [])

        monkeypatch.setattr(pipeline, "select_grasp", fake_select)
        monkeypatch.setattr(pipeline, "execute_grasp", fake_grasp)
        monkeypatch.setattr(pipeline, "apply_pregrasp", lambda *a, **k: None)
        monkeypatch.setattr(pipeline, "release_mass", lambda *a, **k: None)
        return model, heap, cfg

    return force


def test_retry_fires_exactly_at_target_minus_2(forced_episode):
    model, heap, cfg = forced_episode([20.0, 23.0])  # target 22: 20.0 <= 20.0 -> retry
    rng = np.random.default_rng(0)
    result = pipeline.run_inference_episode(model, heap, 22.0, 1.0, cfg, rng)
    assert result.retries == 1
    assert result.status == "placed"
    assert result.grasped_initial == 23.0


def test_no_retry_just_above_threshold(forced_episode):
    model, heap, cfg = forced_episode([20.1])
    result = pipeline.run_inference_episode(model, heap, 22.0, 1.0, cfg,
                                            np.random.default_rng(0))
    assert result.retries == 0
    assert result.final_mass == 20.1
    assert result.postgrasp_trace == []


def test_within_both_bands_places_directly(forced_episode):
    model, heap, cfg = forced_episode([23.0])
    result = pipeline.run_inference_episode(model, heap, 22.0, 1.0, cfg,
                                            np.random.default_rng(0))
    assert result.retries == 0
    assert result.postgrasp_trace == []
    assert result.final_mass == 23.0
    assert result.success_band_2g


def test_postgrasp_engages_exactly_at_target_plus_2(forced_episode):
    model, heap, cfg = forced_episode([24.0])  # target 22: 24.0 >= 24.0 -> post-grasp
    result = pipeline.run_inference_episode(model, heap, 22.0, 1.0, cfg,
                                            np.random.default_rng(3))
    assert len(result.postgrasp_trace) > 0
    assert result.final_mass < 24.0


def test_postgrasp_not_engaged_just_below_threshold(forced_episode):
    model, heap, cfg = forced_episode([23.9])
    result = pipeline.run_inference_episode(model, heap, 22.0, 1.0, cfg,
                                            np.random.default_rng(3))
    assert result.postgrasp_trace == []
    assert result.final_mass == 23.9


def test_retry_cap_marks_failed(forced_episode):
    model, heap, cfg = forced_episode([10.0] * 20)
    cfg.retry_cap = 3
    result = pipeline.run_inference_episode(model, heap, 22.0, 1.0, cfg,
                                            np.random.default_rng(0))
    assert result.status == "failed_to_grasp"
    assert result.retries == 4
    assert result.placed_g == 0.0


def test_infeasible_marked_distinctly(monkeypatch):
    sim_cfg = sim.SimConfig()
    heap = sim.init_heap(sim_cfg, seed=1)
    cfg = EpisodeConfig.default(sim_cfg)
    model = mdn.init_params(mdn.ModelConfig(K=1, feature_downsample=40, hidden_sizes=(8,)))
    monkeypatch.setattr(pipeline, "select_grasp", lambda *a, **k: None)
    result = pipeline.run_inference_episode(model, heap, 22.0, 1.0, cfg,
                                            np.random.default_rng(0))
    assert result.status == "infeasible"
    assert result.status != "failed_to_grasp"


# ---------------------------------------------------------------- episode ledger

def test_episode_mass_ledger_balances():
    sim_cfg = sim.SimConfig()
    ds = pipeline.run_collection(sim_cfg, 24, seed=5)
    model = mdn.train(ds, mdn.ModelConfig(K=2, feature_downsample=20, hidden_sizes=(16,),
                                          epochs=15, learning_rate=0.05, seed=1))
    heap = sim.init_heap(sim_cfg, seed=77)
    cfg = EpisodeConfig.default(sim_cfg)
    rng = np.random.default_rng(9)
    for target in (15.0, 20.0):
        before = sim.total_mass(heap)
        result = pipeline.run_inference_episode(model, heap, target, 1.0, cfg, rng)
        after = sim.total_mass(heap)
        assert before - after == pytest.approx(
            result.placed_g + result.discarded_g, abs=1e-9)
        assert result.final_mass <= result.grasped_initial + 1e-12


# ---------------------------------------------------------------- run_collection

def test_collection_sizes_and_split():
    ds = pipeline.run_collection(sim.SimConfig(), 200, seed=1)
    assert len(ds) == 200
    assert len(ds.train_rows()) == 150
    assert len(ds.eval_rows()) == 50


def test_collection_z_only_from_pool():
    ds = pipeline.run_collection(sim.SimConfig(), 40, zpool=(2.0, 3.0), seed=2)
    assert set(r.z_cm for r in ds.rows) <= {2.0, 3.0}


def test_collection_n_too_small():
    with pytest.raises(ValueError):
        pipeline.run_collection(sim.SimConfig(), 1, seed=1)


def test_collection_mass_decreases_by_recorded_masses():
    sim_cfg = sim.SimConfig()
    seed = 4
    ds = pipeline.run_collection(sim_cfg, 30, seed=seed)
    ss = np.random.SeedSequence(seed)
    heap_seed, _ = ss.spawn(2)
    heap0_mass = sim.total_mass(sim.init_heap(sim_cfg, heap_seed.generate_state(1)[0]))
    # replay: the final heap mass must equal initial minus everything recorded
    ds2 = pipeline.run_collection(sim_cfg, 30, seed=seed)
    assert [r.mass_g for r in ds.rows] == [r.mass_g for r in ds2.rows]
    assert all(r.mass_g > 0 for r in ds.rows)
    assert sum(r.mass_g for r in ds.rows) < heap0_mass


def test_collection_deterministic():
    a = pipeline.run_collection(sim.SimConfig(), 12, seed=8)
    b = pipeline.run_collection(sim.SimConfig(), 12, seed=8)
    for ra, rb in zip(a.rows, b.rows):
        assert ra.mass_g == rb.mass_g and ra.z_cm == rb.z_cm and ra.split == rb.split
        assert np.array_equal(np.asarray(ra.patch), np.asarray(rb.patch))


def test_collection_keeps_both_splits_nonempty():
    # round(0.75 * 2) is 2, so the smallest collection needs the n - 1 cap
    for n in range(2, 13):
        ds = pipeline.run_collection(sim.SimConfig(), n, seed=3)
        assert len(ds.train_rows()) >= 1 and len(ds.eval_rows()) >= 1, n
        assert len(ds.train_rows()) == min(round(0.75 * n), n - 1), n
