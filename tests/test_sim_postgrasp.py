import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import gamma

from entpick import sim
from entpick.sim import GraspOutcome, GripperLoad, PostgraspParams, ScaleParams, ScaleState


def load_of(chunks, spines=True):
    return GripperLoad(clump_masses=list(chunks), spines_enabled=spines)


def test_empty_gripper_drops_nothing():
    params = PostgraspParams()
    load = load_of([])
    dropped = sim.postgrasp_step(load, 1.0, params, np.random.default_rng(0))
    assert dropped == 0.0
    assert load.remaining_mass == 0.0


def test_degenerate_scale_drops_nothing():
    params = PostgraspParams(gamma_scale=1e-300)
    load = load_of([5.0, 5.0])
    dropped = sim.postgrasp_step(load, 1.0, params, np.random.default_rng(0))
    assert dropped == pytest.approx(0.0, abs=1e-250)


def test_spines_gamma_mean_matches_k_theta():
    # shape 2, scale*v = 0.5 -> mean 1.0 g per step, uncapped regime
    params = PostgraspParams(gamma_shape=2.0, gamma_scale=0.5, v_min=0.5, v_max=2.0)
    rng = np.random.default_rng(31)
    n = 10_000
    drops = np.empty(n)
    for i in range(n):
        load = load_of([1000.0])
        drops[i] = sim.postgrasp_step(load, 1.0, params, rng)
    mean = 2.0 * 0.5
    se = math.sqrt(2.0 * 0.5 ** 2 / n)  # gamma variance k * theta^2
    assert abs(drops.mean() - mean) < 3 * se


def test_speed_bounds_enforced():
    params = PostgraspParams(v_min=0.5, v_max=2.0)
    load = load_of([5.0])
    with pytest.raises(ValueError):
        sim.postgrasp_step(load, 0.4, params, np.random.default_rng(0))
    with pytest.raises(ValueError):
        sim.postgrasp_step(load, 2.1, params, np.random.default_rng(0))


def test_remaining_mass_non_increasing():
    params = PostgraspParams()
    rng = np.random.default_rng(4)
    for spines in (True, False):
        load = load_of([3.0, 2.0, 4.0, 1.5], spines=spines)
        prev = load.remaining_mass
        for _ in range(200):
            dropped = sim.postgrasp_step(load, 1.0, params, rng)
            assert dropped >= 0
            assert load.remaining_mass <= prev + 1e-12
            prev = load.remaining_mass
        assert prev <= 1e-9  # everything eventually falls


def test_no_spines_single_chunk_drops_everything():
    params = PostgraspParams(p_clump=1.0)
    load = load_of([7.5], spines=False)
    dropped = sim.postgrasp_step(load, 1.0, params, np.random.default_rng(0))
    assert dropped == 7.5
    assert load.clump_masses == []


def test_no_spines_clump_branch_drops_whole_chunks():
    params = PostgraspParams(p_clump=1.0)
    rng = np.random.default_rng(2)
    chunks = [2.0, 3.0, 4.0]
    load = load_of(chunks, spines=False)
    dropped = sim.postgrasp_step(load, 1.0, params, rng)
    assert dropped in chunks


def test_spines_bound_q99():
    # with spines, P(drop > q_max) at v_max stays below 1% (q_max = gamma 99th pct)
    params = PostgraspParams()
    q_max = gamma.ppf(0.99, params.gamma_shape, scale=params.gamma_scale * params.v_max)
    rng = np.random.default_rng(7)
    n = 10_000
    exceed = 0
    for _ in range(n):
        load = load_of([1000.0])
        if sim.postgrasp_step(load, params.v_max, params, rng) > q_max:
            exceed += 1
    assert exceed / n < 0.013  # 1% + 3 binomial sigma


def test_make_gripper_load_partitions_exactly():
    out = GraspOutcome(grasped_mass=23.7, base_mass=20.2, entangled_extra=3.5,
                       clump_masses=[3.5])
    load = sim.make_gripper_load(out, PostgraspParams(piece_g=2.5), spines_enabled=True)
    assert load.remaining_mass == pytest.approx(23.7, abs=1e-12)
    assert max(load.clump_masses[:-1]) <= 2.5 + 1e-12


@given(st.lists(st.floats(min_value=0.01, max_value=50.0), min_size=1, max_size=8))
@settings(max_examples=50, deadline=None)
def test_load_invariant_remaining_is_chunk_sum(chunks):
    load = load_of(chunks)
    assert load.remaining_mass == pytest.approx(math.fsum(chunks), abs=1e-9)


# ---------------------------------------------------------------- scale model

def test_scale_quantizes_to_resolution():
    state = ScaleState(params=ScaleParams(lag=0))
    state.add_mass(12.34, 0.0)
    assert sim.read_scale(state, 5.0) == pytest.approx(12.3)


def test_scale_reads_zero_when_nothing_discarded():
    state = ScaleState()
    for t in np.linspace(0, 3, 13):
        assert sim.read_scale(state, float(t)) == 0.0


def test_scale_lag_delays_readings():
    # lag 2 at 10 Hz: a drop at t=0 shows up from sample 2 onward
    state = ScaleState(params=ScaleParams(lag=2, transient_gain=0.0))
    state.add_mass(10.0, 0.0)
    assert sim.read_scale(state, 0.05) == 0.0
    assert sim.read_scale(state, 0.15) == 0.0
    assert sim.read_scale(state, 0.21) == pytest.approx(10.0)


def test_scale_transient_overshoots_then_settles():
    state = ScaleState(params=ScaleParams(lag=0, transient_gain=0.5))
    state.add_mass(4.0, 0.25)
    burst = sim.read_scale(state, 0.31)   # sample 3 saw 4 g land
    settled = sim.read_scale(state, 0.45)  # one sample later
    assert burst == pytest.approx(6.0)
    assert settled == pytest.approx(4.0)


def test_scale_readings_multiples_of_resolution_and_nonnegative():
    state = ScaleState()
    rng = np.random.default_rng(3)
    t = 0.0
    for _ in range(200):
        t += 1.0 / 30.0
        state.add_mass(float(rng.gamma(2.0, 0.3)), t)
        v = sim.read_scale(state, t)
        assert v >= 0.0
        assert abs(v * 10.0 - round(v * 10.0)) < 1e-9
