import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entpick import mdn
from entpick.mdn import MixtureParams, ModelConfig, ModelParams
from entpick.sim import PatchObservation


def tiny_config(**kw):
    kw.setdefault("K", 2)
    kw.setdefault("feature_downsample", 40)
    kw.setdefault("hidden_sizes", (8,))
    return ModelConfig(**kw)


def random_obs(rng, side=160):
    return PatchObservation(rng.normal(0, 5, (side, side)), float(rng.uniform(1.0, 4.0)))


# ---------------------------------------------------------------- forward

def test_forward_activation_contract():
    rng = np.random.default_rng(0)
    cfg = tiny_config(seed=2)
    params = mdn.init_params(cfg)
    for _ in range(20):
        mix = mdn.mdn_forward(params, random_obs(rng))
        assert mix.pi.sum() == pytest.approx(1.0, abs=1e-6)
        assert np.all(mix.pi >= 0)
        assert np.all(mix.sigma >= cfg.sigma_floor)


def test_forward_zero_network_symmetric_weights():
    cfg = tiny_config()
    params = ModelParams(np.zeros(cfg.n_params()), cfg)
    mix = mdn.mdn_forward(params, PatchObservation(np.zeros((160, 160)), 2.0))
    assert np.allclose(mix.pi, [0.5, 0.5])


def test_forward_pure():
    rng = np.random.default_rng(3)
    params = mdn.init_params(tiny_config(seed=4))
    obs = random_obs(rng)
    a = mdn.mdn_forward(params, obs)
    b = mdn.mdn_forward(params, obs)
    assert np.array_equal(a.pi, b.pi)
    assert np.array_equal(a.mu, b.mu)
    assert np.array_equal(a.sigma, b.sigma)


def test_forward_shape_mismatch():
    params = mdn.init_params(tiny_config())
    with pytest.raises(ValueError):
        mdn.mdn_forward(params, PatchObservation(np.zeros((120, 120)), 2.0))
    with pytest.raises(ValueError):
        mdn.mdn_forward(params, PatchObservation(np.zeros((160, 160)), None))


def test_forward_accepts_cropped_patches():
    params = mdn.init_params(tiny_config())
    mix = mdn.mdn_forward(params, PatchObservation(np.zeros((150, 150)), 2.0))
    mix.validate()


# ---------------------------------------------------------------- pdf

def test_pdf_gaussian_peak():
    mix = MixtureParams(np.array([1.0]), np.array([10.0]), np.array([2.0]))
    assert mdn.mdn_pdf(mix, 10.0) == pytest.approx(1.0 / (2.0 * math.sqrt(2.0 * math.pi)))


def test_pdf_integrates_to_one():
    # trapezoid quadrature over mu +- 8 sigma
    rng = np.random.default_rng(1)
    for _ in range(10):
        k = int(rng.integers(1, 4))
        pi = rng.dirichlet(np.ones(k))
        mu = rng.uniform(0, 50, k)
        sigma = rng.uniform(0.2, 6.0, k)
        mix = MixtureParams(pi, mu, sigma)
        lo = (mu - 8 * sigma).min()
        hi = (mu + 8 * sigma).max()
        grid = np.linspace(lo, hi, 8001)
        assert np.trapezoid(mdn.mdn_pdf(mix, grid), grid) == pytest.approx(1.0, abs=1e-4)


def test_pdf_equal_mixture_collapses():
    one = MixtureParams(np.array([1.0]), np.array([12.0]), np.array([3.0]))
    two = MixtureParams(np.array([0.5, 0.5]), np.array([12.0, 12.0]), np.array([3.0, 3.0]))
    for m in np.linspace(-5, 30, 50):
        assert mdn.mdn_pdf(two, m) == pytest.approx(mdn.mdn_pdf(one, m), rel=1e-12)


# ---------------------------------------------------------------- nll

def test_nll_gaussian_at_mean():
    cfg = tiny_config(K=1, fixed_sigma=1.0)
    params = ModelParams(np.zeros(cfg.n_params()), cfg)
    obs = PatchObservation(np.zeros((160, 160)), 2.0)
    assert mdn.nll_loss(params, [(obs, 0.0)]) == pytest.approx(0.5 * math.log(2 * math.pi))


def test_nll_decreases_as_sigma_shrinks_on_point_mass():
    obs = PatchObservation(np.zeros((160, 160)), 2.0)
    prev = None
    for s in [4.0, 2.0, 1.0, 0.5, 0.2]:
        cfg = tiny_config(K=1, fixed_sigma=s)
        params = ModelParams(np.zeros(cfg.n_params()), cfg)
        nll = mdn.nll_loss(params, [(obs, 0.0)])
        if prev is not None:
            assert nll < prev
        prev = nll


def test_nll_mean_reduction():
    rng = np.random.default_rng(5)
    params = mdn.init_params(tiny_config(seed=6))
    obs = random_obs(rng)
    one = mdn.nll_loss(params, [(obs, 12.0)])
    two = mdn.nll_loss(params, [(obs, 12.0), (obs, 12.0)])
    assert two == pytest.approx(one, rel=1e-12)


def test_nll_empty_batch():
    params = mdn.init_params(tiny_config())
    with pytest.raises(ValueError):
        mdn.nll_loss(params, [])
    with pytest.raises(ValueError):
        mdn.nll_grad(params, [])


# depths from 1 to 4 cm on the 0.005 cm grid whose 200 z is whole in float64
GRID_DEPTHS_CM = [j / 200 for j in range(200, 800) if j / 200 * 200 == j]


@pytest.mark.parametrize("cfg", [ModelConfig(), tiny_config(), ModelConfig(feature_downsample=20),
                                 ModelConfig(feature_downsample=160)])
@pytest.mark.parametrize("side, size", [(160, 1), (160, 10), (160, 37), (150, 10)])
def test_batch_features_equal_per_observation(cfg, side, size):
    # the loss featurises a batch in one call; each row must be the bits the
    # single-observation path (inference, mdn_forward) gives. Depths lie on
    # the 0.005 cm grid, so every sum is whole and has one value
    rng = np.random.default_rng(size)
    batch = [(PatchObservation(rng.normal(0, 5, (side, side)), float(rng.choice(GRID_DEPTHS_CM))),
              float(rng.uniform(0, 40))) for _ in range(size)]
    feats, masses = mdn._batch_features_masses(mdn.init_params(cfg), batch)
    single = np.vstack([mdn.features_from_rows([obs.heights], [obs.insertion_depth], cfg)
                        for obs, _ in batch])
    assert np.array_equal(feats, single)
    assert np.array_equal(masses, [m for _, m in batch])
    if side == 160 and cfg.pooled_side in (2, 4):
        assert np.array_equal(feats, reshape_features([obs for obs, _ in batch], cfg))


def reshape_features(observations, cfg):
    """Features of 160-side patches from sums taken apart from ``mdn``'s
    loop: int64 units rint(20 h), block sums by reshape and the sum of
    max(units + 200 z, 0) over the 40 x 24 cells at the centre, divided by
    ``mdn._features``."""
    p = cfg.pooled_side
    b = 160 // p
    blocks, captures, depths = [], [], []
    for obs in observations:
        units = np.rint(obs.heights * 20).astype(np.int64)
        lift = obs.insertion_depth * 200
        assert lift.is_integer()
        blocks.append(units.reshape(p, b, p, b).sum(axis=(1, 3)).ravel())
        captures.append(np.maximum(units[60:100, 68:92] + int(lift), 0).sum())
        depths.append(obs.insertion_depth)
    return mdn._features(np.array(blocks), np.full(p * p, float(b * b)), np.array(captures),
                         np.array(depths))


@pytest.mark.parametrize("n_depths", [1, 4])
def test_features_need_one_depth_per_patch(n_depths):
    patches = np.zeros((3, 160, 160))
    with pytest.raises(ValueError, match=f"got 3 patches and {n_depths} depths"):
        mdn.features_from_rows(patches, [2.0] * n_depths, ModelConfig())


def test_features_of_mixed_sides_name_the_bad_shape():
    rng = np.random.default_rng(5)
    patches = [rng.normal(0, 5, (160, 160)), rng.normal(0, 5, (150, 150))]
    with pytest.raises(ValueError, match=r"patch 1 has shape \(150, 150\)"):
        mdn.features_from_rows(patches, [2.0, 3.0], tiny_config())


@pytest.mark.parametrize("height", [math.nan, math.inf, 1638.4, -1640.0])
def test_features_reject_heights_int16_units_cannot_hold(height):
    patches = np.zeros((2, 160, 160))
    patches[1, 80, 80] = height
    with pytest.raises(ValueError, match="int16 units"):
        mdn.features_from_rows(patches, [2.0, 3.0], tiny_config())


def test_features_of_no_patches_are_an_empty_table():
    cfg = tiny_config()
    for build in (mdn.features_from_rows, mdn._unit_features):
        feats = build([], [], cfg)
        assert feats.shape == (0, cfg.n_features) and feats.dtype == np.float64


def test_nll_batch_checks_each_observation():
    rng = np.random.default_rng(13)
    params = mdn.init_params(tiny_config())
    good = (random_obs(rng), 1.0)
    with pytest.raises(ValueError, match="insertion depth"):
        mdn.nll_loss(params, [good, (PatchObservation(np.zeros((160, 160))), 1.0)])
    with pytest.raises(ValueError, match="square"):
        mdn.nll_grad(params, [good, (PatchObservation(np.zeros((160, 150)), 2.0), 1.0)])


# ---------------------------------------------------------------- gradient

def finite_difference(params, batch):
    g = np.zeros_like(params.theta)
    for i in range(params.theta.size):
        h = 1e-4 * max(1.0, abs(params.theta[i]))
        t0 = params.theta[i]
        params.theta[i] = t0 + h
        lp = mdn.nll_loss(params, batch)
        params.theta[i] = t0 - h
        lm = mdn.nll_loss(params, batch)
        params.theta[i] = t0
        g[i] = (lp - lm) / (2 * h)
    return g


@pytest.mark.parametrize("hidden", [(), (8,), (8, 6)], ids=["h0", "h8", "h8-6"])
def test_grad_matches_central_differences(hidden):
    # two hidden layers check the flat layout of every layer's gradient
    rng = np.random.default_rng(7)
    cfg = tiny_config(seed=8, hidden_sizes=hidden)
    params = mdn.init_params(cfg)
    params.theta += rng.normal(0, 0.3, params.theta.shape)
    batch = [(random_obs(rng), float(rng.uniform(0, 40))) for _ in range(10)]
    analytic = mdn.nll_grad(params, batch)
    numeric = finite_difference(params, batch)
    rel = np.abs(analytic - numeric) / np.maximum(1e-6, np.maximum(np.abs(analytic), np.abs(numeric)))
    assert rel.max() <= 1e-3


def test_grad_zero_for_frozen_sigma_head():
    # with sigma fixed, the sigma head is a constant-output section: its
    # weights are unused and their gradient must vanish
    rng = np.random.default_rng(9)
    cfg = tiny_config(K=2, fixed_sigma=1.5, seed=10)
    params = mdn.init_params(cfg)
    batch = [(random_obs(rng), 10.0) for _ in range(4)]
    g = mdn.nll_grad(params, batch)
    layers = mdn._unpack(g, cfg)
    gw, gb = layers[-1]
    k = cfg.K
    assert np.all(gw[:, 2 * k:] == 0.0)
    assert np.all(gb[2 * k:] == 0.0)
    assert np.any(gw[:, :2 * k] != 0.0)


def test_grad_finite_for_extreme_masses():
    rng = np.random.default_rng(11)
    params = mdn.init_params(tiny_config(seed=12))
    batch = [(random_obs(rng), 200.0)]
    g = mdn.nll_grad(params, batch)
    assert np.all(np.isfinite(g))
    assert np.isfinite(mdn.nll_loss(params, batch))


# ---------------------------------------------------------------- augment

def test_flip_is_involution():
    rng = np.random.default_rng(0)
    patch = rng.normal(size=(160, 160))
    assert np.array_equal(patch[::-1, :][::-1, :], patch)
    assert np.array_equal(patch[:, ::-1][:, ::-1], patch)


def test_augment_output_size():
    rng = np.random.default_rng(1)
    obs = PatchObservation(rng.normal(size=(160, 160)), 3.0)
    for _ in range(20):
        out = mdn.augment(obs, rng)
        assert out.heights.shape == (150, 150)
        assert out.insertion_depth == 3.0


def test_augment_seeded_stream_reproducible():
    obs = PatchObservation(np.arange(160 * 160, dtype=float).reshape(160, 160), 2.0)
    a = [mdn.augment(obs, np.random.default_rng(42)).heights for _ in range(1)]
    b = [mdn.augment(obs, np.random.default_rng(42)).heights for _ in range(1)]
    assert np.array_equal(a[0], b[0])


def test_augment_rejects_wrong_size():
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError):
        mdn.augment(PatchObservation(np.zeros((150, 150)), 2.0), rng)


# ---------------------------------------------------------------- moments

def test_moments_single_component_identity():
    mix = MixtureParams(np.array([1.0]), np.array([10.0]), np.array([2.0]))
    assert mdn.mixture_moments(mix) == (10.0, 2.0)


def test_moments_law_of_total_variance():
    mix = MixtureParams(np.array([0.5, 0.5]), np.array([10.0, 20.0]), np.array([1.0, 1.0]))
    mu, sigma = mdn.mixture_moments(mix)
    assert mu == pytest.approx(15.0)
    assert sigma == pytest.approx(math.sqrt(26.0))


@given(st.integers(1, 4), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_moments_sigma_at_least_min_component(k, seed):
    rng = np.random.default_rng(seed)
    mix = MixtureParams(rng.dirichlet(np.ones(k)), rng.uniform(0, 50, k), rng.uniform(0.1, 5.0, k))
    _, sigma = mdn.mixture_moments(mix)
    assert sigma >= mix.sigma.min() - 1e-9


# ---------------------------------------------------------------- config/params

def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        ModelConfig(K=0)
    with pytest.raises(ValueError):
        ModelConfig(sigma_floor=0.0)
    with pytest.raises(ValueError):
        ModelConfig(feature_downsample=27)


def test_params_length_checked():
    cfg = tiny_config()
    with pytest.raises(ValueError):
        ModelParams(np.zeros(cfg.n_params() + 1), cfg)
