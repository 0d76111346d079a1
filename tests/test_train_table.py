"""Feature-space training against its oracle: the variant table must equal
the features of every ``augment`` crop bit for bit, and ``train`` must follow
the per-step crop-and-featurise loop kept here as the reference, bit for
bit, since every feature is an exact integer sum divided by one rule."""

import numpy as np
import pytest

from entpick import mdn
from entpick.mdn import ModelConfig
from entpick.sim import PatchObservation

CONFIGS = {
    "default": {},
    "downsample40": {"feature_downsample": 40},
}


class OneDraw:
    """Stands in for a Generator: ``augment`` draws its variant index with
    one ``integers(N_VARIANTS)`` call, and this one returns ``variant``."""

    def __init__(self, variant):
        self._variant = variant

    def integers(self, high):
        assert high == mdn.N_VARIANTS
        return self._variant


def reference_train(dataset, config):
    """The per-step loop the variant table replaces: augment each batch row,
    featurise the crops, take an Adam step."""
    train_rows, eval_rows = dataset.train_rows(), dataset.eval_rows()
    rng = np.random.default_rng(config.seed)
    params = mdn.init_params(config)
    mdn._init_head_from_masses(params, [r.mass_g for r in train_rows])
    eval_feats, eval_masses = mdn._dataset_features(eval_rows, config)
    patches = [r.patch / mdn.UNITS_PER_MM for r in train_rows]   # heights, mm
    depths = np.array([r.z_cm for r in train_rows])
    masses = np.array([r.mass_g for r in train_rows])
    m = np.zeros_like(params.theta)
    v = np.zeros_like(params.theta)
    beta1, beta2 = 0.9, 0.999
    t = 0
    best_nll = mdn._nll_from_features(params, eval_feats, eval_masses)
    best_theta = params.theta.copy()
    eval_nlls = [best_nll]
    for _ in range(config.epochs):
        order = rng.permutation(len(train_rows))
        for start in range(0, len(train_rows), config.batch_size):
            idx = order[start:start + config.batch_size]
            crops = [mdn.augment(PatchObservation(patches[i], depths[i]), rng).heights
                     for i in idx]
            feats = mdn.features_from_rows(np.stack(crops), depths[idx], config)
            _, g = mdn._nll_value_grad(params, feats, masses[idx])
            t += 1
            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * g * g
            m_hat = m / (1 - beta1 ** t)
            v_hat = v / (1 - beta2 ** t)
            params.theta -= config.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)
        eval_nll = mdn._nll_from_features(params, eval_feats, eval_masses)
        eval_nlls.append(eval_nll)
        if eval_nll <= best_nll:
            best_nll = eval_nll
            best_theta = params.theta.copy()
    return best_theta, eval_nlls


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_variant_table_matches_augment_crops(collected_dataset, name):
    cfg = ModelConfig(**CONFIGS[name])
    rows = collected_dataset.train_rows()[:3]
    table = mdn._variant_features(rows, cfg)
    assert table.shape == (3, mdn.N_VARIANTS, cfg.n_features)
    for variant in range(mdn.N_VARIANTS):
        for i, row in enumerate(rows):
            obs = PatchObservation(row.patch / mdn.UNITS_PER_MM, row.z_cm)
            crop = mdn.augment(obs, OneDraw(variant)).heights
            ref = mdn.features_from_rows(crop[None], np.array([row.z_cm]), cfg)[0]
            assert np.array_equal(table[i, variant], ref), variant


def reference_training_log(dataset, config, monkeypatch):
    """Theta and the whole training log ``train`` must return, from
    ``reference_train`` and the batch losses it computes: each epoch's
    ``train_nll`` is the mean of that epoch's batch losses."""
    losses = []
    value_grad = mdn._nll_value_grad

    def recording(*args):
        loss, grad = value_grad(*args)
        losses.append(loss)
        return loss, grad

    with monkeypatch.context() as patch:
        patch.setattr(mdn, "_nll_value_grad", recording)
        theta, eval_nlls = reference_train(dataset, config)
    masses = [r.mass_g for r in dataset.train_rows()]
    steps = -(-len(masses) // config.batch_size)
    assert len(losses) == config.epochs * steps
    epochs = [{"epoch": 0, "train_nll": None, "eval_nll": eval_nlls[0]}]
    epochs += [{"epoch": e, "train_nll": float(np.mean(losses[(e - 1) * steps:e * steps])),
                "eval_nll": eval_nlls[e]} for e in range(1, config.epochs + 1)]
    return theta, {"epochs": epochs, "best_eval_nll": min(eval_nlls),
                   "train_masses_g": masses}


REFERENCE_CASES = {
    **{name: {"seed": 7, "epochs": 3, **fields} for name, fields in CONFIGS.items()},
    # 7 does not divide the 150 train rows; 150 is one full batch per epoch
    "seed0-batch7": {"seed": 0, "epochs": 20, "batch_size": 7},
    "seed12345-batch150": {"seed": 12345, "epochs": 20, "batch_size": 150},
}


@pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
def test_train_matches_reference_loop(collected_dataset, monkeypatch, name):
    cfg = ModelConfig(**REFERENCE_CASES[name])
    params = mdn.train(collected_dataset, cfg)
    theta, log = reference_training_log(collected_dataset, cfg, monkeypatch)
    assert params.theta.tobytes() == theta.tobytes()
    assert params.training_log == log


def test_default_checkpoint_matches_reference(collected_dataset, trained_model, monkeypatch):
    """Every one of the 400 epochs, not only the best, equals the reference."""
    theta, log = reference_training_log(collected_dataset, trained_model.config, monkeypatch)
    assert trained_model.theta.tobytes() == theta.tobytes()
    assert trained_model.training_log == log


def reference_log_mix(pi, mu, sigma, masses):
    """``mdn._log_mix`` as first written, kept verbatim."""
    z = (masses[:, None] - mu) / sigma
    log_comp = -0.5 * z ** 2 - np.log(sigma) - 0.5 * mdn.LOG_2PI
    a = np.log(pi + 1e-300) + log_comp
    a_max = a.max(axis=1, keepdims=True)
    return (a_max + np.log(np.exp(a - a_max).sum(axis=1, keepdims=True))).ravel(), a


def reference_nll_value_grad(params, feats, masses):
    """``mdn._nll_value_grad`` as first written, kept verbatim: every
    intermediate in its own array, the head gradient stacked and the flat
    gradient concatenated."""
    cfg = params.config
    pi, mu, sigma, (layers, acts, sraw) = mdn._forward_batch(params, feats, want_cache=True)
    n = feats.shape[0]
    log_lik, a = reference_log_mix(pi, mu, sigma, masses)
    loss = float(-log_lik.mean())

    r = np.exp(a - a.max(axis=1, keepdims=True))
    r /= r.sum(axis=1, keepdims=True)          # responsibilities
    diff = masses[:, None] - mu
    d_logits = (pi - r) / n
    d_mu = -r * diff / sigma ** 2 / n
    if cfg.fixed_sigma is not None:
        d_sraw = np.zeros_like(d_mu)
    else:
        d_sigma = -r * (diff ** 2 / sigma ** 3 - 1.0 / sigma) / n
        d_sraw = d_sigma / (1.0 + np.exp(-sraw))  # softplus' = sigmoid
    d_head = np.hstack([d_logits, d_mu, d_sraw])

    grads = [None] * len(layers)
    upstream = d_head
    for i in range(len(layers) - 1, -1, -1):
        w, _ = layers[i]
        x_in = acts[i]
        gw = x_in.T @ upstream
        gb = upstream.sum(axis=0)
        grads[i] = (gw, gb)
        if i > 0:
            upstream = (upstream @ w.T) * (1.0 - acts[i] ** 2)
    flat = np.concatenate([np.concatenate([gw.ravel(), gb]) for gw, gb in grads])
    return loss, flat


@pytest.mark.parametrize("batch", [1, 7, 16])
@pytest.mark.parametrize("fixed_sigma", [None, 1.5])
@pytest.mark.parametrize("hidden", [(), (8,), (8, 6)], ids=["h0", "h8", "h8-6"])
@pytest.mark.parametrize("K", [1, 2, 3])
def test_loss_and_gradient_match_the_reference_bit_for_bit(K, hidden, fixed_sigma, batch):
    cfg = ModelConfig(K=K, hidden_sizes=hidden, fixed_sigma=fixed_sigma, seed=K)
    rng = np.random.default_rng([K, len(hidden), batch, fixed_sigma is None])
    params = mdn.init_params(cfg)
    params.theta += rng.normal(0, 0.3, params.theta.shape)
    feats = rng.normal(0, 1, (batch, cfg.n_features))
    masses = rng.uniform(0, 40, batch)
    loss, grad = mdn._nll_value_grad(params, feats, masses)
    ref_loss, ref_grad = reference_nll_value_grad(params, feats, masses)
    assert loss == ref_loss
    assert grad.shape == ref_grad.shape and grad.tobytes() == ref_grad.tobytes()
    assert mdn._nll_from_features(params, feats, masses) == ref_loss


def test_collected_patches_lie_on_the_feature_grid(collected_dataset):
    """Every patch is stored as int16 units of 0.05 mm, and reading it back
    as heights, units / 20 mm, gives the features of the units bit for bit."""
    cfg = ModelConfig()
    for row in collected_dataset.rows:
        assert row.patch.dtype == np.int16 and row.patch.nbytes == 51_200
        assert (row.z_cm * mdn.DEPTH_UNITS_PER_CM).is_integer()
    rows = collected_dataset.rows
    feats, _ = mdn._dataset_features(rows, cfg)
    heights = np.stack([r.patch for r in rows]) / mdn.UNITS_PER_MM
    assert np.array_equal(feats, mdn.features_from_rows(heights, [r.z_cm for r in rows], cfg))


def test_train_never_crops(collected_dataset, monkeypatch):
    calls = {"features_from_rows": 0, "_unit_features": 0}

    def counting(name):
        real = getattr(mdn, name)

        def wrapper(*args, **kw):
            calls[name] += 1
            return real(*args, **kw)
        return wrapper

    def no_augment(*args, **kw):
        raise AssertionError("augment called during training")

    for name in calls:
        monkeypatch.setattr(mdn, name, counting(name))
    monkeypatch.setattr(mdn, "augment", no_augment)
    mdn.train(collected_dataset, ModelConfig(seed=7, epochs=2))
    # the eval split, in units, in one call that builds it row by row
    assert calls == {"features_from_rows": 0, "_unit_features": 1}


def one_draw_per_row_train(dataset, config):
    """``train`` on the same variant table, but with one
    ``integers(N_VARIANTS)`` call per batch row in place of the epoch's bulk
    draw: the same stream, so ``train`` must match it bit for bit."""
    train_rows, eval_rows = dataset.train_rows(), dataset.eval_rows()
    rng = np.random.default_rng(config.seed)
    params = mdn.init_params(config)
    mdn._init_head_from_masses(params, [r.mass_g for r in train_rows])
    eval_feats, eval_masses = mdn._dataset_features(eval_rows, config)
    n = len(train_rows)
    masses = np.array([r.mass_g for r in train_rows])
    table = mdn._variant_features(train_rows, config)
    m = np.zeros_like(params.theta)
    v = np.zeros_like(params.theta)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    t = 0
    best_nll = mdn._nll_from_features(params, eval_feats, eval_masses)
    best_theta = params.theta.copy()
    log = [{"epoch": 0, "train_nll": None, "eval_nll": best_nll}]
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        variants = [int(rng.integers(mdn.N_VARIANTS)) for _ in range(n)]
        epoch_losses = []
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            feats = table[idx, variants[start:start + config.batch_size]]
            loss, g = mdn._nll_value_grad(params, feats, masses[idx])
            epoch_losses.append(loss)
            t += 1
            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * g * g
            m_hat = m / (1 - beta1 ** t)
            v_hat = v / (1 - beta2 ** t)
            params.theta -= config.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
        eval_nll = mdn._nll_from_features(params, eval_feats, eval_masses)
        log.append({"epoch": epoch, "train_nll": float(np.mean(epoch_losses)),
                    "eval_nll": eval_nll})
        if eval_nll <= best_nll:
            best_nll = eval_nll
            best_theta = params.theta.copy()
    return best_theta, {"epochs": log, "best_eval_nll": best_nll,
                        "train_masses_g": [float(x) for x in masses]}


def test_default_checkpoint_equals_one_draw_per_row(collected_dataset, trained_model):
    theta, log = one_draw_per_row_train(collected_dataset, trained_model.config)
    assert trained_model.theta.tobytes() == theta.tobytes()
    assert trained_model.training_log == log
