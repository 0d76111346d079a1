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


class FixedDraw:
    """Stands in for a Generator: replays one flip/offset draw the way
    ``augment`` consumes the stream."""

    def __init__(self, flip_v, flip_h, off):
        self._coins = iter([0.25 if flip_v else 0.75, 0.25 if flip_h else 0.75])
        self._off = off

    def random(self):
        return next(self._coins)

    def integers(self, lo, hi, size):
        assert (lo, hi, size) == (0, mdn.N_OFFSETS, 2)
        return np.array(self._off)


def all_draws():
    for flip_v in (False, True):
        for flip_h in (False, True):
            for o0 in range(mdn.N_OFFSETS):
                for o1 in range(mdn.N_OFFSETS):
                    yield flip_v, flip_h, (o0, o1)


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
    seen = set()
    for flip_v, flip_h, off in all_draws():
        variant = mdn._draw_variant(FixedDraw(flip_v, flip_h, off))
        seen.add(variant)
        for i, row in enumerate(rows):
            obs = PatchObservation(row.patch / mdn.UNITS_PER_MM, row.z_cm)
            crop = mdn.augment(obs, FixedDraw(flip_v, flip_h, off)).heights
            ref = mdn.features_from_rows(crop[None], np.array([row.z_cm]), cfg)[0]
            assert np.array_equal(table[i, variant], ref), (flip_v, flip_h, off)
    assert seen == set(range(mdn.N_VARIANTS))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_train_matches_reference_loop(collected_dataset, name):
    cfg = ModelConfig(seed=7, epochs=3, **CONFIGS[name])
    params = mdn.train(collected_dataset, cfg)
    ref_theta, ref_eval = reference_train(collected_dataset, cfg)
    assert np.array_equal(params.theta, ref_theta)
    assert [e["eval_nll"] for e in params.training_log["epochs"]] == ref_eval


def test_default_checkpoint_matches_reference(collected_dataset, trained_model):
    """Every one of the 400 epochs, not only the best, equals the reference."""
    ref_theta, ref_eval = reference_train(collected_dataset, trained_model.config)
    assert np.array_equal(trained_model.theta, ref_theta)
    assert [e["eval_nll"] for e in trained_model.training_log["epochs"]] == ref_eval
    assert trained_model.training_log["best_eval_nll"] == min(ref_eval)


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
    # the eval split, in units, in one stacked call
    assert calls == {"features_from_rows": 0, "_unit_features": 1}


# ---------------------------------------------------------------- bulk draws

@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize("n", [1, 2, 7, 16, 150])
def test_draw_variants_equal_one_draw_at_a_time(n, buffered):
    for seed in range(50):
        bulk, one = np.random.default_rng(seed), np.random.default_rng(seed)
        if buffered:   # leave the high half of a word in PCG64's 32-bit buffer
            bulk.integers(0, mdn.N_OFFSETS)
            one.integers(0, mdn.N_OFFSETS)
        assert bulk.bit_generator.state["has_uint32"] == int(buffered)
        got = mdn._draw_variants(bulk, n)
        want = [mdn._draw_variant(one) for _ in range(n)]
        assert got.tolist() == want, seed
        assert bulk.bit_generator.state == one.bit_generator.state, seed


@pytest.mark.parametrize("seed", range(5))
def test_draw_variants_redraw_falls_back(seed):
    # a buffered half of 0 gives (0 * 11) % 2**32 = 0 < 4, which Lemire's
    # method redraws, so the bulk read must give way to single draws
    bulk, one = np.random.default_rng(seed), np.random.default_rng(seed)
    state = bulk.bit_generator.state
    state.update(has_uint32=1, uinteger=0)
    bulk.bit_generator.state = state
    one.bit_generator.state = state
    got = mdn._draw_variants(bulk, 16)
    want = [mdn._draw_variant(one) for _ in range(16)]
    assert got.tolist() == want
    assert bulk.bit_generator.state == one.bit_generator.state


def one_draw_per_row_train(dataset, config):
    """``train`` with one ``_draw_variant`` call per batch row: the same
    stream as the bulk draw, so ``train`` must match it bit for bit."""
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
        epoch_losses = []
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            feats = table[idx, [mdn._draw_variant(rng) for _ in idx]]
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


@pytest.mark.parametrize("seed, batch_size", [(0, 7), (12345, 150)])
def test_train_equals_one_draw_per_row(collected_dataset, seed, batch_size):
    cfg = ModelConfig(seed=seed, epochs=20, batch_size=batch_size)
    params = mdn.train(collected_dataset, cfg)
    theta, log = one_draw_per_row_train(collected_dataset, cfg)
    assert params.theta.tobytes() == theta.tobytes()
    assert params.training_log == log
