import base64
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entpick import mdn
from entpick.mdn import Dataset, DataRow, ModelConfig
from entpick.sim import PatchObservation


def linear_dataset(n, slope=4.5, noise=0.3, seed=1):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        z = float(rng.uniform(1.0, 4.0))
        m = max(slope * z + float(rng.normal(0, noise)), 0.0)
        rows.append(DataRow(np.zeros((160, 160), np.int16), z, m,
                            "train" if i < int(0.75 * n) else "eval"))
    return Dataset(rows)


def bimodal_dataset(n, modes=(10.0, 20.0), seed=2):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        m = modes[i % 2] + float(rng.normal(0, 0.3))
        rows.append(DataRow(np.zeros((160, 160), np.int16), 2.0, m,
                            "train" if i < int(0.75 * n) else "eval"))
    return Dataset(rows)


def test_train_recovers_linear_map():
    ds = linear_dataset(60)
    cfg = ModelConfig(K=1, feature_downsample=40, hidden_sizes=(16,),
                      epochs=400, learning_rate=0.05, batch_size=16, seed=5)
    params = mdn.train(ds, cfg)
    for r in ds.eval_rows():
        mu, _ = mdn.mixture_moments(mdn.mdn_forward(params, PatchObservation(r.patch, r.z_cm)))
        assert abs(mu - 4.5 * r.z_cm) / (4.5 * r.z_cm) < 0.10


def test_train_recovers_bimodal_components():
    ds = bimodal_dataset(60)
    cfg = ModelConfig(K=2, feature_downsample=40, hidden_sizes=(16,),
                      epochs=400, learning_rate=0.05, batch_size=16, seed=7)
    params = mdn.train(ds, cfg)
    mix = mdn.mdn_forward(params, PatchObservation(np.zeros((160, 160)), 2.0))
    mus = sorted(float(m) for m in mix.mu)
    assert abs(mus[0] - 10.0) / 10.0 < 0.10
    assert abs(mus[1] - 20.0) / 20.0 < 0.10


def test_train_deterministic():
    ds = linear_dataset(40, seed=4)
    cfg = ModelConfig(K=2, feature_downsample=40, hidden_sizes=(8,),
                      epochs=30, learning_rate=0.05, seed=3)
    a = mdn.train(ds, cfg)
    b = mdn.train(ds, cfg)
    assert np.array_equal(a.theta, b.theta)


def test_train_eval_nll_never_worse_than_initial():
    ds = linear_dataset(40, seed=6)
    cfg = ModelConfig(K=2, feature_downsample=40, hidden_sizes=(8,),
                      epochs=20, learning_rate=0.05, seed=1)
    params = mdn.train(ds, cfg)
    log = params.training_log["epochs"]
    assert params.training_log["best_eval_nll"] <= log[0]["eval_nll"]


def test_train_rejects_missing_split():
    rows = [DataRow(np.zeros((160, 160), np.int16), 2.0, 10.0, "train") for _ in range(5)]
    with pytest.raises(ValueError):
        mdn.train(Dataset(rows), ModelConfig(K=1, feature_downsample=40, hidden_sizes=(8,)))


def test_mse_equivalence_with_fixed_unit_sigma():
    # K=1, sigma frozen at 1: the NLL objective is the squared error up to
    # constants, so on noiseless linear data the trained predictions must
    # match the least-squares oracle
    rng = np.random.default_rng(3)
    rows = []
    for i in range(40):
        z = float(rng.uniform(1.0, 4.0))
        rows.append(DataRow(np.zeros((160, 160), np.int16), z, 2.0 + 3.0 * z,
                            "train" if i < 30 else "eval"))
    ds = Dataset(rows)
    cfg = ModelConfig(K=1, feature_downsample=40, hidden_sizes=(), fixed_sigma=1.0,
                      epochs=600, learning_rate=0.05, batch_size=30, seed=9)
    params = mdn.train(ds, cfg)

    feats, masses = mdn._dataset_features(ds.train_rows(), cfg)
    design = np.hstack([feats, np.ones((len(feats), 1))])
    coef, *_ = np.linalg.lstsq(design, masses, rcond=None)
    efeats, _ = mdn._dataset_features(ds.eval_rows(), cfg)
    ls_pred = np.hstack([efeats, np.ones((len(efeats), 1))]) @ coef

    preds = np.array([
        mdn.mixture_moments(mdn.mdn_forward(params, PatchObservation(r.patch, r.z_cm)))[0]
        for r in ds.eval_rows()])
    assert np.abs(preds - ls_pred).max() <= 1e-3


# ---------------------------------------------------------------- persistence

def test_checkpoint_round_trip(tmp_path):
    ds = linear_dataset(40, seed=8)
    cfg = ModelConfig(K=2, feature_downsample=40, hidden_sizes=(8,),
                      epochs=10, learning_rate=0.05, seed=2)
    params = mdn.train(ds, cfg)
    path = tmp_path / "model.json"
    mdn.save_checkpoint(params, path)
    loaded = mdn.load_checkpoint(path)
    assert np.array_equal(loaded.theta, params.theta)
    rng = np.random.default_rng(0)
    obs = PatchObservation(rng.normal(0, 5, (160, 160)), 2.5)
    a = mdn.mdn_forward(params, obs)
    b = mdn.mdn_forward(loaded, obs)
    assert np.abs(a.mu - b.mu).max() <= 1e-12
    assert np.abs(a.pi - b.pi).max() <= 1e-12
    assert np.abs(a.sigma - b.sigma).max() <= 1e-12


def test_dataset_jsonl_round_trip(tmp_path):
    ds = linear_dataset(6, seed=9)
    path = tmp_path / "data.jsonl"
    ds.to_jsonl(path)
    back = Dataset.from_jsonl(path)
    assert len(back) == 6
    for a, b in zip(ds.rows, back.rows):
        assert np.array_equal(np.asarray(a.patch), b.patch)
        assert a.z_cm == b.z_cm and a.mass_g == b.mass_g and a.split == b.split


@given(st.lists(st.tuples(st.integers(0, 160 * 160 - 1),
                          st.sampled_from([-32768, -32767, -1, 0, 1, 32767])
                          | st.integers(-32768, 32767)),
                max_size=60),
       st.integers(0, 2 ** 32 - 1), st.floats(0.1, 10), st.floats(0, 100))
@settings(max_examples=25, deadline=None)
def test_dataset_jsonl_round_trips_patch_bits(tmp_path_factory, cells, seed, z_cm, mass_g):
    # the patch is stored as its int16 bytes, so every unit, both ends of
    # the int16 range included, comes back exactly
    patch = np.random.default_rng(seed).integers(-32768, 32768, 160 * 160).astype(np.int16)
    for i, v in cells:
        patch[i] = v
    patch = patch.reshape(160, 160)
    path = tmp_path_factory.mktemp("units") / "data.jsonl"
    Dataset([DataRow(patch, z_cm, mass_g, "eval"), DataRow(patch[::-1].T, 1.0, 0.0, "train")]
            ).to_jsonl(path)
    back = Dataset.from_jsonl(path)
    assert back.rows[0].patch.tobytes() == patch.tobytes()
    assert back.rows[1].patch.tobytes() == np.ascontiguousarray(patch[::-1].T).tobytes()
    assert (back.rows[0].z_cm, back.rows[0].mass_g) == (z_cm, mass_g)
    assert back.rows[0].patch.dtype == np.int16 and back.rows[0].patch.flags.writeable


@pytest.mark.parametrize("patch", [np.zeros((160, 160)), np.zeros((160, 160), np.int32),
                                   np.zeros((160, 160)).tolist()],
                         ids=["float64", "int32", "list"])
def test_data_row_rejects_a_patch_not_in_int16_units(patch):
    with pytest.raises(ValueError, match="int16 units"):
        DataRow(patch, 2.0, 5.0, "train")


def test_patch_units_reads_heights_at_the_nearest_unit():
    heights = np.array([[0.0, 0.05, -0.1, 0.024], [0.026, 1638.35, -1638.4, 12.3]])
    assert mdn.patch_units(heights).tolist() == [[0, 1, -2, 0], [1, 32767, -32768, 246]]
    assert mdn.patch_units(heights).dtype == np.int16
    for bad in (1638.4, -1638.45, np.nan, np.inf):
        with pytest.raises(ValueError, match="int16 units"):
            mdn.patch_units(np.full((2, 2), bad))


def json_dumps_lines(dataset):
    """The dataset file as ``json.dumps`` writes each whole row."""
    return "".join(
        json.dumps({"patch": base64.b64encode(np.asarray(r.patch, dtype="<i2").tobytes())
                    .decode("ascii"), "z_cm": r.z_cm, "mass_g": r.mass_g, "split": r.split},
                   separators=(",", ":")) + "\n"
        for r in dataset.rows).encode("utf-8")


def test_dataset_jsonl_bytes_equal_json_dumps(collected_dataset, tmp_path):
    patch = mdn.patch_units(np.random.default_rng(3).normal(0, 50, (160, 160)))
    hand_built = Dataset([DataRow(patch, 2, 5.0, "train"), DataRow(patch, 0.1, 0.0, "eval"),
                          DataRow(patch.T, 1e-300, 12.25, "eval")])
    for name, ds in (("collected", collected_dataset), ("hand_built", hand_built)):
        path = tmp_path / f"{name}.jsonl"
        ds.to_jsonl(path)
        assert path.read_bytes() == json_dumps_lines(ds), name


def test_train_on_reloaded_dataset_writes_same_checkpoint(collected_dataset, trained_model,
                                                         tmp_path):
    path = tmp_path / "data.jsonl"
    collected_dataset.to_jsonl(path)
    reloaded = mdn.train(Dataset.from_jsonl(path), trained_model.config)
    mdn.save_checkpoint(trained_model, tmp_path / "memory.json")
    mdn.save_checkpoint(reloaded, tmp_path / "reloaded.json")
    assert (tmp_path / "memory.json").read_bytes() == (tmp_path / "reloaded.json").read_bytes()


def test_dataset_corrupt_row_names_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    Dataset([DataRow(np.zeros((160, 160), np.int16), 2.0, 5.0, "train")]).to_jsonl(path)
    good = json.loads(path.read_text())
    bad = {"patch": good["patch"], "z_cm": 2.0}
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(ValueError, match="line 2"):
        Dataset.from_jsonl(path)
