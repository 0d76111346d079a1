"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured numbers. Run with `pytest tests/test_acceptance.py -v -s`.

The directional studies run the shipped presets at 200 episodes per cell on
fixed seeds and must finish inside the five-minute budget."""

import json
import math
import time

import numpy as np
import pytest

from entpick import cli, experiments as ex, mdn, pipeline, select, sim
from entpick.mdn import MixtureParams, ModelConfig, ModelParams
from entpick.pipeline import EpisodeConfig
from entpick.select import SelectedGrasp
from entpick.sim import GraspOutcome, PatchObservation

EXPERIMENT_SEED = 20240601


@pytest.fixture(scope="module")
def study_reports(sim_config, trained_model):
    """All four directional studies at 200 episodes/cell, timed."""
    t0 = time.perf_counter()
    reports = {
        "TABLE1": ex.run_experiment(ex.preset("TABLE1", episodes=200, seed=EXPERIMENT_SEED),
                                    sim_config, trained_model),
        "TABLE2": ex.run_experiment(ex.preset("TABLE2", episodes=200, seed=EXPERIMENT_SEED),
                                    sim_config),
        "TABLE3": ex.run_experiment(ex.preset("TABLE3", episodes=200, seed=EXPERIMENT_SEED),
                                    sim_config),
        "TABLE4": ex.run_experiment(ex.preset("TABLE4", episodes=200, seed=EXPERIMENT_SEED),
                                    sim_config, trained_model),
    }
    return reports, time.perf_counter() - t0


def cell(report, arm, target, band=None):
    for c in report.cells:
        if c["arm"] == arm and c["target_g"] == pytest.approx(target) and (
                band is None or c["band_g"] == band):
            return c["mean_pct"]
    raise KeyError((arm, target, band))


def paired_std_units(report, target, band=None):
    """A paired row's mean difference over its paired std."""
    for r in report.paired:
        if r["target_g"] == pytest.approx(target) and (band is None or r["band_g"] == band):
            return r["mean_pp"] / r["std_pp"]
    raise KeyError((target, band))


def test_c01_gradient_correctness():
    rng = np.random.default_rng(42)
    cfg = ModelConfig(K=2, feature_downsample=40, hidden_sizes=(8,), seed=1)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        params = mdn.init_params(cfg)
        params.theta = params.theta + rng.normal(0, 0.3, params.theta.shape)
        batch = [(PatchObservation(rng.normal(0, 5, (160, 160)), float(rng.uniform(1, 4))),
                  float(rng.uniform(0, 40))) for _ in range(10)]
        analytic = mdn.nll_grad(params, batch)
        numeric = np.zeros_like(analytic)
        for i in range(params.theta.size):
            h = 1e-4 * max(1.0, abs(params.theta[i]))
            t = params.theta[i]
            params.theta[i] = t + h
            lp = mdn.nll_loss(params, batch)
            params.theta[i] = t - h
            lm = mdn.nll_loss(params, batch)
            params.theta[i] = t
            numeric[i] = (lp - lm) / (2 * h)
        rel = np.abs(analytic - numeric) / np.maximum(
            1e-6, np.maximum(np.abs(analytic), np.abs(numeric)))
        worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-3
    assert elapsed < 10.0
    print(f"\n[ACCEPTANCE] 1 gradient correctness: PASS "
          f"(max rel err {worst:.2e} over 20 instances, {elapsed:.1f}s)")


def test_c02_mixture_validity():
    rng = np.random.default_rng(7)
    cfg = ModelConfig(K=3, feature_downsample=40, hidden_sizes=(8,), seed=3)
    params = mdn.init_params(cfg)
    params.theta = params.theta + rng.normal(0, 0.2, params.theta.shape)
    worst_sum = 0.0
    worst_integral = 0.0
    for _ in range(1000):
        obs = PatchObservation(rng.normal(0, 5, (160, 160)), float(rng.uniform(1, 4)))
        mix = mdn.mdn_forward(params, obs)
        worst_sum = max(worst_sum, abs(float(mix.pi.sum()) - 1.0))
        assert np.all(mix.pi >= 0)
        assert np.all(mix.sigma >= cfg.sigma_floor)
        lo = float((mix.mu - 8 * mix.sigma).min())
        hi = float((mix.mu + 8 * mix.sigma).max())
        grid = np.linspace(lo, hi, 4001)
        integral = float(np.trapezoid(mdn.mdn_pdf(mix, grid), grid))
        worst_integral = max(worst_integral, abs(integral - 1.0))
    assert worst_sum <= 1e-6
    assert worst_integral <= 1e-4
    print(f"\n[ACCEPTANCE] 2 mixture validity: PASS "
          f"(max |sum pi - 1| {worst_sum:.1e}, max |integral - 1| {worst_integral:.1e})")


def test_c03_mse_equivalence():
    rng = np.random.default_rng(3)
    rows = []
    for i in range(40):
        z = float(rng.uniform(1.0, 4.0))
        rows.append(mdn.DataRow(np.zeros((160, 160), np.int16), z, 2.0 + 3.0 * z,
                                "train" if i < 30 else "eval"))
    ds = mdn.Dataset(rows)
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
    gap = float(np.abs(preds - ls_pred).max())
    assert gap <= 1e-3
    print(f"\n[ACCEPTANCE] 3 MSE equivalence: PASS (max |mdn - lstsq| {gap:.2e} g)")


def test_c04_selection_oracle():
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(100):
        n = int(rng.integers(1, 50))
        mus = rng.uniform(0, 50, n)
        sigmas = rng.uniform(0.05, 8.0, n)
        mask = rng.random(n) < 0.25
        mus[mask] = 0.0
        sigmas[mask] = math.inf
        target = float(rng.uniform(0.5, 45))
        alpha = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
        idx, feas = select._pick(target, alpha, mus, sigmas)
        # independent brute-force oracle
        best = None
        want_feas = []
        for i, (mu, sg) in enumerate(zip(mus, sigmas)):
            ok = math.isfinite(sg) and (target + alpha * sg < mu)
            want_feas.append(ok)
            if ok:
                score = abs(target - mu) + sg
                if best is None or score < best[1]:
                    best = (i, score)
        assert idx == (best[0] if best else None)
        assert list(feas) == want_feas
        # alpha-monotone feasible-set shrinkage
        prev = None
        for a in (0.0, 0.5, 1.0, 2.0):
            _, f = select._pick(target, a, mus, sigmas)
            f = np.asarray(f)
            if prev is not None:
                assert np.all(f <= prev)
            prev = f
        checked += 1
    assert checked == 100
    print("\n[ACCEPTANCE] 4 selection oracle: PASS "
          "(100 random sets, winner+feasibility exact, alpha-monotone)")


def test_c05_threshold_semantics(monkeypatch, sim_config):
    cfg = EpisodeConfig.default(sim_config)
    model = mdn.init_params(ModelConfig(K=1, feature_downsample=40, hidden_sizes=(8,)))
    heap = sim.init_heap(sim_config, seed=1)

    def force(grasped_seq):
        seq = iter(grasped_seq)
        monkeypatch.setattr(pipeline, "select_grasp",
                            lambda *a, **k: SelectedGrasp(200, 150, 3.0, 25.0, 1.0, 0))
        monkeypatch.setattr(pipeline, "execute_grasp",
                            lambda *a, **k: GraspOutcome(g := next(seq), g, 0.0, []))
        monkeypatch.setattr(pipeline, "apply_pregrasp", lambda *a, **k: None)
        monkeypatch.setattr(pipeline, "release_mass", lambda *a, **k: None)

    # grasped exactly target - 2.0 -> retry
    force([20.0, 23.0])
    r = pipeline.run_inference_episode(model, heap, 22.0, 1.0, cfg, np.random.default_rng(0))
    assert r.retries == 1
    # just above the retry threshold -> no retry
    force([20.1])
    r = pipeline.run_inference_episode(model, heap, 22.0, 1.0, cfg, np.random.default_rng(0))
    assert r.retries == 0 and r.postgrasp_trace == []
    # grasped exactly target + 2.0 -> post-grasp engages
    force([24.0])
    r = pipeline.run_inference_episode(model, heap, 22.0, 1.0, cfg, np.random.default_rng(1))
    assert len(r.postgrasp_trace) > 0
    # just below the post-grasp threshold -> place directly
    force([23.9])
    r = pipeline.run_inference_episode(model, heap, 22.0, 1.0, cfg, np.random.default_rng(1))
    assert r.postgrasp_trace == [] and r.final_mass == 23.9
    print("\n[ACCEPTANCE] 5 threshold semantics: PASS "
          "(retry iff grasped <= target-2.0, post-grasp iff grasped >= target+2.0)")


def test_c06_conservation(sim_config, trained_model):
    p50 = ex._targets_from_model(trained_model, (50,))[0]
    summary, _ = ex.run_episode_batch(sim_config, trained_model, p50, 1.0, 200,
                                      seed=424242, trace=False)
    cum = abs(summary["ledger"]["cumulative_imbalance_g"])
    worst = summary["ledger"]["max_abs_imbalance_g"]
    assert cum <= 1e-6
    # calibration gate: the full pipeline lands within +-2 g at least 80% of
    # the time at the median target
    assert summary["success"]["band_2g"] >= 0.80
    print(f"\n[ACCEPTANCE] 6 conservation: PASS "
          f"(200 episodes at the median target, cumulative |imbalance| {cum:.2e} g, "
          f"worst episode {worst:.2e} g, +-2 g success "
          f"{100 * summary['success']['band_2g']:.1f}%)")


def test_c07_directional_reproduction(study_reports, trained_model):
    reports, elapsed = study_reports
    targets = ex._targets_from_model(trained_model, (10, 50, 70))

    t1 = reports["TABLE1"]
    for target in targets:
        assert cell(t1, "alpha=1", target) > cell(t1, "alpha=0", target), \
            f"TABLE1 direction failed at target {target}"

    t2 = reports["TABLE2"]
    for drop in (3.0, 5.0, 10.0):
        assert cell(t2, "pregrasp=on", drop, 2.0) > cell(t2, "pregrasp=off", drop, 2.0), \
            f"TABLE2 direction failed at drop {drop}"

    t3 = reports["TABLE3"]
    for band in (2.0, 3.0, 4.0, 5.0):
        assert cell(t3, "spines=on", 10.0, band) > cell(t3, "spines=off", 10.0, band), \
            f"TABLE3 direction failed at band {band}"

    t4 = reports["TABLE4"]
    for target in targets:
        for band in (2.0, 3.0, 4.0):
            assert cell(t4, "ours", target, band) > cell(t4, "baseline", target, band), \
                f"TABLE4 direction failed at ({target}, {band})"

    assert elapsed < 300.0
    margins, strength = {}, {}
    for p, target in zip((10, 50, 70), targets):
        margins[f"TABLE1 p{p}"] = cell(t1, "alpha=1", target) - cell(t1, "alpha=0", target)
        strength[f"TABLE1 p{p}"] = paired_std_units(t1, target)
        for band in (2.0, 3.0, 4.0):
            margins[f"TABLE4 p{p} +-{band:.0f} g"] = (cell(t4, "ours", target, band)
                                                   - cell(t4, "baseline", target, band))
            strength[f"TABLE4 p{p} +-{band:.0f} g"] = paired_std_units(t4, target, band)
    for drop in (3.0, 5.0, 10.0):
        margins[f"TABLE2 drop {drop:.0f} g"] = (cell(t2, "pregrasp=on", drop, 2.0)
                                               - cell(t2, "pregrasp=off", drop, 2.0))
        strength[f"TABLE2 drop {drop:.0f} g"] = paired_std_units(t2, drop, 2.0)
    for band in (2.0, 3.0, 4.0, 5.0):
        margins[f"TABLE3 +-{band:.0f} g"] = (cell(t3, "spines=on", 10.0, band)
                                             - cell(t3, "spines=off", 10.0, band))
        strength[f"TABLE3 +-{band:.0f} g"] = paired_std_units(t3, 10.0, band)
    thinnest = min(margins, key=margins.get)
    weakest = min(strength, key=strength.get)
    print(f"\n[ACCEPTANCE] 7 directional reproduction: PASS "
          f"(all four studies, 200 episodes/cell, {elapsed:.0f}s < 300s; "
          f"thinnest of {len(margins)}: {thinnest} by {margins[thinnest]:.2f} pp; "
          f"weakest in paired std: {weakest} at {strength[weakest]:.2f} std)")


def test_c08_histogram_modality(sim_config):
    multi = pipeline.run_collection(sim_config, 200, seed=101)
    single = pipeline.run_collection(sim_config, 200, zpool=(3.0,), seed=101)
    m_modes = ex.count_modes(ex.mass_histogram(multi, 2.0, split="train"))
    s_modes = ex.count_modes(ex.mass_histogram(single, 2.0, split="train"))
    assert m_modes >= 2
    assert s_modes == 1
    print(f"\n[ACCEPTANCE] 8 histogram modality: PASS "
          f"(multi-depth {m_modes} modes, single-depth {s_modes})")


def test_c09_bootstrap_sanity():
    successes = [1] * 88 + [0] * 12
    mean, std = ex.bootstrap(successes, 10_000, seed=3)
    binom = 100 * math.sqrt(0.88 * 0.12 / 100)
    assert abs(mean - 88.0) <= 0.5
    assert abs(std - binom) <= 0.5
    print(f"\n[ACCEPTANCE] 9 bootstrap sanity: PASS "
          f"(mean {mean:.2f}% vs 88%, std {std:.2f}% vs binomial {binom:.2f}%)")


def test_c10_determinism_from_manifest(tmp_path):
    def replay(manifest_path, out_key, new_out):
        with open(manifest_path) as f:
            manifest = json.load(f)
        argv = list(manifest["argv"])
        argv[argv.index("--out") + 1] = str(new_out)
        assert cli.main(argv) == 0

    ds = tmp_path / "d.jsonl"
    assert cli.main(["collect", "--n", "12", "--seed", "5", "--out", str(ds)]) == 0
    replay(str(ds) + ".manifest.json", "--out", tmp_path / "d2.jsonl")
    assert ds.read_bytes() == (tmp_path / "d2.jsonl").read_bytes()

    model = tmp_path / "m.json"
    assert cli.main(["train", str(ds), "--seed", "2", "--out", str(model)]) == 0
    replay(str(model) + ".manifest.json", "--out", tmp_path / "m2.json")
    assert model.read_bytes() == (tmp_path / "m2.json").read_bytes()

    rep = tmp_path / "t3.json"
    assert cli.main(["experiment", "TABLE3", "--episodes", "30", "--seed", "6",
                     "--out", str(rep)]) == 0
    replay(str(rep) + ".manifest.json", "--out", tmp_path / "t3b.json")
    assert rep.read_bytes() == (tmp_path / "t3b.json").read_bytes()

    run_out = tmp_path / "runA"
    assert cli.main(["run", str(model), "--target", "20", "--episodes", "4",
                     "--seed", "9", "--out", str(run_out)]) == 0
    with open(str(run_out) + ".manifest.json") as f:
        manifest = json.load(f)
    argv = list(manifest["argv"])
    argv[argv.index("--out") + 1] = str(tmp_path / "runB")
    assert cli.main(argv) == 0
    assert (tmp_path / "runA_summary.json").read_bytes() == (tmp_path / "runB_summary.json").read_bytes()
    assert (tmp_path / "runA_traces.jsonl").read_bytes() == (tmp_path / "runB_traces.jsonl").read_bytes()
    print("\n[ACCEPTANCE] 10 determinism: PASS "
          "(collect/train/run/experiment byte-identical on manifest replay)")
