import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entpick import mdn, pipeline, select, sim
from entpick.select import SelectionConfig


def lattice_of(heap, xy, zs, config):
    """The ``select._Lattice`` of points and depths on the heap's grid."""
    return select._lattice(heap.heights.shape, xy, zs, config.pooled_side)


def brute_force_pick(target, alpha, mus, sigmas):
    """Independent oracle: plain-python scan over all candidates."""
    best = None
    feasible_set = []
    for i, (mu, sigma) in enumerate(zip(mus, sigmas)):
        feasible = math.isfinite(sigma) and (target + alpha * sigma < mu)
        feasible_set.append(feasible)
        if not feasible:
            continue
        score = abs(target - mu) + sigma
        if best is None or score < best[1]:
            best = (i, score)
    return (best[0] if best else None), feasible_set


# ---------------------------------------------------------------- enumerate

def test_lattice_count_hand_derived():
    # interior 300 x 200 px, stride 15, 9 z values -> 21 * 14 * 9 = 2646
    cands = select.enumerate_candidates((460, 360, 160))
    assert len(cands) == 21 * 14 * 9 == 2646


def test_stride_wider_than_interior_centres_single_point():
    # interiors of 10 and 0 px, both narrower than the 15 px stride
    cands = select.enumerate_candidates((170, 160, 160))
    assert cands == [(85, 80, z) for z in sim.Z_INFER_DEEP]


def test_degenerate_interior_empty():
    assert select.enumerate_candidates((150, 150, 160)) == []
    assert select.enumerate_candidates((424, 159, 160)) == []


def test_row_major_order_deterministic():
    cands = select.enumerate_candidates((424, 308, 160))
    assert cands == sorted(cands, key=lambda c: (c[1], c[0], c[2]))


def test_depths_must_be_whole_multiples_of_005_cm():
    """The lattice is a class constant, readable on any config, and each
    depth is a whole number of the 0.05 mm units ``_capture_sums`` needs."""
    cfg = SelectionConfig(target_mass_g=20.0, alpha=0.5)
    assert (cfg.stride_px, cfg.margin_px, cfg.z_candidates_cm) == (
        15, sim.PATCH_MARGIN, sim.Z_INFER_DEEP)
    assert [f.name for f in dataclasses.fields(cfg)] == ["target_mass_g", "alpha"]
    for z in cfg.z_candidates_cm:
        assert (z * mdn.DEPTH_UNITS_PER_CM).is_integer(), z


# ---------------------------------------------------------------- score_candidate

@pytest.fixture(scope="module")
def heap_and_model():
    cfg = sim.SimConfig()
    heap = sim.init_heap(cfg, seed=5)
    mcfg = mdn.ModelConfig(K=2, feature_downsample=20, hidden_sizes=(16,), seed=3)
    model = mdn.init_params(mcfg)
    return cfg, heap, model


def test_floor_collision_masked_to_zero_inf(heap_and_model):
    cfg, heap, model = heap_and_model
    # deeper than the fill: local median ~130 mm, z = 13.5 cm
    mu, sigma = select.score_candidate(model, heap, 200, 150, 13.5)
    assert mu == 0.0 and sigma == math.inf
    # never feasible for a positive target at any alpha
    for alpha in (0.0, 0.5, 1.0, 2.0):
        idx, feas = select._pick(20.0, alpha, np.array([mu]), np.array([sigma]))
        assert idx is None and feas[0] == False  # noqa: E712


def test_score_candidate_matches_manual_composition(heap_and_model):
    cfg, heap, model = heap_and_model
    x, y, z = 200, 150, 3.0
    mu, sigma = select.score_candidate(model, heap, x, y, z)
    obs = sim.observe_patch(heap, x, y)
    mix = mdn.mdn_forward(model, mdn.PatchObservation(obs.heights, z))
    want_mu, want_sigma = mdn.mixture_moments(mix)
    assert mu == want_mu and sigma == want_sigma


def test_score_candidate_pure(heap_and_model):
    cfg, heap, model = heap_and_model
    a = select.score_candidate(model, heap, 215, 163, 2.5)
    b = select.score_candidate(model, heap, 215, 163, 2.5)
    assert a == b


def test_batch_grid_matches_single_scoring(heap_and_model):
    cfg, heap, model = heap_and_model
    xy = [(80, 80), (200, 150), (344, 228)]
    zs = (2.0, 3.0, 4.0)
    mu, sigma = select._score_grid(model, heap, lattice_of(heap, xy, zs, model.config), 5.0)
    for i, (x, y) in enumerate(xy):
        for j, z in enumerate(zs):
            mu1, sigma1 = select.score_candidate(model, heap, x, y, z)
            assert mu[i, j] == pytest.approx(mu1, abs=1e-9)
            assert sigma[i, j] == pytest.approx(sigma1, abs=1e-9)


def test_score_candidate_out_of_bounds(heap_and_model):
    cfg, heap, model = heap_and_model
    with pytest.raises(ValueError):
        select.score_candidate(model, heap, 40, 150, 2.0)


# ---------------------------------------------------------------- select_grasp logic

def test_select_hand_case_two_candidates():
    # A: mu 25 sigma 1, B: mu 30 sigma 4, target 22, alpha 1 -> both feasible,
    # scores 4 vs 12 -> A
    mus = np.array([25.0, 30.0])
    sigmas = np.array([1.0, 4.0])
    idx, feas = select._pick(22.0, 1.0, mus, sigmas)
    assert list(feas) == [True, True]
    assert idx == 0


def test_select_no_feasible_returns_none():
    idx, _ = select._pick(40.0, 1.0, np.array([25.0, 30.0]), np.array([1.0, 4.0]))
    assert idx is None


def test_select_strict_inequality_at_boundary():
    # alpha 0, target 22: mu 21.9 infeasible (22 < 21.9 false), mu 23 wins
    mus = np.array([21.9, 23.0])
    sigmas = np.array([0.5, 0.5])
    idx, feas = select._pick(22.0, 0.0, mus, sigmas)
    assert list(feas) == [False, True]
    assert idx == 1
    # exactly equal is also infeasible (strict <)
    idx2, feas2 = select._pick(22.0, 0.0, np.array([22.0]), np.array([0.0001]))
    assert list(feas2) == [False] and idx2 is None


def test_select_oracle_equivalence_random_sets():
    rng = np.random.default_rng(17)
    for trial in range(100):
        n = int(rng.integers(1, 40))
        mus = rng.uniform(0, 50, n)
        sigmas = rng.uniform(0.05, 8.0, n)
        mask = rng.random(n) < 0.2
        mus[mask] = 0.0
        sigmas[mask] = math.inf
        target = float(rng.uniform(0, 45))
        alpha = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
        idx, feas = select._pick(target, alpha, mus, sigmas)
        want_idx, want_feas = brute_force_pick(target, alpha, mus, sigmas)
        assert idx == want_idx
        assert list(feas) == want_feas


def test_alpha_monotone_feasible_shrinkage():
    rng = np.random.default_rng(23)
    alphas = [0.0, 0.5, 1.0, 2.0]
    for _ in range(30):
        n = 25
        mus = rng.uniform(0, 50, n)
        sigmas = rng.uniform(0.05, 8.0, n)
        target = float(rng.uniform(5, 40))
        prev = None
        for alpha in alphas:
            _, feas = select._pick(target, alpha, mus, sigmas)
            feas = np.asarray(feas)
            if prev is not None:
                assert np.all(feas <= prev)  # subset
            prev = feas


def test_order_invariance_under_permutation():
    rng = np.random.default_rng(31)
    mus = rng.uniform(10, 40, 30)
    sigmas = rng.uniform(0.1, 5.0, 30)
    target, alpha = 20.0, 1.0
    idx, _ = select._pick(target, alpha, mus, sigmas)
    # permute, pick, and map back: same candidate wins
    for _ in range(10):
        perm = rng.permutation(30)
        pidx, _ = select._pick(target, alpha, mus[perm], sigmas[perm])
        # scores may tie only at identical (mu, sigma); map winner back
        assert (mus[perm][pidx], sigmas[perm][pidx]) == (mus[idx], sigmas[idx])


def test_infinite_sigma_never_beats_finite():
    mus = np.array([0.0, 25.0])
    sigmas = np.array([math.inf, 2.0])
    idx, _ = select._pick(20.0, 1.0, mus, sigmas)
    assert idx == 1


# ---------------------------------------------------------------- end-to-end

def test_select_grasp_end_to_end_agrees_with_per_candidate_scan(heap_and_model):
    cfg, heap, model = heap_and_model
    scfg = SelectionConfig(target_mass_g=15.0, alpha=1.0)
    sel = select.select_grasp(model, heap, scfg)
    cands = select.enumerate_candidates(heap.tray_mm, scfg)
    mus, sigmas = [], []
    for x, y, z in cands:
        mu, sigma = select.score_candidate(model, heap, x, y, z)
        mus.append(mu)
        sigmas.append(sigma)
    want_idx, _ = brute_force_pick(15.0, 1.0, mus, sigmas)
    if want_idx is None:
        assert sel is None
    else:
        assert sel is not None
        assert (sel.x, sel.y, sel.z_cm) == cands[want_idx]


def test_selection_report_shape(heap_and_model):
    cfg, heap, model = heap_and_model
    scfg = SelectionConfig(target_mass_g=15.0, alpha=0.5)
    report = select.selection_report(model, heap, scfg)
    assert report["n_candidates"] == len(report["candidates"])
    for row in report["candidates"]:
        assert set(row) == {"x", "y", "z_cm", "mu_g", "sigma_g", "feasible", "score"}
    if report["winner"] is not None:
        w = report["winner"]
        assert report["candidates"][w["index"]]["feasible"]


# all feasible; some feasible, where the best score overall is infeasible;
# none feasible; a 170 x 160 tray, whose lattice is one point
@pytest.mark.parametrize("target, alpha, tray", [
    (2.0, 0.5, None), (19.5, 0.0, None), (15.0, 0.5, None),
    pytest.param(2.0, 0.5, (170, 160, 160), id="2.0-0.5-one_point")])
def test_selection_report_agrees_with_score_all_and_select(heap_and_model, target, alpha, tray):
    """The report against scoring all candidates (``_score_lattice``), picked
    by ``brute_force_pick``, and against ``select_grasp``."""
    cfg, heap, model = heap_and_model
    if tray is not None:
        cfg = sim.SimConfig(tray_mm=tray)
        heap = sim.init_heap(cfg, seed=5)
    scfg = SelectionConfig(target_mass_g=target, alpha=alpha)
    report = select.selection_report(model, heap, scfg)
    cands, mus, sigmas = select._score_lattice(model, heap, cfg.clearance_mm)
    want_idx, want_feasible = brute_force_pick(target, alpha, mus.tolist(), sigmas.tolist())
    rows = []
    for (x, y, z), mu, sigma, ok in zip(cands, mus.tolist(), sigmas.tolist(), want_feasible):
        score = abs(target - mu) + sigma
        rows.append({"x": x, "y": y, "z_cm": z, "mu_g": mu,
                     "sigma_g": sigma if math.isfinite(sigma) else "inf", "feasible": ok,
                     "score": score if math.isfinite(score) else "inf"})
    assert report["n_candidates"] == len(cands)
    assert report["candidates"] == rows
    sel = select.select_grasp(model, heap, scfg)
    if want_idx is None:
        assert sel is None and report["winner"] is None
    else:
        x, y, z = cands[want_idx]
        assert report["winner"] == {"index": want_idx, "x": x, "y": y, "z_cm": z,
                                    "mu_g": mus[want_idx], "sigma_g": sigmas[want_idx]}
        assert report["winner"] == {"index": sel.index, "x": sel.x, "y": sel.y,
                                    "z_cm": sel.z_cm, "mu_g": sel.mu_g, "sigma_g": sel.sigma_g}


# ---------------------------------------------------------------- medians on mutated heaps

def partition_medians(units, ix, iy, shape):
    """Reference: exact window medians by materialising and partitioning."""
    win = np.stack([units[a:a + shape[0], b:b + shape[1]].ravel() for a, b in zip(ix, iy)])
    k = ((win.shape[1] + 1) // 2 - 1, win.shape[1] // 2)
    part = np.partition(win, k, axis=1)
    return (part[:, k[0]].astype(np.float64) + part[:, k[1]]) / 2.0


@pytest.fixture(scope="module")
def mutated_heap():
    """A seeded heap after 20 grasps and 5 releases; its heights are still
    on the 0.1 mm grid."""
    cfg = sim.SimConfig()
    heap = sim.init_heap(cfg, seed=11)
    rng = np.random.default_rng(12)
    for i in range(1, 21):
        x = int(rng.integers(100, 325))
        y = int(rng.integers(90, 219))
        out = sim.execute_grasp(heap, x, y, 2.0, rng, cfg)
        if i % 4 == 0:
            sim.release_mass(heap, x, y, out.grasped_mass, cfg)
    units = heap.heights * 10.0
    assert np.array_equal(units, np.round(units))
    return heap


def test_grid_medians_equal_local_median_on_mutated_heap(mutated_heap, heap_and_model,
                                                         monkeypatch):
    model = heap_and_model[2]
    seen = []

    def spy(*args):
        seen.append(sim.batch_unit_medians(*args))
        return seen[-1]

    monkeypatch.setattr(select, "batch_unit_medians", spy)
    scfg = SelectionConfig(target_mass_g=20.0)
    select.select_grasp(model, mutated_heap, scfg)
    xy = dict.fromkeys((x, y) for x, y, _ in select.enumerate_candidates(
        mutated_heap.tray_mm, scfg))
    assert len(seen) == 1 and len(seen[0]) == len(xy)
    for med, (x, y) in zip(seen[0] / 10.0, xy):
        assert med == sim.local_median_height(mutated_heap, x, y)


def test_selection_matches_partition_oracle_on_mutated_heap(mutated_heap, trained_model,
                                                            monkeypatch):
    scfg = SelectionConfig(target_mass_g=15.0)
    got = select.select_grasp(trained_model, mutated_heap, scfg)
    got_report = select.selection_report(trained_model, mutated_heap, scfg)
    monkeypatch.setattr(select, "batch_unit_medians", partition_medians)
    assert got is not None
    assert got == select.select_grasp(trained_model, mutated_heap, scfg)
    assert got_report == select.selection_report(trained_model, mutated_heap, scfg)


def test_tray_lattices_hold_no_cross_talk(mutated_heap, trained_model, heap_and_model):
    """Scorings alternate between a mutated default heap and a 170 x 160
    heap, under two pooled sides, so each reads the per-tray lattice of its
    own shape; every result equals the same scoring with the lattice cache
    cleared, which builds the lattice afresh."""
    small = sim.init_heap(sim.SimConfig(tray_mm=(170, 160, 160)), seed=5)
    other_model = heap_and_model[2]   # feature_downsample 20
    jobs = [(model, heap) for model in (trained_model, other_model)
            for heap in (mutated_heap, small)] * 2
    runs = [select._score_lattice(model, heap, 5.0) for model, heap in jobs]
    for (model, heap), (cands, mu, sigma) in zip(jobs, runs):
        select._tray_lattice.cache_clear()
        fresh_cands, fresh_mu, fresh_sigma = select._score_lattice(model, heap, 5.0)
        assert cands == fresh_cands == tuple(select.enumerate_candidates(heap.tray_mm))
        assert np.array_equal(mu, fresh_mu) and np.array_equal(sigma, fresh_sigma)


def patch_features(config, heap, xy, zs):
    """``features_from_rows`` of each observed patch at each depth, shaped
    like ``_lattice_features``."""
    return np.stack([
        mdn.features_from_rows(np.repeat(sim.observe_patch(heap, int(x), int(y)).heights[None],
                                         len(zs), axis=0), np.array(zs), config)
        for x, y in xy])


def test_grid_scoring_matches_per_candidate_on_mutated_heap(mutated_heap, trained_model):
    """On a heap that was grasped and released, the lattice and the
    per-candidate path build the same features bit for bit; (mu, sigma)
    differ only by the batched forward's float order."""
    xy = [(80, 80), (140, 125), (212, 154), (290, 200), (344, 228)]
    zs = sim.Z_INFER_DEEP
    lattice = lattice_of(mutated_heap, xy, zs, trained_model.config)
    _, feats = select._lattice_features(mutated_heap, lattice)
    assert np.array_equal(feats, patch_features(trained_model.config, mutated_heap, xy, zs))
    mu, sigma = select._score_grid(trained_model, mutated_heap, lattice, 5.0)
    for i, (x, y) in enumerate(xy):
        for j, z in enumerate(zs):
            mu1, sigma1 = select.score_candidate(trained_model, mutated_heap, x, y, z)
            assert abs(mu[i, j] - mu1) <= 1e-11
            assert sigma[i, j] == sigma1 or abs(sigma[i, j] - sigma1) <= 1e-11


# ---------------------------------------------------------------- the capture kernel

CAPTURE_SHAPE = (40, 24)


def lattice_footprints(heap, zs):
    """Integer grid, footprint origins and tip planes of the default lattice,
    as ``_score_grid`` builds them for the capture window."""
    xy = np.array(select._lattice_points(heap.tray_mm))
    m = sim.PATCH_MARGIN
    units = sim.height_units(heap.heights)
    med = sim.batch_unit_medians(units, xy[:, 0] - m, xy[:, 1] - m, (2 * m, 2 * m))
    tips = (2 * med).astype(np.int64)[:, None] - np.rint(np.asarray(zs) * 200).astype(np.int64)
    cw, cl = CAPTURE_SHAPE
    return xy, units, xy[:, 0] - cw // 2, xy[:, 1] - cl // 2, tips


def brute_capture_sums(units, cx, cy, tips):
    """Reference: sum of max(2u - t, 0) over each materialised footprint."""
    cw, cl = CAPTURE_SHAPE
    out = np.empty_like(tips)
    for i, (a, b) in enumerate(zip(cx, cy)):
        twice = 2 * units[a:a + cw, b:b + cl]
        for j, t in enumerate(tips[i]):
            out[i, j] = np.maximum(twice - t, 0).sum()
    return out


def test_capture_sums_exact_on_mutated_heap(mutated_heap):
    _, units, cx, cy, tips = lattice_footprints(mutated_heap, sim.Z_INFER_DEEP)
    got = select._capture_sums(units, cx, cy, CAPTURE_SHAPE, tips)
    assert got.dtype == np.int64
    assert np.array_equal(got, brute_capture_sums(units, cx, cy, tips))


def test_capture_sums_exact_below_the_tip_plane():
    heap = sim.init_heap(sim.SimConfig(), seed=5)
    # a pit 30 mm deep, deeper than the 20 mm of the shallowest depth
    heap.heights[195:215, 140:160] -= 30.0
    _, units, cx, cy, tips = lattice_footprints(heap, (2.0, 3.0, 4.0))
    got = select._capture_sums(units, cx, cy, CAPTURE_SHAPE, tips)
    assert np.array_equal(got, brute_capture_sums(units, cx, cy, tips))
    # the correction term sum(max(t - 2u, 0)) is what the kernel adds to
    # 2 sum(u) - n t; every footprint over the pit needs it at 2 cm
    cw, cl = CAPTURE_SHAPE
    footprint_sums = np.array([units[a:a + cw, b:b + cl].sum() for a, b in zip(cx, cy)])
    correction = got - (2 * footprint_sums[:, None] - cw * cl * tips)
    over_pit = (cx < 215) & (cx + cw > 195) & (cy < 160) & (cy + cl > 140)
    assert over_pit.any() and (correction[over_pit, 0] > 0).all()
    assert (correction >= 0).all()


def test_capture_sums_exact_at_the_lowest_cell():
    # planes just below, at and just above each footprint's lowest cell,
    # where the correction term starts
    rng = np.random.default_rng(4)
    units = rng.integers(0, 12, size=(30, 26))
    sx, sy = 5, 4
    cx, cy = (a.ravel() for a in np.meshgrid(np.arange(30 - sx + 1), np.arange(26 - sy + 1),
                                             indexing="ij"))
    cells = [units[a:a + sx, b:b + sy] for a, b in zip(cx, cy)]
    tips = 2 * np.array([c.min() for c in cells])[:, None] + np.arange(-2, 4)
    want = np.array([[np.maximum(2 * c - t, 0).sum() for t in row] for c, row in zip(cells, tips)])
    assert np.array_equal(select._capture_sums(units, cx, cy, (sx, sy), tips), want)


def test_capture_matches_patch_capture_volumes_on_fresh_heap():
    """At every lattice point and depth of a fresh heap, the lattice's
    features, its capture channel included, equal ``features_from_rows`` of
    the observed patch bit for bit."""
    heap = sim.init_heap(sim.SimConfig(), seed=9)
    xy = select._lattice_points(heap.tray_mm)
    zs = sim.Z_INFER_DEEP
    for downsample in (80, 20):
        cfg = mdn.ModelConfig(feature_downsample=downsample)
        medians, feats = select._lattice_features(heap, lattice_of(heap, xy, zs, cfg))
        assert feats.shape == (len(xy), len(zs), cfg.n_features)
        assert np.array_equal(feats, patch_features(cfg, heap, xy, zs))
    assert np.array_equal(medians, [sim.local_median_height(heap, x, y) for x, y in xy])


# ---------------------------------------------------------------- the floor rule

@given(clearance_half_mm=st.integers(0, 40), z_quarter_cm=st.integers(1, 16))
@settings(max_examples=20, deadline=None)
def test_floor_rule_boundary_agrees_across_stages(clearance_half_mm, z_quarter_cm):
    """On a flat heap every window median is the fill. At the depth where
    median - 10 z == clearance exactly (all values dyadic, so exact in
    float) every stage accepts; one 0.25 cm step deeper every stage masks
    or rejects."""
    clearance = clearance_half_mm / 2.0
    z = z_quarter_cm / 4.0
    deeper = z + 0.25
    fill = clearance + 10.0 * z
    cfg = sim.SimConfig(fill_mm=fill, clearance_mm=clearance, slip_g=0.0,
                        noise=sim.NoiseParams(amp_mm=0.0))
    heap = sim.init_heap(cfg, seed=1)
    x, y = 212, 154
    assert sim.local_median_height(heap, x, y) - 10.0 * z == clearance
    assert sim.clears_floor(fill, z, clearance) and not sim.clears_floor(fill, deeper, clearance)

    model = mdn.init_params(mdn.ModelConfig(K=1, feature_downsample=40, hidden_sizes=(4,)))
    _, sigma = select._score_grid(model, heap, lattice_of(heap, [(x, y)], (z, deeper),
                                                          model.config), clearance)
    assert math.isfinite(sigma[0, 0]) and sigma[0, 1] == math.inf
    assert math.isfinite(select.score_candidate(model, heap, x, y, z, clearance)[1])
    assert select.score_candidate(model, heap, x, y, deeper, clearance) == (0.0, math.inf)

    rng = np.random.default_rng(0)
    assert pipeline._random_grasp_point(heap, (deeper, z), rng, cfg)[2] == z
    with pytest.raises(RuntimeError, match="floor"):
        pipeline._random_grasp_point(heap, (deeper,), rng, cfg, max_tries=3)

    for op in (sim.apply_pregrasp, sim.execute_grasp):
        with pytest.raises(ValueError, match="floor"):
            op(heap.copy(), x, y, deeper, rng, cfg)
        op(heap.copy(), x, y, z, rng, cfg)
