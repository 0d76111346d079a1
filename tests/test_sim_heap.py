import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage
from scipy.special import ndtr

from entpick import sim


def flat_config(fill=50.0, rho=0.08, lam=0.0, **kw):
    kw.setdefault("slip_g", 0.0)
    return sim.SimConfig(
        fill_mm=fill,
        noise=sim.NoiseParams(amp_mm=0.0),
        rho_range=(rho, rho),
        lambda_range=(lam, lam),
        **kw,
    )


# ---------------------------------------------------------------- init_heap

def test_flat_config_heights_uniform():
    heap = sim.init_heap(flat_config(), seed=3)
    assert np.all(heap.heights == 50.0)


def test_flat_config_total_mass_volume_times_density():
    heap = sim.init_heap(flat_config(), seed=3)
    # hand oracle: volume (cm^3) x density
    expected = 0.08 * (42.4 * 30.8 * 5.0)
    assert sim.total_mass(heap) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(522.368)


def test_same_seed_bitwise_identical():
    cfg = sim.SimConfig()
    a = sim.init_heap(cfg, seed=11)
    b = sim.init_heap(cfg, seed=11)
    assert a.state_digest() == b.state_digest()
    assert np.array_equal(a.heights, b.heights)


def test_different_seeds_differ():
    cfg = sim.SimConfig()
    assert sim.init_heap(cfg, 1).state_digest() != sim.init_heap(cfg, 2).state_digest()


def test_init_heap_invariants():
    heap = sim.init_heap(sim.SimConfig(), seed=5)
    w, d, depth = heap.tray_mm
    assert (w, d, depth) == (424, 308, 160)
    assert heap.heights.min() >= 0 and heap.heights.max() <= depth
    assert heap.entanglement.min() >= 0 and heap.entanglement.max() <= 1
    assert heap.bulk_density.min() > 0
    assert math.isfinite(sim.total_mass(heap)) and sim.total_mass(heap) >= 0


def test_heights_are_quantized():
    heap = sim.init_heap(sim.SimConfig(), seed=5)
    units = heap.heights * 10.0
    assert np.allclose(units, np.round(units), atol=1e-9)


def reference_smooth_fields(shape, corr_mms, rng):
    """The mm-grid field builder that init_heap replaced: four gathers, then
    every field pixel-doubled before use."""
    step = 8
    cw = shape[0] // step + 2
    ch = shape[1] // step + 2
    n = len(corr_mms)
    coarse = rng.standard_normal((n, cw, ch)).astype(np.float32)
    for i, corr in enumerate(corr_mms):
        coarse[i] = ndimage.gaussian_filter(coarse[i], sigma=max(corr / step, 0.5),
                                            mode="reflect")
    coarse -= coarse.mean(axis=(1, 2), keepdims=True)
    sd = coarse.std(axis=(1, 2), keepdims=True)
    coarse /= np.where(sd > 0, sd, 1.0)

    half = ((shape[0] + 1) // 2, (shape[1] + 1) // 2)
    xs = (np.arange(half[0], dtype=np.float32) * 2.0 / step)
    ys = (np.arange(half[1], dtype=np.float32) * 2.0 / step)
    x0 = xs.astype(int)
    y0 = ys.astype(int)
    fx = (xs - x0)[None, :, None]
    fy = (ys - y0)[None, None, :]
    flat = coarse.reshape(n, -1)
    i00 = (x0[:, None] * ch + y0[None, :]).ravel()
    a = flat[:, i00].reshape(n, *half)
    b = flat[:, i00 + ch].reshape(n, *half)
    c = flat[:, i00 + 1].reshape(n, *half)
    d = flat[:, i00 + ch + 1].reshape(n, *half)
    out = (a * ((1 - fx) * (1 - fy)) + b * (fx * (1 - fy))
           + c * ((1 - fx) * fy) + d * (fx * fy))
    full = out.repeat(2, axis=1).repeat(2, axis=2)
    return full[:, :shape[0], :shape[1]]


def reference_init_heap(config, seed):
    """init_heap with every field on the mm grid from the interpolation on."""
    w, d, depth = config.tray_mm
    rng = np.random.default_rng(seed)
    shape = (int(w), int(d))
    corr = config.noise.corr_mm
    f_height, f_wear, f_lam, f_rho = reference_smooth_fields(
        shape, [corr, 0.75 * corr, corr, corr], rng)
    hfield = config.fill_mm + config.noise.amp_mm * f_height
    if config.noise.amp_mm > 0:
        hfield -= config.noise.wear_mm * np.maximum(f_wear - 0.7, 0.0)
        fw, fl = config.footprint_mm
        hw = int(fw / 2) + 1
        hl = int(fl / 2) + 1
        lo_n, hi_n = config.noise.craters
        d_lo, d_hi = config.noise.crater_depth_mm
        for _ in range(int(rng.integers(lo_n, hi_n + 1))):
            cx = int(rng.integers(hw, shape[0] - hw))
            cy = int(rng.integers(hl, shape[1] - hl))
            dent = float(rng.uniform(d_lo, d_hi))
            win = hfield[cx - hw:cx + hw, cy - hl:cy + hl]
            np.minimum(win, win.mean() - dent, out=win)
    heights = sim.quantize_height(np.clip(hfield, 0.0, depth))
    lo, hi = config.lambda_range
    lam = lo + (hi - lo) * ndtr(f_lam)
    rlo, rhi = config.rho_range
    rho = rlo + (rhi - rlo) * ndtr(f_rho)
    return sim.HeapState(heights, lam, rho, (int(w), int(d), int(depth)), int(seed))


def heap_fields(heap):
    return {name: getattr(heap, name) for name in
            ("heights", "entanglement", "bulk_density", "lambda_fresh", "rho_fresh")}


def sha16(a):
    return hashlib.sha256(a.tobytes()).hexdigest()[:16]


# (config, seed) -> sha256 prefixes of state_digest(), lambda_fresh and
# rho_fresh, recorded on the mm-grid field builder
PINNED_HEAPS = [
    ({}, 0, "592f3b37088367d2", "35ca316539af4c02", "aa24fd3e768a852c"),
    ({}, 7, "501865d74482b323", "61851a03881cb3be", "4e59a0a503c59ff9"),
    ({}, 20240601, "fa76fdee2b508306", "450034a635829aac", "52ee0ecc150eaf44"),
    ({"tray_mm": (425, 309, 160)}, 3, "0323d71899442b5a", "51b696cea7275871",
     "391405cacfcdb4de"),
    ({"tray_mm": (333, 257, 160)}, 5, "9441fde90ca3b81d", "f304d2ec35c6c44b",
     "4b16df7f556ba7bf"),
    ({"tray_mm": (170, 170, 160)}, 9, "017d6953032cd936", "e55e1ff1f9577423",
     "1033e04f5d3696c5"),
    ({"noise": {"amp_mm": 0.0}}, 11, "c1b50c08028f2bed", "f90e46276ed67f0d",
     "6d7c83c7a73ef3a3"),
    ({"noise": {"corr_mm": 3.0}}, 13, "1975d3a4d1c55e1e", "6f3f9f954b2dd3ab",
     "22e4a631b9af2653"),
    ({"noise": {"corr_mm": 40.0, "amp_mm": 6.0}}, 17, "1ce468f252c00a0e",
     "788660701864f879", "8d4c637767fec45e"),
]


@pytest.mark.parametrize("doc, seed, digest, lam_fresh, rho_fresh", PINNED_HEAPS)
def test_init_heap_pinned_bits(doc, seed, digest, lam_fresh, rho_fresh):
    heap = sim.init_heap(sim.SimConfig.from_dict(doc), seed)
    assert heap.state_digest()[:16] == digest
    assert sha16(heap.lambda_fresh) == lam_fresh
    assert sha16(heap.rho_fresh) == rho_fresh
    assert heap.heights.shape == tuple(heap.tray_mm[:2])
    for name, a in heap_fields(heap).items():
        assert a.dtype == np.float64, name


def grasp_sequence(doc, seed, ops_seed, steps):
    """Seeded pre-grasp/grasp/release steps on a fresh heap; every third
    step grasps as close to a tray corner as the footprint allows, so the
    clamped boxes and clipped clump disks come into play. Returns the
    heap's final state_digest() prefix and the sha256 prefix of the
    grasped masses (-1 where the depth fails the floor rule)."""
    cfg = sim.SimConfig.from_dict(doc)
    heap = sim.init_heap(cfg, seed)
    rng = np.random.default_rng(ops_seed)
    w, d, _ = heap.tray_mm
    fw, fl = cfg.footprint_mm
    hx, hy = int(fw / 2) + 1, int(fl / 2) + 1
    masses = []
    for i in range(steps):
        if i % 3 == 0:
            x = int(rng.choice([hx, w - hx]))
            y = int(rng.choice([hy, d - hy]))
        else:
            x = int(rng.integers(hx, w - hx + 1))
            y = int(rng.integers(hy, d - hy + 1))
        z = float(rng.choice([2.0, 3.0, 4.0]))
        if not sim.clears_floor(sim.local_median_height(heap, x, y), z, cfg.clearance_mm):
            masses.append(-1.0)
            continue
        sim.apply_pregrasp(heap, x, y, z, rng, cfg)
        out = sim.execute_grasp(heap, x, y, z, rng, cfg)
        masses.append(out.grasped_mass)
        if i % 2 == 0:
            sim.release_mass(heap, x, y, out.grasped_mass, cfg)
    return heap.state_digest()[:16], sha16(np.asarray(masses))


# (config, heap seed) -> the two prefixes of grasp_sequence(doc, seed,
# seed + 1, 100), recorded before the disk and box helpers were shared
PINNED_GRASP_SEQUENCES = [
    ({}, 4, "e94f44ae3c10e835", "def1970160a313ae"),
    ({"tray_mm": (170, 170, 160)}, 9, "b5a5814885a765c6", "8ab208d8bc86640b"),
    ({"slump_strength": 0.0}, 21, "b41b89c38ecdece0", "a8857781bea29a1d"),
    ({"tray_mm": (425, 309, 160)}, 33, "857a4f531d42c95b", "7fa8b69185a3b518"),
]


@pytest.mark.parametrize("doc, seed, digest, masses", PINNED_GRASP_SEQUENCES)
def test_grasp_operations_pinned_bits(doc, seed, digest, masses):
    assert grasp_sequence(doc, seed, seed + 1, 100) == (digest, masses)


@given(w=st.integers(43, 440), d=st.integers(25, 320),
       corr=st.floats(1.0, 60.0), amp=st.one_of(st.just(0.0), st.floats(0.05, 8.0)),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_init_heap_matches_mm_grid_reference(w, d, corr, amp, seed):
    cfg = sim.SimConfig(tray_mm=(w, d, 160),
                        noise=sim.NoiseParams(amp_mm=amp, corr_mm=corr))
    got = heap_fields(sim.init_heap(cfg, seed))
    want = heap_fields(reference_init_heap(cfg, seed))
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        assert got[name].shape == (w, d), name
        assert got[name].tobytes() == want[name].tobytes(), name


@pytest.mark.parametrize("tray", [(424, 308, 160), (425, 309, 160), (170, 171, 160)])
def test_init_heap_fields_are_owned_and_separate(tray):
    heap = sim.init_heap(sim.SimConfig(tray_mm=tray), seed=2)
    fields = heap_fields(heap)
    for name, a in fields.items():
        assert a.flags.writeable and a.flags.c_contiguous and a.flags.owndata, name
    names = list(fields)
    for i, p in enumerate(names):
        for q in names[i + 1:]:
            assert not np.shares_memory(fields[p], fields[q]), (p, q)


@pytest.mark.parametrize("bad", [
    dict(tray_mm=(0, 308, 160)),
    dict(tray_mm=(424, -1, 160)),
    dict(rho_range=(0.0, 0.5)),
    dict(rho_range=(-0.1, 0.5)),
])
def test_rejects_bad_config(bad):
    with pytest.raises(ValueError):
        sim.SimConfig(**bad)


# ---------------------------------------------------------------- total_mass

def test_empty_heap_mass_zero():
    heap = sim.init_heap(flat_config(fill=0.0), seed=1)
    assert sim.total_mass(heap) == 0.0


def test_grasp_conserves_mass():
    cfg = flat_config(fill=80.0, rho=0.5, lam=0.6, kappa=2.0)
    heap = sim.init_heap(cfg, seed=2)
    rng = np.random.default_rng(9)
    before = sim.total_mass(heap)
    out = sim.execute_grasp(heap, 212, 154, 3.0, rng, cfg)
    after = sim.total_mass(heap)
    assert before - after == pytest.approx(out.grasped_mass, abs=1e-9)


# ---------------------------------------------------------------- observe_patch

def test_flat_heap_patch_all_zero():
    heap = sim.init_heap(flat_config(), seed=1)
    obs = sim.observe_patch(heap, 120, 120)
    assert obs.heights.shape == (160, 160)
    assert np.all(obs.heights == 0.0)


def test_seeded_heap_patch_median_zero():
    heap = sim.init_heap(sim.SimConfig(), seed=4)
    obs = sim.observe_patch(heap, 200, 150)
    assert abs(np.median(obs.heights)) <= sim.HEIGHT_QUANTUM_MM


def test_observe_patch_out_of_bounds():
    heap = sim.init_heap(sim.SimConfig(), seed=4)
    for x, y in [(79, 150), (345, 150), (200, 10), (200, 300)]:
        with pytest.raises(ValueError):
            sim.observe_patch(heap, x, y)


def window_medians(units, ix, iy, shape):
    """Reference: np.median over each materialised window."""
    sx, sy = shape
    return np.array([np.median(units[a:a + sx, b:b + sy]) for a, b in zip(ix, iy)])


def test_counting_median_matches_numpy():
    rng = np.random.default_rng(0)
    units = rng.integers(0, 1601, size=(424, 308))
    # the three scoring points of test_batch_grid_matches_single_scoring, then
    # four more, as 160 x 160 window origins
    ix = [0, 120, 264, 7, 7, 200, 131]
    iy = [0, 70, 148, 0, 61, 3, 148]
    got = sim.batch_unit_medians(units, ix, iy, (160, 160))
    want = window_medians(units, ix, iy, (160, 160))
    assert np.array_equal(got, want)


@st.composite
def grids_and_windows(draw):
    """An integer grid and windows on it: random values over a range of
    1 to 3000, a constant grid, or a single spike; the windows are a stride
    lattice (stride 1 to 40) or an arbitrary point set."""
    sx = draw(st.integers(1, 30))
    sy = draw(st.integers(1, 30))
    w = draw(st.integers(sx, sx + 60))
    d = draw(st.integers(sy, sy + 60))
    n_values = draw(st.integers(1, 3000))
    base = draw(st.integers(0, 1000))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["random", "constant", "spike"]))
    if kind == "random":
        units = base + rng.integers(0, n_values, size=(w, d))
    else:
        units = np.full((w, d), base)
        if kind == "spike":
            units[rng.integers(w), rng.integers(d)] += n_values
    if draw(st.booleans()):
        stride = draw(st.integers(1, 40))
        xs = np.arange(0, w - sx + 1, stride)
        ys = np.arange(0, d - sy + 1, stride)
        ix, iy = (a.ravel() for a in np.meshgrid(xs, ys, indexing="ij"))
    else:
        pts = draw(st.lists(st.tuples(st.integers(0, w - sx), st.integers(0, d - sy)),
                            min_size=1, max_size=12))
        ix, iy = (np.array(a) for a in zip(*pts))
    return units, ix, iy, (sx, sy)


@given(grids_and_windows())
@settings(max_examples=150, deadline=None)
def test_window_medians_match_numpy(case):
    units, ix, iy, shape = case
    got = sim.batch_unit_medians(units, ix, iy, shape)
    assert np.array_equal(got, window_medians(units, ix, iy, shape))


@pytest.mark.parametrize("shape", [(7, 20), (8, 21)])
def test_window_medians_slide_and_rebuild(shape):
    """Bands at iy 5, 13 and 25 overlap their predecessor, so the strip
    histograms slide (by 5, 8 and 12 columns). The bands at 50 and 74 do
    not (25 + sy <= 50, 50 + sy <= 74), so they are counted afresh, and 78
    slides again. Each band has its own set of x offsets."""
    sx, sy = shape
    rng = np.random.default_rng(sx)
    units = rng.integers(100, 700, size=(60, 100))
    units[20:30, 40:60] = 50      # a pit the later bands slide over
    bands = {0: [0, 3, 17], 5: [10], 13: [0, 14, 40, 60 - sx],
             25: [7, 21], 50: [0, 35], 74: [4], 78: [4, 11, 46]}
    ix = np.array([x for xs in bands.values() for x in xs])
    iy = np.array([y for y, xs in bands.items() for _ in xs])
    # scrambled order: the kernel sorts the bands itself
    order = rng.permutation(ix.size)
    got = sim.batch_unit_medians(units, ix[order], iy[order], shape)
    assert np.array_equal(got, window_medians(units, ix[order], iy[order], shape))


def test_window_medians_reject_windows_outside_grid():
    units = np.zeros((20, 10), dtype=np.int64)
    for ix, iy in (([-1], [0]), ([0], [-1]), ([5], [0]), ([0], [1])):
        with pytest.raises(ValueError):
            sim.batch_unit_medians(units, ix, iy, (16, 10))
    with pytest.raises(ValueError):
        sim.batch_unit_medians(units, [0], [0], (0, 10))
    assert sim.batch_unit_medians(units, [], [], (16, 10)).shape == (0,)


# ---------------------------------------------------------------- execute_grasp

def test_grasp_base_mass_closed_form():
    # eta 1, flat rho 0.1, footprint 40 x 22.5 mm, z 2 cm, no entanglement
    cfg = flat_config(fill=50.0, rho=0.1, eta_fill=1.0)
    heap = sim.init_heap(cfg, seed=1)
    rng = np.random.default_rng(0)
    out = sim.execute_grasp(heap, 212, 154, 2.0, rng, cfg)
    assert out.base_mass == pytest.approx(0.1 * (4.0 * 2.25 * 2.0), rel=1e-12)
    assert out.entangled_extra == 0.0
    assert out.clump_masses == []


def test_zero_kappa_never_entangles():
    cfg = flat_config(fill=60.0, rho=0.3, lam=0.9, kappa=0.0)
    heap = sim.init_heap(cfg, seed=1)
    rng = np.random.default_rng(5)
    for i in range(10):
        out = sim.execute_grasp(heap, 150 + 10 * i, 160, 2.0, rng, cfg)
        assert out.entangled_extra == 0.0


def test_outcome_identity():
    cfg = flat_config(fill=80.0, rho=0.5, lam=0.7, kappa=3.0)
    heap = sim.init_heap(cfg, seed=8)
    rng = np.random.default_rng(8)
    out = sim.execute_grasp(heap, 212, 154, 3.0, rng, cfg)
    assert out.grasped_mass == pytest.approx(out.base_mass + out.entangled_extra, abs=1e-12)
    assert out.entangled_extra == pytest.approx(math.fsum(out.clump_masses), abs=1e-12)
    assert out.entangled_extra >= 0


def test_grasp_monte_carlo_mean_matches_compound_poisson():
    # fixed lambda so the Poisson rate is exact; deep flat heap so clump
    # removal never hits the tray floor
    lam = 0.4
    cfg = sim.SimConfig(
        tray_mm=(220, 220, 160),
        fill_mm=120.0,
        noise=sim.NoiseParams(amp_mm=0.0),
        rho_range=(0.6, 0.6),
        lambda_range=(lam, lam),
        kappa=2.5,
        eta_fill=1.0,
        slip_g=0.0,
        clump_lognormal=sim.ClumpParams(mu=0.79, sigma=0.5, r_mm=14.0),
    )
    heap = sim.init_heap(cfg, seed=1)
    x, y, z = 110, 110, 2.0
    rng = np.random.default_rng(12345)

    saved = heap.heights.copy()
    n = 10_000
    grasped = np.empty(n)
    for i in range(n):
        out = sim.execute_grasp(heap, x, y, z, rng, cfg)
        grasped[i] = out.grasped_mass
        heap.heights[:] = saved  # restore; grasps only mutate heights

    base = 0.6 * (4.0 * 2.25 * 2.0)
    rate = cfg.kappa * lam
    clump_mean = math.exp(0.79 + 0.5 * 0.5 ** 2)
    analytic_mean = base + rate * clump_mean
    # compound Poisson variance: rate * E[C^2]
    var = rate * math.exp(2 * 0.79 + 2 * 0.5 ** 2)
    se = math.sqrt(var / n)
    assert abs(grasped.mean() - analytic_mean) < 3 * se


def test_grasp_footprint_outside_tray():
    cfg = flat_config()
    heap = sim.init_heap(cfg, seed=1)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="outside tray"):
        sim.execute_grasp(heap, 5, 154, 2.0, rng, cfg)


def test_grasp_floor_collision():
    cfg = flat_config(fill=30.0)
    heap = sim.init_heap(cfg, seed=1)
    rng = np.random.default_rng(0)
    # 30 mm of material, 5 mm clearance: z = 2.6 cm strikes the floor
    with pytest.raises(ValueError, match="floor"):
        sim.execute_grasp(heap, 212, 154, 2.6, rng, cfg)
    sim.execute_grasp(heap, 212, 154, 2.5, rng, cfg)


def test_grasp_determinism():
    cfg = sim.SimConfig()
    outs = []
    digests = []
    for _ in range(2):
        heap = sim.init_heap(cfg, seed=6)
        rng = np.random.default_rng(77)
        out = sim.execute_grasp(heap, 200, 150, 3.0, rng, cfg)
        outs.append(out)
        digests.append(heap.state_digest())
    assert outs[0] == outs[1]
    assert digests[0] == digests[1]


# ---------------------------------------------------------------- apply_pregrasp

def test_pregrasp_scales_lambda_inside_radius_only():
    cfg = flat_config(fill=60.0, lam=0.8, pregrasp=sim.PregraspParams(beta=0.5, f=1.15, r_mm=40.0))
    heap = sim.init_heap(cfg, seed=1)
    rng = np.random.default_rng(0)
    sim.apply_pregrasp(heap, 212, 154, 2.0, rng, cfg)
    assert heap.entanglement[212, 154] == pytest.approx(0.4)
    assert heap.entanglement[212, 154 + 39] == pytest.approx(0.4)
    assert heap.entanglement[212, 154 + 45] == pytest.approx(0.8)


def test_pregrasp_composition():
    cfg = flat_config(fill=60.0, lam=0.8, pregrasp=sim.PregraspParams(beta=0.5, f=1.15, r_mm=40.0))
    heap = sim.init_heap(cfg, seed=1)
    rng = np.random.default_rng(0)
    sim.apply_pregrasp(heap, 212, 154, 2.0, rng, cfg)
    sim.apply_pregrasp(heap, 212, 154, 2.0, rng, cfg)
    assert heap.entanglement[212, 154] == pytest.approx(0.2)


def test_pregrasp_preserves_mass_and_raises_heights():
    cfg = sim.SimConfig()
    heap = sim.init_heap(cfg, seed=9)
    rng = np.random.default_rng(0)
    before = sim.total_mass(heap)
    h_before = heap.heights[212, 154]
    sim.apply_pregrasp(heap, 212, 154, 3.0, rng, cfg)
    assert sim.total_mass(heap) == pytest.approx(before, abs=1e-9)
    assert heap.heights[212, 154] >= h_before
    heap.validate()


def test_pregrasp_never_increases_lambda():
    cfg = sim.SimConfig()
    heap = sim.init_heap(cfg, seed=9)
    lam_before = heap.entanglement.copy()
    sim.apply_pregrasp(heap, 212, 154, 3.0, np.random.default_rng(0), cfg)
    assert np.all(heap.entanglement <= lam_before + 1e-15)


# ---------------------------------------------------------------- release_mass

def test_release_returns_exact_mass():
    cfg = sim.SimConfig()
    heap = sim.init_heap(cfg, seed=3)
    before = sim.total_mass(heap)
    sim.release_mass(heap, 212, 154, 23.456789, cfg)
    assert sim.total_mass(heap) - before == pytest.approx(23.456789, abs=1e-9)
    assert heap.heights.max() <= heap.tray_mm[2]


def test_release_zero_is_noop():
    cfg = sim.SimConfig()
    heap = sim.init_heap(cfg, seed=3)
    digest = heap.state_digest()
    sim.release_mass(heap, 212, 154, 0.0, cfg)
    assert heap.state_digest() == digest
