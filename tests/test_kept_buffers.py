"""The contract of the kept working arrays (``sim._kept``): a warm call on
the picking path allocates no heap-sized temporary, no returned array
aliases a kept buffer, and a result stays as it was when the same buffers
serve another heap. Peaks are ``tracemalloc`` byte counts, the same on
every platform."""

import tracemalloc

import numpy as np
import pytest

from entpick import mdn, select, sim

GRID_BYTES = 424 * 308 * 8   # one float64 height grid of the default tray


def traced_peak(fn):
    """Bytes that the traced peak rises above the start while fn runs, and
    fn's result."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        return tracemalloc.get_traced_memory()[1] - start, result
    finally:
        tracemalloc.stop()


def aliases_a_kept_buffer(array) -> bool:
    return any(np.shares_memory(array, buf) for buf in sim._KEPT.values())


@pytest.fixture(scope="module")
def heaps():
    cfg = sim.SimConfig()
    return cfg, sim.init_heap(cfg, seed=11), sim.init_heap(cfg, seed=12)


def test_a_warm_local_median_allocates_no_window(heaps):
    # the counts and their cumulative sums, one int64 per 0.1 mm of the
    # window's height range, stay well below one window's 204,800 bytes
    _, heap, _ = heaps
    first = sim.local_median_height(heap, 200, 150)
    peak, second = traced_peak(lambda: sim.local_median_height(heap, 200, 150))
    assert peak < sim.PATCH_SIDE ** 2 * 8
    assert second == first


def test_a_second_total_mass_allocates_no_grid(heaps):
    _, heap, _ = heaps
    first = sim.total_mass(heap)
    peak, second = traced_peak(lambda: sim.total_mass(heap))
    assert peak < 64 * 1024
    assert second == first == float(np.sum(heap.bulk_density * heap.heights) * 1e-3)


def test_dataset_features_build_one_row_at_a_time():
    rng = np.random.default_rng(3)
    rows = [mdn.DataRow(rng.integers(-400, 400, size=(sim.PATCH_SIDE, sim.PATCH_SIDE),
                                     dtype=np.int16), float(z), 20.0, "eval")
            for z in rng.choice(sim.Z_POOL_DEEP, size=50)]
    config = mdn.ModelConfig()
    peak, (feats, masses) = traced_peak(lambda: mdn._dataset_features(rows, config))
    # the whole float64 stack was 50 x 160 x 160 x 8 = 10.24 MB
    assert peak < 1_000_000
    for row, row_feats in zip(rows, feats):
        assert np.array_equal(row_feats, mdn.features_from_rows(
            [row.patch / mdn.UNITS_PER_MM], [row.z_cm], config)[0])
    assert masses.tolist() == [20.0] * 50


def test_warm_scoring_and_grasping_allocate_below_one_grid(heaps, trained_model):
    cfg, heap, _ = heaps
    select._score_lattice(trained_model, heap, cfg.clearance_mm)
    peak, (_, mu, sigma) = traced_peak(
        lambda: select._score_lattice(trained_model, heap, cfg.clearance_mm))
    assert peak < GRID_BYTES
    assert not aliases_a_kept_buffer(mu) and not aliases_a_kept_buffer(sigma)

    work = heap.copy()
    sim.execute_grasp(work, 200, 150, 2.5, np.random.default_rng(0), cfg)
    peak, _ = traced_peak(
        lambda: sim.execute_grasp(work, 230, 160, 2.5, np.random.default_rng(1), cfg))
    assert peak < GRID_BYTES


def test_results_survive_another_heap_on_the_same_buffers(heaps, trained_model):
    cfg, heap, other = heaps
    cands, mu, sigma = select._score_lattice(trained_model, heap, cfg.clearance_mm)
    medians, feats = select._lattice_features(
        heap, select._tray_lattice(heap.heights.shape, trained_model.config.pooled_side))
    saved = [a.copy() for a in (mu, sigma, medians, feats)]

    work = other.copy()
    assert select._score_lattice(trained_model, work, cfg.clearance_mm)[0] == cands
    sim.execute_grasp(work, 200, 150, 2.5, np.random.default_rng(2), cfg)
    sim.total_mass(work)

    for a, b in zip((mu, sigma, medians, feats), saved):
        assert np.array_equal(a, b) and not aliases_a_kept_buffer(a)


def test_height_units_into_a_float_array_are_the_int64_units(heaps):
    _, heap, _ = heaps
    heights = heap.heights.copy()
    heights[:3, 0] = (0.0, 0.04999999, 0.05)   # 0, 0 and 1 quanta
    out = np.empty_like(heights)
    assert sim.height_units(heights, out=out) is out
    assert np.array_equal(out, sim.height_units(heights)) and out.dtype == np.float64


def test_the_per_tray_table_is_small_and_read_only(trained_model):
    select._tray_lattice.cache_clear()
    shapes = [(424, 308), (170, 160), (460, 360), (200, 200), (300, 250)]
    lattices = [select._tray_lattice(shape, trained_model.config.pooled_side)
                for shape in shapes]
    info = select._tray_lattice.cache_info()
    assert info.currsize == info.maxsize < len(shapes) == info.misses
    # the latest shape is served from the table; the least recently used was dropped
    assert select._tray_lattice(shapes[-1], trained_model.config.pooled_side) is lattices[-1]
    assert select._tray_lattice(shapes[0], trained_model.config.pooled_side) is not lattices[0]
    lattice = lattices[0]
    assert isinstance(lattice.candidates, tuple)
    for field in lattice[2:]:
        with pytest.raises(ValueError):
            field[...] = 0
