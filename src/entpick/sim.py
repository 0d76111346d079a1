"""Seeded tray simulator for entangled-food picking.

The world is a rectangular tray discretised into 1 mm x 1 mm columns. Each
column carries a height (mm, quantised to 0.1 mm), an entanglement level
lambda in [0, 1], and a bulk density rho (g/cm^3). A column of height h mm
therefore holds ``rho * h * 1e-3`` grams.

Grasping inserts the gripper to a depth below the local median surface and
sweeps the material above the tip plane inside the footprint (minus a small
random grip slip), plus a random number of entangled clumps torn out of the
surrounding material: the clump count is Poisson in ``kappa * mean(lambda)``
over the footprint and clump masses are log-normal. The torn-open region
then exposes fresh, settled, fully entangled material, and the loose
surface slumps toward its local level. Pre-grasping scales lambda down and
fluffs the heap (taller, proportionally less dense, mass preserved).
Post-grasping discards mass from the gripper in small gamma-distributed
quanta when the spines are engaged and in whole uncontrollable chunks when
they are not; entangled clumps hanging outside the gripper area can let go
whole in either mode. A scale model quantises, delays, and transiently
overshoots the discarded-mass readings.

Every operation leaves heights on the 0.1 mm grid, through one of two
write rules: removals take a quantised amount, capped at what each column
holds (``_remove_into``); every other change sets a column to a grid
height within the tray and lets its density absorb the rounding and the
brim, so the column keeps exactly its mass (``_set_heights``). All
grasp/pre-grasp/post-grasp masses are computed from the exact height
deltas they apply, so mass is conserved to float precision across any
operation sequence. Operations mutate the heap in place; all randomness
flows through explicitly passed ``numpy.random.Generator`` instances.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
from dataclasses import dataclass, field, fields, asdict

import numpy as np
from scipy import ndimage
from scipy.special import ndtr

PATCH_SIDE = 160           # observation window, px (1 px = 1 mm)
PATCH_MARGIN = PATCH_SIDE // 2
HEIGHT_QUANTUM_MM = 0.1
# a dataset patch holds heights less their median as int16 units of 0.05 mm
# (mdn.patch_units), and such a height lies within the tray depth of zero
MAX_TRAY_DEPTH_MM = 32767 // 20
# a grasp draws Poisson(kappa * lambda) entangled clumps, lambda <= 1, and
# removes them one at a time, so kappa caps the expected clumps per grasp
MAX_KAPPA = 1000
CELL_MASS_PER_MM = 1e-3    # grams per mm of height in one 1 mm^2 column, per unit rho

# insertion depths (cm) for cabbage-like material: the pool random grasps
# draw from, and the finer list selection scores
Z_POOL_DEEP = (2.0, 3.0, 4.0)
Z_INFER_DEEP = (2.0, 2.25, 2.5, 2.75, 3.0, 3.25, 3.5, 3.75, 4.0)


def quantize_height(h, out=None):
    """Snap heights (mm) to the 0.1 mm grid: rint(10 h) / 10, into the
    float64 array ``out`` when given (``h`` itself for in place)."""
    tenths = np.multiply(h, 10.0, out=out, dtype=float)
    return np.divide(np.round(tenths, out=out), 10.0, out=out)


def quantize_mass(m: float, resolution_g: float = 0.1) -> float:
    """Round a mass to the scale resolution (round-half-even)."""
    return float(np.round(m / resolution_g) * resolution_g)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def check_config_keys(cls, doc, where: str) -> dict:
    """Return ``doc`` as a dict if it is a JSON object whose keys are all
    fields of the dataclass ``cls``; otherwise raise ValueError naming the
    unknown keys."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(doc).__name__}")
    unknown = sorted(repr(k) for k in set(doc) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {where} key(s): {', '.join(unknown)}")
    return dict(doc)


def check_number(where: str, value, lo=-math.inf, hi=math.inf, *,
                 lo_open=False, hi_open=False) -> None:
    """Raise ValueError naming ``where`` unless ``value`` is a finite real
    number between ``lo`` and ``hi`` (inclusive unless an end is open)."""
    try:
        ok = (not isinstance(value, bool) and isinstance(value, (int, float, np.number))
              and math.isfinite(value)
              and (lo < value if lo_open else lo <= value)
              and (value < hi if hi_open else value <= hi))
    except OverflowError:   # an int too large for a float
        ok = False
    if ok:
        return
    if lo == -math.inf and hi == math.inf:
        want = "a finite number"
    elif hi == math.inf:
        want = f"a number {'>' if lo_open else '>='} {lo}"
    else:
        want = f"a number in {'(' if lo_open else '['}{lo}, {hi}{')' if hi_open else ']'}"
    raise ValueError(f"{where} must be {want}, got {value!r}")


def check_int(where: str, value, lo: int) -> None:
    """Raise ValueError naming ``where`` unless ``value`` is an integer >= lo."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < lo:
        raise ValueError(f"{where} must be an integer >= {lo}, got {value!r}")


def check_tuple(where: str, value, length: int, lo=-math.inf, hi=math.inf, *,
                lo_open=False, ordered=False) -> tuple:
    """``value`` as a tuple of ``length`` numbers, each checked as by
    ``check_number``; ``ordered`` also requires a range low <= high."""
    if not isinstance(value, (list, tuple)) or len(value) != length:
        raise ValueError(f"{where} must have {length} entries, got {value!r}")
    for i, v in enumerate(value):
        check_number(f"{where}[{i}]", v, lo, hi, lo_open=lo_open)
    if ordered and value[0] > value[1]:
        raise ValueError(f"{where} must be a range low <= high, got {value!r}")
    return tuple(value)


@dataclass
class NoiseParams:
    amp_mm: float = 1.8
    corr_mm: float = 16.0
    wear_mm: float = 2.5          # depth scale of smooth baked-in wear
    craters: tuple = (10, 40)     # count range of baked-in grasp craters
    crater_depth_mm: tuple = (3.0, 7.0)

    def __post_init__(self):
        check_number("SimConfig.noise.amp_mm", self.amp_mm, 0)
        check_number("SimConfig.noise.corr_mm", self.corr_mm, 0, lo_open=True)
        check_number("SimConfig.noise.wear_mm", self.wear_mm, 0)
        self.craters = check_tuple("SimConfig.noise.craters", self.craters, 2, 0,
                                    ordered=True)
        self.crater_depth_mm = check_tuple("SimConfig.noise.crater_depth_mm",
                                            self.crater_depth_mm, 2, 0, ordered=True)


@dataclass
class ClumpParams:
    """Log-normal entangled-clump model: ln(mass) ~ N(mu, sigma^2)."""
    mu: float = 0.693147  # ln 2: median clump just under 2 g
    sigma: float = 0.45
    r_mm: float = 14.0     # radius of the region a clump is torn from

    def __post_init__(self):
        check_number("SimConfig.clump_lognormal.mu", self.mu)
        check_number("SimConfig.clump_lognormal.sigma", self.sigma, 0)
        check_number("SimConfig.clump_lognormal.r_mm", self.r_mm, 0, lo_open=True)


@dataclass
class PregraspParams:
    beta: float = 0.35     # lambda multiplier inside the loosened disk
    f: float = 1.03        # height fluff factor (density scaled by 1/f)
    r_mm: float = 40.0     # loosened-disk radius

    def __post_init__(self):
        check_number("SimConfig.pregrasp.beta", self.beta, 0, 1, lo_open=True, hi_open=True)
        check_number("SimConfig.pregrasp.f", self.f, 1, lo_open=True)
        check_number("SimConfig.pregrasp.r_mm", self.r_mm, 0, lo_open=True)


@dataclass
class PostgraspParams:
    gamma_shape: float = 2.0
    gamma_scale: float = 0.065  # per unit cycle speed; no-spines mode uses 3x
    p_clump: float = 0.22       # per-step whole-chunk drop probability, no spines
    p_tangle: float = 0.12      # per-step whole-entangled-clump drop, any mode
    v_min: float = 0.5
    v_max: float = 2.0
    piece_g: float = 2.5        # granularity the held base mass breaks into

    def __post_init__(self):
        for name in ("gamma_shape", "gamma_scale", "piece_g", "v_min"):
            check_number(f"SimConfig.postgrasp.{name}", getattr(self, name), 0, lo_open=True)
        for name in ("p_clump", "p_tangle"):
            check_number(f"SimConfig.postgrasp.{name}", getattr(self, name), 0, 1)
        check_number("SimConfig.postgrasp.v_max", self.v_max, self.v_min)


@dataclass
class ScaleParams:
    resolution_g: float = 0.1
    rate_hz: float = 10.0
    lag: int = 2                # reading delay, in scale samples
    transient_gain: float = 0.6  # impulse overshoot per gram landed last sample

    def __post_init__(self):
        check_number("SimConfig.scale.rate_hz", self.rate_hz, 0, lo_open=True)
        check_number("SimConfig.scale.resolution_g", self.resolution_g, 0, lo_open=True)
        check_int("SimConfig.scale.lag", self.lag, 0)
        check_number("SimConfig.scale.transient_gain", self.transient_gain, 0)


@dataclass
class SimConfig:
    """Full simulator configuration; serialisable as a JSON document."""

    tray_mm: tuple = (424, 308, 160)
    fill_mm: float = 140.0
    noise: NoiseParams = field(default_factory=NoiseParams)
    lambda_range: tuple = (0.45, 0.95)
    rho_range: tuple = (1.35, 1.6)
    footprint_mm: tuple = (40.0, 22.5)
    eta_fill: float = 0.85
    kappa: float = 1.7
    clump_lognormal: ClumpParams = field(default_factory=ClumpParams)
    pregrasp: PregraspParams = field(default_factory=PregraspParams)
    postgrasp: PostgraspParams = field(default_factory=PostgraspParams)
    scale: ScaleParams = field(default_factory=ScaleParams)
    clearance_mm: float = 5.0
    slip_g: float = 1.3           # grip slip scale: |N(0, slip_g)| grams escape
    slump_strength: float = 0.9   # post-withdrawal resettling toward local level
    slump_reach_mm: float = 64.0

    def __post_init__(self):
        self.tray_mm = check_tuple("SimConfig.tray_mm", self.tray_mm, 3, 0, lo_open=True)
        # the heap grid is 1 mm, and HeapState keeps the tray as whole mm
        for i, side in enumerate(self.tray_mm):
            if side != int(side):
                raise ValueError(f"SimConfig.tray_mm[{i}] must be a whole number of mm, "
                                 f"got {side!r}")
        if self.tray_mm[2] > MAX_TRAY_DEPTH_MM:
            raise ValueError(f"SimConfig.tray_mm[2] must be at most {MAX_TRAY_DEPTH_MM} mm, the "
                             f"deepest tray whose patches fit int16 units of 0.05 mm, "
                             f"got {self.tray_mm[2]!r}")
        check_number("SimConfig.fill_mm", self.fill_mm, 0, self.tray_mm[2])
        self.lambda_range = check_tuple("SimConfig.lambda_range", self.lambda_range, 2, 0, 1,
                                         ordered=True)
        self.rho_range = check_tuple("SimConfig.rho_range", self.rho_range, 2, 0,
                                      lo_open=True, ordered=True)
        self.footprint_mm = check_tuple("SimConfig.footprint_mm", self.footprint_mm, 2, 0,
                                         lo_open=True)
        # grasp points keep PATCH_MARGIN from every edge, and init_heap's
        # craters are 2 * (int(side / 2) + 1) mm wide along each footprint side
        craters = self.noise.amp_mm > 0 and self.noise.craters[1] > 0
        for i, (side, foot) in enumerate(zip(self.tray_mm, self.footprint_mm)):
            if side < PATCH_SIDE:
                raise ValueError(f"SimConfig.tray_mm[{i}] must be at least {PATCH_SIDE} mm, "
                                 f"the observation window, got {side!r}")
            if foot > PATCH_SIDE:
                raise ValueError(f"SimConfig.footprint_mm[{i}] must be at most {PATCH_SIDE} mm, "
                                 f"or a grasp at the patch margin leaves the tray, got {foot!r}")
            if craters and 2 * (int(foot / 2) + 1) >= side:
                raise ValueError(f"SimConfig.footprint_mm[{i}] = {foot!r} leaves no room for "
                                 f"a crater across a tray side of {side!r} mm")
        check_number("SimConfig.eta_fill", self.eta_fill, 0, 1, lo_open=True)
        check_number("SimConfig.kappa", self.kappa, 0, MAX_KAPPA)
        check_number("SimConfig.clearance_mm", self.clearance_mm, 0)
        check_number("SimConfig.slip_g", self.slip_g, 0)
        check_number("SimConfig.slump_strength", self.slump_strength, 0, 1)
        check_number("SimConfig.slump_reach_mm", self.slump_reach_mm, 1)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SimConfig":
        """Build from a JSON document; unknown keys, at the top level or in a
        nested section, raise ValueError by name."""
        d = check_config_keys(cls, d, "SimConfig")
        for key, sub in (("noise", NoiseParams), ("clump_lognormal", ClumpParams),
                         ("pregrasp", PregraspParams), ("postgrasp", PostgraspParams),
                         ("scale", ScaleParams)):
            if key in d:
                d[key] = sub(**check_config_keys(sub, d[key], f"SimConfig.{key}"))
        return cls(**d)

    @classmethod
    def from_json_file(cls, path) -> "SimConfig":
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_dict(json.load(f))


# ---------------------------------------------------------------------------
# working memory
# ---------------------------------------------------------------------------

_KEPT = {}


def _kept(name: str, shape, dtype=np.float64) -> np.ndarray:
    """A C-contiguous working array of ``shape``: the leading elements of
    one flat buffer that this process keeps per ``name`` and dtype. The
    buffer is allocated on first use and grown to the largest size asked
    for, so a call with a size seen before allocates nothing, and a fresh
    process stops paying page faults for every large temporary. The
    contents are whatever the last user left. A caller writes the array
    before reading it, and never returns it or a view of it; two arrays
    alive at once need two names. The buffers are module state on purpose:
    they belong to the process, as the allocator's pages do, and since no
    result depends on what a buffer held before, one caller cannot change
    another's output.

    A name is kept only where a measured gain pays for it: fewer minor
    faults or less time on a named workload, which the docstring of the
    function that asks for it states. glibc's dynamic mmap and trim
    thresholds make every fault count depend on all large temporaries at
    once, so a name is measured by taking it out of the set as it stands."""
    n = math.prod(shape)
    key = (name, np.dtype(dtype))
    buf = _KEPT.get(key)
    if buf is None or buf.size < n:
        buf = _KEPT[key] = np.empty(n, dtype)
    return buf[:n].reshape(shape)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass
class HeapState:
    """The simulated tray. Indexed ``heights[x, y]`` with x along the long side.

    ``lambda_fresh`` and ``rho_fresh`` remember the undisturbed entanglement
    and density fields: grasping tears out the loosened surface and exposes
    fresh, settled material, so the region a grasp disturbs reverts to them.
    Nothing writes them after the build: they are read-only, and a copy
    shares them.
    """

    heights: np.ndarray       # mm, shape (W, D)
    entanglement: np.ndarray  # lambda in [0, 1]
    bulk_density: np.ndarray  # g/cm^3, > 0
    tray_mm: tuple
    lambda_fresh: np.ndarray | None = None
    rho_fresh: np.ndarray | None = None

    def __post_init__(self):
        if self.lambda_fresh is None:
            self.lambda_fresh = self.entanglement.copy()
        if self.rho_fresh is None:
            self.rho_fresh = self.bulk_density.copy()
        self.lambda_fresh.flags.writeable = False
        self.rho_fresh.flags.writeable = False

    def validate(self):
        w, d, h = self.tray_mm
        if self.heights.shape != (w, d):
            raise ValueError("height grid does not match tray dims")
        if not (np.isfinite(self.heights).all() and np.isfinite(self.bulk_density).all()):
            raise ValueError("heights and densities must be finite")
        if self.heights.min() < -1e-9 or self.heights.max() > h + 1e-6:
            raise ValueError("heights out of tray range")
        if self.entanglement.min() < 0 or self.entanglement.max() > 1:
            raise ValueError("entanglement out of [0, 1]")
        if self.bulk_density.min() <= 0:
            raise ValueError("density must be positive")

    def copy(self) -> "HeapState":
        return HeapState(self.heights.copy(), self.entanglement.copy(),
                         self.bulk_density.copy(), self.tray_mm,
                         self.lambda_fresh, self.rho_fresh)

    def state_digest(self) -> str:
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.heights).tobytes())
        h.update(np.ascontiguousarray(self.entanglement).tobytes())
        h.update(np.ascontiguousarray(self.bulk_density).tobytes())
        h.update(repr(self.tray_mm).encode())
        return h.hexdigest()


@dataclass
class PatchObservation:
    """Median-normalised height patch plus the gripper insertion depth (cm)."""

    heights: np.ndarray
    insertion_depth: float | None = None


@dataclass
class GraspOutcome:
    grasped_mass: float
    base_mass: float
    entangled_extra: float
    clump_masses: list


@dataclass
class GripperLoad:
    """What is currently held: a list of discrete chunks. The first
    ``n_base_chunks`` entries are pieces of the mass the fingers hold
    directly; the rest are entangled clumps hanging outside the gripper
    area, which may let go whole at any time."""

    clump_masses: list
    spines_enabled: bool = True
    n_base_chunks: int | None = None

    def __post_init__(self):
        if self.n_base_chunks is None:
            self.n_base_chunks = len(self.clump_masses)

    @property
    def remaining_mass(self) -> float:
        return math.fsum(self.clump_masses)


@dataclass
class ScaleState:
    """Discarded-mass scale: quantised, rate-limited, lagged, with impulse overshoot."""

    params: ScaleParams = field(default_factory=ScaleParams)
    readings: list = field(default_factory=list)    # (t_s, value_g) as emitted
    _event_times: list = field(default_factory=list)
    _event_cum: list = field(default_factory=list)  # cumulative mass after each event

    @property
    def true_discarded(self) -> float:
        return self._event_cum[-1] if self._event_cum else 0.0

    def add_mass(self, mass_g: float, t_s: float):
        if mass_g < 0:
            raise ValueError("cannot discard negative mass")
        self._event_times.append(t_s)
        self._event_cum.append(self.true_discarded + mass_g)

    def cumulative_at(self, t_s: float) -> float:
        i = bisect.bisect_right(self._event_times, t_s + 1e-12)
        return self._event_cum[i - 1] if i else 0.0


def read_scale(state: ScaleState, t_s: float) -> float:
    """Scale reading at time t: lagged cumulative discard plus a one-sample
    impulse overshoot, quantised to the scale resolution."""
    if t_s < 0:
        raise ValueError("time must be non-negative")
    p = state.params
    n = math.floor(t_s * p.rate_hz + 1e-9)
    t_sample = (n - p.lag) / p.rate_hz
    base = state.cumulative_at(t_sample)
    landed = base - state.cumulative_at(t_sample - 1.0 / p.rate_hz)
    value = max(0.0, quantize_mass(base + p.transient_gain * landed, p.resolution_g))
    state.readings.append((t_s, value))
    return value


# ---------------------------------------------------------------------------
# heap construction
# ---------------------------------------------------------------------------

def _smooth_fields(shape, corr_mms, rng):
    """Standardised smooth random fields at half the resolution of a mm grid
    of ``shape``: coarse noise on an 8 mm grid, blurred at the given
    correlation lengths, normalised on the coarse grid, then bilinearly
    interpolated at 2 mm, which is far below the correlation lengths in
    use. Returns float64 fields of shape ((W + 1) // 2, (D + 1) // 2), one
    per entry of corr_mms, all drawn from the one generator stream;
    ``_pixel_double`` takes a field to the mm grid."""
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

    # Half-res node i lies at coarse coordinate i / 4: its corners are coarse
    # nodes i // 4 and i // 4 + 1, which are nodes i and i + 4 of the coarse
    # grid repeated 4x. Products and sums are float64 (the weights are
    # float32 minus int64), summed in the order ((a + b) + c) + d, so every
    # heap keeps the bits pinned in tests/test_sim_heap.py; the float32 ->
    # float64 cast is exact.
    h0, h1 = (shape[0] + 1) // 2, (shape[1] + 1) // 2
    up = coarse.astype(np.float64).repeat(4, axis=1).repeat(4, axis=2)
    a = up[:, :h0, :h1]
    b = up[:, 4:4 + h0, :h1]
    c = up[:, :h0, 4:4 + h1]
    d = up[:, 4:4 + h0, 4:4 + h1]
    xs = (np.arange(h0, dtype=np.float32) * 2.0 / step)
    ys = (np.arange(h1, dtype=np.float32) * 2.0 / step)
    fx = (xs - xs.astype(int))[None, :, None]
    fy = (ys - ys.astype(int))[None, None, :]
    out = a * ((1 - fx) * (1 - fy))
    term = np.empty_like(out)
    out += np.multiply(b, fx * (1 - fy), out=term)
    out += np.multiply(c, (1 - fx) * fy, out=term)
    out += np.multiply(d, fx * fy, out=term)
    return out


def _pixel_double(field, shape):
    """A half-resolution field on the mm grid of ``shape``: each value
    covers a 2 x 2 block, the last row and column cut off on odd sides."""
    full = np.empty(shape)
    for i in (0, 1):
        for j in (0, 1):
            full[i::2, j::2] = field[:(shape[0] - i + 1) // 2, :(shape[1] - j + 1) // 2]
    return full


def init_heap(config: SimConfig, seed: int) -> HeapState:
    """Build a filled tray from seeded smooth noise. Identical (config, seed)
    pairs produce bitwise-identical heaps.

    Every step up to the craters is per element, so it runs on the half
    resolution fields and gives the same bits as on the mm grid. Only the
    craters (whose window means sum full-resolution values) and the
    quantisation run on the mm grid."""
    w, d, depth = config.tray_mm
    rng = np.random.default_rng(seed)
    shape = (int(w), int(d))
    corr = config.noise.corr_mm
    f_height, f_wear, f_lam, f_rho = _smooth_fields(shape, [corr, 0.75 * corr, corr, corr], rng)
    hfield = config.fill_mm + config.noise.amp_mm * f_height
    if config.noise.amp_mm > 0:
        # a tray that has already been picked from: smooth wear plus
        # footprint-shaped craters, so model training and later picking see
        # the same kind of surface throughout a session
        hfield -= config.noise.wear_mm * np.maximum(f_wear - 0.7, 0.0)
    hfield = _pixel_double(hfield, shape)
    if config.noise.amp_mm > 0:
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
    np.clip(hfield, 0.0, depth, out=hfield)
    quantize_height(hfield, out=hfield)

    lo, hi = config.lambda_range
    lam = _pixel_double(lo + (hi - lo) * ndtr(f_lam), shape)
    rlo, rhi = config.rho_range
    rho = _pixel_double(rlo + (rhi - rlo) * ndtr(f_rho), shape)

    heap = HeapState(hfield, lam, rho, (int(w), int(d), int(depth)))
    heap.validate()
    return heap


def total_mass(heap: HeapState) -> float:
    """Sum of rho * area * height over all columns, in grams. The product
    goes into a kept working array (``_kept``), so a call on a heap shape
    seen before allocates nothing: without it a warm TABLE1 or TABLE4 run
    at 30 episodes made about 110,000 minor faults instead of 21,000 to
    31,000. The sum is the same as over a fresh product."""
    prod = _kept("total_mass", heap.heights.shape,
                 np.result_type(heap.bulk_density, heap.heights))
    return float(np.sum(np.multiply(heap.bulk_density, heap.heights, out=prod))
                 * CELL_MASS_PER_MM)


# ---------------------------------------------------------------------------
# observation
# ---------------------------------------------------------------------------

def batch_unit_medians(units: np.ndarray, ix, iy, shape) -> np.ndarray:
    """Exact medians of rectangular windows of an integer grid.

    Window i is ``units[ix[i]:ix[i] + sx, iy[i]:iy[i] + sy]`` with
    ``shape = (sx, sy)``; every window must lie inside the grid and hold
    fewer than 2**24 cells. Returns float64 medians in the grid's units,
    equal to ``np.median`` of each window (half-integral when the two
    middle ranks differ).

    The rows every window spans are cut into column strips of width
    g = gcd(sx, x offsets), so that each window is a whole run of strips.
    The windows are taken one band (distinct ``iy``) at a time, in
    increasing order, and one histogram per strip is kept over the sy
    columns of the current band. Moving to the next band adds the columns
    that enter and subtracts the ones that leave; only a band that does not
    overlap the previous one is counted afresh. A window's histogram is the
    sum of its run of strip histograms, one matrix product for all windows
    of a band, written into the band's rows of one (windows x value range)
    table; after the last band one rank read (``_median_of_counts``) gives
    every window's two middle ranks. Working memory is that table, one
    (strips x value range) table and one (windows x strips) 0/1 matrix,
    whatever the area of the windows.
    """
    units = np.asarray(units)
    ix = np.asarray(ix, dtype=np.intp).reshape(-1)
    iy = np.asarray(iy, dtype=np.intp).reshape(-1)
    sx, sy = (int(s) for s in shape)
    if sx < 1 or sy < 1:
        raise ValueError(f"window shape must be positive, got {shape}")
    # float32 counts, so that one BLAS product sums each window's strips: a
    # count is at most the window's area, and below 2**24 every sum is exact
    if sx * sy >= 2 ** 24:
        raise ValueError(f"window area must be below 2**24 cells, got {shape}")
    out = np.empty(ix.size)
    if ix.size == 0:
        return out
    if (ix.min() < 0 or iy.min() < 0 or ix.max() + sx > units.shape[0]
            or iy.max() + sy > units.shape[1]):
        raise ValueError("windows must lie inside the grid")
    # the windows band by band: band b holds rows starts[b]:starts[b + 1]
    order = np.argsort(iy, kind="stable")
    bands, starts = np.unique(iy[order], return_index=True)
    starts = np.append(starts, ix.size)
    x0 = ix.min()
    off = ix[order] - x0
    g = math.gcd(sx, *off.tolist())
    y_lo = bands[0]
    region = units[x0:x0 + off.max() + sx, y_lo:bands[-1] + sy]
    n_strips = region.shape[0] // g
    strips = np.arange(n_strips)
    # window i is the run of strips off[i] // g up to (off[i] + sx) // g
    member = ((strips >= (off // g)[:, None])
              & (strips < ((off + sx) // g)[:, None])).astype(np.float32)
    lo = int(region.min())
    # the value range, in whole blocks of _median_of_counts
    span = -((lo - int(region.max()) - 1) // _RANK_BLOCK) * _RANK_BLOCK
    # bin key: strip index * span + (value - lo)
    key_base = (np.arange(region.shape[0]) // g * span - lo)[:, None]

    def keys(c0, c1):
        return np.add(region[:, c0:c1], key_base, dtype=np.intp, casting="unsafe").ravel()

    counts = np.empty((ix.size, span), np.float32)
    one = np.float32(1)   # of the table's type: add.at casts any other per element
    prev = None
    for b, y0 in enumerate(bands - y_lo):
        if prev is None or y0 >= prev + sy:
            hist = np.bincount(keys(y0, y0 + sy), minlength=n_strips * span).astype(np.float32)
        else:
            np.add.at(hist, keys(prev + sy, y0 + sy), one)
            np.subtract.at(hist, keys(prev, y0), one)
        prev = y0
        rows = slice(starts[b], starts[b + 1])
        np.matmul(member[rows], hist.reshape(n_strips, span), out=counts[rows])
    out[order] = _median_of_counts(counts, sx * sy, lo)
    return out


_RANK_BLOCK = 32   # value bins per block of _median_of_counts


def _median_of_cumulative(below, p, lo):
    """The median of p integers from their cumulative counts: ``below[...,
    v]`` counts the values <= lo + v. The rank-k value (0-based) is lo plus
    the number of v whose count is <= k; the median is the mean of ranks
    (p + 1) // 2 - 1 and p // 2, a whole or half unit, as ``np.median``
    takes it. The rank rule of both median functions: ``_median_of_counts``
    applies it block by block."""
    v_lo = (below <= (p + 1) // 2 - 1).sum(axis=-1)
    v_hi = (below <= p // 2).sum(axis=-1)
    return (v_lo + v_hi) / 2.0 + lo


def _median_of_counts(counts, p, lo):
    """``_median_of_cumulative`` of each row of ``counts``, p integers whose
    ``counts[i, v]`` counts the values lo + v, without the cumulative
    counts of the whole row: the row is cut into blocks of _RANK_BLOCK
    values, and each middle rank k is read in two steps. The blocks that
    end at a cumulative count <= k lie wholly below rank k; the next block
    holds it, and the rank rule over that block's cumulative counts gives
    its place. Whole counts below 2**24 are exact in float32 sums."""
    n, span = counts.shape
    blocks = counts.reshape(n, span // _RANK_BLOCK, _RANK_BLOCK)
    ends = np.cumsum(np.add.reduceat(counts, np.arange(0, span, _RANK_BLOCK), axis=1), axis=1)
    rows = np.arange(n)
    v = 0
    for k in ((p + 1) // 2 - 1, p // 2):
        j = (ends <= k).sum(axis=1)
        below = np.cumsum(blocks[rows, j], axis=1)
        below += np.where(j > 0, ends[rows, j - 1], 0)[:, None]
        v = v + j * _RANK_BLOCK + (below <= k).sum(axis=1)
    return v / 2.0 + lo


def patch_window(heap: HeapState, x: int, y: int):
    """The PATCH_SIDE window centred at (x, y), clipped to the tray."""
    w, d, _ = heap.tray_mm
    x0 = max(0, x - PATCH_MARGIN)
    x1 = min(w, x + PATCH_MARGIN)
    y0 = max(0, y - PATCH_MARGIN)
    y1 = min(d, y + PATCH_MARGIN)
    return heap.heights[x0:x1, y0:y1]


def height_units(heights, out=None) -> np.ndarray:
    """Heights (mm) as integer 0.1 mm quanta: int64, or whole float64
    values written into ``out`` (the same numbers, since a truncated
    float64 below 2**53 is the int64 cast's value)."""
    if out is None:
        return (np.asarray(heights) * 10.0 + 0.5).astype(np.int64)
    np.multiply(heights, 10.0, out=out)
    out += 0.5
    return np.trunc(out, out=out)


def local_median_height(heap: HeapState, x: int, y: int) -> float:
    """Median surface height (mm) of the observation window around (x, y),
    exact: ``np.median`` of the window's 0.1 mm units, over 10. The units
    less their minimum go into kept working arrays (``_kept``) and are
    counted by one ``bincount``, whose cumulative counts give the two
    middle ranks. Without the kept arrays a warm TABLE1 or TABLE4 run at
    30 episodes made about 85,000 minor faults instead of 21,000 to
    31,000."""
    win = patch_window(heap, x, y)
    tenths = np.multiply(win, 10.0, out=_kept("median.tenths", win.shape))
    units = _kept("median.units", win.shape, np.intp)
    np.add(tenths, 0.5, out=units, casting="unsafe")   # height_units' int64 cast
    lo = int(units.min())
    units -= lo
    below = np.cumsum(np.bincount(units.ravel()))
    return float(_median_of_cumulative(below, win.size, lo)) / 10.0


def observe_patch(heap: HeapState, x: int, y: int) -> PatchObservation:
    """Median-normalised PATCH_SIDE x PATCH_SIDE height patch centred at (x, y).

    The insertion depth is left unset; callers fill it in. (x, y) must be at
    least PATCH_MARGIN px from every tray edge so the full patch fits.
    """
    w, d, _ = heap.tray_mm
    if not (PATCH_MARGIN <= x <= w - PATCH_MARGIN and PATCH_MARGIN <= y <= d - PATCH_MARGIN):
        raise ValueError(f"patch centre ({x}, {y}) violates the {PATCH_MARGIN} px margin")
    win = heap.heights[x - PATCH_MARGIN:x + PATCH_MARGIN, y - PATCH_MARGIN:y + PATCH_MARGIN]
    return PatchObservation(win - local_median_height(heap, x, y), None)


# ---------------------------------------------------------------------------
# grasping
# ---------------------------------------------------------------------------

def _extent(center: float, length_mm: float, n_cells: int):
    """Index range and fractional coverage of a centred 1-D extent.

    Returns (i0, i1, weights) where weights[i] is the covered fraction of
    cell i0 + i; raises when the extent leaves the tray.
    """
    lo = center - length_mm / 2.0
    hi = center + length_mm / 2.0
    if lo < 0 or hi > n_cells:
        raise ValueError("footprint outside tray")
    i0 = int(math.floor(lo))
    i1 = int(math.ceil(hi))
    idx = np.arange(i0, i1, dtype=float)
    w = np.clip(np.minimum(idx + 1.0, hi) - np.maximum(idx, lo), 0.0, 1.0)
    return i0, i1, w


def clears_floor(median_mm, z_cm, clearance_mm):
    """Whether a gripper inserted z_cm below a local median surface of
    median_mm keeps at least clearance_mm above the tray floor. The one
    floor rule of every grasp stage; exact equality clears. Broadcasts over
    arrays."""
    return median_mm - z_cm * 10.0 >= clearance_mm


def _box(x, y, r, w, d):
    """Slices of the square of half-side r around (x, y), clamped to a
    w x d grid."""
    return (slice(max(0, int(x - r)), min(w, int(x + r) + 1)),
            slice(max(0, int(y - r)), min(d, int(y + r) + 1)))


def _disk(x, y, r, w, d):
    """``_box`` plus the mask of its cells within distance r of (x, y)."""
    sl_x, sl_y = _box(x, y, r, w, d)
    gx = np.arange(sl_x.start, sl_x.stop, dtype=float)[:, None]
    gy = np.arange(sl_y.start, sl_y.stop, dtype=float)[None, :]
    return sl_x, sl_y, (gx - x) ** 2 + (gy - y) ** 2 <= r ** 2


def _check_floor_clearance(heap: HeapState, x, y, z_cm, clearance_mm):
    med = local_median_height(heap, x, y)
    if not clears_floor(med, z_cm, clearance_mm):
        raise ValueError(
            f"insertion depth {z_cm} cm would strike the tray floor "
            f"(local median {med:.1f} mm, clearance {clearance_mm} mm)")
    return med


def _remove_into(heap, sl_x, sl_y, removal) -> float:
    """Lower the columns by a removal height field, snapped so the heights
    left lie on the 0.1 mm grid and capped at what each column holds;
    returns the exact mass taken. The one write rule for removals."""
    sub_h = heap.heights[sl_x, sl_y]
    left = np.maximum(quantize_height(sub_h - removal), 0.0)
    mass = float(np.sum(heap.bulk_density[sl_x, sl_y] * (sub_h - left)) * CELL_MASS_PER_MM)
    heap.heights[sl_x, sl_y] = left
    return mass


def _set_heights(heap, sl_x, sl_y, height, mass, where=True) -> None:
    """The one write rule for every height change other than a removal.

    Columns in the mask ``where`` (True: the whole box) that hold mass
    (``mass`` is rho * h per column, in g/cm^3 * mm) take ``height``
    snapped to the 0.1 mm grid and clamped to [one quantum, tray depth],
    and their density becomes mass / height, so each keeps exactly its
    mass: the density absorbs the rounding and the brim. A column with no
    mass gets height 0 and keeps its density. Cells outside ``where`` keep
    their bits. ``height`` is overwritten."""
    held = (mass > 0.0) & where
    quantize_height(height, out=height)
    np.clip(height, HEIGHT_QUANTUM_MM, heap.tray_mm[2], out=height)
    np.copyto(heap.bulk_density[sl_x, sl_y], mass / height, where=held)
    np.copyto(height, 0.0, where=~held)
    np.copyto(heap.heights[sl_x, sl_y], height, where=where)


def _settle(heap: HeapState, sl_x, sl_y, mask) -> None:
    """Exposed material reverts to its fresh (settled) density; heights
    shrink to keep each column's mass exactly unchanged."""
    mass = heap.heights[sl_x, sl_y] * heap.bulk_density[sl_x, sl_y]
    _set_heights(heap, sl_x, sl_y, mass / heap.rho_fresh[sl_x, sl_y], mass, mask)


def _slump(heap: HeapState, sl_x, sl_y, strength, reach_mm) -> None:
    """Loose material slumps toward the local level after the gripper
    withdraws: the column-mass field relaxes toward its box average inside
    the disturbed window. Mass-exact up to one global rescale. The box's
    mass field and both filter passes live in kept working arrays
    (``_kept``): a box no larger than one seen before allocates nothing.
    Without them a warm TABLE1 or TABLE4 run at 30 episodes made about
    127,000 minor faults instead of 21,000 to 31,000, and a warm grasp's
    traced peak rose to 1.53 MB, above one 1.04 MB heap grid."""
    rho = heap.bulk_density[sl_x, sl_y]
    h = heap.heights[sl_x, sl_y]
    dtype = np.result_type(rho, h)
    m = np.multiply(rho, h, out=_kept("slump.m", rho.shape, dtype))
    total = m.sum()
    if total <= 0:
        return
    size = int(reach_mm)
    rows = _kept("slump.rows", m.shape, dtype)
    smooth = _kept("slump.smooth", m.shape, dtype)
    for _ in range(3):
        ndimage.uniform_filter1d(m, size, axis=0, output=rows, mode="nearest")
        ndimage.uniform_filter1d(rows, size, axis=1, output=smooth, mode="nearest")
        # (1 - s) m + s smooth, divided by s: the rescale to the total
        # removes the constant factor
        m *= (1.0 - strength) / strength
        m += smooth
    m *= total / m.sum()
    _set_heights(heap, sl_x, sl_y, np.divide(m, rho, out=smooth), m)


def execute_grasp(heap: HeapState, x: int, y: int, z_cm: float,
                  rng: np.random.Generator, config: SimConfig) -> GraspOutcome:
    """Close the gripper at (x, y) with insertion depth z (cm below the local
    median surface). The gripper tip sits at (median - 10 z) mm and the
    fingers sweep the material above that plane, so each footprint cell
    yields its height above the tip plane (never more than the cell holds).
    A Poisson number of entangled clumps is torn from the surrounding
    material on top. The heap is mutated in place and the outcome masses
    equal the exact heap loss.
    """
    if z_cm <= 0:
        raise ValueError("insertion depth must be positive")
    w, d, _ = heap.tray_mm
    fw, fl = config.footprint_mm
    ix0, ix1, wx = _extent(x, fw, w)
    iy0, iy1, wy = _extent(y, fl, d)
    med = _check_floor_clearance(heap, x, y, z_cm, config.clearance_mm)

    sl_x = slice(ix0, ix1)
    sl_y = slice(iy0, iy1)
    weights = wx[:, None] * wy[None, :]
    sub_h = heap.heights[sl_x, sl_y]
    tip_plane = med - z_cm * 10.0
    depth = np.minimum(np.maximum(sub_h - tip_plane, 0.0), sub_h)
    # grip slip: a few shreds escape the closing fingers
    swept = config.eta_fill * weights * depth
    swept_g = float(np.sum(heap.bulk_density[sl_x, sl_y] * swept) * CELL_MASS_PER_MM)
    slip = abs(config.slip_g * float(rng.standard_normal()))
    grip = max(0.0, 1.0 - slip / swept_g) if swept_g > 0 else 0.0
    base_mass = _remove_into(heap, sl_x, sl_y, grip * swept)

    wsum = weights.sum()
    lam_bar = float(np.sum(heap.entanglement[sl_x, sl_y] * weights) / wsum)
    n_clumps = int(rng.poisson(config.kappa * lam_bar))

    cp = config.clump_lognormal
    clump_masses = []
    for _ in range(n_clumps):
        target = float(rng.lognormal(cp.mu, cp.sigma))
        reach = max(fw, fl) / 2.0 + cp.r_mm
        cx = x + float(rng.uniform(-reach, reach))
        cy = y + float(rng.uniform(-reach, reach))
        cx = min(max(cx, 0.0), w - 1.0)
        cy = min(max(cy, 0.0), d - 1.0)
        jsl_x, jsl_y, disk = _disk(cx, cy, cp.r_mm, w, d)
        region_h = heap.heights[jsl_x, jsl_y]
        avail = float(np.sum(heap.bulk_density[jsl_x, jsl_y] * region_h * disk) * CELL_MASS_PER_MM)
        if avail <= 0:
            clump_masses.append(0.0)
            continue
        scale = min(1.0, target / avail)
        clump_masses.append(_remove_into(heap, jsl_x, jsl_y, scale * region_h * disk))

    # the grasp rips out the loosened surface; what it exposes is fresh,
    # fully entangled, settled material again
    r_reset = max(config.pregrasp.r_mm, math.hypot(fw, fl) / 2.0 + cp.r_mm) + 2.0
    ksl_x, ksl_y, reset = _disk(x, y, r_reset, w, d)
    heap.entanglement[ksl_x, ksl_y] = np.where(
        reset, heap.lambda_fresh[ksl_x, ksl_y], heap.entanglement[ksl_x, ksl_y])
    _settle(heap, ksl_x, ksl_y, reset)
    if config.slump_strength > 0:
        _slump(heap, *_box(x, y, r_reset + config.slump_reach_mm, w, d),
               config.slump_strength, config.slump_reach_mm)

    extra = math.fsum(clump_masses)
    return GraspOutcome(grasped_mass=base_mass + extra, base_mass=base_mass,
                        entangled_extra=extra, clump_masses=clump_masses)


def apply_pregrasp(heap: HeapState, x: int, y: int, z_cm: float,
                   rng: np.random.Generator, config: SimConfig) -> None:
    """Lift-and-release at (x, y): scales entanglement down by beta and fluffs
    heights by f (density compensated, so local mass is unchanged) inside the
    loosening radius. Reach and floor-clearance constraints match
    execute_grasp. The motion itself is deterministic; rng is accepted for
    signature uniformity with the other heap operators.
    """
    if z_cm <= 0:
        raise ValueError("insertion depth must be positive")
    w, d, _ = heap.tray_mm
    fw, fl = config.footprint_mm
    _extent(x, fw, w)
    _extent(y, fl, d)
    _check_floor_clearance(heap, x, y, z_cm, config.clearance_mm)

    pg = config.pregrasp
    sl_x, sl_y, disk = _disk(x, y, pg.r_mm, w, d)
    heap.entanglement[sl_x, sl_y] = np.where(
        disk, heap.entanglement[sl_x, sl_y] * pg.beta, heap.entanglement[sl_x, sl_y])

    h = heap.heights[sl_x, sl_y]
    rho = heap.bulk_density[sl_x, sl_y]
    # loosening saturates: material already fluffed below the density floor
    # does not expand further (keeps density bounded over repeated passes)
    grow = disk & (rho >= config.rho_range[0] / pg.f - 1e-12)
    _set_heights(heap, sl_x, sl_y, pg.f * h, rho * h, grow)


def release_mass(heap: HeapState, x: int, y: int, mass_g: float, config: SimConfig) -> None:
    """Return a released grasp to the heap, spread uniformly (by mass) over a
    disk around the grasp point. Each disk column rises to hold its share at
    its own density, on the 0.1 mm grid; one that would rise past the brim
    packs denser instead. Exact: the heap gains mass_g to float precision."""
    if mass_g < 0:
        raise ValueError("cannot release negative mass")
    if mass_g == 0:
        return
    w, d, _ = heap.tray_mm
    fw, fl = config.footprint_mm
    sl_x, sl_y, disk = _disk(x, y, math.hypot(fw, fl) / 2.0 + 15.0, w, d)
    rho = heap.bulk_density[sl_x, sl_y]
    mass = rho * heap.heights[sl_x, sl_y] + mass_g / (disk.sum() * CELL_MASS_PER_MM)
    _set_heights(heap, sl_x, sl_y, mass / rho, mass, disk)


# ---------------------------------------------------------------------------
# post-grasping
# ---------------------------------------------------------------------------

def make_gripper_load(outcome: GraspOutcome, params: PostgraspParams,
                      spines_enabled: bool = True) -> GripperLoad:
    """Split a grasp into the chunks the gripper holds: the base mass breaks
    into piece_g-sized pieces, entangled clumps stay whole."""
    chunks = []
    if outcome.base_mass > 0:
        n = max(1, math.ceil(outcome.base_mass / params.piece_g))
        piece = outcome.base_mass / n
        chunks = [piece] * (n - 1)
        chunks.append(outcome.base_mass - piece * (n - 1))
    n_base = len(chunks)
    chunks.extend(m for m in outcome.clump_masses if m > 0)
    return GripperLoad(clump_masses=chunks, spines_enabled=spines_enabled,
                       n_base_chunks=n_base)


def _pop_chunk(load: GripperLoad, idx: int) -> float:
    dropped = load.clump_masses.pop(idx)
    if idx < load.n_base_chunks:
        load.n_base_chunks -= 1
    return dropped


def _shave(load: GripperLoad, amount: float) -> float:
    """Take `amount` grams off the front of the chunk list."""
    dropped = 0.0
    while load.clump_masses and dropped < amount - 1e-12:
        head = load.clump_masses[0]
        take = min(head, amount - dropped)
        if take >= head - 1e-12:
            _pop_chunk(load, 0)
            dropped += head
        else:
            load.clump_masses[0] = head - take
            dropped += take
    return dropped


def postgrasp_step(load: GripperLoad, v: float, params: PostgraspParams,
                   rng: np.random.Generator) -> float:
    """One up/down cycle of the movable gripper at cycle speed v.

    Entangled clumps hang outside the gripper area and can let go whole on
    any cycle (probability p_tangle), spines or not. Otherwise, with spines
    the drop is a gamma quantum (shape gamma_shape, scale gamma_scale * v)
    capped at the remaining mass; without spines, with probability p_clump
    an entire chunk lets go (all of it when only one chunk remains), else a
    gamma draw at 3x scale, and a draw reaching the remaining mass drops
    everything. Mutates the load; returns grams dropped.
    """
    if not params.v_min <= v <= params.v_max:
        raise ValueError(f"cycle speed {v} outside [{params.v_min}, {params.v_max}]")
    remaining = load.remaining_mass
    if remaining <= 0:
        return 0.0
    n_tangled = len(load.clump_masses) - load.n_base_chunks
    if n_tangled > 0 and rng.random() < params.p_tangle:
        idx = load.n_base_chunks + int(rng.integers(n_tangled))
        return _pop_chunk(load, idx)
    if load.spines_enabled:
        amount = min(float(rng.gamma(params.gamma_shape, params.gamma_scale * v)), remaining)
        return _shave(load, amount)
    if rng.random() < params.p_clump:
        if len(load.clump_masses) == 1:
            return _pop_chunk(load, 0)
        return _pop_chunk(load, int(rng.integers(len(load.clump_masses))))
    amount = float(rng.gamma(params.gamma_shape, 3.0 * params.gamma_scale * v))
    if amount >= remaining:
        dropped = remaining
        load.clump_masses.clear()
        load.n_base_chunks = 0
        return dropped
    return _shave(load, amount)
