"""Mixture-density mass regressor.

Maps a median-normalised height patch plus the gripper insertion depth to a
K-component Gaussian mixture over the grasped mass. The patch is adaptively
mean-pooled to a small square, flattened, concatenated with a rectified
capture volume over the fixed ``CAPTURE_WINDOW_MM`` gripper footprint at the
patch centre and the depth, and fed through a tanh MLP whose head emits
mixture logits, component means (grams), and pre-softplus spreads. Training
minimises the negative log likelihood of the observed masses with exact
reverse-mode gradients and an adaptive-moment optimizer; flips and random
crops exploit the gripper symmetry on the tiny datasets this is meant for.

Features have one rule, ``_features``, which divides exact integer sums of
heights in whole 0.05 mm units. One loop, ``_unit_features``, takes patches
to those sums one patch at a time, and it reads units only. ``patch_units``
is the one rule from heights in mm to units, rint(20 h) as int16:
``features_from_rows`` applies it to patches in mm, and collection to
dataset patches, which are stored as int16 units in memory and in the
dataset file. ``_variant_features`` and ``select._lattice_features`` reach
the same sums, so the same bits.

Training works in feature space. Every feature is a rectangle sum, and a
flip maps a crop rectangle to a mirrored rectangle of the unflipped patch,
so before the first epoch ``train`` reads the features of all
``N_VARIANTS`` augmentations of each train row (2 x 2 flips x 11 x 11 crop
offsets) off 0/1 span-matrix products with that row. An augmentation is one
draw of its variant index, so each epoch draws all of them in one
``integers`` call, the indices one ``augment`` call per row would draw, and
each step gathers its batch from that table; ``augment`` stays as the
reference it is tested against.

Parameters live in one flat vector so checkpoints are a single array and
finite-difference checks stay trivial.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .sim import (PATCH_SIDE, PatchObservation, check_config_keys, check_int,
                  check_number)

CROP_SIDE = 150
LOG_2PI = math.log(2.0 * math.pi)
# features read heights in whole 0.05 mm units, and a dataset patch holds
# them as int16: PATCH_BYTES little-endian bytes in the dataset file
UNITS_PER_MM = 20
PATCH_DTYPE = np.dtype("<i2")
PATCH_BYTES = PATCH_SIDE * PATCH_SIDE * PATCH_DTYPE.itemsize
_FLOAT64_PATCH_BYTES = PATCH_SIDE * PATCH_SIDE * 8   # a patch written before int16 units
_INT16 = np.iinfo(np.int16)


def patch_units(heights) -> np.ndarray:
    """Relative heights (mm) as a dataset patch: int16 units of 0.05 mm,
    rint(20 h). Raises ValueError for a height int16 cannot hold (beyond
    about +-1638 mm) or a non-finite one."""
    units = np.rint(np.asarray(heights, dtype=float) * UNITS_PER_MM)
    if not ((units >= _INT16.min) & (units <= _INT16.max)).all():
        raise ValueError(f"patch heights must be finite and within "
                         f"+-{_INT16.max / UNITS_PER_MM:g} mm to be stored as int16 units "
                         f"of {1 / UNITS_PER_MM:g} mm")
    return units.astype(np.int16)


def _check_units(patch) -> None:
    if not isinstance(patch, np.ndarray) or patch.dtype != np.int16:
        raise ValueError(f"DataRow.patch must be int16 units of {1 / UNITS_PER_MM:g} mm "
                         f"(see patch_units), got {getattr(patch, 'dtype', type(patch).__name__)}")


@dataclass
class DataRow:
    """One grasp record. ``patch`` holds the PATCH_SIDE x PATCH_SIDE heights
    less their median as int16 units of 0.05 mm (``patch_units``); a patch
    of any other dtype raises ValueError. Divide by UNITS_PER_MM for mm."""

    patch: np.ndarray
    z_cm: float
    mass_g: float
    split: str          # "train" | "eval"

    def __post_init__(self):
        _check_units(self.patch)


@dataclass
class Dataset:
    """Collected grasp records with a train/eval split tag per row."""

    rows: list

    def __len__(self):
        return len(self.rows)

    def train_rows(self):
        return [r for r in self.rows if r.split == "train"]

    def eval_rows(self):
        return [r for r in self.rows if r.split == "eval"]

    def masses(self, split=None):
        return [r.mass_g for r in self.rows if split is None or r.split == split]

    def to_jsonl(self, path) -> None:
        """Write one JSON line per row; the patch is the base64 of its
        int16 units, little-endian and row-major (see ``_decode_patch``).
        Base64 never needs escaping, so only the rest of the row goes
        through ``json.dumps``; each line still equals ``json.dumps`` of the
        whole row, byte for byte."""
        with open(path, "w", encoding="utf-8") as f:
            for r in self.rows:
                _check_units(r.patch)
                patch = np.asarray(r.patch, dtype=PATCH_DTYPE).tobytes()   # row-major
                rest = json.dumps({"z_cm": r.z_cm, "mass_g": r.mass_g, "split": r.split},
                                  separators=(",", ":"))
                f.write('{"patch":"')
                f.write(base64.b64encode(patch).decode("ascii"))
                f.write('",')
                f.write(rest[1:])   # drop the "{" of the rest of the object
                f.write("\n")

    @classmethod
    def from_jsonl(cls, path) -> "Dataset":
        """Read a dataset line by line; a bad row raises ValueError naming
        the file and the line."""
        rows = []
        with open(path, "r", encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    doc = json.loads(line)
                    patch = _decode_patch(doc["patch"])
                    z_cm, mass_g = doc["z_cm"], doc["mass_g"]
                    if any(isinstance(x, float) and not math.isfinite(x) for x in (z_cm, mass_g)):
                        raise ValueError("non-finite depth or mass")
                    check_number("z_cm", z_cm, 0, lo_open=True)
                    check_number("mass_g", mass_g, 0)
                    row = DataRow(patch, float(z_cm), float(mass_g), str(doc["split"]))
                    if row.split not in ("train", "eval"):
                        raise ValueError(f"unknown split {row.split!r}")
                except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
                    raise ValueError(f"{path}: dataset row at line {lineno}: {exc}") from exc
                rows.append(row)
        return cls(rows)


def _decode_patch(text) -> np.ndarray:
    """The PATCH_SIDE x PATCH_SIDE patch of a dataset row: standard base64
    (RFC 4648) of little-endian int16 units in row-major order. Returns an
    owned, writable int16 array; raises ValueError for anything else, and
    names a float64 patch, which a dataset written before int16 units
    holds."""
    if not isinstance(text, str):
        raise ValueError(f"patch must be base64 int16 bytes, got a JSON "
                         f"{type(text).__name__}")
    try:
        raw = base64.b64decode(text, validate=True)
    except binascii.Error as exc:
        raise ValueError(f"patch must be base64 int16 bytes: {exc}") from exc
    if len(raw) == _FLOAT64_PATCH_BYTES:
        raise ValueError(f"patch has {len(raw)} bytes, the {PATCH_SIDE}x{PATCH_SIDE} float64 "
                         f"patch of a dataset written before patches were int16 units of "
                         f"{1 / UNITS_PER_MM:g} mm; rebuild the dataset with `entpick collect` "
                         f"or by replaying the collection's manifest")
    if len(raw) != PATCH_BYTES:
        raise ValueError(f"patch has {len(raw)} bytes, expected {PATCH_BYTES} "
                         f"({PATCH_SIDE}x{PATCH_SIDE} int16)")
    return np.frombuffer(raw, dtype=PATCH_DTYPE).reshape(PATCH_SIDE, PATCH_SIDE).astype(np.int16)


@dataclass
class ModelConfig:
    K: int = 3
    feature_downsample: int = 80   # 160 -> pooled side
    hidden_sizes: tuple = (16,)
    sigma_floor: float = 0.1
    learning_rate: float = 0.05
    epochs: int = 400
    batch_size: int = 16
    seed: int = 0
    fixed_sigma: float | None = None

    def __post_init__(self):
        check_int("ModelConfig.K", self.K, 1)
        check_int("ModelConfig.feature_downsample", self.feature_downsample, 1)
        if PATCH_SIDE % self.feature_downsample != 0:
            raise ValueError(f"ModelConfig.feature_downsample must divide {PATCH_SIDE}, "
                             f"got {self.feature_downsample}")
        if self.pooled_side > CROP_SIDE:
            raise ValueError(f"ModelConfig.feature_downsample {self.feature_downsample} pools "
                             f"to a side above the {CROP_SIDE} px crop")
        if not isinstance(self.hidden_sizes, (list, tuple)):
            raise ValueError(f"ModelConfig.hidden_sizes must be a list, got {self.hidden_sizes!r}")
        self.hidden_sizes = tuple(self.hidden_sizes)
        for size in self.hidden_sizes:
            check_int("ModelConfig.hidden_sizes entry", size, 1)
        check_number("ModelConfig.sigma_floor", self.sigma_floor, 0, lo_open=True)
        check_number("ModelConfig.learning_rate", self.learning_rate, 0, lo_open=True)
        check_int("ModelConfig.epochs", self.epochs, 0)
        check_int("ModelConfig.batch_size", self.batch_size, 1)
        check_int("ModelConfig.seed", self.seed, 0)
        if self.fixed_sigma is not None:
            check_number("ModelConfig.fixed_sigma", self.fixed_sigma, 0, lo_open=True)

    @property
    def pooled_side(self) -> int:
        return PATCH_SIDE // self.feature_downsample

    @property
    def n_features(self) -> int:
        return self.pooled_side ** 2 + 2   # pooled blocks, capture volume, depth

    def layer_dims(self) -> list:
        return [self.n_features, *self.hidden_sizes, 3 * self.K]

    def n_params(self) -> int:
        dims = self.layer_dims()
        return sum(dims[i] * dims[i + 1] + dims[i + 1] for i in range(len(dims) - 1))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Build from a JSON document; unknown keys raise ValueError by name."""
        return cls(**check_config_keys(cls, d, "ModelConfig"))


@dataclass
class ModelParams:
    theta: np.ndarray
    config: ModelConfig
    training_log: dict = field(default_factory=dict)

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)
        if self.theta.ndim != 1:
            raise ValueError(f"theta must be a flat list of numbers, got shape {self.theta.shape}")
        if self.theta.size != self.config.n_params():
            raise ValueError(
                f"theta has {self.theta.size} entries, architecture needs {self.config.n_params()}")
        if not np.isfinite(self.theta).all():
            raise ValueError("theta has non-finite entries")


@dataclass
class MixtureParams:
    pi: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray

    def validate(self):
        if np.any(self.pi < 0) or abs(self.pi.sum() - 1.0) > 1e-6:
            raise ValueError("mixture weights must form a probability simplex")
        if np.any(self.sigma <= 0):
            raise ValueError("component spreads must be positive")


def _unpack(theta: np.ndarray, config: ModelConfig):
    dims = config.layer_dims()
    layers = []
    pos = 0
    for i in range(len(dims) - 1):
        n_in, n_out = dims[i], dims[i + 1]
        w = theta[pos:pos + n_in * n_out].reshape(n_in, n_out)
        pos += n_in * n_out
        b = theta[pos:pos + n_out]
        pos += n_out
        layers.append((w, b))
    return layers


INIT_MEANS_G = (5.0, 35.0)   # the span init_params spreads component means over


def init_params(config: ModelConfig) -> ModelParams:
    """Seeded initial parameters. Component means start spread over
    INIT_MEANS_G so the mixture does not collapse before it can specialise."""
    rng = np.random.default_rng(config.seed)
    dims = config.layer_dims()
    chunks = []
    for i in range(len(dims) - 1):
        n_in, n_out = dims[i], dims[i + 1]
        scale = 1.0 / math.sqrt(n_in)
        if i == len(dims) - 2:
            scale *= 0.1  # keep the head nearly linear at the start
        chunks.append(rng.normal(0.0, scale, size=n_in * n_out))
        b = np.zeros(n_out)
        if i == len(dims) - 2:
            k = config.K
            lo, hi = INIT_MEANS_G
            b[k:2 * k] = np.linspace(lo, hi, k) if k > 1 else [(lo + hi) / 2.0]
            b[2 * k:] = 2.0  # softplus(2) ~ 2.1 g initial spread
        chunks.append(b)
    return ModelParams(np.concatenate(chunks), config)


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------

# features read a depth of z cm as 200 z units
DEPTH_UNITS_PER_CM = 200
HEIGHT_SCALE = 0.1   # mm -> feature units
CAPTURE_SCALE = 0.1  # cm^3-ish capture volume -> feature units
# the fixed "capture" unit: a gripper-footprint-shaped window at the patch
# centre, rectified against the insertion plane and summed - the hand-sized
# stand-in for a learned convolution
CAPTURE_WINDOW_MM = (40, 24)


def _pool_spans(side_in: int, side_out: int) -> tuple:
    """[lo, hi) of the side_out adaptive mean-pooling blocks along an axis of
    side_in, and the areas of the blocks they make, row-major."""
    edges = np.arange(side_out + 1) * side_in // side_out
    widths = np.diff(edges).astype(float)
    return edges[:-1], edges[1:], np.outer(widths, widths).ravel()


def _capture_spans(side: int) -> tuple:
    """[r0, r1), [c0, c1) of the CAPTURE_WINDOW_MM window centred in a side x
    side patch."""
    c = side // 2
    cw, cl = CAPTURE_WINDOW_MM
    return (c - cw // 2, c + (cw + 1) // 2), (c - cl // 2, c + (cl + 1) // 2)


def _span_matrix(lo, hi, n: int) -> np.ndarray:
    """0/1 matrix whose row i sums [lo[i], hi[i]) of an axis of length n; its
    products with whole units are exact whatever order the BLAS adds in."""
    idx = np.arange(n)
    return ((np.ravel(lo)[:, None] <= idx) & (idx < np.ravel(hi)[:, None])).astype(float)


def _features(block_sums, areas, capture_sums, depths) -> np.ndarray:
    """The one feature rule: unit sums (..., n_blocks) of pooling blocks of
    ``areas``, unit sums (...) of max(rel + 10 z, 0) over the capture window
    and depths (cm) become features (..., n_blocks + 2), equal bits for
    equal sums."""
    feats = np.empty(np.shape(capture_sums) + (np.size(areas) + 2,))
    feats[..., :-2] = block_sums / areas * (HEIGHT_SCALE / UNITS_PER_MM)
    feats[..., -2] = capture_sums * (CAPTURE_SCALE * 1e-3 / UNITS_PER_MM)
    feats[..., -1] = depths
    return feats


def features_from_rows(patches, depths, config: ModelConfig) -> np.ndarray:
    """Features of a list or stack of square median-relative patches (mm),
    all of one side, at their depths (cm). Heights are read as whole 0.05 mm
    units by ``patch_units``, so off-grid input, such as Gaussian noise, is
    read at the nearest 0.05 mm, and a height int16 units cannot hold raises
    ValueError; depths are not rounded. Built by ``_unit_features``."""
    return _unit_features([patch_units(p) for p in patches], depths, config)


def _unit_features(patches, depths, config: ModelConfig) -> np.ndarray:
    """The one loop from patches of whole 0.05 mm units (the int16 patches
    of dataset rows) to features, shape (len(patches), n_features): each
    patch is copied into one reused float64 array, and its pooled block
    sums (0/1 span-matrix products) and capture sum are taken there, so only
    one patch is ever held in float64. Takes one depth per patch, and raises
    ValueError naming both counts otherwise."""
    depths = np.asarray(depths, dtype=float)
    if depths.shape != (len(patches),):
        raise ValueError(f"need one depth per patch: got {len(patches)} patches and "
                         f"{depths.size} depths")
    if not len(patches):
        return np.empty((0, config.n_features))
    shape = np.shape(patches[0])
    if shape not in ((PATCH_SIDE, PATCH_SIDE), (CROP_SIDE, CROP_SIDE)):
        raise ValueError(f"patches must be square of side {PATCH_SIDE} or {CROP_SIDE}, "
                         f"got shape {shape}")
    lo, hi, areas = _pool_spans(shape[0], config.pooled_side)
    pool = _span_matrix(lo, hi, shape[0])
    (r0, r1), (c0, c1) = _capture_spans(shape[0])
    units = np.empty(shape)
    block_sums = np.empty((len(patches), areas.size))
    capture_sums = np.empty(len(patches))
    for i, patch in enumerate(patches):
        if np.shape(patch) != shape:
            raise ValueError(f"patches must be square and of one side: patch {i} has "
                             f"shape {np.shape(patch)}, patch 0 {shape}")
        units[...] = patch
        block_sums[i] = (pool @ units @ pool.T).ravel()
        capture_sums[i] = np.maximum(units[r0:r1, c0:c1] + depths[i] * DEPTH_UNITS_PER_CM,
                                     0.0).sum()
    return _features(block_sums, areas, capture_sums, depths)


def _obs_patch(obs: PatchObservation) -> np.ndarray:
    if obs.insertion_depth is None:
        raise ValueError("observation has no insertion depth set")
    return obs.heights


# ---------------------------------------------------------------------------
# forward / density / loss
# ---------------------------------------------------------------------------

def _softplus(x):
    return np.logaddexp(0.0, x)


def _forward_batch(params: ModelParams, feats: np.ndarray, want_cache=False):
    cfg = params.config
    layers = _unpack(params.theta, cfg)
    acts = [feats]
    x = feats
    for w, b in layers[:-1]:
        x = np.tanh(x @ w + b)
        acts.append(x)
    w, b = layers[-1]
    head = x @ w + b
    k = cfg.K
    logits = head[:, :k]
    mu = head[:, k:2 * k]
    sraw = head[:, 2 * k:]
    logits = logits - logits.max(axis=1, keepdims=True)
    log_pi = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    pi = np.exp(log_pi)
    if cfg.fixed_sigma is not None:
        sigma = np.full_like(mu, float(cfg.fixed_sigma))
    else:
        sigma = cfg.sigma_floor + _softplus(sraw)
    if want_cache:
        return pi, mu, sigma, (layers, acts, sraw)
    return pi, mu, sigma


def mdn_forward(params: ModelParams, obs: PatchObservation) -> MixtureParams:
    """Mixture parameters for one observation (deterministic, pure)."""
    feats = features_from_rows([_obs_patch(obs)], [obs.insertion_depth], params.config)
    pi, mu, sigma = _forward_batch(params, feats)
    return MixtureParams(pi[0].copy(), mu[0].copy(), sigma[0].copy())


def mdn_pdf(mix: MixtureParams, m) -> float | np.ndarray:
    """Mixture density sum_k pi_k N(m; mu_k, sigma_k); m may be an array."""
    m_arr = np.asarray(m, dtype=float)[..., None]
    comp = np.exp(-0.5 * ((m_arr - mix.mu) / mix.sigma) ** 2) / (mix.sigma * math.sqrt(2 * math.pi))
    out = (mix.pi * comp).sum(axis=-1)
    return float(out) if np.isscalar(m) or np.asarray(m).ndim == 0 else out


def mixture_moments(mix: MixtureParams) -> tuple:
    """Collapse a mixture to (mean, total std), the pair grasp selection
    judges: ``_reduce_mixture`` of its one row."""
    mu_bar, sigma = _reduce_mixture(*map(np.atleast_2d, (mix.pi, mix.mu, mix.sigma)))
    return float(mu_bar[0]), float(sigma[0])


def _reduce_mixture(pi, mu, sigma):
    """Mean and total std of each row's mixture, (n, K) arrays in and (n,)
    arrays out, by the law of total variance; ``select._score_grid`` reads
    it for a whole lattice at once."""
    mu_bar = (pi * mu).sum(axis=1)
    var = (pi * (sigma ** 2 + mu ** 2)).sum(axis=1) - mu_bar ** 2
    return mu_bar, np.sqrt(np.maximum(var, 0.0))


def _batch_features_masses(params: ModelParams, batch):
    if len(batch) == 0:
        raise ValueError("batch must be non-empty")
    patches = [_obs_patch(obs) for obs, _ in batch]
    depths = np.array([obs.insertion_depth for obs, _ in batch], dtype=float)
    feats = features_from_rows(patches, depths, params.config)
    masses = np.array([m for _, m in batch], dtype=float)
    return feats, masses


def _log_mix(pi, mu, sigma, masses):
    """Log likelihood of each row's mass under its mixture, by log-sum-exp,
    and what the gradient reads again: ``diff = masses - mu`` and the
    shifted exponentials ``e = exp(a - max a)`` with their row sums ``s``,
    so the responsibilities are ``e / s``."""
    diff = masses[:, None] - mu
    z = diff / sigma
    log_comp = -0.5 * z ** 2 - np.log(sigma) - 0.5 * LOG_2PI
    a = np.log(pi + 1e-300) + log_comp
    a_max = a.max(axis=1, keepdims=True)
    e = np.exp(a - a_max)
    s = e.sum(axis=1, keepdims=True)
    return (a_max + np.log(s)).ravel(), diff, e, s


def nll_loss(params: ModelParams, batch) -> float:
    """Mean negative log likelihood of (observation, mass) pairs, with
    log-sum-exp stabilisation."""
    feats, masses = _batch_features_masses(params, batch)
    return _nll_from_features(params, feats, masses)


def _nll_from_features(params: ModelParams, feats, masses) -> float:
    pi, mu, sigma = _forward_batch(params, feats)
    return float(-_log_mix(pi, mu, sigma, masses)[0].mean())


def nll_grad(params: ModelParams, batch) -> np.ndarray:
    """Exact gradient of nll_loss with respect to the flat parameter vector."""
    feats, masses = _batch_features_masses(params, batch)
    _, grad = _nll_value_grad(params, feats, masses)
    return grad


def _nll_value_grad(params: ModelParams, feats, masses):
    """The mean NLL of a batch and its exact gradient, a new flat array laid
    out as theta: each intermediate is formed once, and each layer's
    gradient is written into its ``_unpack`` view of the flat array."""
    cfg = params.config
    pi, mu, sigma, (layers, acts, sraw) = _forward_batch(params, feats, want_cache=True)
    n = feats.shape[0]
    log_lik, diff, r, s = _log_mix(pi, mu, sigma, masses)
    loss = float(-log_lik.mean())

    r /= s                                     # responsibilities
    k = cfg.K
    # the head gradient times n: logits, mu, then sigma; one division by n
    d_head = np.empty((n, 3 * k))
    np.subtract(pi, r, out=d_head[:, :k])
    neg_r = -r
    np.divide(neg_r * diff, sigma ** 2, out=d_head[:, k:2 * k])
    np.multiply(neg_r, diff ** 2 / sigma ** 3 - 1.0 / sigma, out=d_head[:, 2 * k:])
    d_head /= n
    if cfg.fixed_sigma is None:
        d_head[:, 2 * k:] /= 1.0 + np.exp(-sraw)   # to sraw: softplus' = sigmoid
    else:
        d_head[:, 2 * k:] = 0.0

    flat = np.empty_like(params.theta)
    upstream = d_head
    for i, (gw, gb) in reversed(list(enumerate(_unpack(flat, cfg)))):
        np.matmul(acts[i].T, upstream, out=gw)
        np.add.reduce(upstream, axis=0, out=gb)
        if i > 0:
            upstream = (upstream @ layers[i][0].T) * (1.0 - acts[i] ** 2)
    return loss, flat


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------

N_OFFSETS = PATCH_SIDE - CROP_SIDE + 1   # crop offsets per axis
N_VARIANTS = 4 * N_OFFSETS ** 2          # 2 x 2 flips x offsets


def augment(obs: PatchObservation, rng: np.random.Generator) -> PatchObservation:
    """Gripper-symmetry augmentation: one draw of a variant index, uniform
    over N_VARIANTS, picks a vertical flip, a horizontal flip and a
    CROP_SIDE x CROP_SIDE crop offset per axis, in the order of the variant
    axis of ``_variant_features``."""
    patch = np.asarray(obs.heights)
    if patch.shape != (PATCH_SIDE, PATCH_SIDE):
        raise ValueError(f"augment expects {PATCH_SIDE}x{PATCH_SIDE} patches, got {patch.shape}")
    flip_v, flip_h, off_v, off_h = np.unravel_index(int(rng.integers(N_VARIANTS)),
                                                    (2, 2, N_OFFSETS, N_OFFSETS))
    if flip_v:
        patch = patch[::-1, :]
    if flip_h:
        patch = patch[:, ::-1]
    crop = patch[off_v:off_v + CROP_SIDE, off_h:off_h + CROP_SIDE].copy()
    return PatchObservation(crop, obs.insertion_depth)


def _variant_spans(lo, hi):
    """Patch-axis spans [start, end) of the crop-axis spans [lo, hi) in every
    (flip, offset) variant, each of shape (2, N_OFFSETS, len(lo)). Crop index
    k at offset o reads patch index o + k, or PATCH_SIDE - 1 - o - k when the
    axis is flipped, so a span stays a span."""
    off = np.arange(N_OFFSETS)[:, None]
    lo, hi = np.asarray(lo)[None, :], np.asarray(hi)[None, :]
    return (np.stack([off + lo, PATCH_SIDE - off - hi]),
            np.stack([off + hi, PATCH_SIDE - off - lo]))


def _variant_features(rows, config: ModelConfig) -> np.ndarray:
    """Model features of every augmentation variant of every row, shape
    (len(rows), N_VARIANTS, n_features). Entry [i, v] equals
    ``features_from_rows`` of the crop ``augment`` makes of row i's heights,
    its units over UNITS_PER_MM, when it draws variant v, bit for bit: span
    matrices sum the row's units over every crop block and capture window
    in every flip and offset. Built one row at a time, so only one row's
    units exist in float64 at once."""
    side = config.pooled_side
    lo, hi, areas = _pool_spans(CROP_SIDE, side)
    blocks = _span_matrix(*_variant_spans(lo, hi), PATCH_SIDE)
    (r0, r1), (c0, c1) = _capture_spans(CROP_SIDE)
    cap_rows = _span_matrix(*_variant_spans([r0], [r1]), PATCH_SIDE)
    cap_cols = _span_matrix(*_variant_spans([c0], [c1]), PATCH_SIDE)

    table = np.empty((len(rows), N_VARIANTS, config.n_features))
    for i, row in enumerate(rows):
        units = row.patch.astype(float)
        # (flip_v, off_v, block_v, flip_h, off_h, block_h) to augment's variant order
        sums = (blocks @ units @ blocks.T).reshape(2, N_OFFSETS, side, 2, N_OFFSETS, side)
        sums = sums.transpose(0, 3, 1, 4, 2, 5).reshape(N_VARIANTS, side * side)
        rectified = np.maximum(units + row.z_cm * DEPTH_UNITS_PER_CM, 0.0)
        caps = (cap_rows @ rectified @ cap_cols.T).reshape(2, N_OFFSETS, 2, N_OFFSETS)
        table[i] = _features(sums, areas, caps.transpose(0, 2, 1, 3).reshape(N_VARIANTS),
                             row.z_cm)
    return table


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def _dataset_features(rows, config):
    """Features and masses of dataset rows, the features built from the
    rows' int16 units by ``_unit_features``, one row at a time: no float64
    stack of the split (10.24 MB for 50 rows) is ever held."""
    return (_unit_features([r.patch for r in rows], [r.z_cm for r in rows], config),
            np.array([r.mass_g for r in rows]))


def _init_head_from_masses(params: ModelParams, masses) -> None:
    """Re-seat the head biases on the training masses: component means at
    evenly spaced mass quantiles, spreads near the mass std. Keeps every
    component inside the data so none starves before specialising."""
    cfg = params.config
    masses = np.asarray(masses, dtype=float)
    k = cfg.K
    qs = (np.arange(k) + 0.5) / k
    mu0 = np.quantile(masses, qs)
    spread = max(float(masses.std()), 2.0 * cfg.sigma_floor)
    sraw0 = math.log(max(math.expm1(spread), 1e-8))  # softplus inverse
    dims = cfg.layer_dims()
    head_b = params.theta[-dims[-1]:]
    head_b[k:2 * k] = mu0
    head_b[2 * k:] = sraw0


class SplitError(ValueError):
    """A dataset without both a train and an eval row: the input is at fault."""


def train(dataset: "Dataset", config: ModelConfig) -> ModelParams:
    """Stochastic NLL training on the train split with augmentation.

    Right after each epoch's shuffle, one ``integers(N_VARIANTS, size=n)``
    call draws a variant index per row, the indices one ``augment`` call
    per row would draw, and each step reads its rows' features off the
    variant table of ``_variant_features``. Evaluates on the eval split
    every epoch and returns the parameters from the best eval epoch, so the
    returned eval NLL never exceeds the initial one. Fully deterministic for
    a fixed config seed.
    """
    train_rows = dataset.train_rows()
    eval_rows = dataset.eval_rows()
    if not train_rows or not eval_rows:
        raise SplitError(f"dataset must contain non-empty train and eval splits, "
                         f"got {len(train_rows)} train and {len(eval_rows)} eval rows")
    rng = np.random.default_rng(config.seed)
    params = init_params(config)
    _init_head_from_masses(params, [r.mass_g for r in train_rows])

    eval_feats, eval_masses = _dataset_features(eval_rows, config)
    n = len(train_rows)
    masses = np.array([r.mass_g for r in train_rows])
    table = _variant_features(train_rows, config)

    m = np.zeros_like(params.theta)
    v = np.zeros_like(params.theta)
    scratch = np.empty_like(params.theta)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    t = 0

    best_nll = _nll_from_features(params, eval_feats, eval_masses)
    best_theta = params.theta.copy()
    log = [{"epoch": 0, "train_nll": None, "eval_nll": best_nll}]

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        variants = rng.integers(N_VARIANTS, size=n)
        epoch_losses = []
        for start in range(0, n, config.batch_size):
            batch = slice(start, start + config.batch_size)
            idx = order[batch]
            feats = table[idx, variants[batch]]
            loss, g = _nll_value_grad(params, feats, masses[idx])
            epoch_losses.append(loss)
            t += 1
            # Adam in place, each operation as written out in full:
            # m = beta1 m + (1 - beta1) g,  v = beta2 v + (1 - beta2) g g,
            # theta -= lr (m / (1 - beta1^t)) / (sqrt(v / (1 - beta2^t)) + eps)
            np.multiply(beta1, m, out=m)
            m += np.multiply(1 - beta1, g, out=scratch)
            np.multiply(1 - beta2, g, out=scratch)
            scratch *= g
            np.multiply(beta2, v, out=v)
            v += scratch
            np.divide(m, 1 - beta1 ** t, out=g)                  # g becomes the step
            np.multiply(config.learning_rate, g, out=g)
            np.divide(v, 1 - beta2 ** t, out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += eps
            g /= scratch
            params.theta -= g
        eval_nll = _nll_from_features(params, eval_feats, eval_masses)
        log.append({"epoch": epoch,
                    "train_nll": float(np.mean(epoch_losses)),
                    "eval_nll": eval_nll})
        if eval_nll <= best_nll:
            best_nll = eval_nll
            best_theta = params.theta.copy()

    return ModelParams(best_theta, config, training_log={
        "epochs": log,
        "best_eval_nll": best_nll,
        "train_masses_g": [float(x) for x in masses],
    })


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def save_checkpoint(params: ModelParams, path) -> None:
    doc = {
        "config": params.config.to_dict(),
        "theta": params.theta.tolist(),
        "training_log": params.training_log,
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, separators=(",", ":"))
        f.write("\n")


def load_checkpoint(path) -> ModelParams:
    """Load a checkpoint; a malformed one raises ValueError naming the file."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: checkpoint is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: checkpoint must be a JSON object")
    for key in ("config", "theta"):
        if key not in doc:
            raise ValueError(f"{path}: checkpoint has no {key!r} entry")
    try:
        return ModelParams(np.array(doc["theta"], dtype=float),
                           ModelConfig.from_dict(doc["config"]),
                           _check_training_log(doc.get("training_log", {})))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad checkpoint: {exc}") from exc


def _check_training_log(log) -> dict:
    """The checkpoint's training log, if it is a JSON object whose
    ``train_masses_g`` (which the percentile studies read) is absent or a
    list of finite non-negative numbers; otherwise ValueError naming the
    field."""
    if not isinstance(log, dict):
        raise ValueError(f"training_log must be a JSON object, got {type(log).__name__}")
    masses = log.get("train_masses_g", [])
    if not isinstance(masses, list):
        raise ValueError(f"training_log.train_masses_g must be a list, "
                         f"got {type(masses).__name__}")
    for m in masses:
        check_number("training_log.train_masses_g entry", m, 0)
    return log
