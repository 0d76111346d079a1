"""Bad inputs are rejected when they are built or loaded, by name, and the
CLI turns each into exit 2 with one line on stderr."""

import base64
import contextlib
import dataclasses
import io
import json
import math
import os
import pathlib
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from entpick import cli, mdn, select, sim
from entpick.mdn import ModelConfig

FUZZ = settings(max_examples=30, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def run_cli(*argv):
    """Exit code and stderr lines of one CLI call."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue().splitlines()


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("bad_inputs")


@pytest.fixture(scope="module")
def dataset_path(workdir):
    rows = [mdn.DataRow(np.zeros((160, 160), np.int16), 2.0, 5.0 + i,
                        "train" if i < 3 else "eval") for i in range(4)]
    path = workdir / "data.jsonl"
    mdn.Dataset(rows).to_jsonl(path)
    return path


@pytest.fixture(scope="module")
def checkpoint_doc(workdir):
    path = workdir / "model.json"
    mdn.save_checkpoint(mdn.init_params(ModelConfig(K=1, hidden_sizes=(4,))), path)
    return json.loads(path.read_text())


def keys_not_in(cls):
    names = {f.name for f in dataclasses.fields(cls)}
    return st.text(min_size=1, max_size=12).filter(lambda k: k not in names)


# ---------------------------------------------------------------- ModelConfig

crop_side = mdn.CROP_SIDE
bad_model_fields = st.one_of(
    st.builds(lambda v: {"epochs": v}, st.integers(max_value=-1) | st.just(2.5) | st.just("9")),
    st.builds(lambda v: {"batch_size": v}, st.integers(max_value=0) | st.just(None)),
    st.builds(lambda v: {"learning_rate": v},
              st.floats(max_value=0.0) | st.sampled_from([math.nan, math.inf, "0.1"])),
    st.builds(lambda ok, bad, at: {"hidden_sizes": ok[:at] + [bad] + ok[at:]},
              st.lists(st.integers(1, 32), max_size=3), st.integers(max_value=0),
              st.integers(0, 3)),
    st.builds(lambda side, other, first: {"capture_window_mm": [side, other] if first
                                          else [other, side]},
              st.integers(max_value=0) | st.integers(crop_side + 1, 10_000)
              | st.floats(1.1, 149.9).filter(lambda x: not x.is_integer()),
              st.integers(1, crop_side), st.booleans()),
    st.builds(lambda sides: {"capture_window_mm": sides},
              st.lists(st.integers(1, crop_side), max_size=4).filter(lambda s: len(s) != 2)),
    st.builds(lambda d: {"feature_downsample": d},
              st.sampled_from([0, -80, 1, 3, 7, 27, 160.0])),
)


@given(bad_model_fields)
@FUZZ
def test_model_config_rejects_bad_fields(bad):
    with pytest.raises(ValueError, match=f"ModelConfig.*{next(iter(bad))}"):
        ModelConfig.from_dict(bad)


@given(keys_not_in(ModelConfig))
@FUZZ
def test_model_config_names_unknown_key(key):
    with pytest.raises(ValueError) as info:
        ModelConfig.from_dict({"epochs": 5, key: 1})
    assert repr(key) in str(info.value)


@given(st.integers(0, 50), st.integers(1, 64), st.lists(st.integers(1, 16), max_size=2),
       st.sampled_from([8, 16, 20, 40, 80, 160]))
@FUZZ
def test_model_config_accepts_valid_fields(epochs, batch, hidden, downsample):
    doc = {"epochs": epochs, "batch_size": batch, "hidden_sizes": hidden,
           "feature_downsample": downsample}
    cfg = ModelConfig.from_dict(doc)
    assert ModelConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


@given(bad_model_fields | st.builds(lambda k: {k: 1}, keys_not_in(ModelConfig)))
@FUZZ
def test_cli_train_bad_config_exit_2(workdir, dataset_path, bad):
    config = write_json(workdir / "model_config.json", bad)
    code, err = run_cli("train", dataset_path, "--config", config,
                        "--out", workdir / "never.json")
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: bad model config")


def test_cli_train_named_failures(workdir, dataset_path):
    for doc, needle in (({"bogus": 3}, "'bogus'"), ({"batch_size": 0}, "batch_size"),
                        ({"capture_window_mm": [300, 24]}, "capture_window_mm")):
        config = write_json(workdir / "named.json", doc)
        code, err = run_cli("train", dataset_path, "--config", config,
                            "--out", workdir / "never.json")
        assert code == 2 and len(err) == 1 and needle in err[0]


# ---------------------------------------------------------------- SimConfig

SECTIONS = {"noise": sim.NoiseParams, "pregrasp": sim.PregraspParams,
            "postgrasp": sim.PostgraspParams, "scale": sim.ScaleParams,
            "clump_lognormal": sim.ClumpParams}

unknown_sim_key = st.one_of(
    st.builds(lambda k: ({k: 1}, k), keys_not_in(sim.SimConfig)),
    *(st.builds(lambda k, s=section: ({s: {k: 1}}, k), keys_not_in(cls))
      for section, cls in SECTIONS.items()),
)
bad_scale = st.builds(lambda field, v: {"scale": {field: v}},
                      st.sampled_from(["rate_hz", "resolution_g"]),
                      st.floats(max_value=0.0) | st.just(math.nan))


# (field path, values that must be rejected); each path names the field
# the way the error message does
BAD_SIM_FIELDS = {
    "postgrasp.p_clump": st.floats(max_value=-1e-9) | st.floats(min_value=1 + 1e-9),
    "postgrasp.p_tangle": st.floats(max_value=-1e-9) | st.floats(min_value=1 + 1e-9),
    "kappa": st.floats(max_value=-1e-9) | st.floats(min_value=sim.MAX_KAPPA + 1e-9)
             | st.sampled_from([math.nan, math.inf, "1.7", True]),
    "eta_fill": st.floats(max_value=0.0) | st.floats(min_value=1 + 1e-9),
    "slump_strength": st.floats(max_value=-1e-9) | st.floats(min_value=1 + 1e-9),
    "tray_mm": st.lists(st.integers(1, 500), max_size=5).filter(lambda t: len(t) != 3),
    "footprint_mm": st.lists(st.floats(1, 50), max_size=4).filter(lambda t: len(t) != 2),
    "lambda_range": st.lists(st.floats(0, 1), max_size=4).filter(lambda t: len(t) != 2),
    "rho_range": st.lists(st.floats(0.5, 2), max_size=4).filter(lambda t: len(t) != 2),
    "noise.craters": st.lists(st.integers(0, 40), max_size=4).filter(lambda t: len(t) != 2)
    | st.just([40, 10]),
    "noise.crater_depth_mm": st.lists(st.floats(0, 9), max_size=4).filter(lambda t: len(t) != 2),
    "clump_lognormal.r_mm": st.floats(max_value=0.0),
    "pregrasp.r_mm": st.floats(max_value=0.0),
    "slump_reach_mm": st.floats(max_value=1 - 1e-9) | st.just(math.nan),
    "postgrasp.gamma_shape": st.floats(max_value=0.0),
    "postgrasp.gamma_scale": st.floats(max_value=0.0),
    "postgrasp.piece_g": st.floats(max_value=0.0) | st.just(None),
    "clearance_mm": st.floats(max_value=-1e-9) | st.just(math.inf),
    "slip_g": st.floats(max_value=-1e-9),
    "scale.lag": st.integers(max_value=-1) | st.sampled_from([1.5, 2.0, "2", None]),
    "noise.amp_mm": st.floats(max_value=-1e-9) | st.just(math.nan),
    "noise.corr_mm": st.floats(max_value=0.0) | st.just(math.nan),
    "noise.wear_mm": st.floats(max_value=-1e-9) | st.just(math.inf),
    "clump_lognormal.mu": st.sampled_from([math.nan, math.inf, -math.inf, "0.7", None]),
    "clump_lognormal.sigma": st.floats(max_value=-1e-9) | st.just(math.nan),
    "scale.transient_gain": st.floats(max_value=-1e-9) | st.just(math.nan),
}


def sim_doc(path, value):
    """A SimConfig document setting the field at ``path`` (``section.name``
    or ``name``) to ``value``."""
    section, _, name = path.rpartition(".")
    return {section: {name: value}} if section else {name: value}


bad_sim_field = st.sampled_from(sorted(BAD_SIM_FIELDS)).flatmap(
    lambda path: BAD_SIM_FIELDS[path].map(lambda v: sim_doc(path, v)))


@pytest.mark.parametrize("path", sorted(BAD_SIM_FIELDS))
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_sim_config_rejects_bad_fields(path, data):
    doc = sim_doc(path, data.draw(BAD_SIM_FIELDS[path]))
    with pytest.raises(ValueError, match=f"SimConfig.{path}"):
        sim.SimConfig.from_dict(doc)


@pytest.mark.parametrize("path, value", [
    ("postgrasp.p_clump", 1.0000001), ("postgrasp.p_tangle", -1e-12), ("kappa", -1e-12),
    ("eta_fill", 0.0), ("slump_strength", 1.0000001), ("slump_reach_mm", 0.999),
    ("clearance_mm", -1e-12), ("scale.lag", 2.0), ("pregrasp.r_mm", 0.0),
    ("clump_lognormal.r_mm", 0), ("postgrasp.piece_g", 0.0), ("postgrasp.gamma_scale", 0),
    ("noise.amp_mm", -1e-12), ("noise.corr_mm", 0.0), ("clump_lognormal.sigma", -1e-12),
    ("scale.transient_gain", -1e-12), ("kappa", 1000.0000001),
])
def test_sim_config_rejects_boundary_values(path, value):
    with pytest.raises(ValueError, match=f"SimConfig.{path}"):
        sim.SimConfig.from_dict(sim_doc(path, value))


@pytest.mark.parametrize("path, value", [
    ("postgrasp.p_clump", 0.0), ("postgrasp.p_clump", 1.0), ("postgrasp.p_tangle", 1),
    ("kappa", 0), ("eta_fill", 1.0), ("slump_strength", 0.0), ("slump_strength", 1.0),
    ("slump_reach_mm", 1), ("clearance_mm", 0.0), ("slip_g", 0), ("scale.lag", 0),
    ("noise.craters", [5, 5]), ("clump_lognormal.r_mm", 0.5), ("pregrasp.r_mm", 1e-3),
    ("noise.amp_mm", 0.0), ("noise.corr_mm", 1e-3), ("noise.wear_mm", 0),
    ("clump_lognormal.mu", -3.0), ("clump_lognormal.sigma", 0.0), ("scale.transient_gain", 0),
    ("kappa", 1000),
])
def test_sim_config_accepts_boundary_values(path, value):
    cfg = sim.SimConfig.from_dict(sim_doc(path, value))
    assert sim.SimConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


@given(unknown_sim_key)
@FUZZ
def test_sim_config_names_unknown_key(case):
    doc, key = case
    with pytest.raises(ValueError) as info:
        sim.SimConfig.from_dict(doc)
    assert repr(key) in str(info.value)


@given(bad_scale)
@FUZZ
def test_sim_config_rejects_bad_scale(doc):
    field = next(iter(doc["scale"]))
    with pytest.raises(ValueError, match=field):
        sim.SimConfig.from_dict(doc)


@given(unknown_sim_key.map(lambda case: case[0]) | bad_scale | bad_sim_field)
@FUZZ
def test_cli_collect_bad_config_exit_2(workdir, doc):
    config = write_json(workdir / "sim_config.json", doc)
    code, err = run_cli("collect", "--n", 2, "--config", config,
                        "--out", workdir / "never.jsonl")
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: bad simulator config")


@pytest.mark.parametrize("argv, doc", [
    (("collect", "--n", 2), {"noise": {"amp_mm": math.nan}}),
    (("experiment", "TABLE2", "--episodes", 30), {"clump_lognormal": {"sigma": -1}}),
    (("experiment", "TABLE3", "--episodes", 30), {"scale": {"transient_gain": math.nan}}),
])
def test_cli_bad_sim_field_exit_2_before_running(workdir, argv, doc):
    """Each of these once ran: into a NaN heap blamed on --zpool, into a
    mid-run numpy error, or through TABLE3 to 0.0 % with exit 0."""
    config = write_json(workdir / "bad_field.json", doc)
    out = workdir / "never_bad_field"
    code, err = run_cli(*argv, "--config", config, "--out", out)
    section = next(iter(doc))
    assert code == 2 and len(err) == 1
    assert f"SimConfig.{section}.{next(iter(doc[section]))}" in err[0]
    assert not out.exists()


def test_cli_collect_kappa_too_large_exit_2(workdir):
    """kappa 1e20 once ran into numpy's Poisson error, exit 1 and no field
    named; kappa 1e6 ran one clump at a time, 20 times slower."""
    config = write_json(workdir / "kappa.json", {"kappa": 1e20})
    code, err = run_cli("collect", "--n", 4, "--config", config,
                        "--out", workdir / "never_kappa.jsonl")
    assert code == 2 and len(err) == 1 and "SimConfig.kappa" in err[0]


SMALL_TRAY = {"tray_mm": [160, 160, 160]}


@pytest.mark.parametrize("doc, field", [
    # a grasp point keeps 80 mm from every edge: no point fits a 159 mm side
    ({"tray_mm": [159, 308, 160]}, "tray_mm[0]"),
    ({"tray_mm": [424, 159.9, 160]}, "tray_mm[1]"),
    # a footprint over 160 mm leaves the tray at the patch margin
    ({"footprint_mm": [160.01, 22.5]}, "footprint_mm[0]"),
    ({"footprint_mm": [500, 22.5]}, "footprint_mm[0]"),
    ({"footprint_mm": [40, 161]}, "footprint_mm[1]"),
    # the crater window of a 158 mm footprint is 160 mm wide
    ({**SMALL_TRAY, "fill_mm": 100, "footprint_mm": [160, 22.5]}, "footprint_mm[0]"),
    ({**SMALL_TRAY, "footprint_mm": [40, 158]}, "footprint_mm[1]"),
    ({"tray_mm": [162, 308, 160], "footprint_mm": [160, 22.5]}, "footprint_mm[0]"),
    # the heap grid is whole mm: a fractional depth once ended in exit 1,
    # "heights out of tray range", and a fractional width was truncated
    ({"tray_mm": [424, 308, 160.5], "fill_mm": 160.5}, "tray_mm[2]"),
    ({"tray_mm": [424.5, 308, 160]}, "tray_mm[0]"),
    # a height less its patch median must fit int16 units of 0.05 mm
    ({"tray_mm": [424, 308, 1639]}, "tray_mm[2]"),
])
def test_sim_config_rejects_sizes_that_cannot_be_picked(workdir, doc, field):
    with pytest.raises(ValueError, match=f"SimConfig.{field}".replace("[", r"\[")):
        sim.SimConfig.from_dict(doc)
    config = write_json(workdir / "bad_size.json", doc)
    out = workdir / "never_bad_size.jsonl"
    code, err = run_cli("collect", "--n", 2, "--config", config, "--out", out)
    assert code == 2 and len(err) == 1 and f"SimConfig.{field}" in err[0]
    assert not out.exists()


def test_sim_config_accepts_the_deepest_tray_a_patch_can_hold():
    assert sim.MAX_TRAY_DEPTH_MM == np.iinfo(np.int16).max // mdn.UNITS_PER_MM == 1638
    assert sim.SimConfig.from_dict({"tray_mm": [424, 308, 1638]}).tray_mm[2] == 1638
    # relative heights lie within the tray depth of zero, so its patch units fit int16
    assert mdn.patch_units(np.array([1638.0, -1638.0])).tolist() == [32760, -32760]


def test_sim_config_accepts_the_widest_crater():
    # 2 * (int(157.9 / 2) + 1) = 158 mm of crater across a 160 mm side
    cfg = sim.SimConfig.from_dict({**SMALL_TRAY, "footprint_mm": [157.9, 157.9]})
    assert sim.init_heap(cfg, seed=1).heights.shape == (160, 160)


def test_cli_collect_craters_flatten_the_heap_names_the_footprint(workdir):
    """The widest craters pass every size rule, but they wear the heap flat
    to a median of 0 mm, so no pool depth clears the floor: the one line
    names the footprint beside the fill and the clearance."""
    config = write_json(workdir / "wide_footprint.json",
                        {**SMALL_TRAY, "footprint_mm": [157.9, 157.9]})
    out = workdir / "never_wide_footprint.jsonl"
    code, err = run_cli("collect", "--n", 2, "--config", config, "--out", out)
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error:")
    assert "no pool depth clears the tray floor" in err[0]
    assert "footprint_mm 157.9 x 157.9" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("doc", [
    SMALL_TRAY,
    {**SMALL_TRAY, "footprint_mm": [160, 160], "noise": {"amp_mm": 0.0}},
    {**SMALL_TRAY, "footprint_mm": [160, 160], "noise": {"craters": [0, 0]}},
    {"tray_mm": [163, 308, 160], "footprint_mm": [160, 22.5]},
    # whole sides written as floats
    {"tray_mm": [424.0, 308.0, 160.0]},
])
def test_smallest_trays_and_widest_footprints_collect(workdir, doc):
    config = write_json(workdir / "small_tray.json", doc)
    out = workdir / "small_tray.jsonl"
    code, err = run_cli("collect", "--n", 2, "--config", config, "--out", out)
    assert (code, err) == (0, [])
    assert len(mdn.Dataset.from_jsonl(out).rows) == 2


# ---------------------------------------------------------------- checkpoints

CHECKPOINT_COMMANDS = (
    ("inspect", "{model}", "--target", 20, "--out", "{out}"),
    ("run", "{model}", "--target", 20, "--episodes", 1, "--out", "{out}"),
    ("experiment", "TABLE1", "{model}", "--episodes", 30, "--out", "{out}"),
)


def cli_with_model(command, model, out):
    return run_cli(*(str(a).format(model=model, out=out) for a in command))


@given(st.sampled_from(["config", "theta"]), st.sampled_from(CHECKPOINT_COMMANDS))
@FUZZ
def test_checkpoint_missing_key_named(workdir, checkpoint_doc, missing, command):
    doc = {k: v for k, v in checkpoint_doc.items() if k != missing}
    path = write_json(workdir / "no_key.json", doc)
    with pytest.raises(ValueError, match=f"no_key.json.*'{missing}'"):
        mdn.load_checkpoint(path)
    code, err = cli_with_model(command, path, workdir / "never")
    assert code == 2 and len(err) == 1
    assert "no_key.json" in err[0] and repr(missing) in err[0]


@given(st.data(), st.sampled_from(CHECKPOINT_COMMANDS))
@FUZZ
def test_checkpoint_truncated_or_mangled(workdir, checkpoint_doc, data, command):
    text = json.dumps(checkpoint_doc)
    bad = data.draw(st.one_of(
        st.integers(0, len(text) - 1).map(lambda n: text[:n]),
        st.builds(lambda theta: json.dumps({**checkpoint_doc, "theta": theta}),
                  st.lists(st.floats(allow_nan=False), max_size=5) | st.just("x")),
        st.builds(lambda cfg: json.dumps({**checkpoint_doc, "config": cfg}),
                  st.just([]) | st.just({"K": 0}) | st.just({"bogus": 1})),
        st.sampled_from(["[]", "3", "null"]),
    ))
    path = workdir / "mangled.json"
    path.write_text(bad)
    with pytest.raises(ValueError, match="mangled.json"):
        mdn.load_checkpoint(path)
    code, err = cli_with_model(command, path, workdir / "never")
    assert code == 2 and len(err) == 1 and "mangled.json" in err[0]


MASSES = {"train_masses_g": [5.0, 10.0, 20.0, 30.0]}
BAD_CHECKPOINT_FIELDS = {
    "nan_theta": (lambda doc: {**doc, "theta": [math.nan] * len(doc["theta"]),
                               "training_log": MASSES}, "theta has non-finite"),
    "nested_theta": (lambda doc: {**doc, "theta": [doc["theta"]], "training_log": MASSES},
                     "theta must be a flat list"),
    "log_list": (lambda doc: {**doc, "training_log": []}, "training_log must be a JSON object"),
    "masses_mixed": (lambda doc: {**doc, "training_log": {"train_masses_g": ["a", None]}},
                     "train_masses_g"),
    "masses_text": (lambda doc: {**doc, "training_log": {"train_masses_g": "5"}},
                    "train_masses_g must be a list"),
    "masses_inf": (lambda doc: {**doc, "training_log": {"train_masses_g": [5.0, math.inf]}},
                   "train_masses_g"),
    # written while ModelConfig had a `reduction` field
    "removed_key": (lambda doc: {**doc, "config": {**doc["config"], "reduction": "moments"}},
                    "'reduction'"),
}


@pytest.mark.parametrize("name", sorted(BAD_CHECKPOINT_FIELDS))
def test_checkpoint_bad_field_named(workdir, checkpoint_doc, name):
    mangle, needle = BAD_CHECKPOINT_FIELDS[name]
    path = write_json(workdir / f"{name}.json", mangle(checkpoint_doc))
    with pytest.raises(ValueError, match=needle):
        mdn.load_checkpoint(path)
    code, err = cli_with_model(CHECKPOINT_COMMANDS[2], path, workdir / "never")
    assert code == 2 and len(err) == 1
    assert f"{name}.json" in err[0] and needle in err[0]


@pytest.mark.parametrize("log", [{}, {"train_masses_g": []}], ids=["absent", "empty"])
@pytest.mark.parametrize("preset", ["TABLE1", "TABLE4"])
def test_cli_percentile_study_needs_training_masses(workdir, checkpoint_doc, preset, log):
    path = write_json(workdir / "no_masses.json", {**checkpoint_doc, "training_log": log})
    out = workdir / "never_masses.json"
    code, err = run_cli("experiment", preset, path, "--episodes", 30, "--out", out)
    assert code == 2 and len(err) == 1
    assert "no_masses.json" in err[0] and "training_log.train_masses_g" in err[0]
    assert not out.exists()


def test_run_and_inspect_accept_a_checkpoint_without_masses(workdir, checkpoint_doc):
    """They take --target, so they never read the training masses."""
    path = write_json(workdir / "masses_unused.json", {**checkpoint_doc, "training_log": {}})
    for argv in (("inspect", path, "--target", 20),
                 ("run", path, "--target", 20, "--episodes", 1)):
        assert run_cli(*argv, "--out", workdir / f"ok_{argv[0]}") == (0, [])


# ---------------------------------------------------------------- datasets

def with_row(dataset_path, line, **fields):
    """The rows of ``dataset_path`` with row ``line`` (0-based) updated."""
    rows = dataset_path.read_text().splitlines()
    rows[line] = json.dumps({**json.loads(rows[line]), **fields})
    return "\n".join(rows) + "\n"


def b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


PATCH_BYTES = 160 * 160 * 2
FLOAT64_PATCH_BYTES = 160 * 160 * 8


@given(st.integers(0, 2 * PATCH_BYTES).filter(lambda n: n != PATCH_BYTES), st.integers(0, 3))
@FUZZ
def test_dataset_rejects_wrong_patch_shape(workdir, dataset_path, n_bytes, line):
    # a patch of any byte count but 160 x 160 int16 units
    path = workdir / "bad_patch.jsonl"
    path.write_text(with_row(dataset_path, line, patch=b64(bytes(n_bytes))))
    with pytest.raises(ValueError, match=f"line {line + 1}.*{n_bytes} bytes"):
        mdn.Dataset.from_jsonl(path)
    code, err = run_cli("train", path, "--out", workdir / "never.json")
    assert code == 2 and len(err) == 1 and f"line {line + 1}" in err[0]


@pytest.mark.parametrize("patch, needle", [
    (np.zeros((160, 160)).tolist(), "patch must be base64 int16"),     # the list-of-floats form
    ([[math.nan] * 160] * 160, "patch must be base64 int16"),
    ("AAAA" * 17066 + "A", "patch must be base64 int16"),               # bad padding
    ("@" * 68268, "patch must be base64 int16"),                        # not the alphabet
    (b64(bytes(PATCH_BYTES)).replace("A", "A\n", 1), "patch must be base64 int16"),
    (b64(bytes(PATCH_BYTES))[:-4] + "AA==", "51199 bytes"),             # a byte short
    (None, "patch must be base64 int16"),
    # a row written while patches were float64: named, with how to rebuild the dataset
    (b64(bytes(FLOAT64_PATCH_BYTES)),
     "204800 bytes, the 160x160 float64 patch of a dataset written before patches were int16 "
     "units of 0.05 mm; rebuild the dataset with `entpick collect` or by replaying the "
     "collection's manifest"),
])
def test_dataset_rejects_bad_patch(workdir, dataset_path, patch, needle):
    path = workdir / "bad_patch.jsonl"
    path.write_text(with_row(dataset_path, 1, patch=patch))
    with pytest.raises(ValueError, match=f"line 2.*{needle}"):
        mdn.Dataset.from_jsonl(path)
    code, err = run_cli("train", path, "--out", workdir / "never.json")
    assert code == 2 and len(err) == 1
    assert "line 2" in err[0] and needle in err[0]


@pytest.mark.parametrize("field", ["z_cm", "mass_g"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_dataset_rejects_non_finite_depth_or_mass(workdir, dataset_path, field, value):
    path = workdir / "non_finite.jsonl"
    path.write_text(with_row(dataset_path, 2, **{field: value}))
    with pytest.raises(ValueError, match="line 3.*non-finite"):
        mdn.Dataset.from_jsonl(path)


@pytest.mark.parametrize("field, value", [
    ("z_cm", -3.0), ("z_cm", 0), ("z_cm", "2.5"), ("z_cm", True),
    pytest.param("z_cm", 10 ** 400, id="z_cm-int-beyond-float"),
    ("mass_g", "12"), ("mass_g", -0.5), ("mass_g", None),
])
def test_dataset_rejects_bad_depth_or_mass(workdir, dataset_path, field, value):
    path = workdir / "bad_number.jsonl"
    path.write_text(with_row(dataset_path, 2, **{field: value}))
    code, err = run_cli("train", path, "--out", workdir / "never.json")
    assert code == 2 and len(err) == 1
    assert "line 3" in err[0] and f"{field} must be a number" in err[0]


@pytest.mark.parametrize("splits, counts", [
    ((), "got 0 train and 0 eval rows"),
    (("train",), "got 3 train and 0 eval rows"),
    (("eval",), "got 0 train and 1 eval rows"),
], ids=["empty", "train_only", "eval_only"])
def test_cli_train_rejects_a_missing_split(workdir, dataset_path, splits, counts):
    path = workdir / "one_split.jsonl"
    path.write_text("".join(line + "\n" for line in dataset_path.read_text().splitlines()
                            if json.loads(line)["split"] in splits))
    out = workdir / "split_never.json"
    code, err = run_cli("train", path, "--out", out)
    assert code == 2 and len(err) == 1
    assert str(path) in err[0] and counts in err[0]
    assert not out.exists() and not pathlib.Path(f"{out}.manifest.json").exists()


# ---------------------------------------------------------------- SelectionConfig

@pytest.mark.parametrize("fields, name", [
    ({"target_mass_g": math.nan}, "target_mass_g"),
    ({"target_mass_g": -1e-9}, "target_mass_g"),
    ({"target_mass_g": "20"}, "target_mass_g"),
    ({"target_mass_g": math.inf}, "target_mass_g"),
    ({"target_mass_g": 20.0, "alpha": math.nan}, "alpha"),
    ({"target_mass_g": 20.0, "alpha": math.inf}, "alpha"),
    ({"target_mass_g": 20.0, "alpha": -1e-9}, "alpha"),
])
def test_selection_config_rejects_bad_fields(fields, name):
    with pytest.raises(ValueError, match=f"SelectionConfig.{name}"):
        select.SelectionConfig(**fields)


def test_selection_config_accepts_a_zero_target():
    # a percentile of the training masses can be 0 g
    assert select.SelectionConfig(target_mass_g=0, alpha=0.0).target_mass_g == 0


# ---------------------------------------------------------------- experiment

@pytest.mark.parametrize("argv, needle", [
    (("TABLE3", "--episodes", 10), "at least 30 episodes"),
    (("TABLE3", "--episodes", 0), "at least 30 episodes"),
    (("TABLE2", "--episodes", -5), "at least 30 episodes"),
    (("TABLE1", "--episodes", 30), "TABLE1 needs a trained model"),
    (("TABLE4", "--episodes", 30), "TABLE4 needs a trained model"),
    (("HISTOGRAM", "--n", 1), "--n must be at least 2"),
    (("HISTOGRAM", "--n", 0), "--n must be at least 2"),
    # a flag the preset does not read
    (("TABLE2", "--episodes", 30, "--n", 50), "--n is read only by HISTOGRAM"),
    (("TABLE3", "--n", 50), "--n is read only by HISTOGRAM"),
    (("TABLE1", "model.json", "--n", 50), "--n is read only by HISTOGRAM"),
    (("TABLE4", "model.json", "--episodes", 30, "--n", 50), "--n is read only by HISTOGRAM"),
    (("HISTOGRAM", "--episodes", 30), "--episodes is not read by HISTOGRAM"),
    (("HISTOGRAM", "--n", 4, "--episodes", 200), "--episodes is not read by HISTOGRAM"),
    (("HISTOGRAM", "model.json", "--n", 4), "HISTOGRAM reads no model checkpoint"),
    (("HISTOGRAM", "--n", 4, "--workers", 2), "--workers 2: HISTOGRAM collects in one process"),
    (("TABLE2", "model.json", "--episodes", 30),
     "TABLE2 reads no model checkpoint, got model.json"),
    (("TABLE3", "model.json", "--episodes", 30),
     "TABLE3 reads no model checkpoint, got model.json"),
])
def test_cli_experiment_bad_input_exit_2(workdir, argv, needle):
    out = workdir / "never_experiment.json"
    code, err = run_cli("experiment", *argv, "--out", out)
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error:") and needle in err[0]
    assert not out.exists()


# ---------------------------------------------------------------- numeric flags

@pytest.mark.parametrize("argv, needle", [
    (("collect", "--seed", -1), "--seed must be an integer >= 0"),
    (("inspect", "{model}", "--target", 20, "--seed", -1), "--seed must be an integer >= 0"),
    (("run", "{model}", "--target", 20, "--seed", -1), "--seed must be an integer >= 0"),
    (("experiment", "HISTOGRAM", "--n", 4, "--seed", -1), "--seed must be an integer >= 0"),
    (("run", "{model}", "--target", -5), "--target must be a number > 0"),
    (("run", "{model}", "--target", 20, "--alpha", -1), "--alpha must be a number >= 0"),
    (("run", "{model}", "--target", 20, "--workers", -3), "--workers must be an integer >= 1"),
    (("experiment", "TABLE2", "--episodes", 30, "--workers", -3),
     "--workers must be an integer >= 1"),
    (("collect", "--n", 2, "--zpool", -1), "--zpool must be a number > 0"),
    (("collect", "--n", 2, "--zpool", 0), "--zpool must be a number > 0"),
    (("collect", "--n", 2, "--zpool", 2, "nan"), "--zpool must be a number > 0"),
    (("collect", "--n", 2, "--zpool", 14), "--zpool 14: no pool depth clears the tray floor"),
    (("collect", "--n", 2, "--zpool", 50), "--zpool 50: no pool depth clears the tray floor"),
])
def test_cli_numeric_flag_out_of_range_exit_2(workdir, checkpoint_doc, argv, needle):
    model = write_json(workdir / "flags_model.json", checkpoint_doc)
    out = workdir / "never_flags"
    code, err = run_cli(*(str(a).format(model=model) for a in argv), "--out", out)
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error:") and needle in err[0]
    assert not list(workdir.glob("never_flags*"))


@pytest.mark.parametrize("argv, needle", [
    (("collect", "--n", 5, "--bogus", 1, "--out", "{out}"),
     "entpick collect: unrecognized arguments: --bogus 1"),
    (("collect",), "entpick collect: the following arguments are required: --out"),
    (("run", "m.json", "--target", "abc", "--out", "{out}"),
     "entpick run: argument --target: invalid float value: 'abc'"),
    (("bogus", "--out", "{out}"), "entpick: argument command: invalid choice: 'bogus'"),
])
def test_cli_parser_rejection_one_line_exit_2(workdir, argv, needle):
    """What the parser rejects ends as one line, without the usage block."""
    out = workdir / "never_parsed.json"
    code, err = run_cli(*(str(a).format(out=out) for a in argv))
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error:") and needle in err[0]
    assert not list(workdir.glob("never_parsed*"))


@pytest.mark.parametrize("argv", [("--help",), ("--version",), ("collect", "--help")])
def test_cli_help_and_version_exit_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 0
    printed = capsys.readouterr()
    assert printed.out and printed.err == ""


@pytest.mark.parametrize("level", ["bogus", "10", ""])
def test_cli_bad_log_level_exit_2(level):
    """ENTPICK_LOG is read before the command line is parsed, so even
    --version checks it."""
    env = {**os.environ, "ENTPICK_LOG": level,
           "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "entpick.cli", "--version"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ENTPICK_LOG")
    assert "DEBUG, INFO, WARNING, ERROR or CRITICAL" in err[0]


def test_cli_experiment_too_shallow_fill_one_line(workdir):
    """A tray filled too low for every pool depth is a bad simulator config:
    exit 2 and one line naming the config, its fill and its clearance, no
    traceback, on one worker and across a process pool alike."""
    config = write_json(workdir / "shallow.json", {"fill_mm": 12})
    out = workdir / "never_shallow.json"
    for workers in (1, 2):
        code, err = run_cli("experiment", "TABLE2", "--episodes", 30, "--config", config,
                            "--workers", workers, "--out", out)
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:")
        assert f"simulator config {config}: no pool depth clears the tray floor" in err[0]
        assert "(fill_mm 12, clearance_mm 5)" in err[0]
        assert not out.exists()


@pytest.mark.parametrize("exc", [BrokenProcessPool("a worker died"), OSError("disk full")])
def test_cli_experiment_runtime_failure_stays_exit_1(workdir, monkeypatch, exc):
    """Only a tray no pool depth can clear is the config's fault; a broken
    worker pool or an I/O error is still a runtime failure."""
    def failing(*args, **kw):
        raise exc

    monkeypatch.setattr(cli.experiments, "run_experiment", failing)
    code, err = run_cli("experiment", "TABLE2", "--episodes", 30, "--workers", 2,
                        "--out", workdir / "never_broken.json")
    assert code == 1 and len(err) == 1 and str(exc) in err[0]
