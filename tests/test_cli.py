import json

import pytest

from entpick import cli, mdn


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "data.jsonl"
    assert run_cli("collect", "--n", 40, "--seed", 7, "--out", path) == 0
    return path


@pytest.fixture(scope="module")
def small_model(small_dataset, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "model.json"
    assert run_cli("train", small_dataset, "--seed", 3, "--out", path) == 0
    return path


# ---------------------------------------------------------------- collect

def test_collect_row_count_and_split(small_dataset):
    ds = mdn.Dataset.from_jsonl(small_dataset)
    assert len(ds) == 40
    assert len(ds.train_rows()) == 30


def test_collect_rerun_byte_identical(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    assert run_cli("collect", "--n", 10, "--seed", 5, "--out", a) == 0
    assert run_cli("collect", "--n", 10, "--seed", 5, "--out", b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_collect_n_too_small_is_usage_error(tmp_path):
    assert run_cli("collect", "--n", 1, "--out", tmp_path / "x.jsonl") == 2


# ---------------------------------------------------------------- train

def test_train_writes_checkpoint_and_manifest(small_model):
    params = mdn.load_checkpoint(small_model)
    log = params.training_log["epochs"]
    assert params.training_log["best_eval_nll"] <= log[0]["eval_nll"]
    with open(str(small_model) + ".manifest.json") as f:
        manifest = json.load(f)
    assert manifest["artifacts"] == [str(small_model)]
    assert manifest["command"] == "train"


def test_train_missing_dataset_exit_2(tmp_path):
    assert run_cli("train", tmp_path / "nope.jsonl", "--out", tmp_path / "m.json") == 2


def test_checkpoint_round_trip_predictions(small_model, tmp_path):
    import numpy as np
    from entpick.sim import PatchObservation
    params = mdn.load_checkpoint(small_model)
    path2 = tmp_path / "again.json"
    mdn.save_checkpoint(params, path2)
    again = mdn.load_checkpoint(path2)
    obs = PatchObservation(np.zeros((160, 160)), 2.5)
    a = mdn.mdn_forward(params, obs)
    b = mdn.mdn_forward(again, obs)
    assert abs(a.mu - b.mu).max() <= 1e-12


# ---------------------------------------------------------------- inspect / run

def test_inspect_report(small_model, tmp_path):
    out = tmp_path / "sel.json"
    assert run_cli("inspect", small_model, "--target", 20, "--alpha", 1,
                   "--seed", 5, "--out", out) == 0
    report = json.loads(out.read_text())
    assert report["n_candidates"] == len(report["candidates"])
    if report["winner"] is not None:
        assert report["candidates"][report["winner"]["index"]]["feasible"]


def test_run_writes_traces_and_summary(small_model, tmp_path):
    out = tmp_path / "run1"
    assert run_cli("run", small_model, "--target", 20, "--alpha", 1,
                   "--episodes", 4, "--seed", 3, "--out", out) == 0
    summary = json.loads((tmp_path / "run1_summary.json").read_text())
    assert set(summary["success"]) >= {"band_2g", "band_3g", "band_4g",
                                       "above_target_minus_2g"}
    traces = [json.loads(line) for line in
              (tmp_path / "run1_traces.jsonl").read_text().splitlines()]
    assert {t["event"] for t in traces} >= {"observe", "select", "grasp", "place"}
    assert summary["ledger"]["max_abs_imbalance_g"] < 1e-6


def test_run_zero_episodes_usage_error(small_model, tmp_path):
    assert run_cli("run", small_model, "--target", 20, "--episodes", 0,
                   "--out", tmp_path / "x") == 2


def test_run_alpha_one_at_least_matches_alpha_zero(small_model, tmp_path):
    # same seed set, alpha 0 vs 1: the margin never hurts the chance of
    # grasping above target - 2 g
    rates = {}
    for alpha in (0, 1):
        out = tmp_path / f"alpha{alpha}"
        assert run_cli("run", small_model, "--target", 24, "--alpha", alpha,
                       "--episodes", 30, "--seed", 13, "--out", out) == 0
        summary = json.loads((str(out) + "_summary.json") and
                             (tmp_path / f"alpha{alpha}_summary.json").read_text())
        rates[alpha] = summary["success"]["above_target_minus_2g"]
    assert rates[1] >= rates[0]


def test_trace_includes_scale_events_during_postgrasp(small_model, tmp_path):
    out = tmp_path / "deep"
    # low target forces post-grasping on most grasps
    assert run_cli("run", small_model, "--target", 12, "--alpha", 1,
                   "--episodes", 6, "--seed", 2, "--out", out) == 0
    traces = [json.loads(line) for line in
              (tmp_path / "deep_traces.jsonl").read_text().splitlines()]
    kinds = {t["event"] for t in traces}
    assert {"poststep", "scale"} <= kinds


def test_collect_honours_config_file(tmp_path):
    import entpick.sim as sim_mod
    cfg = sim_mod.SimConfig(fill_mm=80.0)
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    a = tmp_path / "default.jsonl"
    b = tmp_path / "custom.jsonl"
    assert run_cli("collect", "--n", 6, "--seed", 3, "--out", a) == 0
    assert run_cli("collect", "--n", 6, "--seed", 3, "--config", cfg_path, "--out", b) == 0
    assert a.read_bytes() != b.read_bytes()
    round_trip = sim_mod.SimConfig.from_json_file(cfg_path)
    assert round_trip == cfg


def test_run_workers_identical_output(small_model, tmp_path):
    a = tmp_path / "w1"
    b = tmp_path / "w2"
    assert run_cli("run", small_model, "--target", 20, "--episodes", 4,
                   "--seed", 9, "--workers", 1, "--out", a) == 0
    assert run_cli("run", small_model, "--target", 20, "--episodes", 4,
                   "--seed", 9, "--workers", 2, "--out", b) == 0
    assert (tmp_path / "w1_summary.json").read_bytes() == (tmp_path / "w2_summary.json").read_bytes()
    assert (tmp_path / "w1_traces.jsonl").read_bytes() == (tmp_path / "w2_traces.jsonl").read_bytes()


# ---------------------------------------------------------------- experiment

def test_experiment_histogram(small_model, tmp_path):
    out = tmp_path / "hist.json"
    assert run_cli("experiment", "HISTOGRAM", "--n", 40, "--seed", 4, "--out", out) == 0
    doc = json.loads(out.read_text())
    assert sum(b["count"] for b in doc["bins"]) == 30  # training split of 40


def test_experiment_unknown_preset(tmp_path):
    assert run_cli("experiment", "TABLE9", "--out", tmp_path / "x.json") == 2


def test_experiment_table3_report(tmp_path):
    out = tmp_path / "t3.json"
    assert run_cli("experiment", "TABLE3", "--episodes", 30, "--seed", 6,
                   "--out", out) == 0
    report = json.loads(out.read_text())
    assert report["preset"] == "TABLE3"
    assert len(report["cells"]) == 8


def test_experiment_prints_paired_rows_and_smallest(tmp_path, capsys):
    out = tmp_path / "t3.json"
    capsys.readouterr()
    assert run_cli("experiment", "TABLE3", "--episodes", 30, "--seed", 6,
                   "--out", out) == 0
    lines = capsys.readouterr().out.splitlines()
    report = json.loads(out.read_text())
    paired = report["paired"]
    assert len(paired) == 4
    # the counts line and one line per regrasp row follow the smallest difference
    counts = report["counts"]
    assert lines[-3] == (f"counts: {counts['episodes']} episodes, {counts['infeasible']} "
                         f"infeasible, {counts['failed_to_grasp']} failed to grasp")
    assert [line.split()[1] for line in lines[-2:]] == ["spines=off", "spines=on"]
    lines = lines[:-3]
    printed = [line.strip() for line in lines[-1 - len(paired):-1]]
    for line, row in zip(printed, paired):
        head, diff = line.split(":  ")
        assert head == (f"{row['difference']}  target {row['target_g']:.1f} g"
                        f"  band +-{row['band_g']:.0f} g")
        mean, std = diff.removesuffix(" pp").split(" +- ")
        assert abs(float(mean) - row["mean_pp"]) <= 0.005
        assert abs(float(std) - row["std_pp"]) <= 0.005
    smallest = min(range(len(paired)), key=lambda i: paired[i]["mean_pp"])
    assert lines[-1] == "smallest difference: " + printed[smallest]
    assert all(paired[smallest]["mean_pp"] <= row["mean_pp"] for row in paired)


def test_experiment_rerun_byte_identical(tmp_path):
    a = tmp_path / "r1.json"
    b = tmp_path / "r2.json"
    for out in (a, b):
        assert run_cli("experiment", "TABLE3", "--episodes", 30, "--seed", 6,
                       "--out", out) == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------- manifests

def test_manifest_replay_reproduces_artifact(tmp_path):
    out = tmp_path / "orig.jsonl"
    assert run_cli("collect", "--n", 8, "--seed", 11, "--out", out) == 0
    with open(str(out) + ".manifest.json") as f:
        manifest = json.load(f)
    argv = list(manifest["argv"])
    replay_out = tmp_path / "replay.jsonl"
    argv[argv.index("--out") + 1] = str(replay_out)
    assert cli.main(argv) == 0
    assert out.read_bytes() == replay_out.read_bytes()


@pytest.mark.parametrize("argv", [("HISTOGRAM", "--n", 6),
                                  ("TABLE1", "{model}", "--episodes", 30)])
def test_experiment_manifest_replay_reproduces_report(small_model, tmp_path, argv):
    """A preset rejects the flags it does not read, so its manifest must not
    write them; and a TABLE1 manifest must name its preset before its model."""
    out = tmp_path / "orig.json"
    argv = [str(a).format(model=small_model) for a in argv]
    assert run_cli("experiment", *argv, "--seed", 4, "--out", out) == 0
    with open(str(out) + ".manifest.json") as f:
        replay = list(json.load(f)["argv"])
    replay[replay.index("--out") + 1] = str(tmp_path / "replay.json")
    assert cli.main(replay) == 0
    assert out.read_bytes() == (tmp_path / "replay.json").read_bytes()


def test_histogram_manifest_leaves_out_workers_and_old_manifests_replay(tmp_path):
    """HISTOGRAM reads no --workers, so its manifest leaves the flag out;
    a manifest written before that, which holds --workers 1, still replays
    byte for byte."""
    out = tmp_path / "hist.json"
    assert run_cli("experiment", "HISTOGRAM", "--n", 6, "--seed", 4, "--out", out) == 0
    with open(str(out) + ".manifest.json") as f:
        argv = list(json.load(f)["argv"])
    assert "--workers" not in argv
    old = argv[:argv.index("--out")] + ["--workers", "1"] + argv[argv.index("--out"):]
    old[old.index("--out") + 1] = str(tmp_path / "replay.json")
    assert cli.main(old) == 0
    assert out.read_bytes() == (tmp_path / "replay.json").read_bytes()


def test_collect_two_grasps_then_train(tmp_path):
    data = tmp_path / "d.jsonl"
    assert run_cli("collect", "--n", 2, "--seed", 1, "--out", data) == 0
    ds = mdn.Dataset.from_jsonl(data)
    assert (len(ds.train_rows()), len(ds.eval_rows())) == (1, 1)
    assert run_cli("train", data, "--seed", 3, "--out", tmp_path / "m.json") == 0


def test_train_zero_epochs_prints_one_line(small_dataset, tmp_path, capsys):
    config = tmp_path / "zero.json"
    config.write_text(json.dumps({"epochs": 0}))
    model = tmp_path / "m.json"
    capsys.readouterr()
    assert run_cli("train", small_dataset, "--config", config, "--out", model) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and "final train NLL" not in lines[0]
    params = mdn.load_checkpoint(model)
    assert params.training_log["epochs"] == [
        {"epoch": 0, "train_nll": None, "eval_nll": params.training_log["best_eval_nll"]}]
