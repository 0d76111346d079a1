"""Batch command surface.

Subcommands cover the full workflow: ``collect`` simulated grasp data,
``train`` the mass model, ``inspect`` a selection grid, ``run`` target-mass
episodes, and run bundled ``experiment`` presets. Every command writes a
manifest next to its outputs recording the arguments, seeds, and artifact
paths needed to reproduce them byte for byte.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import datetime
import json
import logging
import os
import sys

from . import __version__, experiments, mdn, pipeline, select, sim

log = logging.getLogger("entpick")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """A parser whose rejections raise ``UsageError`` instead of printing
    the usage block, so ``main`` ends them as one line with exit 2. Its
    sub-parsers are of the same class."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _dump_json(doc, path):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, separators=(",", ":"))
        f.write("\n")


def write_manifest(out_path: str, command: str, args: argparse.Namespace,
                   artifacts: list, seeds: dict) -> str:
    manifest = {
        "tool": {"name": "entpick", "version": __version__},
        "command": command,
        "argv": _reproducible_argv(command, args),
        "config": getattr(args, "config", None),
        "seeds": seeds,
        "artifacts": artifacts,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    path = str(out_path) + ".manifest.json"
    _dump_json(manifest, path)
    return path


def _reproducible_argv(command: str, args: argparse.Namespace) -> list:
    argv = [command]
    for key in ("preset", "model", "dataset"):   # experiment takes its preset first
        v = getattr(args, key, None)
        if v is not None:
            argv.append(str(v))
    for key in ("config", "seed", "n", "target", "alpha", "episodes", "workers", "out"):
        v = getattr(args, key, None)
        if v is not None:
            argv.extend([f"--{key}", str(v)])
    zpool = getattr(args, "zpool", None)
    if zpool is not None:
        argv.append("--zpool")
        argv.extend(str(z) for z in zpool)
    return argv


def _load_sim_config(args) -> sim.SimConfig:
    if getattr(args, "config", None):
        _require_file(args.config, "config file")
        with _bad_input(f"simulator config {args.config}"):
            return sim.SimConfig.from_json_file(args.config)
    return sim.SimConfig()


def _require_file(path, what):
    if not os.path.exists(path):
        raise UsageError(f"{what} not found: {path}")


def _load_model(path) -> mdn.ModelParams:
    _require_file(path, "model checkpoint")
    with _bad_input("model checkpoint"):
        return mdn.load_checkpoint(path)


def _check_flags(args) -> None:
    """Reject a numeric flag outside its range, naming the flag."""
    try:
        if getattr(args, "seed", None) is not None:
            sim.check_int("--seed", args.seed, 0)
        if hasattr(args, "workers"):
            sim.check_int("--workers", args.workers, 1)
        if hasattr(args, "target"):
            sim.check_number("--target", args.target, 0, lo_open=True)
        if hasattr(args, "alpha"):
            sim.check_number("--alpha", args.alpha, 0)
        for z in getattr(args, "zpool", ()):
            sim.check_number("--zpool", z, 0, lo_open=True)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


@contextlib.contextmanager
def _bad_input(what):
    """Turn a rejected input file into a usage error (exit 2, one line)."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad {what}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_collect(args) -> int:
    if args.n < 2:
        raise UsageError("--n must be at least 2")
    cfg = _load_sim_config(args)
    try:
        dataset = pipeline.run_collection(cfg, args.n, zpool=tuple(args.zpool), seed=args.seed)
    except pipeline.NoClearDepthError as exc:
        raise UsageError(f"--zpool {' '.join(f'{z:g}' for z in args.zpool)}: {exc}") from exc
    dataset.to_jsonl(args.out)
    write_manifest(args.out, "collect", args, [str(args.out)], {"root": args.seed})
    n_train = len(dataset.train_rows())
    print(f"collected {len(dataset)} grasps ({n_train} train / {len(dataset) - n_train} eval) "
          f"-> {args.out}")
    return 0


def cmd_train(args) -> int:
    mcfg = mdn.ModelConfig()
    if args.config:
        _require_file(args.config, "model config")
        with open(args.config, "r", encoding="utf-8") as f, \
                _bad_input(f"model config {args.config}"):
            mcfg = mdn.ModelConfig.from_dict(json.load(f))
    if args.seed is not None:
        mcfg = dataclasses.replace(mcfg, seed=args.seed)
    _require_file(args.dataset, "dataset")
    with _bad_input("dataset"):
        dataset = mdn.Dataset.from_jsonl(args.dataset)
    try:
        params = mdn.train(dataset, mcfg)
    except mdn.SplitError as exc:
        raise UsageError(f"bad dataset {args.dataset}: {exc}") from exc
    mdn.save_checkpoint(params, args.out)
    write_manifest(args.out, "train", args, [str(args.out)], {"model": mcfg.seed})
    first = params.training_log["epochs"][0]["eval_nll"]
    last = params.training_log["epochs"][-1]["train_nll"]   # None when no epoch ran
    final = "" if last is None else f" (final train NLL {last:.3f})"
    print(f"trained {mcfg.epochs} epochs on {len(dataset.train_rows())} rows: "
          f"eval NLL {first:.3f} -> best {params.training_log['best_eval_nll']:.3f}"
          f"{final} -> {args.out}")
    return 0


def cmd_inspect(args) -> int:
    model = _load_model(args.model)
    cfg = _load_sim_config(args)
    heap = sim.init_heap(cfg, args.seed)
    sel_cfg = select.SelectionConfig(target_mass_g=args.target, alpha=args.alpha)
    report = select.selection_report(model, heap, sel_cfg, clearance_mm=cfg.clearance_mm)
    _dump_json(report, args.out)
    write_manifest(args.out, "inspect", args, [str(args.out)], {"heap": args.seed})
    w = report["winner"]
    if w is None:
        print(f"no feasible candidate among {report['n_candidates']} for "
              f"target {args.target:.1f} g at alpha {args.alpha:g}")
    else:
        print(f"winner at ({w['x']}, {w['y']}, z={w['z_cm']} cm): "
              f"mu {w['mu_g']:.1f} g, sigma {w['sigma_g']:.1f} g -> {args.out}")
    return 0


def cmd_run(args) -> int:
    if args.episodes < 1:
        raise UsageError("--episodes must be positive")
    model = _load_model(args.model)
    cfg = _load_sim_config(args)
    summary, traces = experiments.run_episode_batch(
        cfg, model, args.target, args.alpha, args.episodes, args.seed,
        workers=args.workers)
    traces_path = str(args.out) + "_traces.jsonl"
    summary_path = str(args.out) + "_summary.json"
    with open(traces_path, "w", encoding="utf-8") as f:
        for line in traces:
            f.write(json.dumps(line, separators=(",", ":")))
            f.write("\n")
    _dump_json(summary, summary_path)
    write_manifest(args.out, "run", args, [traces_path, summary_path],
                   {"root": args.seed})
    print(f"{args.episodes} episodes at target {args.target:.1f} g, alpha {args.alpha:g}:")
    for band in (2.0, 3.0, 4.0):
        print(f"  within +-{band:.0f} g: {100 * summary['success'][f'band_{band:.0f}g']:.1f}%")
    print(f"  infeasible: {summary['counts']['infeasible']}, "
          f"failed to grasp: {summary['counts']['failed_to_grasp']}")
    return 0


def cmd_experiment(args) -> int:
    name = args.preset.upper()
    if name == "HISTOGRAM":
        if args.episodes is not None:
            raise UsageError("--episodes is not read by HISTOGRAM; it takes --n")
        if args.model:
            raise UsageError(f"HISTOGRAM reads no model checkpoint, got {args.model}")
        if args.workers != 1:
            raise UsageError(f"--workers {args.workers}: HISTOGRAM collects in one process; "
                             f"leave --workers out")
        args.workers = None   # not read, so the manifest leaves it out
        n = 200 if args.n is None else args.n
        if n < 2:
            raise UsageError("--n must be at least 2")
        cfg = _load_sim_config(args)
        dataset = pipeline.run_collection(cfg, n, seed=args.seed)
        hist = experiments.mass_histogram(dataset, 2.0, split="train")
        doc = hist.to_dict()
        doc["modes"] = experiments.count_modes(hist)
        _dump_json(doc, args.out)
        write_manifest(args.out, "experiment", args, [str(args.out)], {"root": args.seed})
        print(f"histogram of {sum(hist.counts())} training grasps, "
              f"{doc['modes']} modes -> {args.out}")
        return 0
    if name not in experiments.PRESET_NAMES:
        raise UsageError(f"unknown preset {args.preset!r}; available: "
                         f"{', '.join(experiments.PRESET_NAMES + ('HISTOGRAM',))}")
    if args.n is not None:
        raise UsageError(f"--n is read only by HISTOGRAM; {name} takes --episodes")
    with _bad_input("--episodes"):
        preset_obj = experiments.preset(
            name, episodes=200 if args.episodes is None else args.episodes, seed=args.seed)
    if preset_obj.targets is not None and not args.model:
        raise UsageError(f"{name} needs a trained model checkpoint")
    if preset_obj.targets is None and args.model:
        raise UsageError(f"{name} reads no model checkpoint, got {args.model}")
    model = _load_model(args.model) if args.model else None
    if preset_obj.targets is not None:
        with _bad_input(f"model checkpoint {args.model}"):
            experiments._targets_from_model(model, preset_obj.targets)
    cfg = _load_sim_config(args)
    report = experiments.run_experiment(preset_obj, cfg, model, workers=args.workers)
    _dump_json(report.to_dict(), args.out)
    write_manifest(args.out, "experiment", args, [str(args.out)], {"root": args.seed})
    print(f"{name}: {len(report.cells)} cells -> {args.out}")
    print_cells(report)
    print_paired(report)
    print_counts(report)
    return 0


def print_cells(report) -> None:
    """One line per cell of a study report: arm, target, band, and the
    bootstrap mean and std of the success rate."""
    for c in report.cells:
        band = f" band +-{c['band_g']:.0f}g" if c.get("band_g") else ""
        print(f"  {c['arm']:<14} target {c['target_g']:6.1f}{band}: "
              f"{c['mean_pct']:5.1f} +- {c['std_pct']:4.1f}")


def print_paired(report) -> None:
    """One line per paired row of a study report (arms, target, band, and the
    bootstrap mean and std of the difference), then the smallest of them."""
    lines = [f"{r['difference']}  target {r['target_g']:.1f} g"
             + (f"  band +-{r['band_g']:.0f} g" if r.get("band_g") else "")
             + f":  {r['mean_pp']:+.2f} +- {r['std_pp']:.2f} pp" for r in report.paired]
    for line in lines:
        print("  " + line)
    if lines:
        i = min(range(len(lines)), key=lambda i: report.paired[i]["mean_pp"])
        print("smallest difference: " + lines[i])


def print_counts(report) -> None:
    """The episode counts of a study report on one line, then one line per
    re-grasp row: arm, target, and the share of re-grasped episodes."""
    c = report.counts
    print(f"counts: {c['episodes']} episodes, {c['infeasible']} infeasible, "
          f"{c['failed_to_grasp']} failed to grasp")
    for r in report.regrasp:
        print(f"  regrasp {r['arm']:<14} target {r['target_g']:6.1f}: {r['rate_pct']:5.1f}%")


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="entpick", description="simulated target-mass picking toolkit")
    p.add_argument("--version", action="version", version=f"entpick {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("collect", help="run the data-collection loop")
    c.add_argument("--config", help="simulator config JSON")
    c.add_argument("--n", type=int, default=200)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--zpool", type=float, nargs="+", default=list(sim.Z_POOL_DEEP))
    c.add_argument("--out", required=True)
    c.set_defaults(func=cmd_collect)

    t = sub.add_parser("train", help="train the mass model on a dataset")
    t.add_argument("dataset")
    t.add_argument("--config", help="model config JSON")
    t.add_argument("--seed", type=int, default=None)
    t.add_argument("--out", required=True)
    t.set_defaults(func=cmd_train)

    i = sub.add_parser("inspect", help="score the selection grid on a seeded heap")
    i.add_argument("model")
    i.add_argument("--config", help="simulator config JSON")
    i.add_argument("--target", type=float, required=True)
    i.add_argument("--alpha", type=float, default=1.0)
    i.add_argument("--seed", type=int, default=0)
    i.add_argument("--out", required=True)
    i.set_defaults(func=cmd_inspect)

    r = sub.add_parser("run", help="run target-mass picking episodes")
    r.add_argument("model")
    r.add_argument("--config", help="simulator config JSON")
    r.add_argument("--target", type=float, required=True)
    r.add_argument("--alpha", type=float, default=1.0)
    r.add_argument("--episodes", type=int, default=100)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--workers", type=int, default=1)
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_run)

    e = sub.add_parser("experiment", help="run a bundled study preset")
    e.add_argument("preset", help="TABLE1|TABLE2|TABLE3|TABLE4|HISTOGRAM")
    e.add_argument("model", nargs="?", help="model checkpoint (TABLE1/TABLE4)")
    e.add_argument("--config", help="simulator config JSON")
    e.add_argument("--n", type=int, default=None, help="grasps for HISTOGRAM")
    e.add_argument("--episodes", type=int, default=None)
    e.add_argument("--seed", type=int, default=20240601)
    e.add_argument("--workers", type=int, default=1)
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_experiment)
    return p


def main(argv=None) -> int:
    level = os.environ.get("ENTPICK_LOG", "WARNING")
    # checked here, not by basicConfig: it ignores the level once a handler exists
    if not isinstance(logging.getLevelName(level.upper()), int):
        _print_error(f"ENTPICK_LOG must be DEBUG, INFO, WARNING, ERROR or CRITICAL, "
                     f"got {level!r}")
        return 2
    logging.basicConfig(level=level.upper(), format="%(levelname)s %(name)s: %(message)s")
    try:
        args, extra = build_parser().parse_known_args(argv)
        if extra:
            raise UsageError(f"entpick {args.command}: unrecognized arguments: "
                             + " ".join(extra))
        _check_flags(args)
        return args.func(args)
    except UsageError as exc:
        _print_error(exc)
        return 2
    except pipeline.NoClearDepthError as exc:   # a study's depths are fixed: its config is at fault
        _print_error(f"simulator config {args.config or '(default)'}: {exc}")
        return 2
    except (ValueError, OSError, RuntimeError) as exc:
        log.debug("command failed", exc_info=True)
        _print_error(exc)
        return 1


def _print_error(exc) -> None:
    """One line on stderr, whatever the message holds."""
    print("error: " + " ".join(str(exc).splitlines()), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
