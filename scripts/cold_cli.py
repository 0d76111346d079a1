#!/usr/bin/env python3
"""Cold command-line runs: the wall time, minor page faults and system time
of the collect, train and study commands, each in a fresh interpreter.

    PYTHONPATH=src python scripts/cold_cli.py

It runs, each in a new ``python -m entpick.cli`` on this checkout's ``src``:

  - ``collect --n 200`` and ``train`` of the default model on that dataset
    (about 3 s on two cores);
  - ``experiment TABLE1``-``TABLE4 --episodes 30``;
  - ``run <model> --target 30 --episodes 40``, on the model just trained.

For each command it prints the wall time, and the minor faults and system
time that ``getrusage(RUSAGE_CHILDREN)`` gains over that child. A bare
``import entpick.cli, entpick.experiments`` runs first, as the floor that
every command pays. The script only prints; it checks no number.
"""

import argparse
import os
import pathlib
import resource
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
IMPORT = "import entpick.cli, entpick.experiments"


def child(argv, env) -> tuple:
    """Wall seconds, minor faults and system seconds of one child process."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *argv], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return wall, after.ru_minflt - before.ru_minflt, after.ru_stime - before.ru_stime


def main():
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()

    src = str(ROOT / "src")
    env = {**os.environ,
           "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp)
        data, model = str(out / "d.jsonl"), str(out / "model.json")
        commands = {
            "import": ("-c", IMPORT),
            "collect": ("-m", "entpick.cli", "collect", "--n", "200", "--seed", "7",
                        "--out", data),
            "train": ("-m", "entpick.cli", "train", data, "--seed", "7", "--out", model),
        }
        for preset in ("TABLE1", "TABLE2", "TABLE3", "TABLE4"):
            argv = ["experiment", preset]
            if preset in ("TABLE1", "TABLE4"):
                argv.append(model)
            commands[preset] = ("-m", "entpick.cli", *argv, "--episodes", "30",
                                "--out", str(out / f"{preset.lower()}.json"))
        commands["run"] = ("-m", "entpick.cli", "run", model, "--target", "30",
                           "--episodes", "40", "--out", str(out / "run"))

        print(f"{'command':<8} {'wall_s':>7} {'minflt':>8} {'sys_s':>6}   ({os.cpu_count()} cores)")
        for name, argv in commands.items():
            wall, faults, sys_s = child(argv, env)
            print(f"{name:<8} {wall:7.2f} {faults:8d} {sys_s:6.2f}", flush=True)


if __name__ == "__main__":
    main()
