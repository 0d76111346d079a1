#!/usr/bin/env python3
"""End-to-end study pipeline: collect, train, then run every bundled preset
and the histogram, writing all artifacts into one output directory, and
print one table of the paired rows of all four studies, read from their
reports."""

import argparse
import json
import pathlib
import subprocess
import sys
from types import SimpleNamespace

from entpick import cli

PRESETS = ("TABLE1", "TABLE2", "TABLE3", "TABLE4")


def sh(*argv):
    print("+", " ".join(str(a) for a in argv))
    subprocess.run([sys.executable, "-m", "entpick.cli", *map(str, argv)], check=True)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="studies")
    ap.add_argument("--seed", type=int, default=20240601)
    ap.add_argument("--episodes", type=int, default=200)
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args()

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dataset = out / "dataset.jsonl"
    model = out / "model.json"

    sh("collect", "--n", 200, "--seed", args.seed, "--out", dataset)
    sh("train", dataset, "--seed", 7, "--out", model)
    sh("experiment", "HISTOGRAM", "--n", 200, "--seed", args.seed,
       "--out", out / "histogram.json")
    for preset in PRESETS:
        argv = ["experiment", preset]
        if preset in ("TABLE1", "TABLE4"):
            argv.append(model)
        argv += ["--episodes", args.episodes, "--seed", args.seed,
                 "--workers", args.workers, "--out", out / f"{preset.lower()}.json"]
        sh(*argv)
    print(f"\nall reports in {out}/")
    print_paired_table(out)


def print_paired_table(out):
    """The paired rows of the four study reports in ``out`` as one table,
    each difference prefixed by its study."""
    paired = []
    for preset in PRESETS:
        with open(out / f"{preset.lower()}.json", encoding="utf-8") as f:
            paired += [{**row, "difference": f"{preset} {row['difference']}"}
                       for row in json.load(f)["paired"]]
    print("paired differences:")
    cli.print_paired(SimpleNamespace(paired=paired))


if __name__ == "__main__":
    main()
