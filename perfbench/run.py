"""entpick benchmark: one workload per run, or all of them with --workload all.

    python3 perfbench/run.py --workload session --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a checkout; the program is imported from its ``src``.
With ``--trace 0`` the run repeats the workload's unit of work while another
repetition fits in ``--seconds`` (at least once) and reports end-to-end
metrics as medians over repetitions. With ``--trace 1`` it installs the
span recorder and does exactly one unit, so counts repeat exactly, and
reports per-layer metrics. ``--workload all`` runs every workload untraced
and traced in child processes and prints one report, tracing overhead
included. The last line of every single-workload run is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a failed output check
makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
IMPORT_SAMPLES = 5

# (name, unit) of the gated end-to-end metrics, as in BENCHMARK.json
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("episodes_per_s", "1/s"),
              ("peak_rss_mb", "MB"))
UNITS = dict(END_TO_END, pick_ms_p50="ms", pick_ms_p95="ms")
IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "import entpick.cli, entpick.experiments; "
                "print(time.perf_counter() - t)")


def _import_entpick():
    """Import the checkout's own entpick, never an installed copy."""
    sys.path.insert(0, SRC)
    try:
        import entpick
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import entpick from {SRC}: {exc}")
    if os.path.dirname(os.path.abspath(entpick.__file__)) != os.path.join(SRC, "entpick"):
        sys.exit(f"perfbench: entpick resolved to {entpick.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# environment stamp
# ---------------------------------------------------------------------------

def _loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as f:
            return " ".join(f.read().split()[:3])
    except OSError:
        return "unavailable"


def _git_sha():
    """HEAD of the checkout read from .git without running git; a checkout
    that is not a repository reports none."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "none"


def _source_digest():
    """Digest of src/entpick/*.py, which names the code also without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "entpick")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def env_stamp():
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_sha": _git_sha(),
            "source_digest": _source_digest(), "loadavg_start": _loadavg()}


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def import_seconds(samples=IMPORT_SAMPLES):
    """Import time of the program in fresh interpreters, one per sample."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(samples):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=60)
        times.append(float(out.stdout.strip()))
    return times


def _percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered) / 100)) - 1]


def run_workload(name, seed, seconds, trace, size=None, import_samples=IMPORT_SAMPLES):
    """Set up and measure one workload; returns the detail dict."""
    import tracer
    import workloads

    size = size or workloads.FULL
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        seeds = workloads.Seeds.from_workload_seed(seed)
        imports = import_seconds(import_samples)
        t = time.perf_counter()
        workload = workloads.WORKLOADS[name](seeds, size, workdir)
        model_s = time.perf_counter() - t
        detail = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                  "import_s": imports, "model_s": model_s,
                  "setup_s": statistics.median(imports) + model_s}
        if trace:
            rec = tracer.Recorder()
            with tracer.install(rec):
                units = [workload.run_unit(rec)]
            layers, coverage = tracer.layer_metrics(rec, units[0].wall_s, units[0].episodes)
            rec.write(os.path.join(OUT, f"spans-{name}.json"))
            cost_us = tracer.wrapper_cost_us()
            detail["layers"] = {k: [v, u] for k, (v, u) in layers.items()}
            detail["coverage"] = coverage
            detail["wrapper_cost_us"] = cost_us
            detail["wrapper_cost_est_ms"] = len(rec.spans) * cost_us / 1e3
        else:
            units = []
            null = tracer.NullRecorder()
            start = time.perf_counter()
            while True:
                units.append(workload.run_unit(null))
                per_unit = statistics.median(u.wall_s for u in units)
                if time.perf_counter() - start + per_unit > seconds:
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [p for u in units for p in u.problems]
    digests = sorted({u.digest for u in units})
    if len(digests) != 1:
        problems.append(f"repetitions of one seed gave different digests {digests}")
    walls = [u.wall_s for u in units]
    picks = [ms for u in units[:1] for ms in u.pick_ms]
    detail.update({
        "units": len(units), "unit_wall_s": walls, "digest": digests[0],
        "attempted": sum(u.attempted for u in units),
        "failed": sum(u.failed for u in units),
        "problems": problems, "diagnostics": units[0].diagnostics,
        "e2e": {
            "setup_s": detail["setup_s"],
            "wall_s": statistics.median(walls),
            "episodes_per_s": statistics.median(u.episodes / u.wall_s for u in units),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
    })
    if picks:
        all_picks = [ms for u in units for ms in u.pick_ms]
        detail["picks"] = {"n_distinct": len(picks), "n_timed": len(all_picks),
                           "beyond_p95": len(picks) - math.ceil(0.95 * len(picks))}
        detail["e2e"]["pick_ms_p50"] = statistics.median(all_picks)
        detail["e2e"]["pick_ms_p95"] = _percentile(all_picks, 95)
    return detail


def report_single(detail):
    """Human lines, then the result line."""
    print(f"perfbench {detail['workload']} seed={detail['seed']} trace={detail['trace']}")
    print("env " + json.dumps(detail["env"], sort_keys=True))
    if not detail["trace"]:
        for key, value in detail["e2e"].items():
            print(f"metric {key} {value:.6g} {UNITS[key]}")
    diag = detail["diagnostics"]
    print(f"metric failed_frac {diag['failed_frac']:.6g} ratio")
    if "dataset_mb" in diag:
        print(f"metric dataset_mb {diag['dataset_mb']:.6g} MB")
    if "within_2g_frac" in diag:
        print(f"diag pick success within +-2 g: {diag['within_2g_frac']:.3f} "
              f"over {detail['picks']['n_distinct']} picks, {diag['trays']} tray(s)")
    for cell in diag.get("cells", ()):
        print("diag cell " + " ".join(str(c) for c in cell))
    print(f"digest {detail['digest']} over {detail['units']} repetition(s)")
    for p in detail["problems"]:
        print(f"CHECK FAILED {p}")
    if detail["trace"]:
        for key, (value, unit) in detail["layers"].items():
            print(f"layer {key} {value:.6g} {unit}")
        cov = detail["coverage"]
        print(f"trace wall {cov['wall_ms']:.1f} ms: top-level spans cover "
              f"{cov['covered_ms']:.1f} ms, uncovered {cov['uncovered_ms']:.1f} ms")
        for span, ms in sorted(cov["top_level_ms"].items(), key=lambda kv: -kv[1]):
            print(f"trace top-level {span} {ms:.1f} ms")
        print(f"trace wrapper cost {detail['wrapper_cost_us']:.2f} us/call, about "
              f"{detail['wrapper_cost_est_ms']:.1f} ms over {detail['layers']['trace.spans'][0]} spans")
    print("detail " + json.dumps(detail, sort_keys=True))
    if detail["trace"]:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in detail["layers"].items()}
    else:
        metrics = {k: {"value": detail["e2e"][k], "unit": u} for k, u in END_TO_END}
    correct = not detail["problems"] and detail["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": detail["attempted"],
                      "failed": detail["failed"], "metrics": metrics}))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# all workloads
# ---------------------------------------------------------------------------

def run_all(seed, seconds):
    """Every workload untraced then traced, each in its own process; their
    reports, then tracing overhead and digest agreement per workload."""
    import workloads

    ok = True
    for name in workloads.WORKLOADS:
        details = []
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = out.stdout.splitlines()
            found = [ln for ln in lines if ln.startswith("detail ")]
            if not found:
                sys.stderr.write(out.stdout + out.stderr)
                print(f"{name} trace={trace}: no result (exit {out.returncode})")
                return 1
            print("\n".join(ln for ln in lines[:-1] if not ln.startswith("detail ")))
            details.append(json.loads(found[-1][len("detail "):]))
            ok &= out.returncode == 0
        plain, traced = details
        untraced_wall = plain["e2e"]["wall_s"]
        overhead = traced["layers"]["trace.wall_s"][0] - untraced_wall
        print(f"overhead {name}: traced wall_s - untraced wall_s = {overhead:+.4g} s "
              f"({100 * overhead / untraced_wall:+.1f} %); wrappers alone about "
              f"{traced['wrapper_cost_est_ms']:.0f} ms")
        same = plain["digest"] == traced["digest"]
        print(f"digest {name}: untraced {plain['digest']}, traced {traced['digest']}: "
              f"{'same' if same else 'DIFFERENT'}\n")
        ok &= same
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("collect_train", "session", "studies", "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    _import_entpick()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    env = env_stamp()
    detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    env["loadavg_end"] = _loadavg()
    detail["env"] = env
    return report_single(detail)


if __name__ == "__main__":
    sys.exit(main())
