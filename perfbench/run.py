"""Benchmark of orlicz-lab: one workload per process, one JSON result line.

    python3 perfbench/run.py --workload scan --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --all [--runs 10] [--seed 1] [--seconds 30] [--trace 0]

Run from the root of a source checkout; the package is imported from its
``src`` directory.  With ``--trace 0`` the workload runs whole rounds for
about ``--seconds`` seconds and reports the end-to-end metrics; with
``--trace 1`` it runs one traced round of every workload and reports the
per-layer metrics.  ``--all`` runs each workload in processes of its own,
one per seed, and prints each metric's median (and, from four runs on, its
quartile spread).  See README.md in this directory.
"""

import os

# Pin native thread pools before anything can import numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

START = time.perf_counter()

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
# setup_s is the median of the set-ups of a run: SETUPS_FIRST before the
# first round and SETUPS_BETWEEN after each round, so that they sample the
# machine over the whole run and not in one burst.
SETUPS_FIRST, SETUPS_BETWEEN = 3, 2
MODULES = ("groups", "cocycles", "young", "space", "algebra", "harness", "cli")
TIMED_LAYERS = ("groups.ball", "groups.tau_array", "cocycles.table",
                "cocycles.identity_residual", "cocycles.witness",
                "algebra.twisted_convolve", "algebra.module_action",
                "space.amplitude_matrix", "space.orlicz_batch", "space.orlicz_batch_dual",
                "space.luxemburg_batch", "young.conjugate_eval")
COUNTS = ("groups.elements", "cocycles.triples", "algebra.pairs", "space.rows")


def fresh_import():
    """Import orliczlab from src anew, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "orliczlab" or m.startswith("orliczlab.")]:
        del sys.modules[name]
    lab = SimpleNamespace(**{m: importlib.import_module(f"orliczlab.{m}") for m in MODULES})
    if not Path(lab.groups.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"orliczlab was imported from {lab.groups.__file__}, not {SRC}")
    return lab


def set_up(cls, seed):
    """Import the package, make the inputs from the seed, build the program objects."""
    lab = fresh_import()
    workload = cls(seed)
    workload.build(lab)
    return lab, workload


def per_layer(tr, walls, first_setup):
    m = {f"harness.{suite}_s": tr.seconds(f"harness.{suite}")
         for suite in (*workloads.Verify.SUITES, "emit_report")}
    m.update({f"{name}_s": tr.seconds(name) for name in TIMED_LAYERS})
    m.update({name: tr.counts[name] for name in COUNTS})
    m["cocycles.triples_per_s"] = m["cocycles.triples"] / m["cocycles.identity_residual_s"]
    m["algebra.pairs_per_s"] = m["algebra.pairs"] / (
        m["algebra.twisted_convolve_s"] + m["algebra.module_action_s"])
    m["space.rows_per_s"] = m["space.rows"] / (
        m["space.orlicz_batch_s"] + m["space.orlicz_batch_dual_s"] + m["space.luxemburg_batch_s"])
    m.update({f"trace.{name}_wall_s": wall for name, wall in walls.items()})
    m["setup.first_s"] = first_setup
    return m


def unit(name):
    if name in COUNTS:
        return "count"
    if name == "peak_rss_mb":
        return "MB"
    return "1/s" if name.endswith("_per_s") else "s"


def measure(args, tracing):
    """Set up and run the rounds; returns (checks, metrics, rounds, tracer).

    Rounds run with the workload object of the first set-up, which keeps
    the inputs and the oracle results, and with the latest import.
    """
    from tracing import Checks, Tracer

    cls = workloads.WORKLOADS[args.workload]
    setups = []

    def timed_set_up(times):
        for _ in range(times):
            t0 = time.perf_counter()
            lab, workload = set_up(cls, args.seed)
            setups.append(time.perf_counter() - t0)
        return lab, workload

    lab, workload = timed_set_up(1)
    first_setup = time.perf_counter() - START
    lab, _ = timed_set_up(SETUPS_FIRST - 1)
    tr = Tracer(tracing)
    if tracing:
        # One traced round of every workload, so that every layer has spans.
        classes = list(workloads.WORKLOADS.values())
        chk = Checks(f for c in classes for f in getattr(c, "KNOWN_FAULTS", ()))
        walls = {}
        for c in classes:
            w = workload if c is cls else c(args.seed)
            with tr.round(w.name):
                w.round(lab, tr, chk)
            walls[w.name] = tr.busy
            gc.collect()
        return chk, per_layer(tr, walls, first_setup), list(walls.values()), tr
    chk = Checks(getattr(cls, "KNOWN_FAULTS", ()))
    rounds = []
    began = time.perf_counter()
    while True:
        with tr.round(workload.name):
            workload.round(lab, tr, chk)
        rounds.append(tr.busy)
        gc.collect()
        lab, _ = timed_set_up(SETUPS_BETWEEN)
        elapsed = time.perf_counter() - began
        # Start another round only if it should end within the run length.
        if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            break
    metrics = {
        "wall_s": statistics.median(rounds),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return chk, metrics, rounds, tr


def run_one(args):
    if not (SRC / "orliczlab" / "__init__.py").is_file():
        print(f"error: no orliczlab sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("ORLICZ_LAB_CONFIG", None)  # the verify workload runs the defaults
    sys.path.insert(0, str(SRC))
    chk, metrics, rounds, tr = measure(args, bool(args.trace))
    for problem in chk.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": chk.correct,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps({**result, "rounds_s": rounds}, indent=1))
    if tr.tracing:
        tr.dump(RESULTS / f"{stem}-spans.json")
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in processes of its own, one per seed; print a summary table."""
    seeds = range(args.seed, args.seed + args.runs)
    for name in [args.workload] if args.workload else workloads.WORKLOADS:
        values, tallies = {}, set()
        for seed in seeds:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{name} seed {seed}: exit code {proc.returncode}")
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            tallies.add((res["correct"], res["failed"] / res["attempted"]))
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        print(f"== {name}: {len(seeds)} run(s), (correct, failed share) = {sorted(tallies)}")
        for k, vs in values.items():
            med = statistics.median(vs)
            line = f"  {k:32s} {med:14.6g} {unit(k):6s}"
            if len(vs) >= 4 and med:
                q1, _, q3 = statistics.quantiles(vs, n=4)
                line += f"  spread {(q3 - q1) / med:7.2%}"
            print(line)
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=tuple(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload in its own processes")
    ap.add_argument("--runs", type=int, default=1, help="with --all: seeds per workload")
    args = ap.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        ap.error("give --workload or --all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
