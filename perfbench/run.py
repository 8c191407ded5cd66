#!/usr/bin/env python3
"""Benchmark of metricvoting: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload mc-small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seconds 20        # every workload, each in a fresh process

The package is imported from ``src/`` of the same checkout.  A run sets up its
workload from ``--seed``, runs it for ``--seconds``, checks the outputs and
prints one metric per line; the last line of standard output is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` runs the workload untraced and
traced (half of ``--seconds`` each), then probes every layer, and reports the
per-layer metrics.  Each run
also writes its environment record, all metrics and its spans to
``perfbench/results/``.
"""

import time

START = time.perf_counter()  # setup_s starts here, so it covers the imports

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: fresh processes that set the workload up, this one included; setup_s is
#: their median.  Half of the others run before the timed loop and half
#: after it, so that the samples span the whole run.
SETUP_SAMPLES = 9
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "METRICVOTING_JOBS",
)
WORKLOAD_NAMES = ("adversarial-full", "mc-small", "exact-rational")
UNITS = {
    "ops_per_s": "1/s",
    "cpu_ms_per_op": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def load_program():
    """Import the package from this checkout's ``src/``; exit non-zero if absent."""
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        import metricvoting
    except ImportError as exc:
        sys.exit(f"error: cannot import metricvoting from {SRC}: {exc}")
    if Path(metricvoting.__file__).resolve().parent.parent != SRC:
        sys.exit(f"error: metricvoting was imported from {metricvoting.__file__}, not {SRC}")
    import layers
    import workloads

    return workloads, layers


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_ms") or "_ms." in name:
        return "ms"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith(("efficiency", "per_wall", "ratio", "frac")):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# measurement


@dataclass
class Loop:
    attempted: int = 0
    failed: int = 0
    wall: float = 0.0
    cpu: float = 0.0

    @property
    def completed(self) -> int:
        return self.attempted - self.failed


def timed_loop(workload, state, seconds: float, span, cpu_seconds, checked) -> Loop:
    """Run ops back to back (a closed loop) until they have taken ``seconds``.

    Each op's output is checked, and then dropped, between ops and outside
    the timed region, so memory does not grow with the number of ops.  An
    exception in an op or in its check fails the op.
    """
    loop = Loop()
    k = 0
    while k == 0 or loop.wall < seconds:
        size = workload.op_size(state, k)
        loop.attempted += size
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            result = workload.run_op(state, k, span)
        except Exception:
            traceback.print_exc()
            loop.failed += size
            result = None
        loop.wall += time.perf_counter() - t0
        loop.cpu += cpu_seconds() - cpu0
        if result is not None:
            try:
                got = workload.check(state, k, result)
            except Exception:
                traceback.print_exc()
                loop.failed += size
            else:
                checked.failed += got.failed
                checked.near_ties += got.near_ties
        k += 1
    return loop


def setup_in_fresh_process(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest child, whichever is larger."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def env_record() -> dict:
    """Machine, versions and thread settings of this run (recorded, never set)."""
    import numpy as np

    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "caches": {},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": None,
        "git_sha": None,
        "loadavg": os.getloadavg(),
        "thread_vars": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
    }
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None
            )
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            env["caches"][f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = (
                (index / "size").read_text().strip()
            )
        except OSError:
            pass
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        pass
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        env["git_sha"] = proc.stdout.strip() or None
    return env


def run_workload(args) -> int:
    workloads, layers = load_program()
    workload = workloads.WORKLOADS[args.workload]
    state = workload.setup(args.seed)
    setup_s = [time.perf_counter() - START]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s[0]}))
        return 0

    checked = workloads.Checked()
    # a traced run splits its time between an untraced and a traced loop
    seconds = args.seconds / 2 if args.trace else args.seconds
    setups = 0 if args.trace else SETUP_SAMPLES - 1
    setup_s += [setup_in_fresh_process(args.workload, args.seed) for _ in range(setups // 2)]
    loop = timed_loop(workload, state, seconds, layers.no_span, layers.cpu_seconds, checked)
    attempted, failed = loop.attempted, loop.failed
    extra, spans = {}, {}
    if args.trace:
        loop_tracer, probe_tracer = layers.Tracer(), layers.Tracer()
        traced = timed_loop(workload, state, seconds, loop_tracer.span, layers.cpu_seconds,
                            checked)
        attempted += traced.attempted
        failed += traced.failed
        metrics, probe_extra = layers.probe(workload.probe_inputs(state), probe_tracer, checked)
        metrics["trace.ops_per_s_ratio"] = (traced.completed / traced.wall) / (
            loop.completed / loop.wall
        )
        extra.update(probe_extra)
        spans = {"loop": loop_tracer.records(), "probes": probe_tracer.records()}
    else:
        setup_s += [setup_in_fresh_process(args.workload, args.seed)
                    for _ in range(setups - setups // 2)]
        extra["setup_s.samples"] = setup_s
        metrics = {
            "ops_per_s": loop.completed / loop.wall,
            "cpu_ms_per_op": loop.cpu * 1e3 / max(loop.completed, 1),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_rss_mb(),
        }
    failed = min(attempted, failed + checked.failed)
    extra["failed_frac"] = failed / attempted
    extra["elections.near_ties"] = checked.near_ties
    if args.trace:
        metrics["elections.near_ties"] = checked.near_ties

    env = env_record()
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# env " + json.dumps(env))
    for name, value in {**metrics, **extra}.items():
        if not isinstance(value, list):
            print(f"{name:40s} {value:>18.6g} {unit_of(name)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    record = {"args": vars(args), "env": env, "extra": extra, "result": result, "spans": spans}
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, then one summary table."""
    load_program()  # fail early, before any child starts
    rows = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print("# summary")
    for name, res in rows.items():
        frac = res["failed"] / res["attempted"]
        cells = [f"{k}={v['value']:.6g} {v['unit']}" for k, v in res["metrics"].items()]
        print(f"{name:18s} " + "  ".join(cells + [f"failed_frac={frac:.3g}"]))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
