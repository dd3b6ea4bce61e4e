"""Benchmark for vel: one workload per run, answers checked, metrics printed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is taken from src/ next to this directory.
Workloads (see NOTES.md for why each was chosen): radial-report,
radial-step, dilation-ode. BLAS threads are pinned to 1.

--trace 0 measures the end-to-end metrics: run_s, the median time of one
pass of the workload's operations, repeated for about S seconds; setup_s,
the median time of fresh processes that import vel and build the
workload's constants, solver and grid; and peak_rss_mb.
--trace 1 runs one untraced and one traced pass and reports the per-layer
metrics: spans around the calls into each vel module, the tracing
overhead, and the probes of probes.py, whose inputs come from --seed.
Every time is corrected for the host's speed (speed.py); see NOTES.md.

The first stdout line is a JSON run header; the last is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Exit code 0 with a result; 2, and no result, when vel's sources are missing.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
# Modules that import numpy (workloads, probes, speed, tracer's callers) are
# imported inside functions, after main has pinned the BLAS threads.


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def src_digest():
    """sha256 over src/**/*.py, for checkouts that are not git repositories."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_header(args):
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "git_sha": git_sha(), "src_sha256": src_digest(),
    }


def setup_process(workload):
    """One fresh process that sets the workload up."""
    cmd = [sys.executable, str(HERE / "setup_child.py"), workload]
    subprocess.run(cmd, check=True, timeout=120)


def end_to_end(args, wl, reference, tally):
    from speed import nominal_seconds

    # each entry is (wall seconds, seconds at nominal host speed)
    setups = [nominal_seconds(wl.calibration, setup_process, args.workload)
              for _ in range(SETUP_REPEATS)]
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(nominal_seconds(wl.calibration, wl.iteration, tally,
                                      reference))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.mean(w for w, _ in passes) > args.seconds:
            break
    print(json.dumps({"passes_s": passes, "setups_s": setups}))
    return {
        "run_s": statistics.median(n for _, n in passes),
        "setup_s": statistics.median(n for _, n in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def install_spans(tracer):
    """Patch the names each caller looks up when it enters a layer."""
    from vel import cli, geometry, norms, radial, theta
    tracer.patch(cli, "main", "cli.main")
    tracer.patch(radial, "run", "radial.run")
    tracer.patch(radial.RadialSolver, "step", "radial.step")
    tracer.patch(radial.RadialSolver, "time_derivatives",
                 "radial.time_derivatives")
    tracer.patch(radial.RadialSolver, "mass", "radial.mass")
    tracer.patch(radial, "energy_functionals", "norms.energy_functionals")
    tracer.patch(radial, "derive_constants", "params.derive_constants")
    tracer.patch(norms, "deformation", "geometry.deformation")
    tracer.patch(norms, "flow_ops", "geometry.flow_ops")
    tracer.patch(geometry.BallGrid, "partials", "geometry.partials", hot=True)
    tracer.patch(theta, "integrate_h", "theta.integrate_h")
    tracer.patch(theta, "liu_vs_barenblatt", "theta.liu_vs_barenblatt")
    tracer.patch(theta, "derive_constants", "params.derive_constants")
    tracer.patch(theta, "nu", "theta.nu", hot=True)


def per_layer(args, wl, reference, tally, names):
    from probes import run_probes
    from speed import ARRAY, SpeedMeter, nominal_seconds
    from tracer import Tracer
    from workloads import OUT_DIR

    _, untraced_s = nominal_seconds(wl.calibration, wl.iteration, tally,
                                    reference)
    tracer = Tracer()
    try:
        install_spans(tracer)
        traced_wall, traced_s = nominal_seconds(wl.calibration, wl.iteration,
                                                tally, reference)
    finally:
        tracer.restore()
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.dump(os.path.join(OUT_DIR, f"trace-{args.workload}.json"))

    # span times in seconds at nominal host speed, like the passes
    factor = traced_s / traced_wall
    overhead = traced_s - untraced_s
    outside = (traced_wall - tracer.top_level_seconds()) * factor
    if outside > max(abs(overhead), 0.01 * traced_s):
        tally.problems.append(
            f"top-level spans leave {outside:.3f} s of the {traced_s:.3f} s "
            f"traced pass uncovered (tracing overhead {overhead:.3f} s)")

    with SpeedMeter(ARRAY) as meter:
        probed = run_probes(args.seed)
    values = {name: v * meter.factor() for name, v in probed.items()}
    values["trace.overhead_s"] = overhead
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}
    totals = tracer.totals()
    for name in names:
        if name not in values:
            layer, _, kind = name.rpartition(".")
            if layer not in tracer.layers or kind not in empty:
                raise KeyError(f"no span or probe measures {name}")
            value = totals.get(layer, empty)[kind]
            values[name] = value if kind == "calls" else value * factor
    print(json.dumps({"untraced_s": untraced_s, "traced_s": traced_s,
                      "traced_wall_s": traced_wall}))
    return values


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "vel" / "__init__.py").is_file():
        print(f"error: no vel sources at {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    import vel
    if Path(vel.__file__).resolve().parent != SRC / "vel":
        print(f"error: imported vel from {vel.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    print(json.dumps({"header": run_header(args)}), flush=True)

    wl = workloads.WORKLOADS[args.workload]
    reference = workloads.load_reference()
    tally = workloads.Tally()
    wl.setup()  # fill per-process caches before timing; setup_s has the cold cost
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        values = per_layer(args, wl, reference, tally,
                           [m["name"] for m in listed])
    else:
        values = end_to_end(args, wl, reference, tally)
    for problem in tally.problems:
        print(f"FAIL {problem}", file=sys.stderr)
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
