"""One process of the benchmark: set up a workload, and optionally measure it.

    python3 perfbench/worker.py --role setup|measure --workload NAME \
        --seed N --seconds S --trace 0|1

Started by run.py with the BLAS thread variables already set and
``src/`` on PYTHONPATH.  Prints one JSON object on its last stdout line.
The set-up clock starts before ``import nedlab`` in a fresh interpreter
and stops after the workload's fixtures are built.
"""

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REFS = 20            # calibration kernels after set-up, to scale setup_s


def measure(verdicts, seconds, tracer=None):
    """Closed loop, one client: run passes back to back until the next
    one would end after `seconds`; at least one pass."""
    from common import check_pass, run_pass

    deadline = time.perf_counter() + seconds
    latencies, refs, cycles = [], [], []
    passes = attempted = failed = 0
    while True:
        cycle_start = time.perf_counter()
        if tracer is not None:
            tracer.enabled = True
        result = run_pass(verdicts)
        if tracer is not None:
            tracer.enabled = False
        failures = check_pass(verdicts, result)
        for name, reason in failures:
            print("FAIL %s: %s" % (name, reason), file=sys.stderr)
        latencies.extend(result.latencies)
        refs.extend(result.refs)
        passes += 1
        attempted += len(verdicts)
        failed += len({name for name, _ in failures})
        cycles.append(time.perf_counter() - cycle_start)
        if time.perf_counter() + statistics.median(cycles) > deadline:
            break
    return {"latencies": latencies, "refs": refs, "passes": passes,
            "attempted": attempted, "failed": failed}


def versions():
    import numpy
    import scipy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--role", choices=["setup", "measure"], required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    start = time.perf_counter()
    import nedlab
    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(nedlab.__file__).startswith(src + os.sep):
        sys.exit("nedlab was imported from %s, not from %s" % (nedlab.__file__, src))
    workload = importlib.import_module(args.workload)
    from common import REFERENCE_S, calibrate, summarize
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=WORK)
    try:
        verdicts = workload.build(args.seed, workdir)
        setup_s = time.perf_counter() - start
        out = {"setup_s": setup_s * REFERENCE_S / statistics.median(
                    [calibrate() for _ in range(SETUP_REFS)]),
               "raw_setup_s": setup_s}
        if args.role == "measure" and not args.trace:
            run = measure(verdicts, args.seconds)
            out.update(summarize(run["latencies"], run["refs"], len(verdicts)))
            out.update({k: run[k] for k in ("passes", "attempted", "failed")})
        elif args.role == "measure":
            out.update(measure_traced(workload, args, workdir, verdicts))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["versions"] = versions()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))


def measure_traced(workload, args, workdir, verdicts):
    """First half of the time untraced, then the wrappers go in, the
    fixtures are built again under tracing, and the second half runs
    traced.  Per-layer metrics are per-pass means of the traced passes.
    A workload's known-defect probe, if it has one, runs last, untraced
    and untimed."""
    import tracing

    from common import summarize

    plain = measure(verdicts, args.seconds / 2)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.enabled = True
    verdicts = workload.build(args.seed, os.path.join(workdir, "traced"))
    tracer.enabled = False
    setup_busy, _, _ = tracer.totals()
    tracer.reset()
    traced = measure(verdicts, args.seconds / 2, tracer)
    layers = tracing.layer_metrics(tracer, traced["passes"])
    layers["gallery.make_entry.s"] = setup_busy["gallery.make_entry"]
    layers["trace.overhead_s"] = (
        summarize(traced["latencies"], traced["refs"], len(verdicts))["wall_s"]
        - summarize(plain["latencies"], plain["refs"], len(verdicts))["wall_s"])
    out_dir = os.path.join(workdir, "traced", "out")
    if os.path.isdir(out_dir):
        layers["cli.artifact_bytes"] = sum(
            os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir)
            if not f.endswith(".meta.json"))
    tracer.dump(os.path.join(WORK, "trace-%s.json" % args.workload))
    tracer.uninstall()
    probe = getattr(workload, "known_defect_probe", None)
    layers["attractor.known_defect.envelope_breaks"] = probe(args.seed) if probe else 0
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    layers["failed_share"] = failed / attempted
    out = summarize(plain["latencies"], plain["refs"], len(verdicts))
    out.update({"passes": plain["passes"] + traced["passes"], "attempted": attempted,
                "failed": failed, "per_layer": layers})
    return out


if __name__ == "__main__":
    main()
