"""nedlab benchmark: time to verdict, end to end and per layer.

    python3 perfbench/run.py --workload scalar_certify|matrix_certify|attractor_sim \
        [--seed N] [--seconds S] [--trace 0|1]

Runs from the root of a checkout and imports nedlab from its ``src/``.
The workload's inputs come from --seed; every verdict is checked against
an oracle.  With --trace 0 the last stdout line reports the end-to-end
metrics of BENCHMARK.json, with --trace 1 its per-layer metrics, as

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Earlier lines give the environment record and a readable metric table.
See perfbench/README.md for the metrics, workloads and baseline numbers.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("scalar_certify", "matrix_certify", "attractor_sim")
DEFAULT_SEED = 1
HELD_OUT_SEED = 2          # documented second seed for checking later claims
SETUP_CHILDREN = 3         # set-up-only interpreters; the measuring one adds a fourth
CHILD_TIMEOUT_S = 150
# One process with one BLAS thread: never more threads than cores.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(role, args):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit("%s worker exited with code %d" % (role, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if not os.path.isfile(os.path.join(ROOT, "src", "nedlab", "__init__.py")):
        sys.exit("no nedlab sources under %s" % os.path.join(ROOT, "src"))

    setups = [run_child("setup", args)["setup_s"] for _ in range(SETUP_CHILDREN)]
    result = run_child("measure", args)
    setups.append(result["setup_s"])

    values = {
        "setup_s": statistics.median(setups),
        "wall_s": result["wall_s"],
        "section_p50_s": result["section_p50_s"],
        "section_p75_s": result["section_p75_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    values.update(result.get("per_layer", {}))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}
    if not args.trace and missing:
        sys.exit("metrics not measured: %s" % ", ".join(missing))

    environment = {
        "workload": args.workload, "seed": args.seed, "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu": cpu_model(), "git_commit": git_commit(),
        "threads": {var: child_env()[var] for var in THREAD_VARS},
        "passes": result["passes"], "section_samples": result["section_samples"],
        "setup_samples": len(setups), "raw_setup_s": result["raw_setup_s"],
        "calibration_median_s": result["calibration_median_s"],
    }
    environment.update(result["versions"])
    print(json.dumps({"environment": environment}))
    for name, m in metrics.items():
        print("%-48s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
