"""Verdicts, passes, host calibration and oracle helpers shared by the
three workloads.

A workload is a list of :class:`Verdict` objects built from a seed.  A
pass runs every verdict once, in order, and times each one; the oracle
checks run after the pass, outside the timed region, so that ``wall_s``
measures library work only.  Before each verdict a fixed calibration
kernel is timed as well (see :func:`calibrate`).
"""

import dataclasses
import math
import statistics
import time
import traceback
from typing import Any, Callable, Optional

import numpy as np
from scipy.integrate import solve_ivp

#: Time of one calibration kernel on the quiet benchmark host (2-vCPU
#: Intel Xeon VM, Python 3.11, numpy 2.4, scipy 1.17).  Timings are
#: reported in seconds at this reference speed.
REFERENCE_S = 0.005

_CAL_X = np.linspace(0.0, 1.0, 20000)
_CAL_W = np.linspace(0.0, 4.0, 41)


def _cal_rhs(t, y):
    return -y + math.cos(t)


def calibrate() -> float:
    """Seconds for one run of a fixed kernel that never touches nedlab: an
    RK45 solve at the library's tolerances and a 6.6 MB numpy broadcast,
    the two kinds of work the workloads spend their time in.  The host's
    speed drifts by tens of percent from minute to minute; the median
    time of many kernels measures the speed of a run."""
    start = time.perf_counter()
    solve_ivp(_cal_rhs, (0.0, 3.0), [1.0], rtol=1e-10, atol=1e-12)
    np.max(_CAL_X[None, :] - _CAL_W[:, None] * _CAL_X[None, :], axis=1)
    return time.perf_counter() - start


@dataclasses.dataclass
class Verdict:
    """One library computation whose output an oracle can judge.

    run:     the library call(s); returns the raw output.
    check:   ``check(out, outs)`` returns None when the output agrees
             with its oracle, else a one-line reason.  ``outs`` maps
             every verdict name of the same pass to its output, so CLI
             verdicts can compare against the library results.
    section: the verdict is one pullback omega-limit section (its
             latency feeds the section percentiles of attractor_sim).
    """

    name: str
    run: Callable[[], Any]
    check: Callable[[Any, dict], Optional[str]]
    section: bool = False


@dataclasses.dataclass
class PassResult:
    latencies: list            # (verdict name, seconds, is_section)
    refs: list                 # calibration kernel seconds, one per verdict
    outs: dict                 # verdict name -> output (absent if it raised)
    errors: dict               # verdict name -> exception text


def run_pass(verdicts) -> PassResult:
    """Run every verdict once, timing each; the calibration kernel runs
    before each verdict, outside its timing."""
    latencies, refs, outs, errors = [], [], {}, {}
    for v in verdicts:
        refs.append(calibrate())
        t0 = time.perf_counter()
        try:
            outs[v.name] = v.run()
        except Exception as exc:  # a raising verdict counts as failed
            errors[v.name] = "%s: %s" % (type(exc).__name__, exc)
        latencies.append((v.name, time.perf_counter() - t0, v.section))
    return PassResult(latencies, refs, outs, errors)


def summarize(latencies, refs, per_pass) -> dict:
    """Timing metrics of a run in seconds at the reference speed.

    Every latency is scaled by REFERENCE_S over the median of the
    calibration kernels of its own pass, which follows the host's speed
    from pass to pass; one kernel alone is too short to follow it from one
    verdict to the next and only adds its own jitter.  wall_s sums each
    verdict's median latency over the run's passes.  The section
    percentiles are over every section latency of every pass, or over
    every verdict's where a workload marks no sections."""
    per_verdict, sections, verdicts = {}, [], []
    for start in range(0, len(latencies), per_pass):
        scale = REFERENCE_S / statistics.median(refs[start:start + per_pass])
        for name, seconds, is_section in latencies[start:start + per_pass]:
            scaled = seconds * scale
            per_verdict.setdefault(name, []).append(scaled)
            verdicts.append(scaled)
            if is_section:
                sections.append(scaled)
    sections = sections or verdicts
    return {"wall_s": sum(statistics.median(v) for v in per_verdict.values()),
            "section_p50_s": statistics.median(sections),
            "section_p75_s": statistics.quantiles(sections, n=4)[2],
            "section_samples": len(sections),
            "calibration_median_s": statistics.median(refs)}


def check_pass(verdicts, result: PassResult) -> list:
    """Failures of one pass as (verdict name, reason)."""
    failures = [(name, "raised " + text) for name, text in result.errors.items()]
    for v in verdicts:
        if v.name not in result.outs:
            continue
        try:
            reason = v.check(result.outs[v.name], result.outs)
        except Exception:
            reason = "oracle raised: " + traceback.format_exc(limit=2).strip()
        if reason:
            failures.append((v.name, reason))
    return failures


def once(fn):
    """Memoise a zero-argument oracle so it is computed on first use."""
    cache = []

    def get():
        if not cache:
            cache.append(fn())
        return cache[0]

    return get


def within(label, got, want, tol) -> Optional[str]:
    if abs(got - want) <= tol:
        return None
    return "%s: got %.17g, oracle %.17g (tol %g)" % (label, got, want, tol)


def at_most(label, got, limit) -> Optional[str]:
    if got <= limit:
        return None
    return "%s: %.17g exceeds %g" % (label, got, limit)


def first_failure(*reasons) -> Optional[str]:
    for r in reasons:
        if r:
            return r
    return None


def svd_log_norm(m) -> float:
    """log of the largest singular value by LAPACK, scaled against
    overflow and underflow."""
    m = np.asarray(m, dtype=float)
    scale = float(np.max(np.abs(m)))
    if scale == 0.0:
        return -math.inf
    return math.log(scale) + math.log(np.linalg.svd(m / scale, compute_uv=False)[0])


def frontier_oracle(logn, dts, alphas, part, ln_m_max=8.0):
    """Per-alpha minimal ln M of a uniform (delta = 0) bound, from norms
    computed by the oracle: max(0, max_i logn_i -/+ alpha dt_i)."""
    sign = -1.0 if part == "stable" else 1.0
    rows = []
    for alpha in alphas:
        ln_m = max(0.0, float(np.max(logn - sign * alpha * dts)))
        rows.append((float(alpha), ln_m if ln_m <= ln_m_max else None))
    return rows


def compare_frontier(label, frontier, oracle_rows, tol) -> Optional[str]:
    """Entries of a delta_max = 0 frontier against the oracle minimax."""
    entries = {a: lm for a, _, lm in frontier.entries}
    for alpha, want in oracle_rows:
        if want is None:
            if alpha in entries:
                return "%s: alpha %g feasible, oracle says infeasible" % (label, alpha)
            continue
        if alpha not in entries:
            return "%s: alpha %g infeasible, oracle ln M %.6g" % (label, alpha, want)
        reason = within("%s ln M at alpha %g" % (label, alpha), entries[alpha], want, tol)
        if reason:
            return reason
    return None
