"""attractor_sim: nonlinear simulation of pullback and forward attractors.

The process layer is reached only through scalar ``propagate`` inside
``comparison_bound``, and the dichotomy layer not at all.  Most of a pass
is ``_integrate_ensemble``, which calls the field once per seed point at
every right-hand-side evaluation of one stacked RK45 solve.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp

import nedlab as nl

from common import Verdict, at_most, check_pass, first_failure, once, run_pass, within

N_CUBIC, N_COSINE, N_COOPERATIVE = 16, 16, 8   # 40 sections per pass
N_PROBE = 40             # untimed cubic sections of the known-defect probe
COSINE_TOL = 1e-6        # section against the closed-form bounded solution
COOPERATIVE_TOL = 1e-8   # section against the equilibrium (criterion 9)
SOUNDNESS_TOL = 1e-8     # comparison bound minus trajectory (criterion 6)
FORWARD_TOL = 1e-6

# Squared comparison certificate of g(t) = -2 - t sin t (criterion 7):
# (alpha, delta, M) = (1, 4, e^4) on R-, with the forcing weight lambda = -1.
SQUARED = nl.DichotomyCertificate("II", nl.HALF_LINE_MINUS, math.e ** 4,
                                  nl.ExponentPair(1.0, 4.0), projection="zero")


def _g(t):
    return -2.0 - t * math.sin(t)


def _strata(rng, lo, hi, n):
    """One seed-drawn time in each of n equal slices of [lo, hi]: the times
    move with the seed while the mix of section costs stays the same."""
    width = (hi - lo) / n
    return [lo + width * (k + float(rng.uniform())) for k in range(n)]


# Cubic section times: the part of [-20, 0] where g(t) <= -1, i.e. where the
# squared comparison coefficient 2 g + 1 contracts at rate >= 1.  Where g > 0
# the default depth schedule of simulate_pullback_omega stops at depth 2 on a
# saturated +-sqrt(g) branch (see Findings in README.md), so those times would
# fail on every seed; they are left out of the timed workload and counted
# by known_defect_probe instead.
_CUBIC_GRID = np.linspace(-20.0, 0.0, 20001)
_CUBIC_OK = np.array([_g(t) <= -1.0 for t in _CUBIC_GRID])
_CUBIC_CDF = np.cumsum(_CUBIC_OK) / np.count_nonzero(_CUBIC_OK)


def _contracting_strata(rng, n):
    """One seed-drawn time in each of n slices of equal measure of the
    contracting set {t in [-20, 0] : g(t) <= -1} (resolution 1e-3)."""
    return [float(_CUBIC_GRID[np.searchsorted(_CUBIC_CDF, (k + float(rng.uniform())) / n)])
            for k in range(n)]


def _bounded_cosine(amp, t):
    # x' = -x + amp cos t has the bounded solution amp (cos t + sin t) / 2.
    return 0.5 * amp * (math.cos(t) + math.sin(t))


def _cubic_section(name, t, amp):
    """Pullback section of the driven cubic x' = g x - x^3 + amp e^{-2|t|} at
    t, judged against the squared comparison envelope."""
    spec = nl.DissipativitySpec(
        field=lambda tau, x: _g(tau) * x - x ** 3 + amp * math.exp(-2.0 * abs(tau)),
        a=lambda tau: 2.0 * _g(tau) + 1.0,
        b=lambda tau: (amp * math.exp(-2.0 * abs(tau))) ** 2, dimension=1)
    # R(t) = [M / (alpha - delta lambda) ||b^2|| e^{(lambda+1) delta |t|}]^{1/2}
    # with ||b^2||_{-4} = amp^2 and lambda = -1.
    radius = math.sqrt(SQUARED.m / (1.0 + 4.0) * amp ** 2)

    def check(out, outs):
        return at_most("cubic section radius over envelope %.6g" % radius,
                       float(np.max(np.abs(out.representatives))), radius)
    return Verdict(name, lambda: nl.simulate_pullback_omega(
        spec, t, np.array([[0.0], [1.0], [-1.0]])), check, section=True)


def known_defect_probe(seed):
    """Envelope breaks of the driven cubic over the whole of [-20, 0].

    Outside the timed workload: N_PROBE sections at seed-drawn times, one
    in each slice of width 0.5, expanding windows (g > -1) included.  The
    count is how often simulate_pullback_omega's early stop returns a
    section outside the envelope (see Findings in README.md); it is a
    per-layer metric and does not make a run incorrect."""
    rng = np.random.default_rng([seed, 3, 1])
    verdicts = [_cubic_section("probe:cubic%d" % k, t, float(rng.uniform(0.5, 1.0)))
                for k, t in enumerate(_strata(rng, -20.0, 0.0, N_PROBE))]
    return len({name for name, _ in check_pass(verdicts, run_pass(verdicts))})


def build(seed, workdir):
    rng = np.random.default_rng([seed, 3])
    verdicts = []

    # --- pullback sections ------------------------------------------------------
    for k, t in enumerate(_contracting_strata(rng, N_CUBIC)):
        verdicts.append(_cubic_section("section:cubic%d" % k, t, float(rng.uniform(0.5, 1.0))))

    for k, t in enumerate(_strata(rng, -6.0, 6.0, N_COSINE)):
        amp = float(rng.uniform(0.5, 2.0))
        spec = nl.DissipativitySpec(field=lambda tau, x, amp=amp: -x + amp * math.cos(tau),
                                    a=lambda tau: -1.0, b=lambda tau: 1.0, dimension=1)

        def check(out, outs, amp=amp, t=t):
            if out.representatives.shape != (1, 1):
                return "cosine section has %d clusters" % out.representatives.shape[0]
            return within("cosine section", float(out.representatives[0, 0]),
                          _bounded_cosine(amp, t), COSINE_TOL)
        verdicts.append(Verdict(
            "section:cosine%d" % k,
            lambda spec=spec, t=t: nl.simulate_pullback_omega(
                spec, t, np.array([[0.0], [3.0]])),
            check, section=True))

    coupling = np.array([[-2.0, 1.0], [1.0, -2.0]])
    for k, t in enumerate(_strata(rng, -4.0, 0.0, N_COOPERATIVE)):
        forcing = rng.uniform(0.5, 2.0, size=2)
        spec = nl.CooperativeSpec(a_matrix=coupling, b_vector=forcing, dimension=2)
        equilibrium = -np.linalg.solve(coupling, forcing)

        def check(out, outs, equilibrium=equilibrium):
            return at_most("cooperative section off the equilibrium",
                           float(np.max(np.abs(out.representatives - equilibrium))),
                           COOPERATIVE_TOL)
        verdicts.append(Verdict(
            "section:cooperative%d" % k,
            lambda spec=spec, t=t: nl.simulate_pullback_omega(
                spec, t, np.array([[0.0, 0.0], [2.0, 3.0], [-1.0, 4.0]]),
                cluster_eps=1e-10),
            check, section=True))

    # --- forward omega cloud ----------------------------------------------------
    amp_f = float(rng.uniform(0.5, 2.0))
    tau = float(rng.uniform(0.0, 1.0))
    cloud0 = rng.uniform(-2.0, 2.0, size=(4, 1))
    forward_spec = nl.DissipativitySpec(field=lambda t, x: -x + amp_f * math.cos(t),
                                        a=lambda t: -1.0, b=lambda t: 1.0, dimension=1)
    horizons = [2.0 ** k for k in range(6)]

    def check_forward(out, outs):
        # Late half of the horizons, each with every seed point, in order:
        # x(tau + h) = xb(tau + h) + e^{-h} (x0 - xb(tau)).
        want = [_bounded_cosine(amp_f, tau + h)
                + math.exp(-h) * (x0 - _bounded_cosine(amp_f, tau))
                for h in horizons[len(horizons) // 2:] for x0 in cloud0[:, 0]]
        return at_most("forward cloud against the closed form",
                       float(np.max(np.abs(out.points[:, 0] - want))), FORWARD_TOL)
    verdicts.append(Verdict(
        "forward:cosine",
        lambda: nl.simulate_forward_omega(forward_spec, cloud0, tau,
                                          horizon_schedule=horizons),
        check_forward))

    # --- parabolic attractor demo at N = 15 -------------------------------------
    lap15 = nl.discretize(nl.Grid1D(1.0, 15), nl.BoundaryCondition("dirichlet"))
    scalar = nl.DichotomyCertificate("II", nl.FULL_LINE, math.e ** 2,
                                     nl.ExponentPair(3.0, 2.0), projection="zero")
    t_demo = float(rng.uniform(-2.0, 0.0))

    def check_demo(out, outs):
        # Transferred certificate (2 e^2, 3 + |lambda_1|, 2) and, with lambda = 0,
        # the sup-norm radius M / alpha * ||b|| * e^{delta |t|}.
        m, alpha = 2.0 * math.e ** 2, 3.0 + abs(lap15.leading_eigenvalue)
        radius = m / alpha * math.exp(2.0 * abs(t_demo))
        section = out["sections"].section(t_demo)
        return at_most("PDE section sup norm over envelope %.6g" % radius,
                       float(np.max(np.abs(section))), radius)
    verdicts.append(Verdict(
        "parabolic:demo",
        lambda: nl.parabolic_attractor_demo(
            lap15, _g, lambda t: math.exp(-abs(t)) * np.ones(15), scalar, lam=0.0,
            t_grid=[t_demo], bnorm=1.0, seeds_per_time=3, seed=seed),
        check_demo))

    # --- comparison-bound soundness sweep (criterion 6) -------------------------
    # f(t, x) = -x - x^3 + cos t gives 2 x f <= -x^2 + cos^2 t: witness rate -1.
    witness = nl.ScalarCoefficientProcess(lambda t: -1.0, antiderivative=lambda t: -t)
    starts = rng.uniform(-3.0, 3.0, size=5)
    times = np.sort(rng.uniform(0.0, 10.0, size=100))

    def trajectories():
        return [solve_ivp(lambda t, x: -x[0] - x[0] ** 3 + math.cos(t), (0.0, 10.0),
                          [float(x0)], t_eval=times, rtol=1e-10, atol=1e-12).y[0]
                for x0 in starts]
    trajectories = once(trajectories)

    def run_sweep():
        return [[nl.comparison_bound(witness, lambda r: math.cos(r) ** 2, float(t), 0.0,
                                     float(x0) ** 2) for t in times] for x0 in starts]

    def check_sweep(out, outs):
        excess = max(float(np.max(x ** 2 - np.asarray(b)))
                     for x, b in zip(trajectories(), out))
        return at_most("comparison bound excess (criterion 6)", excess, SOUNDNESS_TOL)
    verdicts.append(Verdict("comparison:sweep", run_sweep, check_sweep))

    # --- sampled dissipativity certificate --------------------------------------
    amp_c = float(rng.uniform(0.5, 1.0))
    cubic = nl.DissipativitySpec(
        field=lambda t, x: _g(t) * x - x ** 3 + amp_c * math.exp(-2.0 * abs(t)),
        a=lambda t: 2.0 * _g(t) + 1.0,
        b=lambda t: (amp_c * math.exp(-2.0 * abs(t))) ** 2, dimension=1)

    def check_certify(out, outs):
        worst, ok = out
        # 2 x f - (a x^2 + b^2) = -2 x^4 - (x - b)^2 <= 0 everywhere.
        return first_failure(None if ok else "sampled inequality failed",
                             at_most("dissipativity worst value", worst, 0.0))
    verdicts.append(Verdict(
        "dissipativity:certify",
        lambda: cubic.certify((-20.0, 0.0), 3.0, n_samples=10000, seed=seed),
        check_certify))
    return verdicts
