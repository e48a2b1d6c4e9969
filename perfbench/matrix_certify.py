"""matrix_certify: matrix process backends, where every (t, s) pair costs
an ODE solve, a matrix product chain or a power iteration.

Dense all-pairs mesh grids (check/classify) and short off-mesh pairs
(the band sups of the robustness pipeline) both go through the process
layer here.  Every process has a planted closed form, so the oracles
compute norms by ``np.linalg.svd`` of the closed-form matrices.
"""

import math

import numpy as np

import nedlab as nl

from common import (Verdict, at_most, compare_frontier, first_failure,
                    frontier_oracle, once, svd_log_norm, within)

CLAIM_TOL = 1e-9     # closed-form processes: norm kernel against LAPACK
ODE_TOL = 1e-7       # RK45 at rtol 1e-10 / atol 1e-12 over windows of length <= 5
PDE_CRITERION = 1e-6  # acceptance criterion 10: transferred certificate violation
VOC_CRITERION = 1e-8  # acceptance criterion 10: variation-of-constants residual
N_NORM_SAMPLES = 12
N_QUERIES = 48      # single norm queries: the sections of this workload
N_COCYCLES_2X2, N_COCYCLES_4X4 = 2, 24
PARTS = ("stable", "unstable")


def _rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


class PlantedIntegrated:
    """x' = Q diag(a_i(t)) Q^-1 x with a_i(t) = r_i + e_i sin(t + p_i): the
    RK45 backend integrates it, the oracle uses
    S(t, s) = Q diag(exp(int_s^t a_i)) Q^-1."""

    def __init__(self, rates, eps, phase, q, invertible):
        self.rates, self.eps, self.phase, self.q = rates, eps, phase, q
        self.q_inv = np.linalg.inv(q)
        self.process = nl.IntegratedLinearProcess(
            lambda t: q @ np.diag(rates + eps * np.sin(t + phase)) @ self.q_inv, 2,
            invertible=invertible)

    @classmethod
    def draw(cls, rng, rates, invertible):
        q = _rotation(rng.uniform(0.0, math.pi)) @ np.diag([1.0, rng.uniform(1.2, 1.6)])
        return cls(np.asarray(rates, dtype=float), rng.uniform(0.1, 0.3, size=2),
                   rng.uniform(0.0, 2.0 * math.pi, size=2), q, invertible)

    def shifted(self, amount):
        """The same structure with every rate moved by amount."""
        return PlantedIntegrated(self.rates + amount, self.eps, self.phase, self.q,
                                 self.process.invertible)

    def exponents(self, t, s):
        r, e, p = self.rates, self.eps, self.phase
        return r * (t - s) - e * (np.cos(t + p) - np.cos(s + p))

    def matrix(self, t, s):
        return self.q @ np.diag(np.exp(self.exponents(t, s))) @ self.q_inv


def _planted_cocycle(rng, n):
    """Piecewise-constant cocycle with a planted dichotomy, as in
    acceptance criterion 4, for any even n: n/2 stable and n/2 unstable
    rates drawn from the seed without filtering."""
    rates = np.concatenate([-rng.uniform(0.5, 2.0, size=n // 2),
                            rng.uniform(0.5, 2.0, size=n - n // 2)])
    knots = np.arange(-8.0, 9.0)
    tables = []
    for i, rate in enumerate(rates):
        slopes = rate * (1 + 0.02 * ((-1.0) ** (np.arange(16) + i)))
        vals = np.concatenate([[0.0], np.cumsum(slopes)])
        tables.append(vals - float(np.interp(0.0, knots, vals)))
    tables = np.array(tables)
    q1 = np.linalg.qr(rng.normal(size=(n, n)))[0]
    q2 = np.linalg.qr(rng.normal(size=(n, n)))[0]
    spread = np.concatenate([[1.0], rng.uniform(1.2, 3.0, size=n - 1)])
    basis = q1 @ np.diag(spread) @ q2
    inv = np.linalg.inv(basis)

    def cumulative(t):
        return np.array([np.interp(t, knots, row) for row in tables])

    def mat(t, s):
        return basis @ np.diag(np.exp(cumulative(t) - cumulative(s))) @ inv

    pi_u = basis @ np.diag([0.0] * (n // 2) + [1.0] * (n - n // 2)) @ inv
    return nl.MatrixClosedFormProcess(mat, n, invertible=True), mat, pi_u


def _sample_pairs(rng, grid, part, k):
    tv, sv = grid.pairs(part)
    keep = tv != sv
    tv, sv = tv[keep], sv[keep]
    idx = rng.choice(tv.size, size=min(k, tv.size), replace=False)
    return [(float(tv[i]), float(sv[i])) for i in idx]


def _norm_reason(label, samples, norms, fam, oracle_matrix, dimension, tol):
    """Sampled log-norms against LAPACK on the closed-form matrices."""
    for ((t, s), part), got in zip(samples, norms):
        if fam is None:
            proj = np.eye(dimension)
        else:
            proj = fam.stable(s) if part == "stable" else fam.unstable(s)
        reason = within("%s log-norm at (%g, %g)" % (label, t, s), got,
                        svd_log_norm(oracle_matrix(t, s) @ proj), tol)
        if reason:
            return reason
    return None


def build(seed, workdir):
    rng = np.random.default_rng([seed, 2])
    verdicts = []

    # --- RK45 backend with a planted closed form --------------------------------
    planted = PlantedIntegrated.draw(rng, [-1.0, 0.5], invertible=False)
    pi_u = planted.q @ np.diag([0.0, 1.0]) @ planted.q_inv
    family = nl.ProjectionFamily.constant(pi_u)
    p_s = np.eye(2) - pi_u
    # ||Q diag(e^{c1}, 0) Q^-1|| = e^{c1} |Q e1| |e1' Q^-1| with c1 <= -(t-s) + 2 e_1.
    rank_one = float(np.linalg.norm(planted.q[:, 0]) * np.linalg.norm(planted.q_inv[0]))
    cert = nl.DichotomyCertificate("II", nl.FULL_LINE, rank_one * math.exp(2 * planted.eps[0]),
                                   nl.ExponentPair(1.0, 0.0), projection="explicit",
                                   projection_family=family)
    check_grid = nl.GridSpec(0.0, 5.0, 0.25)
    fit_grid = nl.GridSpec(0.0, 5.0, 0.5)
    fit_alphas = [0.5 + 0.05 * k for k in range(21)]

    def integrated_oracle(grid):
        tv, sv = grid.pairs("stable")
        logn = np.array([svd_log_norm(planted.matrix(t, s) @ p_s) for t, s in zip(tv, sv)])
        return tv, sv, logn

    check_oracle = once(lambda: integrated_oracle(check_grid))
    fit_oracle = once(lambda: integrated_oracle(fit_grid))

    def check_integrated(out, outs):
        tv, sv, logn = check_oracle()
        want = float(np.max(logn - (math.log(cert.m) - cert.stable.rate * (tv - sv))))
        return within("integrated check violation", out, want, ODE_TOL)
    verdicts.append(Verdict("integrated:check",
                            lambda: nl.check_certificate(planted.process, cert, check_grid),
                            check_integrated))

    def check_integrated_fit(out, outs):
        tv, sv, logn = fit_oracle()
        return compare_frontier("integrated frontier", out[0],
                                frontier_oracle(logn, tv - sv, fit_alphas, "stable"), ODE_TOL)
    verdicts.append(Verdict(
        "integrated:classify",
        lambda: nl.classify(planted.process, family, "II", fit_grid, fit_alphas,
                            delta_max=0.0),
        check_integrated_fit))

    def add_norm_samples(name, process, fam, samples, oracle_matrix, tol, section=False):
        def run():
            return [nl.operator_norm(process, t, s, fam, part=part, log=True)
                    for (t, s), part in samples]
        verdicts.append(Verdict(name, run, lambda out, outs: _norm_reason(
            name, samples, out, fam, oracle_matrix, process.dimension, tol), section))

    # Single norm queries, one RK45 solve each, every one on its own planted
    # process (drawn from a second stream, so the draws below stay as they
    # are).  These queries are this workload's sections.  Their lengths are
    # stratified over [0.5, 3], so that the costs spread evenly from about
    # one to six milliseconds and the percentiles fall where samples are
    # dense, not in a gap between two clusters of equal-length queries.
    query_rng = np.random.default_rng([seed, 2, 1])
    for k in range(N_QUERIES):
        query = PlantedIntegrated.draw(query_rng, [-1.0, 0.5], invertible=False)
        s = float(query_rng.integers(0, 9)) * 0.25
        length = 0.5 + 2.5 * (k + float(query_rng.uniform())) / N_QUERIES
        add_norm_samples("integrated:norm%d" % k, query.process,
                         nl.ProjectionFamily.constant(
                             query.q @ np.diag([0.0, 1.0]) @ query.q_inv),
                         [((s + length, s), "stable")], query.matrix, ODE_TOL,
                         section=True)

    # --- planted piecewise cocycles, 2x2 and 4x4, primal and dual ----------------
    # Many small cocycles: a 4x4 power-iteration norm costs more when the
    # drawn rates put two singular values close together, and the sum over 24
    # draws keeps the cost steady from seed to seed.
    cocycle_grid = nl.GridSpec(-4.0, 4.0, 2.0)
    cocycle_alphas = [round(a, 4) for a in np.arange(0.1, 2.55, 0.05)]
    for n, count in ((2, N_COCYCLES_2X2), (4, N_COCYCLES_4X4)):
        for k in range(count):
            process, mat, pi_u_c = _planted_cocycle(rng, n)
            fam = nl.ProjectionFamily.constant(pi_u_c)
            sides = [(process, fam, "II", mat),
                     (nl.dual_process(process),
                      nl.ProjectionFamily.constant((np.eye(n) - pi_u_c).T),
                      "I", lambda t, s, mat=mat: mat(s, t).T)]
            samples = [(pair, "stable") for pair in
                       _sample_pairs(rng, cocycle_grid, "stable", N_NORM_SAMPLES // 2)]
            samples += [(pair, "unstable") for pair in
                        _sample_pairs(rng, cocycle_grid, "unstable", N_NORM_SAMPLES // 2)]

            def run(process=process, fam=fam, sides=sides, samples=samples):
                frontiers = [nl.classify(proc, f, kind, cocycle_grid, cocycle_alphas,
                                         part=part, delta_max=0.0)[0]
                             for proc, f, kind, _ in sides for part in PARTS]
                norms = [nl.operator_norm(process, t, s, fam, part=part, log=True)
                         for (t, s), part in samples]
                return frontiers, norms

            def oracle(sides=sides):
                rows = []
                for _, f, _, m_fn in sides:
                    for part in PARTS:
                        tv, sv = cocycle_grid.pairs(part)
                        proj = f.stable if part == "stable" else f.unstable
                        logn = np.array([svd_log_norm(m_fn(t, s) @ proj(s))
                                         for t, s in zip(tv, sv)])
                        rows.append(frontier_oracle(logn, tv - sv, cocycle_alphas, part))
                return rows

            def check(out, outs, oracle=once(oracle), fam=fam, mat=mat, samples=samples,
                      label="%dx%d cocycle %d" % (n, n, k), n=n):
                frontiers, norms = out
                for frontier, rows in zip(frontiers, oracle()):
                    reason = compare_frontier(label, frontier, rows, CLAIM_TOL)
                    if reason:
                        return reason
                return _norm_reason(label, samples, norms, fam, mat, n, CLAIM_TOL)
            verdicts.append(Verdict("cocycle:%dx%d:%d" % (n, n, k), run, check))

    # --- discretised PDE at N = 31 ----------------------------------------------
    lap = nl.discretize(nl.Grid1D(1.0, 31), nl.BoundaryCondition("dirichlet"))
    lam1 = lap.leading_eigenvalue
    c, d = float(rng.uniform(1.5, 2.5)), float(rng.uniform(0.5, 1.0))
    big_g = lambda t: -c * t + d * (t * math.cos(t) - math.sin(t))
    separable = nl.pde_process(lap, separable_g=lambda t: -c - d * t * math.sin(t),
                               g_antiderivative=big_g, domain=nl.HALF_LINE_PLUS)
    scalar = nl.DichotomyCertificate("II", nl.HALF_LINE_PLUS, math.exp(2 * d),
                                     nl.ExponentPair(c + d, 2 * d), projection="zero")
    pde_grid = nl.GridSpec(0.0, 20.0, 0.5)

    def run_transfer():
        transferred = nl.scalar_to_pde_transfer(scalar, lap)
        return transferred, nl.check_certificate(separable, transferred, pde_grid)

    def check_transfer(out, outs):
        # ||S(t, s)|| = e^{G(t) - G(s)} e^{lambda_1 (t - s)} for symmetric A_h.
        transferred, violation = out
        tv, sv = pde_grid.pairs("stable")
        g_t = np.array([big_g(t) for t in tv])
        g_s = np.array([big_g(s) for s in sv])
        logn = g_t - g_s + lam1 * (tv - sv)
        bound = (math.log(transferred.m) + transferred.stable.growth * np.abs(tv)
                 - transferred.stable.rate * (tv - sv))
        return first_failure(
            at_most("transferred certificate (criterion 10)", violation, PDE_CRITERION),
            within("separable check violation", violation, float(np.max(logn - bound)),
                   CLAIM_TOL))
    verdicts.append(Verdict("pde:separable-check", run_transfer, check_transfer))

    # Strang splitting: a(t, x) = -k + e sin(t + p) cos(pi x) <= -k + e, so every
    # step factor has norm <= e^{(lambda_1 - k + e) tau} and the uniform
    # certificate (M = 1, rate |lambda_1| + k - e) holds exactly for the product.
    k_react = float(rng.uniform(0.5, 1.5))
    e_react = float(rng.uniform(0.2, 0.5))
    p_react = float(rng.uniform(0.0, 2.0 * math.pi))
    strang = nl.pde_process(
        lap, a=lambda t, x: -k_react + e_react * math.sin(t + p_react) * np.cos(np.pi * x),
        dt=1e-3)
    strang_cert = nl.DichotomyCertificate(
        "II", nl.FULL_LINE, 1.0, nl.ExponentPair(abs(lam1) + k_react - e_react, 0.0),
        projection="zero")
    strang_grid = nl.GridSpec(0.0, 3.0, 0.5)
    verdicts.append(Verdict(
        "pde:strang-check",
        lambda: nl.check_certificate(strang, strang_cert, strang_grid),
        lambda out, outs: at_most("Strang certificate violation", out, CLAIM_TOL)))
    short = [(t, s) for t, s in zip(*strang_grid.pairs("stable")) if 0 < t - s <= 0.5]
    strang_pairs = [(short[i], "stable")
                    for i in rng.choice(len(short), size=3, replace=False)]
    add_norm_samples("pde:strang-norms", strang, None, strang_pairs,
                     lambda t, s: strang.matrix(t, s), CLAIM_TOL)

    forcing = float(rng.uniform(0.5, 2.0))
    verdicts.append(Verdict(
        "pde:voc",
        lambda: nl.variation_of_constants_check(
            separable, lambda t: forcing * math.exp(-t) * np.ones(31), (0.0, 1.0),
            n_check=3),
        lambda out, outs: at_most("variation-of-constants residual (criterion 10)",
                                  out, VOC_CRITERION)))

    shift = -float(rng.uniform(0.0, 1.0))
    autonomous = nl.pde_process(lap, separable_g=lambda t: shift,
                                g_antiderivative=lambda t: shift * t)
    gap = float(lap.eigenvalues[-1] - lap.eigenvalues[-2])
    verdicts.append(Verdict(
        "pde:principal-bundle",
        lambda: nl.principal_bundle(autonomous),
        lambda out, outs: within("principal-bundle separation (criterion 10)",
                                 out.nu_sep, gap, 0.10 * gap)))

    # --- robustness transport -------------------------------------------------
    p_int = PlantedIntegrated.draw(rng, [-1.0, -1.5], invertible=True)
    q_int = p_int.shifted(-float(rng.uniform(0.01, 0.03)))
    cond = float(np.linalg.cond(p_int.q))
    int_cert = nl.DichotomyCertificate("II", nl.FULL_LINE,
                                       cond * math.exp(2 * float(np.max(p_int.eps))),
                                       nl.ExponentPair(1.0, 0.0), projection="zero")
    band_grid = nl.GridSpec(0.0, 0.5, 0.5)
    pipe_eps = 0.3

    def band_max(s_step, d_step, t_max):
        # Closed-form dual distance sup ||S_p(s, t)' - S_q(s, t)'|| (upsilon = 0)
        # over s in [0, 0.5], 0 <= t - s <= 1, t <= t_max.
        best = 0.0
        for s in np.arange(0.0, 0.5 + s_step / 2, s_step):
            for dd in np.arange(0.0, 1.0 + d_step / 2, d_step):
                if s + dd > t_max + 1e-12:
                    break
                diff = p_int.matrix(s, s + dd) - q_int.matrix(s, s + dd)
                best = max(best, float(np.linalg.svd(diff, compute_uv=False)[0]))
        return best
    # The library scans the mesh points with t <= 0.5 and refines around the
    # best one; its value lies between that scan and the sup over the band
    # its docstring states (t - s <= 1 for every s in the grid range).
    band_scan = once(lambda: band_max(0.5, 0.01, 0.5))
    band_sup = once(lambda: band_max(0.01, 0.002, 1.5))

    def check_integrated_pipe(out, outs):
        if not out.applicable:
            return "integrated pair gated: " + out.reason
        lo, hi = band_scan(), band_sup()
        if not (lo - ODE_TOL <= out.distance <= hi * (1 + 1e-3) + ODE_TOL):
            return "distance %.12g outside closed-form band [%.12g, %.12g]" % (
                out.distance, lo, hi)
        return at_most("transported primal certificate", out.primal_violation, ODE_TOL)
    verdicts.append(Verdict(
        "robust:integrated",
        lambda: nl.robust_nedii_pipeline(p_int.process, int_cert, q_int.process, 0.0,
                                         pipe_eps, band_grid),
        check_integrated_pipe))

    constant_cert = nl.DichotomyCertificate("II", nl.FULL_LINE, 1.0,
                                            nl.ExponentPair(1.0, 0.0), projection="zero")
    base = nl.ScalarCoefficientProcess(lambda t: -1.0, antiderivative=lambda t: -t)
    demo_grid = nl.GridSpec(-3.0, 3.0, 0.5)
    for label, rate, applicable in (("near", -1.0 - float(rng.uniform(0.005, 0.02)), True),
                                    ("far", -2.0 - float(rng.uniform(0.0, 0.5)), False)):
        perturbed = nl.ScalarCoefficientProcess(lambda t, r=rate: r,
                                                antiderivative=lambda t, r=rate: r * t)

        def check_demo(out, outs, rate=rate, applicable=applicable):
            if out.applicable != applicable:
                return "applicable=%s, expected %s" % (out.applicable, applicable)
            return within("demo-pair distance", out.distance,
                          math.exp(-rate) - math.e, CLAIM_TOL)
        verdicts.append(Verdict(
            "robust:scalar-%s" % label,
            lambda q=perturbed: nl.robust_nedii_pipeline(base, constant_cert, q, 0.0, 0.1,
                                                         demo_grid),
            check_demo))
    return verdicts
