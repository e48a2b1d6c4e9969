import math

import mpmath as mp
import numpy as np
import pytest

import nedlab as nl
from nedlab import GridSpec

from conftest import constant_scalar, decay_cert


def oracle_constants(m, omega, upsilon, eps, dps=50):
    """Direct 50-digit evaluation of the perturbation constants."""
    mp.mp.dps = dps
    m, omega, upsilon, eps = (mp.mpf(repr(v)) for v in (m, omega, upsilon, eps))
    sh, ch = mp.sinh(omega), mp.cosh(omega)
    radical = sh ** 2 - 2 * eps * sh
    omega_tilde = mp.log(ch + mp.sqrt(radical)) - mp.log(1 + 2 * eps * sh)
    beta_tilde = omega_tilde + mp.log(1 + 2 * eps * sh)
    rho = eps * (1 + mp.e ** -omega) / (1 - mp.e ** -omega)
    m1 = 1 / (1 - eps * mp.e ** -omega / (1 - mp.e ** -(omega + omega_tilde)))
    m2 = 1 / (1 - eps * mp.e ** -beta_tilde
              / (1 - mp.e ** -(omega + beta_tilde)))
    m_hat = m * (1 + eps / ((1 - rho) * (1 - mp.e ** -omega))) * max(m1, m2)
    return {
        "omega_tilde": omega_tilde, "beta_tilde": beta_tilde, "rho": rho,
        "m1": m1, "m2": m2, "m_hat": m_hat,
    }


def admissible_inputs(count, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        omega = float(rng.uniform(0.3, 3.0))
        upsilon = float(rng.uniform(0.0, 0.9)) * omega
        eps = float(rng.uniform(1e-4, 0.4)) * math.sinh(omega) / 2.0
        m = float(rng.uniform(1.0, 10.0))
        rep = nl.robustness_constants(m, omega, upsilon, eps)
        if rep.admissible:
            out.append((m, omega, upsilon, eps))
    return out


class TestConstants:
    def test_reference_point(self):
        rep = nl.robustness_constants(1.0, 1.0, 0.2, 0.1)
        ref = oracle_constants(1.0, 1.0, 0.2, 0.1)
        assert rep.omega_tilde == pytest.approx(float(ref["omega_tilde"]),
                                                rel=1e-13)
        assert rep.beta_tilde == pytest.approx(float(ref["beta_tilde"]),
                                               rel=1e-13)
        assert rep.rho == pytest.approx(float(ref["rho"]), rel=1e-13)
        assert rep.m_hat == pytest.approx(float(ref["m_hat"]), rel=1e-13)
        assert rep.admissible

    @pytest.mark.parametrize("case", admissible_inputs(12, seed=5))
    def test_against_oracle(self, case):
        rep = nl.robustness_constants(*case)
        ref = oracle_constants(*case)
        for key in ("omega_tilde", "beta_tilde", "rho", "m1", "m2", "m_hat"):
            assert getattr(rep, key) == pytest.approx(float(ref[key]),
                                                      rel=1e-12), key

    def test_zero_perturbation_identity(self):
        rep = nl.robustness_constants(2.0, 1.3, 0.4, 0.0)
        assert abs(rep.omega_tilde - 1.3) <= 1e-14
        assert abs(rep.beta_tilde - 1.3) <= 1e-14
        assert rep.m1 == pytest.approx(1.0, abs=1e-14)
        assert rep.m_hat == pytest.approx(2.0, rel=1e-14)

    def test_exponent_sign_report(self):
        # The literal difference is nonpositive; the flipped sign is the
        # usable positive exponent.  Both are reported.
        for case in admissible_inputs(8, seed=11):
            rep = nl.robustness_constants(*case)
            assert rep.w_as_written <= 1e-15
            assert rep.w_sign_flipped >= -1e-15
            assert rep.w_as_written == pytest.approx(-rep.w_sign_flipped)
            assert rep.positive_exponent == rep.w_sign_flipped

    def test_inadmissible_flags(self):
        # eps too large: the radical goes negative.
        rep = nl.robustness_constants(1.0, 0.5, 0.1, 2.0)
        assert not rep.admissible
        assert not rep.flags["radical_nonnegative"]
        # upsilon >= omega.
        rep2 = nl.robustness_constants(1.0, 1.0, 1.5, 0.01)
        assert not rep2.admissible
        assert not rep2.flags["upsilon_below_omega"]

    @pytest.mark.parametrize("omega", [0.0, 1e-300, 5e-17])
    def test_zero_denominators_give_ieee_values(self, omega):
        # e^{-omega} rounds to 1, so 1 - e^{-omega} is 0: rho is inf and
        # the report comes back with its flags cleared, not an exception.
        rep = nl.robustness_constants(1.0, omega, 0.0, 0.1)
        assert rep.rho == math.inf
        assert not (rep.flags["rho_below_one"] or rep.flags["m1_positive"]
                    or rep.flags["m2_positive"] or rep.admissible)
        assert math.isnan(rep.m_hat)
        assert math.isnan(nl.robustness_constants(1.0, omega, 0.0, 0.0).rho)   # 0 / 0

    @pytest.mark.parametrize("omega", [-1000.0])
    def test_overflow_gives_ieee_values(self, omega):
        # sinh, cosh and e^{omega} overflow past |omega| ~ 710; at -1000,
        # 1 + 2 eps sinh omega is -inf, so the log argument is negative.
        rep = nl.robustness_constants(1.0, omega, 0.0, 0.1)
        assert not (rep.admissible or rep.flags["m1_positive"]
                    or rep.flags["log_argument_positive"])
        assert math.isnan(rep.omega_tilde) and math.isnan(rep.m_hat)
        assert math.isnan(rep.rho)   # inf / -inf

    @pytest.mark.parametrize("omega", [355.0, 356.0, 400.0, 709.0, 711.0, 1000.0])
    def test_large_omega_matches_oracle(self, omega):
        # Past omega ~ 355, sinh^2 omega overflows; the exact constants are
        # finite: omega_tilde -> -ln eps, beta_tilde -> omega.
        rep = nl.robustness_constants(1.0, omega, 0.0, 0.1)
        ref = oracle_constants(1.0, omega, 0.0, 0.1)
        for key in ("omega_tilde", "beta_tilde", "rho", "m1", "m2", "m_hat"):
            assert getattr(rep, key) == pytest.approx(float(ref[key]), rel=1e-13), key
        assert rep.admissible and math.isfinite(rep.positive_exponent)
        assert rep.omega_tilde == pytest.approx(-math.log(0.1), rel=1e-13)

    def test_infinite_omega_is_inadmissible(self):
        rep = nl.robustness_constants(1.0, math.inf, 0.0, 0.1)
        assert not rep.admissible and math.isnan(rep.omega_tilde)

    def test_negative_log_argument_clears_its_flag(self):
        # 1 + 2 eps sinh(-5) < 0: the radical is positive but cosh w - r is not.
        rep = nl.robustness_constants(1.0, -5.0, 0.0, 0.1)
        assert rep.flags["radical_nonnegative"]
        assert not rep.flags["log_argument_positive"]
        assert math.isnan(rep.omega_tilde)

    def test_report_serialization(self):
        rep = nl.robustness_constants(1.0, 1.0, 0.2, 0.1)
        d = rep.to_dict()
        assert d["inputs"]["omega"] == 1.0
        assert isinstance(d["flags"], dict)


class TestPerturbationDistance:
    def test_closed_form_oracle(self):
        # max over [0,1] of e^{-x} - e^{-1.1 x} sits at x* = 10 ln 1.1
        # with value 0.1 * 1.1^{-11}.
        p = constant_scalar(-1.0)
        q = constant_scalar(-1.1)
        got = nl.perturbation_distance(p, q, 0.0, GridSpec(-2.0, 2.0, 0.5))
        assert got == pytest.approx(0.1 * 1.1 ** -11, rel=1e-9)

    def test_weighting_by_upsilon(self):
        p = constant_scalar(-1.0)
        q = constant_scalar(-1.1)
        flat = nl.perturbation_distance(p, q, 0.0, GridSpec(-2.0, 2.0, 0.5))
        weighted = nl.perturbation_distance(p, q, 0.5,
                                            GridSpec(-2.0, 2.0, 0.5))
        # e^{0.5 |s|} amplifies the far ends of the window.
        assert weighted > flat

    def test_growth_constant(self):
        p = constant_scalar(-1.0)
        # sup over the band of e^{-(t-s)} is 1 (at t = s).
        assert nl.growth_constant(p, 0.0, GridSpec(-2.0, 2.0, 0.5)) \
            == pytest.approx(1.0, rel=1e-10)


class TestPipeline:
    def test_transports_constant_decay(self):
        p = constant_scalar(-1.0)
        q = constant_scalar(-1.01)
        grid = GridSpec(-3.0, 3.0, 0.5)
        cert = decay_cert(1.0)
        res = nl.robust_nedii_pipeline(p, cert, q, 0.0, 0.1, grid)
        assert res.applicable
        assert res.dual_violation <= 1e-9
        assert res.primal_violation <= 1e-9
        assert res.primal_cert_of_q.kind == "II"
        assert res.dual_cert_of_q.kind == "I"
        assert res.primal_cert_of_q.stable.rate == pytest.approx(
            nl.robustness_constants(1.0, 1.0, 0.0, 0.1).positive_exponent)

    def test_explicit_projection_is_transposed_for_the_dual(self):
        # S(t, s) = Q diag(e^{-(t-s)}, e^{t-s}) Q^{-1} with the non-normal
        # unstable projection Q diag(0, 1) Q^{-1}.  The dual certificate
        # needs the transposed family; with the primal one the dual check
        # reports a violation that is not there.
        q = np.array([[1.0, 2.0], [0.0, 1.0]])
        q_inv = np.linalg.inv(q)

        def matrix(t, s):
            return q @ np.diag([math.exp(-(t - s)), math.exp(t - s)]) @ q_inv
        p = nl.MatrixClosedFormProcess(matrix, 2)
        pair = nl.ExponentPair(1.0, 0.0)
        cert = nl.DichotomyCertificate(
            "II", nl.FULL_LINE, 10.0, pair, unstable=pair, projection="explicit",
            projection_family=nl.ProjectionFamily.constant(q @ np.diag([0.0, 1.0]) @ q_inv))
        grid = GridSpec(-4.0, 4.0, 0.5)
        res = nl.robust_nedii_pipeline(p, cert, p, 0.0, 0.1, grid)
        assert res.applicable
        assert res.primal_violation <= 0.0
        assert res.dual_violation == pytest.approx(res.primal_violation, rel=1e-12)
        expected = nl.dual_certificate(res.primal_cert_of_q)
        assert nl.check_certificate(nl.dual_process(p), expected, grid) \
            == res.dual_violation

    def test_one_part_explicit_certificate_is_refused(self):
        # An explicit certificate with no unstable pair bounds the stable part
        # alone, so nothing about the unstable part can be transported.
        p = nl.MatrixClosedFormProcess(
            lambda t, s: np.diag([math.exp(-(t - s)), math.exp(t - s)]), 2)
        cert = nl.DichotomyCertificate(
            "II", nl.FULL_LINE, 1.0, nl.ExponentPair(1.0, 0.0), projection="explicit",
            projection_family=nl.ProjectionFamily.constant(np.diag([0.0, 1.0])))
        with pytest.raises(nl.InapplicableError, match="every part"):
            nl.robust_nedii_pipeline(p, cert, p, 0.0, 0.1, GridSpec(-2.0, 2.0, 0.5))

    def test_distance_gate(self):
        p = constant_scalar(-1.0)
        q = constant_scalar(-2.0)  # far beyond eps
        res = nl.robust_nedii_pipeline(p, decay_cert(1.0), q, 0.0, 0.1,
                                       GridSpec(-3.0, 3.0, 0.5))
        assert not res.applicable
        assert "distance" in res.reason

    def test_requires_kind_ii(self):
        p = constant_scalar(-1.0)
        with pytest.raises(nl.InapplicableError):
            nl.robust_nedii_pipeline(p, decay_cert(1.0, kind="I"), p, 0.0,
                                     0.1, GridSpec(-1.0, 1.0, 0.5))

    def test_upsilon_below_omega_required(self):
        p = constant_scalar(-1.0)
        with pytest.raises(nl.InapplicableError):
            nl.robust_nedii_pipeline(p, decay_cert(1.0), p, 1.5, 0.1,
                                     GridSpec(-1.0, 1.0, 0.5))


# BAND SUPS ALONG ANCHOR PATHS =========================================================

def _per_point_band_sup(value_fn, grid):
    """Reference band sup: the library's coarse scan at step 0.01 and
    golden-section refinements, with value_fn(t, s) evaluated afresh at
    every point."""
    golden = nl.robustness._golden_section_max
    band_step = 0.01
    s_vals = np.arange(grid.start, grid.stop + band_step / 2, max(band_step, grid.step))
    d_vals = np.arange(0.0, 1.0 + band_step / 2, band_step)
    best, bs, bd = -math.inf, grid.start, 0.0
    for s in s_vals:
        for d in d_vals:
            if grid.stop >= s + d:
                v = value_fn(s + d, s)
                if v > best:
                    best, bs, bd = v, float(s), float(d)
    d_lo, d_hi = max(0.0, bd - band_step), min(1.0, bd + band_step)
    if d_hi > d_lo:
        d_ref, v = golden(lambda d: value_fn(bs + d, bs), d_lo, d_hi)
        if v > best:
            best, bd = v, d_ref
    s_lo2, s_hi2 = max(grid.start, bs - band_step), min(grid.stop - bd, bs + band_step)
    if s_hi2 > s_lo2:
        best = max(best, golden(lambda s: value_fn(s + bd, s), s_lo2, s_hi2)[1])
    return best


def _reference_distance(p, q, upsilon, grid):
    return _per_point_band_sup(
        lambda t, s: math.exp(upsilon * abs(s)) * nl.spectral_norm(p.matrix(t, s) - q.matrix(t, s)),
        grid)


def _reference_growth(p, upsilon, grid):
    return _per_point_band_sup(
        lambda t, s: math.exp(-upsilon * abs(t)) * nl.spectral_norm(p.matrix(t, s)),
        grid)


def _integrated(shift, scale=1.0):
    """x' = Q diag(scale * a_i(t) + shift) Q^-1 x with oscillating stable rates."""
    q = np.array([[1.0, 0.4], [0.3, 1.2]])
    q_inv = np.linalg.inv(q)
    return nl.IntegratedLinearProcess(
        lambda t: q @ np.diag([scale * (-1.0 + 0.2 * math.sin(t)) + shift,
                               scale * (-1.5 + 0.1 * math.cos(t)) + shift]) @ q_inv,
        2, invertible=True)


def _closed_form_pair(rate):
    q = np.array([[1.0, 2.0], [0.0, 1.0]])
    q_inv = np.linalg.inv(q)
    return nl.MatrixClosedFormProcess(
        lambda t, s: q @ np.diag([math.exp(-(t - s)), math.exp(rate * (t - s))]) @ q_inv, 2)


class TestBandPaths:
    @pytest.mark.parametrize("dual", [False, True])
    def test_integrated_pair_matches_per_point(self, dual):
        # The primal distance peaks inside the band (near t - s = 0.8), so
        # the scan and the offset refinement read dense output there.
        p, q = _integrated(0.0), _integrated(0.0, scale=1.5)
        if dual:
            p, q = nl.dual_process(p), nl.dual_process(q)
        grid = GridSpec(-1.0, 1.0, 0.5)
        got = nl.perturbation_distance(p, q, 0.3, grid)
        assert abs(got - _reference_distance(p, q, 0.3, grid)) < 1e-10
        got = nl.growth_constant(q, 0.3, grid)
        assert abs(got - _reference_growth(q, 0.3, grid)) < 1e-10

    @pytest.mark.parametrize("pair", ["scalar", "scalar-dual", "closed-form"])
    def test_closed_forms_are_bit_identical(self, pair):
        if pair == "closed-form":
            p, q = _closed_form_pair(0.5), _closed_form_pair(0.45)
        else:
            p, q = constant_scalar(-1.0), constant_scalar(-1.1)
            if pair == "scalar-dual":
                p, q = nl.dual_process(p), nl.dual_process(q)
        grid = GridSpec(-2.0, 2.0, 0.5)
        for upsilon in (0.0, 0.4):
            assert nl.perturbation_distance(p, q, upsilon, grid) \
                == _reference_distance(p, q, upsilon, grid)
            assert nl.growth_constant(q, upsilon, grid) == _reference_growth(q, upsilon, grid)

    def test_pipeline_solves_each_anchor_once(self, ode_solves):
        res = nl.robust_nedii_pipeline(_integrated(0.0), decay_cert(1.0, m=3.0),
                                       _integrated(-0.02), 0.0, 0.3,
                                       GridSpec(0.0, 0.5, 0.5))
        assert res.applicable
        assert res.primal_violation <= 0.0 and res.dual_violation <= 0.0
        # One path per scanned anchor and process, plus the chained checks;
        # a fresh solve per band point made 281.
        assert ode_solves() <= 12

    @pytest.mark.parametrize("backend", ["scalar", "closed-form", "integrated"])
    def test_escape_mid_band_raises_as_per_point(self, backend):
        # The anchor s = 0 escapes mid-band: q passes the guard between
        # t = 0.69 and 0.70, p between 0.71 and 0.72.  A per-point scan reads
        # p then q at each t, so the distance raises from q at t = 0.7.
        def make(rate):
            if backend == "scalar":
                return nl.ScalarExponentProcess(lambda t, s: rate * (t - s))
            if backend == "closed-form":
                return nl.MatrixClosedFormProcess(
                    lambda t, s: np.diag([math.exp(rate * (t - s)), math.exp(s - t)]), 2)
            return nl.IntegratedLinearProcess(lambda t: np.diag([rate, -1.0]), 2)
        p, q = make(480.0), make(500.0)
        grid = GridSpec(0.0, 1.0, 0.5)
        cases = [(lambda: nl.growth_constant(p, 0.0, grid),
                  lambda: _reference_growth(p, 0.0, grid)),
                 (lambda: nl.perturbation_distance(p, q, 0.0, grid),
                  lambda: _reference_distance(p, q, 0.0, grid))]
        for run, reference in cases:
            with pytest.raises(nl.FiniteEscapeError) as got:
                run()
            with pytest.raises(nl.FiniteEscapeError) as want:
                reference()
            assert (got.value.t, got.value.s) == (want.value.t, want.value.s)
        assert got.value.t == pytest.approx(0.7) and got.value.s == 0.0

    def test_escape_inside_the_scanned_band_raises(self):
        # ||S(tau, s)|| = e^{500 (tau - s)} passes the guard near tau - s = 0.69.
        p = nl.IntegratedLinearProcess(lambda t: np.diag([500.0, -1.0]), 2)
        q = nl.IntegratedLinearProcess(lambda t: np.diag([499.0, -1.0]), 2)
        long_grid = GridSpec(0.0, 1.0, 0.5)   # the scan reaches t - s = 1
        with pytest.raises(nl.FiniteEscapeError):
            _reference_growth(p, 0.0, long_grid)
        with pytest.raises(nl.FiniteEscapeError):
            nl.growth_constant(p, 0.0, long_grid)
        with pytest.raises(nl.FiniteEscapeError):
            nl.perturbation_distance(p, q, 0.0, long_grid)
        # Paths cover the whole band, but an escape past every visited
        # point raises nothing, as with per-point solves: here the scan
        # stops at t - s = 0.5 and the offset refinement one step past it.
        short_grid = GridSpec(0.0, 0.5, 0.5)
        assert nl.growth_constant(p, 0.0, short_grid) == pytest.approx(
            math.exp(500.0 * 0.51), rel=1e-6)
