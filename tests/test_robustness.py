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

    def test_refinement_residual(self):
        p = constant_scalar(-1.0)
        q = constant_scalar(-1.1)
        val, residual = nl.perturbation_distance(
            p, q, 0.0, GridSpec(-2.0, 2.0, 0.5), band_step=0.05,
            with_residual=True)
        assert residual >= 0.0
        assert val == pytest.approx(0.1 * 1.1 ** -11, rel=1e-9)

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
