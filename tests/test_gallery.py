import json
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

import nedlab as nl
from nedlab import GridSpec


def _plus_grid(horizon=40.0, step=0.25):
    return GridSpec(0.0, horizon, step)


class TestRegistry:
    def test_names(self):
        names = set(nl.entry_names())
        assert {"barreira", "sign-switch", "smooth-limits",
                "factorial-steps", "piecewise-barreira"} <= names

    def test_unknown_entry(self):
        with pytest.raises(ValueError):
            nl.make_entry("lorenz")

    def test_claims_json_serializable(self):
        for name in nl.entry_names():
            payload = nl.make_entry(name).claims_json()
            text = json.dumps(payload)
            assert "holds" in text


class TestBarreira:
    def test_propagator_closed_form(self, barreira):
        # E(pi, 0) = -b pi + a pi cos(pi) = -3 pi for a=1, b=2.
        got = barreira.process.propagate(math.pi, 0.0, 1.0)[0]
        assert got == pytest.approx(math.exp(-3 * math.pi), rel=1e-14)

    def test_high_precision_exponent(self, barreira):
        mp.mp.dps = 50
        a, b = mp.mpf(1), mp.mpf(2)
        t, s = mp.mpf("2.3"), mp.mpf("0.7")
        e = (-b * (t - s) + a * t * mp.cos(t) - a * s * mp.cos(s)
             - a * mp.sin(t) + a * mp.sin(s))
        got = barreira.process.propagate(2.3, 0.7, 1.0)[0]
        assert got == pytest.approx(float(mp.e ** e), rel=1e-12)

    def test_cocycle_property(self, barreira):
        p = barreira.process
        assert p.propagate(5.0, 1.0, 1.0)[0] == pytest.approx(
            p.propagate(5.0, 3.0, p.propagate(3.0, 1.0, 1.0))[0], rel=1e-12)

    def test_antiderivative_matches_the_two_argument_exponent(self):
        # The exponent the entry read before it had an antiderivative; the
        # difference F(t) - F(s) only regroups the same terms.
        def exponent(t, s, a, b):
            return (-b * (t - s) + a * t * np.cos(t) - a * s * np.cos(s)
                    - a * np.sin(t) + a * np.sin(s))
        for a, b in ((1.0, 2.0), (0.7, 1.9), (1.4, 1.6)):
            process = nl.make_entry("barreira", a=a, b=b).process
            for grid in (GridSpec(-20.0, 20.0, 0.25), GridSpec(-40.0, 40.0, 0.25)):
                t, s, v = nl.sample_norm_grid(process, None, grid).samples.T
                assert np.max(np.abs(v - exponent(t, s, a, b))) <= 1e-13

    def test_claim_inventory(self, barreira):
        kinds = {(c.certificate.kind, c.certificate.domain.kind,
                  c.certificate.stable.rate) for c in barreira.claims}
        assert ("II", "plus", 3.0) in kinds
        assert ("I", "minus", 3.0) in kinds
        assert ("I", "plus", 1.0) in kinds   # b > a weaker pair
        assert ("II", "minus", 1.0) in kinds

    def test_positive_claims_validate(self, barreira):
        for claim in barreira.claims:
            assert claim.holds
            cert = claim.certificate
            dom = cert.domain
            grid = (GridSpec(0.0, 40.0, 0.25) if dom.kind == "plus"
                    else GridSpec(-40.0, 0.0, 0.25) if dom.kind == "minus"
                    else GridSpec(-40.0, 40.0, 0.5))
            assert nl.check_certificate(barreira.process, cert, grid) <= 1e-9

    def test_weak_claims_need_b_greater_a(self):
        entry = nl.make_entry("barreira", a=2.0, b=1.0)
        assert all(c.certificate.domain.is_half_line for c in entry.claims)
        with pytest.raises(ValueError):
            nl.make_entry("barreira", a=-1.0, b=2.0)


class TestSignSwitch:
    def test_exponent(self, sign_switch):
        p = sign_switch.process
        assert p.propagate(3.0, -2.0, 1.0)[0] == pytest.approx(math.exp(1.0))

    def test_nedii_holds_both_projections(self, sign_switch):
        grid = GridSpec(-30.0, 30.0, 0.5)
        held = [c for c in sign_switch.claims if c.holds]
        assert len(held) == 2
        projections = {c.certificate.projection for c in held}
        assert projections == {"zero", "identity"}
        for claim in held:
            assert nl.check_certificate(sign_switch.process,
                                        claim.certificate, grid) <= 1e-9

    def test_nedi_claim_is_negative(self, sign_switch):
        neg = [c for c in sign_switch.claims if not c.holds]
        assert len(neg) == 1 and neg[0].certificate.kind == "I"

    def test_nedi_rejection_grows(self, sign_switch):
        ev = nl.nedi_rejection_evidence(
            sign_switch.process, [(-10.0, 10.0), (-20.0, 20.0)],
            box=((0.05, 4.0), (0.05, 4.0)), resolution=0.1, step=0.5)
        assert ev.rejected()


class TestSmoothLimits:
    def test_constant_against_closed_form(self):
        # K = sup over t >= s of int (1 - |tanh r|) dr - eps (t - s); the
        # optimum is the symmetric interval [-R, R] with tanh R = 1 - eps,
        # giving K = 2 (R - ln cosh R) - 2 eps R.
        entry = nl.make_entry("smooth-limits", transition_scale=1.0)
        mp.mp.dps = 30
        eps = mp.mpf("0.1")
        big_r = mp.atanh(1 - eps)
        k_exact = 2 * (big_r - mp.log(mp.cosh(big_r))) - 2 * eps * big_r
        k_module = math.log(entry.claims[0].certificate.m)
        assert k_module <= float(k_exact) + 1e-12  # grid max cannot exceed
        assert k_module == pytest.approx(float(k_exact), abs=1e-3)

    def test_claims_validate(self):
        entry = nl.make_entry("smooth-limits", transition_scale=1.0)
        grid = GridSpec(-20.0, 20.0, 0.5)
        for claim in entry.claims:
            if claim.holds:
                assert nl.check_certificate(entry.process,
                                            claim.certificate, grid) <= 1e-9

    def test_sharpens_with_scale(self):
        # Faster transitions approximate the sign-switch limit: K shrinks.
        wide = nl.make_entry("smooth-limits", transition_scale=1.0)
        narrow = nl.make_entry("smooth-limits", transition_scale=0.25)
        assert narrow.claims[0].certificate.m < wide.claims[0].certificate.m


class TestFactorialSteps:
    def test_block_values(self, factorial_steps):
        p = factorial_steps.process
        # g = 0 on (0, 1], 1 on even blocks (n!, (n+1)!], -n on odd.
        assert p.log_propagator(1.0, 0.0) == pytest.approx(0.0)
        # over (2, 6] the coefficient is 1 (n = 2 even block)
        assert p.log_propagator(6.0, 2.0) == pytest.approx(4.0)
        # over (6, 24] the coefficient is -3 (n = 3 odd block)
        assert p.log_propagator(24.0, 6.0) == pytest.approx(-54.0)

    def test_nedii_holds(self, factorial_steps):
        claim = [c for c in factorial_steps.claims if c.holds][0]
        cert = claim.certificate
        assert cert.kind == "II" and cert.m == 1.0
        grid = GridSpec(0.0, 120.0, 0.5)
        assert nl.check_certificate(factorial_steps.process, cert,
                                    grid) <= 1e-9

    def test_nedi_rejection(self, factorial_steps):
        ev = nl.nedi_rejection_evidence(
            factorial_steps.process, [(0.0, 24.0), (0.0, 120.0)],
            projection_kinds=("zero",),
            box=((0.05, 4.0), (0.05, 4.0)), resolution=0.1, step=0.5)
        assert ev.rejected()


class TestClosedForms:
    @pytest.mark.parametrize("name", ["barreira", "sign-switch", "factorial-steps",
                                      "piecewise-barreira"])
    def test_entry_is_its_coefficient_and_antiderivative(self, name):
        process = nl.make_entry(name).process
        assert isinstance(process, nl.ScalarCoefficientProcess)
        assert process.exponent == process._exponent
        lo = 0.0 if process.domain.kind == "plus" else -6.0
        for t in np.linspace(lo, 7.0, 11).tolist():
            got = process.antiderivative(t)
            assert type(got) is float
            if t != 0.0:   # f jumps at 0 for sign-switch and piecewise-barreira
                want = quad(process.coefficient, 0.0, t, points=[1.0, 2.0, 6.0],
                            epsabs=1e-12, epsrel=1e-12, limit=200)[0]
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_smooth_limits_keeps_quadrature(self):
        process = nl.make_entry("smooth-limits").process
        assert process.antiderivative is None


class TestPiecewiseBarreira:
    def test_exponent_formulas(self):
        a, b, c, d = 1.5, 3.0, 0.2, 0.45
        entry = nl.make_entry("piecewise-barreira", a=a, b=b, c=c, d=d)
        delta = max(2 * a, 2 * c)
        alpha2 = min(b + a, d - c)
        alpha1 = min(b - a, d + c)
        rates = {(cl.certificate.kind, cl.certificate.stable.rate,
                  cl.certificate.stable.growth) for cl in entry.claims}
        assert ("II", alpha2, delta) in rates
        assert ("I", alpha1, delta) in rates

    def test_claims_validate(self):
        entry = nl.make_entry("piecewise-barreira")
        grid = GridSpec(-30.0, 30.0, 0.5)
        for claim in entry.claims:
            assert nl.check_certificate(entry.process, claim.certificate,
                                        grid) <= 1e-9

    def test_parameter_guards(self):
        with pytest.raises(ValueError):
            nl.make_entry("piecewise-barreira", a=3.0, b=1.0, c=0.2, d=0.45)
        with pytest.raises(ValueError):
            nl.make_entry("piecewise-barreira", a=1.5, b=3.0, c=0.5, d=0.4)

    def test_canonical_escape_is_an_infinite_constant(self):
        # e^{-(t-s)} fits (alpha 1, delta 0) with ln M = 0, except at the one
        # canonical pair (40, -40), where the exponent passes the guard.
        def exponent(t, s):
            t, s = np.asarray(t, dtype=float), np.asarray(s, dtype=float)
            return np.where((t == 40.0) & (s == -40.0), 1e3, -(t - s))
        process = nl.ScalarExponentProcess(exponent)
        logmax = nl.gallery._canonical_logmax
        assert logmax(process, nl.FULL_LINE, (1.0, 0.0, "II"), (1.0, 0.0, "I")) \
            == [math.inf, math.inf]
        plain = nl.ScalarExponentProcess(lambda t, s: -(np.asarray(t) - np.asarray(s)))
        assert logmax(plain, nl.FULL_LINE, (1.0, 0.0, "II")) == [0.0]
