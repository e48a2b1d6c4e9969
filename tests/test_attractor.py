import concurrent.futures
import dataclasses
import gc
import importlib.util
import math
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad, solve_ivp

import nedlab as nl
from nedlab import GridSpec, InapplicableError, WeightedFunction
from nedlab.attractor import _agree, _integrate_ensemble, _single_linkage
from nedlab.gallery import make_barreira

from conftest import constant_scalar, decay_cert


def _ball_cloud(rng, n_points, dim, radius=1.0):
    pts = rng.normal(size=(n_points, dim))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return radius * pts * rng.uniform(0.0, 1.0, size=(n_points, 1))


class TestWeightedNorm:
    def test_closed_forms(self):
        grid = GridSpec(-10.0, 10.0, 0.25)
        b0 = WeightedFunction(lambda t: math.exp(-abs(t)), eta=0.0,
                              domain=nl.FULL_LINE)
        assert nl.weighted_norm(b0, grid) == pytest.approx(1.0)
        b1 = WeightedFunction(lambda t: math.exp(-abs(t)), eta=-1.0,
                              domain=nl.FULL_LINE)
        # e^{|t|} e^{-|t|} = 1 everywhere.
        assert nl.weighted_norm(b1, grid) == pytest.approx(1.0)

    def test_domain_respected(self):
        b = WeightedFunction(lambda t: 1.0, eta=0.0,
                             domain=nl.HALF_LINE_MINUS)
        with pytest.raises(ValueError):
            nl.weighted_norm(b, GridSpec(1.0, 2.0, 0.5))


def _propagate_bound(witness, b, t, s, x0_norm_sq):
    """The comparison bound read through ``propagate`` at every node."""
    def integrand(tau):
        return float(witness.propagate(t, tau, np.array([1.0]))[0]) * float(b(tau))
    forced = 0.0 if t == s else quad(integrand, s, t, epsabs=1e-12,
                                     epsrel=1e-10, limit=400)[0]
    return float(witness.propagate(t, s, np.array([1.0]))[0]) * x0_norm_sq + forced


class TestComparisonBound:
    B = WeightedFunction(lambda r: 1.0 + 0.5 * math.sin(r), eta=0.0,
                         domain=nl.FULL_LINE)
    PAIRS = [(0.0, 0.0), (0.7, 0.0), (3.0, -1.5), (10.0, 2.0), (-0.5, -4.0)]

    def test_closed_form(self, constant_process):
        b = WeightedFunction(lambda t: 1.0, eta=0.0, domain=nl.FULL_LINE)
        got = nl.comparison_bound(constant_process, b, 3.0, 0.0, 4.0)
        # e^{-3} * 4 + int_0^3 e^{-(3-r)} dr = 1 + 3 e^{-3}
        assert got == pytest.approx(1.0 + 3 * math.exp(-3.0), rel=1e-10)

    def test_orientation(self, constant_process):
        b = WeightedFunction(lambda t: 1.0, eta=0.0, domain=nl.FULL_LINE)
        with pytest.raises(ValueError):
            nl.comparison_bound(constant_process, b, 0.0, 1.0, 1.0)

    def test_dominates_dissipative_trajectories(self):
        # f(t, x) = (a/2) x - x^3 + c(t) with a = -2, c = 0.5 e^{-|t|}:
        # 2 <f, x> = a x^2 - 2 x^4 + 2 c x <= (a + 1) x^2 + c^2.
        c = lambda t: 0.5 * math.exp(-abs(t))
        field = lambda t, x: -x - x ** 3 + c(t)
        spec = nl.DissipativitySpec(field=lambda t, x: np.atleast_1d(field(t, x[0])),
                                    a=lambda t: -1.0,
                                    b=lambda t: c(t) ** 2, dimension=1)
        worst, ok = spec.certify((-5.0, 5.0), 3.0, n_samples=500)
        assert ok, worst
        witness = constant_scalar(-1.0)
        bw = WeightedFunction(lambda t: c(t) ** 2, eta=0.0,
                              domain=nl.FULL_LINE)
        for x0 in (-2.0, 0.5, 3.0):
            times = np.linspace(0.5, 5.0, 10)
            sol = solve_ivp(lambda t, x: [field(t, x[0])], (0.0, 5.0), [x0],
                            rtol=1e-10, atol=1e-12, t_eval=times)
            for t, x in zip(times, sol.y[0]):
                bound = nl.comparison_bound(witness, bw, float(t), 0.0,
                                            x0 * x0)
                assert x * x <= bound + 1e-8

    @pytest.mark.parametrize("make", [
        lambda: nl.ScalarCoefficientProcess(
            lambda r: -1.0 + 0.5 * math.cos(r),
            antiderivative=lambda r: -r + 0.5 * math.sin(r)),
        lambda: nl.ScalarCoefficientProcess(lambda r: -1.0 + 0.5 * math.cos(r)),
        lambda: make_barreira(0.5, 1.0).process,
    ], ids=["antiderivative", "quadrature", "closed-form"])
    def test_matches_the_propagate_reading_bitwise(self, make):
        witness = make()
        for t, s in self.PAIRS:
            for x0_sq in (0.0, 2.25):
                got = nl.comparison_bound(witness, self.B, t, s, x0_sq)
                assert got == _propagate_bound(witness, self.B, t, s, x0_sq), (t, s)

    def test_escape_inside_the_window_raises(self):
        # E(1, 0) is about 0, but E(1, 0.5) = 400 lies above the guard.
        dip = lambda r: -400.0 * math.exp(-((r - 0.5) / 0.1) ** 2)
        witness = nl.ScalarExponentProcess(lambda t, s: dip(t) - dip(s))
        assert witness._guarded_exponent(1.0, 0.0) < 1e-6
        with pytest.raises(nl.FiniteEscapeError):
            nl.comparison_bound(witness, self.B, 1.0, 0.0, 1.0)

    def test_pair_outside_the_domain_raises(self):
        witness = nl.ScalarCoefficientProcess(lambda r: -1.0, domain=nl.HALF_LINE_PLUS,
                                              antiderivative=lambda r: -r)
        with pytest.raises(nl.DomainError):
            nl.comparison_bound(witness, self.B, 1.0, -1.0, 1.0)

    def test_matrix_witness_is_refused(self):
        witness = nl.MatrixClosedFormProcess(
            lambda t, s: np.array([[math.exp(-(t - s))]]), dimension=1)
        with pytest.raises(TypeError, match="ScalarExponentProcess"):
            nl.comparison_bound(witness, self.B, 1.0, 0.0, 1.0)


def _per_sample_certify(spec, t_range, x_radius, n_samples, seed):
    """Draws the arrays as ``certify`` does and checks one sample at a time."""
    rng = np.random.default_rng(seed)
    times = rng.uniform(*t_range, size=n_samples)
    directions = rng.normal(size=(n_samples, spec.dimension))
    radii = rng.uniform(0.0, x_radius, size=n_samples)
    worst = -math.inf
    for t, u, r in zip(times.tolist(), directions, radii):
        x = u * (r / max(np.linalg.norm(u), 1e-300))
        lhs = 2.0 * float(np.dot(spec.field(t, x), x))
        worst = max(worst, lhs - (spec.a(t) * float(np.dot(x, x)) + float(spec.b(t))))
    return worst


class TestDissipativityCertify:
    @pytest.mark.parametrize("dimension", [1, 3])
    def test_matches_a_per_sample_loop(self, dimension):
        spec = nl.DissipativitySpec(
            field=lambda t, x: -(1.0 + 0.5 * math.sin(t)) * x - x ** 3 + math.cos(t),
            a=lambda t: -(1.0 + math.sin(t)), b=lambda t: 1.0 + 0.1 * t * t,
            dimension=dimension)
        for seed, n_samples in ((0, 400), (5, 2500)):   # one block, then three
            worst, ok = spec.certify((-3.0, 2.0), 2.5, n_samples=n_samples, seed=seed)
            want = _per_sample_certify(spec, (-3.0, 2.0), 2.5, n_samples, seed)
            # Row norms and dot products sum in another order than the
            # per-sample ones, so beyond dimension 1 they agree to rounding.
            if dimension == 1:
                assert worst == want
            assert worst == pytest.approx(want, rel=1e-14, abs=1e-14)
            assert ok == (want <= 0.0)

    @pytest.mark.parametrize("n_samples", [1, 1023, 1024, 1025, 5000])
    @pytest.mark.parametrize("dimension", [1, 3])
    def test_blocks_change_no_bit(self, n_samples, dimension):
        # certify calls the field in blocks of 1024 samples, which bound the
        # memory its per-sample outputs hold; one pass gives the same bits.
        spec = nl.DissipativitySpec(
            field=lambda t, x: -(1.0 + 0.5 * math.sin(t)) * x - x ** 3 + math.cos(t),
            a=lambda t: -(1.0 + math.sin(t)), b=lambda t: 1.0 + 0.1 * t * t,
            dimension=dimension)
        rng = np.random.default_rng(3)
        times = rng.uniform(-3.0, 2.0, size=n_samples).tolist()
        xs = rng.normal(size=(n_samples, dimension))
        radii = rng.uniform(0.0, 2.5, size=n_samples)
        xs *= (radii / np.maximum(np.linalg.norm(xs, axis=1), 1e-300))[:, None]
        fx = np.asarray([spec.field(t, x) for t, x in zip(times, xs)],
                        dtype=float).reshape(xs.shape)
        a = np.array([spec.a(t) for t in times])
        b = np.array([spec.b(t) for t in times])
        want = float(np.max(2.0 * np.einsum("ij,ij->i", fx, xs)
                            - (a * np.einsum("ij,ij->i", xs, xs) + b)))
        assert spec.certify((-3.0, 2.0), 2.5, n_samples=n_samples, seed=3) == (want, want <= 0.0)

    def test_nan_sample_fails(self):
        spec = nl.DissipativitySpec(
            field=lambda t, x: np.full_like(x, math.nan) if t > 0 else -x,
            a=lambda t: -1.0, b=lambda t: 1.0, dimension=1)
        worst, ok = spec.certify((-1.0, 1.0), 1.0, n_samples=200)
        assert math.isnan(worst)
        assert ok is False

    def test_needs_a_sample(self):
        spec = nl.DissipativitySpec(field=lambda t, x: -x, a=lambda t: -1.0,
                                    b=lambda t: 0.0, dimension=1)
        with pytest.raises(ValueError):
            spec.certify((-1.0, 1.0), 1.0, n_samples=0)


class TestRadii:
    def test_pullback_radius_formula(self):
        cert = nl.DichotomyCertificate("II", nl.FULL_LINE, 2.0,
                                       nl.ExponentPair(3.0, 0.5),
                                       projection="zero")
        lam, bnorm, t = 1.0, 4.0, -2.0
        expect = math.sqrt((2.0 / (3.0 - 0.5)) * 4.0
                           * math.exp((1.0 + 1.0) * 0.5 * 2.0))
        assert nl.make_pullback_envelope(cert, lam, bnorm)(t) == pytest.approx(expect)

    def test_pullback_guard(self):
        cert = nl.DichotomyCertificate("II", nl.FULL_LINE, 1.0,
                                       nl.ExponentPair(1.0, 2.0),
                                       projection="zero")
        with pytest.raises(InapplicableError):
            nl.make_pullback_envelope(cert, 1.0, 1.0)(0.0)

    def test_pullback_envelope_is_the_root_of_the_linear_one(self):
        cert = nl.DichotomyCertificate("II", nl.FULL_LINE, 2.0,
                                       nl.ExponentPair(3.0, 0.5),
                                       projection="zero")
        linear = nl.make_linear_envelope(cert, 1.0, 4.0)
        pullback = nl.make_pullback_envelope(cert, 1.0, 4.0)
        assert pullback.params == linear.params
        assert (pullback.norm, linear.norm) == ("euclidean", "max")
        for t in (-3.0, -0.5, 0.0):
            assert pullback(t) == math.sqrt(linear(t)) == nl.make_pullback_envelope(
                cert, 1.0, 4.0)(t)
        # alpha <= delta * lambda is refused when the envelope is built.
        weak = nl.DichotomyCertificate("II", nl.FULL_LINE, 1.0,
                                       nl.ExponentPair(1.0, 2.0),
                                       projection="zero")
        for make in (nl.make_pullback_envelope, nl.make_linear_envelope):
            with pytest.raises(InapplicableError):
                make(weak, 0.5, 1.0)

    def test_forward_attractor_cases(self):
        cert = decay_cert(1.0, kind="I")
        assert nl.forward_attractor_radius(cert, -2.0, 1.0) == {
            "kind": "point", "radius": 0.0}
        ball = nl.forward_attractor_radius(cert, -1.0, 4.0)
        assert ball["kind"] == "ball"
        assert ball["radius"] == pytest.approx(2.0)
        with pytest.raises(InapplicableError):
            nl.forward_attractor_radius(cert, -0.5, 1.0)

    def test_full_line_radius(self):
        cert = nl.DichotomyCertificate("I", nl.FULL_LINE, 1.0,
                                       nl.ExponentPair(2.0, 1.0),
                                       projection="zero")
        out = nl.forward_attractor_radius(cert, -1.0, 3.0, full_line=True)
        assert out["radius"] == pytest.approx(math.sqrt(3.0))
        tight = nl.DichotomyCertificate("I", nl.FULL_LINE, 1.0,
                                        nl.ExponentPair(1.0, 2.0),
                                        projection="zero")
        with pytest.raises(InapplicableError):
            nl.forward_attractor_radius(tight, -1.0, 1.0, full_line=True)


class TestForwardBound:
    def _quad_bound(self, cert, eta, bnorm, t, s, x0sq):
        """Direct quadrature of the comparison integral the regime
        formulas upper-bound."""
        beta, nu = cert.stable.rate, cert.stable.growth
        m = cert.m
        homogeneous = m * math.exp((nu - beta) * t + beta * s) * x0sq
        integrand = lambda tau: m * math.exp(nu * t - beta * (t - tau)) \
            * bnorm * math.exp(eta * nu * tau)
        val, _ = quad(integrand, s, t, epsabs=1e-12, epsrel=1e-10)
        return homogeneous + val

    @pytest.mark.parametrize("eta", [-1.5, -0.5, 0.5])
    def test_dominates_quadrature_above_threshold(self, eta):
        # The domination property is claimed for eta > -beta/nu only.
        cert = nl.DichotomyCertificate("II", nl.FULL_LINE, 1.5,
                                       nl.ExponentPair(2.0, 1.0),
                                       projection="zero")
        for (t, s) in [(1.0, 0.0), (3.0, 1.0), (2.0, 2.0)]:
            bound = nl.forward_bound(cert, eta, 0.7, t, s, 2.0)
            ref = self._quad_bound(cert, eta, 0.7, t, s, 2.0)
            assert bound >= ref - 1e-9 * max(1.0, abs(ref))

    def test_below_threshold_literal_formula(self):
        # Below the threshold the published three-case statement is
        # reproduced literally (it is not an upper bound of the raw
        # comparison integral when beta != nu; see the decisions log).
        cert = nl.DichotomyCertificate("II", nl.FULL_LINE, 1.5,
                                       nl.ExponentPair(2.0, 1.0),
                                       projection="zero")
        beta, nu, m, eta, bnorm = 2.0, 1.0, 1.5, -4.0, 0.7
        t, s, x0sq = 3.0, 1.0, 2.0
        expect = m * math.exp((nu - beta) * t + beta * s) * x0sq \
            - (m * bnorm / (beta + eta * nu)) * math.exp((nu - beta) * t) \
            * math.exp(nu * (eta + 1.0) * s)
        assert nl.forward_bound(cert, eta, bnorm, t, s, x0sq) \
            == pytest.approx(expect, rel=1e-14)

    def test_threshold_case(self):
        cert = nl.DichotomyCertificate("II", nl.FULL_LINE, 1.0,
                                       nl.ExponentPair(2.0, 1.0),
                                       projection="zero")
        eta = -2.0  # exactly -beta/nu
        bound = nl.forward_bound(cert, eta, 1.0, 2.0, 0.0, 0.0)
        assert bound == pytest.approx(math.exp(-2.0) * 2.0)
        ref = self._quad_bound(cert, eta, 1.0, 2.0, 0.0, 0.0)
        assert bound == pytest.approx(ref, rel=1e-9)

    def test_uniform_shortcut(self):
        cert = decay_cert(2.0, m=3.0)  # nu = 0
        bound = nl.forward_bound(cert, -5.0, 4.0, 3.0, 1.0, 0.0)
        assert bound == pytest.approx((3.0 / 2.0) * 4.0)

    def test_orientation_guard(self):
        cert = decay_cert(1.0)
        with pytest.raises(ValueError):
            nl.forward_bound(cert, -2.0, 1.0, 0.0, 1.0, 1.0)


class TestPullbackSimulation:
    def test_scalar_point_attractor(self):
        spec = nl.DissipativitySpec(field=lambda t, x: -x + 1.0,
                                    a=lambda t: -1.0, b=lambda t: 1.0,
                                    dimension=1)
        cloud = nl.simulate_pullback_omega(spec, 0.0,
                                           np.array([[0.5], [-2.0], [3.0]]))
        assert cloud.converged
        assert cloud.representatives.shape == (1, 1)
        assert abs(cloud.representatives[0, 0] - 1.0) <= 1e-6

    def test_nonautonomous_target(self):
        # x' = -x + cos t has the unique bounded solution
        # (cos t + sin t) / 2; the pullback section at time t is that point.
        spec = nl.DissipativitySpec(
            field=lambda t, x: -x + math.cos(t),
            a=lambda t: -1.0, b=lambda t: 1.0, dimension=1)
        for t in (-1.0, 0.0, 2.0):
            cloud = nl.simulate_pullback_omega(spec, t, np.array([[0.0], [2.0]]))
            expect = 0.5 * (math.cos(t) + math.sin(t))
            assert abs(cloud.representatives[0, 0] - expect) <= 1e-6

    def test_schedule_validation(self):
        spec = nl.DissipativitySpec(field=lambda t, x: -x, a=lambda t: -1.0,
                                    b=lambda t: 0.0, dimension=1)
        with pytest.raises(ValueError):
            nl.simulate_pullback_omega(spec, 0.0, np.array([[1.0]]),
                                       s_schedule=[-1.0, -0.5])

    def test_escape_reported(self):
        spec = nl.DissipativitySpec(field=lambda t, x: x ** 2,
                                    a=lambda t: 1.0, b=lambda t: 0.0,
                                    dimension=1)
        with pytest.raises(nl.TrajectoryEscapeError):
            nl.simulate_pullback_omega(spec, 0.0, np.array([[3.0]]),
                                       s_schedule=[-1.0, -2.0, -4.0])

    def test_far_blow_up_is_an_escape(self):
        # x' = x^2 from 1 blows up one time unit after its start.  From
        # s = -2^18 on, DOP853's step collapses at the rounding floor of t
        # before |x| reaches the escape radius; that is an escape too.
        square = lambda t, x: x ** 2
        for k in (8, 17, 18, 20):
            s = -2.0 ** k
            with pytest.raises(nl.TrajectoryEscapeError):
                _integrate_ensemble(square, s, s + 2.0, [[1.0]])
        spec = nl.DissipativitySpec(field=square, a=lambda t: 1.0, b=lambda t: 0.0,
                                    dimension=1)
        with pytest.raises(nl.TrajectoryEscapeError, match="every pullback depth escaped"):
            nl.simulate_pullback_omega(spec, 0.0, np.array([[1.0]]))
        cloud = nl.simulate_pullback_omega(spec, 0.0, np.array([[1.0]]),
                                           s_schedule=[-0.5, -2.0 ** 18, -2.0 ** 20])
        assert (cloud.depth_used, cloud.poisoned) == (1, 2)
        assert cloud.representatives[0, 0] == pytest.approx(2.0, rel=1e-8)


def _duffing(t, x):
    # Component-indexed on purpose: x is one state (2,) or a batch (2, k).
    return np.array([x[1], -x[0] - 0.5 * x[1] - x[0] ** 3 + math.cos(t)])


class TestBatchedField:
    SEEDS = np.array([[0.0, 0.0], [1.5, -1.0], [-2.0, 0.5], [0.3, 2.0]])

    def _reference(self, x0, t0, t1, t_eval=None):
        sol = solve_ivp(_duffing, (t0, t1), x0, rtol=1e-12, atol=1e-14,
                        t_eval=t_eval)
        return sol.y.T

    def test_pullback_endpoints_match_per_seed_solves(self):
        got = _integrate_ensemble(_duffing, -4.0, 0.0, self.SEEDS)
        want = np.array([self._reference(x0, -4.0, 0.0)[-1]
                         for x0 in self.SEEDS])
        assert np.max(np.abs(got - want)) <= 1e-8

    def test_forward_endpoints_match_per_seed_solves(self):
        spec = nl.DissipativitySpec(field=_duffing, a=lambda t: 0.0,
                                    b=lambda t: 1.0, dimension=2)
        horizons = [0.5, 1.0, 2.0, 4.0]
        cloud = nl.simulate_forward_omega(spec, self.SEEDS, 0.5,
                                          horizon_schedule=horizons,
                                          cluster_eps=1e-12)
        late = [0.5 + h for h in horizons[2:]]
        refs = [self._reference(x0, 0.5, late[-1], t_eval=late)
                for x0 in self.SEEDS]
        want = np.vstack([np.array([r[j] for r in refs])
                          for j in range(len(late))])
        assert np.max(np.abs(cloud.points - want)) <= 1e-8

    @pytest.mark.parametrize("field", [
        lambda t, x: -x * np.sum(x ** 2),   # reduces over the whole batch
        lambda t, x: -x.T,                  # (k, n) instead of (n, k)
    ], ids=["reducing", "transposed"])
    def test_contract_violations_raise(self, field):
        spec = nl.DissipativitySpec(field=field, a=lambda t: 0.0,
                                    b=lambda t: 0.0, dimension=2)
        with pytest.raises(TypeError, match=r"\(n, k\)"):
            nl.simulate_pullback_omega(spec, 0.0, self.SEEDS[:3],
                                       s_schedule=[-1.0, -2.0])


@st.composite
def _tolerance_cases(draw):
    """(got, ref, tol) with infinities, NaNs, signed zeros and entries at,
    just inside and just outside the tolerance."""
    tol = draw(st.sampled_from([0.0, 1e-12, 0.5]) | st.floats(0.0, 1e3))
    special = st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0])
    ref = draw(st.lists(st.floats(-1e3, 1e3) | special, min_size=1, max_size=8))
    got = []
    for r in ref:
        kind = draw(st.sampled_from(["same", "edge", "outside", "inside", "any"]))
        sign = draw(st.sampled_from([1.0, -1.0]))
        if kind == "same":
            got.append(r)
        elif kind == "any":
            got.append(draw(st.floats(allow_nan=True, allow_infinity=True)))
        else:
            edge = r + sign * tol
            got.append(edge if kind == "edge" else
                       float(np.nextafter(edge, sign * (math.inf if kind == "outside" else -math.inf))))
    return np.array(got), np.array(ref), tol


class TestBatchTolerance:
    @settings(max_examples=300, deadline=None)
    @given(_tolerance_cases())
    def test_agrees_with_allclose(self, case):
        got, ref, tol = case
        want = np.allclose(got, ref, rtol=0.0, atol=tol, equal_nan=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _agree(got, ref, tol) is want
            assert _agree(got.reshape(1, -1), ref.reshape(1, -1), tol) is want


class _FieldFailure(Exception):
    pass


def _decay(rate):
    return lambda t, x: -rate * x


class TestCompiledEnsemble:
    SEEDS = np.array([[1.0], [-2.0], [0.5]])

    def test_raising_field_stops_the_run_with_its_own_exception(self):
        calls = [0]
        failure = _FieldFailure("50th call")

        def field(t, x):
            calls[0] += 1
            if calls[0] == 50:
                raise failure
            if calls[0] > 200:
                return x * math.nan   # ends a run that ignored the failure
            return -x
        with pytest.raises(_FieldFailure) as err:
            _integrate_ensemble(field, 0.0, 100.0, self.SEEDS)
        assert err.value is failure
        assert calls[0] == 50   # never called again once it raised
        got = _integrate_ensemble(_decay(1.0), 0.0, 1.0, self.SEEDS)
        assert np.max(np.abs(got - math.exp(-1.0) * self.SEEDS)) <= 1e-10

    def test_nan_field_fails_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match="integration failed"):
                _integrate_ensemble(lambda t, x: x * math.nan, 0.0, 1.0, self.SEEDS)

    def test_stiff_field_is_not_interrupted(self, dirichlet_31):
        # Hairer's stiffness test, which solve_ivp does not have, stops
        # this run about two time units in unless it is switched off.
        lap = dirichlet_31.matrix

        def field(t, u):
            return lap @ u - u ** 3 + math.exp(-abs(t))
        seeds = np.stack([np.ones(31), -np.ones(31)])
        got = _integrate_ensemble(field, -64.0, -60.0, seeds)
        for x0, x in zip(seeds, got):
            ref = solve_ivp(field, (-64.0, -60.0), x0, method="DOP853",
                            rtol=1e-10, atol=1e-12).y[:, -1]
            assert np.max(np.abs(x - ref)) <= 1e-8

    def test_escape_is_the_end_of_the_first_step_past_the_guard(self):
        with pytest.raises(nl.TrajectoryEscapeError, match="at t=0.0$"):
            _integrate_ensemble(_decay(1.0), 0.0, 1.0, np.array([[0.0], [1e8]]))
        with pytest.raises(nl.TrajectoryEscapeError) as err:
            _integrate_ensemble(lambda t, x: x ** 2, 0.0, 2.0, np.array([[1.0]]))
        # x = 1 / (1 - t) reaches 1e8 at t = 1 - 1e-8.
        escape = float(str(err.value).rsplit("=", 1)[1])
        assert 1.0 - 1e-8 <= escape < 1.0

    def test_reentry_raises(self):
        def field(t, x):
            _integrate_ensemble(_decay(1.0), 0.0, 1.0, self.SEEDS)
            return -x
        with pytest.raises(RuntimeError, match="re-entered"):
            _integrate_ensemble(field, 0.0, 1.0, self.SEEDS)
        got = _integrate_ensemble(_decay(2.0), 0.0, 1.0, self.SEEDS)
        assert np.max(np.abs(got - math.exp(-2.0) * self.SEEDS)) <= 1e-10

    def test_linear_solve_inside_a_field_raises(self):
        # The integrated linear processes share the driver, so this call,
        # which used to run through solve_ivp, now re-enters it.
        process = nl.IntegratedLinearProcess(lambda t: np.array([[-1.0]]), 1)

        def field(t, x):
            return process.matrix(t + 1.0, t)[0, 0] * x
        with pytest.raises(RuntimeError, match="re-entered"):
            _integrate_ensemble(field, 0.0, 1.0, self.SEEDS)
        got = _integrate_ensemble(_decay(2.0), 0.0, 1.0, self.SEEDS)
        assert np.max(np.abs(got - math.exp(-2.0) * self.SEEDS)) <= 1e-10
        assert process.matrix(1.0, 0.0)[0, 0] == pytest.approx(math.exp(-1.0), rel=1e-10)

    def test_threads_match_serial_solves(self):
        # Each thread drives its own solver; a field or state shared across
        # threads would mix the runs below.
        jobs = [(lambda t, x, a=1.0 + 0.1 * i: -a * x - x ** 3 + math.cos(3.0 * t),
                 -2.0 - i % 3) for i in range(12)]
        serial = [_integrate_ensemble(f, s, 0.0, self.SEEDS) for f, s in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(lambda job: _integrate_ensemble(
                    job[0], job[1], 0.0, self.SEEDS), jobs, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(serial, threaded):
            assert np.array_equal(a, b)

    def test_fields_are_released(self):
        # The compiled wrapper keeps every callback it is handed; fields
        # must never be handed to it directly.
        for _ in range(5):
            _integrate_ensemble(_decay(1.0), 0.0, 1.0, self.SEEDS)
        gc.collect()
        refs = []
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(2000):
                field = _decay(1.0 + i * 1e-4)
                refs.append(weakref.ref(field))
                _integrate_ensemble(field, 0.0, 0.25, self.SEEDS)
                del field
            gc.collect()
            growth = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert all(ref() is None for ref in refs)
        assert growth < 512 * 1024

    def test_wrong_size_field_result_raises(self):
        # The compiled wrapper takes a derivative of the wrong length
        # without complaint; the field passes the batch check at t0.
        def field(t, x):
            return -x if t == 0.0 else np.zeros(x.size + 1)
        with pytest.raises(ValueError):
            _integrate_ensemble(field, 0.0, 1.0, self.SEEDS)
        got = _integrate_ensemble(_decay(1.0), 0.0, 1.0, self.SEEDS)
        assert np.max(np.abs(got - math.exp(-1.0) * self.SEEDS)) <= 1e-10

    @pytest.mark.parametrize("convert", [
        lambda out: out.tolist(),
        lambda out: out.astype(np.int64),
        lambda out: np.asfortranarray(out),
        lambda out: out[..., ::-1].copy()[..., ::-1],
    ], ids=["list", "int", "fortran", "reversed-view"])
    def test_result_types_give_the_float_bits(self, convert):
        # Integer-valued so that the int conversion keeps every value.
        def field(t, x):
            return np.rint(4.0 * np.cos(t + x))
        seeds = np.array([[0.0, 1.0], [0.5, -1.0], [-2.0, 0.25]])
        want = _integrate_ensemble(field, 0.0, 1.5, seeds)
        got = _integrate_ensemble(lambda t, x: convert(field(t, x)), 0.0, 1.5, seeds)
        assert got.tobytes() == want.tobytes()

    def test_single_coordinate_batch_result_gives_the_float_bits(self):
        def field(t, x):
            return -x - x ** 3 + math.cos(t)   # (1, k)
        want = _integrate_ensemble(field, 0.0, 2.0, self.SEEDS)
        got = _integrate_ensemble(lambda t, x: field(t, x)[0], 0.0, 2.0, self.SEEDS)
        assert got.tobytes() == want.tobytes()

    def test_pullback_counts_are_pinned(self):
        # Solves and (nfev, steps, accepted, rejected) of the driver as
        # recorded before its callbacks became closures: a cheaper
        # evaluation, not fewer of them.
        def g(t):
            return -2.0 - t * math.sin(t)
        cases = [
            (nl.DissipativitySpec(
                field=lambda t, x: g(t) * x - x ** 3 + 0.75 * math.exp(-2.0 * abs(t)),
                a=lambda t: 2.0 * g(t) + 1.0, b=lambda t: 0.0, dimension=1),
             -5.3, [[0.0], [1.0], [-1.0]], 4, [3382, 283, 261, 22]),
            (nl.DissipativitySpec(field=lambda t, x: -x + 1.3 * math.cos(t),
                                  a=lambda t: -1.0, b=lambda t: 1.0, dimension=1),
             0.7, [[0.0], [3.0]], 6, [3518, 294, 272, 22]),
            (nl.CooperativeSpec(a_matrix=np.array([[-2.0, 1.0], [1.0, -2.0]]),
                                b_vector=np.array([1.0, 1.5]), dimension=2),
             -1.0, [[0.0, 0.0], [2.0, 3.0], [-1.0, 4.0]], 6, [2015, 167, 166, 1]),
        ]
        solver = nl.process._SOLVER
        for spec, t, seeds, solves, stats in cases:
            before, counted = solver.solves, solver.stats.copy()
            nl.simulate_pullback_omega(spec, t, np.array(seeds))
            assert solver.solves - before == solves
            assert (solver.stats - counted).tolist() == stats

    def test_tracer_counts_field_calls(self):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("_nedlab_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        ensemble = nl.attractor._integrate_ensemble
        calls = [0]

        def field(t, x):
            calls[0] += 1
            return -x
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            tracer.enabled = True
            nl.attractor._integrate_ensemble(field, 0.0, 1.0, self.SEEDS)
        finally:
            tracer.uninstall()
        assert nl.attractor._integrate_ensemble is ensemble
        assert calls[0] > len(self.SEEDS) + 1
        assert tracer.counters["attractor.field_calls"] == calls[0]
        _, span_calls, _ = tracer.totals()
        assert span_calls["attractor.integrate_ensemble"] == 1


def _closure_labels(points, eps):
    """Brute-force single linkage: transitive closure of the eps-graph,
    components numbered by their first point."""
    d2 = np.sum((points[:, None, :] - points[None, :, :]) ** 2, axis=-1)
    reach = d2 <= eps * eps
    while True:
        grown = (reach.astype(int) @ reach.astype(int)) > 0
        if np.array_equal(grown, reach):
            break
        reach = grown
    labels = -np.ones(len(points), dtype=int)
    for i in range(len(points)):
        if labels[i] < 0:
            labels[reach[i]] = labels.max() + 1
    return labels


class TestSingleLinkage:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_transitive_closure(self, seed):
        rng = np.random.default_rng(seed)
        eps = 0.1
        # Chains with links just under eps, whose ends are many eps apart,
        # interleaved with scattered points.
        chains = [start + np.outer(np.arange(8) * 0.09, direction)
                  for start, direction in zip(
                      rng.uniform(-3.0, 3.0, size=(3, 2)),
                      [d / np.linalg.norm(d) for d in rng.normal(size=(3, 2))])]
        points = np.vstack(chains + [rng.uniform(-3.0, 3.0, size=(30, 2))])
        points = points[rng.permutation(len(points))]
        labels = _single_linkage(points, eps)
        assert np.array_equal(labels, _closure_labels(points, eps))
        assert labels.max() + 1 < len(points)   # some links were found

    @pytest.mark.parametrize("order", ["sorted", "reversed", "shuffled"])
    def test_long_chain_takes_few_rounds(self, order, monkeypatch):
        # A 400-point chain is one component of diameter 399; labels that
        # only spread to neighbours would need hundreds of rounds.
        m, eps = 400, 0.1
        points = np.outer(np.arange(m) * 0.09, [0.6, 0.8])
        points = {"sorted": points, "reversed": points[::-1],
                  "shuffled": points[np.random.default_rng(7).permutation(m)]}[order]

        class Counting:
            rounds = 0

            def __getattr__(self, name):
                return getattr(np, name)

            def where(self, *args):
                Counting.rounds += 1
                return np.where(*args)
        monkeypatch.setattr(nl.attractor, "np", Counting())
        labels = _single_linkage(points, eps)
        monkeypatch.undo()
        assert np.array_equal(labels, _closure_labels(points, eps))
        assert labels.max() == 0
        assert Counting.rounds <= 2 * math.ceil(math.log2(m))


class TestForwardSimulation:
    @staticmethod
    def _decay(rate):
        return nl.DissipativitySpec(field=lambda t, x: -rate * x, a=lambda t: -2.0 * rate,
                                    b=lambda t: 0.0, dimension=1)

    def test_contraction_to_origin(self):
        cloud = nl.simulate_forward_omega(self._decay(1.0), np.array([[1.0], [-1.0]]), 0.0)
        assert np.max(np.abs(cloud.representatives)) <= 1e-6
        assert cloud.converged
        assert (cloud.depth_used, cloud.poisoned) == (8, 0)

    def test_slow_decay_is_not_converged(self):
        # x' = -0.01 x: the clouds at horizons 64 and 128 are e^{-0.64} and
        # e^{-1.28} from {+-1}, 0.249 apart, while the omega-limit is {0}.
        cloud = nl.simulate_forward_omega(self._decay(0.01), np.array([[1.0], [-1.0]]), 0.0)
        assert not cloud.converged
        assert np.min(np.abs(cloud.representatives)) > 0.2

    def test_one_horizon_is_not_converged(self):
        cloud = nl.simulate_forward_omega(self._decay(1.0), np.array([[1.0]]), 0.0,
                                          horizon_schedule=[64.0])
        assert not cloud.converged
        assert cloud.depth_used == 1


class TestTrimmedSurface:
    def test_seed_forms(self):
        # A fixed cloud and a function of the start time are the two forms;
        # a constant function gives the fixed cloud's section bit for bit.
        spec = nl.DissipativitySpec(field=lambda t, x: -x + math.cos(t),
                                    a=lambda t: -1.0, b=lambda t: 1.0, dimension=1)
        seeds = np.array([[0.0], [2.0]])
        fixed = nl.simulate_pullback_omega(spec, -1.0, seeds)
        called = nl.simulate_pullback_omega(spec, -1.0, lambda s: seeds)
        assert np.array_equal(fixed.points, called.points)
        with pytest.raises(TypeError):
            nl.simulate_pullback_omega(spec, -1.0, nl.SetFamily({-2.0: seeds}))

    def test_omega_cloud_fields_are_required(self):
        fields = {f.name: f for f in dataclasses.fields(nl.OmegaCloud)}
        for name in ("converged", "depth_used", "poisoned"):
            assert fields[name].default is dataclasses.MISSING, name


class TestCooperative:
    def test_equilibrium_section(self):
        a = np.array([[-2.0, 1.0], [1.0, -2.0]])
        b = np.array([1.0, 1.0])
        spec = nl.CooperativeSpec(a_matrix=a, b_vector=b, dimension=2)
        cloud = nl.simulate_pullback_omega(
            spec, 0.0, np.array([[0.0, 0.0], [2.0, 3.0], [-1.0, 4.0]]))
        assert np.max(np.abs(cloud.representatives - 1.0)) <= 1e-6

    def test_structure_certification(self):
        a = np.array([[-2.0, 1.0], [1.0, -2.0]])
        spec = nl.CooperativeSpec(a_matrix=a, b_vector=np.array([1.0, 1.0]),
                                  dimension=2)
        assert spec.certify([0.0, 1.0]) >= 0.0
        bad = nl.CooperativeSpec(a_matrix=np.array([[-1.0, -0.5],
                                                    [0.2, -1.0]]),
                                 b_vector=np.array([0.0, 0.0]), dimension=2)
        assert bad.certify([0.0]) < 0.0

    @pytest.mark.parametrize("a, b, field", [
        (np.array([[-1.0, math.nan], [1.0, -1.0]]), np.array([1.0, 1.0]), None),
        (np.array([[-2.0, 1.0], [1.0, -2.0]]), np.array([1.0, math.nan]), None),
        (np.array([[-2.0, 1.0], [1.0, -2.0]]), np.array([1.0, 1.0]),
         lambda t, x: np.array([math.nan, math.nan])),
    ], ids=["off-diagonal", "forcing", "field"])
    def test_nan_is_reported(self, a, b, field):
        spec = nl.CooperativeSpec(a_matrix=a, b_vector=b, dimension=2, field=field)
        assert math.isnan(spec.certify([0.0, 1.0], n_samples=20))

    def test_callable_forcing_is_read_as_floats(self):
        a = np.array([[-2.0, 1.0], [1.0, -2.0]])
        seeds = np.array([[0.0, 0.0], [2.0, 3.0], [-1.0, 4.0]])
        want = nl.simulate_pullback_omega(
            nl.CooperativeSpec(a_matrix=a, b_vector=np.array([1.0, 2.0]), dimension=2),
            0.0, seeds)
        got = nl.simulate_pullback_omega(
            nl.CooperativeSpec(a_matrix=a, b_vector=lambda t: [1, 2], dimension=2),
            0.0, seeds)
        assert got.points.tobytes() == want.points.tobytes()

    def test_certify_needs_a_time_and_a_state(self):
        # The negative off-diagonal must not pass for want of samples.
        spec = nl.CooperativeSpec(a_matrix=np.array([[-1.0, -5.0], [1.0, -1.0]]),
                                  b_vector=np.array([0.0, 0.0]), dimension=2)
        assert spec.certify([0.0], n_samples=1) <= -5.0
        with pytest.raises(ValueError):
            spec.certify([])
        with pytest.raises(ValueError):
            spec.certify([0.0], n_samples=0)

    def test_order_preservation(self):
        a = np.array([[-2.0, 1.0], [1.0, -2.0]])
        b = np.array([1.0, 1.0])
        spec = nl.CooperativeSpec(a_matrix=a, b_vector=b, dimension=2)
        rng = np.random.default_rng(1)
        lower = rng.uniform(-2.0, 2.0, size=(20, 2))
        upper = lower + rng.uniform(0.0, 1.0, size=(20, 2))
        for lo, hi in zip(lower, upper):
            sol = solve_ivp(lambda t, y: np.concatenate(
                [spec.field(t, y[:2]), spec.field(t, y[2:])]),
                (0.0, 3.0), np.concatenate([lo, hi]),
                rtol=1e-10, atol=1e-12)
            final = sol.y[:, -1]
            assert np.all(final[:2] <= final[2:] + 1e-10)


class TestContainmentReports:
    def test_margins(self):
        family = nl.SetFamily({0.0: np.array([[0.5, 0.0]]),
                               -1.0: np.array([[0.0, 0.25]])})
        envelope = nl.RadiusEnvelope(params={}, evaluator=lambda t: 1.0)
        report = nl.verify_containment(family, envelope)
        assert report.contained
        assert report.min_margin == pytest.approx(0.5)

    def test_max_norm_envelope(self):
        family = nl.SetFamily({0.0: np.array([[0.9, -0.9]])})
        env = nl.RadiusEnvelope(params={}, evaluator=lambda t: 1.0,
                                norm="max")
        assert nl.verify_containment(family, env).min_margin \
            == pytest.approx(0.1)

    def test_hausdorff_hand_values(self):
        a = np.array([[0.0, 0.0], [2.0, 0.0]])
        b = np.array([[0.0, 0.0]])
        assert nl.hausdorff_semidistance(a, b) == pytest.approx(2.0)
        assert nl.hausdorff_semidistance(b, a) == pytest.approx(0.0)

    def test_universe_membership(self):
        family = nl.SetFamily({0.0: np.array([[1.0]]),
                               -2.0: np.array([[4.0]])})
        # e^{-1 * 2} * 4 = 0.54 < 1, so the witness is set at t = 0.
        assert nl.universe_membership(family, 1.0) == pytest.approx(1.0)

    def test_set_family_validation(self):
        with pytest.raises(ValueError):
            nl.SetFamily({})


class TestCoincidence:
    def test_gamma_independence_linear(self):
        spec = nl.DissipativitySpec(field=lambda t, x: -x + 1.0,
                                    a=lambda t: -1.0, b=lambda t: 1.0,
                                    dimension=1)
        dists = nl.attractor_coincidence(spec, [-2.0, 0.0], 0.0,
                                         [0.25, 0.5], seeds_per_time=4)
        for gamma, d in dists.items():
            assert d <= 1e-4, (gamma, d)
        # Recorded values: a change in how seeds are read, integrated or
        # clustered shows here.
        assert dists == {0.25: 2.5044055070866378e-06, 0.5: 3.130001335893695e-08}
