import math

import numpy as np
import pytest
from scipy.linalg import expm

import nedlab as nl
from nedlab import BoundaryCondition, Grid1D, GridSpec, InapplicableError


def _dirichlet(n, length=1.0):
    return nl.discretize(Grid1D(length, n), BoundaryCondition("dirichlet"))


class TestDiscretize:
    def test_dirichlet_leading_eigenvalue_closed_form(self):
        for n in (7, 15, 31):
            lap = _dirichlet(n)
            h = lap.grid.h
            expect = -(2.0 - 2.0 * math.cos(math.pi * h)) / (h * h)
            assert lap.leading_eigenvalue == pytest.approx(expect, rel=1e-12)

    def test_dirichlet_full_spectrum(self):
        lap = _dirichlet(9)
        h = lap.grid.h
        ks = np.arange(1, 10)
        expect = -(2.0 - 2.0 * np.cos(ks * math.pi * h)) / (h * h)
        assert np.allclose(sorted(lap.eigenvalues), sorted(expect))

    def test_offdiagonals_nonnegative(self):
        for bc in (BoundaryCondition("dirichlet"), BoundaryCondition("neumann"),
                   BoundaryCondition("robin", robin_alpha=0.7)):
            lap = nl.discretize(Grid1D(1.0, 8), bc)
            off = lap.matrix - np.diag(np.diag(lap.matrix))
            assert np.min(off) >= 0.0

    def test_similarity_symmetrization(self):
        for bc in (BoundaryCondition("neumann"),
                   BoundaryCondition("robin", robin_alpha=0.3)):
            lap = nl.discretize(Grid1D(2.0, 10), bc)
            w = np.diag(lap.scale)
            sym = w @ lap.matrix @ np.linalg.inv(w)
            assert np.max(np.abs(sym - sym.T)) < 1e-10

    def test_neumann_conserves_constants(self):
        lap = nl.discretize(Grid1D(1.0, 10), BoundaryCondition("neumann"))
        assert np.max(np.abs(lap.matrix @ np.ones(lap.size))) < 1e-9
        assert lap.leading_eigenvalue == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("bc", [BoundaryCondition("dirichlet"),
                                    BoundaryCondition("neumann"),
                                    BoundaryCondition("robin",
                                                      robin_alpha=0.5)])
    def test_expm_matches_scipy(self, bc):
        lap = nl.discretize(Grid1D(1.0, 9), bc)
        for d in (0.05, 0.4, 2.0):
            assert np.max(np.abs(lap.expm(d) - expm(d * lap.matrix))) < 1e-12

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            Grid1D(-1.0, 5)
        with pytest.raises(ValueError):
            Grid1D(1.0, 1)
        with pytest.raises(ValueError):
            BoundaryCondition("periodic")
        with pytest.raises(ValueError):
            BoundaryCondition("robin", robin_alpha=-1.0)


class TestPDEProcess:
    def test_separable_closed_form(self):
        lap = _dirichlet(9)
        p = nl.pde_process(lap, separable_g=lambda t: -1.0,
                           g_antiderivative=lambda t: -t)
        got = p.matrix(0.7, 0.2)
        want = expm(0.5 * (lap.matrix - np.eye(9)))
        assert np.max(np.abs(got - want)) < 1e-13

    def test_modewise_exactness(self):
        # In the discrete sine basis each mode evolves by the scalar
        # closed form e^{lambda_k (t-s)} e^{G(t)-G(s)}.
        lap = _dirichlet(15)
        g = lambda t: -2.0 - t * math.sin(t)
        big_g = lambda t: -2.0 * t + t * math.cos(t) - math.sin(t)
        p = nl.pde_process(lap, separable_g=g, g_antiderivative=big_g)
        t, s = 1.3, 0.4
        m = p.matrix(t, s)
        for k in (0, 7, 14):
            mode = lap.modes[:, k] / lap.scale
            factor = math.exp(lap.eigenvalues[k] * (t - s)
                              + big_g(t) - big_g(s))
            assert np.max(np.abs(m @ mode - factor * mode)) < 1e-10

    def test_strang_matches_separable(self):
        lap = _dirichlet(9)
        g = lambda t: -1.0 + 0.5 * math.cos(t)
        big_g = lambda t: -t + 0.5 * math.sin(t)
        exact = nl.pde_process(lap, separable_g=g, g_antiderivative=big_g)
        split = nl.pde_process(lap, a=lambda t, x: np.full(len(x), g(t)),
                               dt=1e-3)
        d = np.max(np.abs(exact.matrix(1.2, 0.1) - split.matrix(1.2, 0.1)))
        assert d < 1e-8

    def test_positivity_of_propagator(self):
        lap = _dirichlet(9)
        p = nl.pde_process(lap, a=lambda t, x: np.sin(3 * x) - 1.0, dt=1e-2)
        assert np.min(p.matrix(0.5, 0.0)) >= 0.0

    def test_quadrature_fallback(self):
        lap = _dirichlet(5)
        g = lambda t: math.cos(t)
        with_anti = nl.pde_process(lap, separable_g=g,
                                   g_antiderivative=lambda t: math.sin(t))
        without = nl.pde_process(lap, separable_g=g)
        a = with_anti.matrix(1.0, 0.2)
        b = without.matrix(1.0, 0.2)
        assert np.max(np.abs(a - b)) < 1e-10

    def test_separable_quadrature_once_per_mesh_time(self, monkeypatch):
        # G(t) - G(s) is the log-propagator of one held scalar process,
        # which integrates g once per distinct time whatever the pairs.
        p = nl.pde_process(_dirichlet(5), separable_g=lambda t: math.cos(t) - 1.0)
        times, quads = [], []
        cumulative, quad = p._time_factor._cumulative, nl.process.quad

        def spy(t):
            times.append(float(t))
            return cumulative(t)

        def counting(*args, **kwargs):
            quads.append(args[2])
            return quad(*args, **kwargs)
        p._time_factor._cumulative = spy
        monkeypatch.setattr(nl.process, "quad", counting)
        grid = GridSpec(0.0, 2.0, 0.25)
        sampled = nl.sample_norm_grid(p, None, grid)
        assert len(sampled.samples) == len(grid.pairs("stable")[0])
        assert sorted(set(times)) == grid.mesh().tolist()
        assert sorted(quads) == grid.mesh().tolist()

    def test_argument_validation(self):
        lap = _dirichlet(5)
        with pytest.raises(ValueError):
            nl.pde_process(lap)  # neither coefficient form
        with pytest.raises(ValueError):
            nl.pde_process(lap, a=lambda t, x: x, separable_g=lambda t: 0.0)
        p = nl.pde_process(lap, separable_g=lambda t: 0.0)
        with pytest.raises(nl.DomainError):
            p.matrix(0.0, 1.0)  # diffusion is not invertible


def _per_pair_log_norms(p, grid):
    """Reference: (log norm of each sampled pair, poisoned pairs) from one
    ``matrix`` call per pair."""
    rows, poisoned = {}, set()
    for t, s in zip(*grid.pairs("stable")):
        t, s = float(t), float(s)
        try:
            value = nl.spectral_norm(p.matrix(t, s))
        except nl.FiniteEscapeError:
            poisoned.add((t, s))
            continue
        if value > 0.0:
            rows[(t, s)] = math.log(value)
    return rows, poisoned


class TestSeparableKernel:
    def test_underflowed_factor_carries_a_sample(self):
        # e^{G(t) - G(s)} = e^{-100 (t - s)} underflows to 0 once t - s > 7.45,
        # where the log norm (lambda_1 - 100)(t - s) is still finite.
        lap = _dirichlet(7)
        p = nl.pde_process(lap, separable_g=lambda t: -100.0,
                           g_antiderivative=lambda t: -100.0 * t)
        grid = GridSpec(0.0, 10.0, 0.5)
        sampled = nl.sample_norm_grid(p, None, grid)
        assert len(sampled.samples) == 231 and sampled.poisoned == []
        t, s, v = sampled.samples.T
        want = (lap.leading_eigenvalue - 100.0) * (t - s)
        assert np.max(np.abs(v - want)) < 1e-11
        assert v.min() == pytest.approx(-1097.4, abs=0.05)

    def test_underflowed_diffusion_carries_a_sample(self):
        # e^{A_h d} underflows to the zero matrix once lambda_1 d < -745
        # (d >= 80 here), while the log norm (5 + lambda_1) d stays finite.
        lap = _dirichlet(31)
        p = nl.pde_process(lap, separable_g=lambda t: 5.0,
                           g_antiderivative=lambda t: 5.0 * t)
        sampled = nl.sample_norm_grid(p, None, GridSpec(0.0, 100.0, 5.0))
        assert len(sampled.samples) == 231 and sampled.poisoned == []
        t, s, v = sampled.samples.T
        want = (5.0 + lap.leading_eigenvalue) * (t - s)
        assert np.all(np.abs(v - want) <= 1e-12 * np.abs(want))

    def test_every_reading_keeps_the_underflowed_diffusion(self):
        # An explicit family, the adjoint grid and single queries read the
        # pair as e^L N too, so no factor e^{A_h d} underflows there either.
        lap = _dirichlet(31)
        p = nl.pde_process(lap, separable_g=lambda t: 5.0,
                           g_antiderivative=lambda t: 5.0 * t)
        rate = 5.0 + lap.leading_eigenvalue
        for process, family, grid in [
                (p, nl.ProjectionFamily.constant(np.zeros((31, 31))), GridSpec(0.0, 100.0, 5.0)),
                (nl.adjoint_process(p), None, GridSpec(-100.0, 0.0, 5.0))]:
            sampled = nl.sample_norm_grid(process, family, grid)
            assert len(sampled.samples) == 231 and sampled.poisoned == []
            t, s, v = sampled.samples.T
            assert np.max(np.abs(v - rate * (t - s))) < 1e-9
        for lag in (75.0, 100.0):
            assert abs(nl.operator_norm(p, lag, 0.0, log=True) - rate * lag) < 1e-9

    @pytest.mark.parametrize("length, g, grid", [
        # The norm passes the guard.
        (1.0, lambda t: 50.0 + math.sin(t), GridSpec(0.0, 10.0, 0.5)),
        # G(t) - G(s) passes exp's range at lags where the strong diffusion
        # keeps the product under the guard; the longer lags pass the guard.
        (0.1, lambda t: 1500.0, GridSpec(0.0, 1.0, 0.25)),
    ])
    def test_growth_poisons_at_least_the_per_pair_set(self, length, g, grid):
        p = nl.pde_process(_dirichlet(9, length), separable_g=g)
        sampled = nl.sample_norm_grid(p, None, grid)
        rows, poisoned = _per_pair_log_norms(p, grid)
        assert poisoned and poisoned <= set(sampled.poisoned)
        assert len(sampled.samples) + len(sampled.poisoned) == len(grid.pairs("stable")[0])
        # The single-pair reading poisons every pair matrix poisons, too.
        family = nl.ProjectionFamily.constant(np.zeros((9, 9)))
        assert poisoned <= set(nl.sample_norm_grid(p, family, grid).poisoned)
        for t, s in poisoned:
            with pytest.raises(nl.FiniteEscapeError):
                nl.operator_norm(p, t, s, log=True)

    @pytest.mark.parametrize("bc", [BoundaryCondition("dirichlet"),
                                    BoundaryCondition("neumann"),
                                    BoundaryCondition("robin", robin_alpha=0.7)])
    def test_matches_per_pair_matrices(self, bc):
        # Neumann and Robin closures have a non-unit similarity scale.
        p = nl.pde_process(nl.discretize(Grid1D(1.0, 9), bc),
                           separable_g=lambda t: 3.0 * math.cos(t) - 0.5)
        grid = GridSpec(-2.0, 6.0, 0.5, extra_points=(0.3,))
        sampled = nl.sample_norm_grid(p, None, grid)
        rows, poisoned = _per_pair_log_norms(p, grid)
        assert sampled.poisoned == [] and poisoned == set()
        assert len(sampled.samples) == len(rows)
        assert max(abs(v - rows[(t, s)]) for t, s, v in sampled.samples) < 1e-13

    @pytest.mark.parametrize("g_antiderivative", [None, lambda t: 3.0 * math.sin(t) - 0.5 * t],
                             ids=["quadrature", "antiderivative"])
    def test_time_factor_mesh_read_is_the_per_pair_exponent(self, g_antiderivative):
        # The grid reads G once per mesh point; the values are bit for bit
        # those of the float exponent of every pair.
        p = nl.pde_process(_dirichlet(9), separable_g=lambda t: 3.0 * math.cos(t) - 0.5,
                           g_antiderivative=g_antiderivative)
        grid = GridSpec(-2.0, 6.0, 0.5, extra_points=(0.3,))
        per_pair = nl.pde_process(_dirichlet(9), separable_g=p.separable_g,
                                  g_antiderivative=g_antiderivative)
        factor = per_pair._time_factor
        factor._grid_exponents = lambda mesh, i, j: np.array(
            [factor.log_propagator(t, s) for t, s in zip(mesh[i].tolist(), mesh[j].tolist())])
        got = nl.sample_norm_grid(p, None, grid)
        want = nl.sample_norm_grid(per_pair, None, grid)
        assert np.array_equal(got.samples, want.samples) and got.poisoned == want.poisoned

    def test_decaying_pairs_past_the_exp_range_are_read(self):
        # g = 5 on 31 Dirichlet nodes: G(t) - G(s) = 5 d passes the 709.78
        # that math.exp takes from d = 145 on, while the norm e^{(5 + lambda_1) d}
        # decays.  Every reading takes e^{G - G + lambda_1 d} e^{(A_h - lambda_1) d}.
        lap = _dirichlet(31)
        p = nl.pde_process(lap, separable_g=lambda t: 5.0,
                           g_antiderivative=lambda t: 5.0 * t)
        rate = 5.0 + lap.leading_eigenvalue
        for process, grid in [(p, GridSpec(0.0, 200.0, 5.0)),
                              (nl.adjoint_process(p), GridSpec(-200.0, 0.0, 5.0))]:
            sampled = nl.sample_norm_grid(process, None, grid)
            assert len(sampled.samples) == 861 and sampled.poisoned == []
            t, s, v = sampled.samples.T
            assert np.all(np.abs(v - rate * (t - s)) <= 1e-14 * np.abs(rate * (t - s)))
        cert = nl.DichotomyCertificate("II", nl.FULL_LINE, 1.0, nl.ExponentPair(4.8, 0.0),
                                       projection="zero")
        assert nl.check_certificate(p, cert, GridSpec(0.0, 200.0, 5.0)) <= 0.0
        assert nl.operator_norm(p, 150.0, 0.0, log=True) == pytest.approx(rate * 150.0,
                                                                          rel=1e-12)
        assert np.linalg.norm(p.matrix(100.0, 0.0), 2) == pytest.approx(
            math.exp(rate * 100.0), rel=1e-12)

    @pytest.mark.parametrize("bc", [BoundaryCondition("dirichlet"),
                                    BoundaryCondition("neumann"),
                                    BoundaryCondition("robin", robin_alpha=0.7)])
    def test_matrix_is_the_log_matrix_pair(self, bc):
        p = nl.pde_process(nl.discretize(Grid1D(1.0, 9), bc),
                           separable_g=lambda t: 3.0 * math.cos(t) - 0.5)
        for t, s in [(0.3, 0.0), (2.5, -1.0), (40.0, 1.5)]:
            scale, stack = p._log_matrix(t, s)
            assert np.array_equal(p.matrix(t, s), math.exp(scale) * stack)

    def test_domain_errors(self):
        half = nl.pde_process(_dirichlet(5), separable_g=lambda t: -1.0,
                              domain=nl.HALF_LINE_PLUS)
        with pytest.raises(nl.DomainError):
            nl.sample_norm_grid(half, None, GridSpec(-1.0, 1.0, 0.5))
        assert len(nl.sample_norm_grid(half, None, GridSpec(0.0, 1.0, 0.5)).samples) == 6
        full = nl.pde_process(_dirichlet(5), separable_g=lambda t: -1.0)
        with pytest.raises(nl.DomainError):
            nl.sample_norm_grid(full, None, GridSpec(0.0, 1.0, 0.5), part="unstable")


class TestStrangChain:
    # Every pair length is a multiple of dt = 1/64, so the chained steps use
    # the per-pair substeps and midpoints exactly; only rounding differs.
    @staticmethod
    def _strang(a):
        return nl.pde_process(_dirichlet(7), a=a, dt=1.0 / 64)

    @pytest.mark.parametrize("grid", [GridSpec(0.0, 2.0, 0.5), GridSpec(-1.0, 1.5, 0.25)])
    def test_chained_grid_matches_per_pair_products(self, grid):
        p = self._strang(lambda t, x: -1.0 + 0.5 * math.sin(2.0 * t) * np.cos(np.pi * x))
        sampled = nl.sample_norm_grid(p, None, grid)
        tv, sv = grid.pairs("stable")
        assert sampled.poisoned == []
        assert np.array_equal(sampled.samples[:, 0], tv)
        assert np.array_equal(sampled.samples[:, 1], sv)
        want = [math.log(nl.spectral_norm(p.matrix(t, s))) for t, s in zip(tv, sv)]
        assert np.max(np.abs(sampled.samples[:, 2] - want)) < 1e-12

    def test_nan_propagator_escapes(self):
        p = self._strang(lambda t, x: np.full(len(x), math.nan if t > 0.6 else -1.0))
        with pytest.raises(nl.FiniteEscapeError):
            nl.operator_norm(p, 1.0, 0.0, log=True)
        grid = GridSpec(0.0, 1.0, 0.5)
        sampled = nl.sample_norm_grid(p, None, grid)
        assert sorted(sampled.poisoned) == [(1.0, 0.0), (1.0, 0.5)]
        cert = nl.DichotomyCertificate("II", nl.FULL_LINE, 1.0, nl.ExponentPair(1.0, 0.0),
                                       projection="zero")
        assert nl.check_certificate(p, cert, grid) == math.inf

    def test_overflowing_propagator_escapes(self):
        # exp(tau * 1e6) overflows: an escape, not an inf sample or a warning.
        p = self._strang(lambda t, x: np.full(len(x), 1e6 if t > 0.6 else -1.0))
        with pytest.raises(nl.FiniteEscapeError):
            p.matrix(1.0, 0.0)
        sampled = nl.sample_norm_grid(p, None, GridSpec(0.0, 1.0, 0.5))
        assert sorted(sampled.poisoned) == [(1.0, 0.0), (1.0, 0.5)]
        assert np.all(np.isfinite(sampled.samples))

    def test_separable_overflow_escapes(self):
        p = nl.pde_process(_dirichlet(5), separable_g=lambda t: 1000.0,
                           g_antiderivative=lambda t: 1000.0 * t)
        with pytest.raises(nl.FiniteEscapeError):
            p.matrix(1.0, 0.0)


class TestVariationOfConstants:
    def test_residual_small(self):
        lap = _dirichlet(9)
        p = nl.pde_process(lap, separable_g=lambda t: -1.0,
                           g_antiderivative=lambda t: -t)
        res = nl.variation_of_constants_check(
            p, lambda t: math.exp(-t) * np.ones(9), (0.0, 1.0), n_check=3)
        assert res < 1e-8

    def test_detects_wrong_propagator(self):
        # A formula built from a propagator 1% off must leave a visible
        # residual: the check is not a tautology.
        lap = _dirichlet(5)
        p = nl.pde_process(lap, separable_g=lambda t: -1.0,
                           g_antiderivative=lambda t: -t)
        forcing = lambda t: np.ones(5)
        assert nl.variation_of_constants_check(
            p, forcing, (0.0, 1.0), n_check=2) < 1e-8
        exact = p.matrix
        p.matrix = lambda t, s: 1.01 * exact(t, s)
        wrong = nl.variation_of_constants_check(p, forcing, (0.0, 1.0), n_check=2)
        assert wrong > 1e-6


class TestPrincipalBundle:
    def test_autonomous_separation_matches_gap(self, dirichlet_31):
        p = nl.pde_process(dirichlet_31, separable_g=lambda t: 0.0,
                           g_antiderivative=lambda t: 0.0)
        bundle = nl.principal_bundle(p)
        gap = float(dirichlet_31.eigenvalues[-1]
                    - dirichlet_31.eigenvalues[-2])
        assert bundle.nu_sep == pytest.approx(gap, rel=0.10)

    def test_vectors_positive_unit(self, dirichlet_31):
        p = nl.pde_process(dirichlet_31, separable_g=lambda t: 0.0,
                           g_antiderivative=lambda t: 0.0)
        bundle = nl.principal_bundle(p)
        assert np.min(bundle.vectors) >= -1e-12
        assert np.allclose(np.linalg.norm(bundle.vectors, axis=1), 1.0)

    def test_cocycle_increments_autonomous(self, dirichlet_31):
        # Autonomous leading factor over a stride is e^{lambda_1 stride}.
        p = nl.pde_process(dirichlet_31, separable_g=lambda t: 0.0,
                           g_antiderivative=lambda t: 0.0)
        bundle = nl.principal_bundle(p, stride=0.25)
        expect = math.exp(dirichlet_31.leading_eigenvalue * 0.25)
        assert np.allclose(bundle.c_increments, expect, rtol=1e-9)
        assert bundle.c(0.5, 0.0) == pytest.approx(expect ** 2, rel=1e-9)
        assert bundle.c(0.5, 0.5) == 1.0
        # Each argument matches its nearest bundle time, from either side.
        for t, s in [(1.0, 0.25 - 1e-12), (1.0, 0.25 + 1e-12),
                     (1.0 + 1e-12, 0.25), (1.0 - 1e-12, 0.25)]:
            assert bundle.c(t, s) == bundle.c(1.0, 0.25)
        # Past the last bundle time, and t < s: neither is a bundle pair.
        for t, s in [(10.0, 0.0), (0.0, 0.5), (0.5, 1.0), (2.25, 2.0)]:
            with pytest.raises(ValueError):
                bundle.c(t, s)

    def test_projection_norms(self, dirichlet_31):
        p = nl.pde_process(dirichlet_31, separable_g=lambda t: 0.0,
                           g_antiderivative=lambda t: 0.0)
        bundle = nl.principal_bundle(p)
        # Symmetric case: both spectral projections are orthogonal.
        assert bundle.c1 == pytest.approx(1.0, abs=1e-9)
        assert bundle.c2 == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("bc", [BoundaryCondition("neumann"),
                                    BoundaryCondition("robin", robin_alpha=0.7)])
    def test_rank_one_projection_norms_agree(self, bc):
        # For a rank-one projection Q, ||Q|| = ||I - Q||; an underestimated
        # norm shows up as c2 < c1.
        lap = nl.discretize(Grid1D(1.0, 15), bc)
        p = nl.pde_process(lap, separable_g=lambda t: -1.0,
                           g_antiderivative=lambda t: -t)
        bundle = nl.principal_bundle(p)
        assert bundle.c1 > 1.0
        assert bundle.c2 == pytest.approx(bundle.c1, rel=1e-14)
        # Bit for bit the per-time norms of Q = e l^T / (l^T e), l = w^2 e.
        w2 = lap.scale ** 2
        q1 = [np.outer(e, w2 * e) / float((w2 * e) @ e) for e in bundle.vectors]
        assert bundle.c1 == max(nl.spectral_norm(q) for q in q1)
        assert bundle.c2 == max(nl.spectral_norm(np.eye(lap.size) - q) for q in q1)


class TestTransfer:
    def test_rate_improves_by_leading_eigenvalue(self, dirichlet_31):
        scalar = nl.DichotomyCertificate("II", nl.HALF_LINE_PLUS, math.e ** 2,
                                         nl.ExponentPair(3.0, 2.0),
                                         projection="zero")
        cert = nl.scalar_to_pde_transfer(scalar, dirichlet_31)
        assert cert.stable.rate == pytest.approx(
            3.0 + abs(dirichlet_31.leading_eigenvalue))
        assert cert.stable.growth == 2.0
        assert cert.m == pytest.approx(2.0 * math.e ** 2)

    def test_dirichlet_rate_subtracts_the_leading_eigenvalue(self, dirichlet_31):
        scalar = nl.DichotomyCertificate("II", nl.HALF_LINE_PLUS, 1.0,
                                         nl.ExponentPair(3.0, 0.0), projection="zero")
        cert = nl.scalar_to_pde_transfer(scalar, dirichlet_31)
        assert cert.stable.rate == 3.0 + abs(dirichlet_31.leading_eigenvalue)

    @pytest.mark.parametrize("n", [15, 31])
    @pytest.mark.parametrize("bc", [BoundaryCondition("neumann"),
                                    BoundaryCondition("robin", robin_alpha=0.0)])
    def test_neumann_rate_is_not_inflated(self, n, bc):
        # The constant mode has eigenvalue exactly 0; eigh's rounding of it
        # (about 1e-13 either way) must not raise the transferred rate.
        lap = nl.discretize(Grid1D(1.0, n), bc)
        assert lap.leading_eigenvalue == 0.0
        scalar = nl.DichotomyCertificate("II", nl.FULL_LINE, 1.0,
                                         nl.ExponentPair(1.0, 0.0), projection="zero")
        assert nl.scalar_to_pde_transfer(scalar, lap).stable.rate == 1.0

    def test_transferred_certificate_validates(self, dirichlet_31):
        big_g = lambda t: -2.0 * t + t * math.cos(t) - math.sin(t)
        p = nl.pde_process(dirichlet_31,
                           separable_g=lambda t: -2.0 - t * math.sin(t),
                           g_antiderivative=big_g,
                           domain=nl.HALF_LINE_PLUS)
        scalar = nl.DichotomyCertificate("II", nl.HALF_LINE_PLUS, math.e ** 2,
                                         nl.ExponentPair(3.0, 2.0),
                                         projection="zero")
        cert = nl.scalar_to_pde_transfer(scalar, dirichlet_31)
        assert nl.check_certificate(p, cert, GridSpec(0.0, 20.0, 0.5)) <= 1e-6

    def test_requires_zero_projection(self, dirichlet_31):
        bad = nl.DichotomyCertificate("II", nl.FULL_LINE, 1.0,
                                      nl.ExponentPair(1.0, 0.0),
                                      projection="identity")
        with pytest.raises(InapplicableError):
            nl.scalar_to_pde_transfer(bad, dirichlet_31)


class TestAdjoint:
    def _process(self, lap):
        big_g = lambda t: -2.0 * t + t * math.cos(t) - math.sin(t)
        return nl.pde_process(lap, separable_g=lambda t: -2.0 - t * math.sin(t),
                              g_antiderivative=big_g)

    def test_norm_identity_exact(self):
        lap = _dirichlet(9)
        p = self._process(lap)
        adj = nl.adjoint_process(p)
        for (t, s) in [(1.0, 0.0), (2.7, -1.3), (0.0, -2.0)]:
            assert nl.spectral_norm(adj.matrix(t, s)) == pytest.approx(
                nl.spectral_norm(p.matrix(-s, -t)), rel=1e-13)

    def test_double_adjoint_identity(self):
        lap = _dirichlet(7)
        p = self._process(lap)
        double = nl.adjoint_process(nl.adjoint_process(p))
        t, s = 1.5, 0.25
        assert np.max(np.abs(double.matrix(t, s) - p.matrix(t, s))) == 0.0

    def test_autonomous_self_adjoint(self):
        lap = _dirichlet(7)
        p = nl.pde_process(lap, separable_g=lambda t: -1.0,
                           g_antiderivative=lambda t: -t)
        adj = nl.adjoint_process(p)
        t, s = 1.2, 0.3
        assert np.max(np.abs(adj.matrix(t, s) - p.matrix(t, s))) < 1e-12

    def test_kind_swap_on_samples(self):
        # A kind-II bound of the primal becomes a kind-I bound of the
        # adjoint: anchors |t| and |s| swap under time reflection.  The
        # coefficient -2 + 2 tanh(t) integrates to -2t + 2 ln cosh(t),
        # whose oscillation-free asymmetry makes the anchor choice
        # matter: only the |t|-anchored bound holds on the primal.
        lap = _dirichlet(7)
        p = nl.pde_process(lap,
                           separable_g=lambda t: -2.0 + 2.0 * math.tanh(t),
                           g_antiderivative=lambda t: -2.0 * t
                           + 2.0 * math.log(math.cosh(t)))
        scalar = nl.DichotomyCertificate("II", nl.FULL_LINE, math.e ** 2,
                                         nl.ExponentPair(2.0, 2.0),
                                         projection="zero")
        cert = nl.scalar_to_pde_transfer(scalar, lap)
        grid = GridSpec(-10.0, 10.0, 0.5)
        assert nl.check_certificate(p, cert, grid) <= 1e-6
        adj = nl.adjoint_process(p)
        swapped = nl.DichotomyCertificate("I", nl.FULL_LINE, cert.m,
                                          cert.stable, projection="zero")
        assert nl.check_certificate(adj, swapped, grid) <= 1e-6
        # The unswapped kind fails on the adjoint, so the swap is real.
        unswapped = nl.DichotomyCertificate("II", nl.FULL_LINE, cert.m,
                                            cert.stable, projection="zero")
        assert nl.check_certificate(adj, unswapped, grid) > 1.0

    def test_requires_full_line(self):
        lap = _dirichlet(5)
        p = nl.pde_process(lap, separable_g=lambda t: 0.0,
                           g_antiderivative=lambda t: 0.0,
                           domain=nl.HALF_LINE_PLUS)
        with pytest.raises(InapplicableError):
            nl.adjoint_process(p)


class TestAttractorDemo:
    def test_envelope_is_the_linear_envelope(self):
        lap = _dirichlet(7)
        scalar = nl.DichotomyCertificate("II", nl.FULL_LINE, 2.0,
                                         nl.ExponentPair(1.0, 0.5),
                                         projection="zero")
        out = nl.parabolic_attractor_demo(
            lap, lambda t: -1.0, lambda t: np.zeros(7), scalar, lam=0.5,
            t_grid=[-1.0], bnorm=0.3, cubic=False, seeds_per_time=2)
        ref = nl.make_linear_envelope(nl.scalar_to_pde_transfer(scalar, lap), 0.5, 0.3)
        assert out["envelope"].params == ref.params
        for t in (-3.0, -0.5, 0.0):
            assert out["envelope"](t) == ref(t)

    def test_zero_forcing_gives_origin(self):
        lap = _dirichlet(7)
        scalar = nl.DichotomyCertificate("II", nl.FULL_LINE, math.e ** 2,
                                         nl.ExponentPair(1.0, 2.0),
                                         projection="zero")
        report = nl.parabolic_attractor_demo(
            lap, lambda t: -2.0 - t * math.sin(t),
            lambda t: np.zeros(7), scalar, lam=0.0,
            t_grid=[-1.0, 0.0], bnorm=0.0, cubic=False,
            seeds_per_time=2)
        for t in report["sections"].times():
            assert np.max(np.abs(report["sections"].section(t))) <= 1e-6

    @pytest.fixture(scope="class")
    def forced(self):
        lap = _dirichlet(7)
        scalar = nl.DichotomyCertificate("II", nl.FULL_LINE, math.e ** 2,
                                         nl.ExponentPair(1.0, 2.0),
                                         projection="zero")
        return nl.parabolic_attractor_demo(
            lap, lambda t: -2.0 - t * math.sin(t),
            lambda t: math.exp(-abs(t)) * np.ones(7), scalar, lam=0.0,
            t_grid=[-4.0, -2.0, 0.0], bnorm=1.0, seeds_per_time=3)

    def test_forced_sections_stay_inside_envelope(self, forced):
        assert forced["margins"].contained

    #: Recorded sections: a change in how the demo's seeds are read,
    #: integrated or clustered shows here.
    FORCED_SECTIONS = {
        -4.0: [0.0010375166703568966, 0.0017833007292791102, 0.0022327744810657717,
               0.0023829452806067505, 0.0022327744810657717, 0.0017833007292791102,
               0.0010375166703568966],
        -2.0: [0.00515553410098791, 0.008584077529469618, 0.01054330849561124,
               0.011180431651324735, 0.010543308495611243, 0.008584077529469618,
               0.005155534100987911],
        0.0: [0.04283969298933, 0.07207034764125993, 0.08907228602905333,
              0.09465127456264422, 0.08907228602905327, 0.07207034764125995,
              0.04283969298932997],
    }

    def test_forced_sections_match_recorded_values(self, forced):
        sections = forced["sections"]
        assert sections.times() == sorted(self.FORCED_SECTIONS)
        for t, want in self.FORCED_SECTIONS.items():
            # 1e-12 relative leaves room for a BLAS that sums the 7x7
            # product in another order; on one machine the values repeat bit for bit.
            assert sections.section(t).tolist() == [pytest.approx(want, rel=1e-12, abs=1e-15)]
