import concurrent.futures
import gc
import json
import math
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nedlab as nl
from nedlab import (
    DomainError,
    FiniteEscapeError,
    GridSpec,
    ProjectionFamily,
    ScalarExponentProcess,
    TimeDomain,
)


class TestTimeDomain:
    def test_membership(self):
        assert nl.FULL_LINE.contains(-5.0) and nl.FULL_LINE.contains(5.0)
        assert nl.HALF_LINE_PLUS.contains(0.0)
        assert not nl.HALF_LINE_PLUS.contains(-1e-9)
        assert nl.HALF_LINE_MINUS.contains(0.0)
        assert not nl.HALF_LINE_MINUS.contains(1e-9)

    def test_half_line_flag(self):
        assert not nl.FULL_LINE.is_half_line
        assert nl.HALF_LINE_PLUS.is_half_line

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            TimeDomain("both")


class TestGridSpec:
    def test_mesh_pins_endpoints_and_zero(self):
        mesh = GridSpec(-1.0, 2.0, 0.7).mesh()
        for v in (-1.0, 0.0, 2.0):
            assert v in mesh
        assert np.all(np.diff(mesh) > 0)

    def test_extra_points(self):
        mesh = GridSpec(0.0, 10.0, 1.0, extra_points=(2.5, math.pi)).mesh()
        assert 2.5 in mesh and np.any(np.isclose(mesh, math.pi))

    def test_pairs_orientation(self):
        g = GridSpec(0.0, 2.0, 1.0)
        tv, sv = g.pairs("stable")
        assert np.all(tv >= sv)
        tu, su = g.pairs("unstable")
        assert np.all(tu < su)
        n = len(g.mesh())
        assert len(tv) + len(tu) == n * n

    def test_invalid(self):
        with pytest.raises(ValueError):
            GridSpec(1.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, -0.5)


class TestSpectralNorm:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 31])
    def test_matches_svd(self, n):
        rng = np.random.default_rng(n)
        m = rng.normal(size=(n, n))
        ref = float(np.linalg.svd(m, compute_uv=False)[0])
        assert nl.spectral_norm(m) == pytest.approx(ref, rel=1e-11)

    @pytest.mark.parametrize("scale", [1e-150, 1e-84, 1e80, 1e120])
    def test_extreme_scales(self, scale):
        # Squaring inside the Gram matrix must not under/overflow.
        rng = np.random.default_rng(3)
        m = scale * rng.normal(size=(8, 8))
        ref = scale * float(np.linalg.svd(m / scale, compute_uv=False)[0])
        assert nl.spectral_norm(m) == pytest.approx(ref, rel=1e-11)

    def test_zero_matrix(self):
        assert nl.spectral_norm(np.zeros((5, 5))) == 0.0

    def test_top_singular_vector_orthogonal_to_ones(self):
        # Right-singular vectors: the top one is orthogonal to ones, the
        # second is ones/2, so an iteration started from ones stalls at 1.
        v = np.array([[1.0, -1.0, 0.0, 0.0], [0.5, 0.5, 0.5, 0.5],
                      [0.5, 0.5, -0.5, -0.5], [0.0, 0.0, 1.0, -1.0]])
        v[[0, 3]] /= math.sqrt(2.0)
        m = np.diag([2.0, 1.0, 0.5, 0.25]) @ v
        assert nl.spectral_norm(m) == pytest.approx(2.0, rel=1e-15)

    def test_tiny_2x2_is_exact(self):
        assert nl.spectral_norm(np.diag([1e-170, 5e-171])) == 1e-170
        assert nl.spectral_norm(np.array([[0.0, 1e-170], [-1e-170, 0.0]])) \
            == pytest.approx(1e-170, rel=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 6), seed=st.integers(0, 2 ** 32 - 1),
           log_scale=st.floats(-300.0, 150.0))
    def test_planted_singular_values(self, n, seed, log_scale):
        rng = np.random.default_rng(seed)
        u = np.linalg.qr(rng.normal(size=(n, n)))[0]
        v = np.linalg.qr(rng.normal(size=(n, n)))[0]
        sigma = 10.0 ** log_scale * rng.uniform(0.01, 1.0, size=n)
        m = (u * sigma) @ v.T
        assert nl.spectral_norm(m) == pytest.approx(float(np.max(sigma)), rel=1e-12)


class TestProjectionFamily:
    def test_trivial_families(self):
        z = ProjectionFamily.zero(3)
        i = ProjectionFamily.identity(3)
        assert np.all(z.unstable(0.0) == 0.0)
        assert np.all(i.unstable(1.5) == np.eye(3))
        assert z.descriptor == "zero" and i.descriptor == "identity"

    def test_idempotence_defect(self):
        p = ProjectionFamily.constant(np.array([[1.0, 1.0], [0.0, 0.0]]))
        assert p.idempotence_defect([0.0, 1.0]) == pytest.approx(0.0)
        q = ProjectionFamily.constant(np.array([[0.5, 0.0], [0.0, 0.0]]))
        assert q.idempotence_defect([0.0]) > 0.1


class TestScalarProcesses:
    def test_exponent_process_closed_form(self):
        p = ScalarExponentProcess(lambda t, s: -(t - s))
        assert p.propagate(2.0, 0.0, 1.0)[0] == pytest.approx(math.exp(-2.0))
        assert p.propagate(0.0, 2.0, 1.0)[0] == pytest.approx(math.exp(2.0))

    def test_cocycle_identity(self):
        p = ScalarExponentProcess(lambda t, s: math.sin(t) - math.sin(s))
        lhs = p.propagate(3.0, 1.0, 1.0)[0]
        rhs = p.propagate(3.0, 2.0, p.propagate(2.0, 1.0, 1.0))[0]
        assert lhs == pytest.approx(rhs, rel=1e-14)

    def test_coefficient_quadrature_matches_antiderivative(self):
        exact = nl.ScalarCoefficientProcess(
            lambda t: math.cos(t), antiderivative=lambda t: math.sin(t))
        quadr = nl.ScalarCoefficientProcess(lambda t: math.cos(t))
        for (t, s) in [(1.0, 0.0), (4.0, -2.0), (-1.0, -3.0)]:
            assert quadr.propagate(t, s, 1.0)[0] == pytest.approx(
                exact.propagate(t, s, 1.0)[0], rel=1e-10)

    def test_domain_enforced(self):
        p = ScalarExponentProcess(lambda t, s: s - t,
                                  domain=nl.HALF_LINE_PLUS)
        with pytest.raises(DomainError):
            p.propagate(1.0, -1.0, 1.0)

    def test_overflow_escape(self):
        p = ScalarExponentProcess(lambda t, s: 1e6 * (t - s))
        with pytest.raises(FiniteEscapeError) as err:
            p.propagate(10.0, 0.0, 1.0)
        assert 0.0 < err.value.escape_time <= 10.0


class TestIntegratedLinearProcess:
    def test_autonomous_matches_expm(self):
        a = np.array([[-1.0, 1.0], [0.0, -2.0]])
        p = nl.IntegratedLinearProcess(lambda t: a, 2)
        from scipy.linalg import expm
        got = p.matrix(1.5, 0.0)
        assert np.max(np.abs(got - expm(1.5 * a))) < 1e-8

    def test_backward_requires_invertible(self):
        a = np.array([[-1.0]])
        p = nl.IntegratedLinearProcess(lambda t: a, 1, invertible=False)
        with pytest.raises(DomainError):
            p.matrix(0.0, 1.0)
        q = nl.IntegratedLinearProcess(lambda t: a, 1, invertible=True)
        assert q.matrix(0.0, 1.0)[0, 0] == pytest.approx(math.e, rel=1e-8)


class TestDualProcess:
    def test_transpose_relation(self, barreira):
        d = nl.dual_process(barreira.process)
        t, s = 2.0, 0.5
        assert d.matrix(t, s)[0, 0] == pytest.approx(
            barreira.process.matrix(s, t)[0, 0])

    def test_requires_invertible(self):
        p = nl.IntegratedLinearProcess(lambda t: np.array([[-1.0]]), 1)
        with pytest.raises(DomainError):
            nl.dual_process(p)


class TestNormGrid:
    def test_sample_and_roundtrip(self, tmp_path, barreira):
        g = GridSpec(0.0, 2.0, 0.5)
        sampled = nl.sample_norm_grid(barreira.process, None, g, part="stable")
        assert sampled.samples.shape[1] == 3
        path = tmp_path / "grid.csv"
        sampled.to_csv(path)
        back = nl.NormGrid.from_csv(path)
        assert np.allclose(back.samples, sampled.samples)
        assert back.part == "stable"

    def test_fast_path_matches_loop(self, barreira, dirichlet_31):
        g = GridSpec(-2.0, 2.0, 1.0)
        fast = nl.sample_norm_grid(barreira.process, None, g, part="stable")
        slow_rows = []
        tv, sv = g.pairs("stable")
        for t, s in zip(tv, sv):
            slow_rows.append(nl.operator_norm(barreira.process, float(t),
                                              float(s), None, log=True))
        assert np.allclose(fast.samples[:, 2], slow_rows)

        # Every other kernel that is not chained against one operator_norm
        # per pair: quadrature exponents, a separable PDE, and a closed form
        # that escapes for 1.15 < t - s <= 1.5 and is exactly zero beyond.
        def escape_then_vanish(t, s):
            if t - s > 1.5:
                return np.zeros((2, 2))
            return np.array([[math.exp(300.0 * (t - s)), 1.0], [0.0, 1.0]])
        g = GridSpec(-2.0, 2.0, 0.5)
        for process, poisoned, vanished in [
                (nl.ScalarCoefficientProcess(lambda r: math.sin(r) - 0.5), 0, 0),
                (nl.pde_process(dirichlet_31, separable_g=math.cos), 0, 0),
                (nl.MatrixClosedFormProcess(escape_then_vanish, 2), 6, 15)]:
            sampled = nl.sample_norm_grid(process, None, g)
            rows, escaped = _per_pair_grid(process, None, g, "stable")
            assert len(escaped) == poisoned and set(sampled.poisoned) == escaped
            kept = [(t, s, v) for (t, s), v in rows.items() if v > -math.inf]
            assert len(rows) - len(kept) == vanished
            assert len(sampled.samples) == len(kept)
            assert np.allclose(sampled.samples, kept, rtol=0.0, atol=1e-12)

    def test_quadrature_once_per_mesh_time(self):
        process = nl.ScalarCoefficientProcess(lambda r: math.sin(r) - 0.5)
        calls = []
        real = process._cumulative

        def spy(t):
            calls.append(float(t))
            return real(t)
        process._cumulative = spy
        grid = GridSpec(-2.0, 2.0, 0.25)
        sampled = nl.sample_norm_grid(process, None, grid)
        assert len(sampled.samples) == len(grid.pairs("stable")[0])
        assert sorted(calls) == grid.mesh().tolist()

    def test_projection_shortcuts(self, barreira):
        g = GridSpec(0.0, 1.0, 0.5)
        z = ProjectionFamily.zero(1)
        # Stable part with zero unstable projection is the full norm.
        a = nl.sample_norm_grid(barreira.process, z, g, part="stable")
        b = nl.sample_norm_grid(barreira.process, None, g, part="stable")
        assert np.allclose(a.samples, b.samples)


class TestConfigLoading:
    def test_gallery_family(self, tmp_path):
        cfg = {"backend": "closed-form-exponent", "family": "barreira",
               "params": {"a": 1.0, "b": 2.0}}
        p = nl.load_process_config(cfg)
        assert p.propagate(math.pi, 0.0, 1.0)[0] == pytest.approx(
            math.exp(-3 * math.pi))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        q = nl.load_process_config(path)
        assert q.propagate(1.0, 0.0, 1.0)[0] == pytest.approx(
            p.propagate(1.0, 0.0, 1.0)[0])

    def test_integrated_constant(self):
        p = nl.load_process_config({"backend": "numerically-integrated",
                                    "coefficient": "constant",
                                    "params": {"rate": -2.0}})
        assert p.propagate(1.0, 0.0, 1.0)[0] == pytest.approx(math.exp(-2.0))

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            nl.load_process_config({"backend": "quantum"})
        with pytest.raises(ValueError):
            nl.load_process_config({"backend": "closed-form-exponent"})


class PlantedIntegrated:
    """x' = Q diag(a_i(t)) Q^-1 x with a_i = r_i + e_i sin(t + p_i), so
    S(t, s) = Q diag(exp(int_s^t a_i)) Q^-1 in closed form."""

    rates = np.array([-1.0, 0.5])
    eps = np.array([0.2, 0.15])
    phase = np.array([0.3, 1.1])

    def __init__(self, invertible):
        c, s = math.cos(0.7), math.sin(0.7)
        self.q = np.array([[c, -s], [s, c]]) @ np.diag([1.0, 1.4])
        self.q_inv = np.linalg.inv(self.q)
        self.unstable = self.q @ np.diag([0.0, 1.0]) @ self.q_inv
        self.process = nl.IntegratedLinearProcess(
            lambda t: self.q @ np.diag(self.rates + self.eps * np.sin(t + self.phase))
            @ self.q_inv, 2, invertible=invertible)

    def matrix(self, t, s):
        e = self.rates * (t - s) - self.eps * (np.cos(t + self.phase) - np.cos(s + self.phase))
        return self.q @ np.diag(np.exp(e)) @ self.q_inv

    def log_norm(self, t, s, proj):
        m = self.matrix(t, s) @ proj
        return math.log(float(np.linalg.svd(m, compute_uv=False)[0]))


def _per_pair_grid(process, projection, grid, part):
    """Reference: one operator_norm per pair, escapes recorded as poisoned."""
    rows, poisoned = {}, set()
    for t, s in zip(*grid.pairs(part)):
        try:
            rows[(t, s)] = nl.operator_norm(process, float(t), float(s), projection,
                                            part=part, log=True)
        except FiniteEscapeError:
            poisoned.add((float(t), float(s)))
    return rows, poisoned


class TestChainedNormGrid:
    # Irregular mesh: pinned 0, two extra points and a short last step.
    IRREGULAR = GridSpec(-1.3, 3.1, 0.5, extra_points=(0.45, 2.95))

    @pytest.mark.parametrize("grid", [GridSpec(0.0, 5.0, 0.25), IRREGULAR])
    @pytest.mark.parametrize("part", ["stable", "unstable"])
    @pytest.mark.parametrize("projection", ["none", "explicit", "zero"])
    def test_planted_closed_form(self, grid, part, projection):
        planted = PlantedIntegrated(invertible=True)
        family = {"none": None, "zero": ProjectionFamily.zero(2),
                  "explicit": ProjectionFamily.constant(planted.unstable)}[projection]
        sampled = nl.sample_norm_grid(planted.process, family, grid, part=part)
        tv, sv = grid.pairs(part)
        assert sampled.poisoned == []
        if projection == "zero" and part == "unstable":
            assert sampled.samples.shape == (0, 3)
            return
        if family is None:
            proj = np.eye(2)
        else:
            proj = family.stable(0.0) if part == "stable" else family.unstable(0.0)
        # Rows come in grid.pairs(part) order, with the mesh times themselves.
        assert np.array_equal(sampled.samples[:, 0], tv)
        assert np.array_equal(sampled.samples[:, 1], sv)
        want = [planted.log_norm(t, s, proj) for t, s in zip(tv, sv)]
        assert np.max(np.abs(sampled.samples[:, 2] - want)) < 1e-9

    def test_non_invertible_unstable_part_is_a_domain_error(self):
        planted = PlantedIntegrated(invertible=False)
        with pytest.raises(DomainError):
            nl.sample_norm_grid(planted.process, None, GridSpec(0.0, 1.0, 0.5),
                                part="unstable")

    @pytest.mark.parametrize("part", ["stable", "unstable"])
    def test_one_solve_per_mesh_interval(self, ode_solves, part):
        grid = self.IRREGULAR
        nl.sample_norm_grid(PlantedIntegrated(invertible=True).process, None, grid,
                            part=part)
        assert ode_solves() == len(grid.mesh()) - 1

    @pytest.mark.parametrize("rate, explicit", [
        (500.0, False),    # no step escapes; the running product passes the guard
        (500.0, True),     # ... also where P(s) removes the growing direction
        (1500.0, False),   # every step solve escapes by itself
    ])
    def test_escape_poisons_at_least_the_per_pair_set(self, rate, explicit):
        grid = GridSpec(0.0, 1.0, 0.5)
        # Rotating the growing direction makes the step products non-normal.
        q = np.array([[1.0, 0.5], [0.0, 1.0]])
        a = q @ np.diag([rate, -1.0]) @ np.linalg.inv(q)
        process = nl.IntegratedLinearProcess(lambda t: a, 2)
        family = (ProjectionFamily.constant(q @ np.diag([0.0, 1.0]) @ np.linalg.inv(q))
                  if explicit else None)
        chained = nl.sample_norm_grid(process, family, grid)
        rows, poisoned = _per_pair_grid(process, family, grid, "stable")
        assert poisoned and poisoned <= set(chained.poisoned)
        # A poisoned pair poisons every later pair from the same s.
        for t, s in chained.poisoned:
            assert all((u, s) in chained.poisoned for u in grid.mesh() if u > t)
        for t, s, v in chained.samples:
            assert v == pytest.approx(rows[(t, s)], abs=1e-8)


class TestAdjointDual:
    @staticmethod
    def non_normal():
        # PlantedIntegrated's basis R diag(1, 1.4) makes every S(t, s)
        # symmetric, which would hide a missing transpose.
        planted = PlantedIntegrated(invertible=True)
        planted.q = np.array([[1.0, 0.6], [0.1, 1.3]])
        planted.q_inv = np.linalg.inv(planted.q)
        return planted

    def closed_form(self, planted, t, s):
        e = planted.rates * (t - s) - planted.eps * (np.cos(t + planted.phase)
                                                     - np.cos(s + planted.phase))
        return planted.q @ np.diag(np.exp(e)) @ planted.q_inv

    def test_is_an_integrated_process(self):
        planted = PlantedIntegrated(invertible=True)
        dual = nl.dual_process(planted.process)
        assert isinstance(dual, nl.IntegratedLinearProcess)
        assert dual.primal is planted.process and dual.invertible

    @pytest.mark.parametrize("t, s", [(2.0, 0.5), (3.1, -1.3), (4.0, 0.0),
                                      (0.5, 2.0), (-1.3, 3.1), (0.0, 4.0)])
    def test_matches_transposed_closed_form(self, t, s):
        planted = self.non_normal()
        got = nl.dual_process(planted.process).matrix(t, s)
        want = self.closed_form(planted, s, t).T
        assert abs(math.log(nl.spectral_norm(got))
                   - math.log(float(np.linalg.svd(want, compute_uv=False)[0]))) < 1e-9
        # The norm alone cannot tell T from T^T; the entries can.
        assert np.max(np.abs(got - want)) < 1e-9 * np.max(np.abs(want))

    @pytest.mark.parametrize("part", ["stable", "unstable"])
    def test_grid_is_chained_and_matches_per_pair(self, monkeypatch, part):
        dual = nl.dual_process(self.non_normal().process)
        chained = []
        real = nl.process._chained_log_norms

        def spy(*args, **kwargs):
            chained.append(1)
            return real(*args, **kwargs)
        monkeypatch.setattr(nl.process, "_chained_log_norms", spy)
        grid = TestChainedNormGrid.IRREGULAR
        sampled = nl.sample_norm_grid(dual, None, grid, part=part)
        assert chained == [1]
        rows, poisoned = _per_pair_grid(dual, None, grid, part)
        assert sampled.poisoned == [] and poisoned == set()
        assert len(sampled.samples) == len(rows)
        assert max(abs(v - rows[(t, s)]) for t, s, v in sampled.samples) < 1e-9


class TestMatrixPath:
    @pytest.mark.parametrize("s, t_end", [(0.3, 1.3), (1.3, 0.3)])
    def test_integrated_path_matches_matrix(self, s, t_end):
        process = PlantedIntegrated(invertible=True).process
        path = process.matrix_path(s, t_end)
        for tau in np.linspace(s, t_end, 9):
            assert np.max(np.abs(path(tau) - process.matrix(tau, s))) < 1e-9

    def test_one_solve_per_path(self, ode_solves):
        path = PlantedIntegrated(invertible=True).process.matrix_path(0.0, 1.0)
        for tau in np.linspace(0.0, 1.0, 11):
            path(tau)
        assert ode_solves() == 1

    def test_default_path_is_matrix(self, barreira):
        path = barreira.process.matrix_path(0.5, 1.5)
        for tau in (0.5, 0.9, 1.5):
            assert np.array_equal(path(tau), barreira.process.matrix(tau, 0.5))

    def test_escape_surfaces_past_the_escape_time(self):
        # ||S(tau, 0)|| = e^{500 tau} passes the guard near tau = 0.69.
        process = nl.IntegratedLinearProcess(lambda t: np.diag([500.0, -1.0]), 2)
        path = process.matrix_path(0.0, 1.0)
        assert path(0.5)[0, 0] == pytest.approx(math.exp(250.0), rel=1e-8)
        with pytest.raises(FiniteEscapeError) as err:
            path(0.8)
        assert 0.6 < err.value.escape_time < 0.8
        with pytest.raises(FiniteEscapeError):
            process.matrix(0.8, 0.0)

    def test_span_and_domain(self):
        a = np.array([[-1.0]])
        process = nl.IntegratedLinearProcess(lambda t: a, 1, domain=nl.HALF_LINE_MINUS)
        path = process.matrix_path(-0.5, 0.5)  # clipped to the domain end 0
        assert path(0.0)[0, 0] == pytest.approx(math.exp(-0.5), rel=1e-9)
        with pytest.raises(DomainError):
            path(0.25)
        with pytest.raises(DomainError):
            process.matrix_path(-0.5, -1.0)  # backward, not invertible
        process.invertible = True
        short = process.matrix_path(-0.5, -0.25)
        for tau in (-0.75, -0.1):  # before the anchor or past t_end
            with pytest.raises(ValueError) as err:
                short(tau)
            assert type(err.value) is ValueError


class _CoefficientFailure(Exception):
    pass


class TestCompiledSolves:
    """``matrix``, ``propagate`` and ``_step`` of an integrated process run
    on the compiled DOP853 driver of nedlab.process."""

    PAIRS = [(2.0, 0.5), (0.5, 2.0), (3.1, -1.3), (-1.3, 3.1)]

    @pytest.mark.parametrize("t, s", PAIRS)
    def test_planted_closed_form(self, t, s):
        planted = PlantedIntegrated(invertible=True)
        want = planted.matrix(t, s)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(planted.process.matrix(t, s) - want)) <= 1e-9 * scale
        step, peak = planted.process._step(t, s)
        assert np.max(np.abs(step - want)) <= 1e-9 * scale
        x = np.array([0.3, -1.2])
        assert np.max(np.abs(planted.process.propagate(t, s, x) - want @ x)) <= 1e-9 * scale
        # The peak is the largest Frobenius norm at the step ends, S(s, s) = Id
        # and S(t, s) among them.
        taus = np.linspace(s, t, 4001)
        top = max(np.linalg.norm(planted.matrix(tau, s)) for tau in taus)
        assert max(math.sqrt(2.0), np.linalg.norm(want)) <= peak * (1 + 1e-9)
        assert peak <= top * (1 + 1e-6)

    def test_counts_solves_and_evaluations(self):
        calls = [0]

        def coefficient(t):
            calls[0] += 1
            return np.array([[-1.0, 0.3], [0.0, -2.0]])
        process = nl.IntegratedLinearProcess(coefficient, 2)
        solver = nl.process._SOLVER
        solves, stats = solver.solves, solver.stats.copy()
        process.matrix(1.5, 0.0)
        process.propagate(0.0, -1.0, np.ones(2))
        nfev, steps, accepted, rejected = solver.stats - stats
        assert solver.solves - solves == 2
        assert nfev == calls[0]
        assert 2 <= accepted and accepted + rejected <= steps

    def test_coefficient_is_released(self):
        def coefficient(t):
            return np.array([[-1.0]])
        ref = weakref.ref(coefficient)
        process = nl.IntegratedLinearProcess(coefficient, 1)
        process.matrix(1.0, 0.0)
        process._step(2.0, 1.0)
        del coefficient, process
        gc.collect()
        assert ref() is None

    def test_raising_coefficient_is_reraised(self):
        calls = [0]
        failure = _CoefficientFailure("30th call")

        def coefficient(t):
            calls[0] += 1
            if calls[0] == 30:
                raise failure
            return np.array([[-1.0]])
        with pytest.raises(_CoefficientFailure) as err:
            nl.IntegratedLinearProcess(coefficient, 1).matrix(5.0, 0.0)
        assert err.value is failure and calls[0] == 30
        planted = PlantedIntegrated(invertible=True)
        want = planted.matrix(2.0, 0.5)
        assert np.max(np.abs(planted.process.matrix(2.0, 0.5) - want)) <= 1e-9 * np.max(want)

    def test_nan_coefficient_fails(self):
        process = nl.IntegratedLinearProcess(lambda t: np.array([[math.nan]]), 1)
        with pytest.raises(RuntimeError, match="^integration failed: "):
            process.matrix(1.0, 0.0)

    def test_escape_is_the_end_of_the_first_step_past_the_guard(self):
        # ||S(tau, 0)||_F = e^{500 tau} passes the guard near tau = 0.69.
        process = nl.IntegratedLinearProcess(lambda t: np.diag([500.0, -1.0]), 2)
        for solve in (lambda: process.matrix(0.8, 0.0),
                      lambda: process.propagate(0.8, 0.0, np.array([1.0, 0.0])),
                      lambda: process._step(0.8, 0.0)):
            with pytest.raises(FiniteEscapeError) as err:
                solve()
            assert 0.6 < err.value.escape_time < 0.8

    def test_reentry_raises(self):
        inner = nl.IntegratedLinearProcess(lambda t: np.array([[-1.0]]), 1)
        outer = nl.IntegratedLinearProcess(lambda t: inner.matrix(t + 1.0, t), 1)
        with pytest.raises(RuntimeError, match="re-entered"):
            outer.matrix(1.0, 0.0)
        assert inner.matrix(1.0, 0.0)[0, 0] == pytest.approx(math.exp(-1.0), rel=1e-10)

    def test_threads_match_serial_solves(self):
        # Each thread drives its own solver; state shared across threads
        # would mix the solves below.
        processes = [PlantedIntegrated(invertible=True).process for _ in range(3)]
        jobs = [(processes[i % 3], t + 0.1 * i, s)
                for i, (t, s) in enumerate(self.PAIRS * 3)]
        serial = [p.matrix(t, s) for p, t, s in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(lambda job: job[0].matrix(job[1], job[2]),
                                         jobs, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(serial, threaded):
            assert np.array_equal(a, b)


class TestEscapeGuards:
    def test_closed_form_guard_takes_no_svd(self, monkeypatch):
        # One SVD per pair, for the norm; the escape guard uses Frobenius.
        calls = []
        real = np.linalg.svd

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)
        q = np.array([[1.0, 0.3], [0.2, 1.0]])
        q_inv = np.linalg.inv(q)
        process = nl.MatrixClosedFormProcess(
            lambda t, s: q @ np.diag([math.exp(-(t - s)), math.exp(t - s)]) @ q_inv, 2)
        grid = GridSpec(0.0, 2.0, 0.5)
        monkeypatch.setattr(np.linalg, "svd", counting)
        for proc in (process, nl.dual_process(process)):
            calls.clear()
            sampled = nl.sample_norm_grid(proc, None, grid)
            assert len(sampled.samples) == 15
            assert len(calls) <= 15

    def test_closed_form_escape_still_poisons(self):
        process = nl.MatrixClosedFormProcess(
            lambda t, s: np.diag([math.exp(300.0 * (t - s)), 1.0]), 2)
        sampled = nl.sample_norm_grid(process, None, GridSpec(0.0, 2.0, 0.5))
        assert sorted(sampled.poisoned) == [(1.5, 0.0), (2.0, 0.0), (2.0, 0.5)]

    def test_nan_norm_is_poisoned_not_vanished(self):
        process = ScalarExponentProcess(lambda t, s: math.nan if t > 0.6 else -(t - s))
        family = ProjectionFamily.constant([[0.0]])  # explicit: one norm per pair
        with pytest.raises(FiniteEscapeError):
            nl.operator_norm(process, 1.0, 0.0, family, log=True)
        sampled = nl.sample_norm_grid(process, family, GridSpec(0.0, 1.0, 0.5))
        assert sorted(sampled.poisoned) == [(1.0, 0.0), (1.0, 0.5), (1.0, 1.0)]
        assert len(sampled.samples) == 3

    def test_vanished_pairs_are_skipped_on_every_path(self):
        # S(t, s) = 0 once t - s > 0.75: the vectorized identity-factor path
        # must drop those pairs as the per-pair explicit path does.
        process = ScalarExponentProcess(
            lambda t, s: np.where(np.asarray(t) - np.asarray(s) > 0.75, -np.inf,
                                  -(np.asarray(t) - np.asarray(s))))
        grid = GridSpec(0.0, 2.0, 0.5)
        fast = nl.sample_norm_grid(process, None, grid)
        slow = nl.sample_norm_grid(process, ProjectionFamily.constant([[0.0]]), grid)
        assert len(fast.samples) == 9 and fast.poisoned == []
        assert np.array_equal(fast.samples, slow.samples)
        for sampled in (fast, slow):
            assert nl.fit_bounds(sampled, "II", "stable", [0.5]).entries == [(0.5, 0.0, 0.0)]
        cert = nl.DichotomyCertificate("II", nl.FULL_LINE, 1.0, nl.ExponentPair(1.0, 0.0))
        assert nl.check_certificate(process, cert, grid) == 0.0

    def test_identity_factor_norm_escapes_like_matrix(self):
        # The identity-factor branch reads the norm off the exponent; it
        # must escape wherever ``matrix`` does.
        for exponent in (lambda t, s: 800.0 * (t - s), lambda t, s: math.nan):
            process = ScalarExponentProcess(exponent)
            for log in (False, True):
                with pytest.raises(FiniteEscapeError):
                    nl.operator_norm(process, 1.0, 0.0, log=log)
            with pytest.raises(FiniteEscapeError):
                process.matrix(1.0, 0.0)
        sampled = nl.sample_norm_grid(ScalarExponentProcess(lambda t, s: 800.0 * (t - s)),
                                      None, GridSpec(0.0, 1.0, 1.0))
        assert sampled.poisoned == [(1.0, 0.0)]
        within = ScalarExponentProcess(lambda t, s: 300.0 * (t - s))
        assert nl.operator_norm(within, 1.0, 0.0, log=True) == 300.0

    def test_scalar_log_norm_is_read_in_the_exponent(self):
        # e^{-800} underflows to 0.0: a log norm read through ``matrix``
        # would drop the pair (1, 0) as vanished and hide its violation.
        process = ScalarExponentProcess(lambda t, s: -800.0 * (t - s))
        explicit = ProjectionFamily.constant([[0.0]])
        assert nl.operator_norm(process, 1.0, 0.0, log=True) == -800.0
        assert nl.operator_norm(process, 1.0, 0.0, explicit, log=True) == -800.0
        assert nl.operator_norm(process, 1.0, 0.0, explicit, part="unstable",
                                log=True) == -math.inf
        grid = GridSpec(0.0, 1.0, 1.0)
        violations = [nl.check_certificate(process, nl.DichotomyCertificate(
            "II", nl.FULL_LINE, 1.0, nl.ExponentPair(900.0, 0.0), projection=kind,
            projection_family=family), grid)
            for kind, family in (("explicit", explicit), ("zero", None))]
        assert violations == [100.0, 100.0]

    def test_nan_exponent_is_an_escape(self):
        # `e > guard` is False for NaN; the guard must not let it through.
        process = ScalarExponentProcess(lambda t, s: math.nan)
        with pytest.raises(FiniteEscapeError):
            process.matrix(1.0, 0.0)
        with pytest.raises(FiniteEscapeError):
            process.propagate(1.0, 0.0, [1.0])

    def test_only_an_exact_zero_norm_is_minus_inf(self):
        process = nl.MatrixClosedFormProcess(lambda t, s: np.zeros((2, 2)), 2)
        assert nl.operator_norm(process, 1.0, 0.0, log=True) == -math.inf
        tiny = nl.MatrixClosedFormProcess(lambda t, s: 1e-300 * np.eye(2), 2)
        assert nl.operator_norm(tiny, 1.0, 0.0, log=True) == pytest.approx(
            math.log(1e-300))


class TestWriteText:
    def test_shorter_rewrite_leaves_exactly_the_new_bytes(self, tmp_path):
        path = tmp_path / "artifact.txt"
        nl.process._write_text(path, "x" * 5000 + "\n")
        nl.process._write_text(path, "short\n")
        assert path.read_bytes() == b"short\n"
        nl.process._write_text(tmp_path / "fresh.txt", "new\n")
        assert (tmp_path / "fresh.txt").read_bytes() == b"new\n"

    def test_artifact_writers_rewrite_in_place(self, tmp_path, barreira):
        path = tmp_path / "grid.csv"
        long_grid = nl.sample_norm_grid(barreira.process, None, GridSpec(0.0, 8.0, 0.25))
        short_grid = nl.sample_norm_grid(barreira.process, None, GridSpec(0.0, 1.0, 0.5))
        long_grid.to_csv(path)
        short_grid.to_csv(path)
        fresh = tmp_path / "fresh.csv"
        short_grid.to_csv(fresh)
        assert path.read_bytes() == fresh.read_bytes()
        assert len(nl.NormGrid.from_csv(path).samples) == len(short_grid.samples)
