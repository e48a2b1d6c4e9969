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
from nedlab.gallery import make_entry
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

    @pytest.mark.parametrize("bounds", [(0.0, math.inf, 1.0), (0.0, 1.0, math.inf),
                                        (-math.inf, 0.0, 0.5), (0.0, math.nan, 0.5),
                                        (math.nan, 1.0, 0.5), (0.0, 1.0, math.nan)])
    def test_non_finite_bounds_are_rejected(self, bounds):
        # A non-finite bound has no mesh: an infinite stop is no count of
        # steps, and an infinite step would leave only the stop point.
        with pytest.raises(ValueError, match="finite"):
            GridSpec(*bounds)

    @pytest.mark.parametrize("grid, want", [
        (GridSpec(0.0, 1.0 / 3.0, 0.1), [0.0, 0.1, 0.2, 0.3, 1.0 / 3.0]),
        (GridSpec(0.0, 1e-13, 1e-14), [0.0, 1e-13]),
        (GridSpec(-1.0 / 3.0, 1.0 / 3.0, 0.25), [-1.0 / 3.0, -0.083333333333, 0.0,
                                                0.166666666667, 1.0 / 3.0]),
        (GridSpec(0.0, math.nextafter(1.0 / 3.0, 1.0), 1.0 / 30.0), None),
    ])
    def test_endpoints_are_exact(self, grid, want):
        mesh = grid.mesh()
        assert mesh[0] == grid.start and mesh[-1] == grid.stop
        assert np.all(np.diff(mesh) > 0)
        assert np.all((grid.start <= mesh) & (mesh <= grid.stop))
        if want is not None:
            assert mesh.tolist() == want
        else:   # the last lattice point, 1/3, rounds as the stop does: they merge
            assert len(mesh) == 11 and 1.0 / 3.0 not in mesh

    def test_endpoint_collapse_does_not_hide_a_violation(self):
        # x' = x against kind II with M = 1, rate 1, growth 0: the violation
        # on a pair is 2 (t - s), so it is positive on every grid.
        process = nl.ScalarCoefficientProcess(lambda t: 1.0, antiderivative=lambda t: t)
        cert = nl.DichotomyCertificate("II", nl.FULL_LINE, 1.0, nl.ExponentPair(1.0, 0.0))
        assert nl.check_certificate(process, cert, GridSpec(0.0, 1e-13, 1e-14)) == 2e-13
        assert nl.check_certificate(process, cert, GridSpec(0.0, 2e-12, 1e-12)) == 4e-12

    def test_signed_zero_start_meshes_to_the_same_bits(self, monkeypatch):
        for first, second in [(-0.0, 0.0), (0.0, -0.0)]:
            monkeypatch.setattr(nl.process, "_GRID_MEMO", nl.process._ArrayMemo(4 << 20))
            a = GridSpec(first, 1.0, 0.5).mesh()
            monkeypatch.setattr(nl.process, "_GRID_MEMO", nl.process._ArrayMemo(4 << 20))
            b = GridSpec(second, 1.0, 0.5).mesh()
            assert a.tobytes() == b.tobytes() == np.array([0.0, 0.5, 1.0]).tobytes()

    def test_memoised_arrays_are_read_only(self):
        grid = GridSpec(-2.0, 2.0, 0.5)
        for part in ("stable", "unstable"):
            for array in grid._pair_index(part):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 7
        mesh = grid.mesh()
        assert mesh.flags.writeable
        mesh[0] = 7.0
        assert grid.mesh()[0] == -2.0 and grid._pair_index("stable")[0][0] == -2.0

    def test_memo_stays_under_its_byte_cap(self, monkeypatch):
        memo = nl.process._ArrayMemo(nl.process._GRID_MEMO.budget)
        monkeypatch.setattr(nl.process, "_GRID_MEMO", memo)
        process = ScalarExponentProcess(lambda t, s: -(t - s))
        # 401 to 801 points: up to 5.1 MB of stable indices for one grid.
        for k, points in enumerate(range(401, 802, 50)):
            grid = GridSpec(0.0, (points - 1) * 0.01, 0.01)
            for part in ("stable", "unstable"):
                sampled = nl.sample_norm_grid(process, None, grid, part=part)
                assert len(sampled.samples) == len(grid.pairs(part)[0])
                assert 0 < memo.nbytes <= memo.budget
                assert memo.nbytes == sum(a.nbytes for v in memo._values.values() for a in v)
        # The largest grid's indices were rebuilt, not kept.
        assert (801, "stable") not in memo._values and (701, "unstable") in memo._values

    def test_memo_keeps_its_count_under_threads(self, monkeypatch):
        memo = nl.process._ArrayMemo(1 << 20)
        monkeypatch.setattr(nl.process, "_GRID_MEMO", memo)
        grids = [GridSpec(0.0, 0.5 * k, 0.05) for k in range(1, 41)]

        def read(grid):
            return [grid.pairs(part) for part in ("stable", "unstable")]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(8) as pool:
                futures = [pool.submit(read, grid) for grid in grids * 4]
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert memo.nbytes == sum(a.nbytes for v in memo._values.values() for a in v)
        assert 0 < memo.nbytes <= memo.budget
        for grid, pairs in zip(grids * 4, results):
            for part, (tv, sv) in zip(("stable", "unstable"), pairs):
                want = _meshgrid_pairs(grid, part)
                assert np.array_equal(tv, want[0]) and np.array_equal(sv, want[1])


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

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_stacked_norms_are_bit_identical(self, n):
        rng = np.random.default_rng(n)
        stack = rng.normal(size=(9, n, n))
        stack[1] = 0.0
        stack[2, 0, 0] = math.nan
        stack[3, -1, 0] = math.inf
        stack[4, 0, -1] = -math.inf
        stack[5] *= 1e-170
        stack[6] *= 1e150
        stack[7, 0, 0] = 0.0
        got = nl.process._spectral_norms(stack)
        want = np.array([nl.spectral_norm(m) for m in stack])
        assert got.shape == (9,)
        assert np.array_equal(got, want, equal_nan=True)
        assert nl.process._spectral_norms(stack[6]) == want[6]
        assert nl.process._spectral_norms(stack[:0]).shape == (0,)


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
        assert q.idempotence_defect([]) == 0.0

    def test_nan_is_reported(self, barreira):
        # max(0.0, nan) is 0.0: a max() loop would read this family as exact.
        nan_at_one = ProjectionFamily(
            lambda t: np.full((1, 1), math.nan if t == 1.0 else 0.0), 1)
        assert math.isnan(nan_at_one.idempotence_defect([0.0, 1.0, 2.0]))
        assert math.isnan(nan_at_one.invariance_defect(barreira.process,
                                                       [(1.0, 0.0), (2.0, 1.0)]))
        assert nan_at_one.invariance_defect(barreira.process, [(2.0, 0.0)]) == 0.0


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

    @pytest.mark.parametrize("antiderivative", [None, lambda t: math.sin(t)],
                             ids=["quadrature", "antiderivative"])
    def test_coefficient_exponent_same_bits_for_every_input_type(self, antiderivative):
        p = nl.ScalarCoefficientProcess(lambda t: math.cos(t),
                                        antiderivative=antiderivative)
        for (t, s) in [(1.0, 0.0), (4.0, -2.0), (-1.0, -3.0)]:
            want = p.exponent(t, s)
            assert type(want) is float
            assert p.exponent(np.float64(t), np.float64(s)) == want
            assert p.exponent(t, np.float64(s)) == want
            assert p.exponent(np.array([t]), np.array([s]))[0] == want

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

    def test_scalar_dual_reads_the_exponent(self):
        # e^{-800} underflows to 0: a dual that reads the primal matrix
        # dropped every pair as vanished.
        d = nl.dual_process(ScalarExponentProcess(lambda t, s: -800.0 * (t - s)))
        assert isinstance(d, ScalarExponentProcess)
        sampled = nl.sample_norm_grid(d, None, GridSpec(0.0, 2.0, 1.0), part="unstable")
        assert sampled.samples[:, 2].tolist() == [-800.0, -1600.0, -800.0]
        assert sampled.poisoned == []
        assert nl.operator_norm(d, 0.0, 1.0, log=True) == -800.0


def _exponent_dual(process):
    """The dual of a coefficient process as a per-pair exponent wrapper."""
    return ScalarExponentProcess(lambda t, s: process.log_propagator(s, t),
                                 domain=process.domain)


def _poisoned_coefficient():
    # F is inf from t = 2 on and NaN at t = -1: the stable dual part has
    # vanished (-inf) and NaN pairs, the unstable part inf and NaN pairs.
    return nl.ScalarCoefficientProcess(
        lambda t: -1.0,
        antiderivative=lambda t: math.inf if t >= 2.0 else (math.nan if t == -1.0 else -t))


class TestCoefficientDual:
    @pytest.mark.parametrize("part", ["stable", "unstable"])
    @pytest.mark.parametrize("make", [
        lambda: make_entry("barreira").process,
        lambda: make_entry("smooth-limits").process,
        _poisoned_coefficient,
    ], ids=["closed-form", "quadrature", "inf-nan"])
    def test_grids_match_the_exponent_wrapper(self, make, part):
        primal = make()
        dual = nl.dual_process(primal)
        assert isinstance(dual, nl.ScalarCoefficientProcess) and dual.primal is primal
        grid = GridSpec(-4.0, 4.0, 0.25)
        got = nl.sample_norm_grid(dual, None, grid, part)
        with np.errstate(invalid="ignore"):   # the wrapper's inf - inf
            want = nl.sample_norm_grid(_exponent_dual(primal), None, grid, part)
        assert got.samples.tobytes() == want.samples.tobytes()
        assert got.poisoned == want.poisoned
        tv, sv = grid.pairs(part)
        with np.errstate(invalid="ignore"):
            assert np.array_equal(dual.log_propagator(tv, sv),
                                  _exponent_dual(primal).log_propagator(tv, sv), equal_nan=True)

    def test_poisoned_case_has_every_kind_of_pair(self):
        grid = GridSpec(-4.0, 4.0, 0.25)
        dual = nl.dual_process(_poisoned_coefficient())
        stable = nl.sample_norm_grid(dual, None, grid, "stable")
        unstable = nl.sample_norm_grid(dual, None, grid, "unstable")
        assert stable.poisoned and unstable.poisoned
        # Pairs with s < 2 <= t vanished from the stable part.
        assert len(stable.samples) + len(stable.poisoned) < grid.pairs("stable")[0].size

    def test_reads_F_once_per_mesh_point(self):
        calls = []

        def antiderivative(t):
            calls.append(t)
            return math.sin(t) - t
        primal = nl.ScalarCoefficientProcess(lambda t: math.cos(t) - 1.0,
                                             antiderivative=antiderivative)
        grid = GridSpec(-3.0, 3.0, 0.5, extra_points=(0.3,))
        for part in ("stable", "unstable"):
            calls.clear()
            nl.sample_norm_grid(nl.dual_process(primal), None, grid, part)
            assert sorted(calls) == sorted(grid.mesh().tolist())

    def test_quadrature_is_shared_with_the_primal(self):
        primal = make_entry("smooth-limits").process
        grid = GridSpec(-2.0, 2.0, 0.5)
        nl.sample_norm_grid(primal, None, grid, "stable")
        cached = dict(primal._cache)
        dual = nl.dual_process(primal)
        nl.sample_norm_grid(dual, None, grid, "unstable")
        assert primal._cache == cached and dual._cache == {}


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

    @pytest.mark.parametrize("name, params, coefficient, antiderivative", [
        ("constant", {"rate": -2.0}, lambda t: -2.0, lambda t: -2.0 * t),
        ("tanh", {"scale": 0.3}, lambda t: np.tanh(t / 0.3),
         lambda t: 0.3 * (abs(t / 0.3) + math.log1p(math.exp(-2.0 * abs(t / 0.3)))
                          - math.log(2.0))),
    ])
    def test_integrated_coefficients_bit_for_bit(self, name, params, coefficient,
                                                 antiderivative):
        p = nl.load_process_config({"backend": "numerically-integrated",
                                    "coefficient": name, "params": params})
        ref = nl.ScalarCoefficientProcess(coefficient, antiderivative=antiderivative)
        grid = GridSpec(-3.0, 3.0, 0.25)
        assert np.array_equal(nl.sample_norm_grid(p, None, grid).samples,
                              nl.sample_norm_grid(ref, None, grid).samples)
        times = grid.mesh()
        for got, want in ((p.coefficient, coefficient), (p.antiderivative, antiderivative)):
            assert [got(t) for t in times] == [want(t) for t in times]

    def test_every_registered_coefficient(self):
        for name in nl.process.COEFFICIENTS:
            p = nl.load_process_config({"backend": "numerically-integrated",
                                        "coefficient": name, "params": {"rate": -1.0}})
            f, big_f = nl.process.named_coefficient(name, {"rate": -1.0})
            assert p.coefficient(0.7) == f(0.7)
            if big_f is None:
                assert p.antiderivative is None
            else:
                assert p.antiderivative(0.7) == big_f(0.7)

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            nl.load_process_config({"backend": "quantum"})
        with pytest.raises(ValueError):
            nl.load_process_config({"backend": "closed-form-exponent"})
        with pytest.raises(ValueError, match="unknown backend"):
            nl.load_process_config({"backend": "piecewise-closed-form",
                                    "family": "barreira"})

    def test_family_states_the_domain(self):
        cfg = {"backend": "closed-form-exponent", "family": "factorial-steps"}
        assert nl.load_process_config(cfg).domain == nl.HALF_LINE_PLUS
        assert nl.load_process_config(dict(cfg, domain="plus")).domain == nl.HALF_LINE_PLUS
        with pytest.raises(ValueError, match="lives on domain"):
            nl.load_process_config(dict(cfg, domain="minus"))


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


def _per_pair_norm_grid(process, projection, grid, part):
    """Reference: the (samples, poisoned) of sample_norm_grid from one
    operator_norm per pair."""
    rows, poisoned = [], []
    for t, s in zip(*grid.pairs(part)):
        t, s = float(t), float(s)
        try:
            v = nl.operator_norm(process, t, s, projection, part=part, log=True)
        except FiniteEscapeError:
            v = math.nan
        if not v < math.inf:
            poisoned.append((t, s))
        elif v > -math.inf:
            rows.append((t, s, v))
    return np.array(rows, dtype=float).reshape(-1, 3), poisoned


def _closed_form(n, seed):
    """S(t, s) = B diag(e^{r_i (t - s) + e_i (sin t - sin s)}) B^-1 with a
    non-normal basis B, and a time-varying explicit family."""
    rng = np.random.default_rng(seed)
    basis = np.eye(n) + 0.4 * rng.normal(size=(n, n))
    inv = np.linalg.inv(basis)
    rates = np.concatenate([-rng.uniform(0.5, 2.0, n // 2), rng.uniform(0.5, 2.0, n - n // 2)])
    eps = rng.uniform(0.1, 0.3, n)
    unstable = basis @ np.diag([0.0] * (n // 2) + [1.0] * (n - n // 2)) @ inv
    process = nl.MatrixClosedFormProcess(
        lambda t, s: basis @ np.diag(np.exp(rates * (t - s) + eps * (math.sin(t) - math.sin(s))))
        @ inv, n)
    return process, ProjectionFamily(lambda t: (1.0 + 0.2 * math.cos(t)) * unstable, n)


def _escape_then_vanish(t, s):
    """Escapes for 1.15 < |t - s| <= 1.5 and is exactly zero beyond."""
    if abs(t - s) > 1.5:
        return np.zeros((2, 2))
    return np.array([[math.exp(300.0 * abs(t - s)), 1.0], [0.0, 1.0]])


def _counted_family(fn, n):
    """``(family, calls)``: a projection family whose every evaluation
    appends its time to ``calls``."""
    calls = []

    def counted(t):
        calls.append(t)
        return fn(t)
    return ProjectionFamily(counted, n), calls


def _per_matrix_norms(stack):
    return np.array([nl.spectral_norm(m) for m in stack])


class TestStackedNormKernels:
    """The per-anchor stacks give bit for bit the per-pair norms."""

    GRID = GridSpec(-1.3, 3.1, 0.5, extra_points=(0.45, 2.95))

    @staticmethod
    def _assert_per_pair(process, family, grid, part):
        sampled = nl.sample_norm_grid(process, family, grid, part=part)
        samples, poisoned = _per_pair_norm_grid(process, family, grid, part)
        assert np.array_equal(sampled.samples, samples)
        assert sampled.poisoned == poisoned
        return sampled

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("dual", [False, True])
    @pytest.mark.parametrize("part", ["stable", "unstable"])
    @pytest.mark.parametrize("family", ["none", "zero", "explicit"])
    def test_closed_forms_and_duals(self, n, dual, part, family):
        process, explicit = _closed_form(n, seed=n)
        if dual:
            process = nl.dual_process(process)
        family = {"none": None, "zero": ProjectionFamily.zero(n),
                  "explicit": explicit}[family]
        self._assert_per_pair(process, family, self.GRID, part)

    @pytest.mark.parametrize("part", ["stable", "unstable"])
    def test_scalar_under_an_explicit_family(self, part):
        # The exponent takes scalars only: the explicit path reads it per pair.
        process = ScalarExponentProcess(
            lambda t, s: -(t - s) + 0.5 * (math.sin(t) - math.sin(s)))
        family = ProjectionFamily(lambda t: np.array([[0.5 + 0.25 * math.cos(t)]]), 1)
        sampled = self._assert_per_pair(process, family, self.GRID, part)
        assert len(sampled.samples) == len(self.GRID.pairs(part)[0])

    def test_escape_and_exact_zero_mid_grid(self):
        process = nl.MatrixClosedFormProcess(_escape_then_vanish, 2)
        grid = GridSpec(-2.0, 2.0, 0.5)
        for part, pairs in [("stable", 45), ("unstable", 36)]:
            sampled = self._assert_per_pair(process, None, grid, part)
            assert len(sampled.poisoned) == 6 and len(sampled.samples) == pairs - 6 - 15
            # The stable factor I - P(0.5) = 0 makes every product from s = 0.5
            # zero, the unstable factor P(-0.5) = 0 every product from s = -0.5.
            family, calls = _counted_family(
                lambda t: np.eye(2) if t == 0.5 else
                np.zeros((2, 2)) if t == -0.5 else np.array([[0.0, 0.0], [0.0, 1.0]]), 2)
            sampled = nl.sample_norm_grid(process, family, grid, part=part)
            # P(s) is read once per anchor, in order, for every anchor whose
            # pairs did not all escape.
            assert calls == np.unique(grid.pairs(part)[1]).tolist()
            samples, poisoned = _per_pair_norm_grid(process, family, grid, part)
            assert np.array_equal(sampled.samples, samples) and sampled.poisoned == poisoned
            assert len(poisoned) == 6
            assert not any(s == (0.5 if part == "stable" else -0.5) for _, s, _ in samples)

    @pytest.mark.parametrize("backend, part", [("integrated", "stable"),
                                               ("integrated", "unstable"),
                                               ("escaping", "stable"),
                                               ("strang", "stable")])
    @pytest.mark.parametrize("explicit", [False, True])
    def test_chains_match_per_pair_norms(self, monkeypatch, backend, part, explicit):
        if backend == "integrated":
            process = PlantedIntegrated(invertible=True).process
        elif backend == "escaping":
            q = np.array([[1.0, 0.5], [0.0, 1.0]])
            a = q @ np.diag([500.0, -1.0]) @ np.linalg.inv(q)
            process = nl.IntegratedLinearProcess(lambda t: a, 2)
        else:
            lap = nl.discretize(nl.Grid1D(1.0, 2), nl.BoundaryCondition("neumann"))
            process = nl.pde_process(lap, a=lambda t, x: -1.0 + 0.5 * math.sin(2.0 * t) * x,
                                     dt=1.0 / 16)
        n = process.dimension
        family = ProjectionFamily(lambda t: np.full((n, n), 0.5 + 0.1 * math.sin(t)), n) \
            if explicit else None
        grid = GridSpec(0.0, 1.0, 0.5) if backend == "escaping" else self.GRID
        stacked = nl.sample_norm_grid(process, family, grid, part=part)
        # The reference chain takes one spectral_norm per pair.
        monkeypatch.setattr(nl.process, "_spectral_norms", _per_matrix_norms)
        per_pair = nl.sample_norm_grid(process, family, grid, part=part)
        assert np.array_equal(stacked.samples, per_pair.samples)
        assert stacked.poisoned == per_pair.poisoned
        assert (len(stacked.poisoned) > 0) == (backend == "escaping")


_CONTRACT_BACKENDS = ["scalar", "quadrature", "closed-form", "integrated", "separable",
                      "strang", "dual", "adjoint"]


def _contract_backend(name, domain):
    """One process of each backend on the given domain; the adjoint is
    defined on the full line only, whatever the domain asked for."""
    q = np.array([[1.0, 0.4], [0.2, 1.0]])
    q_inv = np.linalg.inv(q)
    a = q @ np.diag([-1.0, 0.5]) @ q_inv

    def closed(t, s):
        return q @ np.diag([math.exp(-(t - s)), math.exp(0.5 * (t - s))]) @ q_inv
    lap = nl.discretize(nl.Grid1D(1.0, 5), nl.BoundaryCondition("dirichlet"))

    def separable(domain):
        return nl.pde_process(lap, separable_g=lambda t: math.cos(t) - 2.0, domain=domain)
    if name == "scalar":
        return ScalarExponentProcess(lambda t, s: -(t - s) + 0.3 * (np.sin(t) - np.sin(s)),
                                     domain=domain)
    if name == "quadrature":
        return nl.ScalarCoefficientProcess(lambda r: math.cos(r) - 0.5, domain=domain)
    if name == "closed-form":
        return nl.MatrixClosedFormProcess(closed, 2, domain=domain, invertible=False)
    if name == "integrated":
        return nl.IntegratedLinearProcess(lambda t: a, 2, domain=domain)
    if name == "separable":
        return separable(domain)
    if name == "strang":
        return nl.pde_process(lap, a=lambda t, x: -1.0 + 0.5 * math.sin(t) * x,
                              dt=1.0 / 16, domain=domain)
    if name == "dual":
        return nl.dual_process(nl.MatrixClosedFormProcess(closed, 2, domain=domain))
    return nl.adjoint_process(separable(nl.FULL_LINE))


class TestLogMatrixContract:
    """Every backend: sample_norm_grid checks the domain before a kernel
    runs, and ``S(t, s) = e^L N`` for the ``(L, N)`` of ``_log_matrix``."""

    @pytest.mark.parametrize("name", _CONTRACT_BACKENDS)
    @pytest.mark.parametrize("explicit", [False, True])
    def test_sample_norm_grid_checks_the_domain(self, name, explicit):
        cases = []
        half = _contract_backend(name, nl.HALF_LINE_PLUS)
        if half.domain == nl.HALF_LINE_PLUS:
            cases.append((half, GridSpec(-1.0, 1.0, 0.5), "stable"))
        full = _contract_backend(name, nl.FULL_LINE)
        if not full.invertible:
            cases.append((full, GridSpec(0.0, 1.0, 0.5), "unstable"))
        assert cases
        for process, grid, part in cases:
            n = process.dimension
            family = ProjectionFamily(lambda t: np.full((n, n), 0.5 / n), n) \
                if explicit else None
            process._log_norms = lambda *args: pytest.fail("a kernel ran before the check")
            with pytest.raises(DomainError):
                nl.sample_norm_grid(process, family, grid, part=part)

    @pytest.mark.parametrize("name", _CONTRACT_BACKENDS)
    @pytest.mark.parametrize("explicit", [False, True])
    def test_one_pair_index_per_grid(self, monkeypatch, name, explicit):
        # The mesh is built once per grid value and the pair indices once
        # per mesh size and part; an equal grid sampled again builds nothing.
        process = _contract_backend(name, nl.FULL_LINE)
        n = process.dimension
        family = ProjectionFamily(lambda t: np.full((n, n), 0.5 / n), n) if explicit else None
        builds = []
        build_mesh, triangle = GridSpec._build_mesh, nl.process._triangle_indices
        monkeypatch.setattr(nl.process, "_GRID_MEMO", nl.process._ArrayMemo(4 << 20))
        monkeypatch.setattr(GridSpec, "_build_mesh",
                            lambda grid: builds.append("mesh") or build_mesh(grid))
        monkeypatch.setattr(nl.process, "_triangle_indices",
                            lambda size, part: builds.append(part) or triangle(size, part))
        for part in ("stable", "unstable") if process.invertible else ("stable",):
            for repeat in (False, True):
                builds.clear()
                sampled = nl.sample_norm_grid(process, family, GridSpec(-1.0, 1.5, 0.5),
                                              part=part)
                assert len(sampled.samples) > 0
                first = (["mesh"] if part == "stable" else []) + [part]
                assert builds == ([] if repeat else first)

    @pytest.mark.parametrize("name", _CONTRACT_BACKENDS)
    @pytest.mark.parametrize("explicit", [False, True])
    @pytest.mark.parametrize("budget", ["one matrix", "everything"])
    def test_norm_blocks_change_no_bit(self, monkeypatch, name, explicit, budget):
        process = _contract_backend(name, nl.FULL_LINE)
        n = process.dimension
        family = ProjectionFamily(lambda t: np.array([[0.5 + 0.1 * math.sin(t + k) for k in
                                                       range(n)]] * n) / n, n) \
            if explicit else None
        grid = GridSpec(-1.3, 3.1, 0.5, extra_points=(0.45, 2.95))
        parts = ("stable", "unstable") if process.invertible else ("stable",)
        default = [nl.sample_norm_grid(process, family, grid, part=part) for part in parts]
        monkeypatch.setattr(nl.process, "_NORM_BLOCK_BYTES",
                            8 * n * n if budget == "one matrix" else math.inf)
        for part, want in zip(parts, default):
            got = nl.sample_norm_grid(process, family, grid, part=part)
            assert np.array_equal(got.samples, want.samples) and got.poisoned == want.poisoned
            if name not in ("integrated", "strang"):   # chained readers differ per pair
                samples, poisoned = _per_pair_norm_grid(process, family, grid, part)
                if explicit or name in ("closed-form", "dual", "adjoint"):
                    assert np.array_equal(got.samples, samples)
                else:   # a fast path reads the exponent or the lag instead
                    assert np.allclose(got.samples, samples, rtol=1e-12, atol=1e-12)
                assert got.poisoned == poisoned

    @pytest.mark.parametrize("name", _CONTRACT_BACKENDS)
    def test_log_matrix_reproduces_matrix(self, name):
        process = _contract_backend(name, nl.FULL_LINE)
        pairs = [(1.0, 0.0), (2.5, -1.0), (0.25, 0.25), (6.0, 0.5)]
        if process.invertible:
            pairs += [(0.0, 1.0), (-1.0, 2.5)]
        for t, s in pairs:
            scale, n = process._log_matrix(t, s)
            got, want = math.exp(scale) * n, process.matrix(t, s)
            if name in ("separable", "adjoint"):
                # The shifted diffusion factor e^{(A_h - lambda_1) d} rounds
                # differently from matrix's e^{A_h d}.
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
            else:
                assert np.array_equal(got, want)


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

    @pytest.mark.parametrize("part", ["stable", "unstable"])
    def test_escape_and_vanish_mid_anchor_under_a_family(self, part):
        # A rate of +-500 past t = 2 grows e^250 per half step, forward in
        # the first direction and backward in the second: one step stays
        # under the guard, two pass it.  No solve vanishes exactly, so the
        # step over [0.5, 1] is planted as zero.
        grid = GridSpec(0.0, 3.0, 0.5)
        q = np.array([[1.0, 0.5], [0.0, 1.0]])
        q_inv = np.linalg.inv(q)
        process = nl.IntegratedLinearProcess(
            lambda t: q @ np.diag([1.0, -1.0]) @ q_inv * (500.0 if t > 2.0 else 1.0), 2,
            invertible=True)
        solve_step = process._step

        def step(t, s):
            m, peak = solve_step(t, s)
            return (np.zeros_like(m) if {t, s} == {0.5, 1.0} else m), peak
        process._step = step
        unstable = q @ np.diag([0.0, 1.0]) @ q_inv
        family, calls = _counted_family(lambda t: (1.0 + 0.2 * math.cos(t)) * unstable, 2)
        sampled = nl.sample_norm_grid(process, family, grid, part=part)
        assert sampled.poisoned == ([(3.0, 1.0), (3.0, 1.5), (3.0, 2.0)] if part == "stable"
                                    else [(t, 3.0) for t in (0.0, 0.5, 1.0, 1.5, 2.0)])
        # A pair whose product crosses the zero step carries no sample.
        crossing = {(t, s) for t, s in zip(*grid.pairs(part))
                    if min(t, s) <= 0.5 and max(t, s) >= 1.0}
        kept = [(t, s) for t, s in zip(*grid.pairs(part))
                if (t, s) not in sampled.poisoned and (t, s) not in crossing]
        assert [(t, s) for t, s, _ in sampled.samples] == kept
        # P(s) is read once per anchor with a pair to norm: on the unstable
        # part, every product from s = 1 vanishes at its first step.
        assert calls == sorted({s for _, s in kept})
        # The per-pair solves know nothing of the planted step.
        rows, poisoned = _per_pair_grid(process, family, grid, part)
        assert poisoned - crossing <= set(sampled.poisoned)
        for t, s, v in sampled.samples:
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
        real = nl.process._chained_anchor_matrices

        def spy(*args, **kwargs):
            chained.append(1)
            return real(*args, **kwargs)
        monkeypatch.setattr(nl.process, "_chained_anchor_matrices", spy)
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

    @pytest.mark.parametrize("backend", ["integrated", "scalar", "closed-form"])
    def test_stacked_path_is_per_point(self, backend, barreira):
        taus = np.linspace(0.3, 1.3, 11)
        if backend == "integrated":
            process = PlantedIntegrated(invertible=True).process
        elif backend == "scalar":
            process = barreira.process
        else:
            process = nl.MatrixClosedFormProcess(PlantedIntegrated(invertible=True).matrix, 2)
        path = process.matrix_path(0.3, 1.3)
        stack = path(taus)
        assert stack.shape == (11, process.dimension, process.dimension)
        assert np.array_equal(stack, np.array([path(tau) for tau in taus]))
        assert path(taus[:0]).shape == (0, process.dimension, process.dimension)

    def test_stacked_path_raises_at_the_first_failure(self):
        process = ScalarExponentProcess(lambda t, s: 500.0 * (t - s))
        path = process.matrix_path(0.0, 1.0)
        taus = np.linspace(0.0, 1.0, 11)   # the guard is passed near 0.69
        with pytest.raises(FiniteEscapeError) as err:
            path(taus)
        assert err.value.t == taus[7] and err.value.s == 0.0
        half = ScalarExponentProcess(lambda t, s: -(t - s), domain=nl.HALF_LINE_MINUS)
        with pytest.raises(DomainError):
            half.matrix_path(-0.5, 0.5)(np.array([-0.5, 0.0, 0.25]))
        integrated = nl.IntegratedLinearProcess(lambda t: np.diag([500.0, -1.0]), 2)
        with pytest.raises(FiniteEscapeError) as err:
            integrated.matrix_path(0.0, 1.0)(np.array([0.5, 0.8, 0.9]))
        assert err.value.t == 0.8

    def test_scalar_only_exponent_names_the_array_contract(self):
        process = ScalarExponentProcess(lambda t, s: math.sin(t) - math.sin(s))
        path = process.matrix_path(0.0, 1.0)
        assert path(0.5)[0, 0] == math.exp(math.sin(0.5))
        with pytest.raises(TypeError, match="must take arrays of t and s"):
            path(np.array([0.5, 1.0]))
        with pytest.raises(TypeError, match="must take arrays of t and s"):
            nl.perturbation_distance(process, process, 0.0, GridSpec(0.0, 2.0, 0.5))

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

    def test_wrong_size_coefficient_result_raises(self):
        # The compiled wrapper takes a derivative of the wrong length
        # without complaint; (3, 2) @ (2, 2) has six entries for four.
        with pytest.raises(ValueError):
            nl.IntegratedLinearProcess(lambda t: np.ones((3, 2)), 2).matrix(1.0, 0.0)
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

    def test_constant_exponent_is_broadcast_to_the_pairs(self):
        process = ScalarExponentProcess(lambda t, s: 0.0)
        grid = GridSpec(0.0, 1.0, 0.5)
        sampled = nl.sample_norm_grid(process, None, grid)
        assert sampled.samples.shape == (6, 3)
        assert sampled.samples[:, 2].tolist() == [0.0] * 6
        # ||S(1, 0)|| = 1 against the bound e^{-(t - s)}: violation ln e = 1.
        cert = nl.DichotomyCertificate("II", nl.FULL_LINE, 1.0, nl.ExponentPair(1.0, 0.0))
        assert nl.check_certificate(process, cert, grid) == 1.0

    @pytest.mark.parametrize("exponent", [
        lambda t, s: math.sin(t) - math.sin(s),
        lambda t, s: math.nan if t > 0.6 else -(t - s),
    ])
    def test_exponent_that_rejects_arrays_names_the_contract(self, exponent):
        with pytest.raises(TypeError, match="must take arrays of t and s"):
            nl.sample_norm_grid(ScalarExponentProcess(exponent), None, GridSpec(0.0, 1.0, 0.5))

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


def _meshgrid_pairs(grid, part):
    """The pair order of ``GridSpec.pairs`` before it had mesh indices."""
    mesh = grid.mesh()
    tt, ss = np.meshgrid(mesh, mesh, indexing="ij")
    keep = tt >= ss if part == "stable" else tt < ss
    return tt[keep], ss[keep]


def _per_pair_exponent_grid(process, grid, part):
    """A scalar grid read through the array exponent of every pair, as
    before the mesh read: ``(samples, poisoned)``."""
    tv, sv = grid.pairs(part)
    with np.errstate(invalid="ignore"):
        vals = np.asarray(process.log_propagator(tv, sv), dtype=float)
    vals = np.where(vals <= nl.process._LOG_GUARD, vals, math.nan)
    poison = ~(vals < math.inf)
    keep = ~poison & (vals > -math.inf)
    return (np.column_stack([tv[keep], sv[keep], vals[keep]]),
            list(zip(tv[poison].tolist(), sv[poison].tolist())))


def _escaping_antiderivative(t):
    # F passes the guard past t = 2 and is infinite past t = 3.
    return math.inf if t > 3.0 else 400.0 * max(t - 1.0, 0.0) - t


class TestMeshRead:
    GRIDS = [GridSpec(-3.0, 3.0, 0.25), GridSpec(0.0, 5.0, 0.5, extra_points=(0.3, math.pi)),
             GridSpec(-2.0, 0.0, 0.4), GridSpec(-1.0, 2.0, 0.7)]

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("part", ["stable", "unstable"])
    def test_pair_order_is_the_meshgrid_order(self, grid, part):
        got, want = grid.pairs(part), _meshgrid_pairs(grid, part)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        mesh, i, j = grid._pair_index(part)
        assert np.array_equal(mesh[i], got[0]) and np.array_equal(mesh[j], got[1])

    @pytest.mark.parametrize("antiderivative", [
        None, lambda t: math.sin(t) - 0.3 * t, lambda t: math.nan if abs(t - 1.0) < 0.2 else t,
        _escaping_antiderivative], ids=["quadrature", "closed-form", "nan", "escaping"])
    @pytest.mark.parametrize("domain, grid", [
        (nl.FULL_LINE, GRIDS[0]), (nl.HALF_LINE_PLUS, GRIDS[1]),
        (nl.HALF_LINE_MINUS, GRIDS[2]), (nl.FULL_LINE, GRIDS[3])])
    @pytest.mark.parametrize("part", ["stable", "unstable"])
    def test_bit_for_bit_the_per_pair_exponent(self, antiderivative, domain, grid, part):
        process = nl.ScalarCoefficientProcess(lambda t: math.cos(t) - 0.3, domain=domain,
                                              antiderivative=antiderivative)
        sampled = nl.sample_norm_grid(process, None, grid, part=part)
        samples, poisoned = _per_pair_exponent_grid(process, grid, part)
        assert np.array_equal(sampled.samples, samples)
        assert sampled.poisoned == poisoned

    def test_escaping_and_nan_pairs_are_poisoned_never_dropped(self):
        grid = GridSpec(0.0, 4.0, 0.5)
        escaping = nl.ScalarCoefficientProcess(lambda t: 0.0,
                                               antiderivative=_escaping_antiderivative)
        sampled = nl.sample_norm_grid(escaping, None, grid)
        assert len(sampled.samples) + len(sampled.poisoned) == 45
        # inf - inf at (3.5, 4.0) and (4.0, 4.0) is NaN, and poisoned too.
        assert {(3.5, 3.5), (4.0, 3.5), (4.0, 4.0), (4.0, 0.0)} <= set(sampled.poisoned)
        for t, s in sampled.poisoned:
            with pytest.raises(FiniteEscapeError):
                escaping.matrix(t, s)
        for t, s, v in sampled.samples:
            assert escaping.matrix(t, s)[0, 0] == math.exp(v)
        cert = nl.DichotomyCertificate("II", nl.HALF_LINE_PLUS, 1.0, nl.ExponentPair(1.0, 0.0))
        assert nl.check_certificate(escaping, cert, grid) == math.inf

    def test_infinite_antiderivative_pairs_are_nan_without_a_warning(self):
        # F is inf from t = 2 on: inf - inf is NaN, which the array exponent
        # returns quietly and the path escapes through its per-time fallback.
        process = nl.ScalarCoefficientProcess(
            lambda t: 0.0, antiderivative=lambda t: math.inf if t >= 2.0 else t)
        times = np.array([2.6, 3.0])
        assert np.isnan([process.log_propagator(t, 2.5) for t in times.tolist()]).all()
        assert np.isnan(process.log_propagator(times, 2.5)).all()
        with pytest.raises(FiniteEscapeError):
            process.matrix_path(2.5, 3.0)(times)

    @pytest.mark.parametrize("process", [
        ScalarExponentProcess(lambda t, s: np.sin(t) - np.sin(s) - 0.3 * (t - s)),
        nl.ScalarCoefficientProcess(lambda t: math.cos(t) - 0.3),
        nl.ScalarCoefficientProcess(math.cos, antiderivative=lambda t: math.sin(t) - 0.3 * t)],
        ids=["closed-form", "quadrature", "antiderivative"])
    def test_one_batch_read_per_grid_path_and_array_exponent(self, monkeypatch, process):
        batches = []
        for cls in (ScalarExponentProcess, nl.ScalarCoefficientProcess):
            def spy(self, times, i, j, read=cls.__dict__["_grid_exponents"]):
                batches.append(len(i))
                return read(self, times, i, j)
            monkeypatch.setattr(cls, "_grid_exponents", spy)
        grid = GridSpec(-2.0, 2.0, 0.5)
        nl.sample_norm_grid(process, None, grid)
        assert batches == [45]
        taus = np.linspace(0.0, 1.0, 7)
        stack = process.matrix_path(0.0, 1.0)(taus)
        assert batches == [45, 7]
        # Bit for bit the float exponent of each time.
        want = [math.exp(process.log_propagator(t, 0.0)) for t in taus.tolist()]
        assert np.array_equal(stack[:, 0, 0], want)
        if isinstance(process, nl.ScalarCoefficientProcess):
            tv, sv = grid.pairs("stable")
            values = process.log_propagator(tv, sv)
            assert batches == [45, 7, 45]
            assert np.array_equal(values, [process.log_propagator(t, s)
                                           for t, s in zip(tv.tolist(), sv.tolist())])

    def test_one_antiderivative_call_per_mesh_point_with_a_float(self):
        calls = []

        def antiderivative(t):
            calls.append(t)
            return math.sin(t)
        process = nl.ScalarCoefficientProcess(math.cos, antiderivative=antiderivative)
        grid = GridSpec(-5.0, 5.0, 0.25)
        nl.sample_norm_grid(process, None, grid)
        assert calls == grid.mesh().tolist()
        assert {type(t) for t in calls} == {float}

    def test_math_only_antiderivative_on_grids_paths_and_single_queries(self):
        process = nl.ScalarCoefficientProcess(
            math.cos, antiderivative=lambda t: math.sin(t) - 0.5 * t)
        grid = GridSpec(-2.0, 2.0, 0.5)
        for part in ("stable", "unstable"):
            assert len(nl.sample_norm_grid(process, None, grid, part=part).samples) > 0
        taus = np.linspace(0.0, 1.0, 5)
        stack = process.matrix_path(0.0, 1.0)(taus)
        want = [math.exp(math.sin(t) - 0.5 * t) for t in taus]
        assert np.array_equal(stack[:, 0, 0], want)
        assert nl.operator_norm(process, 1.0, 0.0, log=True) == math.sin(1.0) - 0.5
        assert process.propagate(1.0, 0.0, 2.0)[0] == 2.0 * math.exp(math.sin(1.0) - 0.5)
        dual = nl.dual_process(process)
        assert len(nl.sample_norm_grid(dual, None, grid, part="unstable").samples) > 0


class TestLogCosh:
    def test_matches_log_cosh_and_stays_finite(self):
        for x in (0.0, 1e-3, 0.5, -2.0, 20.0, -300.0):
            assert nl.process._lncosh(x) == pytest.approx(math.log(math.cosh(x)),
                                                          rel=1e-14, abs=1e-15)
        for x in (710.0, -800.0, 1e6):
            assert nl.process._lncosh(x) == abs(x) - math.log(2.0)

    def test_tanh_coefficient_no_longer_overflows(self):
        f, big_f = nl.process.named_coefficient("tanh", {"scale": 0.01})
        assert big_f(8.0) == pytest.approx(8.0 - 0.01 * math.log(2.0), rel=1e-15)
        process = nl.load_process_config({"backend": "numerically-integrated",
                                          "coefficient": "tanh", "params": {"scale": 0.01}})
        grid = GridSpec(0.0, 10.0, 1.0)
        sampled = nl.sample_norm_grid(process, None, grid)
        assert sampled.poisoned == [] and len(sampled.samples) == 66
        cert = nl.DichotomyCertificate("II", nl.HALF_LINE_PLUS, 1.0, nl.ExponentPair(0.5, 2.0))
        assert nl.check_certificate(process, cert, grid) <= 0.0


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
