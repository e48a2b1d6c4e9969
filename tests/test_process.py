import json
import math

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

    def test_fast_path_matches_loop(self, barreira):
        g = GridSpec(-2.0, 2.0, 1.0)
        fast = nl.sample_norm_grid(barreira.process, None, g, part="stable")
        slow_rows = []
        tv, sv = g.pairs("stable")
        for t, s in zip(tv, sv):
            slow_rows.append(nl.operator_norm(barreira.process, float(t),
                                              float(s), None, log=True))
        assert np.allclose(fast.samples[:, 2], slow_rows)

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
