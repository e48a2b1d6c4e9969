import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

import nedlab as nl
from nedlab import (
    DichotomyCertificate,
    ExponentPair,
    GridSpec,
    InapplicableError,
    ProjectionFamily,
)
from nedlab.dichotomy import DataError, _AnchorEnvelope, _least_ln_m
from nedlab.gallery import make_entry

from conftest import constant_scalar, decay_cert


class TestExponentPair:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExponentPair(0.0, 1.0)
        with pytest.raises(ValueError):
            ExponentPair(1.0, -0.1)
        p = ExponentPair(1.0, 0.0)
        assert p.rate == 1.0 and p.growth == 0.0


class TestCertificate:
    def test_json_roundtrip(self):
        cert = DichotomyCertificate(
            "I", nl.HALF_LINE_PLUS, 2.5, ExponentPair(1.5, 0.25),
            unstable=ExponentPair(0.75, 0.5), projection="identity")
        back = DichotomyCertificate.from_dict(json.loads(json.dumps(cert.to_dict())))
        assert back == cert

    def test_combined_exponents(self):
        cert = DichotomyCertificate(
            "II", nl.FULL_LINE, 1.0, ExponentPair(2.0, 0.5),
            unstable=ExponentPair(3.0, 0.75), projection="explicit",
            projection_family=ProjectionFamily.constant([[0.0]]))
        assert cert.omega == 2.0     # min of the rates
        assert cert.upsilon == 0.75  # max of the growths

    def test_combined_exponents_skip_unbounded_pairs(self):
        # The stable pair of an "identity" certificate is a placeholder, and
        # a "zero" certificate does not bound its unstable pair.
        placeholder, bound = ExponentPair(0.5, 1.0), ExponentPair(3.0, 0.25)
        identity = DichotomyCertificate("II", nl.FULL_LINE, 1.0, placeholder,
                                        unstable=bound, projection="identity")
        zero = DichotomyCertificate("II", nl.FULL_LINE, 1.0, bound,
                                    unstable=placeholder, projection="zero")
        for cert in (identity, zero):
            assert (cert.omega, cert.upsilon) == (3.0, 0.25)

    def test_m_below_one_rejected(self):
        with pytest.raises(ValueError):
            DichotomyCertificate("I", nl.FULL_LINE, 0.5,
                                 ExponentPair(1.0, 0.0))

    def test_identity_certificate_needs_an_unstable_pair(self):
        # "identity" bounds the unstable part alone: without its pair the
        # certificate would bound nothing, and every check of it would hold.
        with pytest.raises(ValueError, match="needs an unstable pair"):
            DichotomyCertificate("II", nl.FULL_LINE, 1.0, ExponentPair(1.0, 0.0),
                                 projection="identity")


def _lexicographic_lp(anchors, heights, delta_max=8.0, ln_m_max=8.0):
    """Reference solver: minimize delta, then ln M, by linear programming."""
    n = len(anchors)
    a_ub = np.column_stack([-anchors, -np.ones(n)])
    b_ub = -heights
    bounds = [(0.0, delta_max), (0.0, ln_m_max)]
    first = linprog([1.0, 0.0], A_ub=a_ub, b_ub=b_ub, bounds=bounds,
                    method="highs")
    if not first.success:
        return None
    delta = first.x[0]
    second = linprog([0.0, 1.0], A_ub=a_ub, b_ub=b_ub,
                     bounds=[(delta, delta), (0.0, ln_m_max)],
                     method="highs")
    return delta, second.x[1]


def _upper_hull(anchors, heights):
    """Vertices of the upper convex hull of the points (anchor, height), by
    the monotone chain that fit_bounds once pruned its maxima to."""
    order = np.lexsort((-heights, anchors))
    hull = []  # indices into the original arrays
    for idx in order:
        x, y = anchors[idx], heights[idx]
        if hull and anchors[hull[-1]] == x:
            continue  # same abscissa: the first (highest) point wins
        while len(hull) >= 2:
            x1, y1 = anchors[hull[-2]], heights[hull[-2]]
            x2, y2 = anchors[hull[-1]], heights[hull[-1]]
            # Drop the middle point if it lies on or below chord (p1, p).
            if (y2 - y1) * (x - x1) <= (y - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(idx)
    return np.asarray(hull, dtype=int)


def _reference_fit_bounds(grid, kind, part, alpha_grid, delta_max=8.0,
                          ln_m_max=8.0, hull=False):
    """fit_bounds by its literal definition: every maximum taken over every
    pair, with no per-anchor reduction.  The library must match it bit for
    bit.  With ``hull=True`` the maxima run over the vertices of the upper
    hull of the pairs instead, and ln M is not held under its cap, as
    fit_bounds once did."""
    tv, sv, logn = grid.samples.T
    anchors = np.abs(tv) if kind == "II" else np.abs(sv)
    dts = tv - sv
    sign = -1.0 if part == "stable" else 1.0
    entries, infeasible = [], []
    for alpha in alpha_grid:
        heights = logn - sign * alpha * dts
        ha, hy = anchors, heights
        if hull:
            keep = _upper_hull(anchors, heights)
            ha, hy = anchors[keep], heights[keep]
        zero = ha == 0.0
        floor = float(np.max(hy[zero])) if np.any(zero) else -math.inf
        if floor > ln_m_max:
            infeasible.append(float(alpha))
            continue
        pos = ha > 0.0
        if np.any(pos):
            delta_min = max(0.0, float(np.max((hy[pos] - ln_m_max) / ha[pos])))
        else:
            delta_min = 0.0
        ln_m = float(np.max(hy - delta_min * ha))
        # ln M must not round over the cap: raise delta by 1, 2, 4, ... ulps.
        # The hull fit never tested ln M against the cap.
        bump = float(np.spacing(delta_min))
        while not hull and ln_m > ln_m_max and delta_min <= delta_max:
            delta_min += bump
            bump *= 2.0
            ln_m = float(np.max(hy - delta_min * ha))
        if delta_min > delta_max:
            infeasible.append(float(alpha))
            continue
        entries.append((float(alpha), delta_min, max(0.0, ln_m)))
    return entries, infeasible


def _assert_no_less_conservative(frontier, hull_entries, hull_infeasible):
    """The fit is never below the hull-pruned fit in its own order: delta
    first, then ln M.  A delta one ulp higher can round the least ln M one
    ulp lower, so ln M alone is compared only at equal delta."""
    assert set(hull_infeasible) <= set(frontier.infeasible)
    fitted = {alpha: (delta, ln_m) for alpha, delta, ln_m in frontier.entries}
    for alpha, delta, ln_m in hull_entries:
        if alpha in fitted:
            assert (delta, ln_m) <= fitted[alpha]


def _reference_kind_one_minimum(grid, alphas, deltas):
    """Brute-force kind-I minimax over every pair: the least over the
    (alpha x delta) points of max_i(logNorm_i +/- alpha dt_i - delta |s_i|)."""
    tv, sv, logn = grid.samples.T
    dts = tv - sv
    anch = np.abs(sv)
    sign = 1.0 if grid.part == "stable" else -1.0
    best = math.inf
    for alpha in alphas:
        y = logn + sign * alpha * dts
        ln_m = np.max(y[None, :] - deltas[:, None] * anch[None, :], axis=1)
        best = min(best, float(np.min(ln_m)))
    return best


def _box_axes(box):
    """Brute-force axes over a box: 7 alphas and 41 deltas, ends included."""
    (a_lo, a_hi), (d_lo, d_hi) = box
    return np.linspace(a_lo, a_hi, 7), np.linspace(d_lo, d_hi, 41)


def _lp_kind_one_minimum(grid, box):
    """The same minimum as one linear program in (alpha, delta, ln M):
    minimize ln M subject to logNorm_i +/- alpha dt_i - delta |s_i| <= ln M."""
    tv, sv, logn = grid.samples.T
    sign = 1.0 if grid.part == "stable" else -1.0
    a_ub = np.column_stack([sign * (tv - sv), -np.abs(sv), -np.ones(len(tv))])
    # HiGHS's default feasibility tolerance (1e-7) is above the 1e-9 asked of it.
    res = linprog([0.0, 0.0, 1.0], A_ub=a_ub, b_ub=-logn,
                  bounds=[box[0], box[1], (None, None)], method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.success
    return res.fun


# Few distinct times, symmetric about 0, so that anchors |t| and |s| repeat;
# few distinct heights, so that maxima tie.
_TIMES = st.sampled_from([-3.0, -2.0, -1.25, -0.5, 0.0, 0.5, 1.25, 2.0, 3.0])
_HEIGHTS = st.one_of(st.sampled_from([-2.0, 0.0, 0.75, 3.0]),
                     st.floats(-30.0, 30.0, allow_nan=False))


@st.composite
def _norm_grids(draw):
    part = draw(st.sampled_from(["stable", "unstable"]))
    rows = []
    for a, b, y in draw(st.lists(st.tuples(_TIMES, _TIMES, _HEIGHTS),
                                 min_size=1, max_size=40)):
        if part == "unstable" and a == b:
            continue
        t, s = (max(a, b), min(a, b)) if part == "stable" else (min(a, b), max(a, b))
        rows.append((t, s, y))
    if not rows:  # keep a single-sample grid
        rows = [(0.0, 0.0, 0.0)] if part == "stable" else [(0.0, 1.0, 0.0)]
    return nl.NormGrid(np.asarray(rows, dtype=float), part=part)


@st.composite
def _box(draw):
    resolution = draw(st.sampled_from([0.1, 0.25, 0.5, 1.0]))
    a_lo = draw(st.sampled_from([0.05, 0.5, 1.0]))
    d_lo = draw(st.sampled_from([0.0, 0.25]))
    a_hi = a_lo + draw(st.sampled_from([0.0, 0.5, 1.5, 3.0]))
    d_hi = d_lo + draw(st.sampled_from([0.0, 0.5, 1.5, 3.0]))
    return ((a_lo, a_hi), (d_lo, d_hi)), resolution


class TestFitBounds:
    def test_constant_decay_exact(self):
        p = constant_scalar(-1.0)
        grid = GridSpec(0.0, 10.0, 0.5)
        sampled = nl.sample_norm_grid(p, None, grid, part="stable")
        frontier = nl.fit_bounds(sampled, "II", "stable", [0.5, 1.0])
        for alpha, delta, ln_m in frontier.entries:
            assert delta == pytest.approx(0.0, abs=1e-12)
            assert ln_m == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("kind", ["I", "II"])
    @pytest.mark.parametrize("part", ["stable", "unstable"])
    def test_one_reduction_equals_the_per_alpha_loop(self, monkeypatch, kind, part):
        # x' = +-(-1 - t sin t) x: decaying for the stable part, growing for the unstable.
        sign = -1.0 if part == "stable" else 1.0
        p = nl.ScalarCoefficientProcess(
            lambda t: sign * (1.0 + t * math.sin(t)),
            antiderivative=lambda t: sign * (t + math.sin(t) - t * math.cos(t)))
        sampled = nl.sample_norm_grid(p, None, GridSpec(-6.0, 6.0, 0.25), part=part)
        alphas = np.linspace(0.0, 6.0, 49)
        table = nl.fit_bounds(sampled, kind, part, alphas, ln_m_max=6.0)
        envelope = _AnchorEnvelope(sampled, kind)
        rows = np.array([envelope.heights(-sign * alpha) for alpha in alphas])
        assert np.array_equal(envelope.heights(-sign * alphas), rows)
        # The per-alpha loop: one rate at a time, each reduced on its own.
        heights = _AnchorEnvelope.heights
        monkeypatch.setattr(_AnchorEnvelope, "heights", lambda self, rates: np.array(
            [heights(self, rate) for rate in np.atleast_1d(rates).tolist()]))
        looped = nl.fit_bounds(sampled, kind, part, alphas, ln_m_max=6.0)
        assert table.entries == looped.entries and table.infeasible == looped.infeasible
        assert len(table.entries) > 0

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_lp_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = 60
        tv = rng.uniform(-5.0, 5.0, n)
        sv = tv - rng.uniform(0.0, 4.0, n)
        logn = rng.normal(scale=3.0, size=n)
        grid = nl.NormGrid(np.column_stack([tv, sv, logn]), part="stable")
        for kind in ("I", "II"):
            frontier = nl.fit_bounds(grid, kind, "stable", [0.5, 2.0])
            anchors = np.abs(tv) if kind == "II" else np.abs(sv)
            for alpha, delta, ln_m in frontier.entries:
                ref = _lexicographic_lp(anchors, logn + alpha * (tv - sv))
                assert ref is not None
                assert delta == pytest.approx(ref[0], abs=1e-8)
                assert ln_m == pytest.approx(max(ref[1], 0.0), abs=1e-8)

    @settings(max_examples=150, deadline=None)
    @given(grid=_norm_grids(), kind=st.sampled_from(["I", "II"]),
           alphas=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.5]),
                           min_size=1, max_size=5),
           caps=st.sampled_from([(8.0, 8.0), (1.0, 2.0), (0.25, 0.5)]))
    def test_per_anchor_reduction_is_bit_identical(self, grid, kind, alphas,
                                                   caps):
        alpha_grid = sorted(alphas)
        delta_max, ln_m_max = caps
        frontier = nl.fit_bounds(grid, kind, grid.part, alpha_grid,
                                 delta_max=delta_max, ln_m_max=ln_m_max)
        entries, infeasible = _reference_fit_bounds(
            grid, kind, grid.part, alpha_grid, delta_max, ln_m_max)
        assert frontier.entries == entries
        assert frontier.infeasible == infeasible
        _assert_no_less_conservative(frontier, *_reference_fit_bounds(
            grid, kind, grid.part, alpha_grid, delta_max, ln_m_max, hull=True))

    # Linear heights c + slope * anchor with ln_m_max = c, the height at the
    # zero anchor: every point lies on one line up to rounding, the hull
    # keeps only its ends, and a middle point can round above the hull edge.
    @pytest.mark.parametrize("n, step, slope, c, delta_max, expect", [
        # delta_min passes delta_max = slope by one ulp: alpha infeasible.
        (3, 0.3, 0.7, 0.3, 0.7, ([], [0.5])),
        (4, 0.1, 0.1, 0.0, 0.1, ([], [0.5])),
        # ln M would round one ulp over the cap at the hull's delta, so
        # delta rises one ulp and ln M stays at the cap.
        (3, 1.0, 1.1, 0.3, 8.0, ([(0.5, 1.1000000000000003, 0.3)], [])),
        # delta rises one ulp over the hull's.
        (3, 0.3, 0.7, 0.3, 8.0, ([(0.5, 0.7000000000000001, 0.3)], [])),
        # The hull's delta is lower and its ln M higher.
        (3, 0.7, 0.7, 0.3, 8.0, ([(0.5, 0.7, 0.3)], [])),
    ])
    def test_collinear_ties(self, n, step, slope, c, delta_max, expect):
        anchors = step * np.arange(n)
        grid = nl.NormGrid(np.column_stack([anchors, anchors, c + slope * anchors]),
                           part="stable")
        frontier = nl.fit_bounds(grid, "II", "stable", [0.5],
                                 delta_max=delta_max, ln_m_max=c)
        assert (frontier.entries, frontier.infeasible) == expect
        assert expect == _reference_fit_bounds(grid, "II", "stable", [0.5],
                                               delta_max, c)
        hull = _reference_fit_bounds(grid, "II", "stable", [0.5], delta_max, c,
                                     hull=True)
        assert hull != expect
        _assert_no_less_conservative(frontier, *hull)
        for alpha, delta, ln_m in frontier.entries:
            # Every sample lies on or below the fitted line, as rounded,
            # and ln M stays under its cap.
            assert ln_m <= c
            assert np.max(grid.samples[:, 2] - delta * anchors) <= ln_m

    def test_feasibility_of_output(self):
        rng = np.random.default_rng(42)
        tv = rng.uniform(0.0, 8.0, 80)
        sv = tv - rng.uniform(0.0, 3.0, 80)
        logn = rng.normal(size=80)
        grid = nl.NormGrid(np.column_stack([tv, sv, logn]), part="stable")
        frontier = nl.fit_bounds(grid, "I", "stable", [0.25, 1.0, 3.0])
        for alpha, delta, ln_m in frontier.entries:
            heights = logn + alpha * (tv - sv)
            assert np.all(heights <= ln_m + delta * np.abs(sv) + 1e-9)

    def test_infeasible_reported(self):
        grid = nl.NormGrid(np.array([[1.0, 0.0, 50.0]]), part="stable")
        frontier = nl.fit_bounds(grid, "II", "stable", [1.0],
                                 delta_max=2.0, ln_m_max=2.0)
        assert frontier.entries == [] and frontier.infeasible == [1.0]

    def test_unsorted_alpha_grid_rejected(self):
        grid = nl.NormGrid(np.array([[1.0, 0.0, 0.0]]), part="stable")
        with pytest.raises(ValueError):
            nl.fit_bounds(grid, "II", "stable", [2.0, 1.0])

    @pytest.mark.parametrize("kind, part, alphas", [
        ("II", "stable", [math.nan]),
        ("II", "stable", [0.5, math.inf]),
        ("III", "stable", [0.5]),
        ("ii", "stable", [0.5]),
        ("II", "stabel", [0.5]),
        ("I", None, [0.5]),
    ])
    def test_bad_arguments_rejected(self, kind, part, alphas):
        grid = nl.NormGrid(np.array([[1.0, 0.0, 0.0]]), part="stable")
        with pytest.raises(ValueError):
            nl.fit_bounds(grid, kind, part, alphas)

    def test_zero_and_negative_alphas_allowed(self):
        grid = nl.NormGrid(np.array([[1.0, 0.0, 0.0]]), part="stable")
        frontier = nl.fit_bounds(grid, "II", "stable", [-1.0, 0.0])
        assert frontier.entries == [(-1.0, 0.0, 0.0), (0.0, 0.0, 0.0)]

    @pytest.mark.parametrize("row, column, value", [
        (4, 2, math.nan), (0, 2, math.inf), (8, 0, math.nan), (3, 1, -math.inf)])
    def test_non_finite_sample_rejected(self, row, column, value):
        # -(t - s) + 0.5 |t| on the diagonal of 0:4:0.5.
        mesh = np.arange(0.0, 4.25, 0.5)
        samples = np.column_stack([mesh, mesh, 0.5 * mesh])
        grid = nl.NormGrid(samples.copy(), part="stable")
        assert nl.fit_bounds(grid, "II", "stable", [0.5]).entries == [(0.5, 0.0, 2.0)]
        samples[row, column] = value
        grid = nl.NormGrid(samples, part="stable")
        with pytest.raises(DataError, match="1 of 9"):
            nl.fit_bounds(grid, "II", "stable", [0.5])
        with pytest.raises(DataError, match="1 of 9"):
            _least_ln_m(grid, "I", 0.5, 1.0)


class TestCheckCertificate:
    def test_exact_boundary(self):
        p = constant_scalar(-1.0)
        grid = GridSpec(0.0, 10.0, 0.5)
        assert nl.check_certificate(p, decay_cert(1.0), grid) == pytest.approx(
            0.0, abs=1e-12)
        assert nl.check_certificate(p, decay_cert(1.1), grid) > 0.0
        # Equality is attained at t = s, so a slack rate still yields 0.
        assert nl.check_certificate(p, decay_cert(0.9), grid) == pytest.approx(
            0.0, abs=1e-12)

    def test_unstable_part(self):
        p = constant_scalar(1.0)  # expanding
        cert = DichotomyCertificate(
            "I", nl.FULL_LINE, 1.0, ExponentPair(1.0, 0.0),
            unstable=ExponentPair(1.0, 0.0), projection="identity")
        grid = GridSpec(-3.0, 3.0, 0.5)
        assert nl.check_certificate(p, cert, grid) == pytest.approx(0.0,
                                                                    abs=1e-10)

    def test_domain_clipping(self):
        p = constant_scalar(-1.0)
        cert = decay_cert(1.0, domain=nl.HALF_LINE_PLUS)
        # Full-line grid must be clipped to the certificate's half-line.
        v = nl.check_certificate(p, cert, GridSpec(-5.0, 5.0, 0.5))
        assert v == pytest.approx(0.0, abs=1e-12)


class TestConversion:
    def _random_cert(self, rng, domain):
        # Dyadic constants make the conversion arithmetic bitwise exact.
        scale = 2.0 ** -20
        rate = scale * float(rng.integers(1, 2 ** 22))
        growth = scale * float(rng.integers(0, 2 ** 22))
        m = 1.0 + scale * float(rng.integers(0, 2 ** 22))
        unstable = None
        if rng.integers(2):
            unstable = ExponentPair(scale * float(rng.integers(1, 2 ** 22)),
                                    growth)
        kind = "I" if rng.integers(2) else "II"
        proj = "zero" if unstable is None else "identity"
        return DichotomyCertificate(kind, domain, m, ExponentPair(rate, growth),
                                    unstable=unstable, projection=proj)

    def test_round_trip_bitwise(self):
        rng = np.random.default_rng(7)
        done = 0
        while done < 100:
            domain = nl.HALF_LINE_PLUS if rng.integers(2) else nl.HALF_LINE_MINUS
            cert = self._random_cert(rng, domain)
            try:
                there = nl.convert_halfline(cert)
            except InapplicableError:
                continue  # conversion would cross zero rate; skip
            back = nl.convert_halfline(there)
            assert back == cert  # dataclass equality: bitwise on floats
            done += 1

    def test_kind_and_shift(self):
        cert = DichotomyCertificate("I", nl.HALF_LINE_PLUS, 2.0,
                                    ExponentPair(1.0, 0.5), projection="zero")
        conv = nl.convert_halfline(cert)
        assert conv.kind == "II"
        assert conv.stable == ExponentPair(1.5, 0.5)
        assert conv.m == cert.m

    def test_converted_certificate_still_holds(self, barreira):
        grid = GridSpec(0.0, 40.0, 0.25)
        for claim in barreira.claims:
            cert = claim.certificate
            if cert.domain.kind != "plus":
                continue
            assert nl.check_certificate(barreira.process, cert, grid) <= 1e-9
            conv = nl.convert_halfline(cert)
            assert nl.check_certificate(barreira.process, conv, grid) <= 1e-9

    def test_full_line_rejected(self):
        with pytest.raises(InapplicableError):
            nl.convert_halfline(decay_cert(1.0))

    def test_placeholder_is_carried_unchanged(self):
        # x' = x: ||S(t, s)|| = e^{t - s} meets the unstable bound with
        # equality.  Shifted by its growth, the stable placeholder would
        # read a rate of -0.5 and refuse the conversion.
        process, grid = constant_scalar(1.0), GridSpec(0.0, 5.0, 0.5)
        placeholder = ExponentPair(0.5, 1.0)
        cert = DichotomyCertificate("II", nl.HALF_LINE_PLUS, 1.0, placeholder,
                                    unstable=ExponentPair(1.0, 0.0), projection="identity")
        assert nl.check_certificate(process, cert, grid) == 0.0
        assert (cert.omega, cert.upsilon) == (1.0, 0.0)
        conv = nl.convert_halfline(cert)
        assert conv.kind == "I" and conv.stable == placeholder
        assert conv.unstable == ExponentPair(1.0, 0.0)
        assert nl.check_certificate(process, conv, grid) == 0.0
        assert nl.convert_halfline(conv) == cert
        # omega > upsilon holds once the placeholder is not read.
        unified = nl.unify_exponents(cert)
        assert unified.kind == "I" and unified.unstable == ExponentPair(1.0, 0.0)
        assert nl.check_certificate(process, unified, grid) == 0.0

    def test_unbounded_unstable_pair_is_carried_unchanged(self):
        pair = ExponentPair(0.5, 1.0)
        cert = DichotomyCertificate("I", nl.HALF_LINE_PLUS, 2.0, ExponentPair(1.0, 0.5),
                                    unstable=pair, projection="zero")
        conv = nl.convert_halfline(cert)
        assert conv.stable == ExponentPair(1.5, 0.5) and conv.unstable == pair

    def test_nonpositive_rate_rejected(self):
        cert = DichotomyCertificate("II", nl.HALF_LINE_PLUS, 1.0,
                                    ExponentPair(1.0, 2.0), projection="zero")
        with pytest.raises(InapplicableError):
            nl.convert_halfline(cert)  # 1 - 2 <= 0


class TestUnifyExponents:
    def test_trade_growth_for_rate(self):
        cert = DichotomyCertificate("II", nl.HALF_LINE_PLUS, 3.0,
                                    ExponentPair(2.0, 0.5), projection="zero")
        uni = nl.unify_exponents(cert)
        assert uni.kind == "I"
        assert uni.stable == ExponentPair(1.5, 0.5)
        assert uni.m == 3.0

    def test_hypothesis_enforced(self):
        cert = DichotomyCertificate("II", nl.HALF_LINE_PLUS, 1.0,
                                    ExponentPair(1.0, 1.5), projection="zero")
        with pytest.raises(InapplicableError):
            nl.unify_exponents(cert)

    def test_unified_certificate_holds(self, barreira):
        grid = GridSpec(0.0, 40.0, 0.25)
        cert = [c.certificate for c in barreira.claims
                if c.certificate.domain.kind == "plus"
                and c.certificate.kind == "II"][0]  # (3, 2) on R+
        uni = nl.unify_exponents(cert)
        assert uni.kind == "I" and uni.stable == ExponentPair(1.0, 2.0)
        assert nl.check_certificate(barreira.process, uni, grid) <= 1e-9


class TestDualCertificate:
    def test_kind_and_projection_swap(self):
        cert = decay_cert(1.0, m=2.0)
        dual = nl.dual_certificate(cert)
        assert dual.kind == "I"
        assert dual.projection == "identity"
        assert dual.m == cert.m

    def test_dual_pair_validates_on_dual_process(self, barreira):
        p = barreira.process
        cert = [c.certificate for c in barreira.claims
                if c.certificate.domain.kind == "plus"
                and c.certificate.kind == "II"][0]
        dual_p = nl.dual_process(p)
        dual_c = nl.dual_certificate(cert)
        # Stable pairs (t, s) of p map to unstable pairs (s, t) of the
        # dual on the same half-line, so the swapped certificate holds
        # on the identical window.
        grid = GridSpec(0.0, 40.0, 0.25)
        assert nl.check_certificate(dual_p, dual_c, grid) <= 1e-9


    def test_one_part_explicit_dual_is_refused(self):
        # diag(e^{-2(t-s)}, e^{(t-s)/2}) split by P_u = diag(0, 1).  The
        # stable fit holds, but its dual would bound the primal's unbounded
        # unstable part with the stable pair, which fails there by 9.
        process = nl.MatrixClosedFormProcess(
            lambda t, s: np.diag([math.exp(-2.0 * (t - s)), math.exp(0.5 * (t - s))]), 2)
        family = ProjectionFamily.constant(np.diag([0.0, 1.0]))
        grid = GridSpec(-3.0, 3.0, 0.5)
        _, cert = nl.classify(process, family, "II", grid, [1.0, 2.0])
        assert cert.unstable is None and nl.check_certificate(process, cert, grid) <= 0.0
        with pytest.raises(InapplicableError, match="one-part explicit"):
            nl.dual_certificate(cert)


class TestRejectionEvidence:
    def test_no_false_rejection_on_genuine_nedi(self):
        for rate in (-0.5, -1.5):
            p = constant_scalar(rate)
            ev = nl.nedi_rejection_evidence(
                p, [(-5.0, 5.0), (-10.0, 10.0)],
                box=((0.05, 4.0), (0.05, 4.0)), resolution=0.25, step=0.5)
            assert not ev.rejected()
            assert max(ev.min_ln_m["zero"]) <= 1e-9

    def test_window_nesting_enforced(self):
        p = constant_scalar(-1.0)
        with pytest.raises(ValueError):
            nl.nedi_rejection_evidence(p, [(-10.0, 10.0), (-5.0, 5.0)])

    @pytest.mark.parametrize("kwargs", [
        {"resolution": 0.0},
        {"resolution": -0.1},
        {"box": ((1.0, 0.5), (0.0, 1.0))},
        {"box": ((0.05, 1.0), (1.0, 0.0))},
    ])
    def test_bad_box_or_resolution_raises(self, kwargs):
        p = constant_scalar(-1.0)
        with pytest.raises(ValueError):
            nl.nedi_rejection_evidence(p, [(-5.0, 5.0), (-10.0, 10.0)], **kwargs)

    def test_poisoned_window_blocks_rejection(self):
        # e^{20 (|t| - |s|)}: the sign-switch process sped up twentyfold.
        # On [-20, 20] the pairs with 20 (|t| - |s|) above the escape guard
        # (ln 1e150 ~ 345) are dropped; what is left still grows by more than e, but the
        # growth is no longer evidence.
        p = nl.ScalarExponentProcess(lambda t, s: 20.0 * (np.abs(t) - np.abs(s)))
        windows = [(-5.0, 5.0), (-10.0, 10.0), (-20.0, 20.0)]
        ev = nl.nedi_rejection_evidence(p, windows, box=((0.05, 2.0), (0.0, 2.0)),
                                        resolution=0.25, step=0.5)
        for kind, part in (("zero", "stable"), ("identity", "unstable")):
            want = [len(nl.sample_norm_grid(p, None, GridSpec(lo, hi, 0.5),
                                            part=part).poisoned)
                    for lo, hi in windows]
            assert ev.poisoned[kind] == want
            assert want[:2] == [0, 0] and want[2] > 0
            assert all(g >= math.e for g in ev.growth_factors(kind))
        assert not ev.rejected()
        clean = nl.nedi_rejection_evidence(p, windows[:2],
                                           box=((0.05, 2.0), (0.0, 2.0)),
                                           resolution=0.25, step=0.5)
        assert clean.poisoned == {"zero": [0, 0], "identity": [0, 0]}
        assert clean.rejected()

    def test_one_window_is_no_evidence(self):
        # x' = -x has a uniform kind-I dichotomy; one window has no growth
        # factor, so nothing was defeated.
        ev = nl.nedi_rejection_evidence(constant_scalar(-1.0), [(0.0, 10.0)])
        assert ev.growth_factors("zero") == ev.growth_factors("identity") == []
        assert not ev.rejected()

    @pytest.mark.parametrize("kinds", [(), ("explicit",), ("zero", "stable")])
    def test_projection_kinds_are_one_or_both_trivial_families(self, kinds):
        with pytest.raises(ValueError, match="projection kinds"):
            nl.nedi_rejection_evidence(constant_scalar(1.0), [(0.0, 5.0), (0.0, 10.0)],
                                       projection_kinds=kinds)
        # Evidence with no kind defeats no projection choice.
        assert not nl.RejectionEvidence([(0.0, 5.0), (0.0, 10.0)], (), 0.05, {}).rejected()

    def test_fully_poisoned_window_raises(self):
        # Every unstable pair of [0, 1] on a 0.5 mesh has s - t >= 0.5, so
        # 1000 (s - t) passes the escape guard: no constraint is left.
        p = nl.ScalarExponentProcess(lambda t, s: 1000.0 * (s - t))
        with pytest.raises(nl.DataError, match="poisoned"):
            nl.nedi_rejection_evidence(p, [(0.0, 1.0), (0.0, 2.0)], step=0.5)

    @pytest.mark.parametrize("resolution", [0.05, 0.1, 0.25, 0.3, 1.0])
    def test_minimum_is_the_box_corner_at_any_resolution(self, resolution):
        # A delta grid from 0.05 in steps of 0.25 passed the box end (2.05,
        # min ln M 6.15) and in steps of 0.1 stopped short of it (1.95, 6.25).
        p = nl.ScalarExponentProcess(lambda t, s: 2.0 * (t - s))
        ev = nl.nedi_rejection_evidence(p, [(1.0, 5.0), (1.0, 9.0)],
                                        box=((0.05, 2.0), (0.05, 2.0)),
                                        resolution=resolution)
        # Binding pair (t, s) = (5, 1): (2 + 0.05) * 4 - 2.0 * 1.
        assert ev.min_ln_m["zero"][0] == pytest.approx(6.2, abs=1e-12)
        sampled = nl.sample_norm_grid(p, None, GridSpec(1.0, 5.0, 0.25))
        assert ev.min_ln_m["zero"][0] == _least_ln_m(sampled, "I", 0.05, 2.0)
        assert ev.min_ln_m["identity"] == [0.0, 0.0]

    @settings(max_examples=200, deadline=None)
    @given(grid=_norm_grids(), box=_box())
    def test_scan_matches_per_alpha_reference(self, grid, box):
        (a_box, d_box), _ = box
        rate = a_box[0] if grid.part == "stable" else -a_box[0]
        corner = _least_ln_m(grid, "I", rate, d_box[1])
        assert corner == _reference_kind_one_minimum(grid, *_box_axes((a_box, d_box)))
        assert corner == pytest.approx(_lp_kind_one_minimum(grid, (a_box, d_box)),
                                       abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(knots=st.lists(st.floats(-4.0, 4.0, allow_nan=False),
                          min_size=7, max_size=7),
           inner=st.tuples(st.sampled_from([-1.0, -0.25, 0.0]),
                           st.sampled_from([0.1, 0.5, 1.0])),
           widen=st.lists(st.sampled_from([0.0, 0.5, 1.5]), min_size=2,
                          max_size=4),
           step=st.sampled_from([0.25, 0.5, 1.0]), box=_box())
    def test_evidence_matches_per_alpha_reference(self, knots, inner, widen,
                                                  step, box):
        # Piecewise-linear log-propagator F(t) - F(s) with random slopes.
        xs = np.linspace(-6.0, 6.0, len(knots))
        fs = np.cumsum(knots)
        p = nl.ScalarExponentProcess(
            lambda t, s: np.interp(t, xs, fs) - np.interp(s, xs, fs))
        lo, hi = inner  # narrower than the step: one unstable pair
        windows = [(lo, hi)]
        for w in widen:  # w == 0 widens to the right only
            lo, hi = lo - w, hi + (w or 0.5)
            windows.append((lo, hi))
        (a_box, d_box), resolution = box
        ev = nl.nedi_rejection_evidence(p, windows, box=(a_box, d_box),
                                        resolution=resolution, step=step)
        alphas, deltas = _box_axes((a_box, d_box))
        for w, (lo, hi) in enumerate(windows):
            spec = GridSpec(lo, hi, step)
            for kind, part in (("zero", "stable"), ("identity", "unstable")):
                sampled = nl.sample_norm_grid(p, None, spec, part=part)
                best = _reference_kind_one_minimum(sampled, alphas, deltas)
                assert ev.min_ln_m[kind][w] == max(0.0, best)
                assert ev.min_ln_m[kind][w] == pytest.approx(
                    max(0.0, _lp_kind_one_minimum(sampled, (a_box, d_box))), abs=1e-9)


class TestLeastLnM:
    @settings(max_examples=200, deadline=None)
    @given(grid=_norm_grids(), kind=st.sampled_from(["I", "II"]),
           rate=st.floats(-5.0, 5.0, allow_nan=False),
           delta=st.floats(-8.0, 8.0, allow_nan=False))
    def test_matches_the_anchor_envelope_bitwise(self, grid, kind, rate, delta):
        envelope = _AnchorEnvelope(grid, kind)
        want = float(np.max(envelope.heights(rate) - delta * envelope.anchors))
        assert _least_ln_m(grid, kind, rate, delta) == want

    def test_empty_grid_is_minus_inf(self):
        grid = nl.NormGrid(np.empty((0, 3)), part="stable")
        assert _least_ln_m(grid, "II", 1.0, 0.5) == -math.inf


class TestClassify:
    def test_recovers_constant_rate(self):
        p = constant_scalar(-2.0)
        frontier, cert = nl.classify(
            p, ProjectionFamily.zero(1), "II", GridSpec(0.0, 10.0, 0.5),
            [0.5, 1.0, 1.5, 2.0], domain=nl.HALF_LINE_PLUS)
        assert cert is not None
        alpha, delta, ln_m = frontier.best()
        assert alpha == 2.0 and delta == pytest.approx(0.0, abs=1e-12)
        assert nl.check_certificate(p, cert, GridSpec(0.0, 10.0, 0.5)) <= 1e-9

    @staticmethod
    def _planted_saddle():
        """Q diag(e^{-(t-s)}, e^{t-s}) Q^-1 with its unstable family
        Q diag(0, 1) Q^-1, for a skew basis Q."""
        q = np.array([[1.0, 1.0], [0.0, 1.0]])
        q_inv = np.linalg.inv(q)
        process = nl.MatrixClosedFormProcess(
            lambda t, s: q @ np.diag([math.exp(-(t - s)), math.exp(t - s)]) @ q_inv, 2)
        return process, ProjectionFamily.constant(q @ np.diag([0.0, 1.0]) @ q_inv)

    def test_explicit_family_travels_with_the_certificate(self):
        process, family = self._planted_saddle()
        grid = GridSpec(0.0, 4.0, 0.5)
        frontier, cert = nl.classify(process, family, "II", grid, [0.5, 1.0])
        assert cert.projection == "explicit" and cert.projection_family is family
        assert nl.check_certificate(process, cert, grid) <= 1e-12

    def test_explicit_family_unstable_part_gives_no_certificate(self):
        process, family = self._planted_saddle()
        frontier, cert = nl.classify(process, family, "II", GridSpec(0.0, 4.0, 0.5),
                                     [0.5, 1.0], part="unstable")
        assert cert is None and frontier.entries

    def test_zeroed_part_is_refused_before_sampling(self, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled a zeroed part")
        monkeypatch.setattr(nl.dichotomy, "sample_norm_grid", no_sampling)
        with pytest.raises(ValueError, match="'zero' projection family zeroes the "
                                             "unstable part"):
            nl.classify(constant_scalar(-1.0), ProjectionFamily.zero(1), "II",
                        GridSpec(0.0, 2.0, 0.5), [0.5], part="unstable")

    def test_escaped_pairs_refuse_a_certificate(self):
        # x' = f(t) x with f = -1 but +1000 on (8, 8.5]: every pair across the
        # burst escapes.  Fitted around them the frontier offers M = 1,
        # alpha = 1, delta = 0, which check_certificate rejects with inf.
        def antiderivative(t):
            if t <= 8.0:
                return -t
            return -8.0 + 1000.0 * (min(t, 8.5) - 8.0) - max(t - 8.5, 0.0)
        burst = nl.ScalarCoefficientProcess(lambda t: 1000.0 if 8.0 < t <= 8.5 else -1.0,
                                            antiderivative=antiderivative)
        grid = GridSpec(0.0, 10.0, 0.5)
        assert len(nl.sample_norm_grid(burst, None, grid).poisoned) == 68
        with pytest.raises(DataError, match="68 sampled pairs escaped"):
            nl.classify(burst, None, "II", grid, [0.5, 1.0])


#: Fit grids on each kind of domain, for the round trip below.
_PART_RULE_GRIDS = {"full": GridSpec(-4.0, 4.0, 0.5), "plus": GridSpec(0.0, 8.0, 0.5),
                    "minus": GridSpec(-8.0, 0.0, 0.5)}


class TestPartRule:
    """A certificate that classify emits claims the part it fitted and holds
    there, and so does its dual on the dual process, or the dual is refused."""

    @pytest.mark.parametrize("part", ["stable", "unstable"])
    @pytest.mark.parametrize("kind", ["I", "II"])
    @pytest.mark.parametrize("name, family", [
        (name, family) for name in nl.gallery.entry_names()
        for family in (None, "zero", "identity")] + [("planted-saddle", "explicit")])
    def test_classify_round_trip(self, name, family, kind, part):
        if name == "planted-saddle":
            process, projection = TestClassify._planted_saddle()
        else:
            process = nl.gallery.make_entry(name).process
            projection = family and getattr(ProjectionFamily, family)(1)
        grid = _PART_RULE_GRIDS[process.domain.kind]
        alphas = [0.25, 0.5, 1.0, 2.0]
        if (family, part) in (("zero", "unstable"), ("identity", "stable")):
            with pytest.raises(ValueError,
                               match="the '%s' projection family zeroes the %s part"
                               % (family, part)):
                nl.classify(process, projection, kind, grid, alphas, part=part)
            return
        frontier, cert = nl.classify(process, projection, kind, grid, alphas, part=part)
        if cert is None:
            # Only an explicit family claims a part besides the fitted one.
            assert family == "explicit" and part == "unstable" or not frontier.entries
            return
        # None projects nothing: a stable fit is "zero", an unstable one "identity".
        assert cert.projection == (family or {"stable": "zero", "unstable": "identity"}[part])
        assert nl.check_certificate(process, cert, grid) <= 1e-12
        try:
            dual = nl.dual_certificate(cert)
        except InapplicableError:
            # The dual's stable part is the primal's unstable part.
            assert family == "explicit" and cert.unstable is None
            return
        assert nl.check_certificate(nl.dual_process(process), dual, grid) <= 1e-12


@pytest.fixture
def row_tables(monkeypatch):
    """The norm grids whose (n, 3) ``samples`` table is read while the
    fixture is active."""
    read = []
    table = nl.NormGrid.samples
    monkeypatch.setattr(nl.NormGrid, "samples",
                        property(lambda grid: read.append(grid) or table.fget(grid)))
    return read


class TestColumnsOnTheHotPath:
    """Checking, fitting and rejection read a sampled grid's columns and
    never build its row table."""

    def test_check_certificate(self, row_tables):
        entry = make_entry("barreira")
        for claim in entry.claims:
            nl.check_certificate(entry.process, claim.certificate, GridSpec(-4.0, 4.0, 0.25))
        pair = ExponentPair(1.0, 0.5)
        two_parts = DichotomyCertificate("II", nl.FULL_LINE, 2.0, pair, unstable=pair,
                                         projection="identity")
        nl.check_certificate(constant_scalar(1.0), two_parts, GridSpec(-2.0, 2.0, 0.5))
        assert row_tables == []

    @pytest.mark.parametrize("part", ["stable", "unstable"])
    def test_classify_and_fit_bounds(self, row_tables, part):
        process = make_entry("sign-switch").process
        grid = GridSpec(-1.3, 2.05, 0.35)
        nl.classify(process, None, "II", grid, [0.25, 0.5, 1.0], part=part)
        sampled = nl.sample_norm_grid(process, None, grid, part=part)
        for kind in ("I", "II"):
            nl.fit_bounds(sampled, kind, part, [0.25, 0.5, 1.0])
            _least_ln_m(sampled, kind, 0.5, 1.0)
        assert row_tables == [] and sampled._samples is None

    def test_rejection_evidence(self, row_tables):
        nl.nedi_rejection_evidence(make_entry("sign-switch").process,
                                   [(0.0, 5.0), (-10.0, 10.0)])
        assert row_tables == []

    def test_the_fixture_sees_a_read(self, row_tables):
        sampled = nl.sample_norm_grid(constant_scalar(-1.0), None, GridSpec(0.0, 1.0, 0.5))
        assert sampled.samples.shape == (6, 3) and row_tables == [sampled]


class TestNonFiniteColumns:
    @pytest.mark.parametrize("column", ["t", "s", "log_norm"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_hand_built_columns_are_rejected(self, column, value):
        mesh = np.arange(0.0, 4.25, 0.5)
        columns = {"t": mesh.copy(), "s": mesh.copy(), "log_norm": 0.5 * mesh}
        columns[column][3] = value
        grid = nl.NormGrid.from_columns(**columns, part="stable")
        with pytest.raises(DataError, match="1 of 9"):
            nl.fit_bounds(grid, "II", "stable", [0.5])
        with pytest.raises(DataError, match="1 of 9"):
            _least_ln_m(grid, "I", 0.5, 1.0)
        with pytest.raises(DataError, match="1 of 9"):
            _AnchorEnvelope(grid, "II")

    def test_every_bad_sample_is_counted_once(self):
        grid = nl.NormGrid(np.array([[math.nan, math.inf, 0.0], [1.0, 0.0, math.nan],
                                     [1.0, 0.0, -1.0]]))
        with pytest.raises(DataError, match="2 of 3"):
            _least_ln_m(grid, "II", 0.0, 0.0)
