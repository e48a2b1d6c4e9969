"""Pullback/forward attraction for dissipative nonautonomous ODE fields.

Provides the weighted-function spaces C_eta, scalar comparison bounds
under the dissipativity assumption 2 <f(t,x), x> <= a(t)|x|^2 + b(t),
closed-form radius envelopes for pullback and forward attractors, and
Monte-Carlo simulation of pullback and forward omega-limit sets with
single-linkage clustering.  Pullback seeds are either one fixed (m, n)
cloud or a function s -> (m, n) cloud of the start time s; a tempered
universe D_gamma enters as such a function, whose growth
:func:`universe_membership` measures on a sampled family.  A forward
cloud is ``converged`` only when its last two horizon clouds agree
within the cluster tolerance.  The simulations integrate whole seed
clouds with compiled LSODA, Adams steps where the field is smooth and
BDF steps where it is stiff, on the per-thread driver of nedlab.process
(see _integrate_ensemble).  One flag per thread guards it and the DOP853
driver of the integrated linear processes, so a field must not start
another compiled solve, such as an IntegratedLinearProcess matrix.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad
# Kept bound although unused: perfbench's tracer wraps
# nedlab.attractor.solve_ivp by name.
from scipy.integrate import solve_ivp  # noqa: F401

from .dichotomy import DichotomyCertificate, InapplicableError
from .process import (_ATOL, _LSODA, _RTOL, FULL_LINE, GridSpec, ScalarCoefficientProcess,
                      ScalarExponentProcess, TimeDomain, _guard_exponent)

__all__ = [
    "WeightedFunction",
    "SetFamily",
    "RadiusEnvelope",
    "DissipativitySpec",
    "CooperativeSpec",
    "OmegaCloud",
    "MarginReport",
    "weighted_norm",
    "comparison_bound",
    "make_pullback_envelope",
    "make_linear_envelope",
    "forward_bound",
    "forward_attractor_radius",
    "simulate_pullback_omega",
    "simulate_forward_omega",
    "verify_containment",
    "hausdorff_semidistance",
    "universe_membership",
    "attractor_coincidence",
]

_CASE_TOL = 1e-12  # declared tolerance for the forward-bound case split
#: An ensemble escapes once some coordinate reaches this size.
_ESCAPE_RADIUS = 1e8


# TYPES ================================================================================

@dataclasses.dataclass
class WeightedFunction:
    """A forcing profile b together with its weight exponent eta.

    Membership in C_eta (finiteness of sup e^{-eta|r|} |b(r)|) is
    certified on grids only; see :func:`weighted_norm`.
    """

    evaluator: Callable[[float], float]
    eta: float
    domain: TimeDomain = FULL_LINE

    def __call__(self, r: float):
        return self.evaluator(r)


@dataclasses.dataclass
class SetFamily:
    """Time-indexed finite point clouds: sections[t] is an (m, n) array."""

    sections: dict

    def __post_init__(self):
        if not self.sections:
            raise ValueError("a set family needs at least one section")
        fixed = {}
        for t, pts in self.sections.items():
            pts = np.atleast_2d(np.asarray(pts, dtype=float))
            if pts.shape[0] == 0:
                raise ValueError("empty section at t=%g" % t)
            fixed[float(t)] = pts
        self.sections = fixed

    def times(self):
        return sorted(self.sections)

    def section(self, t: float) -> np.ndarray:
        return self.sections[float(t)]


@dataclasses.dataclass
class RadiusEnvelope:
    """A closed-form radius curve t -> R(t) with its defining parameters."""

    params: dict
    evaluator: Callable[[float], float]
    norm: str = "euclidean"

    def __call__(self, t: float) -> float:
        return float(self.evaluator(t))


#: Samples per block of field calls in :meth:`DissipativitySpec.certify`.
_CERTIFY_BLOCK = 1024


@dataclasses.dataclass
class DissipativitySpec:
    """A field together with scalar dissipativity witnesses:
    2 <f(t,x), x> <= a(t) |x|^2 + b(t)."""

    field: Callable
    a: Callable[[float], float]
    b: WeightedFunction
    dimension: int = 1

    def certify(self, t_range, x_radius, n_samples: int = 10000,
                seed: int = 0):
        """Sampled check of the dissipativity inequality on a box.

        Draws ``n_samples`` points (t, x): t uniform on ``t_range``, and
        x = r u with u a normalised Gaussian direction (uniform on the
        sphere) and r uniform on [0, x_radius], so the points crowd
        toward the origin rather than fill the ball uniformly.  Returns
        (max of 2 <f(t,x), x> - a(t) |x|^2 - b(t), all-nonpositive flag).
        A NaN sample makes the maximum NaN and the flag False.  The result
        is evidence, not a certificate: no sample check proves the global
        inequality, and reports should say so.
        """
        if n_samples < 1:
            raise ValueError("certify needs at least one sample")
        rng = np.random.default_rng(seed)
        lo, hi = t_range
        times = rng.uniform(lo, hi, size=n_samples)
        xs = rng.normal(size=(n_samples, self.dimension))
        radii = rng.uniform(0.0, x_radius, size=n_samples)
        xs *= (radii / np.maximum(np.linalg.norm(xs, axis=1), 1e-300))[:, None]
        excess = np.empty(n_samples)
        # Blocks bound the memory held by the per-sample field outputs.
        for k in range(0, n_samples, _CERTIFY_BLOCK):
            block = slice(k, k + _CERTIFY_BLOCK)
            tb, xb = times[block].tolist(), xs[block]
            fx = np.asarray([self.field(t, x) for t, x in zip(tb, xb)],
                            dtype=float).reshape(xb.shape)
            a = np.array([self.a(t) for t in tb], dtype=float)
            b = np.array([self.b(t) for t in tb], dtype=float)
            with np.errstate(over="ignore", invalid="ignore"):   # inf - inf fails as NaN
                excess[block] = 2.0 * np.einsum("ij,ij->i", fx, xb) \
                    - (a * np.einsum("ij,ij->i", xb, xb) + b)
        worst = float(np.max(excess))   # NaN if any sample is NaN
        return worst, worst <= 0.0


@dataclasses.dataclass
class CooperativeSpec:
    """Quasimonotone comparison system x' <= A(t) x + b(t) in the
    componentwise order, measured in the max-norm."""

    a_matrix: Callable[[float], np.ndarray]
    b_vector: Callable[[float], np.ndarray]
    dimension: int
    field: Optional[Callable] = None

    def __post_init__(self):
        if not callable(self.a_matrix):
            m = np.asarray(self.a_matrix, dtype=float)
            self.a_matrix = lambda t: m
        # The field reads b_vector(t) as a float array without converting it.
        if callable(self.b_vector):
            forcing = self.b_vector
            self.b_vector = lambda t: np.asarray(forcing(t), dtype=float)
        else:
            v = np.asarray(self.b_vector, dtype=float)
            self.b_vector = lambda t: v
        if self.field is None:
            self.field = self._affine_field

    def _affine_field(self, t, x):
        # A single state is an (n,) vector, a batch an (n, k) array.
        b = self.b_vector(t)
        return self.a_matrix(t) @ x + (b if x.ndim == 1 else b[:, None])

    def certify(self, t_samples, x_radius=1.0, n_samples: int = 200, seed: int = 0):
        """Sampled checks of the structure: nonnegative off-diagonals,
        nonnegative forcing, and the boundary condition f_i >= 0 on
        {x >= 0, x_i = 0}.  Returns the worst (most negative) value, or
        NaN if any checked value is NaN.  Raises ValueError for no times
        or fewer than one state per time, which would check nothing."""
        if n_samples < 1:
            raise ValueError("certify needs at least one state per time")
        rng = np.random.default_rng(seed)
        values = []
        for t in t_samples:
            m = np.asarray(self.a_matrix(t), dtype=float)
            off = m - np.diag(np.diag(m))
            values += [np.min(off), np.min(self.b_vector(t))]
            for _ in range(n_samples):
                x = rng.uniform(0.0, x_radius, size=self.dimension)
                i = rng.integers(self.dimension)
                x[i] = 0.0
                values.append(self.field(t, x)[i])
        if not values:
            raise ValueError("certify needs at least one time")
        return float(np.min(values))   # np.min keeps a NaN that min() drops


# WEIGHTED NORMS AND BOUNDS ============================================================

def weighted_norm(b: WeightedFunction, grid: GridSpec) -> float:
    """sup of e^{-eta |r|} |b(r)| over the grid."""
    vals = [math.exp(-b.eta * abs(r)) * abs(float(b(r))) for r in grid.mesh()
            if b.domain.contains(r)]
    if not vals:
        raise ValueError("grid does not intersect the weight domain")
    return float(np.max(vals))


def comparison_bound(scalar_process: ScalarExponentProcess, b: WeightedFunction,
                     t: float, s: float, x0_norm_sq: float) -> float:
    """Right-hand side of the scalar comparison:
    T(t,s) x0_norm_sq + int_s^t T(t,tau) b(tau) dtau.

    ``scalar_process`` is the comparison propagator T generated by the
    witness coefficient a, and must be a :class:`ScalarExponentProcess`
    (such as a :class:`ScalarCoefficientProcess`): T(t, tau) is read as
    ``exp`` of its guarded exponent, with the domain check and the
    :class:`FiniteEscapeError` guard of ``propagate``.  A
    :class:`ScalarCoefficientProcess` checks the domain at s and t and
    reads F(t) once per call, so each quadrature node reads only F(tau).
    """
    if t < s:
        raise ValueError("comparison bound needs t >= s")
    if scalar_process.dimension != 1:
        raise ValueError("comparison propagator must be scalar")
    if not isinstance(scalar_process, ScalarExponentProcess):
        raise TypeError("comparison propagator must be a ScalarExponentProcess, "
                        "not %s" % type(scalar_process).__name__)
    if isinstance(scalar_process, ScalarCoefficientProcess):
        # Domains are intervals: every node between s and t passes the
        # check once s and t do.
        scalar_process._check_args(t, s)
        big_f = scalar_process._cumulative
        f_t = big_f(t)

        def exponent(end, tau):
            return _guard_exponent(end, tau, f_t - big_f(tau))
    else:
        exponent = scalar_process._guarded_exponent
    homogeneous = math.exp(exponent(t, s))

    def integrand(tau):
        return math.exp(exponent(t, tau)) * float(b(tau))

    if t == s:
        forced = 0.0
    else:
        forced, abserr = quad(integrand, s, t, epsabs=1e-12, epsrel=1e-10,
                              limit=400)
        if not abserr <= 1e-6 * np.maximum(1.0, abs(forced)):
            raise RuntimeError("comparison quadrature did not converge "
                               "(error estimate %.3g)" % abserr)
    return homogeneous * x0_norm_sq + forced


def make_pullback_envelope(cert: DichotomyCertificate, lam: float,
                           bnorm: float) -> RadiusEnvelope:
    """Pullback radius on R- under a kind-II dichotomy, the Euclidean square root
    of :func:`make_linear_envelope`: R(t) = [ (M/(alpha - delta*lam))
    * ||b||_{lam*delta} * e^{(lam+1) delta |t|} ]^{1/2}."""
    linear = make_linear_envelope(cert, lam, bnorm)
    return dataclasses.replace(linear, evaluator=lambda t: math.sqrt(linear(t)),
                               norm="euclidean")


def make_linear_envelope(cert: DichotomyCertificate, lam: float,
                         bnorm: float) -> RadiusEnvelope:
    """Sup-norm radius of the linear (case-I) problem under a kind-II
    dichotomy: R(t) = (M/(alpha - delta*lam)) * ||b|| * e^{(1+lam) delta |t|}."""
    alpha, delta = cert.stable.rate, cert.stable.growth
    denom = alpha - delta * lam
    if not (denom > 0):
        raise InapplicableError("need alpha > delta * lambda "
                                "(alpha=%g, delta=%g, lambda=%g)"
                                % (alpha, delta, lam))

    def radius(t):
        return (cert.m / denom) * bnorm * math.exp((1.0 + lam) * delta * abs(t))

    return RadiusEnvelope(
        params={"M": cert.m, "alpha": alpha, "delta": delta,
                "lambda": lam, "bnorm": bnorm},
        evaluator=radius, norm="max")


def forward_bound(cert: DichotomyCertificate, eta: float, bnorm: float,
                  t: float, s: float, x0_norm_sq: float) -> float:
    """Forward-in-time comparison bound on R+ under a kind-II dichotomy
    with stable pair (beta, nu).

    Three regimes depending on the weight eta of the forcing relative
    to the threshold -beta/nu (selected with tolerance 1e-12):

      eta > -beta/nu :  M e^{(nu-beta)t + beta s} x0^2
                        + (M/(beta+nu eta)) ||b|| e^{(eta+1) nu |t|}
      eta = -beta/nu :  ... + M ||b|| e^{(nu-beta)t} (t - s)
      eta < -beta/nu :  ... - (M ||b|| / (beta + eta nu))
                              e^{(nu-beta)t} e^{nu(eta+1)s}
    """
    if not (t >= s >= 0):
        raise ValueError("forward bound needs t >= s >= 0")
    beta, nu = cert.stable.rate, cert.stable.growth
    m = cert.m
    homogeneous = m * math.exp((nu - beta) * t + beta * s) * x0_norm_sq
    if bnorm == 0.0:
        return homogeneous
    if nu == 0.0:
        # Uniform case: the threshold recedes to -inf; always regime 1.
        return homogeneous + (m / beta) * bnorm
    threshold = -beta / nu
    if abs(eta - threshold) <= _CASE_TOL:
        return homogeneous + m * bnorm * math.exp((nu - beta) * t) * (t - s)
    if eta > threshold:
        return homogeneous + (m / (beta + nu * eta)) * bnorm \
            * math.exp((eta + 1.0) * nu * abs(t))
    return homogeneous - (m * bnorm / (beta + eta * nu)) \
        * math.exp((nu - beta) * t) * math.exp(nu * (eta + 1.0) * s)


def forward_attractor_radius(cert: DichotomyCertificate, eta: float,
                             bnorm: float, full_line: bool = False) -> dict:
    """Forward attractor size under a kind-I dichotomy with zero
    unstable projection and weight eta <= -1 (in delta units).

    Half-line: eta < -1 gives the point attractor {0}; eta = -1 gives
    the ball of radius (M ||b||_{-delta} / alpha)^{1/2}.  The full-line
    variant returns R_F = (M ||b||_{-delta} / (alpha - delta))^{1/2},
    which needs alpha > delta.
    """
    alpha, delta = cert.stable.rate, cert.stable.growth
    if full_line:
        if not (alpha > delta):
            raise InapplicableError("full-line radius needs alpha > delta")
        return {"kind": "ball",
                "radius": math.sqrt(cert.m * bnorm / (alpha - delta))}
    if eta < -1.0 - _CASE_TOL:
        return {"kind": "point", "radius": 0.0}
    if abs(eta + 1.0) <= _CASE_TOL:
        return {"kind": "ball", "radius": math.sqrt(cert.m * bnorm / alpha)}
    raise InapplicableError("forward attractor theorem needs eta <= -1")


# SIMULATION ===========================================================================

class TrajectoryEscapeError(RuntimeError):
    pass


_BATCH_CONTRACT = ("the field must accept an (n, k) array whose columns are k "
                   "states and return an (n, k) array (or (k,) when n == 1), "
                   "acting on each column as on a single state")


def _agree(got: np.ndarray, ref: np.ndarray, tol: float) -> bool:
    """``np.allclose(got, ref, rtol=0, atol=tol, equal_nan=True)`` for a
    finite tol, written out: every entry equal, within tol, or NaN in both."""
    with np.errstate(invalid="ignore"):   # inf - inf
        close = (got == ref) | (np.abs(got - ref) <= tol)
    return bool(np.all(close | (np.isnan(got) & np.isnan(ref))))


def _check_batch_field(field, t0: float, points: np.ndarray) -> None:
    """Evaluate the field once as a batch and once per seed on the
    initial cloud; raise TypeError unless both agree to 1e-12 times the
    largest per-seed entry (BLAS may sum a batch in another order)."""
    k, n = points.shape
    got = np.asarray(field(t0, points.T), dtype=float)
    if got.shape != (n, k) and not (n == 1 and got.shape == (k,)):
        raise TypeError("batched field returned shape %s for %d states of "
                        "dimension %d; %s" % (got.shape, k, n, _BATCH_CONTRACT))
    ref = np.stack([np.asarray(field(t0, p), dtype=float).reshape(n)
                    for p in points], axis=1)
    finite = np.abs(ref[np.isfinite(ref)])
    tol = 1e-12 * float(np.max(finite, initial=0.0))
    if not _agree(got.reshape(n, k), ref, tol):
        raise TypeError("batched field disagrees with per-state evaluation "
                        "(does it reduce over x?); %s" % _BATCH_CONTRACT)


def _integrate_ensemble(field, t0: float, t1: float, points: np.ndarray,
                        t_eval=None):
    """Integrate x' = f(t, x) for every row of `points` as one stacked
    system with compiled LSODA at the linear solves' ``_RTOL, _ATOL``,
    calling the field once per right-hand-side evaluation on the (n, k)
    array of all states (see _BATCH_CONTRACT): a result is converted to
    float, and one with the wrong number of entries raises ValueError.
    The state is stored seed by seed, so the seeds' independence makes the
    Jacobian block diagonal: LSODA forms it banded, with n - 1 diagonals
    on each side, at 2n - 1 field calls and O(n^2 k) memory (diagonal for
    a scalar field).

    The first evaluation at each new time checks the state: one at
    some |x_i| >= _ESCAPE_RADIUS raises TrajectoryEscapeError naming that
    time (at once for a seed that starts there), and one that is not a
    number raises RuntimeError.  LSODA evaluates a step's predicted
    state first, so an escape may be reported up to one step early.

    Returns the final ensemble, or, when t_eval is given, the list of
    ensembles at the times t_eval, ordered from t0 toward t1 and ending
    at t1, all output times of one run.  Not re-entrant: a field that
    starts another compiled solve (another ensemble, or an
    IntegratedLinearProcess matrix, propagate or grid step) raises
    RuntimeError.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    k, n = points.shape
    _check_batch_field(field, t0, points)
    squared, last = _ESCAPE_RADIUS ** 2, math.nan

    def rhs(tau, y):
        nonlocal last
        if tau != last:
            last = tau
            # The 2-norm bounds the largest |y_i| and costs a quarter as much.
            if not (y.dot(y) < squared):
                peak = np.abs(y).max()
                if peak >= _ESCAPE_RADIUS:
                    raise TrajectoryEscapeError(
                        "ensemble escaped |x| >= %g at t=%r" % (_ESCAPE_RADIUS, tau))
                if not peak < _ESCAPE_RADIUS:
                    raise RuntimeError("integration failed: the state is not a "
                                       "number at t=%r" % tau)
        out = field(tau, y.reshape(k, n).T)
        return np.asarray(out, dtype=float).reshape(n, k).ravel("F")

    states = _LSODA.solve(rhs, t0, [t1] if t_eval is None else t_eval,
                          points.ravel(), _RTOL, _ATOL, band=n - 1)
    states = [y.reshape(k, n) for y in states]
    return states[-1] if t_eval is None else states


def _single_linkage(points: np.ndarray, eps: float):
    """Cluster labels by single linkage at radius eps: connected
    components of the graph joining points at distance <= eps, numbered
    in order of their first point.

    Every point carries the label of the root of its tree, and each
    point starts as its own root.  A round hooks every root onto the
    smallest label next to any point of its tree, then jumps pointers
    until every point again carries a root.  Roots only move to smaller
    labels, so the rounds stop when no tree has a neighbour with a
    smaller label: one tree per component, rooted at its first point."""
    adjacent = _squared_distances(points, points) <= eps * eps
    np.fill_diagonal(adjacent, True)   # a NaN point is its own component
    labels = np.arange(len(points))
    while True:
        hooked = labels.copy()
        np.minimum.at(hooked, labels, np.where(adjacent, labels, labels.size).min(axis=1))
        new = hooked[labels]
        while True:
            jumped = new[new]
            if np.array_equal(jumped, new):
                break
            new = jumped
        if np.array_equal(new, labels):
            break
        labels = new
    return np.unique(labels, return_inverse=True)[1]


@dataclasses.dataclass
class OmegaCloud:
    """Clustered endpoint cloud approximating an omega-limit section.

    ``depth_used`` counts the pullback depths (forward: horizons)
    integrated, ``poisoned`` the pullback depths skipped because their
    cloud escaped (forward: always 0), and ``converged`` says whether the
    last two of those clouds agreed within the cluster tolerance.
    """

    points: np.ndarray
    labels: np.ndarray
    representatives: np.ndarray
    converged: bool
    depth_used: int
    poisoned: int

    def section(self) -> np.ndarray:
        return self.representatives


def _cluster(points: np.ndarray, eps: float, converged: bool, depth: int,
             poisoned: int) -> OmegaCloud:
    labels = _single_linkage(points, eps)
    reps = np.stack([points[labels == c].mean(axis=0)
                     for c in range(labels.max() + 1)])
    return OmegaCloud(points, labels, reps, converged=converged,
                      depth_used=depth, poisoned=poisoned)


def _field_of(spec):
    if hasattr(spec, "field") and hasattr(spec, "dimension"):
        return spec.field, spec.dimension
    raise TypeError("expected an object with field and dimension attributes")


def _seeds_at(seeds, s: float) -> np.ndarray:
    """The seed cloud at start time s: ``seeds(s)`` for a function, else
    the fixed ``(m, n)`` cloud ``seeds``."""
    return np.atleast_2d(np.asarray(seeds(s) if callable(seeds) else seeds, dtype=float))


def simulate_pullback_omega(spec, t: float, seeds, s_schedule=None,
                            cluster_eps: float = 1e-4) -> OmegaCloud:
    """Approximate the pullback omega-limit section at time t.

    Integrates seed clouds (``seeds``: one (m, n) cloud, or a function
    s -> (m, n) cloud of the start time) from ever-earlier start times
    s_k = t - 2^k, k = 0, ..., 20 (or an explicit decreasing schedule) up
    to t, each cloud as one compiled LSODA solve (_integrate_ensemble);
    a depth whose cloud escapes |x| >= 1e8 is counted in ``poisoned`` and
    skipped.  Depth scanning stops early, ``converged``, once consecutive
    depth clouds agree within cluster_eps (horizon-doubling convergence);
    the first half of the processed schedule is discarded as burn-in
    before clustering.
    """
    field, _ = _field_of(spec)
    if s_schedule is None:
        s_schedule = [t - 2.0 ** k for k in range(21)]
    if any(b >= a for a, b in zip(s_schedule, s_schedule[1:])):
        raise ValueError("schedule must be strictly decreasing")
    per_depth = []
    poisoned = 0
    converged = False
    for s in s_schedule:
        try:
            endpoints = _integrate_ensemble(field, s, t, _seeds_at(seeds, s))
        except TrajectoryEscapeError:
            poisoned += 1
            continue
        per_depth.append(endpoints)
        if len(per_depth) >= 2:
            if _hausdorff_distance(per_depth[-1], per_depth[-2]) <= cluster_eps:
                converged = True
                break
    if not per_depth:
        raise TrajectoryEscapeError("every pullback depth escaped; the "
                                    "dissipativity witness is invalid")
    # Burn-in: drop the shallow half of the processed schedule, and of
    # the remainder keep only clouds already settled near the deepest
    # one -- only late/deep samples approximate the limit set.
    deepest = per_depth[-1]
    keep = [deepest]
    for cloud in per_depth[len(per_depth) // 2:-1]:
        if _hausdorff_distance(cloud, deepest) <= cluster_eps:
            keep.append(cloud)
    points = np.vstack(keep)
    return _cluster(points, cluster_eps, converged=converged,
                    depth=len(per_depth), poisoned=poisoned)


def simulate_forward_omega(spec, initial_cloud, tau: float,
                           horizon_schedule=None,
                           cluster_eps: float = 1e-4) -> OmegaCloud:
    """Approximate the forward omega-limit of a bounded set B from time
    tau: states S(tau + h, tau) B at increasing horizons h >= 0 (by
    default h = 2^k, k = 0, ..., 7), all output times of one run,
    late-time half clustered.  ``converged`` is True only when there are
    at least two horizons and the clouds of the last two lie within
    Hausdorff distance cluster_eps of each other."""
    field, _ = _field_of(spec)
    if horizon_schedule is None:
        horizon_schedule = [2.0 ** k for k in range(8)]
    if any(b <= a for a, b in zip(horizon_schedule, horizon_schedule[1:])) \
            or horizon_schedule[0] < 0:
        raise ValueError("horizon schedule must be nonnegative and strictly increasing")
    cloud = np.atleast_2d(np.asarray(initial_cloud, dtype=float))
    t_eval = [tau + h for h in horizon_schedule]
    states = _integrate_ensemble(field, tau, t_eval[-1], cloud, t_eval=t_eval)
    converged = len(states) >= 2 and _hausdorff_distance(states[-1], states[-2]) <= cluster_eps
    points = np.vstack(states[len(states) // 2:])
    return _cluster(points, cluster_eps, converged=converged,
                    depth=len(states), poisoned=0)


# REPORTS ==============================================================================

def _norms(points: np.ndarray, kind: str) -> np.ndarray:
    if kind == "max":
        return np.max(np.abs(points), axis=1)
    return np.linalg.norm(points, axis=1)


@dataclasses.dataclass
class MarginReport:
    margins: dict  # t -> R(t) - max point norm

    @property
    def min_margin(self) -> float:
        return float(np.min(list(self.margins.values())))

    @property
    def contained(self) -> bool:
        return self.min_margin >= 0.0


def verify_containment(clouds: SetFamily, envelope: RadiusEnvelope) -> MarginReport:
    """margin(t) = R(t) - max norm over the cloud section at t."""
    margins = {}
    for t in clouds.times():
        pts = clouds.section(t)
        margins[t] = envelope(t) - float(np.max(_norms(pts, envelope.norm)))
    return MarginReport(margins)


def _squared_distances(a, b) -> np.ndarray:
    """``||a_i - b_j||^2`` over the points of two nonempty clouds."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("hausdorff semidistance needs nonempty clouds")
    return np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)


def hausdorff_semidistance(a, b) -> float:
    """sup over a in A of inf over b in B of ||a - b||."""
    return float(np.max(np.sqrt(np.min(_squared_distances(a, b), axis=1))))


def _hausdorff_distance(a, b) -> float:
    """The symmetric Hausdorff distance between two clouds, from one
    squared-distance matrix reduced along both axes: ``(b_j - a_i)^2`` is
    ``(a_i - b_j)^2`` bit for bit, so each side is its semidistance."""
    d2 = _squared_distances(a, b)
    return max(float(np.max(np.sqrt(np.min(d2, axis=axis)))) for axis in (1, 0))


def universe_membership(family: SetFamily, gamma: float) -> float:
    """Witness C = sup over sections of e^{-gamma |t|} max ||x||; any
    family dominated section-wise by this one inherits the witness."""
    return float(np.max([math.exp(-gamma * abs(t))
                         * np.max(np.linalg.norm(family.section(t), axis=1))
                         for t in family.times()]))


def attractor_coincidence(spec, t_grid, gamma0: float, gammas,
                          seeds_per_time: int = 8) -> dict:
    """Compare pullback sections simulated under seed universes D_gamma
    against the base universe D_gamma0.

    Returns {gamma: max over the t grid of the symmetrized Hausdorff
    distance between the two sections}.  Coincidence of the attractors
    shows up as distances at the cluster tolerance.
    """
    _, dim = _field_of(spec)
    rng = np.random.default_rng(0)
    directions = rng.normal(size=(seeds_per_time, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)

    # Representative seed radii follow the growth envelope but are capped
    # so that very deep pullback starts stay integrable; the capped family
    # still belongs to D_gamma (universes are inclusion-closed downward).
    seed_cap = 1e6

    def universe(gamma):
        return lambda s: min(math.exp(min(gamma * abs(s), 700.0)), seed_cap) * directions

    base_sections = {t: simulate_pullback_omega(spec, t, universe(gamma0)).section()
                     for t in t_grid}
    out = {}
    for gamma in gammas:
        out[float(gamma)] = float(np.max(
            [_hausdorff_distance(simulate_pullback_omega(spec, t, universe(gamma)).section(),
                                 base_sections[t]) for t in t_grid], initial=0.0))
    return out
