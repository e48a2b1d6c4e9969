"""Desk-scale finite-difference realization of 1-d parabolic problems.

Discretizes u_t = u_xx + a(t, x) u + b(t, x) on (0, L) with Dirichlet,
Neumann, or Robin boundary conditions, builds the induced matrix
evolution process (exponential Strang splitting with the exact
diffusion factor), validates the variation-of-constants formula against
a direct compiled LSODA solve, extracts the principal bundle (leading
positive direction, scalar cocycle, and separation constants), transfers
scalar dichotomy certificates to the discretized process, and realizes
the adjoint process that swaps the certificate kind.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Optional

import numpy as np
# quad and solve_ivp are kept bound although unused: perfbench's tracer
# wraps nedlab.parabolic.quad and nedlab.parabolic.solve_ivp by name.
from scipy.integrate import quad, quad_vec, solve_ivp  # noqa: F401

from .dichotomy import DichotomyCertificate, ExponentPair, InapplicableError
from .process import (
    EvolutionProcess,
    FiniteEscapeError,
    FULL_LINE,
    ScalarCoefficientProcess,
    TimeDomain,
    _LOG_GUARD,
    _LSODA,
    _NORM_BLOCK_BYTES,
    _PARTS,
    _TransposedProcess,
    _chained_anchor_matrices,
    _escaped,
    _max_norm,
    _spectral_norms,
)

__all__ = [
    "Grid1D",
    "BoundaryCondition",
    "DiscreteLaplacian",
    "PDEProcess",
    "PrincipalBundle",
    "discretize",
    "pde_process",
    "variation_of_constants_check",
    "principal_bundle",
    "scalar_to_pde_transfer",
    "adjoint_process",
    "parabolic_attractor_demo",
]

#: Most negative entry a propagator or principal direction may have and
#: still count as positive.
_POSITIVITY_TOL = 1e-12


@dataclasses.dataclass(frozen=True)
class Grid1D:
    """Uniform grid on (0, L) with N interior points, h = L/(N+1)."""

    length: float
    n_interior: int

    def __post_init__(self):
        if not (self.length > 0):
            raise ValueError("interval length must be positive")
        if self.n_interior < 2:
            raise ValueError("need at least 2 interior points")

    @property
    def h(self) -> float:
        return self.length / (self.n_interior + 1)


@dataclasses.dataclass(frozen=True)
class BoundaryCondition:
    kind: str  # "dirichlet" | "neumann" | "robin"
    robin_alpha: float = 0.0

    def __post_init__(self):
        if self.kind not in ("dirichlet", "neumann", "robin"):
            raise ValueError("unknown boundary condition %r" % (self.kind,))
        if self.kind == "robin" and self.robin_alpha < 0:
            raise ValueError("Robin coefficient must be nonnegative")


@dataclasses.dataclass
class DiscreteLaplacian:
    """Central-difference Laplacian with boundary closure.

    ``matrix`` acts on nodal values (interior nodes for Dirichlet;
    boundary nodes included for Neumann/Robin, after ghost-point
    elimination).  The matrix is symmetric up to the diagonal similarity
    ``scale``; ``modes``/``eigenvalues`` come from the symmetrized form,
    so ``expm(matrix * d)`` is available exactly as
    scale^-1 V e^{lambda d} V^T scale.
    """

    matrix: np.ndarray
    grid: Grid1D
    bc: BoundaryCondition
    nodes: np.ndarray
    scale: np.ndarray          # similarity weights w: diag(w) A diag(w)^-1 symmetric
    eigenvalues: np.ndarray    # ascending
    modes: np.ndarray          # orthonormal eigenvectors of the symmetrized form

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @property
    def leading_eigenvalue(self) -> float:
        return float(self.eigenvalues[-1])

    def expm(self, d) -> np.ndarray:
        """Exact matrix exponential e^{A d} via the eigendecomposition; a
        1-d array of m lags gives the (m, n, n) stack."""
        v = self.modes
        core = (v * np.exp(np.multiply.outer(d, self.eigenvalues))[..., None, :]) @ v.T
        return (core * self.scale[None, :]) / self.scale[:, None]


def discretize(grid: Grid1D, bc: BoundaryCondition) -> DiscreteLaplacian:
    """Second-order central-difference Laplacian with ghost-point
    elimination for Neumann/Robin closures.

    For Dirichlet on N interior nodes the matrix is (1/h^2) tridiag
    (1, -2, 1) and the leading eigenvalue has the closed form
    -(2 - 2 cos(pi h / L)) / h^2.
    """
    h = grid.h
    n = grid.n_interior
    if bc.kind == "dirichlet":
        size = n
        nodes = h * np.arange(1, n + 1)
    else:
        size = n + 2
        nodes = h * np.arange(0, n + 2)
    a = np.zeros((size, size))
    idx = np.arange(size)
    a[idx, idx] = -2.0
    a[idx[:-1], idx[:-1] + 1] = 1.0
    a[idx[1:], idx[1:] - 1] = 1.0
    scale = np.ones(size)
    if bc.kind in ("neumann", "robin"):
        # Ghost elimination: u_{-1} = u_1 - 2 h alpha0 u_0 (outward
        # normal derivative balanced against alpha0 u), and mirrored on
        # the right.  Boundary rows become (-2 - 2 h alpha0, 2)/h^2.
        alpha0 = bc.robin_alpha if bc.kind == "robin" else 0.0
        a[0, 0] = -2.0 - 2.0 * h * alpha0
        a[0, 1] = 2.0
        a[-1, -1] = -2.0 - 2.0 * h * alpha0
        a[-1, -2] = 2.0
        scale[0] = scale[-1] = 1.0 / math.sqrt(2.0)
    a /= h * h
    sym = np.diag(scale) @ a @ np.diag(1.0 / scale)
    sym = 0.5 * (sym + sym.T)  # scrub rounding asymmetry
    eigenvalues, modes = np.linalg.eigh(sym)
    if bc.kind != "dirichlet" and alpha0 == 0.0:
        eigenvalues[-1] = 0.0   # Neumann rows sum to 0 exactly; eigh rounds it
    return DiscreteLaplacian(a, grid, bc, nodes, scale, eigenvalues, modes)


# PDE PROCESS ==========================================================================

def _separable_escaped(g, log_frobenius):
    """Whether a separable pair, with G difference g and ``lambda_1 d + log
    ||e^{(A_h - lambda_1) d}||_F``, is poisoned: for a NaN g, and past
    ``_LOG_GUARD``, the guard of scalar exponents."""
    return np.logical_not(g + log_frobenius <= _LOG_GUARD)


class PDEProcess(EvolutionProcess):
    """Evolution process of u' = A_h u + a(t, x) u.

    Separable coefficients a(t, x) = g(t) factor exactly:
    S(t, s) = e^{G(t) - G(s) + lambda_1 d} e^{(A_h - lambda_1) d} with
    d = t - s, where G(t) - G(s) is the log-propagator of the held
    :class:`ScalarCoefficientProcess` of g (a grid reads G once per mesh
    point, by quadrature unless ``g_antiderivative`` gives it in closed
    form).  Every reading, :meth:`matrix` included, takes this ``e^L N``
    form, whose shifted factor never underflows.  General coefficients use
    Strang splitting with the exact diffusion half-steps and a midpoint
    reaction factor per step of length tau <= dt.  Adjacent half-steps fuse,
    so a product of n steps is ``H R_n F R_{n-1} F ... F R_1 H`` with
    ``F = e^{A_h tau}`` and ``H = e^{A_h tau / 2}``: one matrix product
    per step.  Both branches keep all propagator entries nonnegative
    (discrete comparison principle).
    """

    invertible = False

    def __init__(self, laplacian: DiscreteLaplacian,
                 a: Optional[Callable] = None,
                 separable_g: Optional[Callable] = None,
                 g_antiderivative: Optional[Callable] = None,
                 dt: float = 1e-3,
                 domain: TimeDomain = FULL_LINE):
        if (a is None) == (separable_g is None):
            raise ValueError("give exactly one of a(t, x) or separable_g(t)")
        if dt <= 0:
            raise ValueError("step size underflow: dt must be positive")
        self.laplacian = laplacian
        self.dimension = laplacian.size
        self.a = a
        self.separable_g = separable_g
        self._time_factor = None if separable_g is None else ScalarCoefficientProcess(
            separable_g, antiderivative=g_antiderivative)
        # A_h - lambda_1: its exponential keeps the leading mode at 1, so it
        # never underflows as a whole.
        self._shifted = dataclasses.replace(
            laplacian, eigenvalues=laplacian.eigenvalues - laplacian.leading_eigenvalue)
        self.dt = dt
        self.domain = domain

    @property
    def separable(self) -> bool:
        return self.separable_g is not None

    def _reaction(self, t: float) -> np.ndarray:
        """The nodal reaction coefficients a(t, x) at time t."""
        if self.separable:
            return np.full(self.dimension, float(self.separable_g(t)))
        return np.asarray(self.a(t, self.laplacian.nodes), dtype=float)

    def generator(self, t: float) -> np.ndarray:
        """A_h + diag(a(t, x)) at time t."""
        return self.laplacian.matrix + np.diag(self._reaction(t))

    def _log_norms(self, mesh, part, i, j, factor):
        """Separable grids under the identity factor read one norm per
        distinct lag: ``log ||S(t, s)||`` is ``G(t) - G(s) + lambda_1 d +
        log ||e^{(A_h - lambda_1) d}||`` with ``d = t - s``, the lag
        :meth:`_log_matrix` reads too.  Read in the log, a pair
        whose factor ``e^{G(t) - G(s)}`` or ``e^{A_h d}`` would underflow
        still carries its sample.  Each lag stack holds ``_NORM_BLOCK_BYTES``
        at most; other grids take the per-anchor kernel, with the stacks of
        :meth:`_anchor_matrices`."""
        if factor is not None or not self.separable:
            return super()._log_norms(mesh, part, i, j, factor)
        lags, lag_of = np.unique(mesh[i] - mesh[j], return_inverse=True)
        log_norm, log_frobenius = np.empty(len(lags)), np.empty(len(lags))
        rows = max(1, _NORM_BLOCK_BYTES // (8 * self.dimension ** 2))
        for k in range(0, len(lags), rows):
            block = slice(k, k + rows)
            stack = self._shifted.expm(lags[block])
            stack[lags[block] == 0.0] = np.eye(self.dimension)   # as in _log_matrix
            log_norm[block] = np.log(_spectral_norms(stack))
            log_frobenius[block] = np.log(np.linalg.norm(stack, axis=(1, 2)))
        scale = self.laplacian.leading_eigenvalue * lags
        g = self._time_factor._grid_exponents(mesh, i, j)
        escaped = _separable_escaped(g, (scale + log_frobenius)[lag_of])
        return np.where(escaped, math.nan, g + (scale + log_norm)[lag_of])

    def _anchor_matrices(self, mesh, part):
        """Strang grids chain one product per mesh interval, where a Strang
        product would restart from s for every pair."""
        if self.separable:
            return super()._anchor_matrices(mesh, part)
        return _chained_anchor_matrices(self, mesh, part)

    def _log_matrix(self, t: float, s: float):
        """Separable: ``(G(t) - G(s) + lambda_1 d, e^{(A_h - lambda_1) d})``
        with d = t - s, so neither factor underflows; the shifted factor is
        the identity at d = 0.  The per-lag grid reads the same bits."""
        if not self.separable:
            return super()._log_matrix(t, s)
        self._check_args(t, s)
        d = t - s
        stack = self._shifted.expm(d) if d else np.eye(self.dimension)
        g = float(self._time_factor.log_propagator(t, s))
        scale = self.laplacian.leading_eigenvalue * d
        if _separable_escaped(g, scale + math.log(np.linalg.norm(stack))):
            raise FiniteEscapeError(t, s, t)
        return g + scale, stack

    def matrix(self, t: float, s: float) -> np.ndarray:
        """S(t, s); raises FiniteEscapeError when an entry is not finite
        or the (Frobenius) norm passes ``ESCAPE_GUARD``.  Separable: ``e^L
        N`` from :meth:`_log_matrix`, which raises at the guard."""
        self._check_args(t, s)
        if t == s:
            return np.eye(self.dimension)
        if self.separable:
            scale, m = self._log_matrix(t, s)
            return math.exp(scale) * m
        with np.errstate(over="ignore", invalid="ignore"):
            m = self._strang(t, s)
        if _escaped(m):
            raise FiniteEscapeError(t, s, t)
        return m

    def _strang(self, t: float, s: float) -> np.ndarray:
        n_steps = max(1, int(math.ceil((t - s) / self.dt)))
        tau = (t - s) / n_steps
        half = self.laplacian.expm(0.5 * tau)
        full = self.laplacian.expm(tau)
        factors = self._reaction_factors(s, tau, n_steps)
        m = next(factors)[:, None] * half
        for react in factors:
            m = react[:, None] * (full @ m)
        return half @ m

    def _reaction_factors(self, s: float, tau: float, n_steps: int):
        """The midpoint reaction factors ``e^{tau a(s + (j + 1/2) tau, x)}``,
        j < n_steps, exponentiated one table of at most
        ``_NORM_BLOCK_BYTES`` at a time."""
        rows = max(1, _NORM_BLOCK_BYTES // (8 * self.dimension))
        for start in range(0, n_steps, rows):
            table = [self._reaction(s + (j + 0.5) * tau)
                     for j in range(start, min(start + rows, n_steps))]
            yield from np.exp(tau * np.array(table))

    def _step(self, t: float, s: float):
        m = self.matrix(t, s)
        return m, float(np.linalg.norm(m))


def pde_process(laplacian: DiscreteLaplacian, a: Optional[Callable] = None,
                separable_g: Optional[Callable] = None,
                g_antiderivative: Optional[Callable] = None,
                dt: float = 1e-3,
                domain: TimeDomain = FULL_LINE) -> PDEProcess:
    """Build the discretized evolution process; see :class:`PDEProcess`."""
    return PDEProcess(laplacian, a=a, separable_g=separable_g,
                      g_antiderivative=g_antiderivative, dt=dt, domain=domain)


def variation_of_constants_check(process: PDEProcess, b: Callable,
                                 window, n_check: int = 5) -> float:
    """Residual of the variation-of-constants formula on a window.

    Integrates u' = (A_h + a) u + b(t) directly from u0 = (1, ..., 1) and
    compares with S(t, s) u0 + int_s^t S(t, r) b(r) dr at n_check times;
    returns the max sup-norm discrepancy, NaN if any discrepancy is not a
    number.  b maps t to a nodal vector.

    The direct solve is LSODA with the generator as its exact Jacobian:
    the semi-discrete Laplacian is stiff (its spectrum reaches about
    -4 / h^2 at mesh width h), so an explicit method would take thousands
    of steps per unit time for stability alone.  Implicit steps make tight
    tolerances cheap; at rtol 1e-13, atol 1e-15 the residual on 31-node
    Dirichlet, Neumann and Robin Laplacians stays below 2e-12, far under
    the 1e-8 that criterion 10 asks.  One run of the compiled LSODA
    driver of nedlab.process covers the window, one compiled call per
    check time, and keeps every evaluation inside it; a failed solve
    raises RuntimeError with ODEPACK's message, and so does a quadrature
    whose error estimate is above 1e-6 or not a number.
    """
    s, t_end = window
    u0 = np.ones(process.dimension)
    times = np.linspace(s, t_end, n_check + 1)[1:]
    a_h, reaction = process.laplacian.matrix, process._reaction

    def rhs(tau, u):
        return a_h @ u + reaction(tau) * u + np.asarray(b(tau), dtype=float)

    direct = _LSODA.solve(rhs, s, times, u0, 1e-13, 1e-15,
                          jac=lambda tau, u: process.generator(tau))
    residuals = []
    for t, u in zip(times, direct):
        formula = process.matrix(t, s) @ u0
        if t > s:
            integral, err = quad_vec(
                lambda r: process.matrix(t, r) @ np.asarray(b(r), dtype=float),
                s, t, epsabs=1e-12, epsrel=1e-10)
            if not err <= 1e-6:
                raise RuntimeError("quadrature failure in the formula "
                                   "(error estimate %.3g)" % err)
            formula = formula + integral
        residuals.append(np.max(np.abs(u - formula)))
    return float(np.max(residuals, initial=0.0))


# PRINCIPAL BUNDLE =====================================================================

@dataclasses.dataclass
class PrincipalBundle:
    """Leading positive direction e(t), scalar cocycle increments, and
    the fitted separation constants of the complementary decay."""

    times: np.ndarray
    vectors: np.ndarray        # (k, n): unit positive e(t_k)
    c_increments: np.ndarray   # (k-1,): ||S(t_{k+1}, t_k) e(t_k)||
    m_sep: float
    nu_sep: float
    fit_residual: float
    c1: float                  # max spectral norm of the leading projection
    c2: float                  # max spectral norm of its complement

    def c(self, t: float, s: float) -> float:
        """Cumulative leading factor c(t, s) along the sampled times, for
        bundle times s <= t, each matched to its nearest bundle time; raises
        ValueError for any other pair."""
        i, j = (int(np.argmin(np.abs(self.times - x))) for x in (s, t))
        if not (i <= j and np.isclose(self.times[i], s) and np.isclose(self.times[j], t)):
            raise ValueError("c(t, s) is sampled on bundle times s <= t only")
        return float(np.prod(self.c_increments[i:j]))


def _dominant_direction(m: np.ndarray) -> np.ndarray:
    """Power iteration from the positive diagonal, until successive unit
    iterates differ by less than 1e-13 or after 10000 steps."""
    n = m.shape[0]
    v = np.ones(n) / math.sqrt(n)
    for _ in range(10000):
        w = m @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            raise InapplicableError("propagator annihilated the positive cone")
        w /= nw
        if np.linalg.norm(w - v) < 1e-13:
            v = w
            break
        v = w
    if v.sum() < 0:
        v = -v
    return v


def principal_bundle(process: PDEProcess, horizon: float = 2.0,
                     stride: float = 0.25) -> PrincipalBundle:
    """Extract the principal bundle by power iteration on the stride
    windows of [0, horizon].

    e(t) is the dominant direction of S(t + stride, t) (strong
    positivity makes it simple and positive); the scalar cocycle
    increments are the leading factors along consecutive windows.  A
    complementary seed is propagated alongside and the decay of its
    residual component relative to the cumulative leading factor is
    fitted by least squares, giving (M_sep, nu_sep).
    """
    k = int(round(horizon / stride))
    times = stride * np.arange(k + 1)
    windows = [process.matrix(times[j + 1], times[j]) for j in range(k)]
    for w in windows:
        if float(w.min()) < -_POSITIVITY_TOL:
            raise InapplicableError("propagator lost positivity "
                                    "(min entry %.3g)" % float(w.min()))
    vectors = [_dominant_direction(w) for w in windows]
    vectors.append(vectors[-1])  # tail window reuse
    vectors = np.stack(vectors)
    if np.min(vectors) < -_POSITIVITY_TOL:
        raise InapplicableError("principal direction is not positive")
    c_increments = np.array([
        float(np.linalg.norm(windows[j] @ vectors[j])) for j in range(k)])
    # Complementary seed: orthogonal to e(0), deterministic.
    e0 = vectors[0]
    z = np.zeros(process.dimension)
    z[0] = 1.0
    z = z - float(z @ e0) * e0
    if np.linalg.norm(z) < 1e-12:
        z = np.zeros(process.dimension)
        z[1] = 1.0
        z = z - float(z @ e0) * e0
    z /= np.linalg.norm(z)
    ratios = []
    offsets = []
    w_vec = z.copy()
    c_cum = 1.0
    for j in range(k):
        w_vec = windows[j] @ w_vec
        c_cum *= c_increments[j]
        e_next = vectors[j + 1]
        resid = w_vec - float(e_next @ w_vec) * e_next
        r = float(np.linalg.norm(resid))
        if r <= 0.0 or c_cum <= 0.0:
            break
        ratios.append(math.log(r / c_cum))
        offsets.append(times[j + 1])
    if len(ratios) < 2:
        raise InapplicableError("not enough resolvable separation samples")
    coeffs, residuals, *_ = np.polyfit(offsets, ratios, 1, full=True)
    slope, intercept = coeffs
    nu_sep = -float(slope)
    m_sep = math.exp(float(intercept))
    fit_residual = float(residuals[0]) if len(residuals) else 0.0
    if not (nu_sep > 0):
        raise InapplicableError("no exponential separation detected "
                                "(fitted rate %g)" % nu_sep)
    # Projection norms: spectral projection onto span e(t) along the
    # complementary window invariant space; left vector = scale^2 e.
    w2 = process.laplacian.scale ** 2
    q1 = np.array([np.outer(e, w2 * e) / float((w2 * e) @ e) for e in vectors])
    c1, c2 = _max_norm(q1), _max_norm(np.eye(process.dimension) - q1)
    return PrincipalBundle(times, vectors, c_increments, m_sep, nu_sep,
                           fit_residual, c1, c2)


# TRANSFER AND ADJOINT =================================================================

def scalar_to_pde_transfer(scalar_cert: DichotomyCertificate,
                           laplacian: DiscreteLaplacian,
                           bundle: Optional[PrincipalBundle] = None
                           ) -> DichotomyCertificate:
    """Predicted certificate for the separable PDE process from the
    scalar coefficient's certificate.

    The diffusion factor contributes e^{lambda_1 (t-s)} on the leading
    direction, so the stable rate improves by -lambda_1 (0 for the
    Neumann closure, whose lambda_1 is exactly 0); the bound
    picks up the separation constant C = C1 + M_sep * C2 (equal to 2 in
    the exactly separable symmetric case, where both projections have
    norm 1 and M_sep = 1).
    """
    if _PARTS[scalar_cert.projection] != ("stable",):
        raise InapplicableError("transfer starts from a zero-unstable-"
                                "projection scalar certificate")
    lam1 = laplacian.leading_eigenvalue
    if bundle is None:
        c_const = 2.0
    else:
        c_const = bundle.c1 + bundle.m_sep * bundle.c2
    pair = ExponentPair(scalar_cert.stable.rate - lam1,
                        scalar_cert.stable.growth)
    return DichotomyCertificate(scalar_cert.kind, scalar_cert.domain,
                                max(scalar_cert.m * c_const, 1.0), pair,
                                projection="zero")


def adjoint_process(process: EvolutionProcess) -> EvolutionProcess:
    """Time-reflected adjoint S~(t, s) = S(-s, -t)^T.

    Defined whenever the base process covers the reflected pairs (full
    time line); no inverse is needed since -s >= -t exactly when
    t >= s.  Swaps the dichotomy kind while preserving bound and
    exponent.  Its norms read the primal's log scale (``_log_matrix``)."""
    if process.domain.kind != "full":
        raise InapplicableError("adjoint needs a full-line process window")
    return _TransposedProcess(process, -1)


# ATTRACTOR DEMO =======================================================================

def parabolic_attractor_demo(laplacian: DiscreteLaplacian,
                             separable_g: Callable,
                             b: Callable,
                             scalar_cert: DichotomyCertificate,
                             lam: float,
                             t_grid,
                             bnorm: float,
                             cubic: bool = True,
                             seeds_per_time: int = 4,
                             seed: int = 0) -> dict:
    """Pullback sections of the semilinear problem
    u' = A_h u + g(t) u [- u^3] + b(t) against the transferred envelope.

    The envelope is the linear (sup-norm) case-I radius
    R(t) = (M / (alpha - delta lam)) ||b|| e^{(1+lam) delta |t|} built
    from the transferred certificate; order preservation of the
    propagator justifies the componentwise comparison.
    """
    from .attractor import (SetFamily, make_linear_envelope,
                            simulate_pullback_omega, verify_containment)

    cert = scalar_to_pde_transfer(scalar_cert, laplacian)
    envelope = make_linear_envelope(cert, lam, bnorm)

    n = laplacian.size
    rng = np.random.default_rng(seed)
    base_cloud = rng.uniform(-1.0, 1.0, size=(seeds_per_time, n))

    a_h = laplacian.matrix

    def field(t, u):
        # u is one state (n,) or a batch (n, k) with one state per column.
        forcing = np.asarray(b(t), dtype=float)
        if u.ndim == 2 and forcing.ndim == 1:
            forcing = forcing[:, None]
        out = a_h @ u + separable_g(t) * u + forcing
        if cubic:
            out = out - u ** 3
        return out

    spec_obj = _PlainField(field, n)
    sections = {}
    for t in t_grid:
        sections[t] = simulate_pullback_omega(spec_obj, t, base_cloud).section()
    family = SetFamily(sections)
    report = verify_containment(family, envelope)
    return {"certificate": cert, "envelope": envelope,
            "sections": family, "margins": report}


@dataclasses.dataclass
class _PlainField:
    field: Callable
    dimension: int
