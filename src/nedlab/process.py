"""Two-parameter evolution processes S(t, s) and norm sampling.

An evolution process is a family of linear operators ``S(t, s)`` on R^n
satisfying ``S(t, t) = Id`` and the cocycle identity
``S(t, s) S(s, tau) = S(t, tau)``.  Invertible processes extend the family
to ``t < s`` via ``S(s, t) = S(t, s)^{-1}``.

This module provides the process backends (closed-form exponents,
piecewise closed forms, numerically integrated coefficient matrices),
projection families, operator-norm evaluation, and grid sampling of
``log ||S(t, s) P(s)||`` used by the certificate machinery.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import threading
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.integrate._dop import dopri853 as _dopri853

__all__ = [
    "DomainError",
    "FiniteEscapeError",
    "TimeDomain",
    "FULL_LINE",
    "HALF_LINE_PLUS",
    "HALF_LINE_MINUS",
    "ProjectionFamily",
    "GridSpec",
    "NormGrid",
    "EvolutionProcess",
    "ScalarExponentProcess",
    "ScalarCoefficientProcess",
    "MatrixClosedFormProcess",
    "IntegratedLinearProcess",
    "spectral_norm",
    "operator_norm",
    "propagate",
    "dual_process",
    "sample_norm_grid",
]

#: Norm threshold beyond which propagation is treated as finite-time escape.
ESCAPE_GUARD = 1e150
_LOG_GUARD = math.log(ESCAPE_GUARD)
#: Tolerances of the coefficient quadratures ``int_0^t f``.
_QUAD_KWARGS = dict(epsabs=1e-13, epsrel=1e-12, limit=400)
#: Tolerances of the integrated linear solves.
_RTOL, _ATOL = 1e-10, 1e-12


class DomainError(ValueError):
    """Raised when (t, s) falls outside the process time domain, or when
    t < s is requested from a non-invertible process."""


class FiniteEscapeError(RuntimeError):
    """Propagation exceeded the overflow guard before reaching time t.

    Attributes
    ----------
    t, s : floats, the requested propagation interval.
    escape_time : rough estimate of the time at which the norm crossed
        the guard threshold (linear interpolation on the log scale).
    """

    def __init__(self, t, s, escape_time):
        self.t = t
        self.s = s
        self.escape_time = escape_time
        super().__init__(
            "propagation from s=%g escaped beyond %.3g near t=%g "
            "(requested t=%g)" % (s, ESCAPE_GUARD, escape_time, t)
        )


# COMPILED DOP853 ======================================================================

_DOP853_FAILURES = {-1: "input is not consistent",
                    -2: "larger nsteps is needed",
                    -3: "step size becomes too small",
                    -4: "problem is probably stiff"}


class _Dop853(threading.local):
    """One thread's driver of Hairer's compiled DOP853 (the code behind
    ``scipy.integrate.ode("dop853")``) with the stiffness test off.  It
    serves the integrated linear processes and the attractor ensembles.

    The compiled wrapper keeps a reference to every callback it is
    handed, so each thread hands it the same two bound methods on every
    solve: a trampoline to the current field and a step callback.  The
    wrapper also ignores exceptions raised in a callback, so the
    trampoline records the field's exception and returns zeros until the
    step callback stops the run; the exception is then raised again.

    ``solves`` counts this thread's solves; ``stats`` sums their
    right-hand-side evaluations, steps, accepted and rejected steps.
    """

    def __init__(self):
        self.field = self.norm = self.error = None
        self.busy = False
        self.solves = 0
        self.stats = np.zeros(4, dtype=np.int64)
        self.fcn, self.solout = self._fcn, self._solout

    def _fcn(self, tau, y):
        if self.error is None:
            try:
                out = np.asarray(self.field(tau, y.reshape(self.shape)), dtype=float)
                return out.reshape(y.size)
            except BaseException as exc:
                self.error = exc
        return np.zeros(y.size)

    def _solout(self, tau, y):
        if self.error is not None:
            return -1
        value = self.norm(y)
        if not (value <= self.peak):   # a NaN norm is a new peak, and stops
            self.peak = value
            if not (value < self.guard):
                return -1
        return 0

    def solve(self, field, t0: float, t1: float, y: np.ndarray, shape,
              rtol: float, atol: float, norm, guard: float):
        """``(tau, state at tau, peak)`` for y' = field(t, y.reshape(shape))
        from y at t0, where peak is the largest ``norm`` of the flat state
        over the step ends, t0 included.  tau is t1 unless the run stopped
        at the end of the first step where the peak reached ``guard``;
        callers map that stop to their own error.  Not re-entrant: a field
        that starts another solve on the same thread raises RuntimeError."""
        if self.busy:
            raise RuntimeError("the compiled DOP853 driver was re-entered from "
                               "inside a right-hand side")
        work = np.zeros(11 * y.size + 21)
        work[1:4] = 0.9, 0.3, 6.0  # ode("dop853") defaults: safety, step limits
        iwork = np.zeros(21, dtype=np.int32)
        iwork[3] = -1  # never run the stiffness test, which stops the solve
        self.field, self.shape, self.norm, self.guard = field, shape, norm, guard
        self.peak, self.busy = -math.inf, True
        try:
            # Pass the trailing tuple of extra field arguments even though
            # it is empty: left out, the wrapper can crash the interpreter.
            tau, y, idid = _dopri853(self.fcn, t0, y, t1, rtol, atol,
                                     self.solout, 1, work, iwork,
                                     np.iinfo(np.int32).max, -1, ())
        finally:
            error = self.error
            self.field = self.norm = self.error = None
            self.busy = False
            self.solves += 1
            self.stats += iwork[16:20]  # nfev, steps, accepted, rejected
        if error is not None:
            raise error
        # A stop at t0 reports idid -3, so a run that reached the guard
        # never counts as failed.
        if idid < 0 and self.peak < guard:
            raise RuntimeError("integration failed: %s"
                               % _DOP853_FAILURES.get(idid, "code %d" % idid))
        return tau, y, self.peak


_SOLVER = _Dop853()


# TIME DOMAINS =========================================================================

@dataclasses.dataclass(frozen=True)
class TimeDomain:
    """One of the three time domains: the full line, R+ or R-."""

    kind: str  # "full" | "plus" | "minus"

    def __post_init__(self):
        if self.kind not in ("full", "plus", "minus"):
            raise ValueError("unknown time domain %r" % (self.kind,))

    def contains(self, t: float) -> bool:
        if self.kind == "plus":
            return t >= 0.0
        if self.kind == "minus":
            return t <= 0.0
        return True

    @property
    def is_half_line(self) -> bool:
        return self.kind != "full"

    def __str__(self) -> str:
        return self.kind


FULL_LINE = TimeDomain("full")
HALF_LINE_PLUS = TimeDomain("plus")
HALF_LINE_MINUS = TimeDomain("minus")


# PROJECTION FAMILIES ==================================================================

class ProjectionFamily:
    """Time-indexed family of unstable projections t -> Pi^u(t).

    The stable projection is the complement ``Pi^s(t) = Id - Pi^u(t)``.
    The common degenerate cases (identically zero and identically the
    identity) are tagged so that downstream code can use full-norm
    shortcuts instead of multiplying by explicit matrices.
    """

    def __init__(self, unstable_fn: Callable[[float], np.ndarray],
                 dimension: int, descriptor: str = "explicit"):
        self._fn = unstable_fn
        self.dimension = dimension
        self.descriptor = descriptor  # "zero" | "identity" | "explicit"

    @classmethod
    def zero(cls, dimension: int) -> "ProjectionFamily":
        z = np.zeros((dimension, dimension))
        return cls(lambda t: z, dimension, descriptor="zero")

    @classmethod
    def identity(cls, dimension: int) -> "ProjectionFamily":
        eye = np.eye(dimension)
        return cls(lambda t: eye, dimension, descriptor="identity")

    @classmethod
    def constant(cls, matrix) -> "ProjectionFamily":
        matrix = np.asarray(matrix, dtype=float)
        return cls(lambda t: matrix, matrix.shape[0], descriptor="explicit")

    def unstable(self, t: float) -> np.ndarray:
        return np.asarray(self._fn(t), dtype=float)

    def stable(self, t: float) -> np.ndarray:
        return np.eye(self.dimension) - self.unstable(t)

    def idempotence_defect(self, times) -> float:
        """max_t ||P(t)^2 - P(t)|| over the given times."""
        worst = 0.0
        for t in times:
            p = self.unstable(t)
            worst = max(worst, spectral_norm(p @ p - p))
        return worst

    def invariance_defect(self, process: "EvolutionProcess", pairs) -> float:
        """max ||S(t,s) P(s) - P(t) S(t,s)|| over the given (t, s) pairs."""
        worst = 0.0
        for t, s in pairs:
            m = process.matrix(t, s)
            worst = max(worst, spectral_norm(m @ self.unstable(s) - self.unstable(t) @ m))
        return worst


# SPECTRAL NORM ========================================================================

def spectral_norm(m) -> float:
    """Largest singular value of a small dense matrix.

    A 1x1 input is exact.  Anything larger goes to LAPACK's SVD after
    division by ``max |m_ij|``, so entries far below or above unit size
    neither underflow nor overflow on the way.
    """
    m = np.asarray(m, dtype=float)
    if m.shape == (1, 1):
        return abs(float(m[0, 0]))
    scale = float(np.max(np.abs(m)))
    if scale == 0.0 or not math.isfinite(scale):
        return scale
    return scale * float(np.linalg.svd(m / scale, compute_uv=False)[0])


def _log(value: float) -> float:
    """Natural log with an exact zero mapped to -inf; NaN stays NaN."""
    return -math.inf if value == 0.0 else math.log(value)


def _escaped(m: np.ndarray) -> bool:
    """Whether a propagator has a non-finite entry or a Frobenius norm
    above ``ESCAPE_GUARD``.  The Frobenius norm bounds the spectral norm
    from above, so this poisons at least the pairs a spectral guard would."""
    scale = float(np.max(np.abs(m)))
    # sqrt(size) * max|m_ij| bounds the Frobenius norm; the test is False for NaN.
    if scale * math.sqrt(m.size) <= ESCAPE_GUARD:
        return False
    return not math.isfinite(scale) or scale * float(np.linalg.norm(m / scale)) > ESCAPE_GUARD


def _write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` over whatever the file held.

    The file is opened without ``O_TRUNC`` and cut at the end of the new
    text afterwards: truncating a non-empty file to zero length makes
    some filesystems (ext4's ``auto_da_alloc``) flush it on close, which
    costs tens of milliseconds per artifact.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as fh:
        fh.write(text)
        fh.truncate()


# GRIDS ================================================================================

@dataclasses.dataclass(frozen=True)
class GridSpec:
    """Uniform time mesh on [start, stop] with the origin pinned.

    The mesh always contains both endpoints, and contains 0 whenever
    0 lies in [start, stop], so that half-line anchors e^{delta |t|}
    are sampled where they are smallest.
    """

    start: float
    stop: float
    step: float
    extra_points: tuple = ()

    def __post_init__(self):
        if not (self.stop > self.start):
            raise ValueError("empty grid: stop must exceed start")
        if not (self.step > 0):
            raise ValueError("grid step must be positive")

    def mesh(self) -> np.ndarray:
        n = int(round((self.stop - self.start) / self.step))
        pts = self.start + self.step * np.arange(n + 1)
        pts = pts[pts <= self.stop + 1e-12 * max(1.0, abs(self.stop))]
        extras = [self.stop]
        if self.start < 0.0 < self.stop:
            extras.append(0.0)
        extras.extend(p for p in self.extra_points if self.start <= p <= self.stop)
        pts = np.concatenate([pts, np.asarray(extras, dtype=float)])
        pts = np.unique(np.round(pts, 12))
        return pts

    def pairs(self, part: str = "stable"):
        """All ordered mesh pairs: (t >= s) for "stable", (t < s) for
        "unstable".  Returns flat arrays (t_vals, s_vals)."""
        mesh = self.mesh()
        tt, ss = np.meshgrid(mesh, mesh, indexing="ij")
        if part == "stable":
            keep = tt >= ss
        elif part == "unstable":
            keep = tt < ss
        else:
            raise ValueError("part must be 'stable' or 'unstable'")
        return tt[keep], ss[keep]


@dataclasses.dataclass
class NormGrid:
    """Sampled values of log ||S(t, s) P(s)|| over a grid of pairs.

    samples : (n, 3) array of rows (t, s, log_norm).
    part : which projection factor was applied ("stable" or "unstable").
    poisoned : list of (t, s) pairs where propagation escaped or failed;
        these carry no log-norm value and are excluded from fitting.
    """

    samples: np.ndarray
    part: str = "stable"
    poisoned: list = dataclasses.field(default_factory=list)

    def to_csv(self, path) -> None:
        _write_text(path, "".join(
            ["t,s,log_norm,part\n"]
            + ["%.17g,%.17g,%.17g,%s\n" % (t, s, v, self.part) for t, s, v in self.samples]))

    @staticmethod
    def from_csv(path) -> "NormGrid":
        rows = []
        part = "stable"
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            if header[:3] != ["t", "s", "log_norm"]:
                raise ValueError("unrecognized norm-grid header: %r" % (header,))
            for line in fh:
                t, s, v, part = line.strip().split(",")
                rows.append((float(t), float(s), float(v)))
        return NormGrid(np.asarray(rows, dtype=float), part=part)


# PROCESSES ============================================================================

class EvolutionProcess:
    """Base class for two-parameter evolution families S(t, s).

    Subclasses implement :meth:`matrix`.  ``propagate`` applies the
    operator to a vector; scalar backends override it to avoid building
    1x1 matrices in inner loops.  :func:`sample_norm_grid` reads every
    grid through :meth:`_log_norms`, which closed-form exponents
    vectorise and integrated and Strang backends chain over the mesh.
    """

    dimension: int = 1
    domain: TimeDomain = FULL_LINE
    invertible: bool = False
    backend: str = "closed-form-exponent"

    def _check_args(self, t: float, s: float) -> None:
        if not (self.domain.contains(t) and self.domain.contains(s)):
            raise DomainError(
                "pair (t=%g, s=%g) outside time domain %s" % (t, s, self.domain)
            )
        if t < s and not self.invertible:
            raise DomainError(
                "t < s requires an invertible process (backend %s)" % self.backend
            )

    def matrix(self, t: float, s: float) -> np.ndarray:
        raise NotImplementedError

    def _log_norms(self, grid: GridSpec, tv: np.ndarray, sv: np.ndarray,
                   projection: Optional[ProjectionFamily], part: str) -> np.ndarray:
        """``log ||S(t, s) P(s)||`` for the pairs ``(tv, sv) = grid.pairs(part)``,
        NaN where a pair escaped and -inf where the product vanished.  The
        default takes one :func:`operator_norm` per pair."""
        out = np.empty(len(tv))
        for k, (t, s) in enumerate(zip(tv.tolist(), sv.tolist())):
            try:
                out[k] = operator_norm(self, t, s, projection, part=part, log=True)
            except FiniteEscapeError:
                out[k] = math.nan
        return out

    def matrix_path(self, s: float, t_end: float) -> Callable[[float], np.ndarray]:
        """``tau -> S(tau, s)`` for tau between s and t_end, for callers
        that evaluate many times from one anchor s.  Errors surface when a
        point is evaluated, as they would from :meth:`matrix`."""
        return lambda tau: self.matrix(tau, s)

    def propagate(self, t: float, s: float, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape[0] != self.dimension:
            raise DomainError(
                "state dimension %d does not match process dimension %d"
                % (x.shape[0], self.dimension)
            )
        return self.matrix(t, s) @ x


class ScalarExponentProcess(EvolutionProcess):
    """Scalar process given by a closed-form log-propagator E(t, s),
    i.e. S(t, s) x = e^{E(t, s)} x.  Always invertible."""

    dimension = 1
    invertible = True

    def __init__(self, exponent: Callable, domain: TimeDomain = FULL_LINE,
                 backend: str = "closed-form-exponent"):
        self.exponent = exponent
        self.domain = domain
        self.backend = backend

    def log_propagator(self, t, s):
        """Vectorized E(t, s); accepts arrays."""
        return self.exponent(t, s)

    def _guarded_exponent(self, t: float, s: float) -> float:
        """E(t, s) for one pair; raises :class:`FiniteEscapeError` above the
        guard, and for a NaN exponent."""
        self._check_args(t, s)
        e = float(self.exponent(t, s))
        if not (e <= _LOG_GUARD):
            # The log norm grows roughly linearly over [s, t], so the guard
            # is crossed a fraction log_guard / e of the way in.
            escape = s + (t - s) * min(1.0, _LOG_GUARD / e) if e > 0 else t
            raise FiniteEscapeError(t, s, escape)
        return e

    def matrix(self, t: float, s: float) -> np.ndarray:
        return np.array([[math.exp(self._guarded_exponent(t, s))]])

    def propagate(self, t: float, s: float, x) -> np.ndarray:
        return math.exp(self._guarded_exponent(t, s)) * np.atleast_1d(
            np.asarray(x, dtype=float))

    def _log_norms(self, grid, tv, sv, projection, part):
        if _projection_factor(projection, part) != "identity":
            return super()._log_norms(grid, tv, sv, projection, part)
        # Under the identity factor the log norm is the exponent, vectorised.
        self._check_args(grid.stop, grid.start)
        vals = np.asarray(self.log_propagator(tv, sv), dtype=float)
        return np.where(vals <= _LOG_GUARD, vals, math.nan)  # a NaN exponent too


class ScalarCoefficientProcess(ScalarExponentProcess):
    """Scalar process x' = f(t) x with the log-propagator computed by
    adaptive quadrature of the coefficient: E(t, s) = int_s^t f.

    Antiderivative values F(t) = int_0^t f are cached per time, and an
    array of pairs evaluates F once per distinct time, so grid sweeps
    cost one quadrature per mesh point rather than per pair.  A
    closed-form antiderivative can be supplied to skip quadrature
    entirely.
    """

    backend = "numerically-integrated"

    def __init__(self, coefficient: Callable, domain: TimeDomain = FULL_LINE,
                 antiderivative: Optional[Callable] = None):
        self.coefficient = coefficient
        self.antiderivative = antiderivative
        self._cache = {}
        super().__init__(self._exponent, domain=domain,
                         backend="numerically-integrated")

    def _cumulative(self, t: float) -> float:
        if self.antiderivative is not None:
            return float(self.antiderivative(t))
        t = float(t)
        if t not in self._cache:
            val, _ = quad(self.coefficient, 0.0, t, **_QUAD_KWARGS)
            self._cache[t] = val
        return self._cache[t]

    def _exponent(self, t, s):
        if np.ndim(t) or np.ndim(s):
            t, s = np.broadcast_arrays(t, s)
            times, index = np.unique(np.concatenate([t.ravel(), s.ravel()]),
                                     return_inverse=True)
            values = np.array([self._cumulative(v) for v in times])[index]
            return (values[:t.size] - values[t.size:]).reshape(t.shape)
        return self._cumulative(t) - self._cumulative(s)


class MatrixClosedFormProcess(EvolutionProcess):
    """Finite-dimensional process with an explicit matrix map (t, s) ->
    S(t, s), e.g. piecewise-constant cocycles diagonalized in a fixed
    basis, duals, and adjoints."""

    def __init__(self, matrix_fn: Callable, dimension: int,
                 domain: TimeDomain = FULL_LINE, invertible: bool = True,
                 backend: str = "piecewise-closed-form"):
        self._matrix_fn = matrix_fn
        self.dimension = dimension
        self.domain = domain
        self.invertible = invertible
        self.backend = backend

    def matrix(self, t: float, s: float) -> np.ndarray:
        self._check_args(t, s)
        m = np.asarray(self._matrix_fn(t, s), dtype=float)
        if _escaped(m):
            raise FiniteEscapeError(t, s, t)
        return m


class IntegratedLinearProcess(EvolutionProcess):
    """Process generated by x' = A(t) x with the adaptive explicit
    Runge-Kutta 8(5,3) pair DOP853 (relative tolerance ``_RTOL = 1e-10``,
    absolute ``_ATOL = 1e-12``).

    ``matrix`` integrates the full matrix ODE from the identity, and
    ``propagate`` applies it.  Backward propagation (t < s) is available
    when ``invertible=True`` and simply integrates the ODE backward in
    time.  Grid sampling integrates one step propagator per mesh interval
    and chains them.  These solves run on the compiled DOP853 driver
    shared with the attractor ensembles, so a coefficient must not start
    another such solve.  Only ``matrix_path`` runs ``solve_ivp``, whose
    dense output serves every point of one anchor from a single solve.
    """

    backend = "numerically-integrated"

    def __init__(self, coefficient_matrix: Callable, dimension: int,
                 domain: TimeDomain = FULL_LINE, invertible: bool = False):
        self.coefficient_matrix = coefficient_matrix
        self.dimension = dimension
        self.domain = domain
        self.invertible = invertible

    def _field(self, tau, y):
        return np.asarray(self.coefficient_matrix(tau), dtype=float) @ y

    def _solve(self, t: float, s: float, y0: np.ndarray):
        """``(state at t from y0 at s, the largest Frobenius norm of the
        state at the step ends)`` from one compiled solve, which raises
        :class:`FiniteEscapeError` at the end of the first step where that
        norm reaches ``ESCAPE_GUARD``."""
        reach, y, peak = _SOLVER.solve(self._field, s, t, y0.ravel(), y0.shape,
                                       _RTOL, _ATOL, np.linalg.norm, ESCAPE_GUARD)
        if not (peak < ESCAPE_GUARD):
            raise FiniteEscapeError(t, s, reach)
        return y.reshape(y0.shape), peak

    def matrix(self, t: float, s: float) -> np.ndarray:
        self._check_args(t, s)
        n = self.dimension
        if t == s:
            return np.eye(n)
        return self._solve(t, s, np.eye(n))[0]

    def matrix_path(self, s: float, t_end: float) -> Callable[[float], np.ndarray]:
        """One dense-output ``solve_ivp`` solve of the matrix ODE from s
        towards t_end (clipped to the time domain), which stops where the
        Frobenius norm reaches ``ESCAPE_GUARD``.  A point past that escape
        time raises :class:`FiniteEscapeError`, a point outside the domain
        :class:`DomainError`, as from :meth:`matrix`."""
        if not self.domain.contains(t_end):
            t_end = 0.0  # half-line domains end at 0
        self._check_args(t_end, s)
        if t_end == s:
            return super().matrix_path(s, t_end)
        n = self.dimension

        def escape(tau, y):
            return float(np.linalg.norm(y)) - ESCAPE_GUARD
        escape.terminal = True

        sol = solve_ivp(lambda tau, y: self._field(tau, y.reshape(n, n)).ravel(),
                        (s, t_end), np.eye(n).ravel(), method="DOP853",
                        rtol=_RTOL, atol=_ATOL, events=escape,
                        dense_output=True)
        if sol.status == -1:
            raise RuntimeError("integration failed: %s" % sol.message)
        reach = float(sol.t[-1])  # t_end, or the escape time

        def path(tau):
            self._check_args(tau, s)
            if min(s, reach) <= tau <= max(s, reach):
                return sol.sol(tau).reshape(n, n)
            if sol.status == 1 and min(s, t_end) <= tau <= max(s, t_end):
                raise FiniteEscapeError(tau, s, reach)
            raise ValueError("tau=%g is outside the path from s=%g to %g" % (tau, s, t_end))
        return path

    def _step(self, t: float, s: float):
        """``(S(t, s), the largest Frobenius norm of S(tau, s) at the step
        ends)`` for one mesh interval of :func:`_chained_log_norms`."""
        return self._solve(t, s, np.eye(self.dimension))

    def _log_norms(self, grid, tv, sv, projection, part):
        return _chained_log_norms(self, grid, tv, sv, projection, part)


# MODULE-LEVEL OPERATIONS ==============================================================

def propagate(process: EvolutionProcess, t: float, s: float, x) -> np.ndarray:
    """Apply S(t, s) to the state x."""
    return process.propagate(t, s, x)


def _projection_factor(projection: Optional[ProjectionFamily], part: str) -> str:
    """Which map the factor P(s) of ``S(t, s) P(s)`` is: "identity" (the
    full norm; ``projection=None`` means this for both parts), "zero", or
    "explicit" when the family has to be evaluated."""
    if part not in ("stable", "unstable"):
        raise ValueError("part must be 'stable' or 'unstable'")
    if projection is None:
        return "identity"
    if projection.descriptor == "explicit":
        return "explicit"
    # The unstable factor is Pi^u, the stable one Id - Pi^u.
    if (projection.descriptor == "zero") == (part == "stable"):
        return "identity"
    return "zero"


def operator_norm(process: EvolutionProcess, t: float, s: float,
                  projection: Optional[ProjectionFamily] = None,
                  part: str = "stable", log: bool = False):
    """Spectral norm of ``S(t, s) P(s)`` where P is the stable or
    unstable member of the projection family (full norm if None).
    ``S(t, s)`` is read from ``process.matrix``, so this raises
    :class:`FiniteEscapeError` (or :class:`DomainError`) wherever
    ``matrix`` does, whatever the projection.  A scalar log norm is the
    guarded exponent plus ``log |P(s)|``, so it never underflows."""
    factor = _projection_factor(projection, part)
    if factor == "zero":
        return -math.inf if log else 0.0
    proj = None if factor == "identity" else (
        projection.stable(s) if part == "stable" else projection.unstable(s))
    if log and isinstance(process, ScalarExponentProcess):
        # Read in the exponent: e^E underflows to 0 once E < -745.
        e = process._guarded_exponent(t, s)
        return e if proj is None else e + _log(spectral_norm(proj))
    m = process.matrix(t, s)
    if proj is not None:
        m = m @ proj
    val = spectral_norm(m)
    return _log(val) if log else val


def dual_process(process: EvolutionProcess) -> EvolutionProcess:
    """Dual family T(t, s) = S(s, t)^*.

    Requires an invertible process; the dual of a process with a
    dichotomy of one kind admits a dichotomy of the other kind with the
    same bound and exponents.  The dual of an
    :class:`IntegratedLinearProcess` is the integrated adjoint equation
    ``dT/dt = -A(t)^T T``, so it solves forward and chains on grids like
    its primal; every other backend gets a :class:`MatrixClosedFormProcess`
    that transposes one primal ``matrix`` call per pair.
    """
    if not process.invertible:
        raise DomainError("dual process requires an invertible process")
    base = process
    if isinstance(base, IntegratedLinearProcess):
        d = IntegratedLinearProcess(
            lambda t: -np.asarray(base.coefficient_matrix(t), dtype=float).T,
            base.dimension, domain=base.domain, invertible=True)
    else:
        d = MatrixClosedFormProcess(lambda t, s: base.matrix(s, t).T, base.dimension,
                                    domain=base.domain, invertible=True,
                                    backend=base.backend)
    d.primal = base
    return d


def sample_norm_grid(process: EvolutionProcess,
                     projection: Optional[ProjectionFamily],
                     grid: GridSpec, part: str = "stable") -> NormGrid:
    """Sample log ||S(t, s) P(s)|| over all grid pairs of the right
    orientation, through the backend's ``_log_norms``.  Escaped pairs are
    recorded as poisoned rather than aborting the sweep; pairs where
    ``S(t, s) P(s)`` vanished carry no sample."""
    if _projection_factor(projection, part) == "zero":
        # Zero operator: satisfies every bound, so no pair carries a sample.
        return NormGrid(np.empty((0, 3), dtype=float), part=part)
    tv, sv = grid.pairs(part)
    vals = process._log_norms(grid, tv, sv, projection, part)
    poison = ~(vals < math.inf)   # escaped, overflowed or NaN: surfaced, never dropped
    keep = ~poison & (vals > -math.inf)
    return NormGrid(np.column_stack([tv[keep], sv[keep], vals[keep]]), part=part,
                    poisoned=list(zip(tv[poison].tolist(), sv[poison].tolist())))


def _chained_log_norms(process: EvolutionProcess, grid: GridSpec, tv, sv,
                       projection: Optional[ProjectionFamily], part: str) -> np.ndarray:
    """The :meth:`EvolutionProcess._log_norms` of the mesh pairs (tv, sv)
    from one step propagator ``process._step`` per mesh interval.

    The stable part chains forward steps ``S(m_{k+1}, m_k)``, the unstable
    part backward solves ``S(m_k, m_{k+1})``; by the cocycle identity each
    ``S(t, s)`` is a running product over the intervals between s and t.
    The product is kept as ``e^L N`` with ``max|N| = 1``, renormalised
    after every step, so it neither overflows nor underflows.  P(s) is
    applied only when the pair's norm is taken: a product started from
    P(s) would not bound the full propagator the escape guard watches.

    The per-pair solve of ``S(t, s)`` escapes when the Frobenius norm of
    ``S(tau, s)`` passes ``ESCAPE_GUARD`` at some tau in between.  Over
    one interval, ``||S(tau, s)||_F <= ||S(tau, m_k)||_F ||S(m_k, s)||_F``,
    which is at most ``e^L ||N||_F`` times the step's peak Frobenius norm;
    once that bound passes the guard (or a step escapes), the pair and
    every later pair from the same s are poisoned.  Chaining can poison
    more pairs than per-pair solves, never fewer.
    """
    mesh = grid.mesh()
    count = len(mesh)
    forward = part == "stable"
    explicit = _projection_factor(projection, part) == "explicit"
    # Domains are intervals: checking the outermost pair checks them all.
    process._check_args(*((mesh[-1], mesh[0]) if forward else (mesh[0], mesh[-1])))
    steps = []
    for k in range(count - 1):
        end, start = (mesh[k + 1], mesh[k]) if forward else (mesh[k], mesh[k + 1])
        try:
            steps.append(process._step(float(end), float(start)))
        except FiniteEscapeError:
            steps.append(None)

    logn = np.full((count, count), -np.inf)   # [t index, s index]
    bad = np.zeros((count, count), dtype=bool)
    eye = np.eye(process.dimension)
    for j, s in enumerate(mesh):
        proj = None
        if explicit:
            proj = projection.stable(s) if forward else projection.unstable(s)
        if forward:
            logn[j, j] = 0.0 if proj is None else _log(spectral_norm(proj))
        prod, log_scale, guard = eye, 0.0, -math.inf
        for k in (range(j, count - 1) if forward else range(j - 1, -1, -1)):
            i = k + 1 if forward else k
            if steps[k] is not None:
                step, peak = steps[k]
                guard = max(guard, log_scale + math.log(np.linalg.norm(prod)) + _log(peak))
            if steps[k] is None or guard > _LOG_GUARD:
                if forward:
                    bad[i:, j] = True
                else:
                    bad[:i + 1, j] = True
                break
            prod = step @ prod
            top = float(np.max(np.abs(prod)))
            if top == 0.0:
                break  # S(t, s) vanished, and with it every later pair
            prod = prod / top
            log_scale += math.log(top)
            logn[i, j] = log_scale + _log(spectral_norm(prod if proj is None else prod @ proj))

    logn[bad] = math.nan
    return logn[np.searchsorted(mesh, tv), np.searchsorted(mesh, sv)]


# CONFIG LOADING =======================================================================

def load_process_config(path_or_dict):
    """Build a process from a JSON config.

    The config names a backend plus backend-specific fields; closed-form
    families are resolved through the gallery registry.  See the CLI
    documentation for the schema.
    """
    # Imported lazily to avoid a cycle (gallery builds on this module).
    from . import gallery

    if isinstance(path_or_dict, dict):
        cfg = dict(path_or_dict)
    else:
        with open(path_or_dict) as fh:
            cfg = json.load(fh)
    try:
        backend = cfg["backend"]
        domain = TimeDomain(cfg.get("domain", "full"))
    except (KeyError, ValueError) as exc:
        raise ValueError("invalid process config: %s" % exc) from exc

    if backend in ("closed-form-exponent", "piecewise-closed-form"):
        family = cfg.get("family")
        if family is None:
            raise ValueError("closed-form configs must name a 'family'")
        entry = gallery.make_entry(family, **cfg.get("params", {}))
        return entry.process
    if backend == "numerically-integrated":
        coeff = cfg.get("coefficient")
        if coeff == "constant":
            rate = float(cfg["params"]["rate"])
            return ScalarCoefficientProcess(lambda t: rate, domain=domain,
                                            antiderivative=lambda t: rate * t)
        if coeff == "tanh":
            sigma = float(cfg["params"].get("scale", 1.0))
            return ScalarCoefficientProcess(
                lambda t: np.tanh(t / sigma), domain=domain,
                antiderivative=lambda t: sigma * np.log(np.cosh(t / sigma)))
        raise ValueError("unknown integrated coefficient %r" % (coeff,))
    raise ValueError("unknown backend %r" % (backend,))
