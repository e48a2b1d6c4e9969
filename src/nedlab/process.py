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

import collections
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
    "dual_process",
    "sample_norm_grid",
]

#: Norm threshold beyond which propagation is treated as finite-time escape.
ESCAPE_GUARD = 1e150
_LOG_GUARD = math.log(ESCAPE_GUARD)
#: Tolerances of the coefficient quadratures ``int_0^t f``.
_QUAD_KWARGS = dict(epsabs=1e-13, epsrel=1e-12, limit=400)
#: Tolerances of the integrated linear solves and the attractor ensembles.
_RTOL, _ATOL = 1e-10, 1e-12
#: The parts of ``S(t, s)`` that each projection descriptor leaves nonzero, the
#: one table that sampling, checking, fitting and duality read.
_PARTS = {"zero": ("stable",), "identity": ("unstable",), "explicit": ("stable", "unstable")}


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
_FLOAT = np.dtype(float)


class _StepSizeCollapse(RuntimeError):
    """DOP853 stopped because its step fell below the rounding floor of t
    (code -3) before the step-end norm reached the guard, as on the way to
    a finite-time blow-up far from t = 0."""


class _Run:
    """What one thread's callbacks read during a solve: the field, the
    state's shape and size, the step-end norm, its guard and running
    peak, and the exception the field raised, if any."""

    __slots__ = ("field", "shape", "size", "norm", "guard", "peak", "error")

    def __init__(self):
        self.field = self.norm = self.error = None


class _Dop853(threading.local):
    """One thread's driver of Hairer's compiled DOP853 (the code behind
    ``scipy.integrate.ode("dop853")``) with the stiffness test off.  It
    serves the integrated linear processes and the attractor ensembles.

    The compiled wrapper keeps a reference to every callback it is
    handed, so each thread builds its two callbacks once, in
    ``__init__``, and hands the same two on every solve: ``fcn`` calls
    the current field and ``solout`` tracks the peak norm at the step
    ends.  They are closures over a plain :class:`_Run`, so a right-hand
    side reads no thread-local attribute.  A field result that is a
    float64 ``ndarray`` with as many entries as the state goes to the
    wrapper as it is (the wrapper reads any shape in C order); anything
    else is converted with ``np.asarray(..., dtype=float).reshape(size)``,
    which raises for a result of the wrong size, since the wrapper
    would take it without complaint.  The wrapper also ignores
    exceptions raised in a callback, so ``fcn`` records the field's
    exception and returns zeros until ``solout`` stops the run; the
    exception is then raised again.

    ``solves`` counts this thread's solves; ``stats`` sums their
    right-hand-side evaluations, steps, accepted and rejected steps.
    """

    def __init__(self):
        run = self.run = _Run()
        self.busy = False
        self.solves = 0
        self.stats = np.zeros(4, dtype=np.int64)

        def fcn(tau, y):
            if run.error is None:
                try:
                    out = run.field(tau, y.reshape(run.shape))
                    if type(out) is np.ndarray and out.dtype == _FLOAT and out.size == run.size:
                        return out
                    return np.asarray(out, dtype=float).reshape(run.size)
                except BaseException as exc:
                    run.error = exc
            return np.zeros(run.size)

        def solout(tau, y):
            if run.error is not None:
                return -1
            value = run.norm(y)
            if not (value <= run.peak):   # a NaN norm is a new peak, and stops
                run.peak = value
                if not (value < run.guard):
                    return -1
            return 0

        self.fcn, self.solout = fcn, solout

    def solve(self, field, t0: float, t1: float, y: np.ndarray, shape,
              rtol: float, atol: float, norm, guard: float):
        """``(tau, state at tau, peak)`` for y' = field(t, y.reshape(shape))
        from y at t0, where peak is the largest ``norm`` of the flat state
        over the step ends, t0 included.  tau is t1 unless the run stopped
        at the end of the first step where the peak reached ``guard``;
        callers map that stop to their own error.  A failed run raises
        RuntimeError, :class:`_StepSizeCollapse` for a collapsed step.  Not
        re-entrant: a field that starts another solve on the same thread
        raises RuntimeError."""
        if self.busy:
            raise RuntimeError("the compiled DOP853 driver was re-entered from "
                               "inside a right-hand side")
        work = np.zeros(11 * y.size + 21)
        work[1:4] = 0.9, 0.3, 6.0  # ode("dop853") defaults: safety, step limits
        iwork = np.zeros(21, dtype=np.int32)
        iwork[3] = -1  # never run the stiffness test, which stops the solve
        run = self.run
        run.field, run.shape, run.size, run.norm, run.guard = field, shape, y.size, norm, guard
        run.peak, self.busy = -math.inf, True
        try:
            # Pass the trailing tuple of extra field arguments even though
            # it is empty: left out, the wrapper can crash the interpreter.
            tau, y, idid = _dopri853(self.fcn, t0, y, t1, rtol, atol,
                                     self.solout, 1, work, iwork,
                                     np.iinfo(np.int32).max, -1, ())
        finally:
            error, peak = run.error, run.peak
            run.field = run.norm = run.error = None
            self.busy = False
            self.solves += 1
            self.stats += iwork[16:20]  # nfev, steps, accepted, rejected
        if error is not None:
            raise error
        # A stop at t0 reports idid -3, so a run that reached the guard
        # never counts as failed.
        if idid < 0 and peak < guard:
            raise (_StepSizeCollapse if idid == -3 else RuntimeError)(
                "integration failed: %s" % _DOP853_FAILURES.get(idid, "code %d" % idid))
        return tau, y, peak


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
        """max_t ||P(t)^2 - P(t)|| over the given times (0 for none); NaN
        if the family is NaN at any of them."""
        p = np.array([self.unstable(t) for t in times]).reshape(-1, self.dimension,
                                                                 self.dimension)
        return _max_norm(p @ p - p)

    def invariance_defect(self, process: "EvolutionProcess", pairs) -> float:
        """max ||S(t,s) P(s) - P(t) S(t,s)|| over the given (t, s) pairs (0
        for none); NaN if any of them is NaN."""
        defects = []
        for t, s in pairs:
            m = process.matrix(t, s)
            defects.append(m @ self.unstable(s) - self.unstable(t) @ m)
        return _max_norm(np.array(defects).reshape(-1, self.dimension, self.dimension))


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


def _spectral_norms(stack) -> np.ndarray:
    """:func:`spectral_norm` of each matrix of an (m, n, n) stack, bit for
    bit, with one LAPACK call for the lot; an (n, n) matrix goes to
    :func:`spectral_norm` itself."""
    stack = np.asarray(stack, dtype=float)
    if stack.ndim == 2:
        return spectral_norm(stack)
    if stack.shape[1:] == (1, 1):
        return np.abs(stack[:, 0, 0])
    scale = np.max(np.abs(stack), axis=(1, 2))
    out = scale.copy()   # zero and non-finite scales are their own norm
    ok = (scale != 0.0) & np.isfinite(scale)
    if ok.any():
        out[ok] = scale[ok] * np.linalg.svd(stack[ok] / scale[ok, None, None],
                                            compute_uv=False)[:, 0]
    return out


def _max_norm(stack) -> float:
    """The largest :func:`spectral_norm` of an (m, n, n) stack, 0 for an
    empty one; NaN, which ``max`` would pass over, if any norm is NaN."""
    return float(np.max(_spectral_norms(stack), initial=0.0))


#: Bytes of ``N P(s)`` matrices the per-anchor kernel gathers per norm call.
_NORM_BLOCK_BYTES = 1 << 20


def _log_norm_block(table: np.ndarray, block: list) -> None:
    """Write ``L + log ||N P(s)||`` into ``table[t index, anchor index]``
    for a block of ``(anchor index, t indices, L values, N P(s) stack)``,
    from one :func:`_spectral_norms` call over all its stacks."""
    if not block:
        return
    norms = _spectral_norms(np.concatenate([stack for *_, stack in block])).tolist()
    end = 0
    for a, rows, scales, _ in block:
        start, end = end, end + len(rows)
        table[rows, a] = [scale + _log(v) for scale, v in zip(scales, norms[start:end])]


def _log(value: float) -> float:
    """Natural log with an exact zero mapped to -inf; NaN stays NaN."""
    return -math.inf if value == 0.0 else math.log(value)


def _exp(x):
    """``math.exp`` of a number, or of each entry of a 1-d array: ``np.exp``
    can differ from it by an ulp."""
    if np.ndim(x) == 0:
        return math.exp(x)
    return np.array([math.exp(v) for v in x.tolist()])


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

class _ArrayMemo:
    """Least-recently-used memo of tuples of read-only arrays, bounded in
    bytes: a value larger than the whole budget is built and returned but
    never kept."""

    def __init__(self, budget: int):
        self.budget, self.nbytes = budget, 0
        self._values = collections.OrderedDict()
        self._lock = threading.Lock()

    def get(self, key, build: Callable[[], tuple]) -> tuple:
        with self._lock:
            value = self._values.get(key)
            if value is not None:
                self._values.move_to_end(key)
                return value
        value = build()
        for array in value:
            array.flags.writeable = False
        size = sum(array.nbytes for array in value)
        with self._lock:
            if size <= self.budget and key not in self._values:
                self._values[key] = value
                self.nbytes += size
                while self.nbytes > self.budget:
                    self.nbytes -= sum(a.nbytes for a in self._values.popitem(last=False)[1])
        return value


#: Memo of grid structure: each grid value's mesh, and the triangle index
#: arrays of each (mesh size, part), shared by equal-size grids.
_GRID_MEMO = _ArrayMemo(4 << 20)


def _triangle_indices(size: int, part: str) -> tuple:
    """``(i, j)`` of the mesh pairs of ``part`` on a mesh of ``size`` points."""
    if part == "stable":
        return np.tril_indices(size)
    return np.triu_indices(size, 1)


@dataclasses.dataclass(frozen=True)
class GridSpec:
    """Uniform time mesh on [start, stop] with the origin pinned.

    The mesh always contains both endpoints exactly, and contains 0
    whenever 0 lies in [start, stop], so that half-line anchors
    e^{delta |t|} are sampled where they are smallest.  The other points,
    the lattice ``start + k * step`` and the extra points inside the
    window, are rounded to 12 decimals; one that rounds to an endpoint's
    12-decimal value merges into that endpoint.

    Grid structure is memoised in a module-wide least-recently-used memo
    of about 4 MB: the mesh of each grid value (equal grids share it),
    and the pair index arrays of each mesh size and part (equal-size
    grids share them).  Memoised arrays are read-only; ``mesh`` and
    ``pairs`` return fresh arrays.  A structure larger than the whole
    memo is rebuilt on every call.
    """

    start: float
    stop: float
    step: float
    extra_points: tuple = ()

    def __post_init__(self):
        if not all(map(math.isfinite, (self.start, self.stop, self.step))):
            raise ValueError("grid start, stop and step must be finite")
        if not (self.stop > self.start):
            raise ValueError("empty grid: stop must exceed start")
        if not (self.step > 0):
            raise ValueError("grid step must be positive")
        object.__setattr__(self, "extra_points", tuple(self.extra_points))

    def mesh(self) -> np.ndarray:
        return self._mesh().copy()

    def _mesh(self) -> np.ndarray:
        """The memoised, read-only mesh; strictly increasing."""
        return _GRID_MEMO.get(self, self._build_mesh)[0]

    def _build_mesh(self) -> tuple:
        n = int(round((self.stop - self.start) / self.step))
        inner = np.concatenate([self.start + self.step * np.arange(1, n + 1),
                                np.asarray([p for p in self.extra_points
                                            if self.start <= p <= self.stop], dtype=float)])
        inner = np.round(inner, 12)
        ends = np.round([self.start, self.stop], 12)
        inner = inner[(self.start < inner) & (inner < self.stop)
                      & (inner != ends[0]) & (inner != ends[1])]
        pinned = [self.start, self.stop] + ([0.0] if self.start < 0.0 < self.stop else [])
        # Adding 0.0 turns -0.0 into 0.0, so that equal grids mesh to the same bits.
        return (np.unique(np.concatenate([pinned, inner])) + 0.0,)

    def pairs(self, part: str = "stable"):
        """All ordered mesh pairs: (t >= s) for "stable", (t < s) for
        "unstable".  Returns flat arrays (t_vals, s_vals)."""
        mesh, i, j = self._pair_index(part)
        return mesh[i], mesh[j]

    def _pair_index(self, part: str):
        """``(mesh, i, j)`` with ``pairs(part) == (mesh[i], mesh[j])``: the
        pairs in row-major order of (t, s), t ascending, then s.  All three
        are the read-only memoised arrays."""
        if part not in ("stable", "unstable"):
            raise ValueError("part must be 'stable' or 'unstable'")
        mesh = self._mesh()
        size = len(mesh)
        i, j = _GRID_MEMO.get((size, part), lambda: _triangle_indices(size, part))
        return mesh, i, j


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
    grid through :meth:`_log_norms`: the stacks :meth:`_anchor_matrices`
    reads per anchor, pair by pair or chained over the mesh, gathered into
    one stacked norm call per block of consecutive anchors; under the
    identity factor, scalar backends read the exponent and separable PDE
    processes one norm per distinct lag.
    """

    dimension: int = 1
    domain: TimeDomain = FULL_LINE
    invertible: bool = False

    def _check_args(self, t: float, s: float) -> None:
        if not (self.domain.contains(t) and self.domain.contains(s)):
            raise DomainError(
                "pair (t=%g, s=%g) outside time domain %s" % (t, s, self.domain)
            )
        if t < s and not self.invertible:
            raise DomainError(
                "t < s requires an invertible process (%s)" % type(self).__name__
            )

    def matrix(self, t: float, s: float) -> np.ndarray:
        raise NotImplementedError

    def _log_matrix(self, t: float, s: float):
        """``(L, N)`` with ``S(t, s) = e^L N``, raising wherever :meth:`matrix`
        does: ``(0.0, matrix(t, s))`` unless a backend keeps a scale in L
        that would underflow or overflow N."""
        return 0.0, self.matrix(t, s)

    def _log_norms(self, mesh: np.ndarray, part: str, i: np.ndarray, j: np.ndarray,
                   factor: Optional[Callable]) -> np.ndarray:
        """``log ||S(t, s) P(s)||`` for the pairs ``(mesh[i], mesh[j])`` of
        ``GridSpec._pair_index(part)``, NaN where a pair escaped and -inf
        where the product vanished; ``factor`` is None for the identity,
        else ``s -> P(s)``.

        For each anchor ``s = mesh[a]``, P(s) is evaluated once and applied
        to the ``(L, N)`` stack of :meth:`_anchor_matrices`.  Consecutive
        anchors' ``N P(s)`` stacks are gathered into blocks of about
        ``_NORM_BLOCK_BYTES``, and one :func:`_spectral_norms` call per
        block gives every ``L + log ||N P(s)||`` in it.  The stacked SVD
        treats each matrix on its own, so the blocking changes no bit."""
        table = np.full((len(mesh), len(mesh)), -math.inf)   # [t index, s index]
        block, size = [], 0   # (anchor index, t indices, L values, N P(s) stack)
        for a, (rows, scales, mats, escaped) in enumerate(self._anchor_matrices(mesh, part)):
            table[escaped, a] = math.nan
            if rows:
                stack = np.array(mats, dtype=float)
                if factor is not None:
                    stack = stack @ factor(float(mesh[a]))
                block.append((a, rows, scales, stack))
                size += stack.nbytes
                if size >= _NORM_BLOCK_BYTES:
                    _log_norm_block(table, block)
                    block, size = [], 0
        _log_norm_block(table, block)
        return table[i, j]

    def _anchor_matrices(self, mesh: np.ndarray, part: str):
        """For each anchor index a of the mesh, in order, ``(t indices, L
        values, N matrices, escaped t indices)`` with ``S(mesh[k], mesh[a])
        = e^L N`` over the anchor's pairs: t >= s for "stable", t < s for
        "unstable".  The default makes one :meth:`_log_matrix` call per
        pair, t ascending, so each sample is bit for bit the
        :func:`operator_norm` of its pair; a pair that raises
        :class:`FiniteEscapeError` is escaped."""
        times = mesh.tolist()
        for a, s in enumerate(times):
            rows, read, escaped = [], [], []
            for k in (range(a, len(times)) if part == "stable" else range(a)):
                try:
                    read.append(self._log_matrix(times[k], s))
                    rows.append(k)
                except FiniteEscapeError:
                    escaped.append(k)
            yield rows, [scale for scale, _ in read], [m for _, m in read], escaped

    def matrix_path(self, s: float, t_end: float) -> Callable:
        """``tau -> S(tau, s)`` for tau between s and t_end, for callers
        that evaluate many times from one anchor s.  A path takes one time
        and returns the (n, n) matrix, or a 1-d array of m times and
        returns the (m, n, n) stack.  Errors surface when a point is
        evaluated, as they would from :meth:`matrix`; over an array, from
        the first time in order that fails.  The default calls
        :meth:`matrix` once per time."""
        n = self.dimension

        def path(tau):
            if np.ndim(tau) == 0:
                return self.matrix(tau, s)
            return np.array([self.matrix(t, s) for t in tau], dtype=float).reshape(-1, n, n)
        return path

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
    i.e. S(t, s) x = e^{E(t, s)} x.  Always invertible.

    ``exponent`` must take arrays of t and s as well as floats: a grid
    under the identity factor (``projection=None``) reads it once,
    vectorised over every pair, and a path once over an array of times."""

    dimension = 1
    invertible = True

    def __init__(self, exponent: Callable, domain: TimeDomain = FULL_LINE):
        self.exponent = exponent
        self.domain = domain

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

    def matrix_path(self, s: float, t_end: float) -> Callable:
        """Over an array of times the exponents are one
        :meth:`_grid_exponents` read, over the times followed by s, and each
        entry is exponentiated with ``math.exp``, as :meth:`matrix` does.
        If a time fails the domain check or the guard, the whole array goes
        through :meth:`matrix` one time at a time, which raises there."""
        per_time = super().matrix_path(s, t_end)

        def path(tau):
            if np.ndim(tau):
                tau = np.asarray(tau, dtype=float)
                if self.domain.contains(s) and np.all(self.domain.contains(tau)):
                    n = tau.size
                    e = self._grid_exponents(np.append(tau, s), np.arange(n), np.full(n, n))
                    if np.all(e <= _LOG_GUARD):   # False for a NaN exponent too
                        return _exp(e).reshape(-1, 1, 1)
            return per_time(tau)
        return path

    def _grid_exponents(self, times: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """E(t, s) over the pairs ``(times[i], times[j])``, unguarded: the one
        reader of a batch of exponents, behind grids and array paths.  Here
        one exponent call, broadcast to the pairs; a TypeError names the
        array contract if E rejects arrays."""
        tv = times[i]
        try:
            return np.broadcast_to(np.asarray(self.exponent(tv, times[j]), dtype=float),
                                   tv.shape)
        except (TypeError, ValueError) as exc:
            raise TypeError("grids and paths read the exponent E(t, s) of a "
                            "ScalarExponentProcess once over an array: it must take "
                            "arrays of t and s") from exc

    def _log_matrix(self, t: float, s: float):
        # Read in the exponent: e^E underflows to 0 once E < -745.
        return self._guarded_exponent(t, s), np.ones((1, 1))

    def _log_norms(self, mesh, part, i, j, factor):
        """Under the identity factor the exponent is read once over the
        whole grid (:meth:`_grid_exponents`); an explicit family takes the
        per-anchor kernel, which reads it one pair at a time."""
        if factor is not None:
            return super()._log_norms(mesh, part, i, j, factor)
        vals = self._grid_exponents(mesh, i, j)
        return np.where(vals <= _LOG_GUARD, vals, math.nan)  # a NaN exponent too


class ScalarCoefficientProcess(ScalarExponentProcess):
    """Scalar process x' = f(t) x with the log-propagator
    E(t, s) = int_s^t f = F(t) - F(s), where F(t) = int_0^t f comes from
    ``antiderivative`` when it is given and else from adaptive quadrature
    of the coefficient, cached per time.  F is called with one Python
    float at a time.  A grid under the identity factor reads F once per
    mesh point, a path once per time and an array of pairs once per
    distinct time, all through :meth:`_grid_exponents`.
    """

    def __init__(self, coefficient: Callable, domain: TimeDomain = FULL_LINE,
                 antiderivative: Optional[Callable] = None):
        self.coefficient = coefficient
        self.antiderivative = antiderivative
        self._cache = {}
        super().__init__(self._exponent, domain=domain)

    def _cumulative(self, t: float) -> float:
        t = float(t)
        if self.antiderivative is not None:
            return float(self.antiderivative(t))
        if t not in self._cache:
            val, _ = quad(self.coefficient, 0.0, t, **_QUAD_KWARGS)
            self._cache[t] = val
        return self._cache[t]

    def _exponent(self, t, s):
        # Two Python floats skip the array-function dispatch of np.ndim.
        if not (type(t) is float and type(s) is float) and (np.ndim(t) or np.ndim(s)):
            t, s = np.broadcast_arrays(t, s)
            times, index = np.unique(np.concatenate([t.ravel(), s.ravel()]),
                                     return_inverse=True)
            return self._grid_exponents(times, index[:t.size], index[t.size:]).reshape(t.shape)
        return self._cumulative(t) - self._cumulative(s)

    def _grid_exponents(self, times, i, j):
        """``F[i] - F[j]`` from one F per time; bit for bit the exponent of
        each pair."""
        values = np.array([self._cumulative(t) for t in times.tolist()])
        with np.errstate(invalid="ignore"):   # inf - inf is NaN, and poisoned
            return values[i] - values[j]


class MatrixClosedFormProcess(EvolutionProcess):
    """Finite-dimensional process with an explicit matrix map (t, s) ->
    S(t, s), e.g. piecewise-constant cocycles diagonalized in a fixed
    basis, duals, and adjoints."""

    def __init__(self, matrix_fn: Callable, dimension: int,
                 domain: TimeDomain = FULL_LINE, invertible: bool = True):
        self._matrix_fn = matrix_fn
        self.dimension = dimension
        self.domain = domain
        self.invertible = invertible

    def matrix(self, t: float, s: float) -> np.ndarray:
        self._check_args(t, s)
        m = np.asarray(self._matrix_fn(t, s), dtype=float)
        if _escaped(m):
            raise FiniteEscapeError(t, s, t)
        return m


class _TransposedProcess(MatrixClosedFormProcess):
    """``T(t, s) = S(sign s, sign t)^T``: the dual of S for ``sign = 1``, the
    time-reflected adjoint for ``sign = -1``.  It transposes the primal's
    ``matrix`` and the primal's ``(L, N)``."""

    def __init__(self, primal: EvolutionProcess, sign: int):
        super().__init__(lambda t, s: primal.matrix(sign * s, sign * t).T,
                         primal.dimension, domain=primal.domain,
                         invertible=primal.invertible)
        self.primal, self._sign = primal, sign

    def _log_matrix(self, t: float, s: float):
        self._check_args(t, s)
        scale, m = self.primal._log_matrix(self._sign * s, self._sign * t)
        return scale, m.T


class IntegratedLinearProcess(EvolutionProcess):
    """Process generated by x' = A(t) x with the adaptive explicit
    Runge-Kutta 8(5,3) pair DOP853 (relative tolerance ``_RTOL = 1e-10``,
    absolute ``_ATOL = 1e-12``).

    ``matrix`` integrates the full matrix ODE from the identity, and
    ``propagate`` applies it.  Backward propagation (t < s) is available
    when ``invertible=True`` and simply integrates the ODE backward in
    time.  Grid sampling chains one step per mesh interval through
    :func:`_chained_anchor_matrices`.  These solves run on the compiled
    DOP853 driver shared with the attractor ensembles, so a coefficient
    must not start another such solve.  Only ``matrix_path`` runs
    ``solve_ivp``, whose dense output serves every point of one anchor
    from a single solve.
    """

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
        lo, hi = min(s, reach), max(s, reach)

        def path(tau):
            if np.ndim(tau):
                tau = np.asarray(tau, dtype=float)
                if not np.all((lo <= tau) & (tau <= hi)):
                    return np.array([path(t) for t in tau])  # raises at the first failure
                if tau.size == 0:
                    return np.empty((0, n, n))
                return sol.sol(tau).T.reshape(-1, n, n)
            self._check_args(tau, s)
            if lo <= tau <= hi:
                return sol.sol(tau).reshape(n, n)
            if sol.status == 1 and min(s, t_end) <= tau <= max(s, t_end):
                raise FiniteEscapeError(tau, s, reach)
            raise ValueError("tau=%g is outside the path from s=%g to %g" % (tau, s, t_end))
        return path

    def _step(self, t: float, s: float):
        """``(S(t, s), the largest Frobenius norm of S(tau, s) at the step
        ends)`` for one mesh interval of :func:`_chained_anchor_matrices`."""
        return self._solve(t, s, np.eye(self.dimension))

    def _anchor_matrices(self, mesh, part):
        return _chained_anchor_matrices(self, mesh, part)


# MODULE-LEVEL OPERATIONS ==============================================================

_ZERO_FACTOR = object()


def _projection_factor(projection: Optional[ProjectionFamily], part: str):
    """The factor P(s) of ``S(t, s) P(s)``: None for the identity (the full
    norm; ``projection=None``, which projects nothing, means this for both
    parts), ``_ZERO_FACTOR`` when P vanishes, else the part's ``s -> P(s)``."""
    if part not in ("stable", "unstable"):
        raise ValueError("part must be 'stable' or 'unstable'")
    parts = (part,) if projection is None else _PARTS[projection.descriptor]
    if part not in parts:
        return _ZERO_FACTOR
    if len(parts) == 1:   # the part's projection is the identity
        return None
    return projection.stable if part == "stable" else projection.unstable


def operator_norm(process: EvolutionProcess, t: float, s: float,
                  projection: Optional[ProjectionFamily] = None,
                  part: str = "stable", log: bool = False):
    """Spectral norm of ``S(t, s) P(s)`` where P is the stable or
    unstable member of the projection family (full norm if None).  It
    reads ``S(t, s) = e^L N`` from ``process._log_matrix``, so it raises
    :class:`FiniteEscapeError` (or :class:`DomainError`) wherever
    ``matrix`` does, and a log norm ``L + log ||N P(s)||`` never underflows."""
    factor = _projection_factor(projection, part)
    if factor is _ZERO_FACTOR:
        return -math.inf if log else 0.0
    scale, m = process._log_matrix(t, s)
    val = spectral_norm(m if factor is None else m @ factor(s))
    return scale + _log(val) if log else math.exp(scale) * val


def dual_process(process: EvolutionProcess) -> EvolutionProcess:
    """Dual family T(t, s) = S(s, t)^*.

    Requires an invertible process; the dual of a process with a
    dichotomy of one kind admits a dichotomy of the other kind with the
    same bound and exponents.  The dual of an
    :class:`IntegratedLinearProcess` is the integrated adjoint equation
    ``dT/dt = -A(t)^T T``, so it solves forward and chains on grids like
    its primal.  The dual of a :class:`ScalarExponentProcess` is the
    scalar process with exponent ``E(s, t)`` (the adjoint of ``x' = a x``
    is ``x' = -a x``), so its grids and paths read the exponent itself
    and a norm below ``e^-745`` is sampled rather than lost to underflow.
    For a :class:`ScalarCoefficientProcess` that is the coefficient
    process of ``-f`` with antiderivative ``-F``, from the primal's
    closed form or its cached quadrature, so its grids read F once per
    mesh point too; ``(-F(t)) - (-F(s))`` is ``F(s) - F(t)`` bit for
    bit.  Every other backend gets a transposing wrapper of one primal
    ``matrix`` (or ``_log_matrix``) call per pair.
    """
    if not process.invertible:
        raise DomainError("dual process requires an invertible process")
    base = process
    if isinstance(base, ScalarCoefficientProcess):
        f, big_f = base.coefficient, base.antiderivative
        if big_f is None:   # the primal's cached quadrature
            big_f = base._cumulative
        d = ScalarCoefficientProcess(lambda t: -f(t), domain=base.domain,
                                     antiderivative=lambda t: -big_f(t))
    elif isinstance(base, ScalarExponentProcess):
        d = ScalarExponentProcess(lambda t, s: base.log_propagator(s, t), domain=base.domain)
    elif isinstance(base, IntegratedLinearProcess):
        d = IntegratedLinearProcess(
            lambda t: -np.asarray(base.coefficient_matrix(t), dtype=float).T,
            base.dimension, domain=base.domain, invertible=True)
    else:
        return _TransposedProcess(base, 1)
    d.primal = base
    return d


def sample_norm_grid(process: EvolutionProcess,
                     projection: Optional[ProjectionFamily],
                     grid: GridSpec, part: str = "stable") -> NormGrid:
    """Sample log ||S(t, s) P(s)|| over all grid pairs of the right
    orientation, through the backend's ``_log_norms`` on the grid's
    memoised mesh and pair indices, after one domain check.  Escaped pairs
    are recorded as poisoned rather than aborting the sweep; pairs where
    ``S(t, s) P(s)`` vanished carry no sample."""
    factor = _projection_factor(projection, part)
    if factor is _ZERO_FACTOR:
        # Zero operator: satisfies every bound, so no pair carries a sample.
        return NormGrid(np.empty((0, 3), dtype=float), part=part)
    mesh, i, j = grid._pair_index(part)
    # Domains are intervals, and a mesh has two points or more: the outermost pair checks all.
    process._check_args(*((mesh[-1], mesh[0]) if part == "stable" else (mesh[0], mesh[-1])))
    vals = process._log_norms(mesh, part, i, j, factor)
    poison = ~(vals < math.inf)   # escaped, overflowed or NaN: surfaced, never dropped
    keep = ~poison & (vals > -math.inf)
    poisoned = list(zip(mesh[i[poison]].tolist(), mesh[j[poison]].tolist()))
    if not keep.all():
        i, j, vals = i[keep], j[keep], vals[keep]
    samples = np.empty((vals.size, 3))   # rows (t, s, log-norm), written in place
    np.take(mesh, i, out=samples[:, 0])
    np.take(mesh, j, out=samples[:, 1])
    samples[:, 2] = vals
    return NormGrid(samples, part=part, poisoned=poisoned)


def _chained_anchor_matrices(process: EvolutionProcess, mesh: np.ndarray, part: str):
    """The :meth:`EvolutionProcess._anchor_matrices` of ``process`` from one
    step propagator ``process._step`` per mesh interval.

    The stable part chains forward steps ``S(m_{k+1}, m_k)``, the unstable
    part backward solves ``S(m_k, m_{k+1})``; by the cocycle identity each
    ``S(t, s)`` is a running product over the intervals between s and t.
    The product is kept as ``e^L N`` with ``max|N| = 1``, renormalised
    after every step, so it neither overflows nor underflows.  The stable
    diagonal is ``(0.0, I)``.  The kernel applies P(s) to the products: a
    product started from P(s) would not bound the full propagator the
    escape guard watches.

    The per-pair solve of ``S(t, s)`` escapes when the Frobenius norm of
    ``S(tau, s)`` passes ``ESCAPE_GUARD`` at some tau in between.  Over
    one interval, ``||S(tau, s)||_F <= ||S(tau, m_k)||_F ||S(m_k, s)||_F``,
    which is at most ``e^L ||N||_F`` times the step's peak Frobenius norm;
    once that bound passes the guard (or a step escapes), the pair and
    every later pair from the same s are escaped.  Chaining can escape
    more pairs than per-pair solves, never fewer.
    """
    count = len(mesh)
    forward = part == "stable"
    steps = []
    for k in range(count - 1):
        end, start = (mesh[k + 1], mesh[k]) if forward else (mesh[k], mesh[k + 1])
        try:
            steps.append(process._step(float(end), float(start)))
        except FiniteEscapeError:
            steps.append(None)

    eye = np.eye(process.dimension)
    for a in range(count):
        prod, log_scale, guard = eye, 0.0, -math.inf
        rows, scales, prods = ([a], [0.0], [eye]) if forward else ([], [], [])
        escaped = []
        for k in (range(a, count - 1) if forward else range(a - 1, -1, -1)):
            i = k + 1 if forward else k
            if steps[k] is not None:
                step, peak = steps[k]
                guard = max(guard, log_scale + math.log(np.linalg.norm(prod)) + _log(peak))
            if steps[k] is None or guard > _LOG_GUARD:
                escaped = range(i, count) if forward else range(i + 1)
                break
            prod = step @ prod
            top = float(np.max(np.abs(prod)))
            if top == 0.0:
                break  # S(t, s) vanished, and with it every later pair
            prod = prod / top
            log_scale += math.log(top)
            rows.append(i)
            scales.append(log_scale)
            prods.append(prod)
        yield rows, scales, prods, escaped


# CONFIG LOADING =======================================================================

def _constant(params):
    rate = float(params["rate"])
    return (lambda t: rate), (lambda t: rate * t)


def _lncosh(x: float) -> float:
    """``log cosh x`` for one float, finite wherever x is: ``cosh`` itself
    overflows once |x| passes 710."""
    x = abs(x)
    return x + math.log1p(math.exp(-2.0 * x)) - math.log(2.0)


def _tanh(params):
    sigma = float(params.get("scale", 1.0))
    return (lambda t: np.tanh(t / sigma)), (lambda t: sigma * _lncosh(t / sigma))


def _sin_drift(params):
    c, d = float(params.get("c", 2.0)), float(params.get("d", 1.0))
    return (lambda t: -c - d * t * math.sin(t)), None


#: The named scalar coefficients f of process configs and ``nedlab pde``:
#: name -> params -> (f, F), where F(t) = int_0^t f in closed form, or None
#: when f is integrated by quadrature.
COEFFICIENTS = {"constant": _constant, "tanh": _tanh, "sin-drift": _sin_drift}


def named_coefficient(name, params):
    """``(f, F or None)`` of the registered coefficient ``name``; raises
    ValueError for a name :data:`COEFFICIENTS` does not hold."""
    if name not in COEFFICIENTS:
        raise ValueError("unknown coefficient %r" % (name,))
    return COEFFICIENTS[name](params)


def load_process_config(path_or_dict):
    """Build a process from a JSON config.

    The config names a backend plus backend-specific fields; closed-form
    families are resolved through the gallery registry, integrated
    coefficients through :data:`COEFFICIENTS`.  See the CLI
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

    if backend == "closed-form-exponent":
        family = cfg.get("family")
        if family is None:
            raise ValueError("closed-form configs must name a 'family'")
        process = gallery.make_entry(family, **cfg.get("params", {})).process
        if "domain" in cfg and domain != process.domain:
            raise ValueError("family %r lives on domain %r, not %r"
                             % (family, str(process.domain), str(domain)))
        return process
    if backend == "numerically-integrated":
        coefficient, antiderivative = named_coefficient(cfg.get("coefficient"),
                                                        cfg.get("params", {}))
        return ScalarCoefficientProcess(coefficient, domain=domain,
                                        antiderivative=antiderivative)
    raise ValueError("unknown backend %r" % (backend,))
