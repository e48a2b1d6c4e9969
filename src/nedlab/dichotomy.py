"""Certificates for nonuniform exponential dichotomies of both kinds.

A certificate records constants (M, alpha, delta) [stable part] and
optionally (beta, nu) [unstable part] for one of the two anchored bound
shapes:

    kind I :  ||S(t,s) P^s(s)|| <= M e^{delta |s|} e^{-alpha (t-s)},  t >= s,
    kind II:  ||S(t,s) P^s(s)|| <= M e^{delta |t|} e^{-alpha (t-s)},  t >= s,

with the unstable analogues ``M e^{nu |anchor|} e^{+beta (t-s)}`` for
t < s.  The module fits such constants from norm grids (exact linear
minimax), checks them on grids, converts between the two kinds on
half-lines, produces quantitative evidence that no kind-I bound exists,
and maps certificates through duality.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Optional, Sequence

import numpy as np

from .process import (
    EvolutionProcess,
    GridSpec,
    NormGrid,
    ProjectionFamily,
    TimeDomain,
    _PARTS,
    _ZERO_FACTOR,
    _projection_factor,
    _write_text,
    sample_norm_grid,
)

__all__ = [
    "InapplicableError",
    "DataError",
    "ExponentPair",
    "DichotomyCertificate",
    "ParetoFrontier",
    "RejectionEvidence",
    "fit_bounds",
    "check_certificate",
    "convert_halfline",
    "unify_exponents",
    "nedi_rejection_evidence",
    "dual_certificate",
    "classify",
]


class InapplicableError(ValueError):
    """A theorem hypothesis fails for the given certificate."""


class DataError(ValueError):
    """The sample data cannot support the requested computation."""


@dataclasses.dataclass(frozen=True)
class ExponentPair:
    """(rate, growth): decay/growth rate in (t-s) and anchor growth rate."""

    rate: float
    growth: float

    def __post_init__(self):
        if not (self.rate > 0):
            raise ValueError("exponent rate must be positive")
        if not (self.growth >= 0):
            raise ValueError("anchor growth must be nonnegative")


@dataclasses.dataclass(frozen=True)
class DichotomyCertificate:
    kind: str  # "I" | "II"
    domain: TimeDomain
    m: float
    stable: ExponentPair
    unstable: Optional[ExponentPair] = None
    projection: str = "zero"  # "zero" | "identity" | "explicit"
    projection_family: Optional[ProjectionFamily] = None

    def __post_init__(self):
        if self.kind not in ("I", "II"):
            raise ValueError("certificate kind must be 'I' or 'II'")
        if not (self.m >= 1.0):
            raise ValueError("certificate bound M must be >= 1")
        if self.projection not in _PARTS:
            raise ValueError("unknown projection descriptor %r" % (self.projection,))
        if self.projection == "explicit" and self.projection_family is None:
            raise ValueError("explicit projection requires a projection family")
        if not self._bounds():
            raise ValueError("an %r certificate needs an unstable pair, the only "
                             "part it bounds" % (self.projection,))

    def _bounds(self) -> list:
        """``(part, pair)`` of each part the certificate bounds, stable first:
        the parts ``_PARTS`` gives its descriptor that carry a pair.  The
        stable pair of an "identity" certificate is a placeholder."""
        pairs = {"stable": self.stable, "unstable": self.unstable}
        return [(p, pairs[p]) for p in _PARTS[self.projection] if pairs[p] is not None]

    @property
    def upsilon(self) -> float:
        """Anchor growth of the combined bound M(t) = M e^{upsilon |t|}: the
        max growth of the pairs in :meth:`_bounds`."""
        return max(pair.growth for _, pair in self._bounds())

    @property
    def omega(self) -> float:
        """Combined exponent: the min rate of the pairs in :meth:`_bounds`."""
        return min(pair.rate for _, pair in self._bounds())

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "domain": str(self.domain),
            "M": self.m,
            "stable": {"alpha": self.stable.rate, "delta": self.stable.growth},
            "unstable": (None if self.unstable is None else
                         {"beta": self.unstable.rate, "nu": self.unstable.growth}),
            "projection": self.projection,
        }

    @staticmethod
    def from_dict(d: dict) -> "DichotomyCertificate":
        unstable = d.get("unstable")
        return DichotomyCertificate(
            d["kind"], TimeDomain(d["domain"]), float(d["M"]),
            ExponentPair(float(d["stable"]["alpha"]), float(d["stable"]["delta"])),
            unstable=(None if unstable is None else
                      ExponentPair(float(unstable["beta"]), float(unstable["nu"]))),
            projection=d.get("projection", "zero"),
        )

    @staticmethod
    def from_json(path) -> "DichotomyCertificate":
        with open(path) as fh:
            return DichotomyCertificate.from_dict(json.load(fh))


# FITTING ==============================================================================

@dataclasses.dataclass
class ParetoFrontier:
    """Per-alpha minimal (delta, ln M) trade-off fitted from one grid.

    entries: list of (alpha, minimal delta, minimal ln M at that delta);
    infeasible: alphas with no admissible (delta, ln M) within the caps.
    """

    kind: str
    part: str
    entries: list
    infeasible: list = dataclasses.field(default_factory=list)

    def to_csv(self, path) -> None:
        _write_text(path, "".join(
            ["alpha,delta,lnM\n"]
            + ["%.17g,%.17g,%.17g\n" % (alpha, delta, ln_m) for alpha, delta, ln_m in self.entries]))

    def best(self):
        """Feasible entry with the largest decay rate."""
        if not self.entries:
            raise DataError("frontier has no feasible entries")
        return self.entries[-1]

    def certificate(self, domain: TimeDomain,
                    projection: Optional[ProjectionFamily]) -> Optional[DichotomyCertificate]:
        """Certificate of the :meth:`best` entry under the family the grid
        was sampled with (``None``, which projects nothing, as the descriptor
        of the fitted part alone), or None when the family also claims an
        unfitted part.  An explicit family travels with the certificate."""
        a, d, lm = self.best()
        pair = ExponentPair(a, d)
        descriptor = (projection.descriptor if projection is not None else
                      next(d for d, parts in _PARTS.items() if parts == (self.part,)))
        family = projection if descriptor == "explicit" else None
        cert = DichotomyCertificate(self.kind, domain, math.exp(lm), pair,
                                    unstable=None if self.part == "stable" else pair,
                                    projection=descriptor, projection_family=family)
        return cert if [part for part, _ in cert._bounds()] == [self.part] else None


def _sample_columns(grid: NormGrid, kind: str):
    """``(anchors, t - s, log-norms)`` of a norm grid's samples, read from
    its columns, where the anchor is ``|t|`` for kind II and ``|s|`` for
    kind I.

    Raises DataError when a sample has a non-finite t, s or log-norm: a NaN
    would drop out of every maximum and certify a bound it never met.
    """
    tv, sv, logn = grid.t, grid.s, grid.log_norm
    finite = np.isfinite(tv)
    finite &= np.isfinite(sv)
    finite &= np.isfinite(logn)
    if not finite.all():
        raise DataError("%d of %d norm samples have a non-finite t, s or log-norm"
                        % (finite.size - np.count_nonzero(finite), finite.size))
    return np.abs(tv if kind == "II" else sv), tv - sv, logn


def _least_ln_m(grid: NormGrid, kind: str, rate: float, delta: float) -> float:
    """Least ``ln M`` with ``logNorm_i + rate * (t_i - s_i) <= ln M + delta *
    anchor_i`` on every sample, unclipped (-inf on an empty grid).

    Rounds as ``max_i(fl(fl(rate * dt_i) + logNorm_i) - fl(delta * anchor_i))``,
    the expression :class:`_AnchorEnvelope` reduces, so the value equals
    ``max(envelope.heights(rate) - delta * envelope.anchors)`` bit for bit.
    """
    anchors, dts, logn = _sample_columns(grid, kind)
    y = rate * dts
    y += logn
    y -= delta * anchors
    return float(np.max(y, initial=-np.inf))


class _AnchorEnvelope:
    """A norm grid sorted once by anchor and reduced to the highest point
    at each distinct anchor.

    Fitting bounds heights ``logNorm_i + rate * (t_i - s_i)`` by lines
    ``ln M + delta * anchor_i``, and only the highest point at each anchor
    can bind in ``max_i (y_i - delta * anchor_i)``.  The reduction is
    exact in floating point: for a fixed anchor ``a``, ``fl(y - fl(delta * a))``
    is monotone in ``y``, so the maximum per anchor gives the bits of the
    maximum over all samples.  An n-point mesh has at most n anchors against
    n (n + 1) / 2 stable pairs.  Non-finite samples raise DataError.
    """

    def __init__(self, grid: NormGrid, kind: str):
        anchors, dts, logn = _sample_columns(grid, kind)
        order = np.argsort(anchors, kind="stable")
        anchors = anchors[order]
        self._starts = np.flatnonzero(np.r_[True, anchors[1:] != anchors[:-1]])
        #: distinct anchors, ascending
        self.anchors = anchors[self._starts]
        self._logn = logn[order]
        self._dts = dts[order]

    def heights(self, rates) -> np.ndarray:
        """Highest ``logNorm + rate * (t - s)`` at each of `anchors`: a
        vector for one rate, a (rate x anchor) table for a 1-d array of
        rates, reduced by one ``reduceat`` over the last axis."""
        y = np.multiply.outer(rates, self._dts)
        y += self._logn
        return np.maximum.reduceat(y, self._starts, axis=-1)


def fit_bounds(grid: NormGrid, kind: str, part: str,
               alpha_grid: Sequence[float], delta_max: float = 8.0,
               ln_m_max: float = 8.0) -> ParetoFrontier:
    """Fit minimal certificate constants for each candidate rate.

    For each alpha, solves exactly (up to fp rounding) the linear
    minimax: minimize delta, then ln M, subject to

        logNorm_i <= ln M + delta * anchor_i -/+ alpha (t_i - s_i)

    (minus for the stable part, plus for the unstable part), with
    anchor_i = |t_i| for kind II and |s_i| for kind I, M >= 1,
    0 <= delta <= delta_max and 0 <= ln M <= ln_m_max.  Alphas for which
    no admissible pair exists within the caps are reported infeasible.

    Every alpha is solved at once from one (alpha x distinct anchor)
    table of the highest shifted log-norm per anchor, which one
    ``reduceat`` takes from the (alpha x sample) array of shifted
    log-norms, in O(alphas x pairs) time and memory.  Both maxima, the
    least delta ``max_a (h_a - ln_m_max) / a`` over positive anchors and
    the least ln M ``max_a (h_a - delta * a)``, run over every distinct
    anchor: the upper hull of the points (a, h_a) attains them in exact arithmetic,
    but a point on a hull edge can round one ulp above it, and the full
    maximum keeps that larger, safe value.  Where that value lands over
    ``ln_m_max``, delta rises by ulps until ln M fits under the cap, so an
    emitted ln M never exceeds it.
    """
    if kind not in ("I", "II"):
        raise ValueError("kind must be 'I' or 'II', got %r" % (kind,))
    if part not in ("stable", "unstable"):
        raise ValueError("part must be 'stable' or 'unstable', got %r" % (part,))
    alphas = np.asarray(alpha_grid, dtype=float)
    if not np.all(np.isfinite(alphas)):
        raise ValueError("alpha grid must be finite, got %r" % (list(alpha_grid),))
    if np.any(np.diff(alphas) < 0):
        raise ValueError("alpha grid must be sorted ascending")
    if grid.log_norm.size == 0:
        if grid.poisoned:
            raise DataError("all samples poisoned; nothing to fit")
        raise ValueError("empty norm grid")
    envelope = _AnchorEnvelope(grid, kind)
    anchors = envelope.anchors
    sign = -1.0 if part == "stable" else 1.0
    # heights[i, k] = max logn - sign * alpha_i * dts at anchor k must lie
    # below the line ln M + delta * anchors[k].
    heights = envelope.heights(-sign * alphas)
    # ln M >= the height at a sampled zero anchor, whatever delta is.
    floor = heights[:, 0] if anchors[0] == 0.0 else np.full(alphas.size, -np.inf)
    pos = anchors > 0.0
    delta_min = np.max((heights[:, pos] - ln_m_max) / anchors[pos], axis=1,
                       initial=-np.inf)
    delta_min = np.where(delta_min > 0.0, delta_min, 0.0)
    ln_m = np.max(heights - delta_min[:, None] * anchors, axis=1)
    # Rounding can leave ln M an ulp or so over the cap at that delta: raise
    # delta by one ulp, then two, four, ... until ln M fits or delta passes
    # delta_max.  ln M only falls as delta rises, and delta_min > 0 here.
    bump = np.spacing(delta_min)
    while True:
        over = (ln_m > ln_m_max) & (floor <= ln_m_max) & (delta_min <= delta_max)
        if not over.any():
            break
        delta_min = np.where(over, delta_min + bump, delta_min)
        bump *= 2.0
        ln_m = np.max(heights - delta_min[:, None] * anchors, axis=1)
    ln_m = np.where(ln_m > 0.0, ln_m, 0.0)
    infeasible = (floor > ln_m_max) | (delta_min > delta_max) | (ln_m > ln_m_max)
    ok = ~infeasible
    entries = list(zip(alphas[ok].tolist(), delta_min[ok].tolist(), ln_m[ok].tolist()))
    return ParetoFrontier(kind, part, entries, alphas[infeasible].tolist())


# CHECKING =============================================================================

def _clip_grid(grid: GridSpec, domain: TimeDomain) -> GridSpec:
    lo, hi = grid.start, grid.stop
    if domain.kind == "plus":
        lo = max(lo, 0.0)
    elif domain.kind == "minus":
        hi = min(hi, 0.0)
    if not (hi > lo):
        raise ValueError("grid does not intersect certificate domain")
    return GridSpec(lo, hi, grid.step, extra_points=grid.extra_points)


def check_certificate(process: EvolutionProcess, cert: DichotomyCertificate,
                      grid: GridSpec) -> float:
    """Max violation of the certificate bounds over the grid.

    Returns max over sampled pairs of
    ``log||S(t,s) P|| - (ln M + growth * anchor -/+ rate * (t-s))``
    across the parts the certificate bounds: the stable part over t >= s,
    the unstable part over t < s, each read as the least ln M of the
    part's samples minus the certificate's.  A nonpositive value means the
    certificate holds on the grid; poisoned samples count as +inf.  An
    unstable part on a non-invertible process raises InapplicableError.
    """
    grid = _clip_grid(grid, cert.domain)
    bounds = cert._bounds()
    if not process.invertible and any(part == "unstable" for part, _ in bounds):
        raise InapplicableError("unstable part requires an invertible process")
    ln_m = math.log(cert.m)
    worst = -math.inf
    for part, pair in bounds:
        # Without a family, a part the descriptor leaves whole reads the full
        # norm, which is what None samples.
        sampled = sample_norm_grid(process, cert.projection_family, grid, part=part)
        rate = pair.rate if part == "stable" else -pair.rate
        worst = max(worst, math.inf if sampled.poisoned else
                    _least_ln_m(sampled, cert.kind, rate, pair.growth) - ln_m)
    return worst


# CONVERSION ===========================================================================

def _shift_pair(pair: ExponentPair, amount: float) -> ExponentPair:
    if pair.rate + amount <= 0:
        raise InapplicableError(
            "conversion would produce a nonpositive rate (%g %+g)"
            % (pair.rate, amount))
    return ExponentPair(pair.rate + amount, pair.growth)


def convert_halfline(cert: DichotomyCertificate) -> DichotomyCertificate:
    """Convert a half-line certificate to the other kind.

    On R+ the stable pairs correspond via I(alpha, delta) <->
    II(alpha + delta, delta) and the unstable pairs via
    I(beta + nu, nu) <-> II(beta, nu); on R- the roles are mirrored.
    M is unchanged and the correspondence is exact pointwise algebra,
    so a certificate that holds on a grid converts to one that holds on
    the same grid.  Only the pairs in :meth:`DichotomyCertificate._bounds`
    convert; a pair the certificate does not bound is carried unchanged.
    """
    if not cert.domain.is_half_line:
        raise InapplicableError("conversion is defined on half-lines only")
    on_plus = cert.domain.kind == "plus"
    to_ii = cert.kind == "I"
    # Stable: +delta going I->II on R+ (and II->I on R-), -delta otherwise;
    # unstable shifts by nu in the opposite direction.
    sign = 1.0 if to_ii == on_plus else -1.0
    signs = {"stable": sign, "unstable": -sign}
    shifted = {part: _shift_pair(pair, signs[part] * pair.growth)
               for part, pair in cert._bounds()}
    return dataclasses.replace(cert, kind=("II" if to_ii else "I"),
                               stable=shifted.get("stable", cert.stable),
                               unstable=shifted.get("unstable", cert.unstable))


def unify_exponents(cert: DichotomyCertificate) -> DichotomyCertificate:
    """Trade the anchor growth for exponent on a half-line.

    A half-line certificate with combined bound M e^{upsilon |t|} and
    combined exponent omega > upsilon yields a certificate of the other
    kind with the same M, single exponent omega - upsilon, and anchor
    growth upsilon on both parts.
    """
    if not cert.domain.is_half_line:
        raise InapplicableError("exponent unification is half-line only")
    omega, upsilon = cert.omega, cert.upsilon
    if not (omega > upsilon):
        raise InapplicableError(
            "hypothesis omega > upsilon fails (omega=%g, upsilon=%g)"
            % (omega, upsilon))
    pair = ExponentPair(omega - upsilon, upsilon)
    return dataclasses.replace(
        cert, kind=("II" if cert.kind == "I" else "I"), stable=pair,
        unstable=(None if cert.unstable is None else pair))


# DUALITY ==============================================================================

_PROJ_DUAL = {"zero": "identity", "identity": "zero", "explicit": "explicit"}


def dual_certificate(cert: DichotomyCertificate) -> DichotomyCertificate:
    """Certificate satisfied by the dual process T(t,s) = S(s,t)^*.

    Kind swaps, M and exponents carry over, and the roles of the parts
    swap along with the projections (dual stable projection is the
    adjoint of the primal unstable one).  Raises InapplicableError when
    the dual would claim a part that the primal never bounded: the dual
    of an explicit certificate with one part."""
    bounds = dict(cert._bounds())
    new_proj = _PROJ_DUAL[cert.projection]
    pairs = {"stable": bounds.get("unstable"), "unstable": bounds.get("stable")}
    if any(pairs[part] is None for part in _PARTS[new_proj]):
        raise InapplicableError("the dual of a one-part explicit certificate would "
                                "claim a part that the certificate does not bound")
    family = cert.projection_family
    if family is not None:
        base = family
        family = ProjectionFamily(lambda t: base.stable(t).T, base.dimension,
                                  descriptor="explicit")
    # The stable pair of an identity dual is a placeholder.
    return dataclasses.replace(cert, kind=("II" if cert.kind == "I" else "I"),
                               stable=pairs["stable"] or cert.unstable or cert.stable,
                               unstable=pairs["unstable"], projection=new_proj,
                               projection_family=family)


# REJECTION EVIDENCE ===================================================================

@dataclasses.dataclass
class RejectionEvidence:
    """Per-window minimal feasible ln M for kind-I bounds.

    For each nested window and each trivial projection family, the
    minimum over an (alpha, delta) box of the smallest ln M making the
    kind-I inequalities hold on the window grid; the box corner
    (alpha_lo, delta_hi) attains it.  A sequence that grows without bound
    as the windows widen certifies that no kind-I dichotomy exists
    (every fixed M is eventually defeated).

    resolution: recorded as passed; it has no effect on the minima.
    poisoned: per projection kind, the number of escaped pairs dropped
    from each window's grid."""

    windows: list
    box: tuple
    resolution: float
    min_ln_m: dict
    poisoned: dict = dataclasses.field(default_factory=dict)

    def growth_factors(self, projection_kind: str):
        vals = self.min_ln_m[projection_kind]
        return [math.exp(b - a) for a, b in zip(vals, vals[1:])]

    def rejected(self) -> bool:
        """True when every projection choice is defeated: each minimal-M
        sequence grows by at least a factor e between consecutive windows.

        Never true without a projection kind or two windows, nor when a
        window lost pairs to poisoning: a dropped constraint lowers that
        window's minimal ln M, which can inflate a growth factor."""
        if any(any(counts) for counts in self.poisoned.values()):
            return False
        factors = [self.growth_factors(kind) for kind in self.min_ln_m]
        return bool(factors) and all(bool(fs) and min(fs) >= math.e for fs in factors)


def nedi_rejection_evidence(process: EvolutionProcess, windows,
                            projection_kinds=("zero", "identity"),
                            box=((0.05, 8.0), (0.0, 8.0)),
                            resolution: float = 0.05,
                            step: float = 0.25) -> RejectionEvidence:
    """Minimal kind-I constants over nested windows.

    windows: list of (lo, hi) intervals, strictly nested ascending.
    projection_kinds: one or more of the trivial families "zero" (the
    stable part) and "identity" (the unstable part).
    box: ((alpha_lo, alpha_hi), (delta_lo, delta_hi)) search box.  For
    each window and projection kind the result is the smallest
    ``ln M = max_i(y_i - delta * |s_i|)`` over the box, clipped at 0,
    where ``y_i`` is the sampled log-norm shifted by ``+/- alpha (t_i - s_i)``.

    The minimum is one evaluation at the corner (alpha_lo, delta_hi), and
    it is exact in floating point: anchors are nonnegative, so every
    ``fl(y_i - fl(delta * |s_i|))`` is non-increasing in delta, and
    ``+/- (t_i - s_i) >= 0`` on a sampled part (t >= s on the stable part,
    t < s on the unstable one), so every ``y_i`` is non-decreasing in
    alpha.  resolution must be positive but has no effect: no grid is
    scanned.  Escaped pairs are dropped and counted in ``poisoned``; a
    window with no pair left raises DataError.
    """
    if process.dimension != 1:
        raise InapplicableError("rejection evidence is defined for scalar processes")
    if not projection_kinds or any(len(_PARTS.get(k, ())) != 1 for k in projection_kinds):
        raise ValueError("projection kinds must be one or more of 'zero' and "
                         "'identity', got %r" % (projection_kinds,))
    for (a_lo, a_hi), (b_lo, b_hi) in zip(windows, windows[1:]):
        if not (b_lo <= a_lo and a_hi <= b_hi and (b_hi - b_lo) > (a_hi - a_lo)):
            raise ValueError("windows must be strictly nested ascending")
    if not (resolution > 0):
        raise ValueError("resolution must be positive, got %r" % (resolution,))
    (alpha_lo, alpha_hi), (delta_lo, delta_hi) = box
    if not (alpha_lo <= alpha_hi and delta_lo <= delta_hi):
        raise ValueError("box ranges must have lo <= hi, got %r" % (box,))
    minima = {kind: [] for kind in projection_kinds}
    poisoned = {kind: [] for kind in projection_kinds}
    for lo, hi in windows:
        spec = GridSpec(lo, hi, step)
        for kind in projection_kinds:
            (part,) = _PARTS[kind]
            sampled = sample_norm_grid(process, None, spec, part=part)
            if sampled.log_norm.size == 0:
                raise DataError("every %s pair of window [%g, %g] is poisoned"
                                % (part, lo, hi))
            rate = alpha_lo if part == "stable" else -alpha_lo
            minima[kind].append(max(0.0, _least_ln_m(sampled, "I", rate, delta_hi)))
            poisoned[kind].append(len(sampled.poisoned))
    return RejectionEvidence(list(windows), box, resolution, minima, poisoned)


# CLASSIFICATION =======================================================================

def classify(process: EvolutionProcess, projection, kind: str,
             grid: GridSpec, alpha_grid, part: str = "stable",
             domain: Optional[TimeDomain] = None,
             delta_max: float = 8.0, ln_m_max: float = 8.0):
    """Fit a frontier for one part and return it with the best certificate.

    Convenience wrapper: samples the norm grid, runs fit_bounds, and
    takes the certificate of the feasible entry with the largest decay
    rate from :meth:`ParetoFrontier.certificate`, or None (the frontier
    still carries the fit).  A family that zeroes the part raises
    ValueError before anything is sampled, and DataError is raised when
    any pair escaped: a certificate fitted around it would fail
    :func:`check_certificate` on the same grid."""
    if _projection_factor(projection, part) is _ZERO_FACTOR:
        raise ValueError("the %r projection family zeroes the %s part, so there "
                         "is no %s norm to fit" % (projection.descriptor, part, part))
    domain = domain or process.domain
    sampled = sample_norm_grid(process, projection, grid, part=part)
    if sampled.poisoned:
        raise DataError("%d sampled pairs escaped, the first at (t, s) = (%g, %g); "
                        "no certificate bounds an escaped pair"
                        % ((len(sampled.poisoned),) + sampled.poisoned[0]))
    frontier = fit_bounds(sampled, kind, part, list(alpha_grid),
                          delta_max=delta_max, ln_m_max=ln_m_max)
    cert = frontier.certificate(domain, projection) if frontier.entries else None
    return frontier, cert
