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
        if self.projection not in ("zero", "identity", "explicit"):
            raise ValueError("unknown projection descriptor %r" % (self.projection,))
        if self.projection == "explicit" and self.projection_family is None:
            raise ValueError("explicit projection requires a projection family")

    @property
    def upsilon(self) -> float:
        """Anchor growth of the combined bound M(t) = M e^{upsilon |t|}."""
        if self.unstable is None:
            return self.stable.growth
        return max(self.stable.growth, self.unstable.growth)

    @property
    def omega(self) -> float:
        """Combined exponent: min of the stable and unstable rates."""
        if self.unstable is None:
            return self.stable.rate
        return min(self.stable.rate, self.unstable.rate)

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

    def to_json(self, path=None) -> str:
        text = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        if path is not None:
            _write_text(path, text + "\n")
        return text

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
    delta_max: float = 8.0
    ln_m_max: float = 8.0

    def to_csv(self, path) -> None:
        _write_text(path, "".join(
            ["alpha,delta,lnM\n"]
            + ["%.17g,%.17g,%.17g\n" % (alpha, delta, ln_m) for alpha, delta, ln_m in self.entries]))

    def best(self):
        """Feasible entry with the largest decay rate."""
        if not self.entries:
            raise DataError("frontier has no feasible entries")
        return self.entries[-1]

    def certificate(self, domain: TimeDomain, alpha: Optional[float] = None,
                    projection: str = "zero") -> DichotomyCertificate:
        if alpha is None:
            a, d, lm = self.best()
        else:
            match = [e for e in self.entries if e[0] == alpha]
            if not match:
                raise DataError("alpha=%g not among feasible entries" % alpha)
            a, d, lm = match[0]
        pair = ExponentPair(a, d)
        if self.part == "stable":
            return DichotomyCertificate(self.kind, domain, math.exp(lm), pair,
                                        projection=projection)
        return DichotomyCertificate(self.kind, domain, math.exp(lm), pair,
                                    unstable=pair, projection=projection)


def _sample_columns(grid: NormGrid):
    """The t, s and log-norm columns of a norm grid.

    Raises DataError when a sample has a non-finite t, s or log-norm: a NaN
    would drop out of every maximum and certify a bound it never met.
    """
    finite = np.isfinite(grid.samples)
    if not finite.all():
        bad = int(np.count_nonzero(~finite.all(axis=1)))
        raise DataError("%d of %d norm samples have a non-finite t, s or "
                        "log-norm" % (bad, grid.samples.shape[0]))
    return grid.samples.T


def _least_ln_m(grid: NormGrid, kind: str, rate: float, delta: float) -> float:
    """Least ``ln M`` with ``logNorm_i + rate * (t_i - s_i) <= ln M + delta *
    anchor_i`` on every sample, unclipped (-inf on an empty grid).

    Rounds as ``max_i(fl(fl(rate * dt_i) + logNorm_i) - fl(delta * anchor_i))``,
    the expression :class:`_AnchorEnvelope` reduces, so the value equals
    ``max(envelope.heights(rate) - delta * envelope.anchors)`` bit for bit.
    """
    tv, sv, logn = _sample_columns(grid)
    anchors = np.abs(tv) if kind == "II" else np.abs(sv)
    y = rate * (tv - sv)
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
        tv, sv, logn = _sample_columns(grid)
        anchors = np.abs(tv) if kind == "II" else np.abs(sv)
        order = np.argsort(anchors, kind="stable")
        anchors = anchors[order]
        self._starts = np.flatnonzero(np.r_[True, anchors[1:] != anchors[:-1]])
        #: distinct anchors, ascending
        self.anchors = anchors[self._starts]
        self._logn = logn[order]
        self._dts = (tv - sv)[order]

    def heights(self, rate: float) -> np.ndarray:
        """Highest ``logNorm + rate * (t - s)`` at each of `anchors`."""
        y = rate * self._dts
        y += self._logn
        return np.maximum.reduceat(y, self._starts)


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
    table of the highest shifted log-norm per anchor, in O(pairs + alphas
    x anchors) time and memory.  Both maxima, the least delta
    ``max_a (h_a - ln_m_max) / a`` over positive anchors and the least
    ln M ``max_a (h_a - delta * a)``, run over every distinct anchor: the
    upper hull of the points (a, h_a) attains them in exact arithmetic,
    but a point on a hull edge can round one ulp above it, and the full
    maximum keeps that larger, safe value.
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
    if grid.samples.shape[0] == 0:
        if grid.poisoned:
            raise DataError("all samples poisoned; nothing to fit")
        raise ValueError("empty norm grid")
    envelope = _AnchorEnvelope(grid, kind)
    anchors = envelope.anchors
    sign = -1.0 if part == "stable" else 1.0
    # heights[i, k] = max logn - sign * alpha_i * dts at anchor k must lie
    # below the line ln M + delta * anchors[k].
    heights = np.array([envelope.heights(-sign * alpha) for alpha in alphas])
    heights = heights.reshape(alphas.size, anchors.size)
    # ln M >= the height at a sampled zero anchor, whatever delta is.
    floor = heights[:, 0] if anchors[0] == 0.0 else np.full(alphas.size, -np.inf)
    pos = anchors > 0.0
    delta_min = np.max((heights[:, pos] - ln_m_max) / anchors[pos], axis=1,
                       initial=-np.inf)
    delta_min = np.where(delta_min > 0.0, delta_min, 0.0)
    ln_m = np.max(heights - delta_min[:, None] * anchors, axis=1)
    ln_m = np.where(ln_m > 0.0, ln_m, 0.0)
    infeasible = (floor > ln_m_max) | (delta_min > delta_max)
    ok = ~infeasible
    entries = list(zip(alphas[ok].tolist(), delta_min[ok].tolist(), ln_m[ok].tolist()))
    return ParetoFrontier(kind, part, entries, alphas[infeasible].tolist(),
                          delta_max=delta_max, ln_m_max=ln_m_max)


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
    across the stable part (t >= s) and, when the certificate carries
    one, the unstable part (t < s), each read as the least ln M of the
    part's samples minus the certificate's.  A nonpositive value means
    the certificate holds on the grid; poisoned samples count as +inf.
    """
    grid = _clip_grid(grid, cert.domain)
    ln_m = math.log(cert.m)
    family = cert.projection_family
    if family is None and cert.projection == "zero":
        family = ProjectionFamily.zero(process.dimension)
    elif family is None:
        family = ProjectionFamily.identity(process.dimension)
    worst = -math.inf

    def part_violation(part, pair):
        sampled = sample_norm_grid(process, family, grid, part=part)
        if sampled.poisoned:
            return math.inf
        rate = pair.rate if part == "stable" else -pair.rate
        return _least_ln_m(sampled, cert.kind, rate, pair.growth) - ln_m

    if cert.projection != "identity":
        worst = max(worst, part_violation("stable", cert.stable))
    if cert.unstable is not None and cert.projection != "zero":
        if not process.invertible:
            raise InapplicableError(
                "unstable part requires an invertible process")
        worst = max(worst, part_violation("unstable", cert.unstable))
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
    the same grid.
    """
    if not cert.domain.is_half_line:
        raise InapplicableError("conversion is defined on half-lines only")
    on_plus = cert.domain.kind == "plus"
    to_ii = cert.kind == "I"
    # Stable: +delta going I->II on R+ (and II->I on R-), -delta otherwise;
    # unstable shifts by nu in the opposite direction.
    stable_shift = cert.stable.growth if (to_ii == on_plus) else -cert.stable.growth
    new_stable = _shift_pair(cert.stable, stable_shift)
    new_unstable = None
    if cert.unstable is not None:
        unstable_shift = (-cert.unstable.growth if (to_ii == on_plus)
                          else cert.unstable.growth)
        new_unstable = _shift_pair(cert.unstable, unstable_shift)
    return dataclasses.replace(cert, kind=("II" if to_ii else "I"),
                               stable=new_stable, unstable=new_unstable)


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
    adjoint of the primal unstable one)."""
    if cert.unstable is not None:
        new_stable, new_unstable = cert.unstable, cert.stable
    else:
        # Only one part present; it becomes the dual's other part and the
        # dual's own (trivial) part inherits the same numbers.
        new_stable = new_unstable = cert.stable
    new_proj = _PROJ_DUAL[cert.projection]
    if new_proj == "zero":
        new_unstable = None
    family = cert.projection_family
    if family is not None:
        base = family
        family = ProjectionFamily(lambda t: base.stable(t).T, base.dimension,
                                  descriptor="explicit")
    return dataclasses.replace(cert, kind=("II" if cert.kind == "I" else "I"),
                               stable=new_stable, unstable=new_unstable,
                               projection=new_proj, projection_family=family)


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

    def rejected(self, factor: float = math.e) -> bool:
        """True when every projection choice is defeated: each minimal-M
        sequence grows by at least `factor` between consecutive windows.

        Never true when a window lost pairs to poisoning: a dropped
        constraint lowers that window's minimal ln M, which can inflate
        a growth factor."""
        if any(any(counts) for counts in self.poisoned.values()):
            return False
        return all(all(g >= factor for g in self.growth_factors(kind))
                   for kind in self.min_ln_m)


def nedi_rejection_evidence(process: EvolutionProcess, windows,
                            projection_kinds=("zero", "identity"),
                            box=((0.05, 8.0), (0.0, 8.0)),
                            resolution: float = 0.05,
                            step: float = 0.25,
                            extra_points=()) -> RejectionEvidence:
    """Minimal kind-I constants over nested windows.

    windows: list of (lo, hi) intervals, strictly nested ascending.
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
        extras = tuple(p for p in extra_points if lo <= p <= hi)
        spec = GridSpec(lo, hi, step, extra_points=extras)
        for kind in projection_kinds:
            part = "stable" if kind == "zero" else "unstable"
            sampled = sample_norm_grid(process, None, spec, part=part)
            if sampled.samples.shape[0] == 0:
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
    extracts the feasible entry with the largest decay rate."""
    domain = domain or process.domain
    sampled = sample_norm_grid(process, projection, grid, part=part)
    frontier = fit_bounds(sampled, kind, part, list(alpha_grid),
                          delta_max=delta_max, ln_m_max=ln_m_max)
    cert = None
    if frontier.entries:
        descriptor = projection.descriptor if projection is not None else "zero"
        if descriptor == "explicit":
            descriptor = "zero"  # certificate records constants only
        cert = frontier.certificate(domain, projection=descriptor)
    return frontier, cert
