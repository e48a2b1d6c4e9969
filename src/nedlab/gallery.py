"""Closed-form example processes with documented dichotomy claims.

Each fixture packages a scalar evolution process together with the
ground-truth claims about which nonuniform exponential dichotomy bounds
it admits (and which it provably does not).  The entries serve as known
answers for the certificate fitter, the rejection machinery, and the
conversion/duality theorems.

Claims are stated with anchored bounds

    kind I :  ||S(t,s) P^s(s)|| <= M e^{delta |s|} e^{-alpha (t-s)},  t >= s,
    kind II:  ||S(t,s) P^s(s)|| <= M e^{delta |t|} e^{-alpha (t-s)},  t >= s,

with unstable analogues for t < s.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .dichotomy import DichotomyCertificate, ExponentPair, _least_ln_m
from .process import (
    FULL_LINE,
    HALF_LINE_MINUS,
    HALF_LINE_PLUS,
    GridSpec,
    ScalarCoefficientProcess,
    TimeDomain,
    _lncosh,
    sample_norm_grid,
)

__all__ = [
    "DichotomyClaim",
    "GalleryEntry",
    "make_barreira",
    "make_sign_switch",
    "make_smooth_limits",
    "make_factorial_steps",
    "make_piecewise_barreira",
    "make_entry",
    "entry_names",
    "CANONICAL_STEP",
    "CANONICAL_HORIZON",
]

#: Canonical verification grid: step 0.25 out to horizon 40 (per side).
CANONICAL_STEP = 0.25
CANONICAL_HORIZON = 40.0


@dataclasses.dataclass(frozen=True)
class DichotomyClaim:
    """A single documented claim: the process does (or does not) admit a
    dichotomy of the stated kind on the stated domain."""

    certificate: DichotomyCertificate
    holds: bool
    note: str = ""

    def to_dict(self) -> dict:
        d = self.certificate.to_dict()
        d["holds"] = self.holds
        if self.note:
            d["note"] = self.note
        return d


@dataclasses.dataclass
class GalleryEntry:
    name: str
    process: object
    claims: list
    notes: str = ""

    def claims_json(self) -> list:
        return [c.to_dict() for c in self.claims]


def _canonical_logmax(process, domain: TimeDomain, *bounds) -> list:
    """Minimal feasible ln M for the stable bound of each ``(alpha, delta,
    kind)`` of ``bounds`` on the canonical grid (clamped at 0 so M >= 1);
    inf when a canonical pair escapes.  The grid is sampled once for all
    of them."""
    lo = 0.0 if domain.kind == "plus" else -CANONICAL_HORIZON
    hi = 0.0 if domain.kind == "minus" else CANONICAL_HORIZON
    grid = sample_norm_grid(process, None, GridSpec(lo, hi, CANONICAL_STEP))
    if grid.poisoned:
        return [math.inf] * len(bounds)
    return [max(0.0, _least_ln_m(grid, kind, alpha, delta)) for alpha, delta, kind in bounds]


# FIXTURES =============================================================================

def make_barreira(a: float, b: float) -> GalleryEntry:
    """Scalar equation x' = (-b - a t sin t) x.

    The coefficient oscillates with linearly growing amplitude, which
    makes the decay rate nonuniform: the process contracts like
    e^{-(b+a)(t-s)} up to an anchor factor e^{2a|t|}.
    """
    if not (a > 0 and b > 0):
        raise ValueError("make_barreira requires a, b > 0")
    # int_0^t -k r sin r dr = k (t cos t - sin t)
    process = ScalarCoefficientProcess(
        lambda t: -b - a * t * math.sin(t), domain=FULL_LINE,
        antiderivative=lambda t: -b * t + a * (t * math.cos(t) - math.sin(t)))
    m = math.exp(2.0 * a)
    claims = [
        DichotomyClaim(_cert("II", HALF_LINE_PLUS, m, b + a, 2 * a), True,
                       note="contraction e^{-(b+a)(t-s)} with anchor e^{2a t}"),
        DichotomyClaim(_cert("I", HALF_LINE_MINUS, m, b + a, 2 * a), True,
                       note="mirror bound on the negative half-line"),
    ]
    if b > a:
        for kind, dom in (("I", HALF_LINE_PLUS), ("II", HALF_LINE_MINUS),
                          ("I", FULL_LINE), ("II", FULL_LINE)):
            claims.append(DichotomyClaim(_cert(kind, dom, m, b - a, 2 * a), True,
                                         note="weaker exponent b-a absorbs the anchor swap"))
    return GalleryEntry("barreira", process, claims,
                        notes="a=%g b=%g" % (a, b))


def make_sign_switch() -> GalleryEntry:
    """Process generated by the sign coefficient f0(t) = sign(t), i.e.
    S0(t, s) = e^{|t| - |s|}.

    Admits a kind-II dichotomy on the whole line for *both* trivial
    projection families (zero and identity), and no kind-I dichotomy at
    all: the anchor must sit at the endpoint where the norm is largest.
    """
    process = ScalarCoefficientProcess(lambda t: math.copysign(1.0, t) if t else 0.0,
                                       domain=FULL_LINE, antiderivative=abs)
    stable = ExponentPair(1.0, 2.0)
    claims = [
        DichotomyClaim(DichotomyCertificate("II", FULL_LINE, 1.0, stable,
                                            projection="zero"), True,
                       note="|t|-|s| <= -(t-s)+2|t| for t >= s"),
        DichotomyClaim(DichotomyCertificate("II", FULL_LINE, 1.0, stable,
                                            unstable=ExponentPair(1.0, 2.0),
                                            projection="identity"), True,
                       note="|t|-|s| <= (t-s)+2|t| for t <= s"),
        DichotomyClaim(DichotomyCertificate("I", FULL_LINE, 1.0, stable,
                                            projection="zero"), False,
                       note="for s <= 0 <= t the norm e^{s+t} defeats any |s| anchor"),
    ]
    return GalleryEntry("sign-switch", process, claims)


def make_smooth_limits(transition_scale: float, eps: float = 0.1) -> GalleryEntry:
    """Smooth coefficient f(t) = tanh(t / scale) with limits +-1.

    A smooth realization of the sign coefficient: same dichotomy
    pattern as the sign-switch process up to an exponent loss
    eps and a multiplicative constant M_eps that absorbs the transition
    region.  ln M_eps is the maximum of int_s^t |f - f0| - eps (t - s)
    over the canonical grid's pairs t >= s, clipped at 0.
    """
    if not (transition_scale > 0):
        raise ValueError("transition scale must be positive")
    if not (0 < eps < 1):
        raise ValueError("eps must lie in (0, 1)")
    sigma = float(transition_scale)

    process = ScalarCoefficientProcess(
        lambda t: np.tanh(t / sigma), domain=FULL_LINE)

    # Deviation from the sign coefficient: |f - f0|(r) = 1 - |tanh(r/sigma)|,
    # an even, integrable bump around the origin.  Its odd cumulative
    # H(t) = int_0^t (1 - |tanh|) gives int_s^t |f - f0| = H(t) - H(s), the
    # log-propagator of the scalar process with that coefficient, and
    # H(t) = t - sign(t) sigma ln cosh(t / sigma).  The maximum is its
    # canonical least ln M at rate -eps with no anchor growth.
    bump = ScalarCoefficientProcess(
        lambda r: 1.0 - abs(math.tanh(r / sigma)),
        antiderivative=lambda t: t - math.copysign(sigma * _lncosh(t / sigma), t))
    (log_m_eps,) = _canonical_logmax(bump, FULL_LINE, (-eps, 0.0, "II"))
    m_eps = math.exp(log_m_eps)

    stable = ExponentPair(1.0 - eps, 2.0)
    claims = [
        DichotomyClaim(DichotomyCertificate("II", FULL_LINE, m_eps, stable,
                                            projection="zero"), True,
                       note="sign-switch bound degraded by eps=%g" % eps),
        DichotomyClaim(DichotomyCertificate("II", FULL_LINE, m_eps, stable,
                                            unstable=ExponentPair(1.0 - eps, 2.0),
                                            projection="identity"), True),
        DichotomyClaim(DichotomyCertificate("I", FULL_LINE, m_eps, stable,
                                            projection="zero"), False,
                       note="same obstruction as the sign coefficient"),
    ]
    return GalleryEntry("smooth-limits", process, claims,
                        notes="scale=%g eps=%g M_eps=%.6g" % (sigma, eps, m_eps))


def make_factorial_steps(max_n: int = 6) -> GalleryEntry:
    """Step coefficient with factorially long blocks on R+.

    g = 0 on (0,1]; on (n!, (n+1)!] the coefficient is 1 for even n and
    -n for odd n.  Growth blocks of length n * n! defeat the |s|-anchored
    kind-I bound while the |t|-anchored kind-II bound absorbs them.
    """
    if not (2 <= max_n <= 17):
        raise ValueError("max_n must lie in [2, 17] (factorials must stay "
                         "exactly representable)")
    breakpoints = [0.0, 1.0]
    values = [0.0, 0.0]  # cumulative integral of g at the breakpoints
    slopes = [0.0]       # g on each block (breakpoints[k], breakpoints[k+1]]
    for n in range(1, max_n + 1):
        lo, hi = math.factorial(n), math.factorial(n + 1)
        slope = 1.0 if n % 2 == 0 else -float(n)
        breakpoints.append(float(hi))
        values.append(values[-1] + slope * (hi - lo))
        slopes.append(slope)
    bps = np.asarray(breakpoints)
    vals = np.asarray(values)

    def coefficient(t):
        k = int(np.searchsorted(bps, t)) - 1
        return slopes[k] if 0 <= k < len(slopes) else 0.0

    process = ScalarCoefficientProcess(
        coefficient, domain=HALF_LINE_PLUS,
        antiderivative=lambda t: float(np.interp(t, bps, vals)))
    claims = [
        DichotomyClaim(_cert("II", HALF_LINE_PLUS, 1.0, 1.0, 2.0), True,
                       note="S_g(t,s) <= e^{t-s} <= e^{-(t-s)+2t}"),
        DichotomyClaim(_cert("I", HALF_LINE_PLUS, 1.0, 1.0, 2.0), False,
                       note="e^{n n! (1+alpha) - delta n!} is unbounded over even n"),
    ]
    return GalleryEntry("factorial-steps", process, claims, notes="max_n=%d" % max_n)


def make_piecewise_barreira(a: float, b: float, c: float, d: float) -> GalleryEntry:
    """Coefficient glued from two oscillating-amplitude pieces:
    f(t) = -b - a t sin t for t >= 0 and f(t) = -d - c t sin t for t < 0.

    Combining the half-line bounds of each piece gives a full-line
    kind-II pair (min{b+a, d-c}, max{2a, 2c}) and a full-line kind-I
    pair (min{b-a, d+c}, max{2a, 2c}); the recorded M is the minimal
    feasible constant on the canonical grid.
    """
    if not (a > 0 and b > a and c > 0 and d > c):
        raise ValueError("make_piecewise_barreira requires b > a > 0 and d > c > 0")

    def coefficient(t):
        k, j = (a, b) if t >= 0 else (c, d)
        return -j - k * t * math.sin(t)

    def antiderivative(t):
        # int_0^t f, evaluated piecewise: int -k r sin r dr = k (r cos r - sin r).
        k, j = (a, b) if t >= 0 else (c, d)
        return -j * t + k * (t * math.cos(t) - math.sin(t))

    process = ScalarCoefficientProcess(coefficient, domain=FULL_LINE,
                                       antiderivative=antiderivative)
    delta = max(2 * a, 2 * c)
    alpha2 = min(b + a, d - c)
    alpha1 = min(b - a, d + c)
    m2, m1 = (math.exp(v) for v in _canonical_logmax(
        process, FULL_LINE, (alpha2, delta, "II"), (alpha1, delta, "I")))
    claims = [
        DichotomyClaim(_cert("II", FULL_LINE, m2, alpha2, delta), True,
                       note="M computed on the canonical grid"),
        DichotomyClaim(_cert("I", FULL_LINE, m1, alpha1, delta), True,
                       note="M computed on the canonical grid"),
    ]
    return GalleryEntry("piecewise-barreira", process, claims,
                        notes="a=%g b=%g c=%g d=%g" % (a, b, c, d))


def _cert(kind, domain, m, alpha, delta) -> DichotomyCertificate:
    return DichotomyCertificate(kind, domain, m, ExponentPair(alpha, delta),
                                projection="zero")


# REGISTRY =============================================================================

_REGISTRY = {
    "barreira": (make_barreira, {"a": 1.0, "b": 2.0}),
    "sign-switch": (make_sign_switch, {}),
    "smooth-limits": (make_smooth_limits, {"transition_scale": 1.0}),
    "factorial-steps": (make_factorial_steps, {"max_n": 6}),
    "piecewise-barreira": (make_piecewise_barreira,
                           {"a": 1.5, "b": 3.0, "c": 0.2, "d": 0.45}),
}


def entry_names():
    return sorted(_REGISTRY)


def make_entry(name: str, **params) -> GalleryEntry:
    """Build a registered gallery entry by name, with default parameters
    filled in for any not supplied."""
    if name not in _REGISTRY:
        raise ValueError("unknown gallery entry %r (known: %s)"
                         % (name, ", ".join(entry_names())))
    fn, defaults = _REGISTRY[name]
    kwargs = dict(defaults)
    kwargs.update(params)
    return fn(**kwargs)
