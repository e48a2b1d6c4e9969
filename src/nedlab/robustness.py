"""Explicit perturbation constants for dichotomy robustness.

Given a process with a kind-I dichotomy (bound M e^{upsilon |t|},
exponent omega) and a perturbation within distance epsilon in the
weighted band sup

    sup_{0 <= t-s <= 1} e^{upsilon |s|} ||S(t,s) - T(t,s)||,

the perturbed process admits a kind-I dichotomy whose constants are
explicit elementary functions of (M, omega, upsilon, epsilon).  This
module evaluates those constants, the band sups, and the dual-route
pipeline that transports kind-II dichotomies through the duality swap
(the dual admits kind I, robustness applies there, and dualizing back
recovers kind II with the same constants).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

import numpy as np

from .dichotomy import (
    DichotomyCertificate,
    ExponentPair,
    InapplicableError,
    check_certificate,
    dual_certificate,
)
from .process import (
    EvolutionProcess,
    GridSpec,
    _PARTS,
    _exp,
    _spectral_norms,
    dual_process,
)

__all__ = [
    "RobustnessReport",
    "robustness_constants",
    "perturbation_distance",
    "growth_constant",
    "robust_nedii_pipeline",
    "PipelineResult",
]


@dataclasses.dataclass(frozen=True)
class RobustnessReport:
    """All derived constants, evaluated literally from the formulas.

    Both sign conventions of the perturbed exponent are reported:
    ``w_as_written`` = omega_tilde - omega (how the source states it,
    nonpositive for every admissible input we can evaluate) and
    ``w_sign_flipped`` = omega - omega_tilde.  ``positive_exponent``
    names whichever is positive; certificate emission uses it.
    """

    m: float
    omega: float
    upsilon: float
    eps: float
    omega_tilde: float
    beta_tilde: float
    rho: float
    m1: float
    m2: float
    m_hat: float
    w_as_written: float
    w_sign_flipped: float
    flags: dict
    l_sup: Optional[float] = None

    @property
    def admissible(self) -> bool:
        return all(self.flags.values())

    @property
    def positive_exponent(self) -> float:
        return max(self.w_as_written, self.w_sign_flipped)

    def to_dict(self) -> dict:
        d = {
            "inputs": {"M": self.m, "omega": self.omega,
                       "upsilon": self.upsilon, "eps": self.eps},
            "omega_tilde": self.omega_tilde,
            "beta_tilde": self.beta_tilde,
            "rho": self.rho,
            "M1": self.m1,
            "M2": self.m2,
            "M_hat": self.m_hat,
            "w_as_written": self.w_as_written,
            "w_sign_flipped": self.w_sign_flipped,
            "flags": dict(self.flags),
            "admissible": self.admissible,
        }
        if self.l_sup is not None:
            d["L"] = self.l_sup
        return d


def _quotient(a: float, b: float) -> float:
    """a / b under IEEE rules: a signed inf for a nonzero a over zero, NaN
    for 0 / 0, and bit for bit ``a / b`` otherwise."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.divide(a, b))


def _ieee(fn, x: float) -> float:
    """``fn(x)`` for a one-argument :mod:`math` function, bit for bit where
    it returns, and under IEEE rules where it raises: a signed inf for an
    overflow, NaN outside the domain."""
    try:
        return fn(x)
    except (OverflowError, ValueError):
        with np.errstate(all="ignore"):
            return float(getattr(np, fn.__name__)(x))


def robustness_constants(m: float, omega: float, upsilon: float,
                         eps: float) -> RobustnessReport:
    """Evaluate the perturbation constants exactly as stated.

        omega_tilde = -ln(cosh w - [cosh^2 w - 1 - 2 e sinh w]^{1/2})
        beta_tilde  = omega_tilde + ln(1 + 2 e sinh w)
        rho         = e (1 + e^{-w}) / (1 - e^{-w})
        M1          = [1 - e e^{-w} / (1 - e^{-w - omega_tilde})]^{-1}
        M2          = [1 - e e^{-beta_tilde} / (1 - e^{-w - beta_tilde})]^{-1}
        M_hat       = M (1 + e / ((1 - rho)(1 - e^{-w}))) max{M1, M2}

    Inadmissible inputs (negative radical, rho >= 1, nonpositive
    denominators, upsilon >= omega) are not errors: the literal values
    are reported with the corresponding flag cleared.  A zero denominator,
    as where e^{-w} rounds to 1, gives the IEEE quotient (inf or NaN); an
    overflow, as of sinh w once w falls below about -710, gives -inf, and
    the log of a negative argument NaN.

    The radical is evaluated as sinh^2 w - 2 e sinh w (identical by
    cosh^2 - 1 = sinh^2) and the outer log via
    ln(cosh w - r) = ln1p(2 e sinh w) - ln(cosh w + r), which avoids the
    catastrophic cancellation of cosh w - sinh w at small eps.  Where
    sinh^2 w would overflow (w above about 355), sinh w is factored out
    of the radical and of both logs, where it cancels:

        omega_tilde = ln(coth w + [1 - 2 e / sinh w]^{1/2}) - ln(2 e + 1 / sinh w)
        ln(1 + 2 e sinh w) = ln sinh w + ln(2 e + 1 / sinh w)

    with ln sinh w = w - ln 2 + ln1p(-e^{-2w}), so the constants stay
    finite for every finite w > 0.
    """
    sh, ch = _ieee(math.sinh, omega), _ieee(math.cosh, omega)
    if 0.0 < omega < math.inf and not math.isfinite(sh * sh):
        # Divide the radical by sinh^2 w, and cosh w + r and 1 + 2 e sinh w
        # by sinh w; ln sinh w then cancels from omega_tilde.
        inv_sh = 1.0 / sh if math.isfinite(sh) else 2.0 * math.exp(-omega)
        radical = 1.0 - 2.0 * eps * inv_sh
        log_arg = 2.0 * eps + inv_sh
        log_scaled_growth = _ieee(math.log, log_arg)
        log_growth = (omega - math.log(2.0) + math.log1p(-math.exp(-2.0 * omega))
                      + log_scaled_growth)
        ch = 1.0 / math.tanh(omega)   # cosh w / sinh w
    else:
        radical = sh * sh - 2.0 * eps * sh
        log_arg = 1.0 + 2.0 * eps * sh
        log_growth = log_scaled_growth = _ieee(math.log1p, 2.0 * eps * sh)
    flags = {
        "radical_nonnegative": radical >= 0.0,
        "upsilon_below_omega": 0.0 <= upsilon < omega,
    }
    if radical >= 0.0:
        # cosh w - r = (1 + 2 eps sinh w) / (cosh w + r) exactly.
        log_arg_positive = log_arg > 0.0
        omega_tilde = math.log(ch + math.sqrt(radical)) - log_scaled_growth
    else:
        log_arg_positive = False
        omega_tilde = math.nan
    flags["log_argument_positive"] = log_arg_positive
    beta_tilde = omega_tilde + log_growth
    emw = _ieee(math.exp, -omega)
    rho = _quotient(eps * (1.0 + emw), 1.0 - emw)
    flags["rho_below_one"] = rho < 1.0
    d1 = 1.0 - _quotient(eps * emw, -_ieee(math.expm1, -omega - omega_tilde))
    d2 = 1.0 - _quotient(eps * _ieee(math.exp, -beta_tilde),
                         -_ieee(math.expm1, -omega - beta_tilde))
    flags["m1_positive"] = d1 > 0.0
    flags["m2_positive"] = d2 > 0.0
    m1 = 1.0 / d1 if d1 != 0.0 else math.inf
    m2 = 1.0 / d2 if d2 != 0.0 else math.inf
    m_hat = m * (1.0 + _quotient(eps, (1.0 - rho) * (1.0 - emw))) * max(m1, m2)
    return RobustnessReport(
        m=m, omega=omega, upsilon=upsilon, eps=eps,
        omega_tilde=omega_tilde, beta_tilde=beta_tilde, rho=rho,
        m1=m1, m2=m2, m_hat=m_hat,
        w_as_written=omega_tilde - omega,
        w_sign_flipped=omega - omega_tilde,
        flags=flags,
    )


# BAND SUPS ============================================================================

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
#: Step of the band scan in both s and t - s, and half-width of the refinements.
_BAND_STEP = 0.01


def _golden_section_max(f, lo, hi):
    """Golden-section search for a local maximum on [lo, hi], to a bracket
    narrower than 1e-10 or 200 iterations."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(200):
        if b - a < 1e-10:
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def _band_sup(anchor_fn, grid: GridSpec) -> float:
    """Maximize a value v(t, s) over the band 0 <= t - s <= 1 with s in
    the grid range: coarse scan at ``_BAND_STEP`` in both s and t-s, then
    golden-section refinement in each coordinate around the maximizer.

    ``anchor_fn(s, t_end)`` returns ``t -> v(t, s)`` for t from s to
    t_end, which takes one time or a 1-d array of times.  Each scanned
    anchor is built once, over its whole band, and evaluated once over
    its offsets with t <= grid.stop; it then serves the offset
    refinement.  Only the anchor refinement builds one per point.
    """
    s_lo, s_hi = grid.start, grid.stop
    s_vals = np.arange(s_lo, s_hi + _BAND_STEP / 2, max(_BAND_STEP, grid.step))
    d_vals = np.arange(0.0, 1.0 + _BAND_STEP / 2, _BAND_STEP)
    best, bs, bd, best_path = -math.inf, s_lo, 0.0, None
    for s in s_vals:
        path = anchor_fn(s, s + 1.0)
        d = d_vals[grid.stop >= s + d_vals]
        if d.size == 0:
            continue
        try:
            v = path(s + d)
        except Exception:
            for t in s + d:   # raise from the point a scan in order fails at
                path(t)
            raise
        # The first maximum, NaN skipped: what a strict v > best scan keeps.
        k = int(np.argmax(np.where(np.isnan(v), -math.inf, v)))
        if v[k] > best:
            best, bs, bd, best_path = float(v[k]), float(s), float(d[k]), path
    # Refine the offset at the best anchor, then the anchor at the best
    # offset; either refinement can only improve on the grid value.
    d_lo, d_hi = max(0.0, bd - _BAND_STEP), min(1.0, bd + _BAND_STEP)
    if d_hi > d_lo:
        path = best_path or anchor_fn(bs, bs + 1.0)
        d_ref, v = _golden_section_max(lambda d: path(bs + d), d_lo, d_hi)
        if v > best:
            best, bd = v, d_ref
    s_lo2, s_hi2 = max(s_lo, bs - _BAND_STEP), min(s_hi - bd, bs + _BAND_STEP)
    if s_hi2 > s_lo2:
        s_ref, v = _golden_section_max(lambda s: anchor_fn(s, s + bd)(s + bd), s_lo2, s_hi2)
        if v > best:
            best = v
    return best


def perturbation_distance(p: EvolutionProcess, q: EvolutionProcess,
                          upsilon: float, grid: GridSpec) -> float:
    """sup of e^{upsilon |s|} ||S(t,s) - T(t,s)|| over 0 <= t-s <= 1.

    The scan covers anchors s in [grid.start, grid.stop] and only the
    pairs with t <= grid.stop, on a (s, t-s) grid of step ``_BAND_STEP =
    0.01``, then refines around the grid maximizer by golden section (the
    offset refinement may read up to one step past grid.stop).  The value
    is therefore an estimate from below of the sup the robustness
    theorem assumes.  Both processes are evaluated along one
    ``matrix_path`` per anchor, and each anchor's norms are one stacked
    :func:`~nedlab.process._spectral_norms` call.
    """
    if p.dimension != q.dimension:
        raise ValueError("processes have different dimensions")

    def anchor(s, t_end):
        p_path, q_path = p.matrix_path(s, t_end), q.matrix_path(s, t_end)
        weight = math.exp(upsilon * abs(s))
        return lambda t: weight * _spectral_norms(p_path(t) - q_path(t))

    return _band_sup(anchor, grid)


def growth_constant(p: EvolutionProcess, upsilon: float, grid: GridSpec) -> float:
    """sup of e^{-upsilon |t|} ||S(t,s)|| over 0 <= t-s <= 1, scanned and
    refined over the band :func:`perturbation_distance` states (t <=
    grid.stop), so again an estimate from below."""

    def anchor(s, t_end):
        path = p.matrix_path(s, t_end)
        return lambda t: _exp(-upsilon * np.abs(t)) * _spectral_norms(path(t))

    return _band_sup(anchor, grid)


# DUAL-ROUTE PIPELINE ==================================================================

@dataclasses.dataclass
class PipelineResult:
    applicable: bool
    distance: float
    report: Optional[RobustnessReport] = None
    dual_cert_of_q: Optional[DichotomyCertificate] = None
    primal_cert_of_q: Optional[DichotomyCertificate] = None
    dual_violation: Optional[float] = None
    primal_violation: Optional[float] = None
    reason: str = ""


def robust_nedii_pipeline(p: EvolutionProcess, cert: DichotomyCertificate,
                          q: EvolutionProcess, upsilon: float, eps: float,
                          grid: GridSpec) -> PipelineResult:
    """Transport a kind-II dichotomy of p to the perturbed process q.

    Route: dualize both processes (the dual of p then carries a kind-I
    dichotomy with the same constants), check that the dual perturbation
    distance stays below eps, evaluate the robustness constants, and
    emit the predicted kind-I certificate for dual(q).  Reflexivity
    turns that into the kind-II certificate of q itself.  Both emitted
    certificates are validated on the supplied grid.
    """
    if cert.kind != "II":
        raise InapplicableError("pipeline starts from a kind-II certificate")
    claimed = [part for part, _ in cert._bounds()]
    if len(claimed) < len(_PARTS[cert.projection]):
        raise InapplicableError("pipeline starts from a certificate of every part "
                                "its projection leaves")
    omega = cert.omega
    if not (0.0 <= upsilon < omega):
        raise InapplicableError(
            "need 0 <= upsilon < omega (upsilon=%g, omega=%g)" % (upsilon, omega))
    dual_p = dual_process(p)
    dual_q = dual_process(q)
    distance = perturbation_distance(dual_p, dual_q, upsilon, grid)
    if not (distance < eps):
        return PipelineResult(False, distance,
                              reason="dual perturbation distance %.6g >= eps %.6g"
                              % (distance, eps))
    report = robustness_constants(cert.m, omega, upsilon, eps)
    if not report.admissible:
        return PipelineResult(False, distance, report=report,
                              reason="robustness constants inadmissible: %s"
                              % report.flags)
    l_t = growth_constant(dual_q, upsilon, grid)
    report = dataclasses.replace(report, l_sup=l_t)
    # Bound of the emitted dichotomy: M_hat(s) = M_hat^2 e^{2 omega_tilde}
    # max{L, L^2} e^{2 upsilon |s|}, exponent the positive branch of w_hat.
    big_m = (report.m_hat ** 2) * math.exp(2.0 * report.omega_tilde) \
        * max(l_t, l_t * l_t)
    w_pos = report.positive_exponent
    if not (w_pos > 0):
        return PipelineResult(False, distance, report=report,
                              reason="no positive perturbed exponent")
    pair = ExponentPair(w_pos, 2.0 * upsilon)
    primal_cert = dataclasses.replace(cert, m=max(big_m, 1.0), stable=pair,
                                      unstable=pair if "unstable" in claimed else None)
    dual_cert = dual_certificate(primal_cert)
    dual_violation = check_certificate(dual_q, dual_cert, grid)
    primal_violation = check_certificate(q, primal_cert, grid)
    return PipelineResult(True, distance, report=report,
                          dual_cert_of_q=dual_cert,
                          primal_cert_of_q=primal_cert,
                          dual_violation=dual_violation,
                          primal_violation=primal_violation)
