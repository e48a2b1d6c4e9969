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
    ScalarExponentProcess,
    _NORM_BLOCK_BYTES,
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
#: Step of the band scan in t - s, least step of its anchors, half-width of refinements.
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


def _band_sup(anchor_fn, grid: GridSpec, batch_fn=None) -> float:
    """Maximize a value v(t, s) over the band 0 <= t - s <= 1 with s in
    the grid range: coarse scan of t - s in steps of ``_BAND_STEP`` and of
    s from grid.start in steps of ``max(_BAND_STEP, grid.step)`` (so the
    mesh's pinned stop and 0 are missed off that lattice), then
    golden-section refinement in each coordinate around the maximizer.

    ``anchor_fn(s, t_end)`` returns ``t -> v(t, s)`` for t from s to
    t_end, which takes one time or a 1-d array of times.  The scan keeps
    the first maximum in scan order (anchors ascending, then offsets) and
    skips NaN, as a strict ``v > best`` scan does.  It reads the anchors
    in blocks whose pairs' times, t and s together, fill at most
    ``_NORM_BLOCK_BYTES``.

    ``batch_fn(s, t, a)``, when given, returns the values of a whole
    block in one call: ``v(t[k], s[a[k]])`` over its pairs in scan order,
    or None where a pair must be read one at a time.  A block it returns
    None for, or raises in, is read again anchor by anchor, each anchor
    built once over its whole band and evaluated once over its offsets
    with t <= grid.stop, and one at a time if that raises, so an error
    surfaces from the pair a per-point scan fails at.  The offset
    refinement evaluates the best anchor's function; the anchor
    refinement builds one per point.
    """
    s_lo, s_hi = grid.start, grid.stop
    s_vals = np.arange(s_lo, s_hi + _BAND_STEP / 2, max(_BAND_STEP, grid.step))
    d_vals = np.arange(0.0, 1.0 + _BAND_STEP / 2, _BAND_STEP)
    best, bs, bd, best_path = -math.inf, s_lo, 0.0, None
    per_block = max(1, _NORM_BLOCK_BYTES // (2 * d_vals.nbytes))
    for start in range(0, s_vals.size, per_block):
        anchors = s_vals[start:start + per_block]
        v = None
        if batch_fn is not None:
            t = anchors[:, None] + d_vals
            a, k = np.nonzero(grid.stop >= t)
            try:
                v = batch_fn(anchors, t[a, k], a)
            except Exception:   # the anchor-by-anchor read raises it from its pair
                v = None
        if v is not None:
            # The first maximum, NaN skipped: what a strict v > best scan keeps.
            m = int(np.argmax(np.where(np.isnan(v), -math.inf, v))) if v.size else 0
            if v.size and v[m] > best:
                s = anchors[a[m]]
                best, bs, bd = float(v[m]), float(s), float(d_vals[k[m]])
                best_path = anchor_fn(s, s + 1.0)
            continue
        for s in anchors:
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
            m = int(np.argmax(np.where(np.isnan(v), -math.inf, v)))
            if v[m] > best:
                best, bs, bd, best_path = float(v[m]), float(s), float(d[m]), path
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


def _scalar_path(process: ScalarExponentProcess, s: float, t_end: float):
    """``tau -> S(tau, s)`` of a scalar exponent process as numbers: a float
    for one time, from its guarded exponent with no 1x1 matrix, and a 1-d
    array for an array of times, from its ``matrix_path``."""
    exponent = process._path_exponent(s)

    def path(tau):
        if isinstance(tau, np.ndarray):
            return process.matrix_path(s, t_end)(tau)[:, 0, 0]
        return math.exp(exponent(tau))
    return path


def _weighted(log_weight: float, values):
    """``t -> e^log_weight * values(t)``: bit for bit that product while the
    weight is a float, and in log space once it overflows, where a zero
    value stays 0 and any other reads ``e^(log_weight + log value)``, +inf
    past the float range, never ``inf * 0 = NaN``."""
    try:
        weight = math.exp(log_weight)
    except OverflowError:
        def far(t):
            with np.errstate(divide="ignore", over="ignore"):
                return np.exp(log_weight + np.log(values(t)))
        return far
    return lambda t: weight * values(t)


def _band_reads(scalar: bool):
    """``(path, norms)`` of a band's values: ``path(process, s, t_end)`` is
    ``tau -> S(tau, s)`` and ``norms`` the norm of what it returns, one or
    a stack.  Scalar exponent processes read numbers and take ``abs``;
    others read ``matrix_path`` and stacked spectral norms."""
    if scalar:
        return _scalar_path, abs
    return (lambda process, s, t_end: process.matrix_path(s, t_end)), _spectral_norms


def perturbation_distance(p: EvolutionProcess, q: EvolutionProcess,
                          upsilon: float, grid: GridSpec) -> float:
    """sup of e^{upsilon |s|} ||S(t,s) - T(t,s)|| over 0 <= t-s <= 1.

    The scan covers anchors s in [grid.start, grid.stop] and only the
    pairs with t <= grid.stop, on the steps of :func:`_band_sup` (0.01 in
    t - s, the grid step in s when that is larger), then refines around
    the scan maximizer by golden section (the offset refinement may read
    up to one step past grid.stop).  The value is therefore an estimate
    from below of the sup the robustness theorem assumes.  Two scalar
    exponent processes read each block of the scan as one exponent batch
    per process, over its distinct times, and each refinement point as
    two floats; any other pair is read along one ``matrix_path`` per
    anchor and process, each anchor's norms in one stacked
    :func:`~nedlab.process._spectral_norms` call.  Where ``e^{upsilon |s|}``
    overflows, the anchor's values are read in log space: an equal pair
    of operators reads 0, any other +inf once the product passes the
    float range.  A batch whose weight overflows raises, and the scan
    reads its block anchor by anchor.
    """
    if p.dimension != q.dimension:
        raise ValueError("processes have different dimensions")
    scalar = isinstance(p, ScalarExponentProcess) and isinstance(q, ScalarExponentProcess)
    path, norms = _band_reads(scalar)

    def anchor(s, t_end):
        p_path, q_path = path(p, s, t_end), path(q, s, t_end)
        return _weighted(upsilon * abs(s), lambda t: norms(p_path(t) - q_path(t)))

    def batch(s, t, a):
        e_p = p._pair_exponents(t, s[a])
        e_q = None if e_p is None else q._pair_exponents(t, s[a])
        if e_q is None:
            return None
        return _exp(upsilon * np.abs(s))[a] * np.abs(_exp(e_p) - _exp(e_q))

    return _band_sup(anchor, grid, batch if scalar else None)


def growth_constant(p: EvolutionProcess, upsilon: float, grid: GridSpec) -> float:
    """sup of e^{-upsilon |t|} ||S(t,s)|| over 0 <= t-s <= 1, scanned and
    refined over the band :func:`perturbation_distance` states (t <=
    grid.stop), so again an estimate from below, and read the same way:
    one exponent batch per block for a scalar exponent process, else one
    ``matrix_path`` per anchor."""
    scalar = isinstance(p, ScalarExponentProcess)
    path, norms = _band_reads(scalar)

    def anchor(s, t_end):
        p_path = path(p, s, t_end)
        return lambda t: _exp(-upsilon * abs(t)) * norms(p_path(t))

    def batch(s, t, a):
        e = p._pair_exponents(t, s[a])
        return None if e is None else _exp(-upsilon * np.abs(t)) * _exp(e)

    return _band_sup(anchor, grid, batch if scalar else None)


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
