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


def _band_sup(processes: tuple, log_weight, grid: GridSpec) -> float:
    """Maximize ``v(t, s) = e^{log_weight(t, s)} ||S(t, s)||`` over the band
    0 <= t - s <= 1 with s in the grid range, where S is the one process's
    operator or, for two, the first's less the second's: coarse scan of
    t - s in steps of ``_BAND_STEP`` and of s from grid.start in steps of
    ``max(_BAND_STEP, grid.step)`` (so the mesh's pinned stop and 0 are
    missed off that lattice), then golden-section refinement in each
    coordinate around the maximizer.

    Each process reads ``S = e^L N`` through its band hook
    (:meth:`~nedlab.process.EvolutionProcess._band_reader`), bound to a
    block of anchors and read once for the block's pairs with t <=
    grid.stop, which fill at most ``_NORM_BLOCK_BYTES`` in their times and
    anchor indices together and in each N stack.  A block whose read
    raises is read again pair by pair, the first process before the
    second, so the error surfaces from the pair a per-point scan fails
    at.  The scan keeps the first maximum in scan order (anchors
    ascending, then offsets) and skips NaN, as a strict ``v > best`` scan
    does.  The refinements read one pair at a time: the offset's through
    the best anchor's block hooks, the anchor's through new ones.
    """
    def values(reads, anchors, t, a):
        return _weighted(log_weight(t, anchors[a]), _norms)(reads, t, a)

    def hooks(anchors, width):
        return [p._band_reader(anchors, width) for p in processes]

    s_lo, s_hi = grid.start, grid.stop
    s_vals = np.arange(s_lo, s_hi + _BAND_STEP / 2, max(_BAND_STEP, grid.step))
    s_vals = s_vals[s_vals <= s_hi]   # an anchor past the stop has no pair
    d_vals = np.arange(0.0, 1.0 + _BAND_STEP / 2, _BAND_STEP)
    n = processes[0].dimension
    per_block = max(1, _NORM_BLOCK_BYTES // (8 * max(2, n * n) * d_vals.size))
    best, bs, bd, best_read = -math.inf, s_lo, 0.0, None
    for start in range(0, s_vals.size, per_block):
        anchors = s_vals[start:start + per_block]
        t = anchors[:, None] + d_vals
        a, k = np.nonzero(s_hi >= t)
        t, reads = t[a, k], hooks(anchors, 1.0)
        try:
            v = values(reads, anchors, t, a)
        except Exception:
            for x, b in zip(t.tolist(), a.tolist()):   # raise from the pair a scan fails at
                values(reads, anchors, x, b)
            raise
        m = int(np.argmax(np.where(np.isnan(v), -math.inf, v)))
        if v[m] > best:
            best, bs, bd = float(v[m]), float(anchors[a[m]]), float(d_vals[k[m]])
            best_read = (reads, anchors, int(a[m]))
    # Refine the offset at the best anchor, then the anchor at the best
    # offset; either refinement can only improve on the grid value.
    d_lo, d_hi = max(0.0, bd - _BAND_STEP), min(1.0, bd + _BAND_STEP)
    if d_hi > d_lo:
        reads, anchors, a = best_read or (hooks(np.array([bs]), 1.0), np.array([bs]), 0)
        d_ref, v = _golden_section_max(lambda d: values(reads, anchors, bs + d, a), d_lo, d_hi)
        if v > best:
            best, bd = v, d_ref
    s_lo2, s_hi2 = max(s_lo, bs - _BAND_STEP), min(s_hi - bd, bs + _BAND_STEP)
    if s_hi2 > s_lo2:
        def at_anchor(s):
            anchor = np.array([s])
            return values(hooks(anchor, bd), anchor, s + bd, 0)
        s_ref, v = _golden_section_max(at_anchor, s_lo2, s_hi2)
        if v > best:
            best = v
    return float(best)


def _norms(reads, t, a):
    """``||e^L N||`` at one pair (a float t and an int a) or at 1-d arrays
    of pairs, from one read of one hook, or ``||e^{L_1} N_1 - e^{L_2}
    N_2||`` from one read of each of two; an array's norms come from one
    stacked :func:`~nedlab.process._spectral_norms` call."""
    stacks = []
    for read in reads:
        scale, n = read(t, a)
        weight = _exp(scale)
        stacks.append((weight[:, None, None] if isinstance(t, np.ndarray) else weight) * n)
    return _spectral_norms(stacks[0] if len(stacks) == 1 else stacks[0] - stacks[1])


def _weighted(log_weight, values):
    """``(*args) -> e^log_weight * values(*args)``, entry by entry where
    log_weight is an array: bit for bit that product where the weight is a
    float, and in log space where it overflows, where a zero value stays 0
    and any other reads ``e^(log_weight + log value)``, +inf past the float
    range, never ``inf * 0 = NaN``."""
    def weighted(*args):
        value = values(*args)
        try:
            return _exp(log_weight) * value
        except OverflowError:
            weight = np.reshape([_ieee(math.exp, x) for x in np.ravel(log_weight).tolist()],
                                np.shape(log_weight))
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                return np.where(weight < math.inf, weight * value,
                                np.exp(log_weight + np.log(value)))
    return weighted


def perturbation_distance(p: EvolutionProcess, q: EvolutionProcess,
                          upsilon: float, grid: GridSpec) -> float:
    """sup of e^{upsilon |s|} ||S(t,s) - T(t,s)|| over 0 <= t-s <= 1.

    The scan covers anchors s in [grid.start, grid.stop] and only the
    pairs with t <= grid.stop, on the steps of :func:`_band_sup` (0.01 in
    t - s, the grid step in s when that is larger), then refines around
    the scan maximizer by golden section (the offset refinement may read
    up to one step past grid.stop).  The value is therefore an estimate
    from below of the sup the robustness theorem assumes.  A block of the
    scan is one hook read per process: one exponent batch for a scalar
    exponent process, one dense solve per anchor for an integrated one,
    one ``_log_matrix`` per pair otherwise.  Where ``e^{upsilon |s|}``
    overflows, an equal pair of operators reads 0, any other +inf once the
    product passes the float range.
    """
    if p.dimension != q.dimension:
        raise ValueError("processes have different dimensions")
    return _band_sup((p, q), lambda t, s: upsilon * abs(s), grid)


def growth_constant(p: EvolutionProcess, upsilon: float, grid: GridSpec) -> float:
    """sup of e^{-upsilon |t|} ||S(t,s)|| over 0 <= t-s <= 1, scanned,
    refined and read as :func:`perturbation_distance` states (t <=
    grid.stop), so again an estimate from below, with the weight read in
    log space where it overflows."""
    return _band_sup((p,), lambda t, s: -upsilon * abs(t), grid)


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
