"""scalar_certify: certificate checks, frontier fits and kind-I rejection
scans on scalar processes, then every CLI subcommand once.

Norm sampling here is the vectorised closed-form path (quadrature with
a per-time cache for smooth-limits); no ODE is solved.  Most of a pass
is spent in the brute-force rejection scans of the dichotomy layer.
"""

import contextlib
import csv
import io
import json
import math
import os

import numpy as np

import nedlab as nl
from nedlab import cli

from common import Verdict, at_most, first_failure, within

CLAIM_TOL = 1e-9            # check_certificate verdict tolerance (CLI default)
CHECK_GRID = nl.GridSpec(-20.0, 20.0, 0.25)
HALF_GRID = (0.0, 20.0, 0.25)
CRIT2_BOX = ((0.05, 4.0), (0.0, 4.0))
CONTROL_BOX = ((0.05, 4.0), (0.05, 4.0))
SIGN_WINDOWS = [(0.0, 10.0), (-10.0, 10.0), (-20.0, 20.0)]
SIGN_CLI_WINDOWS = [(0.0, 5.0), (0.0, 10.0)]
FACTORIAL_WINDOWS = [(0.0, 6.0), (0.0, 120.0)]
DEFAULT_ALPHA_LO = 0.05     # nedi_rejection_evidence default box starts here
N_CONTROLS = 6
EXACT = 1e-12               # CLI artifacts against the library, same pass


def _alpha_list(start, stop, step):
    # The CLI's --alpha-grid construction, so library and CLI fit the
    # same alphas bit for bit.
    n = int(math.floor((stop - start) / step + 1e-12))
    return [start + k * step for k in range(n + 1)]


# Closed forms of the log-propagators, written out independently of the
# gallery so that they can serve as oracles.

def _barreira_log(a, b):
    def f(t, s):
        return (-b * (t - s) + a * (t * np.cos(t) - np.sin(t))
                - a * (s * np.cos(s) - np.sin(s)))
    return f


def _piecewise_log(a, b, c, d):
    def anti(x):
        return np.where(x >= 0, -b * x + a * (x * np.cos(x) - np.sin(x)),
                        -d * x + c * (x * np.cos(x) - np.sin(x)))
    return lambda t, s: anti(t) - anti(s)


def _sign_log(t, s):
    return np.abs(t) - np.abs(s)


def _smooth_log(sigma):
    # int_s^t tanh(r / sigma) dr = sigma (ln cosh(t/sigma) - ln cosh(s/sigma))
    def lncosh(x):
        x = np.abs(x)
        return x + np.log1p(np.exp(-2.0 * x)) - math.log(2.0)
    return lambda t, s: sigma * (lncosh(t / sigma) - lncosh(s / sigma))


def _factorial_log(max_n):
    # g = 0 on [0, 1]; on (n!, (n+1)!] g = 1 for even n, -n for odd n.
    def cumulative(x):
        out = np.zeros_like(x)
        for n in range(1, max_n + 1):
            lo, hi = float(math.factorial(n)), float(math.factorial(n + 1))
            slope = 1.0 if n % 2 == 0 else -float(n)
            out += slope * np.clip(x - lo, 0.0, hi - lo)
        return out
    return lambda t, s: cumulative(t) - cumulative(s)


def _closed_violation(log_fn, cert, grid):
    """Max of log||S|| - bound over the stable pairs of grid, clipped to
    the certificate domain, by the closed form."""
    lo, hi, step = grid
    if cert.domain.kind == "plus":
        lo = max(lo, 0.0)
    if cert.domain.kind == "minus":
        hi = min(hi, 0.0)
    tv, sv = nl.GridSpec(lo, hi, step).pairs("stable")
    anchor = np.abs(tv) if cert.kind == "II" else np.abs(sv)
    bound = math.log(cert.m) + cert.stable.growth * anchor - cert.stable.rate * (tv - sv)
    return float(np.max(log_fn(tv, sv) - bound))


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)


def build(seed, workdir):
    rng = np.random.default_rng([seed, 1])
    verdicts = []

    # --- gallery fixtures ------------------------------------------------------
    barreira = []
    for _ in range(2):
        a = float(rng.uniform(0.5, 1.5))
        b = a + float(rng.uniform(0.5, 1.5))
        barreira.append((a, b, nl.make_entry("barreira", a=a, b=b)))
    pa = float(rng.uniform(0.5, 1.5))
    pb = pa + float(rng.uniform(0.5, 1.5))
    pc = float(rng.uniform(0.1, 0.4))
    pd = pc + float(rng.uniform(0.1, 0.4))
    piecewise = nl.make_entry("piecewise-barreira", a=pa, b=pb, c=pc, d=pd)
    sign = nl.make_entry("sign-switch")
    factorial = nl.make_entry("factorial-steps", max_n=6)
    sigma = float(rng.uniform(0.5, 2.0))
    smooth = nl.make_entry("smooth-limits", transition_scale=sigma)
    entries = [("barreira%d" % i, e, _barreira_log(a, b))
               for i, (a, b, e) in enumerate(barreira)]
    entries += [("piecewise", piecewise, _piecewise_log(pa, pb, pc, pd)),
                ("sign", sign, _sign_log),
                ("factorial", factorial, _factorial_log(6)),
                ("smooth", smooth, _smooth_log(sigma))]

    # Every gallery claim, checked against its holds flag.
    for label, entry, _ in entries:
        for i, claim in enumerate(entry.claims):
            def run(p=entry.process, c=claim.certificate):
                return nl.check_certificate(p, c, CHECK_GRID)

            def check(out, outs, holds=claim.holds):
                if holds:
                    return at_most("claimed bound violated", out, CLAIM_TOL)
                if out > CLAIM_TOL:
                    return None
                return "refuted claim passed with violation %.3g" % out
            verdicts.append(Verdict("check:%s:%d" % (label, i), run, check))

    # Frontier fits; each best certificate is re-checked by the library
    # and by the closed form.
    def add_classify(name, entry, log_fn, kind, grid, alphas, domain, ln_m_max,
                     min_alpha=None):
        spec = nl.GridSpec(*grid)

        def run():
            frontier, cert = nl.classify(entry.process, nl.ProjectionFamily.zero(1),
                                         kind, spec, alphas, domain=domain,
                                         ln_m_max=ln_m_max)
            recheck = None if cert is None else nl.check_certificate(
                entry.process, cert, spec)
            return frontier, cert, recheck

        def check(out, outs):
            frontier, cert, recheck = out
            if cert is None:
                return "no feasible certificate"
            reason = first_failure(
                at_most("re-check of best certificate", recheck, CLAIM_TOL),
                at_most("closed-form check of best certificate",
                        _closed_violation(log_fn, cert, grid), CLAIM_TOL))
            if reason is None and min_alpha is not None and cert.stable.rate < min_alpha:
                reason = "best rate %g below the claimed %g" % (cert.stable.rate, min_alpha)
            return reason
        verdicts.append(Verdict(name, run, check))

    for i, (a, b, entry) in enumerate(barreira):
        alphas = _alpha_list(0.5, a + b + 1.0, 0.25)
        feasible = max(x for x in alphas if x <= a + b)
        add_classify("classify:barreira%d" % i, entry, _barreira_log(a, b), "II",
                     HALF_GRID, alphas, nl.HALF_LINE_PLUS, 2.0 * a, feasible)
    add_classify("classify:piecewise", piecewise, _piecewise_log(pa, pb, pc, pd), "II",
                 (-10.0, 10.0, 0.25), _alpha_list(0.25, 3.0, 0.25), nl.FULL_LINE, 8.0)
    add_classify("classify:sign", sign, _sign_log, "II", (-10.0, 10.0, 0.25),
                 _alpha_list(0.25, 2.0, 0.25), nl.FULL_LINE, 8.0, 1.0)
    add_classify("classify:factorial", factorial, _factorial_log(6), "II", HALF_GRID,
                 _alpha_list(0.25, 1.5, 0.25), nl.HALF_LINE_PLUS, 8.0, 1.0)
    add_classify("classify:smooth", smooth, _smooth_log(sigma), "II", (-10.0, 10.0, 0.25),
                 _alpha_list(0.5, 1.0, 0.05), nl.FULL_LINE, 4.0)

    # --- kind-I rejection scans ------------------------------------------------
    def sign_minima_check(windows, alpha_lo):
        # Closed form on sign-switch: for a window [lo, hi] containing 0,
        # min over the box of the kind-I ln M (zero projection) is
        # (1 + alpha_lo) hi, attained by the pair (t, s) = (hi, 0).
        def check(out, outs):
            want = [(1.0 + alpha_lo) * hi for _, hi in windows]
            for got, w in zip(out.min_ln_m["zero"], want):
                reason = within("sign-switch min ln M", got, w, CLAIM_TOL)
                if reason:
                    return reason
            if max(out.growth_factors("zero")) < math.e:
                return "no window growth >= e on sign-switch"
            return None
        return check

    verdicts.append(Verdict(
        "reject:sign",
        lambda: nl.nedi_rejection_evidence(sign.process, SIGN_WINDOWS, resolution=0.1),
        sign_minima_check(SIGN_WINDOWS, DEFAULT_ALPHA_LO)))
    verdicts.append(Verdict(
        "reject:sign-cli",
        lambda: nl.nedi_rejection_evidence(sign.process, SIGN_CLI_WINDOWS,
                                           resolution=0.1, step=0.25),
        sign_minima_check(SIGN_CLI_WINDOWS, DEFAULT_ALPHA_LO)))

    def factorial_check(out, outs):
        growth = out.growth_factors("zero")[0]
        if growth >= math.e:
            return None
        return "factorial-steps growth %.3g < e" % growth
    verdicts.append(Verdict(
        "reject:factorial",
        lambda: nl.nedi_rejection_evidence(factorial.process, FACTORIAL_WINDOWS,
                                           box=CRIT2_BOX, resolution=0.1, step=0.5),
        factorial_check))

    for k in range(N_CONTROLS):
        rate = -float(rng.uniform(0.3, 2.0))
        control = nl.ScalarCoefficientProcess(lambda t, r=rate: r,
                                              antiderivative=lambda t, r=rate: r * t)

        def control_check(out, outs):
            reason = at_most("flat control min ln M", max(out.min_ln_m["zero"]), CLAIM_TOL)
            if reason is None and all(g >= math.e for g in out.growth_factors("zero")):
                reason = "flat control rejected"
            return reason
        verdicts.append(Verdict(
            "reject:control%d" % k,
            lambda p=control: nl.nedi_rejection_evidence(
                p, [(-5.0, 5.0), (-10.0, 10.0)], box=CONTROL_BOX,
                resolution=0.25, step=0.5),
            control_check))

    # --- library counterparts of the CLI phase ----------------------------------
    a0, b0, entry0 = barreira[0]
    claim0 = entry0.claims[0].certificate          # kind II on R+
    base_rate = -1.0
    pert_rate = -1.0 - float(rng.uniform(0.005, 0.02))
    constant_cert = nl.DichotomyCertificate("II", nl.FULL_LINE, 1.0,
                                            nl.ExponentPair(1.0, 0.0), projection="zero")
    base = nl.ScalarCoefficientProcess(lambda t: base_rate,
                                       antiderivative=lambda t: base_rate * t)
    perturbed = nl.ScalarCoefficientProcess(lambda t: pert_rate,
                                            antiderivative=lambda t: pert_rate * t)
    rob_grid = nl.GridSpec(-3.0, 3.0, 0.5)
    rob_args = (1.0, 1.0, 0.0, 0.1)                # M, omega, upsilon, eps

    def run_robust():
        return (nl.robustness_constants(*rob_args),
                nl.robust_nedii_pipeline(base, constant_cert, perturbed, 0.0, 0.1, rob_grid))

    def check_robust(out, outs):
        _, result = out
        if not result.applicable:
            return "demo pair gated: " + result.reason
        # Dual distance sup_{0<=d<=1} |e^{|q| d} - e^{|p| d}| sits at d = 1.
        return first_failure(
            within("perturbation distance", result.distance,
                   math.exp(-pert_rate) - math.exp(-base_rate), CLAIM_TOL),
            at_most("transported primal certificate", result.primal_violation, CLAIM_TOL),
            at_most("transported dual certificate", result.dual_violation, CLAIM_TOL))
    verdicts.append(Verdict("robust:constant-pair", run_robust, check_robust))

    def check_convert(out, outs):
        if out.kind != "I" or out.m != claim0.m or out.stable.growth != claim0.stable.growth:
            return "conversion changed kind/M/growth unexpectedly: %r" % (out,)
        return within("converted rate", out.stable.rate,
                      claim0.stable.rate - claim0.stable.growth, EXACT)
    verdicts.append(Verdict("convert:claim0", lambda: nl.convert_halfline(claim0),
                            check_convert))

    env_times = _alpha_list(-10.0, 0.0, 0.5)
    env_bnorm = float(rng.uniform(0.5, 2.0))

    def check_envelope(out, outs):
        m, alpha, delta = claim0.m, claim0.stable.rate, claim0.stable.growth
        for t, r in zip(env_times, out):
            want = math.sqrt(m / alpha * env_bnorm * math.exp(delta * abs(t)))
            reason = within("envelope radius at t=%g" % t, r, want, 1e-12 * want)
            if reason:
                return reason
        return None
    verdicts.append(Verdict(
        "attract:claim0",
        lambda: [nl.make_pullback_envelope(claim0, 0.0, env_bnorm)(t) for t in env_times],
        check_envelope))

    pde_rate = -float(rng.uniform(0.5, 1.5))
    pde_cfg = {"N": 15, "bc": "dirichlet", "g": {"name": "constant", "rate": pde_rate},
               "scalar_certificate": constant_cert.to_dict(), "horizon": 2.0,
               "stride": 0.25, "t_grid": [-4.0, 0.0, 0.5], "lambda": 0.0, "bnorm": 1.0}
    lap15 = nl.discretize(nl.Grid1D(1.0, 15), nl.BoundaryCondition("dirichlet"))

    def run_pde():
        process = nl.pde_process(lap15, separable_g=lambda t: pde_rate)
        bundle = nl.principal_bundle(process, horizon=2.0, stride=0.25)
        return bundle, nl.scalar_to_pde_transfer(constant_cert, lap15, bundle)

    def check_pde(out, outs):
        bundle, cert = out
        gap = float(lap15.eigenvalues[-1] - lap15.eigenvalues[-2])
        return first_failure(
            within("principal-bundle separation rate", bundle.nu_sep, gap, 0.10 * gap),
            within("transferred rate", cert.stable.rate,
                   1.0 + abs(lap15.leading_eigenvalue), EXACT))
    verdicts.append(Verdict("pde:bundle", run_pde, check_pde))

    # --- CLI phase: every subcommand once, on configs written at set-up ----------
    out_dir = os.path.join(workdir, "out")
    cfg_dir = os.path.join(workdir, "cfg")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(cfg_dir, exist_ok=True)

    def cfg(name, payload):
        path = os.path.join(cfg_dir, name)
        _write_json(path, payload)
        return path

    def out(name):
        return os.path.join(out_dir, name)

    barreira_cfg = cfg("barreira.json", {"backend": "closed-form-exponent",
                                         "family": "barreira",
                                         "params": {"a": a0, "b": b0}})
    sign_cfg = cfg("sign.json", {"backend": "closed-form-exponent",
                                 "family": "sign-switch"})
    claim_cfg = cfg("claim0.json", claim0.to_dict())
    base_cfg = cfg("base.json", {"backend": "numerically-integrated",
                                 "coefficient": "constant", "params": {"rate": base_rate}})
    pert_cfg = cfg("perturbed.json", {"backend": "numerically-integrated",
                                      "coefficient": "constant",
                                      "params": {"rate": pert_rate}})
    const_cert_cfg = cfg("constant_cert.json", constant_cert.to_dict())
    pde_cfg_path = cfg("pde.json", pde_cfg)
    windows_arg = ",".join("%r:%r" % w for w in SIGN_CLI_WINDOWS)

    def cli_run(argv):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            try:
                code = cli.run(argv)
            except SystemExit as exc:   # argparse usage errors exit with 64
                code = exc.code
        return code, sink.getvalue()

    def read_json(path):
        with open(path) as fh:
            return json.load(fh)

    def add_cli(name, argv, compare):
        def check(result, outs):
            code, stdout = result
            if code != 0:
                return "exit code %d" % code
            return compare(stdout, outs)
        verdicts.append(Verdict("cli:" + name, lambda: cli_run(argv), check))

    def cmp_list(stdout, outs):
        rows = [line for line in stdout.splitlines()[1:] if line.strip()]
        want = sum(len(nl.make_entry(n).claims) for n in nl.entry_names())
        return None if len(rows) == want else "%d rows, %d claims" % (len(rows), want)
    add_cli("gallery-list", ["gallery", "list"], cmp_list)

    def cmp_eval(stdout, outs):
        got = read_json(out("claims.json"))["claims"]
        return None if got == entry0.claims_json() else "claims differ from make_entry"
    add_cli("gallery-eval", ["gallery", "eval", "--entry", "barreira",
                             "--params", json.dumps({"a": a0, "b": b0}),
                             "--out", out("claims.json")], cmp_eval)

    def cmp_classify(stdout, outs):
        frontier, cert, _ = outs["classify:barreira0"]
        with open(out("frontier.csv")) as fh:
            rows = [tuple(float(x) for x in r) for r in list(csv.reader(fh))[1:]]
        if len(rows) != len(frontier.entries):
            return "frontier has %d rows, library %d" % (len(rows), len(frontier.entries))
        for got, want in zip(rows, frontier.entries):
            if max(abs(g - w) for g, w in zip(got, want)) > EXACT:
                return "frontier row %r != library %r" % (got, want)
        got_cert = read_json(out("cert.json"))
        return None if got_cert == cert.to_dict() else "certificate differs from library"
    add_cli("classify", ["classify", "--process", barreira_cfg, "--kind", "II",
                         "--side", "plus", "--alpha-grid",
                         "0.5:%r:0.25" % (a0 + b0 + 1.0), "--grid", "0:20:0.25",
                         "--ln-m-max", repr(2.0 * a0), "--out", out("frontier.csv"),
                         "--cert-out", out("cert.json")], cmp_classify)

    def cmp_check(stdout, outs):
        report = read_json(out("check.json"))
        lib = outs["check:barreira0:0"]
        return first_failure(within("CLI check violation", report["violation"], lib, EXACT),
                             None if report["holds"] == (lib <= CLAIM_TOL)
                             else "holds flag disagrees with library")
    add_cli("check", ["check", "--process", barreira_cfg, "--cert", claim_cfg,
                      "--grid", "0:20:0.25", "--out", out("check.json")], cmp_check)

    def cmp_convert(stdout, outs):
        got = read_json(out("convert.json"))
        return None if got == outs["convert:claim0"].to_dict() else "conversion differs"
    add_cli("convert", ["convert", "--cert", claim_cfg, "--out", out("convert.json")],
            cmp_convert)

    def cmp_reject(stdout, outs):
        got = read_json(out("reject.json"))
        lib = outs["reject:sign-cli"]
        for kind, vals in lib.min_ln_m.items():
            for g, w in zip(got["min_ln_m"][kind], vals):
                reason = within("CLI reject min ln M (%s)" % kind, g, w, EXACT)
                if reason:
                    return reason
        return None if got["rejected"] == lib.rejected() else "rejected flag differs"
    add_cli("reject", ["reject", "--process", sign_cfg, "--windows", windows_arg,
                       "--resolution", "0.1", "--step", "0.25", "--out", out("reject.json")],
            cmp_reject)

    def cmp_robust(stdout, outs):
        got = read_json(out("robustness.json"))
        report, result = outs["robust:constant-pair"]
        return first_failure(
            within("CLI M_hat", got["M_hat"], report.m_hat, EXACT),
            within("CLI distance", got["pipeline"]["distance"], result.distance, EXACT),
            within("CLI primal violation", got["pipeline"]["primal_violation"],
                   result.primal_violation, EXACT))
    add_cli("robustness", ["robustness", "--M", "1", "--omega", "1", "--upsilon", "0",
                           "--eps", "0.1", "--process", base_cfg, "--perturbed", pert_cfg,
                           "--cert", const_cert_cfg, "--grid=-3:3:0.5",
                           "--out", out("robustness.json")], cmp_robust)

    def cmp_attract(stdout, outs):
        with open(out("envelope.csv")) as fh:
            radii = [float(r[1]) for r in list(csv.reader(fh))[1:]]
        lib = outs["attract:claim0"]
        if len(radii) != len(lib):
            return "%d radii, library %d" % (len(radii), len(lib))
        return first_failure(*(within("CLI radius", g, w, EXACT * w)
                               for g, w in zip(radii, lib)))
    add_cli("attract", ["attract", "--cert", claim_cfg, "--bnorm", repr(env_bnorm),
                        "--lam", "0", "--t-grid=-10:0:0.5", "--out", out("envelope.csv")],
            cmp_attract)

    def cmp_pde(stdout, outs):
        got = read_json(out("pde.json"))
        bundle, cert = outs["pde:bundle"]
        return first_failure(
            within("CLI nu_sep", got["bundle"]["nu_sep"], bundle.nu_sep, EXACT),
            within("CLI m_sep", got["bundle"]["m_sep"], bundle.m_sep, EXACT),
            None if got["certificate"] == cert.to_dict() else "PDE certificate differs")
    add_cli("pde", ["pde", "--config", pde_cfg_path, "--out", out("pde.json"),
                    "--radii-out", out("radii.csv")], cmp_pde)
    return verdicts
