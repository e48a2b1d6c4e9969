"""Batch command-line front end.

Eight subcommands cover the library surface: ``gallery`` (list or
evaluate the fixture processes), ``classify`` (fit a certificate
frontier from sampled norms), ``check`` (validate a certificate against
a process), ``convert`` (half-line kind conversion / exponent
unification), ``reject`` (nested-window evidence against a kind-I
dichotomy), ``robustness`` (perturbation constants and the transport
pipeline), ``attract`` (attractor radius envelopes), and ``pde``
(discretized parabolic demo).

Artifacts are deterministic byte-for-byte for a fixed config;
wall-clock metadata goes to a ``<out>.meta.json`` sidecar only.

``--grid start:stop:step`` is ``GridSpec(start, stop, step)``, so both
ends are always sampled, an off-lattice stop too.  ``--alpha-grid``,
``--t-grid`` and the ``pde`` ``t_grid`` are the points
``start + k*step`` up to stop.

Exit codes follow the exception class: 0 success; 2 validation failure
(``OSError``, ``KeyError``, ``TypeError``, ``ValueError``: a missing or
unwritable file, malformed JSON, a bad grid, an inapplicable bound);
3 numeric failure (``ArithmeticError``, ``RuntimeError``: an overflow
or an escaped solve); 64 usage error.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import sys

from . import gallery
from .attractor import make_linear_envelope, make_pullback_envelope
from .dichotomy import (
    DichotomyCertificate,
    check_certificate,
    classify,
    convert_halfline,
    nedi_rejection_evidence,
    unify_exponents,
)
from .parabolic import (
    BoundaryCondition,
    Grid1D,
    discretize,
    pde_process,
    principal_bundle,
    scalar_to_pde_transfer,
)
from .process import (
    GridSpec,
    ProjectionFamily,
    TimeDomain,
    _write_text,
    load_process_config,
    named_coefficient,
    sample_norm_grid,
)
from .robustness import robust_nedii_pipeline, robustness_constants

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems via exit code 64."""

    def error(self, message):
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


def _split(text: str, name: str):
    """The three floats of 'start:stop:step'."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("%s must look like start:stop:step" % name)
    return [float(p) for p in parts]


def _parse_range(text: str, name: str):
    """Parse 'start:stop:step' into the points of :func:`_range`."""
    return _range(*_split(text, name), name)


def _range(start: float, stop: float, step: float, name: str):
    """Points start + k*step up to stop inclusive (1e-12 slack)."""
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError("%s needs finite start, stop and step" % name)
    if step <= 0 or stop < start:
        raise ValueError("%s needs stop >= start and step > 0" % name)
    n = int(math.floor((stop - start) / step + 1e-12))
    return [start + k * step for k in range(n + 1)]


def _grid_spec(text: str) -> GridSpec:
    """``GridSpec(start, stop, step)`` of '--grid start:stop:step'."""
    return GridSpec(*_split(text, "--grid"))


def _json(payload) -> str:
    """Strict JSON text of a payload: every non-finite float is null."""
    return json.dumps(_strict(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _strict(value):
    """Copy of a JSON payload with every non-finite float replaced by
    None, so the dump is strict JSON (no NaN/Infinity tokens)."""
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _emit(path, text: str, argv) -> None:
    """Write text to stdout without a path, else to the file and its sidecar."""
    if path is None:
        sys.stdout.write(text)
        return
    _write_text(path, text)
    _write_sidecar(path, argv)


def _write_sidecar(path, argv) -> None:
    meta = {
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "argv": list(argv),
    }
    _write_text(str(path) + ".meta.json", json.dumps(meta, indent=2, allow_nan=False) + "\n")


# SUBCOMMANDS ==========================================================================

def _cmd_gallery(args, argv):
    if args.action == "list":
        rows = []
        for name in gallery.entry_names():
            entry = gallery.make_entry(name)
            for claim in entry.claims:
                c = claim.certificate
                rows.append((name, c.kind, c.domain.kind, "%.6g" % c.m,
                             "%.6g" % c.stable.rate, "%.6g" % c.stable.growth,
                             "yes" if claim.holds else "no"))
        widths = [max(len(r[i]) for r in rows) for i in range(7)]
        header = ("entry", "kind", "domain", "M", "rate", "growth", "holds")
        widths = [max(w, len(h)) for w, h in zip(widths, header)]
        fmt = "  ".join("%%-%ds" % w for w in widths)
        print(fmt % header)
        for r in rows:
            print(fmt % r)
        return EXIT_OK
    # eval
    grid = _grid_spec(args.grid)
    entry = gallery.make_entry(args.entry, **json.loads(args.params))
    payload = {"name": entry.name, "claims": entry.claims_json(),
               "notes": entry.notes}
    _emit(args.out, _json(payload), argv)
    if args.norms_out:
        sampled = sample_norm_grid(entry.process, None, grid, part="stable")
        sampled.to_csv(args.norms_out)
        _write_sidecar(args.norms_out, argv)
    return EXIT_OK


def _cmd_classify(args, argv):
    process = load_process_config(args.process)
    domain = TimeDomain(args.side)
    grid = _grid_spec(args.grid)
    alphas = _parse_range(args.alpha_grid, "--alpha-grid")
    projection = getattr(ProjectionFamily, args.projection)(process.dimension)
    frontier, cert = classify(process, projection, args.kind, grid, alphas,
                              part=args.part, domain=domain,
                              delta_max=args.delta_max, ln_m_max=args.ln_m_max)
    frontier.to_csv(args.out)
    _write_sidecar(args.out, argv)
    if cert is None:
        print("no feasible certificate within the caps", file=sys.stderr)
        return EXIT_VALIDATION
    _emit(args.cert_out, _json(cert.to_dict()), argv)
    return EXIT_OK


def _cmd_check(args, argv):
    process = load_process_config(args.process)
    cert = DichotomyCertificate.from_json(args.cert)
    grid = _grid_spec(args.grid)
    violation = check_certificate(process, cert, grid)
    payload = {"violation": violation, "tolerance": args.tol,
               "holds": bool(violation <= args.tol),
               "certificate": cert.to_dict()}
    _emit(args.out, _json(payload), argv)
    return EXIT_OK


def _cmd_convert(args, argv):
    cert = DichotomyCertificate.from_json(args.cert)
    out = unify_exponents(cert) if args.unify else convert_halfline(cert)
    _emit(args.out, _json(out.to_dict()), argv)
    return EXIT_OK


def _cmd_reject(args, argv):
    process = load_process_config(args.process)
    windows = []
    for token in args.windows.split(","):
        lo, hi = (float(v) for v in token.split(":"))
        windows.append((lo, hi))
    evidence = nedi_rejection_evidence(process, windows,
                                       resolution=args.resolution,
                                       step=args.step)
    payload = {
        "windows": [list(w) for w in evidence.windows],
        "box": [list(evidence.box[0]), list(evidence.box[1])],
        "resolution": evidence.resolution,
        "min_ln_m": evidence.min_ln_m,
        "growth_factors": {k: evidence.growth_factors(k)
                           for k in evidence.min_ln_m},
        "rejected": evidence.rejected(),
    }
    _emit(args.out, _json(payload), argv)
    return EXIT_OK


def _cmd_robustness(args, argv):
    report = robustness_constants(args.big_m, args.omega, args.upsilon,
                                  args.eps)
    payload = report.to_dict()
    pipeline = {"--process": args.process, "--perturbed": args.perturbed,
                "--cert": args.cert, "--grid": args.grid}
    missing = [name for name, value in pipeline.items() if value is None]
    if 0 < len(missing) < len(pipeline):
        raise ValueError("the pipeline needs --process, --perturbed, --cert and --grid "
                         "together; missing %s" % ", ".join(missing))
    if not missing:
        p = load_process_config(args.process)
        q = load_process_config(args.perturbed)
        cert = DichotomyCertificate.from_json(args.cert)
        grid = _grid_spec(args.grid)
        result = robust_nedii_pipeline(p, cert, q, args.upsilon, args.eps,
                                       grid)
        payload["pipeline"] = {
            "applicable": result.applicable,
            "distance": result.distance,
            "reason": result.reason,
            "dual_certificate": (None if result.dual_cert_of_q is None
                                 else result.dual_cert_of_q.to_dict()),
            "primal_certificate": (None if result.primal_cert_of_q is None
                                   else result.primal_cert_of_q.to_dict()),
            "dual_violation": result.dual_violation,
            "primal_violation": result.primal_violation,
        }
    _emit(args.out, _json(payload), argv)
    return EXIT_OK


def _radius_table(envelope, times) -> str:
    return "".join(["t,R\n"] + ["%.17g,%.17g\n" % (t, envelope(t)) for t in times])


def _cmd_attract(args, argv):
    cert = DichotomyCertificate.from_json(args.cert)
    times = _parse_range(args.t_grid, "--t-grid")
    _emit(args.out, _radius_table(make_pullback_envelope(cert, args.lam, args.bnorm), times),
          argv)
    return EXIT_OK


def _cmd_pde(args, argv):
    with open(args.config) as fh:
        cfg = json.load(fh)
    grid1d = Grid1D(float(cfg.get("L", 1.0)), int(cfg["N"]))
    bc = BoundaryCondition(cfg.get("bc", "dirichlet"),
                           robin_alpha=float(cfg.get("robin_alpha", 0.0)))
    lap = discretize(grid1d, bc)
    g_cfg = cfg.get("g", {"name": "constant", "rate": -1.0})
    g, _ = named_coefficient(g_cfg["name"], g_cfg)
    scalar_cert = DichotomyCertificate.from_dict(cfg["scalar_certificate"])
    process = pde_process(lap, separable_g=g)
    bundle = None
    if cfg.get("bundle", True):
        bundle = principal_bundle(process,
                                  horizon=float(cfg.get("horizon", 2.0)),
                                  stride=float(cfg.get("stride", 0.25)))
    transferred = scalar_to_pde_transfer(scalar_cert, lap, bundle)
    payload = {"leading_eigenvalue": lap.leading_eigenvalue,
               "certificate": transferred.to_dict()}
    if bundle is not None:
        payload["bundle"] = {"m_sep": bundle.m_sep, "nu_sep": bundle.nu_sep,
                             "c1": bundle.c1, "c2": bundle.c2}
    if args.radii_out:   # before the report, so that a bad t_grid writes nothing
        envelope = make_linear_envelope(transferred, float(cfg.get("lambda", 0.0)),
                                        float(cfg.get("bnorm", 1.0)))
        t0, t1, step = (float(v) for v in cfg.get("t_grid", [-10.0, 0.0, 0.5]))
        _emit(args.radii_out, _radius_table(envelope, _range(t0, t1, step, "t_grid")), argv)
    _emit(args.out, _json(payload), argv)
    return EXIT_OK


# PARSER ===============================================================================

def build_parser() -> _Parser:
    parser = _Parser(prog="nedlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gallery", help="list or evaluate fixture processes")
    p.add_argument("action", choices=["list", "eval"])
    p.add_argument("--entry", help="fixture name (for eval)")
    p.add_argument("--params", default="{}", help="JSON parameter overrides")
    p.add_argument("--grid", default="-10:10:0.5",
                   help="norm sampling window start:stop:step")
    p.add_argument("--out", help="claims JSON path (default stdout)")
    p.add_argument("--norms-out", help="optional sampled norm grid CSV")
    p.set_defaults(fn=_cmd_gallery)

    p = sub.add_parser("classify", help="fit a certificate frontier")
    p.add_argument("--process", required=True, help="process config JSON")
    p.add_argument("--kind", required=True, choices=["I", "II"])
    p.add_argument("--side", default="full",
                   choices=["full", "plus", "minus"])
    p.add_argument("--part", default="stable",
                   choices=["stable", "unstable"])
    p.add_argument("--projection", default="zero",
                   choices=["zero", "identity"])
    p.add_argument("--alpha-grid", required=True, help="start:stop:step")
    p.add_argument("--grid", default="-10:10:0.5", help="start:stop:step")
    p.add_argument("--delta-max", type=float, default=8.0)
    p.add_argument("--ln-m-max", type=float, default=8.0)
    p.add_argument("--out", required=True, help="frontier CSV path")
    p.add_argument("--cert-out", help="certificate JSON path (default stdout)")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("check", help="validate a certificate on a grid")
    p.add_argument("--process", required=True)
    p.add_argument("--cert", required=True)
    p.add_argument("--grid", default="-10:10:0.5")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", help="report JSON path (default stdout)")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("convert", help="half-line kind conversion")
    p.add_argument("--cert", required=True)
    p.add_argument("--unify", action="store_true",
                   help="trade anchor growth for exponent instead")
    p.add_argument("--out", help="output certificate JSON (default stdout)")
    p.set_defaults(fn=_cmd_convert)

    p = sub.add_parser("reject", help="nested-window kind-I rejection evidence")
    p.add_argument("--process", required=True)
    p.add_argument("--windows", required=True,
                   help="comma-separated lo:hi windows, strictly nested")
    p.add_argument("--resolution", type=float, default=0.05,
                   help="must be positive; no effect, the box corner gives the minimum")
    p.add_argument("--step", type=float, default=0.25)
    p.add_argument("--out", help="report JSON path (default stdout)")
    p.set_defaults(fn=_cmd_reject)

    p = sub.add_parser("robustness", help="perturbation constants / pipeline")
    p.add_argument("--M", dest="big_m", type=float, required=True)
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--upsilon", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--process", help="base process config (pipeline mode: with "
                   "--perturbed, --cert and --grid)")
    p.add_argument("--perturbed", help="perturbed process config")
    p.add_argument("--cert", help="kind-II certificate of the base process")
    p.add_argument("--grid", help="start:stop:step of the pipeline's checks")
    p.add_argument("--out", help="report JSON path (default stdout)")
    p.set_defaults(fn=_cmd_robustness)

    p = sub.add_parser("attract", help="pullback radius envelope table")
    p.add_argument("--cert", required=True)
    p.add_argument("--lam", type=float, default=0.0,
                   help="forcing growth weight")
    p.add_argument("--bnorm", type=float, required=True,
                   help="weighted sup norm of the forcing")
    p.add_argument("--t-grid", required=True, help="start:stop:step")
    p.add_argument("--out", help="envelope CSV path (default stdout)")
    p.set_defaults(fn=_cmd_attract)

    p = sub.add_parser("pde", help="discretized parabolic pipeline")
    p.add_argument("--config", required=True, help="demo config JSON")
    p.add_argument("--out", help="certificate/report JSON (default stdout)")
    p.add_argument("--radii-out", help="envelope radii CSV")
    p.set_defaults(fn=_cmd_pde)

    return parser


@functools.cache
def _parser() -> _Parser:
    """The one parser of this process; :func:`build_parser` sets no
    mutable default, so no call's values leak into the next."""
    return build_parser()


def run(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _parser().parse_args(argv)
    try:
        return args.fn(args, argv)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        print("validation error: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION
    except (ArithmeticError, RuntimeError) as exc:
        print("numeric failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERIC


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
