import json
import math
import pathlib

import pytest

import nedlab as nl
from nedlab import cli
from nedlab.cli import run

#: ``nedlab gallery list``; CI diffs the installed script's output against it too.
GALLERY_LIST = pathlib.Path(__file__).parent / "data" / "gallery_list.txt"
#: Fixed configs, the commands of ``commands.txt`` and their outputs in ``golden/``;
#: CI runs the same commands through the installed script (``run.sh``).
CLI_DATA = pathlib.Path(__file__).parent / "data" / "cli"


CONSTANT_DECAY = {"backend": "numerically-integrated",
                  "coefficient": "constant", "params": {"rate": -2.0}}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _cert_dict(rate, growth=0.0, m=1.0, kind="II", domain="plus"):
    return {"kind": kind, "domain": domain, "M": m,
            "stable": {"alpha": rate, "delta": growth},
            "unstable": None, "projection": "zero"}


class TestUsage:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 64

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            run(["check", "--grid", "0:1:0.5"])
        assert exc.value.code == 64

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            run(["gallery", "list", "--verbose"])
        assert exc.value.code == 64

    def test_removed_threads_flag(self):
        with pytest.raises(SystemExit) as exc:
            run(["--threads", "2", "gallery", "list"])
        assert exc.value.code == 64

    def test_removed_seed_flag(self):
        with pytest.raises(SystemExit) as exc:
            run(["--seed", "1", "gallery", "list"])
        assert exc.value.code == 64


class TestParser:
    def test_one_parser_per_process(self):
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()

    def test_consecutive_runs_share_no_values(self, tmp_path):
        parse = cli._parser().parse_args
        first = parse(["check", "--process", "p.json", "--cert", "c.json", "--tol", "0.5"])
        assert parse(["gallery", "list"]).action == "list"
        second = parse(["check", "--process", "q.json", "--cert", "d.json"])
        assert (first.tol, second.tol) == (0.5, 1e-9)
        assert (first.process, second.process) == ("p.json", "q.json")
        assert not hasattr(parse(["convert", "--cert", "c.json"]), "tol")
        tuned, default = tmp_path / "tuned.json", tmp_path / "default.json"
        assert run(["gallery", "eval", "--entry", "barreira",
                    "--params", '{"a": 0.5, "b": 1.0}', "--out", str(tuned)]) == 0
        assert run(["gallery", "eval", "--entry", "barreira", "--out", str(default)]) == 0
        assert json.loads(default.read_text())["claims"] == nl.make_entry("barreira").claims_json()
        assert json.loads(tuned.read_text())["notes"] == "a=0.5 b=1"


class TestGallery:
    def test_list_matches_the_golden_table(self, capsys):
        assert run(["gallery", "list"]) == 0
        assert capsys.readouterr().out == GALLERY_LIST.read_text()

    def test_list(self, capsys):
        assert run(["gallery", "list"]) == 0
        out = capsys.readouterr().out
        assert "barreira" in out
        assert "sign-switch" in out
        assert out.splitlines()[0].split()[:2] == ["entry", "kind"]

    def test_eval_writes_claims_and_sidecar(self, tmp_path):
        out = tmp_path / "claims.json"
        assert run(["gallery", "eval", "--entry", "barreira",
                    "--params", '{"a": 1.0, "b": 2.0}',
                    "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["name"] == "barreira"
        assert payload["claims"]
        meta = json.loads((tmp_path / "claims.json.meta.json").read_text())
        assert "created" in meta and "argv" in meta

    def test_eval_norms_csv(self, tmp_path):
        out = tmp_path / "claims.json"
        norms = tmp_path / "norms.csv"
        assert run(["gallery", "eval", "--entry", "barreira",
                    "--grid", "0:5:0.5", "--out", str(out),
                    "--norms-out", str(norms)]) == 0
        lines = norms.read_text().strip().splitlines()
        assert len(lines) > 10

    def test_eval_unknown_entry(self, tmp_path):
        assert run(["gallery", "eval", "--entry", "nope",
                    "--out", str(tmp_path / "x.json")]) == 2


class TestClassify:
    def test_recovers_constant_rate(self, tmp_path):
        cfg = _write(tmp_path, "p.json", CONSTANT_DECAY)
        frontier = tmp_path / "frontier.csv"
        cert_out = tmp_path / "cert.json"
        assert run(["classify", "--process", cfg, "--kind", "II",
                    "--side", "plus", "--alpha-grid", "0:3:0.25",
                    "--grid", "0:10:0.5", "--out", str(frontier),
                    "--cert-out", str(cert_out)]) == 0
        cert = json.loads(cert_out.read_text())
        assert cert["stable"]["alpha"] >= 2.0 - 1e-9
        lines = frontier.read_text().strip().splitlines()
        assert lines[0].startswith("alpha")
        # The true decay rate appears on the frontier with no anchor
        # growth needed.
        rows = {float(r.split(",")[0]): float(r.split(",")[1])
                for r in lines[1:]}
        assert rows[2.0] <= 1e-9

    def test_unknown_coefficient_exits_2(self, tmp_path):
        cfg = _write(tmp_path, "p.json",
                     {"backend": "numerically-integrated",
                      "coefficient": "chaotic", "params": {}})
        assert run(["classify", "--process", cfg, "--kind", "II",
                    "--alpha-grid", "0.5:2:0.5", "--out", str(tmp_path / "f.csv")]) == 2

    def test_zeroed_part_exits_2(self, tmp_path, capsys):
        cfg = _write(tmp_path, "p.json", CONSTANT_DECAY)
        frontier = tmp_path / "frontier.csv"
        assert run(["classify", "--process", cfg, "--kind", "II", "--part", "unstable",
                    "--projection", "zero", "--alpha-grid", "0.5:2:0.5",
                    "--out", str(frontier)]) == 2
        assert ("the 'zero' projection family zeroes the unstable part"
                in capsys.readouterr().err)
        assert not frontier.exists()

    def test_infeasible_exits_2(self, tmp_path):
        cfg = _write(tmp_path, "p.json",
                     {"backend": "numerically-integrated",
                      "coefficient": "constant", "params": {"rate": 3.0}})
        frontier = tmp_path / "frontier.csv"
        assert run(["classify", "--process", cfg, "--kind", "II",
                    "--alpha-grid", "0.5:2:0.5", "--grid=-10:10:0.5",
                    "--out", str(frontier)]) == 2
        assert frontier.exists()  # the frontier report is still written


class TestCheck:
    def test_holding_certificate(self, tmp_path):
        cfg = _write(tmp_path, "p.json", CONSTANT_DECAY)
        cert = _write(tmp_path, "c.json", _cert_dict(2.0))
        out = tmp_path / "report.json"
        assert run(["check", "--process", cfg, "--cert", cert,
                    "--grid", "0:10:0.5", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["holds"] is True
        assert payload["violation"] <= 1e-9

    def test_failing_certificate_still_exit_0(self, tmp_path):
        # A violated bound is a result, not an error.
        cfg = _write(tmp_path, "p.json", CONSTANT_DECAY)
        cert = _write(tmp_path, "c.json", _cert_dict(5.0))
        out = tmp_path / "report.json"
        assert run(["check", "--process", cfg, "--cert", cert,
                    "--grid", "0:10:0.5", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["holds"] is False
        assert payload["violation"] > 1.0

    def test_bad_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        cert = _write(tmp_path, "c.json", _cert_dict(2.0))
        assert run(["check", "--process", str(bad), "--cert", cert]) == 2


class TestConvert:
    def test_kind_shift(self, tmp_path):
        cert = _write(tmp_path, "c.json",
                      _cert_dict(1.0, growth=0.5, kind="I"))
        out = tmp_path / "out.json"
        assert run(["convert", "--cert", cert, "--out", str(out)]) == 0
        converted = json.loads(out.read_text())
        assert converted["kind"] == "II"
        assert converted["stable"]["alpha"] == pytest.approx(1.5)
        assert converted["stable"]["delta"] == pytest.approx(0.5)

    def test_unify(self, tmp_path):
        cert = _write(tmp_path, "c.json", _cert_dict(2.0, growth=0.5))
        out = tmp_path / "out.json"
        assert run(["convert", "--cert", cert, "--unify",
                    "--out", str(out)]) == 0
        unified = json.loads(out.read_text())
        assert unified["kind"] == "I"
        assert unified["stable"]["alpha"] == pytest.approx(1.5)

    def test_full_line_exits_2(self, tmp_path):
        cert = _write(tmp_path, "c.json", _cert_dict(2.0, domain="full"))
        assert run(["convert", "--cert", cert]) == 2


class TestReject:
    def test_sign_switch_rejected(self, tmp_path):
        cfg = _write(tmp_path, "p.json",
                     {"backend": "closed-form-exponent",
                      "family": "sign-switch"})
        out = tmp_path / "reject.json"
        assert run(["reject", "--process", cfg,
                    "--windows", "0:10,0:20", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        # The zero-projection minimal constant blows up between windows.
        assert min(payload["min_ln_m"]["zero"]) > 1.0
        assert payload["growth_factors"]["zero"][0] >= math.e
        assert "rejected" in payload

    def test_bad_windows_exit_2(self, tmp_path):
        cfg = _write(tmp_path, "p.json",
                     {"backend": "closed-form-exponent",
                      "family": "sign-switch"})
        assert run(["reject", "--process", cfg,
                    "--windows", "0:20,0:10"]) == 2  # not nested outward

    @pytest.mark.parametrize("resolution", ["0", "-0.1"])
    def test_bad_resolution_exit_2(self, tmp_path, capsys, resolution):
        cfg = _write(tmp_path, "p.json",
                     {"backend": "closed-form-exponent",
                      "family": "sign-switch"})
        out = tmp_path / "reject.json"
        assert run(["reject", "--process", cfg, "--windows", "0:5,0:10",
                    "--resolution=" + resolution, "--out", str(out)]) == 2
        assert "resolution must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_resolution_has_no_effect(self, tmp_path):
        cfg = _write(tmp_path, "p.json",
                     {"backend": "closed-form-exponent",
                      "family": "sign-switch"})
        texts = []
        for resolution in ("0.05", "0.3"):
            out = tmp_path / ("reject-%s.json" % resolution)
            assert run(["reject", "--process", cfg, "--windows", "0:5,0:10",
                        "--resolution", resolution, "--out", str(out)]) == 0
            payload = json.loads(out.read_text())
            assert payload["resolution"] == float(resolution)
            del payload["resolution"]
            texts.append(payload)
        assert texts[0] == texts[1]


class TestRobustness:
    def test_constants_json(self, tmp_path):
        out = tmp_path / "rob.json"
        assert run(["robustness", "--M", "1", "--omega", "1",
                    "--upsilon", "0.2", "--eps", "0.1",
                    "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["omega_tilde"] == pytest.approx(0.7496332314357939,
                                                       rel=1e-12)
        assert payload["admissible"] is True

    def test_non_finite_constants_are_strict_null(self, capsys):
        assert run(["robustness", "--M", "1", "--omega", "0.1",
                    "--upsilon", "0.05", "--eps", "0.9"]) == 0

        def reject(token):
            raise ValueError("non-strict JSON token %s" % token)
        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert payload["M1"] is None
        assert payload["admissible"] is False
        assert math.isfinite(payload["rho"])

    @pytest.mark.parametrize("omega", ["0", "1e-300"])
    def test_degenerate_omega_is_a_strict_report(self, capsys, omega):
        # 1 - e^{-omega} is 0: the quotients are inf/NaN, written as null.
        assert run(["robustness", "--M", "1", "--omega", omega,
                    "--upsilon", "0", "--eps", "0.1"]) == 0

        def reject(token):
            raise ValueError("non-strict JSON token %s" % token)
        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert (payload["rho"], payload["M_hat"]) == (None, None)
        assert payload["admissible"] is False
        assert not payload["flags"]["rho_below_one"]

    def test_pipeline_mode(self, tmp_path):
        base = _write(tmp_path, "p.json",
                      {"backend": "numerically-integrated",
                       "coefficient": "constant", "params": {"rate": -1.0}})
        pert = _write(tmp_path, "q.json",
                      {"backend": "numerically-integrated",
                       "coefficient": "constant", "params": {"rate": -1.01}})
        cert = _write(tmp_path, "c.json",
                      _cert_dict(1.0, m=1.0, domain="full"))
        out = tmp_path / "rob.json"
        assert run(["robustness", "--M", "1", "--omega", "1",
                    "--upsilon", "0", "--eps", "0.1",
                    "--process", base, "--perturbed", pert,
                    "--cert", cert, "--grid=-3:3:0.5",
                    "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["pipeline"]["applicable"] is True
        assert payload["pipeline"]["primal_violation"] <= 1e-9
        assert payload["pipeline"]["primal_certificate"]["kind"] == "II"


class TestAttract:
    def test_envelope_table(self, tmp_path):
        cert = _write(tmp_path, "c.json",
                      _cert_dict(2.0, growth=0.5, m=2.0, domain="full"))
        out = tmp_path / "radii.csv"
        assert run(["attract", "--cert", cert, "--bnorm", "1.0",
                    "--lam", "0.0", "--t-grid=-2:0:1",
                    "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,R"
        t, r = (float(v) for v in lines[1].split(","))
        assert t == -2.0
        assert r == pytest.approx(math.sqrt((2.0 / 2.0)
                                            * math.exp(0.5 * 2.0)))

    def test_inapplicable_envelope_exits_2(self, tmp_path):
        cert = _write(tmp_path, "c.json",
                      _cert_dict(1.0, growth=2.0, m=1.0, domain="full"))
        out = tmp_path / "radii.csv"
        assert run(["attract", "--cert", cert, "--bnorm", "1.0",
                    "--lam", "0.5", "--t-grid=-2:0:1",
                    "--out", str(out)]) == 2
        assert not out.exists()


class TestPde:
    def _config(self, tmp_path, **over):
        cfg = {"N": 9, "L": 1.0, "bc": "dirichlet",
               "g": {"name": "constant", "rate": -1.0},
               "scalar_certificate": _cert_dict(1.0, m=1.0, domain="full"),
               "bundle": True, "lambda": 0.0, "bnorm": 1.0,
               "t_grid": [-2.0, 0.0, 1.0]}
        cfg.update(over)
        return _write(tmp_path, "pde.json", cfg)

    def test_transfer_report(self, tmp_path):
        cfg = self._config(tmp_path)
        out = tmp_path / "pde_out.json"
        radii = tmp_path / "radii.csv"
        assert run(["pde", "--config", cfg, "--out", str(out),
                    "--radii-out", str(radii)]) == 0
        payload = json.loads(out.read_text())
        lam1 = payload["leading_eigenvalue"]
        assert payload["certificate"]["stable"]["alpha"] == pytest.approx(
            1.0 + abs(lam1))
        assert payload["bundle"]["nu_sep"] > 0.0
        assert radii.read_text().startswith("t,R")

    def test_radii_table_is_the_linear_envelope(self, tmp_path):
        cfg = self._config(tmp_path, t_grid=[-3.0, 0.0, 0.5], bnorm=0.5)
        out, radii = tmp_path / "pde_out.json", tmp_path / "radii.csv"
        assert run(["pde", "--config", cfg, "--out", str(out),
                    "--radii-out", str(radii)]) == 0
        cert = nl.DichotomyCertificate.from_dict(json.loads(out.read_text())["certificate"])
        envelope = nl.make_linear_envelope(cert, 0.0, 0.5)
        times = [-3.0 + 0.5 * k for k in range(7)]
        assert radii.read_text() == "t,R\n" + "".join(
            "%.17g,%.17g\n" % (t, envelope(t)) for t in times)

    def test_bad_radii_grid_exits_2(self, tmp_path):
        cfg = self._config(tmp_path, t_grid=[-2.0, 0.0, 0.0])
        assert run(["pde", "--config", cfg, "--out", str(tmp_path / "o.json"),
                    "--radii-out", str(tmp_path / "r.csv")]) == 2
        assert not (tmp_path / "o.json").exists()   # a failed command writes nothing

    def test_unknown_coefficient_exits_2(self, tmp_path):
        cfg = self._config(tmp_path, g={"name": "chaotic"})
        assert run(["pde", "--config", cfg]) == 2

    @pytest.mark.parametrize("name", sorted(nl.process.COEFFICIENTS))
    def test_every_registered_coefficient(self, tmp_path, name):
        # The command passes the coefficient alone, so G comes from quadrature.
        cfg = self._config(tmp_path, g={"name": name, "rate": -1.0})
        out = tmp_path / "pde_out.json"
        assert run(["pde", "--config", cfg, "--out", str(out)]) == 0
        g, _ = nl.process.named_coefficient(name, {"rate": -1.0})
        lap = nl.discretize(nl.Grid1D(1.0, 9), nl.BoundaryCondition("dirichlet"))
        bundle = nl.principal_bundle(nl.pde_process(lap, separable_g=g))
        got = json.loads(out.read_text())["bundle"]
        assert (got["m_sep"], got["nu_sep"]) == (bundle.m_sep, bundle.nu_sep)


def _degenerate_cases():
    """(argv, exit code) of every subcommand on degenerate inputs: omega 0,
    1e-300 or +-1000; inf or nan grid, t-grid and window bounds; JSON of
    the wrong shape; an identity certificate with no unstable pair; a
    closed-form config on another domain than its family's; an output
    path that is a folder.  {data} is the CLI
    data folder and {tmp} a scratch folder."""
    d = "{data}/"
    pipeline = ["--process", d + "base.json", "--perturbed", d + "perturbed.json",
                "--cert", d + "cert_ii_full.json"]
    constants = ["robustness", "--M", "1", "--upsilon", "0", "--eps", "0.1"]
    classify = ["classify", "--process", d + "decay.json", "--kind", "II", "--side", "plus",
                "--out", "{tmp}/f.csv"]
    check = ["check", "--process", d + "decay.json", "--cert", d + "cert_ii_plus.json"]
    attract = ["attract", "--cert", d + "cert_attract.json", "--bnorm", "1"]
    barreira = ["gallery", "eval", "--entry", "barreira"]
    return [
        (barreira + ["--params", '{"zz": 1}'], 2),
        (barreira + ["--params", "[1]"], 2),
        (barreira + ["--params", '{"a": "x"}'], 2),
        (barreira + ["--grid", "0:inf:0.5"], 2),
        (["check", "--process", "{tmp}/list_params.json", "--cert", d + "cert_ii_plus.json"], 2),
        (["convert", "--cert", d + "cert_i_plus.json", "--out", "{tmp}"], 2),
        (["gallery", "eval", "--entry", "barreira", "--grid", "0:inf:0.5",
          "--norms-out", "{tmp}/n.csv"], 2),
        (["gallery", "eval", "--entry", "barreira", "--grid", "nan:1:0.5",
          "--norms-out", "{tmp}/n.csv"], 2),
        (classify + ["--alpha-grid", "0:inf:0.25", "--grid", "0:10:0.5"], 2),
        (classify + ["--alpha-grid", "0:3:0.25", "--grid", "0:nan:0.5"], 2),
        (check + ["--grid", "0:inf:0.5"], 2),
        (check + ["--grid", "0:1:inf"], 2),
        (["convert", "--cert", "{tmp}/nan_cert.json"], 2),
        (["reject", "--process", d + "sign_switch.json", "--windows", "0:10,0:inf"], 2),
        (["reject", "--process", d + "sign_switch.json", "--windows", "0:nan,0:20"], 2),
        (constants + ["--omega", "0"], 0),
        (constants + ["--omega", "1e-300"], 0),
        (constants + ["--omega", "1000"], 0),
        (constants + ["--omega", "-1000"], 0),
        (constants + ["--omega", "0"] + pipeline + ["--grid=-3:3:0.5"], 0),
        (constants + ["--omega", "1"] + pipeline + ["--grid=-3:inf:0.5"], 2),
        (constants + ["--omega", "1", "--process", d + "base.json", "--grid", "0:inf:1"], 2),
        (constants + ["--omega", "1"] + pipeline, 2),
        (constants + ["--omega", "1", "--grid=-3:3:0.5"], 2),
        (attract + ["--t-grid=-inf:0:0.5"], 2),
        (attract + ["--t-grid=-4:0:nan"], 2),
        (["pde", "--config", "{tmp}/pde.json", "--radii-out", "{tmp}/r.csv"], 2),
        (["check", "--process", d + "growth.json", "--cert", "{tmp}/no_pair_cert.json"], 2),
        (["check", "--process", "{tmp}/minus_factorial.json", "--cert",
          d + "cert_ii_plus.json"], 2),
    ]


class TestDegenerateNumbers:
    @pytest.mark.parametrize("argv, code", _degenerate_cases(),
                             ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
    def test_exit_code_contract(self, tmp_path, argv, code):
        # A non-finite bound is a validation failure (2); no exception escapes.
        _write(tmp_path, "nan_cert.json", _cert_dict(math.nan, m=math.inf))
        _write(tmp_path, "list_params.json", dict(CONSTANT_DECAY, params=[1]))
        _write(tmp_path, "no_pair_cert.json", dict(_cert_dict(1.0), projection="identity"))
        _write(tmp_path, "minus_factorial.json", {"backend": "closed-form-exponent",
                                                  "family": "factorial-steps",
                                                  "domain": "minus"})
        _write(tmp_path, "pde.json", {"N": 5, "g": {"name": "constant", "rate": -1.0},
                                      "scalar_certificate": _cert_dict(1.0, domain="full"),
                                      "bundle": False, "t_grid": [-math.inf, 0.0, 0.5]})
        argv = [a.replace("{data}", str(CLI_DATA)).replace("{tmp}", str(tmp_path))
                for a in argv]
        assert run(argv) == code


class TestGrid:
    def test_grid_is_the_spec(self):
        spec = cli._grid_spec("0:10:0.3")
        assert spec == nl.GridSpec(0.0, 10.0, 0.3)
        assert spec.mesh()[-1] == 10.0   # the off-lattice stop is sampled
        assert cli._grid_spec("0:1:2").mesh().tolist() == [0.0, 1.0]

    def test_off_lattice_stop_is_checked(self, tmp_path):
        # x' = 0.5 x on R+ against ln M = 4.97, alpha = delta = 1: the bound
        # fails only at t = 10, by 0.03, off the lattice 0, 0.3, ..., 9.9.
        process, cert = CLI_DATA / "growth.json", CLI_DATA / "cert_growth.json"
        out = tmp_path / "check.json"
        assert run(["check", "--process", str(process), "--cert", str(cert),
                    "--grid", "0:10:0.3", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        library = nl.check_certificate(nl.load_process_config(str(process)),
                                       nl.DichotomyCertificate.from_json(str(cert)),
                                       nl.GridSpec(0.0, 10.0, 0.3))
        assert payload["violation"] == library == pytest.approx(0.03, abs=1e-12)
        assert payload["holds"] is False


class TestDeterminism:
    def test_artifacts_byte_identical_across_runs(self, tmp_path):
        cfg = _write(tmp_path, "p.json", CONSTANT_DECAY)
        cert = _write(tmp_path, "c.json", _cert_dict(2.0))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run(["check", "--process", cfg, "--cert", cert,
                        "--grid", "0:10:0.5", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()
        # Timestamps live only in the sidecars, never in the artifact.
        assert "created" not in a.read_text()



def _golden_commands():
    lines = (CLI_DATA / "commands.txt").read_text().splitlines()
    return [line for line in lines if line and not line.startswith("#")]


class TestGoldenArtifacts:
    @pytest.mark.parametrize("line", _golden_commands(), ids=lambda line: line.split(" --out")[0])
    def test_outputs_match_the_goldens(self, tmp_path, line):
        argv = line.replace("{data}", str(CLI_DATA)).replace("{out}", str(tmp_path)).split()
        assert run(argv) == 0
        written = sorted(p.name for p in tmp_path.iterdir() if not p.name.endswith(".meta.json"))
        assert written
        for name in written:
            assert (tmp_path / name).read_bytes() == (CLI_DATA / "golden" / name).read_bytes(), name

    def test_every_golden_is_written(self):
        names = {part.split("/")[-1] for line in _golden_commands()
                 for part in line.split() if part.startswith("{out}/")}
        assert names == {p.name for p in (CLI_DATA / "golden").iterdir()}
