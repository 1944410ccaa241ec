import ast
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import hbspace
from hbspace.cli import main

HALF_SUM = {"form": "rational", "numerator": [[0.5, 0.0], [0.5, 0.0]],
            "denominator": [[1.0, 0.0]]}
LEBESGUE = {"disk_atoms": [], "ac_density": {"power": {"beta": 0.0, "scale": 1.0,
                                                       "singularity_angle": 0.0}},
            "singular_atoms": [], "radial": []}
MU_BETA = {"disk_atoms": [], "ac_density": None, "singular_atoms": [],
           "radial": [{"angle": 0.0, "power_beta": 0.5, "scale": 1.0}]}


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, doc in (("b", HALF_SUM), ("m", LEBESGUE), ("mu_beta", MU_BETA)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    return paths


class TestExitCodes:
    def test_mate_ok(self, files, capsys):
        assert main(["mate", "--b", files["b"]]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["extremeness"]["verdict"] == "non-extreme"

    def test_reverse_fail_is_determinate(self, files, tmp_path):
        out = tmp_path / "report.json"
        code = main(["analyze-reverse", "--b", files["b"], "--mu", files["m"],
                     "--depth", "8", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["overall"] == "not-reverse-carleson"
        assert doc["conditions"]["MainThm.4"]["verdict"] == "fail"
        assert "integrable" in doc["diagnostics"]["symbol_certificate"]

    def test_direct_dichotomy(self, files, capsys):
        code = main(["analyze-direct", "--b", files["b"], "--mu", files["mu_beta"],
                     "--depth", "10"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["overall"] == "carleson-for-hb"

    def test_malformed_json_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["mate", "--b", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_resolution_bounds_enforced(self, files, capsys):
        assert main(["mate", "--b", files["b"], "--grid-exp", "25"]) == 1
        assert main(["corona", "--b", files["b"], "--depth", "2"]) == 1

    def test_no_verdict_text_on_stderr(self, files, capsys):
        main(["analyze-direct", "--b", files["b"], "--mu", files["mu_beta"],
              "--depth", "8"])
        assert capsys.readouterr().err == ""


class TestVerbs:
    def test_a2_alpha_shortcut(self, capsys):
        assert main(["a2", "--alpha", "0.25", "--depth", "10"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "pass"
        assert set(doc) == {"verdict", "scan"}
        assert set(doc["scan"]) == {"mode", "depth", "value", "per_level", "cumulative",
                                    "witness", "exponent", "stabilized", "divergent",
                                    "infinite_witnesses"}

    def test_a2_weight_file(self, tmp_path, capsys):
        w = tmp_path / "w.json"
        w.write_text(json.dumps({"power": {"exponent": 1.5, "scale": 1.0, "angle": 0.0}}))
        assert main(["a2", "--weight", str(w), "--depth", "10"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "fail"

    def test_norms_kernel(self, files, capsys):
        assert main(["norms", "--b", files["b"], "--kernel", "0.5,0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["hb_norm"] == pytest.approx(np.sqrt(40.0 / 3.0), rel=1e-6)
        assert doc["closed_form"] == pytest.approx(doc["hb_norm"], rel=1e-6)

    def test_corona(self, files, capsys):
        assert main(["corona", "--b", files["b"], "--depth", "10"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"infimum", "witness", "per_level", "cumulative", "verdict"}
        assert doc["verdict"] == "pass"
        assert doc["infimum"] == pytest.approx(1.0)

    def test_corona_csv_format_writes_the_json_report(self, files, tmp_path):
        csv_out, json_out = tmp_path / "corona.csv", tmp_path / "corona.json"
        for fmt, out in (("csv", csv_out), ("json", json_out)):
            assert main(["corona", "--b", files["b"], "--depth", "8", "--format", fmt,
                         "--out", str(out)]) == 0
        assert csv_out.read_bytes() == json_out.read_bytes()

    @pytest.mark.parametrize("verb, evidence", [
        ("analyze-direct", {"H2Window.mu": {"exponent", "per_level"},
                            "CorRationnel.nu": {"exponent", "per_level"}}),
        ("analyze-reverse", {"Sarason.L1gap": {"feasible", "certificate"},
                             "MainThm.4": {"per_level"}, "MainThm.3": {"per_level"},
                             "MainThm.2": {"per_level_max"}}),
        ("analyze-equivalence", {"EquivNorm.admissible": {"a_admissible", "b_admissible"},
                                 "EquivNorm.corona": {"per_level"},
                                 "EquivNorm.a2": {"exponent", "infinite_witnesses"},
                                 "EquivNorm.window_inf": set(),
                                 "EquivNorm.window_sup": {"exponent"}}),
    ])
    def test_condition_and_evidence_keys(self, files, capsys, verb, evidence):
        assert main([verb, "--b", files["b"], "--mu", files["m"], "--depth", "8"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["conditions"]) == set(evidence)
        for name, cond in doc["conditions"].items():
            assert set(cond) == {"verdict", "value", "resolutions", "witness", "evidence"}
            assert set(cond["evidence"]) == evidence[name]

    def test_scenario_list(self, capsys):
        assert main(["scenario", "list"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "mu-beta" in doc["catalog"]

    def test_scenario_run_with_params(self, tmp_path):
        out = tmp_path / "scenario.json"
        code = main(["scenario", "run", "mu-beta", "--param", "beta=0.5",
                     "--depth", "10", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["ok"] is True

    def test_scan_dump_columns(self, files, capsys):
        assert main(["scan-dump", "--kind", "carleson", "--mu", files["mu_beta"],
                     "--depth", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "level,arc_center,arc_length,value"
        # rows round-trip through the documented column contract
        level, center, length, value = lines[1].split(",")
        assert int(level) == 1 and 0 <= float(center) < 2 * np.pi
        assert 0 < float(length) <= 1.0 and float(value) >= 0


class TestDeterminism:
    def test_repeated_scenario_runs_are_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            code = main(["scenario", "run", "reverse-canonical", "--depth", "8",
                         "--seed", "3", "--out", str(out)])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_atomic_write_leaves_no_temp_files(self, files, tmp_path):
        out = tmp_path / "rep.json"
        main(["mate", "--b", files["b"], "--out", str(out)])
        leftovers = [p for p in out.parent.iterdir() if p.name.startswith(".hb-")]
        assert out.exists() and not leftovers


class TestOneParser:
    def test_two_verbs_in_one_process_share_one_parser(self, files, capsys, monkeypatch):
        from hbspace import cli

        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        assert main(["corona", "--b", files["b"], "--depth", "10"]) == 0
        corona = json.loads(capsys.readouterr().out)
        assert main(["norms", "--b", files["b"], "--kernel", "0.5,0"]) == 0
        norms = json.loads(capsys.readouterr().out)
        assert builds == [1]
        assert corona["verdict"] == "pass" and corona["infimum"] == pytest.approx(1.0)
        assert norms["hb_norm"] == pytest.approx(np.sqrt(40.0 / 3.0), rel=1e-6)
        # a usage error reads the same on every call
        errors = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["norms", "--b", files["b"]])
            assert exc.value.code == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] and "one of the arguments" in errors[0]


class TestRemainingVerbs:
    def test_norms_monomial_and_coeffs(self, files, tmp_path, capsys):
        assert main(["norms", "--b", files["b"], "--monomial", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["hb_norm"] == pytest.approx(np.sqrt(2.0), rel=1e-9)
        coeffs = tmp_path / "f.json"
        coeffs.write_text(json.dumps([[1.0, 0.0], [0.0, 0.5]]))
        assert main(["norms", "--b", files["b"], "--coeffs", str(coeffs)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["hb_norm"] > 0

    def test_norms_monomial_on_a_slowly_decaying_symbol(self, tmp_path, capsys):
        from hbspace import SymbolB, pythagorean_mate, taylor_b_over_a

        b = tmp_path / "b.json"
        b.write_text(json.dumps({"form": "rational", "numerator": [[0.045, 0.0]],
                                 "denominator": [[1.0, 0.0], [-0.95, 0.0]]}))
        assert main(["norms", "--b", str(b), "--monomial", "3"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        c = taylor_b_over_a(pythagorean_mate(SymbolB.rational([0.045], [1.0, -0.95])), 16)
        expect = np.sqrt(1.0 + np.sum(np.abs(c.coefficients[:4]) ** 2))
        assert json.loads(captured.out)["hb_norm"] == pytest.approx(expect, rel=1e-9)

    def test_norms_kernel_with_clustered_blaschke_zeros(self, tmp_path, capsys):
        # b = B 0.7 with the zeros 1 - 2^-n, n = 1..12: the series of B is the
        # product of its factors' series, and the norm stabilizes
        b = tmp_path / "b.json"
        b.write_text(json.dumps({"form": "inner_times_outer",
                                 "blaschke_zeros": [[1.0 - 2.0 ** -n, 0.0] for n in range(1, 13)],
                                 "modulus_samples": [0.7] * 1024}))
        assert main(["norms", "--b", str(b), "--kernel", "0.9,0"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        doc = json.loads(captured.out)
        assert doc["hb_norm"] == pytest.approx(doc["closed_form"], rel=0.0, abs=1e-9)

    def test_norms_kernel_near_the_circle(self, files, capsys):
        # the kernel's Taylor series fills most of the truncation cap
        assert main(["norms", "--b", files["b"], "--kernel", "0.999,0"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        doc = json.loads(captured.out)
        # (1 + |b/a|^2)/(1 - lam^2) with b(0.999) = 1.999/2, a(0.999) = 0.001/2
        assert doc["hb_norm"] ** 2 == pytest.approx(1999000500.25, rel=1e-12)
        assert doc["closed_form"] ** 2 == pytest.approx(1999000500.25, rel=1e-12)

    def test_analyze_direct_on_a_rotated_double_zero(self, tmp_path, capsys):
        # the mate (1 - e^(-i pi/2) z)^2/4 has a double zero at angle pi/2, which
        # splits into roots about 1e-8 off the circle before it is snapped back
        from hbspace.functions import fejer_riesz, modulus_squared_coeffs

        tau = -modulus_squared_coeffs(np.array([0.25, -0.5, 0.25]))
        tau[0] += 1.0
        q = fejer_riesz(tau).q * np.exp(-0.5j * np.pi) ** np.arange(3)
        b = tmp_path / "b.json"
        b.write_text(json.dumps({"form": "rational",
                                 "numerator": [[v.real, v.imag] for v in q],
                                 "denominator": [[1.0, 0.0]]}))
        m = tmp_path / "m.json"
        m.write_text(json.dumps(LEBESGUE))
        assert main(["analyze-direct", "--b", str(b), "--mu", str(m), "--depth", "8"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        doc = json.loads(captured.out)
        assert doc["diagnostics"]["falpha_certificate"]["boundary_root_count"] == 2

    def test_analyze_equivalence(self, files, capsys):
        code = main(["analyze-equivalence", "--b", files["b"], "--mu", files["m"],
                     "--depth", "8"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["overall"] == "not-equivalent"

    def test_scan_dump_reverse(self, files, capsys):
        assert main(["scan-dump", "--kind", "reverse", "--mu", files["m"],
                     "--depth", "4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "level,arc_center,arc_length,value"


class TestImportHygiene:
    @staticmethod
    def _fresh(script, *args):
        """Run `script` in a fresh interpreter on this checkout; its last stdout line as JSON."""
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", script, *args], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        return json.loads(out.stdout.strip().splitlines()[-1])

    def test_cli_imports_and_cheap_verbs_load_no_scipy(self, tmp_path):
        half = tmp_path / "half.json"
        half.write_text(json.dumps(HALF_SUM))
        power = tmp_path / "power.json"
        power.write_text(json.dumps({"power": {"exponent": 1.5}}))
        script = (
            "import json, sys\n"
            "import hbspace.cli\n"
            "heavy = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
            "                       or m.split('.')[:2] == ['numpy', 'ma'])\n"
            "seen = {'import': heavy()}\n"
            "for args in (['mate', '--b', sys.argv[1]],\n"
            "             ['norms', '--b', sys.argv[1], '--kernel', '0.5,0'],\n"
            "             ['a2', '--alpha', '0.25'],\n"
            "             ['a2', '--weight', sys.argv[2]]):\n"
            "    assert hbspace.cli.main(args) == 0\n"
            "    seen[' '.join(args[:2])] = heavy()\n"
            "print(json.dumps(seen))\n"
        )
        assert self._fresh(script, str(half), str(power)) == {
            "import": [], "mate --b": [], "norms --b": [], "a2 --alpha": [], "a2 --weight": []}

    def test_no_module_of_the_package_imports_scipy(self):
        package = os.path.dirname(os.path.abspath(hbspace.__file__))
        importers = []
        for name in sorted(os.listdir(package)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(package, name)) as fh:
                tree = ast.parse(fh.read(), name)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    modules = [node.module]
                else:
                    continue
                importers += [(name, m) for m in modules if m.split(".")[0] == "scipy"]
        assert importers == []

    def test_power_density_l2_loads_no_scipy_integrate(self):
        # boundary-beta's kernel-growth check takes L2 norms against a power density
        script = (
            "import json, sys\n"
            "import hbspace.cli\n"
            "assert hbspace.cli.main(['scenario', 'run', 'boundary-beta']) == 0\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy.integrate'))))\n"
        )
        assert self._fresh(script) == []
