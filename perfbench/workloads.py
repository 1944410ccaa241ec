"""The three workloads: their seeded inputs, their requests and the checks on each output.

A request is one call a user of hbspace would make and wait for: one `hb`
command, in process or in a fresh interpreter, or one library call.  Every
round sends the same requests in the same order (a closed loop with one
client), so the number attempted per round never depends on the seed.  Each
check compares an output against a value computed in `reference` or against
a property the method must have, and returns a list of problems.
"""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

import reference as ref

TWO_PI = 2.0 * np.pi
HERE = os.path.dirname(os.path.abspath(__file__))
COLD = os.path.join(HERE, "cold.py")
# the body of the `hb` console script
HB_MAIN = "import sys; from hbspace.cli import main; sys.exit(main())"
EXIT_ERROR = 1
CATALOG = ["alpha-power", "blaschke-corona", "boundary-beta", "gauss-extreme",
           "half-sum", "mu-beta", "oscillating-a2", "reverse-canonical"]


class OperationFailed(Exception):
    """The program could not serve a request (an exception, or `hb` exit code 1)."""


@dataclass
class Request:
    name: str
    call: object  # () -> output; raises OperationFailed or any exception on failure
    check: object  # output -> list of problems


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    report_bytes: int
    rss_kb: int = 0
    report_path: str | None = None  # the --out file; None when the report went to stdout


def rel_err(value, target):
    return abs(value - target) / abs(target)


def _cli_problems(res):
    problems = []
    if res.code != 0:
        problems.append(f"exit code {res.code}")
    if res.stderr:
        problems.append(f"stderr not empty: {res.stderr[:200]!r}")
    return problems


def _cli_request(tag, call, check):
    """A request whose output is a CliResult; `check` sees the parsed JSON report."""
    def checked(res):
        problems = _cli_problems(res)
        if problems:
            return problems
        if res.report_path is None:
            return check(json.loads(res.stdout))
        with open(res.report_path) as fh:
            return check(json.load(fh))

    return Request(tag, call, checked)


def _expect(problems, what, actual, expected):
    if actual != expected:
        problems.append(f"{what}: {actual!r}, expected {expected!r}")


def _field(key, expected):
    """Check that a JSON report's `key` holds `expected`."""
    return lambda doc: [] if doc[key] == expected else [
        f"{key}: {doc[key]!r}, expected {expected!r}"]


def _expect_close(problems, what, value, target, tol):
    err = rel_err(float(value), target)
    if not err <= tol:
        problems.append(f"{what}: {value!r} differs from {target!r} by {err:.3e} (tol {tol:g})")


def _write_json(workdir, name, doc):
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def _complex_pairs(values):
    return [[float(v.real), float(v.imag)] for v in np.asarray(values, dtype=complex)]


def _rational_doc(num, den):
    return {"form": "rational", "numerator": _complex_pairs(num), "denominator": _complex_pairs(den)}


HALF_SUM = _rational_doc([0.5, 0.5], [1.0])
LEBESGUE = {"disk_atoms": [], "ac_density": {"power": {"beta": 0.0, "scale": 1.0,
                                                       "singularity_angle": 0.0}},
            "singular_atoms": [], "radial": []}


def _scenario_problems(doc):
    problems = []
    for scenario in doc.get("scenarios", [doc]):
        for c in scenario["checks"]:
            if not c["ok"]:
                problems.append(f"{scenario['name']}: {c['analyzer']} gave {c['actual']}, "
                                f"expected {c['expected']}")
    return problems


# ---------------------------------------------------------------------------
# verdicts-scan: the verbs that scan, warm in one process
# ---------------------------------------------------------------------------


class VerdictsScan:
    """Scanning verbs at their default depth through `hbspace.cli.main(argv)` with `--out`."""

    name = "verdicts-scan"
    in_process = True

    def build(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.seed = seed
        # rotating the half-sum by a random angle puts the zero of a off every grid point
        self.angle = TWO_PI * rng.uniform(0.05, 0.95)
        rotated = _rational_doc([0.5, 0.5 * np.exp(-1j * self.angle)], [1.0])
        atoms = [[float(r * np.cos(t)), float(r * np.sin(t)), float(w)]
                 for r, t, w in zip(rng.uniform(0.2, 0.8, 2), rng.uniform(0, TWO_PI, 2),
                                    rng.uniform(0.2, 1.0, 2))]
        mixed = {
            "disk_atoms": atoms,
            "ac_density": {"power": {"beta": 0.5, "scale": float(rng.uniform(0.5, 1.5)),
                                     "singularity_angle": 1.0}},
            "singular_atoms": [[float(rng.uniform(1.5, 5.5)), float(rng.uniform(0.1, 0.5))]],
            "radial": [{"angle": float(rng.uniform(1.5, 5.5)), "power_beta": 0.5,
                        "scale": float(rng.uniform(0.2, 0.6))}],
        }
        self.files = {name: _write_json(workdir, f"{name}.json", doc) for name, doc in (
            ("half", HALF_SUM), ("rotated", rotated), ("lebesgue", LEBESGUE), ("mixed", mixed),
            ("w15", {"power": {"exponent": 1.5, "scale": 1.0, "angle": 0.0}}))}

    def _call(self, argv, tag):
        from hbspace import cli

        out = os.path.join(self.workdir, f"report-{tag}.json")
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli.main(argv + ["--out", out])
        if code == EXIT_ERROR:
            raise OperationFailed(stderr.getvalue().strip())
        return CliResult(code, stdout.getvalue(), stderr.getvalue(), os.path.getsize(out),
                         report_path=out)

    def _request(self, tag, argv, check):
        return _cli_request(tag, lambda: self._call(argv, tag), check)

    def requests(self):
        f = self.files
        seed = ["--seed", str(self.seed)]
        inf_half = ref.reverse_window_inf(14, 0.0)
        inf_rotated = ref.reverse_window_inf(14, self.angle)

        def reverse(window_inf=None):
            def check(doc):
                p = []
                # Sarason: (1 - |b|)^-1 ~ theta^-2 is not integrable for the half-sum
                _expect(p, "overall", doc["overall"], "not-reverse-carleson")
                _expect(p, "Sarason.L1gap", doc["conditions"]["Sarason.L1gap"]["verdict"], "fail")
                if window_inf is not None:
                    _expect_close(p, "reverse_window_inf", doc["constants"]["reverse_window_inf"],
                                  window_inf, 1e-3)
                return p
            return check

        def equivalence(window_inf):
            def check(doc):
                p = []
                a2 = doc["conditions"]["EquivNorm.a2"]
                _expect(p, "overall", doc["overall"], "not-equivalent")
                _expect(p, "EquivNorm.a2", a2["verdict"], "fail")
                if not a2["evidence"]["infinite_witnesses"]:
                    p.append("EquivNorm.a2 has no infinite witness")
                _expect_close(p, "window_inf", doc["constants"]["window_inf"], window_inf, 1e-3)
                return p
            return check

        return [
            self._request("reverse-half-lebesgue",
                          ["analyze-reverse", "--b", f["half"], "--mu", f["lebesgue"]] + seed,
                          reverse(inf_half)),
            self._request("reverse-half-mixed",
                          ["analyze-reverse", "--b", f["half"], "--mu", f["mixed"]] + seed,
                          reverse()),
            self._request("equivalence-half-lebesgue",
                          ["analyze-equivalence", "--b", f["half"], "--mu", f["lebesgue"]] + seed,
                          equivalence(inf_half)),
            self._request("equivalence-rotated-lebesgue",
                          ["analyze-equivalence", "--b", f["rotated"], "--mu", f["lebesgue"]]
                          + seed, equivalence(inf_rotated)),
            # |a|^2 h is unbounded near angle 1, where a does not vanish
            self._request("direct-half-mixed",
                          ["analyze-direct", "--b", f["half"], "--mu", f["mixed"]] + seed,
                          _field("overall", "not-carleson-for-hb")),
            self._request("direct-half-lebesgue",
                          ["analyze-direct", "--b", f["half"], "--mu", f["lebesgue"]] + seed,
                          _field("overall", "carleson-for-hb")),
            # |1 - e^(it)|^1.5 is not an A2 weight: its reciprocal is not integrable
            self._request("a2-power-1.5", ["a2", "--weight", f["w15"]] + seed,
                          _field("verdict", "fail")),
            self._request("scenario-reverse-canonical",
                          ["scenario", "run", "reverse-canonical", "--depth", "14"] + seed,
                          _scenario_problems),
            self._request("scenario-all", ["scenario", "run", "all"] + seed, _scenario_problems),
        ]


# ---------------------------------------------------------------------------
# cli-cold: one fresh `hb` process per call
# ---------------------------------------------------------------------------


class CliCold:
    """The cheap verbs, each in a fresh interpreter, as a user at a shell runs them."""

    name = "cli-cold"
    in_process = False

    def build(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.seed = seed
        self.env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
        self.b_num, self.b_den = ref.random_rational(rng, 3)
        atoms = [[float(r * np.cos(t)), float(r * np.sin(t)), float(w)]
                 for r, t, w in zip(rng.uniform(0.2, 0.9, 3), rng.uniform(0, TWO_PI, 3),
                                    rng.uniform(0.2, 1.0, 3))]
        self.files = {name: _write_json(workdir, f"{name}.json", doc) for name, doc in (
            ("half", HALF_SUM),
            ("random", _rational_doc(self.b_num, self.b_den)),
            ("coeffs", [[0.5 ** k, 0.0] for k in range(64)]),
            ("ray", {"disk_atoms": [], "ac_density": None, "singular_atoms": [],
                     "radial": [{"angle": 0.0, "power_beta": 0.5, "scale": 1.0}]}),
            ("atoms", {"disk_atoms": atoms, "ac_density": None, "singular_atoms": [],
                       "radial": []}))}
        self.spans_dir = None  # set by the runner for traced rounds

    def _spawn(self, tag, args):
        out_path = os.path.join(self.workdir, f"{tag}.out")
        err_path = os.path.join(self.workdir, f"{tag}.err")
        if self.spans_dir is None:
            cmd = [sys.executable, "-c", HB_MAIN] + args
        else:
            spans = os.path.join(self.spans_dir, f"{tag}.json")
            cmd = [sys.executable, COLD, "--spans", spans, "--"] + args
        with open(out_path, "w") as out, open(err_path, "w") as err:
            proc = subprocess.Popen(cmd, cwd=self.workdir, env=self.env, stdout=out, stderr=err,
                                    stdin=subprocess.DEVNULL)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path) as fh:
            stdout = fh.read()
        with open(err_path) as fh:
            stderr = fh.read()
        if proc.returncode == EXIT_ERROR:
            raise OperationFailed(stderr.strip())
        return CliResult(proc.returncode, stdout, stderr, len(stdout.encode()), usage.ru_maxrss)

    def _request(self, tag, args, check):
        return _cli_request(tag, lambda: self._spawn(tag, args), check)

    def requests(self):
        f = self.files
        kernel = float(np.sqrt(40.0 / 3.0))  # (1 + |0.75/0.25|^2) / (1 - 0.25)

        def half_mate(doc):
            p = []
            a = doc["a"]
            num = np.array([complex(*c) for c in a["numerator"]])
            den = np.array([complex(*c) for c in a["denominator"]])
            # a = (1 - z)/2 up to the normalization of the denominator
            err = np.max(np.abs(num / den[0] - np.array([0.5, -0.5]))) if num.size == 2 else np.inf
            if not (den.size == 1 and err <= 1e-9):
                p.append(f"half-sum mate {a}, expected (1 - z)/2")
            return p

        def random_mate(doc):
            a = doc["a"]
            if a["form"] != "rational":
                return [f"mate form {a['form']!r}, expected 'rational'"]
            num = [complex(*c) for c in a["numerator"]]
            den = [complex(*c) for c in a["denominator"]]
            return _mate_problems(ref.mate_errors(self.b_num, self.b_den, num, den))

        def norm(target, tol, key="hb_norm"):
            def check(doc):
                p = []
                _expect_close(p, key, doc[key], target, tol)
                return p
            return check

        def kernel_check(doc):
            p = norm(kernel, 1e-6)(doc)
            _expect_close(p, "closed_form", doc["closed_form"], kernel, 1e-12)
            return p

        def corona(doc):
            p = []
            _expect(p, "corona verdict", doc["verdict"], "pass")
            # |a| + |b| >= |a + b| = 1 on the disk
            if not doc["infimum"] >= 1.0 - 1e-12:
                p.append(f"corona infimum {doc['infimum']!r} < 1")
            return p

        return [
            self._request("mate-half", ["mate", "--b", f["half"]], half_mate),
            self._request("mate-random", ["mate", "--b", f["random"]], random_mate),
            self._request("norms-monomial", ["norms", "--b", f["half"], "--monomial", "8"],
                          norm(np.sqrt(34.0), 1e-9)),  # ||z^n||^2 = 2 + 4n
            self._request("norms-kernel", ["norms", "--b", f["half"], "--kernel", "0.5,0"],
                          kernel_check),
            self._request("norms-coeffs", ["norms", "--b", f["half"], "--coeffs", f["coeffs"]],
                          norm(kernel, 1e-6)),
            self._request("corona", ["corona", "--b", f["half"]], corona),
            # |1 - e^(it)|^(2 alpha) is an A2 weight for 2 alpha < 1
            self._request("a2-alpha", ["a2", "--alpha", "0.25"], _field("verdict", "pass")),
            # |a|^2 = |1 - z|^2/4 vanishes to second order where the ray meets the circle
            self._request("direct-ray", ["analyze-direct", "--b", f["half"], "--mu", f["ray"],
                                         "--seed", str(self.seed)],
                          _field("overall", "carleson-for-hb")),
            # disk atoms leave no boundary density: the essential infimum is 0
            self._request("reverse-atoms", ["analyze-reverse", "--b", f["half"], "--mu", f["atoms"]],
                          _field("overall", "not-reverse-carleson")),
            self._request("scenario-list", ["scenario", "list"], _field("catalog", CATALOG)),
        ]


def _mate_problems(errors):
    p = []
    if not errors["identity"] <= 1e-8:
        p.append(f"|a|^2 + |b|^2 - 1 reaches {errors['identity']:.3e}")
    a0 = errors["a0"]
    if not (a0.real > 0 and abs(a0.imag) <= 1e-12 * abs(a0)):
        p.append(f"a(0) = {a0!r} is not positive")
    if not errors["min_zero_modulus"] >= 1.0 - 1e-6:
        p.append(f"a has a zero of modulus {errors['min_zero_modulus']:.6f} in the open disk")
    return p


# ---------------------------------------------------------------------------
# library-sweep: many small in-process library calls over seeded symbols
# ---------------------------------------------------------------------------


KERNEL_LEVELS = range(1, 10)  # radii 1 - 2^-j: truncations from 2048 to 2^16
MONOMIALS = range(0, 9)


class LibrarySweep:
    """Mates, kernel and inner-product solves and closed-form verdicts over seeded symbols."""

    name = "library-sweep"
    in_process = True

    def build(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.symbols = []
        for degree in range(1, 6):
            num, den = ref.random_rational(rng, degree)
            self.symbols.append(self._symbol_inputs(rng, f"rational{degree}", ("rational", num, den)))
        for k in range(2):
            # |b| = 0.9 exp(-kappa (1 - cos(t - theta))), so b = 0.9 e^-kappa exp(kappa e^-i theta z)
            kappa, theta = rng.uniform(0.2, 0.6), rng.uniform(0.0, TWO_PI)
            self.symbols.append(self._symbol_inputs(rng, f"outer{k}", ("outer", kappa, theta)))
        self.symbols.append(self._symbol_inputs(rng, "half-sum", ("rational", [0.5, 0.5], [1.0])))

    @staticmethod
    def _symbol_inputs(rng, name, form):
        return {
            "name": name,
            "form": form,
            "lams": [(1.0 - 2.0 ** -j) * np.exp(1j * rng.uniform(0.0, TWO_PI)) for j in KERNEL_LEVELS],
            "f": rng.normal(size=32) + 1j * rng.normal(size=32),
            "g": rng.normal(size=64) + 1j * rng.normal(size=64),
            "atoms": rng.uniform(0.1, 0.8, 3) * np.exp(1j * rng.uniform(0.0, TWO_PI, 3)),
            # away from angle 0, where the half-sum's a vanishes
            "ray_angle": rng.uniform(0.5, TWO_PI - 0.5),
            "atom_angle": rng.uniform(0.5, TWO_PI - 0.5),
        }

    def requests(self):
        return [op for inputs in self.symbols for op in self.operations(inputs)]

    def operations(self, s):
        """The library calls on one symbol, each a request with its own check."""
        # calls go through the module namespaces, where a traced run wraps them
        from hbspace import analyzers, space
        from hbspace.measures import DiskAtoms, DiskMeasure, RadialPower, SingularAtoms

        name, form = s["name"], s["form"]
        state = {}
        outer = form[0] == "outer"

        if outer:
            kappa, theta = form[1], form[2]
            modulus = lambda t: 0.9 * np.exp(-kappa * (1.0 - np.cos(t - theta)))
            b_at = lambda z: 0.9 * np.exp(-kappa) * np.exp(kappa * np.exp(-1j * theta) * z)
            log_a = lambda t: 0.5 * np.log1p(-modulus(t) ** 2)
        else:
            num, den = np.asarray(form[1], dtype=complex), np.asarray(form[2], dtype=complex)
            b_at = lambda z: ref.rational_eval(num, den, z)

        def mate():
            if outer:
                # the modulus is smooth, so b has boundary values everywhere
                b = space.SymbolB.from_outer_modulus(modulus, admissible_for=("sweep",))
            else:
                b = space.SymbolB.rational(num, den)
            state["pair"] = space.pythagorean_mate(b)
            return state["pair"]

        def check_mate(pair):
            if outer:
                t = TWO_PI * np.arange(4096) / 4096
                identity = np.abs(np.abs(pair.a.boundary_values(4096)) ** 2 + modulus(t) ** 2 - 1)
                a0 = pair.a.value_at_zero()
                a0_ref = float(np.exp(np.mean(log_a(TWO_PI * np.arange(2 ** 16) / 2 ** 16))))
                p = [] if np.max(identity) <= 1e-8 else [
                    f"{name}: |a|^2 + |b|^2 - 1 reaches {np.max(identity):.3e}"]
                _expect_close(p, f"{name}: a(0)", a0, a0_ref, 1e-9)
                return p
            return [f"{name}: {m}" for m in _mate_problems(
                ref.mate_errors(num, den, pair.a.num, pair.a.den))]

        ops = [Request(f"{name}/mate", mate, check_mate)]

        for j, lam in zip(KERNEL_LEVELS, s["lams"]):
            def kernel(lam=lam):
                return space.hb_norm(space.cauchy_kernel_taylor(lam), state["pair"]) ** 2

            def check_kernel(value, lam=lam, j=j):
                if outer:
                    a_lam = ref.outer_eval(log_a, np.array([lam]))[0]
                else:
                    a_lam = ref.rational_eval(state["pair"].a.num, state["pair"].a.den,
                                              np.array([lam]))[0]
                target = ref.kernel_norm_squared(b_at(lam), a_lam, lam)
                p = []
                _expect_close(p, f"{name}: ||k||^2 at 1 - 2^-{j}", value, target, 1e-6)
                return p

            ops.append(Request(f"{name}/kernel{j}", kernel, check_kernel))

        def inner_fg():
            state["fg"] = space.hb_inner(s["f"], s["g"], state["pair"])
            return state["fg"]

        def inner_gf():
            return space.hb_inner(s["g"], s["f"], state["pair"])

        def check_hermitian(gf):
            err = abs(state["fg"] - np.conj(gf)) / abs(state["fg"])
            return [] if err <= 1e-8 else [f"{name}: <f,g> and conj <g,f> differ by {err:.3e}"]

        ops += [Request(f"{name}/inner-fg", inner_fg, lambda v: []),
                 Request(f"{name}/inner-gf", inner_gf, check_hermitian)]

        measures = {
            "atoms": lambda: DiskMeasure(disk_atoms=DiskAtoms(s["atoms"], [1.0, 0.5, 0.25]),
                                         label="sweep"),
            "singular": lambda: DiskMeasure(singular_atoms=SingularAtoms([s["atom_angle"]], [0.5]),
                                            label="sweep"),
        }
        if not outer:
            measures["ray"] = lambda: DiskMeasure(radial=[RadialPower(s["ray_angle"], 0.5, 1.0)],
                                                  label="sweep")
        # Finitely many interior atoms are Carleson; a boundary atom or a ray with density
        # (1 - t)^-1/2 ending where a does not vanish is not.  None of the three has a
        # boundary density, so (1 - |b|^2) h has essential infimum 0: never reverse Carleson.
        prefix = "heuristic-" if outer else ""
        direct_expect = {"atoms": "carleson-for-hb", "singular": "not-carleson-for-hb",
                         "ray": "not-carleson-for-hb"}
        for kind, make in measures.items():
            def direct(make=make):
                return analyzers.direct_carleson_verdict(state["pair"], make()).overall

            def reverse(make=make):
                return analyzers.reverse_carleson_verdict(state["pair"], make()).overall

            ops.append(Request(f"{name}/direct-{kind}", direct,
                                _equals(f"{name}/direct-{kind}", prefix + direct_expect[kind])))
            ops.append(Request(f"{name}/reverse-{kind}", reverse,
                                _equals(f"{name}/reverse-{kind}", "not-reverse-carleson")))

        if name == "half-sum":
            for n in MONOMIALS:
                def monomial(n=n):
                    return space.monomial_norm(n, state["pair"]) ** 2

                def check_monomial(value, n=n):
                    p = []
                    _expect_close(p, f"||z^{n}||^2", value, 2.0 + 4.0 * n, 1e-9)
                    return p

                ops.append(Request(f"{name}/monomial{n}", monomial, check_monomial))
        return ops


def _equals(what, expected):
    return lambda actual: [] if actual == expected else [f"{what}: {actual!r}, expected {expected!r}"]


WORKLOADS = {w.name: w for w in (VerdictsScan, CliCold, LibrarySweep)}
