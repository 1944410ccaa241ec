"""Tests of the benchmark's own reference computations, checks and tracer.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import os
import sys
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Tracer, layer_metrics  # noqa: E402


# -- reference computations ----------------------------------------------------


@pytest.mark.parametrize("start,length,angle", [
    (0.0, 1e-7, 0.0), (1.0, 1e-9, 0.0), (6.2, 0.3, 0.0), (0.0, 2 * np.pi - 1e-4, 0.0),
    (2.0, 0.05, 0.0), (1.9, 1e-6, 1.9), (4.0, 2.5, 0.3),
])
def test_gap_arc_integral_against_mpmath(start, length, angle):
    mpmath.mp.dps = 40
    lo = mpmath.mpf(start)
    exact = mpmath.quad(lambda t: (1 - mpmath.cos(t - angle)) / 2,
                        [lo, lo + (mpmath.mpf(length) / 2), lo + mpmath.mpf(length)])
    assert float(ref.gap_arc_integral(start, length, angle)) == pytest.approx(float(exact), rel=1e-12)


def test_kernel_formula_at_one_half():
    # half-sum: b(1/2) = 3/4, a(1/2) = 1/4
    assert ref.kernel_norm_squared(0.75, 0.25, 0.5) == pytest.approx(40.0 / 3.0, rel=1e-15)


def test_scan_family_matches_the_analyzers_scan():
    from hbspace.analyzers import _scan_families

    ours = [(s, length) for _, s, length in ref.scan_family(6)]
    theirs = [fam for level in range(1, 7) for fam in _scan_families(level)]
    assert len(ours) == len(theirs)
    for (s1, l1), (s2, l2) in zip(ours, theirs):
        assert l1 == l2 and np.array_equal(s1, s2)


def test_outer_eval_matches_a_closed_form():
    # log |b| = log 0.9 - kappa (1 - cos(t - theta)) is the outer function 0.9 e^-kappa exp(kappa e^-i theta z)
    kappa, theta = 0.4, 1.3
    z = np.array([0.0, 0.5j, 0.998 * np.exp(2j)])
    got = ref.outer_eval(lambda t: np.log(0.9) - kappa * (1 - np.cos(t - theta)), z)
    want = 0.9 * np.exp(-kappa) * np.exp(kappa * np.exp(-1j * theta) * z)
    assert np.max(np.abs(got - want)) < 1e-13


def test_scipy_import_time_counts_only_outermost_scipy_modules():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:        50 |        150 |   scipy",
        "import time:        10 |         10 |     numpy.x",
        "import time:        20 |         20 |       scipy.fft._x",
        "import time:        30 |         60 |     scipy.fft",
        "import time:         5 |        400 |   hbspace.circle",
        "import time:         7 |        800 | hbspace",
    ])
    assert run.scipy_import_s(log) == pytest.approx(210e-6)


# -- checks: a wrong output is caught ----------------------------------------------


def _sweep_operation(name):
    sweep = workloads.LibrarySweep()
    sweep.build(1, None)
    return next(op for op in sweep.operations(sweep.symbols[-1]) if op.name == name)


def test_wrong_mate_is_caught():
    check = _sweep_operation("half-sum/mate").check
    mate = lambda num, den=(1.0,): SimpleNamespace(a=SimpleNamespace(
        num=np.array(num, dtype=complex), den=np.array(den, dtype=complex)))
    assert check(mate([0.5, -0.5])) == []
    assert check(mate([0.5, 0.5]))  # |a|^2 + |b|^2 = 1 fails off the real axis
    assert check(mate([-0.5, 0.5]))  # a(0) < 0
    # (1 - z)/2 times a Blaschke factor: the right modulus on the circle and a(0) > 0,
    # but a zero at 1/2 inside the disk
    assert check(mate([0.25, -0.75, 0.5], [1.0, -0.5]))


def test_wrong_verdict_is_caught(tmp_path):
    check = _sweep_operation("half-sum/direct-atoms").check
    assert check("carleson-for-hb") == []
    assert check("not-carleson-for-hb")
    cold = workloads.CliCold()
    cold.build(1, str(tmp_path))
    reverse = next(r for r in cold.requests() if r.name == "reverse-atoms")
    ok = workloads.CliResult(0, json.dumps({"overall": "not-reverse-carleson"}), "", 0)
    wrong = workloads.CliResult(0, json.dumps({"overall": "reverse-carleson"}), "", 0)
    noisy = workloads.CliResult(0, json.dumps({"overall": "not-reverse-carleson"}), "warn\n", 0)
    assert reverse.check(ok) == []
    assert reverse.check(wrong) and reverse.check(noisy)


class _BrokenWorkload:
    """One request whose output is wrong and one that fails."""

    name = "broken"
    in_process = True

    def build(self, seed, workdir):
        pass

    def requests(self):
        from hbspace import space

        def raises():
            raise workloads.OperationFailed("no mate")

        mate = lambda: space.pythagorean_mate(space.SymbolB.rational([0.5, 0.5]))
        wrong_b = lambda pair: workloads._mate_problems(
            ref.mate_errors([0.6, 0.3], [1.0], pair.a.num, pair.a.den))
        return [workloads.Request("mate", mate, wrong_b),
                workloads.Request("fails", raises, lambda out: [])]


def test_wrong_output_fails_the_run(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    monkeypatch.setitem(run.WORKLOADS, "broken", _BrokenWorkload)
    code = run.main(["--workload", "broken", "--seed", "0", "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (2, 1)


def test_a_failed_request_counts_in_the_round_time():
    import time

    def slow_failure():
        time.sleep(0.05)
        raise workloads.OperationFailed("late")

    runner = run.Runner(_BrokenWorkload(), None)
    wall, latencies, _, _ = runner.round([workloads.Request("fails", slow_failure, lambda out: [])])
    assert len(latencies) == 1 and wall >= 0.05
    assert (runner.attempted, len(runner.failures)) == (1, 1)


def test_run_refuses_a_directory_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "cli-cold", "--seed", "0", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


# -- tracer ------------------------------------------------------------------------


def _bound_objects():
    import hbspace
    from hbspace import analyzers, measures, scenarios, space

    return {
        "hbspace.pythagorean_mate": hbspace.pythagorean_mate,
        "space.pythagorean_mate": space.pythagorean_mate,
        "scenarios.pythagorean_mate": scenarios.pythagorean_mate,
        "space.hb_norm_squared": space.hb_norm_squared,
        "analyzers.a2_check": analyzers.a2_check,
        "DiskMeasure.batch_window_masses": vars(measures.DiskMeasure)["batch_window_masses"],
        "PowerArcWeight.arc_integral": vars(measures.PowerArcWeight)["arc_integral"],
        "RadialPower.l2": vars(measures.RadialPower)["l2"],
    }


def test_tracer_restores_wrapped_functions_and_self_times_add_up():
    from hbspace import analyzers, measures, space

    before = _bound_objects()
    tracer = Tracer().install()
    try:
        assert space.pythagorean_mate is not before["space.pythagorean_mate"]

        def work():
            pair = space.pythagorean_mate(space.SymbolB.rational([0.5, 0.5]))
            space.monomial_norm(3, pair)
            mu = measures.DiskMeasure(disk_atoms=measures.DiskAtoms([0.5j], [1.0]))
            analyzers.reverse_carleson_verdict(pair, mu, depth=6, kernel_depth=4)
            analyzers.a2_check(measures.PowerArcWeight(0.5, 1.0, 0.0), depth=6)

        tracer.call("bench.request", work)
    finally:
        tracer.restore()
    assert _bound_objects() == before
    root = tracer.names.index("bench.request")
    wall = tracer.ends[root] - tracer.starts[root]
    assert sum(tracer.self_times()) == pytest.approx(wall, rel=1e-9)
    assert all(t >= -1e-9 for t in tracer.self_times())
    # internal calls get spans: monomial_norm reaches hb_norm_squared through its namespace
    assert "space.hb_norm_squared" in tracer.names
    # arc integrals are recorded under a2_check only, with one count per arc
    arcs = [i for i, n in enumerate(tracer.names) if n == "measures.arc_integral"]
    assert arcs and all(tracer.names[tracer.parents[i]] == "analyzers.a2_check" for i in arcs)
    metrics = layer_metrics([tracer], rounds=1)
    assert metrics["space.pythagorean_mate.calls"] == 1
    assert metrics["analyzers.kernel_ratio_scan.lambdas"] == 4 + 8 + 16 + 32
    assert metrics["measures.batch_window_masses.arcs"] > 0
    assert set(metrics) >= {f"{t[0]}.self_s" for t in TARGETS}


def test_spans_survive_a_json_round_trip():
    tracer = Tracer()
    tracer.call("outer", tracer.call, "inner", sum, [1, 2])
    copy = Tracer.from_json(json.loads(json.dumps(tracer.to_json())))
    assert copy.totals() == tracer.totals()
    assert copy.parents == [-1, 0]


def test_benchmark_json_names_every_metric_the_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == run.PER_LAYER
    # library-sweep runs by hand only: see perfbench/README.md
    assert [w["name"] for w in doc["workloads"]] == ["verdicts-scan", "cli-cold"]
    assert set(workloads.WORKLOADS) == {"verdicts-scan", "cli-cold", "library-sweep"}
