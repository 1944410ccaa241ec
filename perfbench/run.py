"""hbspace benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; hbspace is imported from its `src/`.  The
run sets up (fresh-interpreter imports of `hbspace.cli`, then the seeded
inputs), then sends whole rounds of the workload's requests until S seconds
have passed, checking every output, and ends with more fresh-interpreter
imports: `setup_s` is the median import of all of them plus the time to
build the inputs.  The last line of standard output is
one JSON object: `correct`, `attempted`, `failed` and `metrics`, which are
the end-to-end metrics with `--trace 0` and the per-layer metrics with
`--trace 1`.  A traced run alternates untraced and traced rounds, so that
`trace.overhead_s` compares the two within one run.  Results, and the spans
of a traced run, are also written under `.perfbench/`.  The exit code is 0
when every output was correct, 1 when one was not, 2 when the checkout holds
no hbspace sources.
"""

import argparse
import glob
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import reference as ref
from tracer import Tracer, layer_metric_names, layer_metrics
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
# Fresh-interpreter imports of hbspace.cli before the first round and after the last.  The
# host's speed shifts by up to 1.6x for seconds to minutes at a time, so probes taken in one
# burst would all see the same state; split around the rounds, they sample two moments
# about a minute apart.
IMPORT_PROBES = (6, 5)
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("req_p50_s", "s"), ("peak_rss_mb", "MB")]
PER_LAYER = ([("import.hbspace_cli_s", "s"), ("import.scipy_s", "s"), ("cli.report_bytes", "bytes")]
             + layer_metric_names()
             + [("measures.window_mass_max_rel_err", "ratio"), ("trace.overhead_s", "s")])


def scipy_import_s(importtime_log):
    """Seconds spent importing scipy, from `python -X importtime` output.

    Sums the cumulative time of every scipy module whose importer is not
    itself a scipy module.  The log lists each module after the modules it
    imported, indented one step deeper per level.
    """
    rows = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue
        rows.append((len(name) - len(name.lstrip()), name.strip(), int(cumulative)))
    total_us, stack = 0, []
    for depth, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not (stack and stack[-1][2]):
            total_us += cumulative
        stack.append((depth, name, is_scipy or bool(stack and stack[-1][2])))
    return total_us * 1e-6


def import_probe(src, out_dir, trace):
    """Import hbspace.cli in a fresh interpreter: (import seconds, scipy seconds or None)."""
    cmd = [sys.executable] + (["-X", "importtime"] if trace else []) + [os.path.join(HERE, "cold.py")]
    err_path = os.path.join(out_dir, "probe.err")
    with open(err_path, "w") as err:
        proc = subprocess.run(cmd, env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE,
                              stderr=err, text=True, check=True)
    doc = json.loads(proc.stdout)
    if not os.path.abspath(doc["module"]).startswith(src + os.sep):
        raise SystemExit(f"hbspace was imported from {doc['module']}, not from {src}")
    with open(err_path) as fh:
        return doc["import_s"], scipy_import_s(fh.read()) if trace else None


def window_mass_max_rel_err(depth=14):
    """Worst relative error of the half-sum gap-weighted Lebesgue window masses.

    The measure is built as reverse_carleson_verdict builds it, and every arc
    of the depth-14 scan family is compared with the closed form.
    """
    from hbspace import DiskMeasure, PairWeight, SymbolB, pythagorean_mate

    pair = pythagorean_mate(SymbolB.rational([0.5, 0.5]))
    nu = DiskMeasure.lebesgue().weighted(PairWeight(
        boundary=pair.gap2_fn, point=lambda z: 1.0 - np.abs(np.asarray(pair.b.fn(z))) ** 2))
    worst = 0.0
    for _, starts, length in ref.scan_family(depth):
        exact = ref.gap_arc_integral(ref.TWO_PI * starts, ref.TWO_PI * length) / ref.TWO_PI
        worst = max(worst, float(np.max(np.abs(nu.batch_window_masses(starts, length) / exact - 1))))
    return worst


class Runner:
    def __init__(self, workload, out_dir):
        self.workload = workload
        self.out_dir = out_dir
        self.attempted = 0
        self.failures = []
        self.problems = []
        self.tracers = []

    def round(self, requests, tracer=None):
        """Send every request once; returns (wall seconds, latencies, report bytes, rss KB)."""
        latencies, report_bytes, rss_kb = [], 0, 0
        for req in requests:
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                output = req.call() if tracer is None else tracer.call("bench.request", req.call)
            except Exception as exc:  # every failure counts, whatever its type
                # a failed request still took its time, so that failing fast never reads as a gain
                latencies.append(time.perf_counter() - t0)
                self.failures.append(f"{req.name}: failed: {type(exc).__name__}: {exc}")
                continue
            latencies.append(time.perf_counter() - t0)
            report_bytes += getattr(output, "report_bytes", 0)
            rss_kb = max(rss_kb, getattr(output, "rss_kb", 0))
            try:
                problems = req.check(output)
            except Exception as exc:  # an output the check cannot read is wrong
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            self.problems += [f"{req.name}: {p}" for p in problems]
        return sum(latencies), latencies, report_bytes, rss_kb

    def traced_round(self, requests):
        if self.workload.in_process:
            tracer = Tracer().install()
            try:
                result = self.round(requests, tracer)
            finally:
                tracer.restore()
            self.tracers.append(tracer)
            return result
        spans_dir = os.path.join(self.out_dir, f"spans{len(self.tracers)}")
        os.makedirs(spans_dir)
        self.workload.spans_dir = spans_dir
        try:
            result = self.round(requests)
        finally:
            self.workload.spans_dir = None
        for path in sorted(glob.glob(os.path.join(spans_dir, "*.json"))):
            with open(path) as fh:
                self.tracers.append(Tracer.from_json(json.load(fh)))
        return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "hbspace", "cli.py")):
        print(f"no hbspace sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    results_dir = os.path.join(root, ".perfbench")
    out_dir = os.path.join(results_dir, f"work-{os.getpid()}")
    os.makedirs(out_dir)
    try:
        return run(args, src, results_dir, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def run(args, src, results_dir, out_dir):
    trace = bool(args.trace)
    workload = WORKLOADS[args.workload]()
    # byte-compile first, so that no timed import pays for it
    subprocess.run([sys.executable, "-m", "compileall", "-q", src, HERE], check=True,
                   stdout=subprocess.DEVNULL)

    probes = [import_probe(src, out_dir, trace) for _ in range(IMPORT_PROBES[0])]
    t0 = time.perf_counter()
    workload.build(args.seed, out_dir)
    build_s = time.perf_counter() - t0
    if workload.in_process or trace:
        sys.path.insert(0, src)
        import hbspace.cli  # noqa: F401  (served in process; the traced run also scans)
    requests = workload.requests()

    runner = Runner(workload, out_dir)
    untraced, traced, latencies, report_bytes, rss_kb = [], [], [], [], 0
    start = time.perf_counter()
    while True:
        wall, lat, _, rss = runner.round(requests)
        untraced.append(wall)
        latencies += lat
        rss_kb = max(rss_kb, rss)
        if trace:
            wall, _, nbytes, _ = runner.traced_round(requests)
            traced.append(wall)
            report_bytes.append(nbytes)
        if time.perf_counter() - start >= args.seconds:
            break
    probes += [import_probe(src, out_dir, trace) for _ in range(IMPORT_PROBES[1])]
    setup_s = statistics.median(p[0] for p in probes) + build_s

    if trace:
        values = {
            "import.hbspace_cli_s": statistics.median(p[0] for p in probes),
            "import.scipy_s": statistics.median(p[1] for p in probes),
            "cli.report_bytes": statistics.mean(report_bytes),
            **layer_metrics(runner.tracers, len(traced)),
            "measures.window_mass_max_rel_err": window_mass_max_rel_err(),
            "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
        }
        names = PER_LAYER
        with open(os.path.join(results_dir, f"trace-{args.workload}-seed{args.seed}.json"), "w") as fh:
            json.dump({"rounds": [t.to_json() for t in runner.tracers]}, fh)
    else:
        if workload.in_process:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(untraced),
            "req_p50_s": statistics.median(latencies or [0.0]),
            "peak_rss_mb": rss_kb / 1024.0,
        }
        names = END_TO_END
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
    }
    for problem in runner.failures + runner.problems:
        print(problem, file=sys.stderr)
    with open(os.path.join(results_dir, f"result-{args.workload}-seed{args.seed}"
                                        f"-trace{args.trace}.json"), "w") as fh:
        json.dump(result, fh)
    print(f"{args.workload} seed {args.seed}: {len(untraced)} round(s), "
          f"{runner.attempted} requests, {len(runner.failures)} failed")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
