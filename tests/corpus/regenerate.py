"""Write the report corpus: one JSON file per `hb` call, from the source in this checkout.

    python3 tests/corpus/regenerate.py

Each file holds the call's argv, its exit code, its stderr and its parsed
JSON report.  The nine `verdicts-scan` calls take their inputs and argv from
`perfbench/workloads.VerdictsScan` on seed 1 and write their reports with
`--out`; the scenario calls print theirs.  No report holds wall-clock data,
so the corpus changes only where a report does.  `tests/test_corpus.py` runs
every call again and compares it with the committed file.
"""

import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from hbspace import cli  # noqa: E402

SEED = 1
#: stands for the directory of the workload's input files in a stored argv
INPUTS = "<inputs>"
SCENARIO_CALLS = {
    "scenario-all-seed3": ["scenario", "run", "all", "--seed", "3"],
    **{f"scenario-{name}-depth14": ["scenario", "run", name, "--depth", "14"]
       for name in ("blaschke-corona", "boundary-beta", "oscillating-a2")},
}


class _RecordingScan(workloads.VerdictsScan):
    """The `verdicts-scan` workload, keeping the argv of each call it makes."""

    def _call(self, argv, tag):
        self.argv[tag] = argv
        return super()._call(argv, tag)


def records(workdir):
    """Every corpus call run in process, as (name, record); inputs and reports go to workdir."""
    scan = _RecordingScan()
    scan.argv = {}
    scan.build(SEED, workdir)
    for request in scan.requests():
        result = request.call()
        with open(result.report_path) as fh:
            report = json.load(fh)
        argv = [arg.replace(workdir, INPUTS) for arg in scan.argv[request.name]]
        yield f"verdicts-scan-seed{SEED}-{request.name}", {
            "argv": argv, "exit_code": result.code, "stderr": result.stderr, "report": report}
    for name, argv in SCENARIO_CALLS.items():
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli.main(argv)
        yield name, {"argv": argv, "exit_code": code, "stderr": stderr.getvalue(),
                     "report": json.loads(stdout.getvalue())}


def main():
    with tempfile.TemporaryDirectory() as workdir:
        for name, record in records(workdir):
            with open(os.path.join(HERE, f"{name}.json"), "w") as fh:
                json.dump(record, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(name)


if __name__ == "__main__":
    main()
