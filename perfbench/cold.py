"""One fresh interpreter: time `import hbspace.cli`, then optionally run `hb` under the tracer.

    python3 perfbench/cold.py                      print {"import_s": ..., "module": ...}
    python3 perfbench/cold.py --spans FILE -- ARGS  run `hb ARGS` traced, spans to FILE

hbspace is found through PYTHONPATH.  The traced form exits with `hb`'s code.
"""

import json
import sys
import time


def main(argv):
    t0 = time.perf_counter()
    import hbspace.cli

    import_s = time.perf_counter() - t0
    if not argv:
        print(json.dumps({"import_s": import_s, "module": hbspace.cli.__file__}))
        return 0
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        raise SystemExit("usage: cold.py [--spans FILE -- HB_ARGS]")
    from tracer import Tracer

    tracer = Tracer().install()
    try:
        code = tracer.call("bench.request", hbspace.cli.main, argv[3:])
    finally:
        tracer.restore()
    with open(argv[1], "w") as fh:
        json.dump(tracer.to_json(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
