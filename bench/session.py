"""One benchmark session in a fresh interpreter.

Usage: python3 bench/session.py WORKLOAD SEED SESSION TRACE OUT_DIR

Imports ratdyn from ``src/``, builds the session's inputs, prints ``READY``
(the parent times set-up up to this line), runs the queries one after
another with one client, checks every outcome, and prints one JSON line.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import ratdyn  # noqa: E402,F401

import workloads  # noqa: E402

BUILDERS = {
    "orbifold-fresh": workloads.build_orbifold_fresh,
    "curve-search": workloads.build_curve_search,
    "cli-session": workloads.build_cli_session,
}


def main(argv):
    name, seed, session, trace, out_dir = argv[0], int(argv[1]), int(argv[2]), argv[3] == "1", Path(argv[4])
    rng = random.Random(f"{name}:{seed}:{session}")
    queries = BUILDERS[name](rng, session, out_dir)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer().install()
    print("READY", flush=True)

    clock = time.perf_counter
    outcomes = []
    latencies = []
    start = clock()
    for q in queries:
        t0 = clock()
        try:
            outcome = (True, q.run())
        except Exception as exc:  # the check judges every outcome
            outcome = (False, exc)
        latencies.append(clock() - t0)
        outcomes.append(outcome)
    wall = clock() - start

    result = {"wall_s": wall, "latencies": latencies}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.report()
        tracer.dump(out_dir / "spans" / f"{name}-{session}")

    failed = []
    unexpected = []
    for q, outcome in zip(queries, outcomes):
        try:
            ok = bool(q.check(outcome))
        except Exception as exc:  # a checker that cannot decide rejects
            ok = False
            outcome = (False, exc)
        if not ok:
            failed.append(q.label)
            if q.fault is None:
                detail = outcome[1] if not outcome[0] else "wrong answer"
                unexpected.append(f"{q.label}: {detail!r}"[:300])
    result.update(
        attempted=len(queries),
        failed=len(failed),
        unexpected=unexpected,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
