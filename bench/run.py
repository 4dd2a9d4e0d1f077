"""ratdyn benchmark: end-to-end and per-layer metrics for three workloads.

Usage (from the repository root):

    python3 bench/run.py --workload orbifold-fresh --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

A run repeats sessions until ``--seconds`` have passed, always finishing
the session under way.  Each session is a fresh interpreter (cold memos)
that builds one seeded query list and runs it as a closed loop with one
client.  With ``--trace 0`` the last line of output is one JSON object
with the end-to-end metrics; with ``--trace 1`` every session runs twice,
untraced and traced, and the object carries the per-layer metrics.
``--workload all`` runs every workload in turn and prints one such
object per workload, then a last line holding all of them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("orbifold-fresh", "curve-search", "cli-session")
TAIL_PERCENTILE = 90
SESSION_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "query_p50_s": "s",
    "query_tail_s": "s",
    "peak_rss_mb": "MiB",
}


class SessionError(RuntimeError):
    pass


def run_session(workload, seed, index, trace, out_dir):
    """(set-up seconds, session result) of one fresh interpreter."""
    cmd = [sys.executable, str(HERE / "session.py"), workload, str(seed), str(index),
           "1" if trace else "0", str(out_dir)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        out, err = proc.communicate(timeout=SESSION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SessionError(f"{workload} session {index} exceeded {SESSION_TIMEOUT_S}s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "READY" or proc.returncode != 0:
        raise SessionError(f"{workload} session {index} failed: {(first + err).strip()[-2000:]}")
    return setup, json.loads(out.strip().splitlines()[-1])


def percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def run_workload(workload, seed, seconds, trace, out_dir):
    if trace:
        for old in (out_dir / "spans").glob(f"{workload}-*"):
            old.unlink()
    plain, traced, setups = [], [], []
    start = time.perf_counter()
    index = 0
    while True:
        setup, res = run_session(workload, seed, index, False, out_dir)
        setups.append(setup)
        plain.append(res)
        if trace:
            traced.append(run_session(workload, seed, index, True, out_dir)[1])
        index += 1
        if time.perf_counter() - start >= seconds:
            break
    sessions = plain + traced
    unexpected = [u for res in sessions for u in res["unexpected"]]
    for u in unexpected:
        print(f"unexpected failure: {u}", file=sys.stderr)
    latencies = [t for res in plain for t in res["latencies"]]
    summary = (f"{workload}: {len(plain)} sessions, {len(latencies)} timed queries, "
               f"tail = p{TAIL_PERCENTILE}")
    print(summary, file=sys.stderr)
    if trace:
        metrics = {}
        for name in traced[0]["layers"]:
            value = statistics.fmean(res["layers"][name] for res in traced)
            unit = "s" if name.endswith("_s") else "ratio" if name.endswith(("ratio", "yield")) else "count"
            metrics[name] = {"value": value, "unit": unit}
        overhead = [t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced)]
        metrics["trace.overhead_s"] = {"value": statistics.median(overhead), "unit": "s"}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(res["wall_s"] for res in plain),
            "query_p50_s": statistics.median(latencies),
            "query_tail_s": percentile(latencies, TAIL_PERCENTILE),
            "peak_rss_mb": statistics.median(res["peak_rss_mb"] for res in plain),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return {
        "correct": not unexpected,
        "attempted": sum(res["attempted"] for res in sessions),
        "failed": sum(res["failed"] for res in sessions),
        "metrics": metrics,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ratdyn" / "__init__.py").is_file():
        print(f"error: no ratdyn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), out_dir)
            if args.workload == "all":
                print(json.dumps({"workload": name, **results[name]}))
    except SessionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    (out_dir / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(json.dumps(results, indent=1))
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
