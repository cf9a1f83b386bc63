"""polyspec benchmark: one command, three workloads, metrics by name and unit.

Run from the root of a checkout (it builds nothing; polyspec is imported
from ``src/``):

    python3 perfbench/run.py --workload spectrum-warm --seed 1 --seconds 20 --trace 0

Workloads (closed loop, one client, one request at a time):

* ``spectrum-warm``  library `assemble_spectrum` on a warmed ZeroCache;
* ``calculus``       expansions, the operator and its inverse, residuals;
* ``cli-cold``       ``python -m polyspec`` subprocesses with cold caches.

``--trace 0`` reports the end-to-end metrics: setup_s (median of three
fresh worker processes, each timed from start to its first request),
req_p50_ms, req_tail_ms, throughput_rps and peak_rss_mb.  ``--trace 1``
reports the per-layer metrics of tracer.py instead, from a separate
in-process replay.  Either way the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
holds the run facts (machine, versions, request counts, tail percentile,
output hashes).  A full record, and the spans of a traced run, are written
under ``.perfbench_out/``.  Human-readable tables go to stderr.

The benchmark exits non-zero without a result when the checkout has no
polyspec sources, or when a worker fails or overruns its time.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3
DEADLINE_S = 170.0  # the whole run, set-ups included


def worker_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    # compile rather than write bytecode caches, so nothing is written
    # outside the checkout and every run starts from the same state
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # one client on a small machine: pin BLAS to a single thread
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def start_worker(args, setup_only: bool):
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if args.smoke:
        cmd.append("--smoke")
    # a session of its own, so an overrun kills the worker and its CLI children together
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(), text=True, start_new_session=True)


def kill_group(proc) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_worker(args, setup_only: bool, deadline: float):
    """Start a worker; return (set-up seconds, its result line or None)."""
    t0 = time.perf_counter()
    proc = start_worker(args, setup_only)
    timer = threading.Timer(max(deadline - time.monotonic(), 1.0), kill_group, (proc,))
    timer.start()
    try:
        ready = proc.stdout.readline().strip()
        setup_s = time.perf_counter() - t0
        lines = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            kill_group(proc)
            proc.wait()
    if ready != "READY" or code != 0 or (not setup_only and not lines):
        raise RuntimeError(f"worker for {args.workload} failed (exit {code})")
    return setup_s, (json.loads(lines[-1]) if lines else None)


def print_tables(result) -> None:
    run = result["run"]
    out = sys.stderr
    if "self_s_per_request" in run:
        print(f"per-layer self time, s per request ({run['requests']} traced requests)", file=out)
        labels = sorted(run["self_s_by_label"])
        show = ["all"] + [lab for lab in labels if lab == "anchor"]
        cols = [run["self_s_per_request"]] + [run["self_s_by_label"][lab] for lab in show[1:]]
        rows = list(cols[0]) + [r for c in cols[1:] for r in c if r not in cols[0]]
        print("  " + f"{'row':<24}" + "".join(f"{c:>14}" for c in show), file=out)
        for row in rows:
            print("  " + f"{row:<24}" + "".join(f"{c.get(row, 0.0):>14.6f}" for c in cols), file=out)
    for name, value in result["metrics"].items():
        print(f"  {name:<32} {value:.6g}", file=out)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("spectrum-warm", "calculus", "cli-cold"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny requests, for perfbench/smoke.py")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "polyspec", "__init__.py")):
        print("perfbench: no polyspec sources under ./src; run from the root of a checkout", file=sys.stderr)
        return 2

    # on SIGTERM, unwind through run_worker's cleanup, which kills the worker group
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + DEADLINE_S
    repeats = SETUP_REPEATS if not args.trace else 1
    setup_times = []
    result = None
    try:
        for i in range(repeats):
            setup_s, result = run_worker(args, setup_only=i < repeats - 1, deadline=deadline)
            setup_times.append(setup_s)
    except (RuntimeError, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    metrics_raw = result["metrics"]
    if not args.trace:
        metrics_raw = {"setup_s": statistics.median(setup_times), **metrics_raw}
    units = result["run"].get("units", {})
    e2e_units = {"setup_s": "s", "req_p50_ms": "ms", "req_tail_ms": "ms", "throughput_rps": "req/s", "peak_rss_mb": "MB"}
    metrics = {k: {"value": v, "unit": units.get(k) or e2e_units[k]} for k, v in metrics_raw.items()}

    run = result["run"]
    facts = dict(result["facts"])
    facts.update({
        "setup_s_each": setup_times,
        "requests": run["requests"],
        "fail_frac": result["failed"] / max(result["attempted"], 1),
        "failures": result["failures"],
        "outputs_sha256": result["outputs_sha256"],
        "outputs_hashed": result["outputs_hashed"],
    })
    for key in ("tail_percentile", "tail_samples_beyond", "rounds", "untraced_s", "traced_s", "spans", "span_count"):
        if key in run:
            facts[key] = run[key]
    record = dict(result, facts=facts, metrics=metrics)
    path = os.path.join(".perfbench_out", f"{args.workload}-seed{args.seed}", f"result-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print_tables(dict(result, metrics=metrics_raw))

    print(json.dumps({"facts": facts}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
