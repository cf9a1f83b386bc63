"""One benchmark worker process: set up a workload, then serve its requests.

Started by run.py from the root of a checkout:

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
        [--setup-only] [--smoke]

It prints ``READY`` once set-up is done (run.py times set-up up to that
line), then, unless ``--setup-only``, one JSON line with the run's results.

Untraced (``--trace 0``): a closed loop of requests for ``--seconds``,
finished at the end of a whole round of the workload's pool; each
request is timed alone, its output checked outside the timing, and the heap
collected between requests so that no request pays for garbage left by the
one before.

Traced (``--trace 1``): the same loop for half the time with nothing
installed, then the same requests again, in process, with spans around every
public polyspec function (see tracer.py).  The ratio of the two wall times
is the tracing overhead; per-layer numbers come from the second half only.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.abspath("src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracer import LAYER_UNITS, Tracer, row_of, write_spans  # noqa: E402
from workloads import WORKLOADS, child_env  # noqa: E402

# Fixed per workload, so that runs of different speed report the same
# quantile; chosen so that a 30-s run on a 2-vCPU x86-64 machine leaves at
# least ten samples beyond it.  The count beyond is reported with every result.
TAIL_PERCENTILE = {"spectrum-warm": 85, "calculus": 95, "cli-cold": 65}
HASHED_PREFIX = 8  # requests whose outputs make up `outputs_sha256`


def serve(wl, requests, seconds, replay=False, tracer=None):
    """Run requests in whole rounds of the pool until `seconds` pass (or the list ends)."""
    records = []
    stream = iter(requests)
    start = time.perf_counter()
    for rid, req in enumerate(stream):
        if wl.at_round_start(rid) and time.perf_counter() - start >= seconds:
            break
        inp = wl.prepare(req)
        gc.collect()
        call = wl.replay if replay else wl.run
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.request(rid, req.label):
                    out = call(req, inp, tracer)
            else:
                out = call(req, inp)
            error = None
        except Exception as exc:  # a failed request is counted, never fatal
            out, error = None, f"{req.label}: {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if error is None:
            errors, digest = wl.check(req, out)
            error = "; ".join(errors) or None
        else:
            digest = b""
        records.append({
            "req": req, "label": req.label, "latency_s": dt, "round": wl.round_of(rid),
            "error": error, "sha256": hashlib.sha256(digest).hexdigest() if digest is not None else None,
            "stdout_bytes": len(out[1]) if wl.name == "cli-cold" and out is not None else 0,
        })
        del out, inp
    return records


def latency_metrics(name, records):
    lat_ms = sorted(r["latency_s"] * 1e3 for r in records)
    pct = TAIL_PERCENTILE[name]
    if len(lat_ms) >= 2:
        tail = statistics.quantiles(lat_ms, n=100, method="inclusive")[pct - 1]
    else:
        tail = lat_ms[0]
    # requests completed per second of request time in each whole round of
    # the pool (the fixed first requests stand outside the rounds); the
    # median over rounds, so that a round slowed by the host counts once
    rates = []
    for k in sorted({r["round"] for r in records} - {None}):
        rnd = [r for r in records if r["round"] == k]
        rates.append(sum(r["error"] is None for r in rnd) / sum(r["latency_s"] for r in rnd))
    return {
        "req_p50_ms": statistics.median(lat_ms),
        "req_tail_ms": tail,
        "throughput_rps": statistics.median(rates),
    }, {
        "rounds": len(rates),
        "tail_percentile": pct,
        "tail_samples_beyond": sum(1 for v in lat_ms if v > tail),
        "requests": len(lat_ms),
    }


def import_seconds(repeats=3):
    """Median time of `import polyspec` in a process that does nothing else."""
    code = "import time; t = time.perf_counter(); import polyspec; print(time.perf_counter() - t)"
    times = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True,
            timeout=60, check=True,
        )
        times.append(float(out.stdout.strip()))
    return statistics.median(times)


def layer_table(tracer, records, label=None):
    """Self seconds per request by table row, over all requests or one label.

    "(request wall)" is the mean request time; "(outside polyspec)" is the
    part of it no polyspec span covers (benchmark glue, dataclass construction).
    """
    rids = [i for i, r in enumerate(records) if label is None or r["label"] == label]
    totals: dict[str, float] = {}
    for rid in rids:
        for name, s in tracer.request_self.get(rid, {}).items():
            if name != "request":
                totals[row_of(name)] = totals.get(row_of(name), 0.0) + s
    n = max(len(rids), 1)
    wall = sum(tracer.request_self.get(rid, {}).get("request", 0.0) for rid in rids) / n
    table = {k: v / n for k, v in sorted(totals.items())}
    table["(outside polyspec)"] = wall - sum(table.values())
    table["(request wall)"] = wall
    return table


def facts(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    out_dir = os.path.join(".perfbench_out", f"{args.workload}-seed{args.seed}")
    os.makedirs(out_dir, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, args.smoke, out_dir)
    wl.setup()
    # what set-up left on the heap (inputs, oracle tables, the warmed cache)
    # is kept out of every later collection, so that the collector's work in
    # a request, and between requests, does not grow with the pool
    gc.collect()
    gc.freeze()
    print("READY", flush=True)
    if args.setup_only:
        return

    result = {"facts": facts(args)}
    if not args.trace:
        records = serve(wl, wl.requests(), args.seconds)
        metrics, extra = latency_metrics(wl.name, records)
        metrics["peak_rss_mb"] = wl.peak_rss_kb() / 1024.0
    else:
        first = serve(wl, wl.requests(), args.seconds / 2.0, replay=True)
        tracer = Tracer()
        tracer.install()
        if hasattr(wl, "cache"):
            tracer.watch_cache(wl.cache)
        try:
            records = serve(wl, [r["req"] for r in first], float("inf"), replay=True, tracer=tracer)
        finally:
            tracer.uninstall()
        untraced = sum(r["latency_s"] for r in first)
        traced = sum(r["latency_s"] for r in records)
        metrics = tracer.metrics(len(records))
        metrics["cli.import_s"] = import_seconds()
        metrics["cli.stdout_bytes"] = sum(r["stdout_bytes"] for r in records) / max(len(records), 1)
        metrics["trace.overhead_frac"] = traced / untraced - 1.0
        extra = {"requests": len(records), "untraced_s": untraced, "traced_s": traced}
        extra["self_s_per_request"] = layer_table(tracer, records)
        labels = sorted({r["label"] for r in records})
        extra["self_s_by_label"] = {lab: layer_table(tracer, records, lab) for lab in labels}
        extra["units"] = LAYER_UNITS
        extra["spans"] = os.path.join(out_dir, "spans.csv")
        extra["span_count"] = len(tracer.spans)
        write_spans(tracer, extra["spans"])
        records = first + records

    failures = [r["error"] for r in records if r["error"]]
    post = wl.finish()
    failed = len(failures) + (1 if post else 0)
    digests = [r["sha256"] for r in records if r["sha256"] is not None]
    h = hashlib.sha256("".join(digests[:HASHED_PREFIX]).encode()).hexdigest()
    result.update({
        "attempted": len(records),
        "failed": failed,
        "failures": (failures + post)[:20],
        "metrics": metrics,
        "run": extra,
        "outputs_sha256": h,
        "outputs_hashed": min(len(digests), HASHED_PREFIX),
        "per_request": [
            {"label": r["label"], "latency_ms": r["latency_s"] * 1e3, "sha256": r["sha256"], "ok": r["error"] is None}
            for r in records
        ],
    })
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
