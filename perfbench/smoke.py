"""Smoke test of the benchmark itself: every workload, tiny, traced and not.

Run from the root of a checkout:

    python3 perfbench/smoke.py

For each workload in BENCHMARK.json it runs run.py with ``--smoke`` (small
requests) for a couple of seconds, with ``--trace 0`` and ``--trace 1``, and
checks that the last line is the result object, that every output passed
its correctness checks, and that the metric names and units are exactly the
``end_to_end`` ones (untraced) or the ``per_layer`` ones (traced).  Exits 1
on the first mismatch.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for wl in spec["workloads"]:
        for trace in (0, 1):
            cmd = [
                sys.executable, os.path.join(HERE, "run.py"), "--workload", wl["name"],
                "--seed", "7", "--seconds", "2", "--trace", str(trace), "--smoke",
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
            tag = f"{wl['name']} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{tag}: correct={result['correct']} failed={result['failed']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(k for k in set(got) & set(expected[trace]) if got[k] != expected[trace][k])
                problems.append(f"{tag}: missing {missing}, unexpected {extra}, wrong units {wrong}")
            print(f"{tag}: {result['attempted']} requests, {len(got)} metrics", file=sys.stderr)
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
