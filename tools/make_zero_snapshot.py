"""Write, or check, the snapshot of Bessel zeros that `ZeroCache` serves.

The snapshot (src/polyspec/zero_snapshot.bin) holds every zero of the
window as the fill computes it.  Regenerate it after a change to the Bessel
kernel that moves a zero's bits.  The new file is first served through the
checks of a `ZeroCache`, and is not written if an entry fails them (exit
1).  `--check` refills in memory and compares with the file byte for byte
instead, exiting 1 when they differ.  Run from the root of a checkout:

    PYTHONPATH=src python tools/make_zero_snapshot.py [--check]
"""

from __future__ import annotations

import argparse
import sys

from polyspec import zeros
from polyspec.errors import InternalConsistencyError


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--check", action="store_true", help="compare a fresh fill with the file")
    args = ap.parse_args(argv)
    data = zeros._pack_snapshot(zeros._FillCache())
    if args.check:
        with open(zeros._SNAPSHOT_FILE, "rb") as f:
            same = f.read() == data
        print(f"{zeros._SNAPSHOT_FILE}: {'matches' if same else 'differs from'} a fresh fill")
        return 0 if same else 1
    try:
        zeros._check_snapshot(data)  # a file every ZeroCache would refuse is not written
    except InternalConsistencyError as exc:
        print(f"{zeros._SNAPSHOT_FILE}: not written, a fresh fill fails the served checks: {exc}")
        return 1
    with open(zeros._SNAPSHOT_FILE, "wb") as f:
        f.write(data)
    print(f"{zeros._SNAPSHOT_FILE}: {zeros._SNAPSHOT_ENTRIES} zeros, {len(data)} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
