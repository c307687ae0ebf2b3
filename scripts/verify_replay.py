#!/usr/bin/env python3
"""End-to-end check on one bundled machine: run it directly, run it
through the rolling-boundary simulator, and compare every emission
against the direct history.  Prints the root summary digest, the match
statistics, and the space ledger.

    python scripts/verify_replay.py counter --t 4096
    python scripts/verify_replay.py sweep --t 1024    # windowed match only
"""

from __future__ import annotations

import argparse
import hashlib
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import holosim as hs
from holosim.errors import InternalInvariantError
from holosim.machine import probe_run_length
from holosim.samples import counter_input, load_sample, palin_input
from holosim.streaming import VerifySink

INPUT_FOR = {
    "writer2": lambda t: "",
    "sweep": lambda t: "",
    "counter": lambda t: counter_input(16),
    "palin": palin_input,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("machine", choices=sorted(INPUT_FOR))
    ap.add_argument("--t", type=int, default=1024)
    ap.add_argument("--b", type=int, default=None)
    ap.add_argument("--c-int", type=int, default=2, dest="c_int")
    args = ap.parse_args(argv)

    m = load_sample(args.machine)
    word = INPUT_FOR[args.machine](args.t)
    t_probe, reason = probe_run_length(m, word, args.t)
    t = min(args.t, t_probe)
    b = args.b if args.b is not None else hs.default_block_length(t)
    if t < args.t:
        print(f"machine halts ({reason}) after {t} steps, using t={t}")

    oracle = hs.run(m, word, max_steps=t)
    sink = VerifySink(oracle.history)
    ledger = hs.attach_ledger(m, t, b)
    try:
        root = hs.holo_run(m, word, t, b=b, c_int=args.c_int, sink=sink, ledger=ledger)
    except InternalInvariantError as exc:
        print(f"{exc}\nMISMATCH")
        return 1

    digest = hashlib.sha256(hs.encode_summary(root)).hexdigest()
    print(f"t={t} b={b} T={hs.decompose(t, b).T} root=sha256:{digest[:16]}")
    print(
        f"emissions: {sink.compared} of {t}, "
        f"bit-exact {sink.strict}, window-exact {sink.compared}"
    )
    print(f"  ledger: {ledger.summary_line()}")

    ok = sink.compared == t
    print("OK" if ok else "MISMATCH")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
