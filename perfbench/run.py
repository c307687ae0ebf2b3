#!/usr/bin/env python3
"""holosim benchmark: streamed, emitted, metered and verified steps/s,
peak heap, and summary-tree audit time, each output checked against the
oracle `machine.run`.

    python3 perfbench/run.py --workload palin --seed 1 --seconds 38 --trace 0

One process, one thread, no sockets: a closed loop with a single caller
that waits for each call.  A run repeats rounds until --seconds is spent
(at least MIN_ROUNDS).  The first round makes every operation once; later
rounds repeat cheap ones, and each round's calls are shuffled by the
seed.  gc.collect() runs before every call.  Each call's wall time is
scaled to a nominal host speed (see refloop.py), and a timing is the
median over its calls.  Peak heap comes from its own tracemalloc pass
after the rounds, so tracemalloc never runs during a timed call.

--trace 0 prints the end-to-end metrics.  --trace 1 prints per-layer
metrics: each round then makes every operation once untraced and once
traced, plus the single-layer calls in workloads.PARTS; spans go to
.bench_out/ and the traced-minus-untraced time is the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The program is imported from src/ next to this directory;
without it the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import statistics
import sys
import tracemalloc
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import refloop
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
MAX_REPS = 4
REP_TARGET_S = 0.2


def load_holosim():
    if not (SRC / "holosim" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no holosim package under {SRC}")
    sys.path.insert(0, str(SRC))
    import holosim

    if (SRC / "holosim") not in Path(holosim.__file__).resolve().parents:
        raise SystemExit(f"benchmark: holosim imported from {holosim.__file__}, not {SRC}")
    return holosim


def median(xs):
    return statistics.median(xs)


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


# ---------------------------------------------------------------------------
# the rounds


class Runner:
    def __init__(self, bench):
        self.bench = bench
        self.tracer = spans.Tracer()
        self.null = spans.NullTracer()
        # times in nominal seconds, see refloop
        self.plain: dict[str, list[float]] = defaultdict(list)
        self.wall: dict[str, list[float]] = defaultdict(list)
        self.slowdowns: list[float] = []
        self.last_ref = None  # the reference after one call is the one before the next
        self.traced: dict[str, list[float]] = defaultdict(list)
        self.calls: list[tuple] = []  # traced: (round, op, self times, attrs)
        self.setup_parts: list[dict] = []
        self.attempted = 0
        self.failed = 0

    def call(self, op: str, traced: bool, rnd: int) -> None:
        tr = self.tracer if traced else self.null
        first = len(self.tracer.spans)
        gc.collect()
        ref_before = self.last_ref or refloop.reference_loop_s()
        with tr.span("op." + op), refloop.ticks() as samples:
            t0 = perf_counter()
            try:
                out = getattr(self.bench, "op_" + op)(tr)
                error = None
            except Exception as exc:  # a failed operation is counted, not fatal
                out, error = None, exc
            elapsed = perf_counter() - t0
        self.last_ref = refloop.reference_loop_s()
        slow = refloop.slowdown(ref_before, samples, self.last_ref)
        self.slowdowns.append(slow)
        # leave out the time the samples took, then scale to nominal speed
        scale = (1 - sum(samples) / elapsed) / slow
        self.attempted += 1
        ok = False
        if error is None:
            try:
                ok = bool(getattr(self.bench, "check_" + op)(out))
            except Exception as exc:
                error = exc
        if not ok:
            self.failed += 1
            print(f"FAILED {op} (round {rnd}{', traced' if traced else ''}): {error or 'output differs from the oracle'}")
        scaled = elapsed * scale
        if op == "setup" and ok:
            # the child process scales its own import and parse time
            scaled = out["import_s"] + out["parse_s"]
            self.setup_parts.append(out)
        if not traced:
            self.wall[op].append(elapsed)
        (self.traced if traced else self.plain)[op].append(scaled)
        if traced:
            attrs = {}
            for span in self.tracer.spans[first:]:
                attrs.update((k, v * scale if k.endswith("_s") else v) for k, v in span[4].items())
            selfs = {k: v * scale for k, v in spans.self_times(self.tracer.spans, first).items()}
            self.calls.append((rnd, op, selfs, attrs))


def run_rounds(runner, ops, parts, deadline, trace, rng) -> int:
    """Rounds until the perf_counter deadline.  After the first round an
    untraced round repeats each cheap operation up to MAX_REPS times, so
    that it takes about REP_TARGET_S, and shuffles all the calls."""
    reps = dict.fromkeys(ops, 1)
    rounds = 0
    while True:
        began = perf_counter()
        calls = [(op, False) for op in ops for _ in range(reps[op])]
        if trace:
            calls += [(op, True) for op in ops + parts]
        rng.shuffle(calls)
        for op, traced in calls:
            runner.call(op, traced, rounds)
        rounds += 1
        if not trace:
            reps = {op: max(1, min(MAX_REPS, round(REP_TARGET_S / median(runner.plain[op])))) for op in ops}
            reps["setup"] = 1  # a fresh interpreter costs more than the time it reports
        took = perf_counter() - began
        # stop before a round that would overrun the deadline
        if rounds >= (MIN_TRACED_ROUNDS if trace else MIN_ROUNDS) and perf_counter() + took > deadline:
            return rounds


def heap_pass(calls: dict, modes) -> dict:
    """tracemalloc peak in KiB per mode; the rounds were the warm-up."""
    peaks = {}
    for mode in modes:
        gc.collect()
        tracemalloc.start()
        try:
            calls[mode]()
            peaks[mode] = tracemalloc.get_traced_memory()[1] / 1024
        finally:
            tracemalloc.stop()
    return peaks


def host_facts() -> dict:
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text().strip() if target and target.is_file() else ref
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"commit": commit, "python": platform.python_version(), "nproc": nproc, "cpu": cpu}


# ---------------------------------------------------------------------------
# metrics


def end_to_end(runner, bench, heap) -> dict:
    p = {op: median(xs) for op, xs in runner.plain.items()}
    t = bench.spec.t
    out = {
        "setup_s": (p["setup"], "s"),
        "oracle_steps_per_s": (t / p["oracle"], "steps/s"),
        "stream_steps_per_s": (t / p["bare"], "steps/s"),
        "emit_steps_per_s": (t / p["emit"], "steps/s"),
        "ledger_steps_per_s": (t / p["ledger"], "steps/s"),
        "verify_steps_per_s": (bench.spec.verify_t / p["verify"], "steps/s"),
        "replay_early_s": (p["replay_early"], "s"),
        "peak_heap_kib": (heap["emit"], "KiB"),
        "tree_label_s": (p["tree_label"], "s"),
        "witness_pointwise_s": (p["witness_pointwise"], "s"),
        "witness_history_s": (p["witness_history"], "s"),
    }
    if bench.ledger_counts is not None:
        out["ledger_max_total_cells"] = (bench.ledger_counts["max_total"], "count")
    return out


# per-layer metric -> span whose self time it is
SPAN_METRICS = {
    "machine.run_s": "machine.run",
    "machine.history_index_s": "machine.history_index",
    "streaming.bare_s": "streaming.holo_run.bare",
    "blocks.leaf_summary_s": "blocks.leaf_summary",
    "blocks.merge_s": "blocks.merge",
    "ctree.label_tree_s": "ctree.label_tree",
    "ctree.tree_to_json_s": "ctree.tree_to_json",
    "codec.encode_summary_s": "codec.encode_summary",
    "codec.decode_summary_s": "codec.decode_summary",
    "codec.encode_history_s": "codec.encode_history",
    "replay.replay_from_summary_s": "replay.replay_from_summary",
    "witness.parse_s": "witness.parse",
}


def per_layer(runner, bench, heap, witness_lengths) -> dict:
    span_of = dict(SPAN_METRICS)
    for n in witness_lengths:
        span_of[f"replay.replay_all_s.n{n}"] = f"replay.replay_all.n{n}"
        span_of[f"witness.history_s.n{n}"] = f"witness.history.n{n}"
    by_span = defaultdict(list)
    by_round = defaultdict(dict)
    attrs = defaultdict(list)
    for rnd, op, selfs, extra in runner.calls:
        for name, value in selfs.items():
            by_span[name].append(value)
        by_round[rnd].update(selfs)
        by_round[rnd].update(extra)
        for key, value in extra.items():
            attrs[key].append(value)
    out = {metric: (median(by_span[span]), "s") for metric, span in span_of.items()}

    def per_round(expr):
        return median([expr(r) for r in by_round.values()])

    out["machine.cursor_snapshot_s"] = (
        per_round(lambda r: r["machine.cursor_snapshot_walk"] - r["machine.cursor_advance"]), "s")
    out["streaming.sink_s"] = (median(attrs["sink_s"]), "s")
    out["streaming.emit_self_s"] = (
        per_round(lambda r: r["streaming.holo_run.emit"] - r["sink_s"] - r["streaming.holo_run.bare"]), "s")
    out["ledger.meter_s"] = (
        per_round(lambda r: r["streaming.holo_run.ledger"] - r["streaming.holo_run.bare"]), "s")
    out["cli.verify_overhead_s"] = (
        per_round(lambda r: r["cli.simulate_verify"] - r["cli.parts.run"] - r["cli.parts.ledger"]), "s")
    out["blocks.merge_cells"] = (attrs["merge_cells"][0], "count")
    out["codec.summary_bytes"] = (attrs["summary_bytes"][0], "B")
    out["setup.import_s"] = (median([s["import_s"] for s in runner.setup_parts]), "s")
    out["setup.parse_machine_s"] = (median([s["parse_s"] for s in runner.setup_parts]), "s")

    counts = bench.ledger_counts
    out["ledger.max_screen_cells"] = (counts["max_screen"], "count")
    out["ledger.max_book_cells"] = (counts["max_book"], "count")
    out["ledger.max_pending"] = (counts["max_pending"], "count")
    out["ledger.dirty_evictions"] = (counts["dirty_evictions"], "count")
    out["ledger.steps_recorded"] = (counts["steps_recorded"], "count")
    for mode in ("bare", "emit", "ledger"):
        out[f"streaming.peak_heap_kib.{mode}"] = (heap[mode], "KiB")
    out["machine.run_peak_heap_kib"] = (heap["run"], "KiB")
    out["streaming.heap_bytes_per_screen_cell"] = (heap["emit"] * 1024 / counts["max_screen"], "B/cell")

    p = {op: median(xs) for op, xs in runner.plain.items()}
    out["streaming.emit_over_bare"] = (p["emit"] / p["bare"], "x")
    out["ledger.over_bare"] = (p["ledger"] / p["bare"], "x")
    overhead = sum(median(runner.traced[op]) - p[op] for op in runner.plain)
    out["trace.overhead_s"] = (overhead, "s")
    return out


# ROADMAP "Recent" baseline ranges for the ratio against bare holo_run
RECENT_RATIOS = {
    ("counter", "emit"): (2.5, 3.5),
    ("counter", "ledger"): (4.0, 6.0),
    ("palin", "emit"): (7.0, 11.0),
    ("palin", "ledger"): (4.0, 6.0),
}


def print_context(runner, bench, name, heap, rounds, host, root_sha):
    print(f"workload {name}: {bench.spec.machine} t={bench.spec.t} b={bench.b} "
          f"verify_t={bench.spec.verify_t} label_b={bench.label_decomp.b} rounds={rounds}")
    print(f"host: commit={host['commit']} python={host['python']} nproc={host['nproc']} cpu={host['cpu']}")
    slow = runner.slowdowns
    print(f"host slowdown against the reference loop's nominal {refloop.REF_SECONDS * 1e3:.1f} ms: "
          f"min {min(slow):.2f}x, median {median(slow):.2f}x, max {max(slow):.2f}x over {len(slow)} calls")
    print(f"root summary sha256:{root_sha} "
          f"(t={bench.spec.t}, b={bench.b}, boundary policy, from the oracle)")
    for op, xs in sorted(runner.plain.items()):
        q1, q3 = quartiles(xs)
        print(f"  call {op:18s} median {median(xs):.4f} s  q1 {q1:.4f}  q3 {q3:.4f}  n={len(xs)}  "
              f"(wall median {median(runner.wall[op]):.4f} s)")
    bare = median(runner.plain["bare"])
    for mode in ("emit", "ledger"):
        ratio = median(runner.plain[mode]) / bare
        rng = RECENT_RATIOS.get((name, mode))
        verdict = "no ROADMAP range" if rng is None else (
            f"ROADMAP Recent {rng[0]}-{rng[1]}x: {'inside' if rng[0] <= ratio <= rng[1] else 'outside'}")
        print(f"  {mode}/bare = {ratio:.2f}x (base: bare {bare:.4f} s = {bench.spec.t / bare:.0f} steps/s; {verdict})")
    if bench.ledger_counts:
        print(f"  heap {', '.join(f'{m} {v:.1f} KiB' for m, v in heap.items())} "
              f"beside ledger max_screen {bench.ledger_counts['max_screen']} cells")


def main(argv=None) -> int:
    started = perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steps", type=int, default=None, help="run length t (default 2^14)")
    args = ap.parse_args(argv)

    load_holosim()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; have {', '.join(workloads.WORKLOADS)}")
    host = host_facts()
    bench = workloads.Bench(args.workload, args.seed, args.steps or workloads.STEPS)
    # the oracle data above stays alive all run; keep it out of the
    # collector's way so that it adds no work to the timed calls
    gc.collect()
    gc.freeze()
    runner = Runner(bench)
    rounds = run_rounds(
        runner, list(workloads.OPS), list(workloads.PARTS), started + args.seconds, args.trace,
        random.Random(f"order-{args.seed}"),
    )
    heap = heap_pass(bench.heap_calls(), ("bare", "emit", "ledger", "run") if args.trace else ("emit",))
    print_context(runner, bench, args.workload, heap, rounds, host, workloads.sha16(bench.root_bytes))

    correct = runner.failed == 0 and bench.ledger_counts is not None
    if args.trace:
        metrics = per_layer(runner, bench, heap, workloads.WITNESS_LENGTHS)
        out = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json"
        runner.tracer.write(out)
        print(f"spans: {len(runner.tracer.spans)} -> {out.relative_to(ROOT)}")
    else:
        metrics = end_to_end(runner, bench, heap)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
