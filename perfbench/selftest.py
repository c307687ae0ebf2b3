#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

* every workload runs at a tiny t, untraced and traced, and prints
  every metric that BENCHMARK.json names, with its unit and 0 failures;
* a deliberately corrupted copy of each operation's output is judged
  wrong by its check and counted as failed by the runner;
* the root summaries at t = 2^16, b = 256 have the SHA-256 prefixes
  recorded when the benchmark was defined;
* in a directory holding only BENCHMARK.json and this benchmark, the
  benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import json
import shutil
import subprocess
import sys

import run

TINY_T = 2048
ROOT_SHA_2_16 = {"counter": "349c9869b7d59856", "palin": "8451cc9877197d7b", "sweep": "e87ac37a7037fdb5"}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def last_json(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def test_every_metric_printed():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = last_json(["--workload", workload, "--seed", "7", "--seconds", "0",
                             "--trace", str(trace), "--steps", str(TINY_T)])
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, (workload, trace, res)
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())


def _flip(data: bytes) -> bytes:
    return data[:-1] + bytes([data[-1] ^ 1])


def _other_state(config):
    return dataclasses.replace(config, state=config.state + "'")


def _emit_seen(out):
    seen = list(out["seen"])
    time, state, heads, syms = seen[len(seen) // 2]
    seen[len(seen) // 2] = (time, state + "'", heads, syms)
    return {**out, "seen": seen}


def _emit_kept(out):
    kept = dict(out["kept"])
    tau = next(iter(kept))
    kept[tau] = _other_state(kept[tau])
    return {**out, "kept": kept}


def _ledger(out):
    ledger = copy.copy(out["ledger"])
    ledger.max_total += 1
    return {**out, "ledger": ledger}


def _swap_mode(stdout: str) -> str:
    if "(strict)" in stdout:
        return stdout.replace("(strict)", "(windowed)")
    return stdout.replace("(windowed)", "(strict)")


def _moved_heads(summary):
    return dataclasses.replace(summary, heads_out=tuple(h + 1 for h in summary.heads_out))


# one or more ways to corrupt a copy of each operation's output
CORRUPTIONS = {
    "setup": [lambda out: {**out, "canonical": out["canonical"] + "#"}],
    "oracle": [lambda rec: dataclasses.replace(rec, t=rec.t - 1)],
    "bare": [_moved_heads],
    "emit": [_emit_seen, _emit_kept, lambda out: {**out, "root": _moved_heads(out["root"])}],
    "ledger": [_ledger, lambda out: {**out, "root": _moved_heads(out["root"])}],
    "verify": [
        lambda out: {**out, "stdout": out["stdout"].replace("root=sha256:", "root=sha256:f", 1)},
        lambda out: {**out, "stdout": _swap_mode(out["stdout"])},
        lambda out: {**out, "exit": 4},
    ],
    "replay_early": [_other_state],
    "tree_label": [
        lambda out: {**out, "labels": out["labels"][1:2] + out["labels"][1:]},
        lambda out: {**out, "decoded": out["decoded"][:-1] + out["decoded"][:1]},
    ],
    "witness_pointwise": [lambda out: out[:-1] + [_flip(out[-1])]],
    "witness_history": [lambda out: [_flip(out[0])] + out[1:]],
    "history_index": [lambda out: out[:-1] + [(out[-1][0], out[-1][1] + "'", out[-1][2])]],
    "cursor_snapshot": [_other_state],
    "verify_parts": [_moved_heads],
    "summary_parts": [_moved_heads],
    "witness_parts": [
        lambda out: {**out, "histories": [_flip(out["histories"][0])] + out["histories"][1:]},
        lambda out: {**out, "points": out["points"][:-1] + [_flip(out["points"][-1])]},
    ],
}


def test_corrupted_output_counts_as_failed():
    import spans
    import workloads

    assert set(CORRUPTIONS) == set(workloads.OPS + workloads.PARTS)
    for workload in workloads.WORKLOADS:
        bench = workloads.Bench(workload, 3, TINY_T)
        tracer = spans.NullTracer()
        for op, corruptions in CORRUPTIONS.items():
            produce, check = getattr(bench, "op_" + op), getattr(bench, "check_" + op)
            out = produce(tracer)
            assert check(out), (workload, op, "genuine output rejected")
            for corrupt in corruptions:
                assert not check(corrupt(out)), (workload, op, "corrupted output passed")
        # the runner counts a corrupted output as one failed operation
        runner = run.Runner(bench)
        genuine = bench.op_witness_history
        bench.op_witness_history = lambda tr: CORRUPTIONS["witness_history"][0](genuine(tr))
        with contextlib.redirect_stdout(io.StringIO()):
            runner.call("bare", False, 0)
            runner.call("witness_history", False, 0)
        assert (runner.attempted, runner.failed) == (2, 1), (workload, runner.attempted, runner.failed)


def test_root_sha_at_2_16():
    import holosim as hs
    import workloads

    t, b = 2**16, 256
    for name, want in ROOT_SHA_2_16.items():
        spec = workloads.spec_for(name, t)
        machine = hs.load_sample(spec.machine)
        streamed = hs.encode_summary(hs.holo_run(machine, spec.word, t, b=b))
        oracle = workloads.boundary_root(hs.run(machine, spec.word, t), b)
        assert workloads.sha16(streamed) == workloads.sha16(oracle) == want, name


def test_exits_without_program():
    bare = run.ROOT / ".bench_out" / "without-program"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(run.ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", SPEC["workloads"][0]["name"],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        assert proc.returncode != 0 and '"correct"' not in proc.stdout, (proc.returncode, proc.stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    run.load_holosim()
    failures = 0
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            try:
                test()
                print(f"PASS {name}")
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {name}: {exc}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
