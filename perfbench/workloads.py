"""Workload inputs, the operations a benchmark round makes, and the
checks of every output against the oracle `machine.run`.

Each workload is one bundled machine with its input.  Every workload
runs the same operations, so every end-to-end metric exists on every
workload:

* the streamed run (`holo_run` bare, with a sink, with a ledger), the
  CLI's `simulate --verify`, `reconstruct_at` at an early step, and the
  oracle itself, at t steps with b = ceil(sqrt t);
* the summary-tree audit path at b = 16: `label_tree` over the oracle
  run, `tree_to_json`, decoding every label, and the pointwise and
  history witnesses on intervals of 64, 256 and 1024 steps.

Operations are methods `op_<name>(tracer)` that return their output
without judging it; `check_<name>(output)` judges it afterwards, outside
the timed region.  The trace-only operations (`PARTS`) call single
layers so that their time can be read apart from the composite calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import holosim as hs
from holosim import cli
from holosim.blocks import POLICY_BOUNDARY
from holosim.samples import sample_path

SRC = Path(hs.__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
C_INT = 2
# 2^13 rather than 2^16: at 2^16 one round of every operation on palin
# takes about 25 s (simulate --verify alone 10 s), too long to take the
# median of enough interleaved calls within one run on a noisy host.
STEPS = 2**13
LABEL_B = 16
WITNESS_LENGTHS = (64, 256, 1024)
POINTS_PER_INTERVAL = 8
SAMPLED_STEPS = 16

WORKLOADS = ("counter", "palin", "sweep")
OPS = (
    "setup",
    "oracle",
    "bare",
    "emit",
    "ledger",
    "verify",
    "replay_early",
    "tree_label",
    "witness_pointwise",
    "witness_history",
)
PARTS = ("history_index", "cursor_snapshot", "verify_parts", "summary_parts", "witness_parts")


@dataclass(frozen=True)
class Spec:
    machine: str
    word: str
    t: int
    verify_word: str
    verify_t: int
    strict: bool  # emissions equal the oracle outright, not only inside their windows


def spec_for(name: str, t: int) -> Spec:
    # simulate --verify runs at a quarter of t, so that a run holds
    # enough calls for a steady median, on an input sized for that run;
    # on sweep at an eighth, because the verifier snapshots the whole
    # written tape on every step, which is quadratic there.
    if name == "counter":
        word = hs.counter_input(20)
        return Spec("counter", word, t, word, t // 4, True)
    if name == "palin":
        return Spec("palin", hs.palin_input(t), t, hs.palin_input(t // 4), t // 4, True)
    if name == "sweep":
        return Spec("sweep", "", t, "", t // 8, False)
    raise KeyError(f"unknown workload {name!r}; have {', '.join(WORKLOADS)}")


def sha16(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def boundary_root(record, b: int) -> bytes:
    """Encoded boundary-policy root summary computed from the oracle."""
    decomp = hs.decompose(record.t, b)
    return hs.encode_summary(
        hs.direct_summary(record, decomp, 1, decomp.T, C_INT, POLICY_BOUNDARY)
    )


def observations(record) -> list[tuple]:
    """(time, state, heads, symbols under the heads) after every step,
    from one cursor walk, without a snapshot per step."""
    cursor = record.history.cursor()
    out = []
    for _ in range(record.t):
        cursor.advance()
        heads = tuple(cursor.heads)
        out.append(
            (cursor.time, cursor.state, heads, tuple(cursor.read(i, h) for i, h in enumerate(heads)))
        )
    return out


def restricted_now(cursor, machine, spans) -> hs.Configuration:
    """The cursor's configuration masked to spans, built cell by cell."""
    cells = tuple(
        {c: tape[c] for c in range(lo, hi + 1) if c in tape}
        for tape, (lo, hi) in zip(cursor.cells, spans)
    )
    return hs.Configuration(
        machine=machine,
        time=cursor.time,
        state=cursor.state,
        heads=tuple(cursor.heads),
        cells=cells,
        spans=tuple(spans),
    )


@dataclass(frozen=True)
class Interval:
    n: int
    blob: bytes  # encoded full-policy summary
    points: tuple[tuple[int, bytes], ...]  # (tau, uvarint tau)
    want_points: tuple[bytes, ...]
    want_history: bytes


# Runs in a fresh interpreter with only the reference loop loaded, and
# scales its own time, since it may run on the other core.
_SETUP_CHILD = """
import json, sys, time
sys.path.insert(0, sys.argv[2])
from refloop import reference_loop_s, slowdown, ticks
reference_loop_s()  # the first pass runs before the interpreter has specialised the loop
before = reference_loop_s()
with ticks() as samples:
    t0 = time.perf_counter()
    import holosim
    t1 = time.perf_counter()
    from holosim.machine import parse_machine, serialize_machine
    with open(sys.argv[1], encoding="utf-8") as f:
        text = f.read()
    t2 = time.perf_counter()
    machine = parse_machine(text)
    t3 = time.perf_counter()
scale = (1 - sum(samples) / (t3 - t0)) / slowdown(before, samples, reference_loop_s())
print(json.dumps({"import_s": (t1 - t0) * scale, "parse_s": (t3 - t2) * scale,
                  "file": holosim.__file__, "canonical": serialize_machine(machine)}))
"""


class Bench:
    """One workload's inputs and oracle expectations, built from the
    seed; the seed picks the early tau, the sampled steps and the
    witness intervals, never the machine or its input."""

    def __init__(self, name: str, seed: int, t: int = STEPS):
        self.spec = spec = spec_for(name, t)
        rng = random.Random(seed)
        self.machine = m = hs.load_sample(spec.machine)
        self.b = hs.default_block_length(t)
        self.record = self._oracle(spec.word, t)
        self.observed = observations(self.record)
        self.root_bytes = boundary_root(self.record, self.b)
        history = self.record.history
        self.sampled = {tau: history[tau] for tau in sorted(rng.sample(range(1, t + 1), SAMPLED_STEPS))}
        self.tau_early = rng.randint(1, self.b)
        self.early_config = history[self.tau_early]

        self.verify_record = self._oracle(spec.verify_word, spec.verify_t)
        self.verify_b = hs.default_block_length(spec.verify_t)
        self.verify_sha = sha16(boundary_root(self.verify_record, self.verify_b))

        self.label_decomp = hs.decompose(t, LABEL_B)
        self.label_root = hs.direct_summary(self.record, self.label_decomp, 1, self.label_decomp.T, C_INT)

        self.pointwise = hs.build_witness(m, hs.KIND_POINTWISE).data
        self.history_witness = hs.build_witness(m, hs.KIND_HISTORY).data
        self.intervals = tuple(self._interval(rng, n) for n in WITNESS_LENGTHS)
        self.ledger_counts: dict | None = None

    def _oracle(self, word: str, t: int):
        record = hs.run(self.machine, word, t)
        if record.t != t:
            raise RuntimeError(f"{self.spec.machine} halts after {record.t} steps, not {t}")
        return record

    def _interval(self, rng: random.Random, n: int) -> Interval:
        # starts near the middle of the run and taus spread evenly over
        # the interval, so the seed moves the positions but hardly the work
        L = self.spec.t // 2 - n // 2 + rng.randrange(LABEL_B)
        R = L + n - 1
        summary = hs.interval_summary(self.record, L, R)
        spans = tuple(w.span for w in summary.entry)
        cursor = self.record.history.cursor()
        cursor.advance_to(L - 1)
        configs = [restricted_now(cursor, self.machine, spans)]
        while cursor.time < R:
            cursor.advance()
            configs.append(restricted_now(cursor, self.machine, spans))
        stride = (n + 1) // POINTS_PER_INTERVAL
        taus = [L - 1 + j * stride + rng.randrange(stride) for j in range(POINTS_PER_INTERVAL)]
        return Interval(
            n=n,
            blob=hs.encode_summary(summary),
            points=tuple((tau, hs.encode_uvarint(tau)) for tau in taus),
            want_points=tuple(hs.encode_configuration(configs[tau - L + 1]) for tau in taus),
            want_history=hs.encode_history(configs),
        )

    def _matches(self, got: hs.Configuration, want: hs.Configuration) -> bool:
        if self.spec.strict:
            return got == want
        return got.restricted(got.spans) == want.restricted(got.spans)

    def _observing_sink(self, seen: list, kept: dict):
        blank = self.machine.blank
        sampled = self.sampled

        def sink(c):
            seen.append(_observe(c, blank))
            if c.time in sampled:
                kept[c.time] = c

        return sink

    def _stream(self, **kwargs):
        return hs.holo_run(self.machine, self.spec.word, self.spec.t, b=self.b, c_int=C_INT, **kwargs)

    # ---- operations timed for the end-to-end metrics ----------------------

    def op_setup(self, tr):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
        with tr.span("setup.subprocess"):
            proc = subprocess.run(
                [sys.executable, "-c", _SETUP_CHILD, str(sample_path(self.spec.machine)), str(HERE)],
                cwd=SRC.parent,
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            )
        return json.loads(proc.stdout.splitlines()[-1])

    def check_setup(self, out) -> bool:
        loaded_from = Path(out["file"]).resolve()
        return SRC in loaded_from.parents and out["canonical"] == hs.serialize_machine(self.machine)

    def op_oracle(self, tr):
        with tr.span("machine.run"):
            return hs.run(self.machine, self.spec.word, self.spec.t)

    def check_oracle(self, record) -> bool:
        return record.t == self.spec.t and record.history.final == self.record.history.final

    def op_bare(self, tr):
        with tr.span("streaming.holo_run.bare"):
            return self._stream()

    def check_bare(self, root) -> bool:
        return hs.encode_summary(root) == self.root_bytes

    def op_emit(self, tr):
        seen: list = []
        kept: dict = {}
        sink = self._observing_sink(seen, kept)
        with tr.span("streaming.holo_run.emit") as attrs:
            if tr.enabled:
                sink, spent = _timed(sink)
                root = self._stream(sink=sink)
                attrs["sink_s"] = spent[0]
            else:
                root = self._stream(sink=sink)
        return {"root": root, "seen": seen, "kept": kept}

    def check_emit(self, out) -> bool:
        return (
            hs.encode_summary(out["root"]) == self.root_bytes
            and out["seen"] == self.observed
            and out["kept"].keys() == self.sampled.keys()
            and all(self._matches(c, self.sampled[tau]) for tau, c in out["kept"].items())
        )

    def op_ledger(self, tr):
        ledger = hs.attach_ledger(self.machine, self.spec.t, self.b, C_INT)
        with tr.span("streaming.holo_run.ledger"):
            root = self._stream(ledger=ledger)
        return {"root": root, "ledger": ledger}

    def check_ledger(self, out) -> bool:
        ledger = out["ledger"]
        counts = {
            "max_total": ledger.max_total,
            "max_screen": ledger.max_screen,
            "max_book": ledger.max_book,
            "max_pending": ledger.max_pending,
            "dirty_evictions": ledger.dirty_evictions,
            "steps_recorded": ledger.steps_recorded,
        }
        if self.ledger_counts is None and counts["steps_recorded"] == self.spec.t:
            self.ledger_counts = counts
        # the ledger has no oracle; its counts must at least repeat exactly
        return hs.encode_summary(out["root"]) == self.root_bytes and counts == self.ledger_counts

    def op_verify(self, tr):
        argv = ["simulate", self.spec.machine, self.spec.verify_word, "--t", str(self.spec.verify_t), "--verify"]
        stdout = io.StringIO()
        with tr.span("cli.simulate_verify"), contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        return {"exit": code, "stdout": stdout.getvalue()}

    def check_verify(self, out) -> bool:
        root = re.search(r"root=sha256:([0-9a-f]{16})", out["stdout"])
        done = re.search(r"verified (\d+) emissions against direct simulation \((\w+)\)", out["stdout"])
        mode = "strict" if self.spec.strict else "windowed"
        return (
            out["exit"] == 0
            and root is not None
            and root.group(1) == self.verify_sha
            and done is not None
            and done.groups() == (str(self.spec.verify_t), mode)
        )

    def op_replay_early(self, tr):
        with tr.span("streaming.reconstruct_at"):
            return hs.reconstruct_at(
                self.machine, self.spec.word, self.spec.t, self.tau_early, b=self.b, c_int=C_INT
            )

    def check_replay_early(self, config) -> bool:
        return config.time == self.tau_early and self._matches(config, self.early_config)

    def op_tree_label(self, tr):
        with tr.span("machine.run"):
            record = hs.run(self.machine, self.spec.word, self.spec.t)
        tree = hs.build_tree(self.label_decomp)
        with tr.span("ctree.label_tree"):
            tree = hs.label_tree(tree, record, C_INT)
        with tr.span("ctree.tree_to_json"):
            doc = hs.tree_to_json(tree)
        with tr.span("codec.decode_summary"):
            decoded = [hs.decode_summary_exact(bytes.fromhex(n["summary_hex"]), self.machine) for n in doc["nodes"]]
        return {"labels": [tree.labels[n.id] for n in tree.nodes], "decoded": decoded}

    def check_tree_label(self, out) -> bool:
        return (
            len(out["labels"]) == 2 * self.label_decomp.T - 1
            and out["labels"][0] == self.label_root
            and out["decoded"] == out["labels"]
        )

    def op_witness_pointwise(self, tr):
        out = []
        for iv in self.intervals:
            for _, tau_bytes in iv.points:
                with tr.span("witness.pointwise"):
                    out.append(hs.run_witness(self.pointwise, [iv.blob, tau_bytes]))
        return out

    def check_witness_pointwise(self, out) -> bool:
        return out == [p for iv in self.intervals for p in iv.want_points]

    def op_witness_history(self, tr):
        out = []
        for iv in self.intervals:
            with tr.span(f"witness.history.n{iv.n}"):
                out.append(hs.run_witness(self.history_witness, [iv.blob]))
        return out

    def check_witness_history(self, out) -> bool:
        return out == [iv.want_history for iv in self.intervals]

    # ---- trace-only operations: one layer per span ------------------------

    def op_history_index(self, tr):
        history = self.record.history
        with tr.span("machine.history_index"):
            # what label_tree asks of the oracle: each block's L-1 and R
            return [
                (c.time, c.state, c.heads)
                for c in (history[tau] for L, R in self.label_decomp.blocks for tau in (L - 1, R))
            ]

    def check_history_index(self, out) -> bool:
        return len(out) == 2 * self.label_decomp.T and all(
            got == self.observed[got[0] - 1][:3] for got in out if got[0] > 0
        )

    def op_cursor_snapshot(self, tr):
        history = self.verify_record.history
        with tr.span("machine.cursor_advance"):
            cursor = history.cursor()
            while cursor.time < history.t:
                cursor.advance()
        with tr.span("machine.cursor_snapshot_walk"):
            cursor = history.cursor()
            while cursor.time < history.t:
                cursor.advance()
                last = cursor.snapshot()
        return last

    def check_cursor_snapshot(self, last) -> bool:
        return last == self.verify_record.history.final

    def op_verify_parts(self, tr):
        word, t = self.spec.verify_word, self.spec.verify_t
        with tr.span("cli.parts.run"):
            hs.run(self.machine, word, t)
        ledger = hs.attach_ledger(self.machine, t, self.verify_b, C_INT)
        with tr.span("cli.parts.ledger"):
            return hs.holo_run(self.machine, word, t, b=self.verify_b, c_int=C_INT, ledger=ledger)

    def check_verify_parts(self, root) -> bool:
        return sha16(hs.encode_summary(root)) == self.verify_sha

    def op_summary_parts(self, tr):
        tree = hs.build_tree(self.label_decomp)
        labels = {}
        with tr.span("blocks.leaf_summary"):
            for node in tree.leaves():
                labels[node.id] = hs.leaf_summary(self.record, self.label_decomp.block(node.leaf_lo), C_INT, LABEL_B)
        merged = []
        with tr.span("blocks.merge"):
            # pre-order ids: children come after their parent
            for node in reversed(tree.nodes):
                if not node.is_leaf:
                    labels[node.id] = hs.merge(labels[node.left], labels[node.right])
                    merged.append(labels[node.id])
        with tr.span("codec.encode_summary") as attrs:
            blobs = [hs.encode_summary(labels[n.id]) for n in tree.nodes]
        attrs["merge_cells"] = sum(map(hs.screen_area, merged))
        attrs["summary_bytes"] = sum(map(len, blobs))
        return labels[0]

    def check_summary_parts(self, root) -> bool:
        return root == self.label_root

    def op_witness_parts(self, tr):
        histories, points = [], []
        for iv in self.intervals:
            with tr.span("witness.parse"):
                hs.parse_witness(self.history_witness)
            summary = hs.decode_summary_exact(iv.blob, self.machine)
            with tr.span(f"replay.replay_all.n{iv.n}"):
                configs = hs.replay_all(self.machine, summary)
            with tr.span("codec.encode_history"):
                histories.append(hs.encode_history(configs))
            for tau, _ in iv.points:
                with tr.span("replay.replay_from_summary"):
                    config = hs.replay_from_summary(self.machine, summary, tau)
                points.append(hs.encode_configuration(config))
        return {"histories": histories, "points": points}

    def check_witness_parts(self, out) -> bool:
        return out["histories"] == [iv.want_history for iv in self.intervals] and out["points"] == [
            p for iv in self.intervals for p in iv.want_points
        ]

    # ---- heap pass ---------------------------------------------------------

    def heap_calls(self) -> dict:
        """The calls whose tracemalloc peak is reported, by mode.  The
        emit sink reads what the timed sink reads but keeps nothing."""
        blank = self.machine.blank
        return {
            "bare": lambda: self._stream(),
            "emit": lambda: self._stream(sink=lambda c: _observe(c, blank)),
            "ledger": lambda: self._stream(ledger=hs.attach_ledger(self.machine, self.spec.t, self.b, C_INT)),
            "run": lambda: hs.run(self.machine, self.spec.word, self.spec.t),
        }


def _observe(c: hs.Configuration, blank: str) -> tuple:
    """What the benchmark's sink reads: time, state, heads and the
    symbol under each head."""
    return (c.time, c.state, c.heads, tuple([tape.get(h, blank) for tape, h in zip(c.cells, c.heads)]))


def _timed(fn):
    spent = [0.0]

    def wrapped(c):
        t0 = perf_counter()
        fn(c)
        spent[0] += perf_counter() - t0

    return wrapped, spent
