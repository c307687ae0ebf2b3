"""A behaviour digest: one sha256 per section of holosim's outputs.

Run

    python tests/digest.py

from the repository root, once on each of two checkouts, and compare the
lines: a change that keeps behaviour prints the same hashes.  Each
section hashes a fixed, seeded set of outputs, every item prefixed by
its length:

* history-bundled, pointwise-bundled: the history and pointwise
  witnesses of counter, palin and sweep at t = 2^13, on intervals of
  64, 256 and 1024 steps at the start, the middle and the end of the
  run, the pointwise one at every time of each interval;
* history-random, pointwise-random: both witnesses on the random, wide
  alphabet and blinker cases of
  test_history_witness_equals_encoded_replay_random_machines, the
  pointwise one at every time of each interval;
* error-parity: for the 600 crafted summaries of
  test_history_witness_error_parity_on_crafted_summaries, the records
  replay_records emits, the error it raises, and what the history
  witness returns or raises, as class and args;
* roots, ledgers: the root summary bytes and the ledger figures of each
  bundled machine's streamed run at t = 2^13 (writer2 at its halt), at
  b = 91 and at the default b;
* ledgers-random: every figure of a gated ledger and of a keep_series
  one, its series included, and the outcome of the run, over the random
  and wide alphabet machines of
  test_gate_matches_forced_metering_random_machines, violations
  included;
* verify: the exit code and output of `simulate --verify`, run through
  cli.main, for each bundled machine at t = 2^13 (writer2 at its halt)
  and for the runs of ledgers-random, the wide alphabet machines on the
  empty word;
* reference, reference-mismatch: the codec's encodings of every label
  of each bundled machine's summary tree at t = 2^13 and b = 16, of
  every 64th configuration of those runs and of the history of a
  64-step interval of each, and of random summaries and configurations
  over random machines, one-character alphabets of 128 and 129
  symbols and the alphabets without a code table; the second section
  holds only those that differ from the reference encoders of
  tests/support.py, so it reads 0 items when the two agree.

The digest is not part of the test suite and uses only the standard
library, holosim and tests/support.py.  It takes about 10 seconds on two
cores.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import holosim as hs  # noqa: E402
from holosim import cli, replay  # noqa: E402
from holosim.samples import counter_input, load_sample, palin_input  # noqa: E402
from support import (  # noqa: E402
    NO_TABLE_ALPHABETS,
    alphabet_machine,
    blinker_machine,
    glyph_machine,
    oracle_walk,
    random_configuration,
    random_machine,
    random_summary,
    reference_encode_configuration,
    reference_encode_history,
    reference_encode_summary,
    wide_alphabet_machine,
)

T = 2**13
BUNDLED = (("counter", counter_input(20)), ("palin", palin_input(T)), ("sweep", ""))
LENGTHS = (64, 256, 1024)
_REPLAY_ERRORS = (hs.WindowEscape, hs.StepFromHaltError)


class Section:
    """A running sha256 over length-prefixed items."""

    def __init__(self, name: str):
        self.name = name
        self.items = 0
        self._hash = hashlib.sha256()

    def add(self, item: bytes | str) -> None:
        if isinstance(item, str):
            item = item.encode("utf-8")
        self._hash.update(len(item).to_bytes(8, "little") + item)
        self.items += 1

    def line(self) -> str:
        return f"{self.name:18} {self.items:6} {self._hash.hexdigest()}"


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}{exc.args!r}"


def _add_interval(history: Section, pointwise: Section, m, rec, L, R, taus) -> None:
    hw, pw = hs.build_witness(m, hs.KIND_HISTORY), hs.build_witness(m, hs.KIND_POINTWISE)
    blob = hs.encode_summary(hs.interval_summary(rec, L, R))
    history.add(hs.run_witness(hw, [blob]))
    for tau in taus:
        pointwise.add(hs.run_witness(pw, [blob, hs.encode_uvarint(tau)]))


def bundled_witnesses() -> tuple[Section, Section]:
    history, pointwise = Section("history-bundled"), Section("pointwise-bundled")
    for name, word in BUNDLED:
        m = load_sample(name)
        rec = hs.run(m, word, T)
        for n in LENGTHS:
            for L in (1, T // 2 - n // 2 + 1, T - n + 1):
                R = L + n - 1
                _add_interval(history, pointwise, m, rec, L, R, range(L - 1, R + 1))
    return history, pointwise


def random_witnesses() -> tuple[Section, Section]:
    """The cases of test_history_witness_equals_encoded_replay_random_machines,
    drawn in the same order from the same seed."""
    history, pointwise = Section("history-random"), Section("pointwise-random")
    rng = random.Random(2020)
    machines = [random_machine(rng, k=1 + n % 3) for n in range(540)]
    machines += [wide_alphabet_machine(rng) for _ in range(12)] + [blinker_machine()]
    for m in machines:
        n = rng.randint(0, 6) if m.input_alphabet else 0
        word = [rng.choice(m.input_alphabet) for _ in range(n)]
        rec = hs.run(m, word, max_steps=rng.randint(1, 90))
        if rec.t == 0:
            continue
        for _ in range(2):
            L = 1 if rng.random() < 0.3 else rng.randint(1, rec.t)
            R = rng.randint(L, rec.t)
            _add_interval(history, pointwise, m, rec, L, R, range(L - 1, R + 1))
    return history, pointwise


def error_parity() -> Section:
    """The crafted summaries of
    test_history_witness_error_parity_on_crafted_summaries, drawn in the
    same order from the same seed."""
    section = Section("error-parity")
    rng = random.Random(404)
    for n in range(600):
        m = random_machine(rng, k=1 + n % 3) if n % 10 else wide_alphabet_machine(rng)
        s = random_summary(rng, m)
        if s.policy != hs.POLICY_FULL:
            s = replace(s, policy=hs.POLICY_FULL, exit=s.entry, heads_out=s.heads_in)
        if n % 7 == 0:
            s = replace(s, q_in=rng.choice((m.accept, m.reject)))
        if n % 11 == 0:
            w = s.entry[0]
            s = replace(s, heads_in=(rng.choice((w.lo - 1, w.hi + 1)),) + s.heads_in[1:])
        records: list[bytes] = []
        try:
            replay.replay_records(m, s, records.append)
            outcome = "ok"
        except _REPLAY_ERRORS as exc:
            outcome = _error(exc)
        for record in records:
            section.add(record)
        section.add(f"{len(records)} records, {outcome}")
        try:
            history = hs.build_witness(m, hs.KIND_HISTORY)
            section.add(hs.run_witness(history, [hs.encode_summary(s)]))
        except (*_REPLAY_ERRORS, hs.CodecError) as exc:
            section.add(_error(exc))
    return section


def streamed_runs() -> tuple[Section, Section]:
    roots, ledgers = Section("roots"), Section("ledgers")
    for name, word in (*BUNDLED, ("writer2", "")):
        m = load_sample(name)
        t = min(hs.probe_run_length(m, word, T)[0], T)
        for b in (91, hs.default_block_length(t)):
            ledger = hs.attach_ledger(m, t, b)
            roots.add(hs.encode_summary(hs.holo_run(m, word, t, b=b, ledger=ledger)))
            ledgers.add(
                repr(
                    (
                        name,
                        t,
                        b,
                        ledger.max_screen,
                        ledger.max_book,
                        ledger.max_total,
                        ledger.argmax_screen,
                        ledger.argmax_book,
                        ledger.argmax_total,
                        ledger.max_pending,
                        ledger.dirty_evictions,
                        ledger.steps_recorded,
                    )
                )
            )
    return roots, ledgers


_LEDGER_FIGURES = (
    "T",
    "max_screen",
    "max_book",
    "max_total",
    "argmax_screen",
    "argmax_book",
    "argmax_total",
    "max_pending",
    "dirty_evictions",
    "steps_recorded",
)


def _ledger_cases():
    """(i, machine, word, t, b, c_int) of each run of
    test_gate_matches_forced_metering_random_machines, drawn in the same
    order from the same seed."""
    rng = random.Random(1613)
    for i in range(200):
        m = wide_alphabet_machine(rng) if i % 8 == 0 else random_machine(rng)
        n = rng.randint(0, 8) if m.input_alphabet else 0
        word = [rng.choice(m.input_alphabet) for _ in range(n)]
        t, b, c_int = rng.randint(1, 300), rng.randint(1, 5), rng.randint(1, 3)
        yield i, m, word, t, b, c_int


def random_ledgers() -> Section:
    """The runs of test_gate_matches_forced_metering_random_machines."""
    section = Section("ledgers-random")
    for i, m, word, t, b, c_int in _ledger_cases():
        for keep_series in (False, True):
            ledger = hs.attach_ledger(m, t, b, c_int=c_int, keep_series=keep_series)
            try:
                hs.holo_run(m, word, t, b=b, c_int=c_int, ledger=ledger)
                outcome = "ok"
            except hs.ModelViolation as exc:
                outcome = _error(exc)
            figures = tuple(getattr(ledger, name) for name in _LEDGER_FIGURES)
            series = [(row.tau, row.screen, row.book) for row in ledger.series]
            section.add(repr((i, keep_series, outcome, figures, series)))
    return section


def _cli(argv: list[str]) -> str:
    """The exit code of cli.main(argv) and everything it prints."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return f"{code}\n{out.getvalue()}{err.getvalue()}"


def verified_runs() -> Section:
    """simulate --verify through cli.main: each bundled machine at
    t = 2^13 (writer2 at its halt), and the runs of random_ledgers with
    each machine read from a .tm file.  Wide-alphabet machines run on the
    empty word, since their input symbols are not one character each."""
    section = Section("verify")
    for name, word in (*BUNDLED, ("writer2", "")):
        t = min(hs.probe_run_length(load_sample(name), word, T)[0], T)
        section.add(_cli(["simulate", name, word, "--t", str(t), "--verify"]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "machine.tm"
        for i, m, word, t, b, c_int in _ledger_cases():
            path.write_text(hs.serialize_machine(m), encoding="utf-8")
            spelled = "".join(word) if all(len(s) == 1 for s in word) else ""
            argv = [str(t), "--b", str(b), "--c-int", str(c_int), "--verify"]
            section.add(f"{i} " + _cli(["simulate", str(path), spelled, "--t", *argv]))
    return section


def reference_encoders() -> tuple[Section, Section]:
    checked, mismatched = Section("reference"), Section("reference-mismatch")

    def check(encoded: bytes, reference: bytes) -> None:
        checked.add(encoded)
        if encoded != reference:
            mismatched.add(encoded + b" != " + reference)

    for name, word in BUNDLED:
        m = load_sample(name)
        rec = hs.run(m, word, T)
        tree = hs.label_tree(hs.build_tree(hs.decompose(T, 16)), rec, 2)
        for node in tree.nodes:
            label = tree.labels[node.id]
            check(hs.encode_summary(label), reference_encode_summary(label))
        configs = hs.replay_all(m, hs.interval_summary(rec, T // 2, T // 2 + 63))
        check(hs.encode_history(configs), reference_encode_history(configs))
        for c in oracle_walk(rec.history, range(0, T + 1, 64)):
            check(hs.encode_configuration(c), reference_encode_configuration(c))
    rng = random.Random(26)
    machines = [random_machine(rng, k=1 + n % 3) for n in range(60)]
    machines += [glyph_machine(rng, 128), glyph_machine(rng, 129), wide_alphabet_machine(rng)]
    machines += [alphabet_machine(rng, work) for work in NO_TABLE_ALPHABETS.values()]
    for m in machines:
        for _ in range(10):
            s = random_summary(rng, m)
            check(hs.encode_summary(s), reference_encode_summary(s))
            c = random_configuration(rng, m)
            check(hs.encode_configuration(c), reference_encode_configuration(c))
    return checked, mismatched


def main() -> int:
    for section in (
        *bundled_witnesses(),
        *random_witnesses(),
        error_parity(),
        *streamed_runs(),
        random_ledgers(),
        verified_runs(),
        *reference_encoders(),
    ):
        print(section.line(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
