"""Hostile input at every byte and text boundary: arbitrary bytes, and
mutations of valid encodings and machine texts, give a value or the
documented error class, never a stray Python exception.

Hypothesis draws the seeds; each seed drives a batch of uniformly random
mutations, which reach the deep decoding paths far more often than
hypothesis's own small-value bias would."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import holosim as hs
from support import random_configuration, random_machine, random_summary, wide_alphabet_machine

SEEDS = st.integers(min_value=0, max_value=2**32)
MUTATIONS_PER_SEED = 15

_WIDE_RUNS = [
    hs.run(m, [m.input_alphabet[-1]] * 2, max_steps=40)
    for m in (wide_alphabet_machine(random.Random(seed)) for seed in (1, 2))
]


def _encodings(rng: random.Random):
    """A random machine and one valid encoding per decoder, with the
    decoder as f(data, machine).  One time in three the machine has a
    130-symbol alphabet and the encodings come from a run of it, so
    symbol runs mix one- and two-byte indices."""
    if rng.random() < 1 / 3:
        rec = _WIDE_RUNS[rng.randrange(len(_WIDE_RUNS))]
        m, history = rec.machine, rec.history
        L = rng.randint(1, rec.t)
        summary = hs.interval_summary(rec, L, rng.randint(L, rec.t))
        config = history[rng.randint(0, history.t)]
        configs = [history[rng.randint(0, history.t)] for _ in range(rng.randint(0, 3))]
    else:
        m = random_machine(rng)
        summary = random_summary(rng, m)
        config = random_configuration(rng, m)
        configs = [random_configuration(rng, m) for _ in range(rng.randint(0, 3))]
    witness = hs.build_witness(m, rng.choice((hs.KIND_POINTWISE, hs.KIND_HISTORY)))
    return m, [
        (hs.encode_summary(summary), hs.decode_summary_exact),
        (hs.encode_configuration(config), hs.decode_configuration_exact),
        (hs.encode_history(configs), hs.decode_history_exact),
        (witness.data, lambda data, machine: hs.parse_witness(data)),
    ]


def _mutate(rng: random.Random, data: bytes) -> bytes:
    """data after one to three byte overwrites, insertions, deletions or
    truncations."""
    buf = bytearray(data)
    for _ in range(rng.choice((1, 1, 2, 3))):
        op = rng.choice(("overwrite", "insert", "delete", "truncate"))
        pos = rng.randint(0, len(buf))
        if op == "insert":
            buf.insert(pos, rng.randrange(256))
        elif op == "truncate":
            del buf[pos:]
        elif pos < len(buf):
            if op == "overwrite":
                buf[pos] = rng.randrange(256)
            else:
                del buf[pos]
    return bytes(buf)


def _value_or_codec_error(decode, data: bytes, machine) -> None:
    """A decoded summary is also one replay can start from: every head
    lies inside its entry and exit windows."""
    try:
        value = decode(data, machine)
    except hs.CodecError:
        return
    if isinstance(value, hs.IntervalSummary):
        for h, w in zip(value.heads_in + value.heads_out, value.entry + value.exit):
            assert w.covers(h), (h, w.span)


@settings(max_examples=100)
@given(SEEDS, st.binary(max_size=48))
def test_arbitrary_bytes_decode_or_codec_error(seed, tail):
    m, encodings = _encodings(random.Random(seed))
    for good, decode in encodings:
        _value_or_codec_error(decode, tail, m)
        # a valid header (magic, version and one more byte) lets the
        # bytes reach past the header checks
        _value_or_codec_error(decode, good[:3] + tail, m)


@settings(max_examples=50)
@given(SEEDS)
def test_mutated_encodings_decode_or_codec_error(seed):
    rng = random.Random(seed)
    m, encodings = _encodings(rng)
    for good, decode in encodings:
        decode(good, m)
        for _ in range(MUTATIONS_PER_SEED):
            _value_or_codec_error(decode, _mutate(rng, good), m)


_TM_PIECES = (
    "\n", " ", "#", "delta", "tapes", "blank", "start", "accept", "reject", "machine",
    "input_alphabet", "work_alphabet", "L", "R", "S", "0", "1", "3", "-1", "_", "->",
    "q0", "²", "\x00", "é",
)


def _mutate_text(rng: random.Random, text: str) -> str:
    """text after one to three edits: a character or a format token
    inserted or overwritten, a character deleted, a line dropped or
    repeated, or the text truncated."""
    for _ in range(rng.choice((1, 1, 2, 3))):
        op = rng.choice(("insert", "overwrite", "delete", "line", "truncate"))
        pos = rng.randint(0, len(text))
        if op in ("insert", "overwrite"):
            piece = rng.choice(_TM_PIECES)
            text = text[:pos] + piece + text[pos + (op == "overwrite") :]
        elif op == "delete":
            text = text[:pos] + text[pos + 1 :]
        elif op == "truncate":
            text = text[:pos]
        else:
            lines = text.splitlines()
            if lines:
                i = pos % len(lines)
                lines[i : i + 1] = [lines[i]] * rng.randint(0, 2)
                text = "\n".join(lines)
    return text


@settings(max_examples=100)
@given(SEEDS)
def test_mutated_machine_text_parses_or_format_error(seed):
    rng = random.Random(seed)
    text = hs.sample_text(rng.choice(hs.SAMPLE_NAMES))
    for _ in range(MUTATIONS_PER_SEED):
        try:
            machine = hs.parse_machine(_mutate_text(rng, text))
        except hs.MachineFormatError:
            continue
        assert isinstance(machine, hs.MachineSpec)
