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
from support import (
    NO_TABLE_ALPHABETS,
    alphabet_machine,
    random_configuration,
    random_machine,
    random_summary,
    reference_decode_summary,
    wide_alphabet_machine,
)

SEEDS = st.integers(min_value=0, max_value=2**32)
MUTATIONS_PER_SEED = 15

# machines without a code table: two with 130 symbols, and those of at
# most 128 symbols that are not all one Latin-1 character
_NO_TABLE_MACHINES = [wide_alphabet_machine(random.Random(seed)) for seed in (1, 2)] + [
    alphabet_machine(random.Random(3), work) for work in NO_TABLE_ALPHABETS.values()
]
# each run with its configurations, read off one forward walk
_NO_TABLE_RUNS = [
    (rec, list(rec.history.configurations()))
    for rec in (hs.run(m, [m.input_alphabet[-1]] * 2, max_steps=40) for m in _NO_TABLE_MACHINES)
]


def _encodings(rng: random.Random):
    """A random machine and one valid encoding per decoder, with the
    decoder as f(data, machine).  One time in three the machine is one
    of _NO_TABLE_MACHINES and the encodings come from a run of it, so
    symbol runs mix one- and two-byte indices or decode without a code
    table."""
    if rng.random() < 1 / 3:
        rec, walk = _NO_TABLE_RUNS[rng.randrange(len(_NO_TABLE_RUNS))]
        m = rec.machine
        L = rng.randint(1, rec.t)
        summary = hs.interval_summary(rec, L, rng.randint(L, rec.t))
        config = walk[rng.randint(0, rec.t)]
        configs = [walk[rng.randint(0, rec.t)] for _ in range(rng.randint(0, 3))]
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


# one-byte svarints end at -64 and 63, one-byte uvarints at 127 and
# two-byte ones at 16383
EDGE_INTS = (-65, -64, 63, 64)
EDGE_LENGTHS = (0, 1, 127, 128)
EDGE_STEPS = ((127, 127), (128, 16383), (16383, 16384), (16384, 16384))


def _edge_window(rng: random.Random, m: hs.MachineSpec, slot: int) -> hs.TapeWindow:
    lo, n = EDGE_INTS[slot % 4], EDGE_LENGTHS[slot // 4 % 4]
    high = m.work_alphabet[-3:]  # two-byte indices on the wide machine
    syms = tuple(rng.choice(high if rng.random() < 0.5 else m.work_alphabet) for _ in range(n))
    return hs.TapeWindow(lo, lo + n - 1, syms) if n else hs.TapeWindow(0, -1, ())


def _edge_summaries():
    """Summaries with every field on a varint edge: windows at lo -65,
    -64, 63 and 64 holding 0, 1, 127 and 128 cells, heads on window
    ends, L and R at 127/128 and 16383/16384, on one to three tapes, on
    a 130-symbol alphabet and on the small alphabets without a code
    table.  A summary with an empty window does not decode: no head
    lies inside it."""
    rng = random.Random(11)
    out = []
    machines = [random_machine(rng, k) for k in (1, 2, 3)] + [wide_alphabet_machine(rng)]
    for m in machines + _NO_TABLE_MACHINES[2:]:
        for j in range(8):
            full = j % 2 == 1
            entry = [_edge_window(rng, m, 2 * j + 5 * i) for i in range(m.k)]
            exit_ = [
                hs.TapeWindow(w.lo, w.hi, tuple(rng.choice(m.work_alphabet) for _ in w.symbols))
                if full
                else _edge_window(rng, m, 2 * j + 5 * i + 7)
                for i, w in enumerate(entry)
            ]
            L, R = EDGE_STEPS[j % 4]
            out.append(
                hs.IntervalSummary(
                    machine=m,
                    L=L,
                    R=R,
                    q_in=rng.choice(m.states),
                    q_out=rng.choice(m.states),
                    heads_in=tuple(w.lo for w in entry),
                    heads_out=tuple(w.hi for w in exit_),
                    entry=tuple(entry),
                    exit=tuple(exit_),
                    policy=hs.POLICY_FULL if full else hs.POLICY_BOUNDARY,
                )
            )
    return out


def _decode_outcome(decode, data: bytes, machine):
    try:
        return decode(data, machine)
    except hs.CodecError:
        return hs.CodecError


def test_edge_summaries_decode_as_the_reference_does():
    decoded = 0
    for s in _edge_summaries():
        data = hs.encode_summary(s)
        want = _decode_outcome(reference_decode_summary, data, s.machine)
        assert want == (hs.CodecError if any(not w.symbols for w in s.entry + s.exit) else s)
        assert _decode_outcome(hs.decode_summary_exact, data, s.machine) == want
        decoded += want is not hs.CodecError
    assert decoded >= 10


def _run_interiors(s: hs.IntervalSummary) -> set[int]:
    """Offsets in encode_summary(s) strictly inside a symbol run."""
    m = s.machine
    pos = 2 + sum(len(hs.encode_uvarint(v)) for v in (s.L, s.R, m.state_index[s.q_in], m.state_index[s.q_out]))
    inside = set()
    for i in range(m.k):
        pos += len(hs.encode_svarint(s.heads_in[i]) + hs.encode_svarint(s.heads_out[i]))
        for w in (s.entry[i], s.exit[i]):
            pos += len(hs.encode_svarint(w.lo) + hs.encode_uvarint(len(w.symbols)))
            n = sum(len(m.symbol_codes[c]) for c in w.symbols)
            inside.update(range(pos + 1, pos + n - 1))
            pos += n
    return inside


def test_edge_summaries_truncated_or_changed_decode_as_the_reference_does():
    """Every truncation, and six changes at every byte but those inside
    a symbol run: to 0x00 and 0x7F (the one-byte extremes), 0x80 and
    0xFF (continuation bytes), and the byte with its lowest or its top
    payload bit flipped (the sign of a zigzag value, a step across the
    63/64 edge)."""
    for s in _edge_summaries():
        data = hs.encode_summary(s)
        for cut in range(len(data)):
            assert _decode_outcome(hs.decode_summary_exact, data[:cut], s.machine) is hs.CodecError
        interiors = _run_interiors(s)
        for pos, old in enumerate(data):
            if pos in interiors:
                continue
            for new in {0x00, 0x7F, 0x80, 0xFF, old ^ 0x01, old ^ 0x40} - {old}:
                changed = data[:pos] + bytes((new,)) + data[pos + 1 :]
                want = _decode_outcome(reference_decode_summary, changed, s.machine)
                assert _decode_outcome(hs.decode_summary_exact, changed, s.machine) == want, (pos, new)


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
