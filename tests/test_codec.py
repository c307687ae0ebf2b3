"""Byte encoding tests: forced values, round-trips, self-delimitation,
and malformed input rejection."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import holosim as hs
from holosim.codec import (
    MAGIC_CONFIGURATION,
    MAGIC_HISTORY,
    MAGIC_SUMMARY,
    VERSION,
    HistoryWriter,
    _decode_symbols,
    _symbol_run,
)
from support import (
    NO_TABLE_ALPHABETS,
    alphabet_machine,
    glyph_machine,
    random_configuration,
    random_machine,
    random_summary,
    reference_encode_configuration,
    reference_encode_history,
    reference_encode_summary,
    wide_alphabet_machine,
)


def test_uvarint_forced_bytes():
    assert hs.encode_uvarint(0) == b"\x00"
    assert hs.encode_uvarint(1) == b"\x01"
    assert hs.encode_uvarint(127) == b"\x7f"
    assert hs.encode_uvarint(128) == b"\x80\x01"
    assert hs.encode_uvarint(300) == b"\xac\x02"


def test_svarint_zigzag_order():
    # 0,-1,1,-2,2 fold onto 0,1,2,3,4
    encoded = [hs.encode_svarint(v) for v in (0, -1, 1, -2, 2)]
    assert encoded == [hs.encode_uvarint(n) for n in range(5)]


@given(st.integers(0, 2**80))
def test_uvarint_round_trip(v):
    data = hs.encode_uvarint(v)
    got, end = hs.decode_uvarint(data)
    assert got == v
    assert end == len(data)


@given(st.integers(-(2**70), 2**70))
def test_svarint_round_trip(v):
    data = hs.encode_svarint(v)
    got, end = hs.decode_svarint(data)
    assert got == v
    assert end == len(data)


def test_uvarint_rejects_negative():
    with pytest.raises(ValueError):
        hs.encode_uvarint(-1)


def test_uvarint_truncation():
    with pytest.raises(hs.CodecError, match="truncated"):
        hs.decode_uvarint(b"\x80")
    with pytest.raises(hs.CodecError, match="truncated"):
        hs.decode_uvarint(b"")


def test_uvarint_decodes_every_one_and_two_byte_value():
    """Values up to 16383 take the decoder's one- and two-byte paths,
    at any offset; a two-byte varint cut short is still truncated."""
    for v in range(2**14 + 2):
        data = b"\x05" + hs.encode_uvarint(v) + b"\x05"
        assert hs.decode_uvarint(data, 1) == (v, len(data) - 1)
    assert hs.decode_uvarint(b"\x80\x00") == (0, 2)  # not canonical, still read
    for data, offset in ((b"\x80", 0), (b"\x80\x80", 0), (b"\x01\xff", 1)):
        with pytest.raises(hs.CodecError, match="^truncated varint$"):
            hs.decode_uvarint(data, offset)


def test_summary_round_trip_oracle(counter_run):
    d = hs.decompose(counter_run.t, 16)
    for k in (1, 5, d.T):
        s = hs.leaf_summary(counter_run, d.block(k), 4, 16)
        blob = hs.encode_summary(s)
        again = hs.decode_summary_exact(blob, counter_run.machine)
        assert again == s
        assert again.policy == s.policy
        assert hs.encode_summary(again) == blob


def test_summary_round_trip_random():
    rng = random.Random(2024)
    for _ in range(60):
        m = random_machine(rng)
        for _ in range(5):
            s = random_summary(rng, m)
            again = hs.decode_summary_exact(hs.encode_summary(s), m)
            assert again == s and again.policy == s.policy


def test_configuration_round_trip_random():
    rng = random.Random(2025)
    for _ in range(60):
        m = random_machine(rng)
        for _ in range(5):
            c = random_configuration(rng, m)
            again = hs.decode_configuration_exact(hs.encode_configuration(c), m)
            assert again == c


def test_history_round_trip_writer2(machines):
    rec = hs.run(machines["writer2"], "", max_steps=10)
    configs = tuple(rec.history.configurations())
    blob = hs.encode_history(configs)
    again = hs.decode_history_exact(blob, machines["writer2"])
    assert again == configs


def test_empty_history():
    blob = hs.encode_history(())
    # magic, version, then count 0
    assert blob[2:] == b"\x00"
    assert len(blob) == 3


def test_concatenated_summaries_decode_in_order(counter_run):
    d = hs.decompose(counter_run.t, 16)
    s1 = hs.leaf_summary(counter_run, d.block(1), 4, 16)
    s2 = hs.leaf_summary(counter_run, d.block(2), 4, 16)
    blob = hs.encode_summary(s1) + hs.encode_summary(s2)
    got1, offset = hs.decode_summary(blob, counter_run.machine)
    got2, end = hs.decode_summary(blob, counter_run.machine, offset)
    assert (got1, got2) == (s1, s2)
    assert end == len(blob)


def test_concatenated_mixed_records(counter_run):
    cfg = counter_run.history[37]
    s = hs.interval_summary(counter_run, 33, 48)
    blob = hs.encode_configuration(cfg) + hs.encode_summary(s) + hs.encode_configuration(cfg)
    m = counter_run.machine
    c1, off = hs.decode_configuration(blob, m)
    s1, off = hs.decode_summary(blob, m, off)
    c2, off = hs.decode_configuration(blob, m, off)
    assert (c1, s1, c2) == (cfg, s, cfg)
    assert off == len(blob)


def test_exact_decoders_reject_trailing_bytes(counter_run):
    s = hs.interval_summary(counter_run, 1, 16)
    with pytest.raises(hs.CodecError, match="trailing"):
        hs.decode_summary_exact(hs.encode_summary(s) + b"\x00", counter_run.machine)
    cfg = counter_run.history[3]
    with pytest.raises(hs.CodecError, match="trailing"):
        hs.decode_configuration_exact(
            hs.encode_configuration(cfg) + b"\xff", counter_run.machine
        )


def test_bad_magic_and_version(counter_run):
    s = hs.interval_summary(counter_run, 1, 16)
    blob = bytearray(hs.encode_summary(s))
    m = counter_run.machine
    with pytest.raises(hs.CodecError, match="magic"):
        hs.decode_summary(bytes([blob[0] ^ 0xFF]) + bytes(blob[1:]), m)
    with pytest.raises(hs.CodecError, match="version"):
        hs.decode_summary(bytes([blob[0], 99]) + bytes(blob[2:]), m)


def test_truncated_summary_rejected(counter_run):
    s = hs.interval_summary(counter_run, 1, 16)
    blob = hs.encode_summary(s)
    for cut in (1, 2, len(blob) // 2, len(blob) - 1):
        with pytest.raises(hs.CodecError):
            hs.decode_summary_exact(blob[:cut], counter_run.machine)


@pytest.mark.parametrize("policy", [hs.POLICY_FULL, hs.POLICY_BOUNDARY])
def test_heads_outside_windows_rejected(counter_run, policy):
    """A head off its window would escape only later, during replay;
    decoding refuses it up front, on either side and either edge."""
    m = counter_run.machine
    s = hs.direct_summary(counter_run, hs.decompose(counter_run.t, 16), 3, 9, 4, policy)
    hs.decode_summary_exact(hs.encode_summary(s), m)
    (ew,), (xw,) = s.entry, s.exit
    for bad, side in (
        (replace(s, heads_in=(ew.lo - 1,)), "entry"),
        (replace(s, heads_in=(ew.hi + 1,)), "entry"),
        (replace(s, heads_out=(xw.lo - 1,)), "exit"),
        (replace(s, heads_out=(xw.hi + 1,)), "exit"),
    ):
        with pytest.raises(hs.CodecError, match=f"{side} head"):
            hs.decode_summary_exact(hs.encode_summary(bad), m)


def test_out_of_range_indices_rejected(counter_run):
    m = counter_run.machine
    cfg = counter_run.history[2]
    blob = bytearray(hs.encode_configuration(cfg))
    # state index sits right after magic+version+time varint; force it huge
    time_len = len(hs.encode_uvarint(cfg.time))
    blob[2 + time_len] = 0x7F
    with pytest.raises(hs.CodecError):
        hs.decode_configuration_exact(bytes(blob), m)


def test_encoding_injective_over_corpus():
    rng = random.Random(909)
    seen = {}
    for _ in range(40):
        m = random_machine(rng)
        for _ in range(10):
            s = random_summary(rng, m)
            blob = hs.encode_summary(s)
            key = (s, s.policy, tuple(w.span for w in s.entry))
            if blob in seen:
                assert seen[blob] == key
            seen[blob] = key
    assert len(seen) > 350


# ---------------------------------------------------------------------------
# differential: the codec's table-driven symbol runs against per-symbol
# reference encoders, written the way the codec first encoded them


def _ref_symbols(m, symbols) -> bytes:
    return b"".join(hs.encode_uvarint(m.symbol_index[s]) for s in symbols)


def _ref_window(m, w) -> bytes:
    lo = 0 if len(w) == 0 else w.lo
    return hs.encode_svarint(lo) + hs.encode_uvarint(len(w)) + _ref_symbols(m, w.symbols)


def _ref_summary(s) -> bytes:
    m = s.machine
    out = bytearray((MAGIC_SUMMARY, VERSION))
    out += hs.encode_uvarint(s.L) + hs.encode_uvarint(s.R)
    out += hs.encode_uvarint(m.state_index[s.q_in]) + hs.encode_uvarint(m.state_index[s.q_out])
    for i in range(m.k):
        out += hs.encode_svarint(s.heads_in[i]) + hs.encode_svarint(s.heads_out[i])
        out += _ref_window(m, s.entry[i]) + _ref_window(m, s.exit[i])
    out.append({hs.POLICY_FULL: 0x00, hs.POLICY_BOUNDARY: 0x01}[s.policy])
    return bytes(out)


def _ref_configuration(c) -> bytes:
    m = c.machine
    out = bytearray((MAGIC_CONFIGURATION, VERSION))
    out += hs.encode_uvarint(c.time) + hs.encode_uvarint(m.state_index[c.state])
    for i in range(m.k):
        out += hs.encode_svarint(c.heads[i])
        tape = c.cells[i]
        if tape:
            lo, hi = min(tape), max(tape)
            out += hs.encode_svarint(lo) + hs.encode_uvarint(hi - lo + 1)
            out += _ref_symbols(m, [tape.get(cell, m.blank) for cell in range(lo, hi + 1)])
        else:
            out += hs.encode_svarint(0) + hs.encode_uvarint(0)
    return bytes(out)


def _ref_history(configs) -> bytes:
    out = bytearray((MAGIC_HISTORY, VERSION))
    out += hs.encode_uvarint(len(configs))
    for c in configs:
        blob = _ref_configuration(c)
        out += hs.encode_uvarint(len(blob)) + blob
    return bytes(out)


def _check_against_reference(s, configs):
    """Against the per-symbol encoders above and the independent ones
    of tests/support.py, which share no code with the codec."""
    m = s.machine
    blob = hs.encode_summary(s)
    assert blob == _ref_summary(s)
    assert blob == reference_encode_summary(s)
    assert hs.decode_summary_exact(blob, m) == s
    for c in configs:
        blob = hs.encode_configuration(c)
        assert blob == _ref_configuration(c)
        assert blob == reference_encode_configuration(c)
        assert hs.decode_configuration_exact(blob, m) == c
    blob = hs.encode_history(configs)
    assert blob == _ref_history(configs)
    assert blob == reference_encode_history(configs)
    assert hs.decode_history_exact(blob, m) == tuple(configs)


def test_encoders_match_reference_random():
    rng = random.Random(4711)
    for _ in range(80):
        m = random_machine(rng)
        for _ in range(5):
            configs = [random_configuration(rng, m) for _ in range(rng.randint(0, 3))]
            _check_against_reference(random_summary(rng, m), configs)


def test_encoders_match_reference_bundled(machines):
    cases = {"writer2": "", "counter": hs.counter_input(6), "palin": "0110", "sweep": ""}
    for name, word in cases.items():
        rec = hs.run(machines[name], word, max_steps=200)
        configs = list(rec.history.configurations())
        d = hs.decompose(rec.t, 8)
        for k in range(1, d.T + 1):
            s = hs.direct_summary(rec, d, 1, k, rec.t + 2, hs.POLICY_BOUNDARY)
            L, R = d.block(k)
            _check_against_reference(s, configs[L - 1 : R + 1])
        _check_against_reference(hs.interval_summary(rec, 1, rec.t), configs)


def test_wide_alphabet_round_trips_with_two_byte_indices():
    """Indices from 128 up take two bytes each, so the decoder's
    single-byte fast path must hand those runs to the varint loop."""
    rng = random.Random(130)
    two_byte = 0
    for _ in range(4):
        m = wide_alphabet_machine(rng)
        assert len(m.work_alphabet) == 130
        high = set(m.work_alphabet[128:])
        rec = hs.run(m, [m.input_alphabet[-1]] * 3, max_steps=120)
        configs = list(rec.history.configurations())
        _check_against_reference(hs.interval_summary(rec, 1, rec.t), configs)
        _check_against_reference(hs.interval_summary(rec, 40, 90), configs[39:91])
        two_byte += sum(1 for c in configs if high & set(c.cells[0].values()))
        for _ in range(40):
            s = random_summary(rng, m)
            _check_against_reference(s, [random_configuration(rng, m) for _ in range(3)])
    assert two_byte > 100


# ---------------------------------------------------------------------------
# the per-machine code table and the machines that cannot have one


def _no_table_machine(name, rng=None):
    rng = rng or random.Random(26)
    if name == "wide":
        return wide_alphabet_machine(rng)
    return alphabet_machine(rng, NO_TABLE_ALPHABETS[name])


def test_code_table_only_for_one_byte_latin_1_alphabets(machines):
    rng = random.Random(8)
    with_table = [*machines.values(), glyph_machine(rng, 4), glyph_machine(rng, 128)]
    without = [glyph_machine(rng, 129), wide_alphabet_machine(rng, n_symbols=128)]
    without += [_no_table_machine(name) for name in (*NO_TABLE_ALPHABETS, "wide")]
    for m in with_table:
        to_code, to_char = m.code_table
        run = "".join(m.work_alphabet).encode("latin-1")
        assert run.translate(to_code) == bytes(range(len(m.work_alphabet)))
        assert bytes(range(len(m.work_alphabet))).translate(to_char) == run
        assert to_code.count(0xFF) == 256 - len(m.work_alphabet)
        # every index past the alphabet decodes to the spare byte, the
        # table's last, which is no symbol's character
        spare = to_char[-1]
        assert chr(spare) not in m.work_alphabet
        assert to_char[len(m.work_alphabet) :] == bytes([spare]) * (256 - len(m.work_alphabet))
    assert all(m.code_table is None for m in without)


def _encode_runs(make):
    """For four machines make(rng) builds: every configuration of a run
    and summaries over it, and random summaries and configurations, each
    checked against the reference encoders and decoded back.  Returns
    the machines and the runs' configurations."""
    rng = random.Random(26)
    machines, configs = [], []
    for _ in range(4):
        m = make(rng)
        rec = hs.run(m, [m.input_alphabet[-1]] * 3, max_steps=120)
        run = list(rec.history.configurations())
        _check_against_reference(hs.interval_summary(rec, 1, rec.t), run)
        _check_against_reference(hs.interval_summary(rec, 40, 90), run[39:91])
        for _ in range(20):
            s = random_summary(rng, m)
            _check_against_reference(s, [random_configuration(rng, m) for _ in range(3)])
        machines.append(m)
        configs += run
    return machines, configs


@pytest.mark.parametrize("n_symbols", [128, 129])
def test_code_table_at_the_one_byte_bound(n_symbols):
    """128 one-character symbols have a table and write index 127 as
    one byte; at 129 there is none and index 128 takes two bytes."""
    machines, configs = _encode_runs(lambda rng: glyph_machine(rng, n_symbols))
    top = machines[0].work_alphabet[-1]
    for m in machines:
        assert (m.code_table is not None) == (n_symbols == 128)
        assert len(m.symbol_codes[top]) == 1 + (n_symbols == 129)
    assert sum(top in c.cells[0].values() for c in configs) > 50


@pytest.mark.parametrize("name", [*NO_TABLE_ALPHABETS, "wide"])
def test_machines_without_a_code_table_encode_as_the_reference(name):
    machines, configs = _encode_runs(lambda rng: _no_table_machine(name, rng))
    assert all(m.code_table is None for m in machines)
    assert len({sym for c in configs for sym in c.cells[0].values()}) >= 3


_OUTSIDE = ("\x07", "Ω", "zz", "", None)


@pytest.mark.parametrize("name", ["counter", *NO_TABLE_ALPHABETS, "wide"])
@pytest.mark.parametrize("bad", _OUTSIDE, ids=["latin-1-char", "other-char", "two-chars", "empty", "none"])
def test_symbol_outside_the_alphabet_raises_key_error(machines, name, bad):
    """A symbol outside the alphabet, of any kind, in a window or on a
    tape, raises the KeyError of the per-symbol code lookup, with or
    without a code table."""
    m = machines[name] if name in machines else _no_table_machine(name)
    good = m.work_alphabet[1]
    w = hs.TapeWindow(0, 2, (good, bad, m.blank))
    s = hs.IntervalSummary(
        machine=m,
        q_in=m.start,
        q_out=m.start,
        heads_in=(0,) * m.k,
        heads_out=(0,) * m.k,
        entry=(w,) * m.k,
        exit=(w,) * m.k,
    )
    with pytest.raises(KeyError):
        hs.encode_summary(s)
    tape = {0: good, 1: bad, 2: good}
    c = hs.Configuration(machine=m, state=m.start, heads=(0,) * m.k, cells=(tape,) * m.k)
    with pytest.raises(KeyError):
        hs.encode_configuration(c)


@pytest.mark.parametrize(
    "run",
    [("01", ""), ("", "1_"), ("0", "", "1_"), ("_", "01", "")],
    ids=lambda run: "+".join(sym or "empty" for sym in run),
)
def test_runs_with_an_empty_symbol_raise_the_per_symbol_key_error(machines, run):
    """Symbols outside the alphabet whose lengths add up to one
    character each, since one of them is empty, raise the KeyError of
    the per-symbol join on a machine with a code table, in a run, a
    window and a tape, rather than encode as their characters' indices."""
    m = machines["palin"]
    assert m.code_table is not None
    with pytest.raises(KeyError) as want:
        b"".join(map(m.symbol_codes.__getitem__, run))
    with pytest.raises(KeyError) as got:
        _symbol_run(m, run)
    assert got.value.args == want.value.args
    w = hs.TapeWindow(0, len(run) - 1, run)
    s = hs.IntervalSummary(
        machine=m,
        q_in=m.start,
        q_out=m.start,
        heads_in=(0,) * m.k,
        heads_out=(0,) * m.k,
        entry=(w,) * m.k,
        exit=(w,) * m.k,
    )
    with pytest.raises(KeyError) as got:
        hs.encode_summary(s)
    assert got.value.args == want.value.args
    tape = dict(enumerate(run))
    c = hs.Configuration(machine=m, state=m.start, heads=(0,) * m.k, cells=(tape,) * m.k)
    with pytest.raises(KeyError) as got:
        hs.encode_configuration(c)
    assert got.value.args == want.value.args


@pytest.mark.parametrize("name", [*NO_TABLE_ALPHABETS])
def test_out_of_range_symbol_index_names_the_first(name):
    """As on writer2 below, which has a code table: a decoded index past
    the alphabet raises the CodecError that names the first such index."""
    m = _no_table_machine(name)
    n = len(m.work_alphabet)
    # configuration at time 0, state 0, one tape: head 0, lo 0, three cells
    head = bytes((MAGIC_CONFIGURATION, VERSION, 0, 0, 0, 0, 3))
    for syms, bad in ((bytes((0, n, n + 4)), n), (bytes((n + 3, 1, n)), n + 3), (bytes((1, 0xC1, 0x01)), 193)):
        with pytest.raises(hs.CodecError, match=rf"^symbol index {bad} out of range$"):
            hs.decode_configuration_exact(head + syms, m)


def test_out_of_range_symbol_index_rejected():
    m = hs.load_sample("writer2")  # work alphabet: 1 _
    # configuration at time 0, state 0, one tape: head 0, lo 0, three cells
    head = bytes((MAGIC_CONFIGURATION, VERSION, 0, 0, 0, 0, 3))
    assert hs.decode_configuration_exact(head + bytes((0, 1, 0)), m).cells == ({0: "1", 2: "1"},)
    # the message names the first index out of range, single- or two-byte
    for syms, bad in ((bytes((0, 5, 9)), 5), (bytes((2, 1, 0)), 2), (bytes((1, 0x83, 0x01)), 131)):
        with pytest.raises(hs.CodecError, match=rf"symbol index {bad} out of range"):
            hs.decode_configuration_exact(head + syms, m)
    # a two-byte run where one byte is expected is truncated, not misread
    with pytest.raises(hs.CodecError, match="truncated"):
        hs.decode_configuration_exact(head + bytes((0, 0x80)), m)


@pytest.mark.parametrize("wide", [False, True])
def test_short_symbol_runs_decode(wide):
    """Runs of 0, 1 and 2 symbols, at the edge of the decoder's
    one-call mapping of single-byte runs: each comes back as a tuple of
    symbols, and out-of-range indices keep their message."""
    m = wide_alphabet_machine(random.Random(3)) if wide else hs.load_sample("counter")
    alphabet = m.work_alphabet
    n = len(alphabet)
    picks = [0, 1, min(n - 1, 127)] + ([128, n - 1] if wide else [n - 1])
    runs = [()] + [(i,) for i in picks] + [(i, j) for i in picks for j in picks]
    for run in runs:
        data = b"\x07" + b"".join(hs.encode_uvarint(i) for i in run) + b"\x07"
        syms, end = _decode_symbols(data, 1, m, len(run))
        assert type(syms) is tuple
        assert syms == tuple(alphabet[i] for i in run)
        assert end == len(data) - 1
    for run, bad in (((n,), n), ((0, n), n), ((n + 3, 0), n + 3)):
        data = b"".join(hs.encode_uvarint(i) for i in run)
        with pytest.raises(hs.CodecError, match=rf"^symbol index {bad} out of range$"):
            _decode_symbols(data, 0, m, len(run))
    with pytest.raises(hs.CodecError, match="truncated"):
        _decode_symbols(b"\x00", 0, m, 2)


def test_history_writer_matches_the_record_layout(machines):
    """magic, version, count, then each configuration length-prefixed;
    a writer that is given fewer or more entries than it declared
    refuses to produce bytes."""
    rec = hs.run(machines["counter"], hs.counter_input(4), max_steps=40)
    configs = list(rec.history.configurations())
    blobs = [hs.encode_configuration(c) for c in configs]
    want = bytes((MAGIC_HISTORY, VERSION)) + hs.encode_uvarint(len(configs))
    want += b"".join(hs.encode_uvarint(len(b)) + b for b in blobs)
    writer = HistoryWriter(len(configs))
    for c in configs:
        writer.add(c)
    assert writer.getvalue() == want == hs.encode_history(configs)
    for declared, given in ((2, 1), (0, 1)):
        writer = HistoryWriter(declared)
        for c in configs[:given]:
            writer.add(c)
        with pytest.raises(ValueError, match=f"declares {declared} entries, {given} written"):
            writer.getvalue()
