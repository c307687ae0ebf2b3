"""Fixed-size replay programs conditioned on boundary summaries."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

import holosim as hs
from holosim import codec, replay, witness
from holosim.samples import counter_input, load_sample, palin_input
from support import (
    NO_TABLE_ALPHABETS,
    alphabet_machine,
    blinker_machine,
    glyph_machine,
    random_machine,
    random_summary,
    reference_encode_configuration,
    reference_encode_history,
    wide_alphabet_machine,
)


def _random_interval(rng, t):
    L = rng.randint(1, t)
    R = rng.randint(L, t)
    return L, R


def test_bytes_depend_only_on_machine_and_kind():
    m = load_sample("counter")
    w1 = hs.build_witness(m, hs.KIND_POINTWISE)
    w2 = hs.build_witness(m, hs.KIND_POINTWISE)
    assert w1.data == w2.data
    h = hs.build_witness(m, hs.KIND_HISTORY)
    assert len(h) == len(w1)
    # same program except the kind tag byte
    assert h.data[:2] == w1.data[:2]
    assert h.data[3:] == w1.data[3:]
    assert h.data[2] != w1.data[2]


def test_length_constant_across_inputs():
    m = load_sample("counter")
    rec = hs.run(m, counter_input(8), max_steps=400)
    rng = random.Random(7)
    sizes = set()
    for _ in range(30):
        L, R = _random_interval(rng, rec.t)
        s = hs.interval_summary(rec, L, R)
        # the conditional input varies, the program does not
        w = hs.build_witness(m, hs.KIND_POINTWISE)
        out = hs.run_witness(
            w, [hs.encode_summary(s), hs.encode_uvarint(rng.randint(L - 1, R))]
        )
        assert out
        sizes.add(len(w))
    assert len(sizes) == 1


def test_parse_round_trip():
    for name in hs.SAMPLE_NAMES:
        m = load_sample(name)
        for kind in (hs.KIND_POINTWISE, hs.KIND_HISTORY):
            w = hs.build_witness(m, kind)
            got_kind, got_m = hs.parse_witness(w.data)
            assert got_kind == kind
            assert hs.serialize_machine(got_m) == hs.serialize_machine(m)


def test_pointwise_output_equals_direct_replay():
    m = load_sample("counter")
    rec = hs.run(m, counter_input(8), max_steps=300)
    rng = random.Random(21)
    w = hs.build_witness(m, hs.KIND_POINTWISE)
    for _ in range(20):
        L, R = _random_interval(rng, rec.t)
        s = hs.interval_summary(rec, L, R)
        tau = rng.randint(L - 1, R)
        out = hs.run_witness(w, [hs.encode_summary(s), hs.encode_uvarint(tau)])
        config = hs.replay_from_summary(m, s, tau)
        assert out == hs.encode_configuration(config) == reference_encode_configuration(config)


def test_history_output_equals_direct_replay():
    m = load_sample("palin")
    rec = hs.run(m, "0110", max_steps=10**3)
    w = hs.build_witness(m, hs.KIND_HISTORY)
    s = hs.interval_summary(rec, 2, rec.t - 1)
    out = hs.run_witness(w, [hs.encode_summary(s)])
    configs = hs.replay_all(m, s)
    assert out == hs.encode_history(configs) == reference_encode_history(configs)


def test_witness_accepts_raw_bytes():
    m = load_sample("writer2")
    rec = hs.run(m, "", max_steps=10)
    s = hs.interval_summary(rec, 1, rec.t)
    w = hs.build_witness(m, hs.KIND_POINTWISE)
    out = hs.run_witness(bytes(w.data), [hs.encode_summary(s), hs.encode_uvarint(0)])
    assert out == hs.encode_configuration(hs.replay_from_summary(m, s, 0))


def test_unknown_kind_rejected():
    m = load_sample("writer2")
    with pytest.raises(ValueError, match="kind"):
        hs.build_witness(m, "interpolating")


def test_malformed_witness_rejected():
    m = load_sample("writer2")
    good = hs.build_witness(m, hs.KIND_HISTORY).data
    with pytest.raises(hs.CodecError):
        hs.parse_witness(b"")
    with pytest.raises(hs.CodecError):
        hs.parse_witness(good[:2])
    with pytest.raises(hs.CodecError, match="magic"):
        hs.parse_witness(b"\x00" + good[1:])
    with pytest.raises(hs.CodecError, match="version"):
        hs.parse_witness(good[:1] + b"\x99" + good[2:])
    with pytest.raises(hs.CodecError, match="kind"):
        hs.parse_witness(good[:2] + b"\x77" + good[3:])
    with pytest.raises(hs.CodecError, match="truncated"):
        hs.parse_witness(good[:-4])
    with pytest.raises(hs.CodecError, match="trailing"):
        hs.parse_witness(good + b"\x00")


def test_non_machine_blob_is_codec_error():
    header = hs.build_witness(load_sample("writer2"), hs.KIND_POINTWISE).data[:3]
    for blob in (b"\xff\xfe machine", b"not a machine"):
        data = header + hs.encode_uvarint(len(blob)) + blob
        with pytest.raises(hs.CodecError, match="not a machine"):
            hs.parse_witness(data)


def test_wide_machine_blob_is_codec_error():
    # a tape count past the cap, in a blob with no delta rows
    text = hs.serialize_machine(load_sample("writer2"))
    blob = "\n".join(
        line for line in text.replace("tapes 1", "tapes 20000").splitlines()
        if not line.startswith("delta")
    ).encode("utf-8")
    header = hs.build_witness(load_sample("writer2"), hs.KIND_HISTORY).data[:3]
    with pytest.raises(hs.CodecError, match="tapes takes at most"):
        hs.parse_witness(header + hs.encode_uvarint(len(blob)) + blob)


def test_conditional_arity_checked():
    m = load_sample("writer2")
    rec = hs.run(m, "", max_steps=10)
    s = hs.interval_summary(rec, 1, rec.t)
    pw = hs.build_witness(m, hs.KIND_POINTWISE)
    hw = hs.build_witness(m, hs.KIND_HISTORY)
    with pytest.raises(ValueError, match="pointwise"):
        hs.run_witness(pw, [hs.encode_summary(s)])
    with pytest.raises(ValueError, match="history"):
        hs.run_witness(hw, [hs.encode_summary(s), hs.encode_uvarint(1)])
    with pytest.raises(hs.CodecError, match="trailing"):
        hs.run_witness(pw, [hs.encode_summary(s), hs.encode_uvarint(1) + b"\x00"])


def _hull_events(configs, counts):
    """Count, per tape and consecutive pair of configurations, a hull
    end given up to a blank with cells left, a tape emptied, and an
    emptied tape written again."""
    for i in range(configs[0].machine.k):
        emptied = False
        for prev, cur in zip(configs, configs[1:]):
            a, b = prev.cells[i], cur.cells[i]
            if a and b and (min(b) > min(a) or max(b) < max(a)):
                counts["end blanked"] += 1
            if a and not b:
                counts["emptied"] += 1
                emptied = True
            if emptied and b and not a:
                counts["refilled"] += 1


def test_history_witness_equals_encoded_replay_random_machines():
    """The rows encoder against encode_history(replay_all(...)) over
    random machines with one to three tapes, the two-byte-code
    machine and a machine that empties and refills its tape."""
    rng = random.Random(2020)
    machines = [random_machine(rng, k=1 + n % 3) for n in range(540)]
    machines += [wide_alphabet_machine(rng) for _ in range(12)] + [blinker_machine()]
    counts = {"end blanked": 0, "emptied": 0, "refilled": 0}
    cases = starts_at_1 = two_byte = 0
    for m in machines:
        n = rng.randint(0, 6) if m.input_alphabet else 0
        word = [rng.choice(m.input_alphabet) for _ in range(n)]
        rec = hs.run(m, word, max_steps=rng.randint(1, 90))
        if rec.t == 0:
            continue
        hw = hs.build_witness(m, hs.KIND_HISTORY)
        for _ in range(2):
            L = 1 if rng.random() < 0.3 else rng.randint(1, rec.t)
            R = rng.randint(L, rec.t)
            s = hs.interval_summary(rec, L, R)
            configs = hs.replay_all(m, s)
            out = hs.run_witness(hw, [hs.encode_summary(s)])
            assert out == hs.encode_history(configs), (m.name, L, R)
            assert out == reference_encode_history(configs), (m.name, L, R)
            _hull_events(configs, counts)
            cases += 1
            starts_at_1 += L == 1
            two_byte += len(m.work_alphabet) > 128
    assert cases >= 1000 and starts_at_1 >= 200 and two_byte >= 20
    assert min(counts.values()) >= 10, counts


@pytest.mark.parametrize("n_symbols, code_bytes", [(128, 1), (129, 2)])
def test_history_witness_at_the_one_byte_bound(n_symbols, code_bytes):
    """At 128 symbols every code is one byte and index 127 is written;
    at 129, index 128 takes two bytes.  Either way the history witness
    gives encode_history(replay_all(...)), which decodes back to
    replay_all's configurations."""
    rng = random.Random(n_symbols)
    top_written = 0
    for _ in range(8):
        m = wide_alphabet_machine(rng, n_symbols=n_symbols)
        top = m.work_alphabet[-1]
        assert len(m.symbol_codes[top]) == code_bytes
        rec = hs.run(m, [], max_steps=80)
        hw = hs.build_witness(m, hs.KIND_HISTORY)
        for L, R in ((1, rec.t), (rec.t // 2, rec.t)):
            s = hs.interval_summary(rec, L, R)
            configs = hs.replay_all(m, s)
            out = hs.run_witness(hw, [hs.encode_summary(s)])
            assert out == hs.encode_history(configs)
            assert out == reference_encode_history(configs)
            assert hs.decode_history_exact(out, m) == configs
            top_written += sum(top in tape.values() for c in configs for tape in c.cells)
    assert top_written >= 50


@pytest.mark.parametrize("alphabet", ["glyphs-128", "glyphs-129", *NO_TABLE_ALPHABETS])
def test_history_witness_with_and_without_a_code_table(alphabet):
    """128 one-character Latin-1 symbols give a code table and byte
    rows; 129 of them, multi-character symbols and a symbol outside
    Latin-1 give none.  Either way the history witness gives what the
    reference encoder writes for replay_all's configurations."""
    rng = random.Random(len(alphabet))
    for _ in range(8):
        if alphabet.startswith("glyphs"):
            m = glyph_machine(rng, int(alphabet[-3:]))
        else:
            m = alphabet_machine(rng, NO_TABLE_ALPHABETS[alphabet])
        assert (m.code_table is not None) == (alphabet == "glyphs-128")
        rec = hs.run(m, [m.input_alphabet[-1]] * 2, max_steps=80)
        hw = hs.build_witness(m, hs.KIND_HISTORY)
        for L, R in ((1, rec.t), (rec.t // 2, rec.t)):
            s = hs.interval_summary(rec, L, R)
            configs = hs.replay_all(m, s)
            out = hs.run_witness(hw, [hs.encode_summary(s)])
            assert out == reference_encode_history(configs) == hs.encode_history(configs)
            assert hs.decode_history_exact(out, m) == configs


@pytest.mark.parametrize(
    "name, word, figures",
    [("sweep", "", (1024, 4608, 1035)), ("palin", palin_input(2**13), (99, 115, 112))],
    ids=["sweep", "palin"],
)
def test_history_witness_long_hulls(name, word, figures):
    """A 1024-step interval from the middle of a 2^13-step run: heads
    past +-64 take two-byte svarints, and on sweep the hull reaches
    1024 cells and records pass 127 bytes, so their length prefixes take
    two bytes.  figures is (widest hull, farthest head, longest record)."""
    m = load_sample(name)
    rec = hs.run(m, word, max_steps=2**13)
    s = hs.interval_summary(rec, 2**12 - 511, 2**12 + 512)
    configs = hs.replay_all(m, s)
    want = hs.encode_history(configs)
    assert want == reference_encode_history(configs)
    assert hs.run_witness(hs.build_witness(m, hs.KIND_HISTORY), [hs.encode_summary(s)]) == want
    widest = max(max(tape) - min(tape) + 1 for c in configs for tape in c.cells if tape)
    farthest = max(abs(h) for c in configs for h in c.heads)
    longest = max(len(hs.encode_configuration(c)) for c in configs)
    assert (widest, farthest, longest) == figures


def _replay_outcome(m, s):
    """The records replay_records emits and the error it raises, next
    to the encoded configuration replay_from_summary gives at each time
    of the interval, up to the first time it raises, and that error."""
    got = []
    try:
        replay.replay_records(m, s, got.append)
        got_error = None
    except (hs.WindowEscape, hs.StepFromHaltError) as e:
        got_error = (type(e), e.args)
    want = []
    try:
        for tau in range(s.L - 1, s.R + 1):
            config = hs.replay_from_summary(m, s, tau)
            want.append(hs.encode_configuration(config))
            assert want[-1] == reference_encode_configuration(config)
        want_error = None
    except (hs.WindowEscape, hs.StepFromHaltError) as e:
        want_error = (type(e), e.args)
    return got, got_error, want, want_error


def test_history_witness_error_parity_on_crafted_summaries():
    """A summary no run made raises what replay_all raises, after the
    records of the same steps."""
    rng = random.Random(404)
    kinds = {hs.WindowEscape: 0, hs.StepFromHaltError: 0, None: 0}
    entry_escapes = 0
    for n in range(600):
        m = random_machine(rng, k=1 + n % 3) if n % 10 else wide_alphabet_machine(rng)
        s = random_summary(rng, m)
        if s.policy != hs.POLICY_FULL:
            s = replace(s, policy=hs.POLICY_FULL, exit=s.entry, heads_out=s.heads_in)
        if n % 7 == 0:
            s = replace(s, q_in=rng.choice((m.accept, m.reject)))
        escaped = n % 11 == 0
        if escaped:
            w = s.entry[0]
            s = replace(s, heads_in=(rng.choice((w.lo - 1, w.hi + 1)),) + s.heads_in[1:])
            entry_escapes += 1
        got, got_error, want, want_error = _replay_outcome(m, s)
        assert got == want
        assert got_error == want_error
        if escaped:
            assert got == [] and got_error[0] is hs.WindowEscape
            # such bytes never reach the replay: the decoder refuses them
            with pytest.raises(hs.CodecError, match="entry head"):
                hs.run_witness(hs.build_witness(m, hs.KIND_HISTORY), [hs.encode_summary(s)])
        elif want_error is None:
            configs = hs.replay_all(m, s)
            out = hs.run_witness(hs.build_witness(m, hs.KIND_HISTORY), [hs.encode_summary(s)])
            assert out == hs.encode_history(configs) == reference_encode_history(configs)
        else:
            with pytest.raises(want_error[0]) as exc:
                hs.replay_all(m, s)
            assert exc.value.args == want_error[1]
            with pytest.raises(want_error[0]) as exc:
                hs.run_witness(hs.build_witness(m, hs.KIND_HISTORY), [hs.encode_summary(s)])
            assert exc.value.args == want_error[1]
        kinds[want_error and want_error[0]] += 1
    assert min(kinds.values()) >= 10 and entry_escapes >= 30, kinds


def test_history_witness_builds_no_configuration(monkeypatch):
    """The history witness encodes from code rows: no Configuration
    is built and encode_configuration never runs."""
    m = load_sample("sweep")
    rec = hs.run(m, "", max_steps=2048)
    s = hs.interval_summary(rec, 512, 1535)
    configs = hs.replay_all(m, s)
    want = hs.encode_history(configs)
    assert want == reference_encode_history(configs)
    calls = {"encode_configuration": 0, "Configuration": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    encode = counted("encode_configuration", codec.encode_configuration)
    for module in (codec, witness):
        monkeypatch.setattr(module, "encode_configuration", encode)
    monkeypatch.setattr(replay, "Configuration", counted("Configuration", replay.Configuration))
    out = hs.run_witness(hs.build_witness(m, hs.KIND_HISTORY), [hs.encode_summary(s)])
    assert out == want
    assert calls == {"encode_configuration": 0, "Configuration": 0}
    # the patches do count on the Configuration path
    hs.encode_history(hs.replay_all(m, replace(s, R=s.L + 9)))
    assert calls["encode_configuration"] == 11 and calls["Configuration"] >= 11


def test_witness_parses_each_program_once(monkeypatch):
    """Repeated calls on one program parse its machine once; distinct
    programs, of one kind or not, are kept apart; outputs are those of
    a fresh parse."""
    parses = []

    def counted(text):
        parses.append(text)
        return hs.parse_machine(text)

    monkeypatch.setattr(witness, "_PARSED", {})
    monkeypatch.setattr(witness, "parse_machine", counted)
    calls = []
    for name, word in (("counter", counter_input(8)), ("palin", "0110")):
        m = load_sample(name)
        rec = hs.run(m, word, max_steps=200)
        s = hs.encode_summary(hs.interval_summary(rec, 3, rec.t - 2))
        pw = hs.build_witness(m, hs.KIND_POINTWISE)
        hw = hs.build_witness(m, hs.KIND_HISTORY)
        for tau in (2, 5, rec.t - 2):
            want = hs.encode_configuration(
                hs.replay_from_summary(m, hs.decode_summary_exact(s, m), tau)
            )
            calls.append((pw, [s, hs.encode_uvarint(tau)], want))
        calls.append((hw, [s], hs.encode_history(hs.replay_all(m, hs.decode_summary_exact(s, m)))))
    for _ in range(2):
        for w, conditional, want in calls:
            assert hs.run_witness(w, conditional) == want
            assert hs.run_witness(w.data, conditional) == want
    assert len(parses) == 4  # two machines, two kinds each


def test_witness_cache_is_bounded_and_keeps_no_error(monkeypatch):
    monkeypatch.setattr(witness, "_PARSED", {})
    rng = random.Random(5)
    programs = [hs.build_witness(random_machine(rng, k=1), hs.KIND_HISTORY) for _ in range(12)]
    for w in programs:
        witness._parse_once(w.data)
    assert list(witness._PARSED) == [w.data for w in programs[-witness._PARSED_KEPT :]]
    bad = programs[0].data[:-4]
    for _ in range(2):
        with pytest.raises(hs.CodecError, match="truncated witness machine blob"):
            hs.run_witness(bad, [b""])
    assert bad not in witness._PARSED and len(witness._PARSED) == witness._PARSED_KEPT
