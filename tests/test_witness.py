"""Fixed-size replay programs conditioned on boundary summaries."""

from __future__ import annotations

import random

import pytest

import holosim as hs
from holosim.samples import counter_input, load_sample


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
        assert out == hs.encode_configuration(hs.replay_from_summary(m, s, tau))


def test_history_output_equals_direct_replay():
    m = load_sample("palin")
    rec = hs.run(m, "0110", max_steps=10**3)
    w = hs.build_witness(m, hs.KIND_HISTORY)
    s = hs.interval_summary(rec, 2, rec.t - 1)
    out = hs.run_witness(w, [hs.encode_summary(s)])
    assert out == hs.encode_history(hs.replay_all(m, s))


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
