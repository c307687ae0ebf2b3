"""Self-delimiting byte encodings for summaries, configurations and
histories.

Integers use unsigned little-endian base-128 varints (seven payload
bits per byte, high bit flags continuation); signed values go through
the zigzag map first.  Records open with one magic byte and one
version byte, then their fields in declared order.  States and symbols
are encoded as indices into the machine's canonical state order and
declared work alphabet, so decoding needs the machine at hand.

Symbol runs move through C-level calls.  A machine with at most 128
symbols, each one Latin-1 character, has MachineSpec.code_table: every
code is one byte, the symbol's index, and the table is a pair of
bytes.translate tables built once per machine.  A run then encodes as
one string of its symbols, encoded as Latin-1 and translated to
indices.  A symbol outside the alphabet leaves the table's 0xFF byte,
changes the run's length or fails to encode, and the run falls back to
joining the per-symbol codes of MachineSpec.symbol_codes, which raises
KeyError for it.  A run holding an empty symbol takes that join at
once, since an empty string can make up for a longer one, as in
("ab", "").  A run of single-byte indices decodes as one slice,
translated back to characters, where an index past the alphabet
becomes the table's spare byte, found by one `in` test, and split into
a tuple; without a table the slice is range-checked by its max and
maps through one itemgetter call.  Machines without a table encode
through symbol_codes, and a continuation byte in a run (an alphabet
over 128 symbols, or corrupt input) sends it to the varint loop.
Integers of one or two bytes, nearly every head, window end, length and
state a record holds, skip the varint loop too: decode_uvarint reads
them at once, a window's lo± and length and a tape's two heads are read
as a pair, and the encoders return a cached byte or build two.  The layout below is the same on
every path.

Record layouts (version 1):

  summary        0x53 | L | R | q_in | q_out |
                 per tape: head_in± head_out± entry_lo± entry_len
                 entry_syms* exit_lo± exit_len exit_syms* | policy
                 (one byte: 0x00 full, 0x01 boundary)
  configuration  0x43 | time | state | per tape: head± lo± len syms*
  history        0x48 | count | per entry: byte_length config_bytes
  witness        0x57 | kind | machine_blob_len machine_blob

A configuration's tape contents are encoded over the hull of its
non-blank cells; an empty tape is (lo=0, len=0).  Concatenated records
parse back unambiguously because every field is length-driven.

tape_field writes one tape's part of a configuration record, given
its head, its hull and its body (the hull's symbol codes, already
joined), and configuration_record the whole record, so the layout is
defined once.  encode_configuration joins each tape's codes and feeds
them from a Configuration.  A history is its count, then each record
prefixed by its length; HistoryWriter appends either a Configuration or
a record already encoded.  That is how replay.replay_records writes the
history witness's output without building a Configuration: it keeps a
row of codes per tape up to date step by step and hands tape_field the
row's hull slice as the body.  When the alphabet has at most 128
symbols every code is one byte, the symbol's index, so the row is a
bytearray and the slice is the body as it stands.
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import itemgetter
from typing import Iterable, Sequence

from .blocks import EMPTY_WINDOW, POLICY_BOUNDARY, POLICY_FULL, IntervalSummary, TapeWindow
from .errors import CodecError
from .machine import Configuration, MachineSpec

MAGIC_SUMMARY = 0x53
MAGIC_CONFIGURATION = 0x43
MAGIC_HISTORY = 0x48
MAGIC_WITNESS = 0x57
VERSION = 1

_POLICY_TAGS = {POLICY_FULL: 0x00, POLICY_BOUNDARY: 0x01}
_TAG_POLICIES = {v: k for k, v in _POLICY_TAGS.items()}


_ONE_BYTE = tuple(bytes((i,)) for i in range(0x80))
_EMPTY_HULL = b"\x00\x00"  # an empty tape or window: lo=0 as an svarint, then len=0


def encode_uvarint(value: int) -> bytes:
    # values of one or two bytes skip the loop: nearly every time,
    # head, hull end and length a record holds
    if 0 <= value < 0x80:
        return _ONE_BYTE[value]
    if 0x80 <= value < 0x4000:
        return bytes((value & 0x7F | 0x80, value >> 7))
    if value < 0:
        raise ValueError(f"uvarint cannot encode negative value {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_uvarint(data: bytes, offset: int = 0) -> tuple[int, int]:
    # values of one or two bytes skip the loop, as in encode_uvarint
    if offset < len(data) and data[offset] < 0x80:
        return data[offset], offset + 1
    if offset + 1 < len(data) and data[offset + 1] < 0x80:
        return data[offset] & 0x7F | data[offset + 1] << 7, offset + 2
    value = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise CodecError("truncated varint")
        byte = data[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, offset
        shift += 7


def zigzag(value: int) -> int:
    """Fold signed integers onto the non-negatives: 0,-1,1,-2,2 ... map
    to 0,1,2,3,4 ..."""
    return 2 * value if value >= 0 else -2 * value - 1


def encode_svarint(value: int) -> bytes:
    if -0x40 <= value < 0x40:
        return _ONE_BYTE[2 * value if value >= 0 else -2 * value - 1]
    return encode_uvarint(zigzag(value))


def decode_svarint(data: bytes, offset: int = 0) -> tuple[int, int]:
    raw, offset = decode_uvarint(data, offset)
    return (raw >> 1) ^ -(raw & 1), offset


def _expect(data: bytes, offset: int, magic: int, what: str) -> int:
    if offset + 2 > len(data):
        raise CodecError(f"truncated {what} header")
    if data[offset] != magic:
        raise CodecError(
            f"bad {what} magic byte 0x{data[offset]:02X}, expected 0x{magic:02X}"
        )
    if data[offset + 1] != VERSION:
        raise CodecError(f"unsupported {what} version {data[offset + 1]}")
    return offset + 2


def _symbol_run(m: MachineSpec, symbols: Sequence[str]) -> bytes:
    """The codes of symbols, joined.  With the machine's code table and
    no empty symbol the run is one translate call.  A symbol outside
    the alphabet then leaves a 0xFF byte, changes the run's length or
    fails to encode, and the run takes the per-symbol join, which
    raises for it."""
    table = m.code_table
    if table is not None and all(symbols):
        try:
            run = "".join(symbols).encode("latin-1").translate(table[0])
        except (TypeError, UnicodeEncodeError):
            pass
        else:
            if len(run) == len(symbols) and 0xFF not in run:
                return run
    return b"".join(map(m.symbol_codes.__getitem__, symbols))


def _decode_symbols(data: bytes, offset: int, machine: MachineSpec, count: int):
    alphabet = machine.work_alphabet
    run = data[offset : offset + count]
    if len(run) == count and run.isascii():
        # every byte is a whole uvarint
        table = machine.code_table
        if table is not None:
            # an index past the alphabet translates to the spare byte
            chars = run.translate(table[1])
            if table[1][-1] not in chars:
                return tuple(chars.decode("latin-1")), offset + count
        elif not run or max(run) < len(alphabet):
            if count > 1:
                return itemgetter(*run)(alphabet), offset + count
            return tuple(map(alphabet.__getitem__, run)), offset + count
        idx = next(i for i in run if i >= len(alphabet))
        raise CodecError(f"symbol index {idx} out of range")
    syms = []
    for _ in range(count):
        idx, offset = decode_uvarint(data, offset)
        if idx >= len(alphabet):
            raise CodecError(f"symbol index {idx} out of range")
        syms.append(alphabet[idx])
    return tuple(syms), offset


def _decode_state(data: bytes, offset: int, machine: MachineSpec):
    idx, offset = decode_uvarint(data, offset)
    if idx >= len(machine.states):
        raise CodecError(f"state index {idx} out of range")
    return machine.states[idx], offset


# ---------------------------------------------------------------------------
# summaries


def _decode_window(data: bytes, offset: int, machine: MachineSpec):
    if offset + 1 < len(data) and data[offset] | data[offset + 1] < 0x80:
        # lo± and length of one byte each, read together
        z = data[offset]
        lo = (z >> 1) ^ -(z & 1)
        length = data[offset + 1]
        offset += 2
    else:
        lo, offset = decode_svarint(data, offset)
        length, offset = decode_uvarint(data, offset)
    syms, offset = _decode_symbols(data, offset, machine, length)
    if length == 0:
        return EMPTY_WINDOW, offset
    return TapeWindow(lo, lo + length - 1, syms), offset


def encode_summary(s: IntervalSummary) -> bytes:
    m = s.machine
    out = bytearray((MAGIC_SUMMARY, VERSION))
    out += encode_uvarint(s.L)
    out += encode_uvarint(s.R)
    out += encode_uvarint(m.state_index[s.q_in])
    out += encode_uvarint(m.state_index[s.q_out])
    for i in range(m.k):
        out += encode_svarint(s.heads_in[i])
        out += encode_svarint(s.heads_out[i])
        for w in (s.entry[i], s.exit[i]):
            if w.symbols:
                out += encode_svarint(w.lo)
                out += encode_uvarint(len(w.symbols))
                out += _symbol_run(m, w.symbols)
            else:
                out += _EMPTY_HULL
    out.append(_POLICY_TAGS[s.policy])
    return bytes(out)


def decode_summary(
    data: bytes, machine: MachineSpec, offset: int = 0
) -> tuple[IntervalSummary, int]:
    offset = _expect(data, offset, MAGIC_SUMMARY, "summary")
    L, offset = decode_uvarint(data, offset)
    R, offset = decode_uvarint(data, offset)
    q_in, offset = _decode_state(data, offset, machine)
    q_out, offset = _decode_state(data, offset, machine)
    heads_in = []
    heads_out = []
    entry = []
    exit_ = []
    for i in range(1, machine.k + 1):
        if offset + 1 < len(data) and data[offset] | data[offset + 1] < 0x80:
            # both heads of one byte each, read together
            z_in, z_out = data[offset], data[offset + 1]
            h_in, h_out = (z_in >> 1) ^ -(z_in & 1), (z_out >> 1) ^ -(z_out & 1)
            offset += 2
        else:
            h_in, offset = decode_svarint(data, offset)
            h_out, offset = decode_svarint(data, offset)
        ew, offset = _decode_window(data, offset, machine)
        xw, offset = _decode_window(data, offset, machine)
        if not ew.lo <= h_in <= ew.hi:
            raise CodecError(f"tape {i}: entry head {h_in} outside window {ew.span}")
        if not xw.lo <= h_out <= xw.hi:
            raise CodecError(f"tape {i}: exit head {h_out} outside window {xw.span}")
        heads_in.append(h_in)
        heads_out.append(h_out)
        entry.append(ew)
        exit_.append(xw)
    if offset >= len(data):
        raise CodecError("truncated summary: missing policy tag")
    tag = data[offset]
    offset += 1
    if tag not in _TAG_POLICIES:
        raise CodecError(f"unknown policy tag 0x{tag:02X}")
    try:
        summary = IntervalSummary(
            machine=machine,
            L=L,
            R=R,
            q_in=q_in,
            q_out=q_out,
            heads_in=tuple(heads_in),
            heads_out=tuple(heads_out),
            entry=tuple(entry),
            exit=tuple(exit_),
            policy=_TAG_POLICIES[tag],
        )
    except ValueError as e:
        raise CodecError(f"decoded summary is malformed: {e}") from e
    return summary, offset


def decode_summary_exact(data: bytes, machine: MachineSpec) -> IntervalSummary:
    s, offset = decode_summary(data, machine)
    if offset != len(data):
        raise CodecError(f"{len(data) - offset} trailing bytes after summary")
    return s


# ---------------------------------------------------------------------------
# configurations and histories


def configuration_record(
    machine: MachineSpec, time: int, state: str, fields: Iterable[bytes]
) -> bytes:
    """A configuration record from its time, its state and each tape's
    field as tape_field writes it."""
    return b"".join(
        (
            bytes((MAGIC_CONFIGURATION, VERSION)),
            encode_uvarint(time),
            encode_uvarint(machine.state_index[state]),
            *fields,
        )
    )


def tape_field(head: int, lo: int, hi: int, body: bytes) -> bytes:
    """One tape of a configuration record: head, the hull [lo, hi] of
    its non-blank cells and the body, the symbol codes of the hull's
    cells already joined (any bytes-like object).  hi < lo means an
    empty tape, written as (lo=0, len=0), and the body is not read."""
    if hi < lo:
        return encode_svarint(head) + _EMPTY_HULL
    return encode_svarint(head) + encode_svarint(lo) + encode_uvarint(hi - lo + 1) + body


def encode_configuration(c: Configuration) -> bytes:
    m = c.machine
    fields = []
    for head, tape in zip(c.heads, c.cells):
        lo, hi = (min(tape), max(tape)) if tape else (0, -1)
        cells = [*map(tape.get, range(lo, hi + 1), repeat(m.blank))]
        fields.append(tape_field(head, lo, hi, _symbol_run(m, cells)))
    return configuration_record(m, c.time, c.state, fields)


def decode_configuration(
    data: bytes, machine: MachineSpec, offset: int = 0
) -> tuple[Configuration, int]:
    offset = _expect(data, offset, MAGIC_CONFIGURATION, "configuration")
    time, offset = decode_uvarint(data, offset)
    state, offset = _decode_state(data, offset, machine)
    heads = []
    cells = []
    spans = []
    for _ in range(machine.k):
        head, offset = decode_svarint(data, offset)
        lo, offset = decode_svarint(data, offset)
        length, offset = decode_uvarint(data, offset)
        syms, offset = _decode_symbols(data, offset, machine, length)
        tape = dict(compress(zip(range(lo, lo + length), syms), map(machine.blank.__ne__, syms)))
        heads.append(head)
        cells.append(tape)
        if length:
            spans.append((min(lo, head), max(lo + length - 1, head)))
        else:
            spans.append((head, head))
    return (
        Configuration(
            machine=machine,
            time=time,
            state=state,
            heads=tuple(heads),
            cells=tuple(cells),
            spans=tuple(spans),
        ),
        offset,
    )


def decode_configuration_exact(data: bytes, machine: MachineSpec) -> Configuration:
    c, offset = decode_configuration(data, machine)
    if offset != len(data):
        raise CodecError(f"{len(data) - offset} trailing bytes after configuration")
    return c


class HistoryWriter:
    """A history record written one configuration at a time, for
    producers that know the count up front and should not hold every
    configuration at once.  encode_history is this over a sequence."""

    def __init__(self, count: int):
        self._count = count
        self._written = 0
        self._out = bytearray((MAGIC_HISTORY, VERSION)) + encode_uvarint(count)

    def add(self, c: Configuration) -> None:
        self.add_record(encode_configuration(c))

    def add_record(self, blob: bytes) -> None:
        """Append one configuration record, already encoded."""
        self._out += encode_uvarint(len(blob))
        self._out += blob
        self._written += 1

    def getvalue(self) -> bytes:
        if self._written != self._count:
            raise ValueError(f"history declares {self._count} entries, {self._written} written")
        return bytes(self._out)


def encode_history(configs: Sequence[Configuration]) -> bytes:
    writer = HistoryWriter(len(configs))
    for c in configs:
        writer.add(c)
    return writer.getvalue()


def decode_history(
    data: bytes, machine: MachineSpec, offset: int = 0
) -> tuple[tuple[Configuration, ...], int]:
    offset = _expect(data, offset, MAGIC_HISTORY, "history")
    count, offset = decode_uvarint(data, offset)
    configs = []
    for _ in range(count):
        length, offset = decode_uvarint(data, offset)
        if offset + length > len(data):
            raise CodecError("truncated history entry")
        c, end = decode_configuration(data, machine, offset)
        if end != offset + length:
            raise CodecError("history entry length does not match its payload")
        configs.append(c)
        offset += length
    return tuple(configs), offset


def decode_history_exact(data: bytes, machine: MachineSpec) -> tuple[Configuration, ...]:
    h, offset = decode_history(data, machine)
    if offset != len(data):
        raise CodecError(f"{len(data) - offset} trailing bytes after history")
    return h
