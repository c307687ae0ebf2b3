"""Witness programs: fixed byte strings that expand interval summaries.

A witness is built from a machine alone.  Its bytes never depend on
the run, the interval, or t, so for a fixed machine every witness of a
given kind is the identical constant-length string.  Fed a summary as
conditional input, the witness interpreter replays the summarized
interval and emits encoded configurations:

* pointwise (tag 0x2A): conditional input is (encoded full-policy
  summary, uvarint tau); output is the encoded configuration at tau,
  restricted to the summary's windows.
* history (tag 0x2B): conditional input is (encoded full-policy
  summary,); output is the encoded configuration sequence from entry
  (time L-1) through exit (time R).  Each record comes from
  replay.replay_records, which updates per-tape code rows in place
  instead of building and re-encoding every configuration: a row is a
  bytearray of symbol indices when the machine has a code table (at
  most 128 symbols, each one Latin-1 character), so each record copies
  its rows' hull slices.  The bytes are those of
  encode_history(replay_all(...)).

Program layout: magic 0x57, version, kind tag, then the machine's
canonical text serialization as a length-prefixed UTF-8 blob.
run_witness parses each of the last few distinct programs once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .codec import (
    MAGIC_WITNESS,
    VERSION,
    HistoryWriter,
    decode_summary_exact,
    decode_uvarint,
    encode_configuration,
    encode_uvarint,
)
from .errors import CodecError, MachineFormatError
from .machine import MachineSpec, parse_machine, serialize_machine
from .replay import replay_from_summary, replay_records

KIND_POINTWISE = "pointwise"
KIND_HISTORY = "history"
_TAGS = {KIND_POINTWISE: 0x2A, KIND_HISTORY: 0x2B}
_KINDS = {tag: kind for kind, tag in _TAGS.items()}


@dataclass(frozen=True)
class WitnessProgram:
    kind: str
    data: bytes

    def __len__(self) -> int:
        return len(self.data)


def build_witness(machine: MachineSpec, kind: str) -> WitnessProgram:
    if kind not in _TAGS:
        raise ValueError(f"unknown witness kind {kind!r}; expected one of {sorted(_TAGS)}")
    blob = serialize_machine(machine).encode("utf-8")
    data = bytes([MAGIC_WITNESS, VERSION, _TAGS[kind]]) + encode_uvarint(len(blob)) + blob
    return WitnessProgram(kind=kind, data=data)


def parse_witness(data: bytes) -> tuple[str, MachineSpec]:
    if len(data) < 3:
        raise CodecError("witness too short")
    if data[0] != MAGIC_WITNESS:
        raise CodecError(f"bad witness magic 0x{data[0]:02X}, expected 0x{MAGIC_WITNESS:02X}")
    if data[1] != VERSION:
        raise CodecError(f"unsupported witness version {data[1]}")
    tag = data[2]
    if tag not in _KINDS:
        raise CodecError(f"unknown witness kind tag 0x{tag:02X}")
    blob_len, offset = decode_uvarint(data, 3)
    blob = data[offset : offset + blob_len]
    if len(blob) != blob_len:
        raise CodecError("truncated witness machine blob")
    if offset + blob_len != len(data):
        raise CodecError(f"{len(data) - offset - blob_len} trailing bytes after witness")
    try:
        machine = parse_machine(blob.decode("utf-8"))
    except (UnicodeDecodeError, MachineFormatError) as exc:
        raise CodecError(f"witness machine blob is not a machine: {exc}") from exc
    return _KINDS[tag], machine


_PARSED: dict[bytes, tuple[str, MachineSpec]] = {}  # least recently used first
_PARSED_KEPT = 8


def _parse_once(data: bytes) -> tuple[str, MachineSpec]:
    """parse_witness(data), kept by bytes for the last few programs, so
    each machine builds its step table and symbol codes once.  A program
    that fails to parse is never kept."""
    key = bytes(data)
    _PARSED[key] = parsed = _PARSED.pop(key, None) or parse_witness(data)
    if len(_PARSED) > _PARSED_KEPT:
        del _PARSED[next(iter(_PARSED))]
    return parsed


def run_witness(
    witness: WitnessProgram | bytes, conditional: Sequence[bytes]
) -> bytes:
    """Execute a witness on its conditional input; returns encoded
    output bytes."""
    data = witness.data if isinstance(witness, WitnessProgram) else witness
    kind, machine = _parse_once(data)
    if kind == KIND_POINTWISE:
        if len(conditional) != 2:
            raise ValueError(
                f"pointwise witness takes (summary, tau), got {len(conditional)} items"
            )
        summary = decode_summary_exact(conditional[0], machine)
        tau, end = decode_uvarint(conditional[1], 0)
        if end != len(conditional[1]):
            raise CodecError(f"{len(conditional[1]) - end} trailing bytes after tau")
        config = replay_from_summary(machine, summary, tau)
        return encode_configuration(config)
    if len(conditional) != 1:
        raise ValueError(
            f"history witness takes (summary,), got {len(conditional)} items"
        )
    summary = decode_summary_exact(conditional[0], machine)
    writer = HistoryWriter(summary.steps + 1)
    replay_records(machine, summary, writer.add_record)
    return writer.getvalue()
