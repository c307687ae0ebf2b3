"""Window-restricted re-execution from interval summaries.

A full-policy summary pins down everything the machine can see during
its interval: entry state, entry head positions, and the entry contents
of every cell any head visits before the interval ends.  Stepping the
transition function inside those windows therefore reproduces the
original run exactly, cell for cell, without any access to the global
tape.  A head leaving its window would mean the summary was not
generated from a real run; that surfaces as WindowEscape rather than
silently reading a blank.

Every replay runs one loop, the generator _replay, which holds those
checks and the halt check and yields each step's transition value.
replay_from_summary drains it to one time and builds one
Configuration; replay_all builds a Configuration after every step;
replay_records, the history witness's path, instead writes each step's
encoded configuration from per-tape code rows it updates in place: one
byte per cell when the machine has a code table, so that each record
copies its rows' hull slices instead of joining them cell by cell.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Iterator

from .blocks import POLICY_FULL, IntervalSummary, TapeWindow
from .codec import configuration_record, tape_field
from .errors import StepFromHaltError, WindowEscape
from .machine import Configuration, MachineSpec, TransitionValue
from .machine import steps as step_kernel


def _require_full(summary: IntervalSummary) -> None:
    if summary.policy != POLICY_FULL:
        raise ValueError(
            f"replay needs a {POLICY_FULL!r} summary, got {summary.policy!r}"
        )


def _entry(
    machine: MachineSpec, heads: tuple[int, ...], windows: tuple[TapeWindow, ...]
) -> tuple[tuple[tuple[int, int], ...], list[dict[int, str]]]:
    """The windows' spans and entry tapes as dicts of their non-blank
    cells.  Raises WindowEscape if an entry head is outside its window."""
    if len(heads) != machine.k or len(windows) != machine.k:
        raise ValueError(
            f"expected {machine.k} heads and windows, got {len(heads)} and {len(windows)}"
        )
    for i, (h, w) in enumerate(zip(heads, windows)):
        if not w.covers(h):
            raise WindowEscape(i + 1, h)
    blank = machine.blank
    tapes = [
        {w.lo + j: sym for j, sym in enumerate(w.symbols) if sym != blank}
        for w in windows
    ]
    return tuple(w.span for w in windows), tapes


def _replay(
    machine: MachineSpec,
    state: str,
    heads: list[int],
    tapes: list[dict[int, str]],
    spans: tuple[tuple[int, int], ...],
    steps: int,
) -> Iterator[TransitionValue]:
    """The replay loop: take `steps` transitions of the kernel on heads
    and tapes, updated in place, yielding each step's transition value
    once its heads are checked.  Raises WindowEscape as soon as a head
    leaves its span and StepFromHaltError if the machine halts before
    `steps`."""
    done = 0
    for value in islice(step_kernel(machine, state, heads, tapes), steps):
        done += 1
        for i, (lo, hi) in enumerate(spans):
            if not lo <= heads[i] <= hi:
                raise WindowEscape(i + 1, heads[i])
        yield value
        state = value[0]
    if done < steps:
        raise StepFromHaltError(state)


def replay_from_summary(
    machine: MachineSpec, summary: IntervalSummary, tau: int
) -> Configuration:
    """Reconstruct the configuration at time tau from a full-policy
    summary covering tau, restricted to the summary's windows.

    tau ranges over [L-1, R]: L-1 is the entry configuration itself,
    R is the exit.  The summary is trusted; an inconsistent one shows
    up as WindowEscape or a halt mid-replay.
    """
    _require_full(summary)
    lo, hi = summary.L - 1, summary.R
    if not lo <= tau <= hi:
        raise ValueError(f"tau {tau} outside [{lo}, {hi}]")
    spans, tapes = _entry(machine, summary.heads_in, summary.entry)
    heads = list(summary.heads_in)
    state = summary.q_in
    for state, _, _ in _replay(machine, state, heads, tapes, spans, tau - lo):
        pass
    return Configuration(
        machine=machine, time=tau, state=state, heads=tuple(heads), cells=tuple(tapes), spans=spans
    )


def replay_all(
    machine: MachineSpec, summary: IntervalSummary
) -> tuple[Configuration, ...]:
    """Every configuration of the summarized interval, entry through
    exit, from one replay of the entry data."""
    _require_full(summary)
    spans, tapes = _entry(machine, summary.heads_in, summary.entry)
    heads = list(summary.heads_in)

    def config(time: int, state: str) -> Configuration:
        cells = tuple([tape.copy() for tape in tapes])
        return Configuration(
            machine=machine, time=time, state=state, heads=tuple(heads), cells=cells, spans=spans
        )

    configs = [config(summary.L - 1, summary.q_in)]
    for time, (state, _, _) in enumerate(
        _replay(machine, summary.q_in, heads, tapes, spans, summary.steps), summary.L
    ):
        configs.append(config(time, state))
    return tuple(configs)


def _hull(tape: dict[int, str], span: tuple[int, int]) -> tuple[int, int]:
    """The hull of a tape's non-blank cells; (hi + 1, lo - 1) for an
    empty tape over the span (lo, hi), so that a first write at any
    cell of the span sets both ends."""
    if tape:
        return min(tape), max(tape)
    return span[1] + 1, span[0] - 1


def replay_records(
    machine: MachineSpec, summary: IntervalSummary, emit: Callable[[bytes], None]
) -> None:
    """Pass the encoded configuration of every time of the summarized
    interval, entry through exit, to emit in time order: the bytes
    encode_configuration gives for each of replay_all's configurations,
    with the same errors at the same step.

    No configuration is built.  Each tape keeps a row, the symbol code
    of every cell of its window, and the hull [lo, hi] of its non-blank
    cells (lo > hi when it has none).  A step sets the code of the cell
    each tape wrote and widens the hull on a non-blank write; only a
    blank written at an end of the hull rescans that tape.  When the
    machine has a code table (MachineSpec.code_table) every code is one
    byte, the symbol's index, so a row is a bytearray and a record's
    body is its hull slice, copied in C; any other machine keeps a list
    of code bytes and joins its hull slice.  A step costs O(k) in
    Python either way, beyond the C-level copy or join of the output
    itself.
    """
    _require_full(summary)
    spans, tapes = _entry(machine, summary.heads_in, summary.entry)
    # with a code table every code is one byte, the symbol's index
    if machine.code_table is not None:
        code, row, body = machine.symbol_index.__getitem__, bytearray, bytes
    else:
        code, row, body = machine.symbol_codes.__getitem__, list, b"".join
    blank = machine.blank
    heads = list(summary.heads_in)
    bases = [lo for lo, _ in spans]
    rows = [row(map(code, w.symbols)) for w in summary.entry]
    los, his = map(list, zip(*map(_hull, tapes, spans)))
    k = range(machine.k)

    def record(time: int, state: str) -> None:
        fields = [
            tape_field(
                heads[i], los[i], his[i], body(rows[i][los[i] - bases[i] : his[i] - bases[i] + 1])
            )
            for i in k
        ]
        emit(configuration_record(machine, time, state, fields))

    record(summary.L - 1, summary.q_in)
    for time, (state, writes, moves) in enumerate(
        _replay(machine, summary.q_in, heads, tapes, spans, summary.steps), summary.L
    ):
        for i in k:
            cell = heads[i] - moves[i]
            sym = writes[i]
            rows[i][cell - bases[i]] = code(sym)
            if sym != blank:
                if cell < los[i]:
                    los[i] = cell
                if cell > his[i]:
                    his[i] = cell
            elif cell == los[i] or cell == his[i]:
                los[i], his[i] = _hull(tapes[i], spans[i])
        record(time, state)
