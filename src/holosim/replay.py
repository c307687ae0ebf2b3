"""Window-restricted re-execution from interval summaries.

A full-policy summary pins down everything the machine can see during
its interval: entry state, entry head positions, and the entry contents
of every cell any head visits before the interval ends.  Stepping the
transition function inside those windows therefore reproduces the
original run exactly, cell for cell, without any access to the global
tape.  A head leaving its window would mean the summary was not
generated from a real run; that surfaces as WindowEscape rather than
silently reading a blank.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Callable

from .blocks import POLICY_FULL, IntervalSummary, TapeWindow, tape_window
from .errors import StepFromHaltError, WindowEscape
from .machine import Configuration, MachineSpec
from .machine import steps as step_kernel


@dataclass(frozen=True)
class ReplayExit:
    """End of a window replay: the final restricted configuration and
    the windows with their exit-time contents."""

    config: Configuration
    windows: tuple[TapeWindow, ...]


def _restricted_config(
    machine: MachineSpec,
    time: int,
    state: str,
    heads: tuple[int, ...],
    tapes: list[dict[int, str]],
    spans: tuple[tuple[int, int], ...],
) -> Configuration:
    cells = tuple([tape.copy() for tape in tapes])
    return Configuration(
        machine=machine, time=time, state=state, heads=heads, cells=cells, spans=spans
    )


def replay_block(
    machine: MachineSpec,
    state: str,
    heads: tuple[int, ...],
    windows: tuple[TapeWindow, ...],
    steps: int,
    emit: Callable[[Configuration], None] | None = None,
    time_base: int = 0,
) -> ReplayExit:
    """Run `steps` transitions inside the given windows.

    The windows carry entry-time contents.  emit, when given, receives
    the restricted configuration after each step at times time_base+1
    onward.  Raises WindowEscape if a head leaves its window and
    StepFromHaltError if asked to step a halting state.
    """
    if len(heads) != machine.k or len(windows) != machine.k:
        raise ValueError(
            f"expected {machine.k} heads and windows, got {len(heads)} and {len(windows)}"
        )
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    spans = tuple(w.span for w in windows)
    for i, (h, w) in enumerate(zip(heads, windows)):
        if not w.covers(h):
            raise WindowEscape(i + 1, h)
    blank = machine.blank
    tapes: list[dict[int, str]] = [
        {w.lo + j: sym for j, sym in enumerate(w.symbols) if sym != blank}
        for w in windows
    ]
    heads_now = list(heads)
    done = 0
    for state, _, _ in islice(step_kernel(machine, state, heads_now, tapes), steps):
        done += 1
        for i, (lo, hi) in enumerate(spans):
            if not lo <= heads_now[i] <= hi:
                raise WindowEscape(i + 1, heads_now[i])
        if emit is not None:
            emit(
                _restricted_config(
                    machine, time_base + done, state, tuple(heads_now), tapes, spans
                )
            )
    if done < steps:
        raise StepFromHaltError(state)
    exit_windows = tuple(tape_window(tape, lo, hi, blank) for tape, (lo, hi) in zip(tapes, spans))
    config = _restricted_config(
        machine, time_base + steps, state, tuple(heads_now), tapes, spans
    )
    return ReplayExit(config=config, windows=exit_windows)


def replay_from_summary(
    machine: MachineSpec, summary: IntervalSummary, tau: int
) -> Configuration:
    """Reconstruct the configuration at time tau from a full-policy
    summary covering tau, restricted to the summary's windows.

    tau ranges over [L-1, R]: L-1 is the entry configuration itself,
    R is the exit.  The summary is trusted; an inconsistent one shows
    up as WindowEscape or a halt mid-replay.
    """
    if summary.policy != POLICY_FULL:
        raise ValueError(
            f"replay needs a {POLICY_FULL!r} summary, got {summary.policy!r}"
        )
    lo, hi = summary.L - 1, summary.R
    if not lo <= tau <= hi:
        raise ValueError(f"tau {tau} outside [{lo}, {hi}]")
    result = replay_block(
        machine,
        summary.q_in,
        summary.heads_in,
        summary.entry,
        steps=tau - lo,
        time_base=lo,
    )
    return result.config


def replay_each(
    machine: MachineSpec,
    summary: IntervalSummary,
    emit: Callable[[Configuration], None],
) -> None:
    """Pass every configuration of the summarized interval, entry
    through exit, to emit in time order, from one replay of the entry
    data.  Nothing is kept between calls."""
    emit(replay_from_summary(machine, summary, summary.L - 1))
    replay_block(
        machine,
        summary.q_in,
        summary.heads_in,
        summary.entry,
        steps=summary.steps,
        emit=emit,
        time_base=summary.L - 1,
    )


def replay_all(
    machine: MachineSpec, summary: IntervalSummary
) -> tuple[Configuration, ...]:
    """Every configuration of the summarized interval, entry through
    exit, from one replay of the entry data."""
    configs: list[Configuration] = []
    replay_each(machine, summary, configs.append)
    return tuple(configs)
