"""Exception taxonomy shared across the toolkit.

Errors split into three families that the CLI maps onto exit codes:
usage and format problems (exit 2), model violations detected while
simulating (exit 3), and internal invariant breaches (exit 4).
"""

from __future__ import annotations


class HolosimError(Exception):
    """Base class for all toolkit errors."""


class MachineFormatError(HolosimError):
    """Malformed machine definition text, syntactic or semantic."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class StepFromHaltError(HolosimError):
    """A step was requested from an accepting or rejecting configuration."""


class ModelViolation(HolosimError):
    """The run breaks a precondition of the block-respecting model."""


class NonBlockRespecting(ModelViolation):
    """A block's visited span exceeds the allowed interface window size."""

    def __init__(self, block: int, tape: int, span: int, limit: int):
        self.block = block
        self.tape = tape
        self.span = span
        self.limit = limit
        super().__init__(
            f"block {block}, tape {tape}: visited span {span} cells exceeds "
            f"interface limit {limit}; rerun with a larger b or c_int"
        )


class StaleWindowReentry(ModelViolation):
    """A head re-entered a region whose rewritten contents were discarded.

    The streaming simulator keeps a bounded live window per tape.  Cells
    evicted from it can be recovered from the initial tape only while
    they still hold their initial symbol; re-entering a discarded dirty
    region would require history the simulator no longer has, so the run
    is rejected conservatively.
    """

    def __init__(self, tape: int, cell: int, block: int):
        self.tape = tape
        self.cell = cell
        self.block = block
        super().__init__(
            f"block {block}, tape {tape}: head re-entered cell {cell} whose "
            f"rewritten contents were discarded; rerun with a larger b or c_int"
        )


class WindowEscape(ModelViolation):
    """Replay stepped outside the window supplied with an interval summary."""

    def __init__(self, tape: int, cell: int):
        self.tape = tape
        self.cell = cell
        super().__init__(f"tape {tape}: replay escaped its window at cell {cell}")


class RunEndedEarly(ModelViolation):
    """The machine halted before the requested step count.

    The streaming simulator needs the exact run length up front because
    the block decomposition and causal tree are shaped by it.  Callers
    can probe the true length first (see probe_run_length).
    """

    def __init__(self, steps_done: int, requested: int):
        self.steps_done = steps_done
        self.requested = requested
        super().__init__(
            f"machine halted after {steps_done} steps but {requested} were "
            f"requested; rerun with t={steps_done}"
        )


class MergeIncompatible(HolosimError):
    """Two interval summaries cannot be joined."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(f"incompatible summaries: {reason}")


class CodecError(HolosimError):
    """Malformed or truncated byte encoding."""


class InternalInvariantError(HolosimError):
    """A cross-check inside the simulator disagreed with the fast path."""
