"""Deterministic multitape machine model and linear-space reference execution.

A machine has k two-way-infinite tapes.  The input occupies cells
0..n-1 of tape 1 at time 0; every head starts on cell 0.  One step
reads the k cells under the heads, consults the total transition map,
writes k symbols back, and moves each head by at most one cell.

steps() is the one stepping loop: the oracle, the length probe, the
streaming simulator and window replay all advance through it.  It walks
MachineSpec.step_table, the transition map compiled into a trie keyed
by the symbol read on each tape in turn, built on the first step and
kept per machine; a step builds and hashes no key tuple and touches
only the tapes that change or move.  That skip relies on every tape
dict holding non-blank cells only, the form all callers keep.  The
tests check it against a deliberately naive, pure reference step.

run() is the reference oracle: it executes the machine forwards once
and records a compact per-step trace.  Its history is read forward
only: a cursor replays the trace from the initial configuration, one
mutable tape image for the whole walk, and keeps nothing else.
Everything else in the toolkit is validated against these histories.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice, product
from typing import Iterator, Mapping, Sequence

from .errors import MachineFormatError

MOVE_TOKENS = {"L": -1, "S": 0, "R": 1}
MOVE_NAMES = {-1: "L", 0: "S", 1: "R"}

TransitionKey = tuple[str, tuple[str, ...]]
TransitionValue = tuple[str, tuple[str, ...], tuple[int, ...]]

ACCEPT = "accept"
REJECT = "reject"
BUDGET = "budget"

# Bundled and random test machines use at most 3 tapes.  The cap keeps
# |Gamma|^k, the size of a total transition map, a number we can form.
MAX_TAPES = 64


@dataclass(frozen=True)
class MachineSpec:
    """Immutable machine description.

    states is the canonical ordering used wherever states are encoded
    as integers: start first, interior states sorted, accept and reject
    last.  work_alphabet keeps its declared order for the same reason.
    """

    name: str
    k: int
    states: tuple[str, ...]
    start: str
    accept: str
    reject: str
    input_alphabet: tuple[str, ...]
    work_alphabet: tuple[str, ...]
    blank: str
    delta: dict[TransitionKey, TransitionValue] = field(repr=False)

    @cached_property
    def state_index(self) -> dict[str, int]:
        return {q: i for i, q in enumerate(self.states)}

    @cached_property
    def symbol_index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.work_alphabet)}

    @cached_property
    def symbol_codes(self) -> dict[str, bytes]:
        """Each symbol's index as the codec writes it, a uvarint."""
        from .codec import encode_uvarint  # codec imports this module

        return {s: encode_uvarint(i) for s, i in self.symbol_index.items()}

    @cached_property
    def code_table(self) -> tuple[bytes, bytes] | None:
        """The symbol codes as a pair of bytes.translate tables, or None.

        They exist when every code is one byte, the symbol's index (at
        most 128 symbols), and every symbol is one Latin-1 character,
        so that a run of symbols is one Latin-1 string.  The first maps
        each symbol's character to its index and every other byte to
        0xFF, which no index takes; the second maps each index back to
        its symbol's character and every other byte to a spare byte, the
        first that is no symbol's character, so its last byte is the
        spare.
        """
        work = self.work_alphabet
        if len(work) > 0x80 or not all(len(s) == 1 and s <= "\xff" for s in work):
            return None
        to_code = bytearray(b"\xff" * 256)
        for i, s in enumerate(work):
            to_code[ord(s)] = i
        to_char = bytearray([to_code.index(0xFF)]) * 256
        to_char[: len(work)] = "".join(work).encode("latin-1")
        return bytes(to_code), bytes(to_char)

    @cached_property
    def step_table(self) -> dict[str, dict]:
        """The transition map compiled for steps(): a read-symbol trie.

        For each non-halting state, a nested dict of depth k keyed by
        the symbol read on tape 1, then tape 2, and so on.  Each leaf is
        (value, ops, next): value is the delta entry itself; ops lists
        (tape, symbol written or None for blank, move) for just the
        tapes whose write differs from the read or whose head moves;
        next is the next state's root, or None when that state halts.
        """
        blank = self.blank
        roots: dict[str, dict] = {q: {} for q in self.states if not self.is_halting(q)}
        for (q, reads), value in self.delta.items():
            q2, writes, moves = value
            node = roots[q]
            for s in reads[:-1]:
                node = node.setdefault(s, {})
            ops = tuple(
                (i, None if w == blank else w, m)
                for i, (r, w, m) in enumerate(zip(reads, writes, moves))
                if w != r or m
            )
            node[reads[-1]] = (value, ops, roots.get(q2))
        return roots

    def is_halting(self, state: str) -> bool:
        return state == self.accept or state == self.reject


def _canonical_states(mentioned: set[str], start: str, accept: str, reject: str) -> tuple[str, ...]:
    fixed = [start] + [q for q in (accept, reject) if q != start]
    middle = sorted(mentioned - set(fixed))
    # start first, then interior states, then the halting pair
    return tuple([start] + middle + [q for q in (accept, reject) if q != start])


def build_machine(
    name: str,
    k: int,
    start: str,
    accept: str,
    reject: str,
    input_alphabet: Sequence[str],
    work_alphabet: Sequence[str],
    blank: str,
    delta: Mapping[TransitionKey, TransitionValue],
) -> MachineSpec:
    """Validate parts and assemble a MachineSpec.

    Raises MachineFormatError on any semantic problem: duplicate or
    unknown symbols, a non-total transition map, moves outside
    {-1, 0, +1}, or transitions out of a halting state.
    """
    if not 1 <= k <= MAX_TAPES:
        raise MachineFormatError(f"tapes must be in [1, {MAX_TAPES}], got {k}")
    work = tuple(work_alphabet)
    if len(set(work)) != len(work):
        raise MachineFormatError("duplicate symbol in work_alphabet")
    inp = tuple(input_alphabet)
    if len(set(inp)) != len(inp):
        raise MachineFormatError("duplicate symbol in input_alphabet")
    missing_inp = [s for s in inp if s not in work]
    if missing_inp:
        raise MachineFormatError(f"input symbol {missing_inp[0]!r} not in work_alphabet")
    if blank not in work:
        raise MachineFormatError(f"blank symbol {blank!r} not in work_alphabet")
    if accept == reject:
        raise MachineFormatError("accept and reject states must differ")

    mentioned = {start, accept, reject}
    for (q, syms), (q2, writes, moves) in delta.items():
        mentioned.add(q)
        mentioned.add(q2)
        if q in (accept, reject):
            raise MachineFormatError(f"transition out of halting state {q!r}")
        if len(syms) != k or len(writes) != k or len(moves) != k:
            raise MachineFormatError(f"transition for state {q!r} has wrong arity")
        for s in syms + writes:
            if s not in work:
                raise MachineFormatError(f"unknown symbol {s!r} in transition for state {q!r}")
        for m in moves:
            if m not in (-1, 0, 1):
                raise MachineFormatError(f"invalid move {m!r} in transition for state {q!r}")

    states = _canonical_states(mentioned, start, accept, reject)
    nonhalt = [q for q in states if q not in (accept, reject)]
    expected = len(nonhalt) * len(work) ** k
    if len(delta) != expected:
        sample = None
        keys = set(delta)
        for q in nonhalt:
            for combo in product(work, repeat=k):
                if (q, combo) not in keys:
                    sample = (q, combo)
                    break
            if sample:
                break
        detail = f"; first missing: state {sample[0]!r} on {sample[1]!r}" if sample else ""
        raise MachineFormatError(
            f"transition map is not total: {len(delta)} entries, expected {expected}{detail}"
        )
    return MachineSpec(
        name=name,
        k=k,
        states=states,
        start=start,
        accept=accept,
        reject=reject,
        input_alphabet=inp,
        work_alphabet=work,
        blank=blank,
        delta=dict(delta),
    )


# ---------------------------------------------------------------------------
# definition text format


def parse_machine(text: str) -> MachineSpec:
    """Parse the line-oriented machine definition format.

    Directives: machine, tapes, blank, input_alphabet, work_alphabet,
    start, accept, reject, then one delta line per transition.  '#'
    starts a comment.  Errors carry the offending line number.
    """
    header: dict[str, object] = {}
    delta_rows: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        keyword = tokens[0]
        if keyword == "delta":
            if "tapes" not in header:
                raise MachineFormatError("tapes must be declared before delta", lineno)
            delta_rows.append((lineno, tokens))
            continue
        if keyword in ("machine", "blank", "start", "accept", "reject"):
            if len(tokens) != 2:
                raise MachineFormatError(f"{keyword} takes exactly one argument", lineno)
            if keyword in header:
                raise MachineFormatError(f"duplicate {keyword} directive", lineno)
            header[keyword] = tokens[1]
        elif keyword == "tapes":
            if len(tokens) != 2 or not (tokens[1].isascii() and tokens[1].isdigit()):
                raise MachineFormatError("tapes takes one positive integer", lineno)
            count = tokens[1].lstrip("0") or "0"
            # digit count first: int() refuses very long digit strings
            if len(count) > len(str(MAX_TAPES)) or int(count) > MAX_TAPES:
                raise MachineFormatError(f"tapes takes at most {MAX_TAPES}", lineno)
            if keyword in header:
                raise MachineFormatError("duplicate tapes directive", lineno)
            header[keyword] = int(count)
        elif keyword in ("input_alphabet", "work_alphabet"):
            if keyword in header:
                raise MachineFormatError(f"duplicate {keyword} directive", lineno)
            header[keyword] = tokens[1:]
        else:
            raise MachineFormatError(f"unknown directive {keyword!r}", lineno)

    for needed in ("machine", "tapes", "blank", "work_alphabet", "start", "accept", "reject"):
        if needed not in header:
            raise MachineFormatError(f"missing {needed} directive")
    header.setdefault("input_alphabet", [])

    k = int(header["tapes"])  # type: ignore[arg-type]
    delta: dict[TransitionKey, TransitionValue] = {}
    for lineno, tokens in delta_rows:
        # delta q s1..sk -> q' w1..wk m1..mk
        want = 4 + 3 * k
        if len(tokens) != want:
            raise MachineFormatError(
                f"delta line needs {want} tokens for {k} tape(s), got {len(tokens)}", lineno
            )
        if tokens[2 + k] != "->":
            raise MachineFormatError("delta line missing '->' separator", lineno)
        q = tokens[1]
        syms = tuple(tokens[2 : 2 + k])
        q2 = tokens[3 + k]
        writes = tuple(tokens[3 + k + 1 : 3 + 2 * k + 1])
        move_toks = tokens[3 + 2 * k + 1 :]
        moves = []
        for tok in move_toks:
            if tok not in MOVE_TOKENS:
                raise MachineFormatError(f"invalid move {tok!r} (use L, S or R)", lineno)
            moves.append(MOVE_TOKENS[tok])
        key = (q, syms)
        if key in delta:
            raise MachineFormatError(f"duplicate delta entry for state {q!r} on {syms!r}", lineno)
        delta[key] = (q2, writes, tuple(moves))

    return build_machine(
        name=str(header["machine"]),
        k=k,
        start=str(header["start"]),
        accept=str(header["accept"]),
        reject=str(header["reject"]),
        input_alphabet=list(header["input_alphabet"]),  # type: ignore[arg-type]
        work_alphabet=list(header["work_alphabet"]),  # type: ignore[arg-type]
        blank=str(header["blank"]),
        delta=delta,
    )


def serialize_machine(machine: MachineSpec) -> str:
    """Emit the canonical definition text: fixed directive order, delta
    rows sorted by state then read symbols.  parse(serialize(m)) == m."""
    lines = [
        f"machine {machine.name}",
        f"tapes {machine.k}",
        f"blank {machine.blank}",
        "input_alphabet" + ("" if not machine.input_alphabet else " " + " ".join(machine.input_alphabet)),
        "work_alphabet " + " ".join(machine.work_alphabet),
        f"start {machine.start}",
        f"accept {machine.accept}",
        f"reject {machine.reject}",
    ]
    sidx = machine.state_index
    gidx = machine.symbol_index

    def row_key(item: tuple[TransitionKey, TransitionValue]):
        (q, syms), _ = item
        return (sidx[q], tuple(gidx[s] for s in syms))

    for (q, syms), (q2, writes, moves) in sorted(machine.delta.items(), key=row_key):
        lines.append(
            "delta {} {} -> {} {} {}".format(
                q,
                " ".join(syms),
                q2,
                " ".join(writes),
                " ".join(MOVE_NAMES[m] for m in moves),
            )
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# configurations


@dataclass(slots=True)
class Configuration:
    """Instantaneous description at a given time.

    cells maps cell index to symbol, storing non-blank cells only, so
    two configurations with the same tape contents compare equal no
    matter how they were produced.  spans records, per tape, the region
    this record is authoritative for: the visited span for oracle
    histories, the replay window for reconstructions.  spans and the
    machine reference do not take part in equality.

    A slotted record, not a frozen one: every emission and replay step
    builds one, and a frozen dataclass sets each field through
    object.__setattr__.  Treat it as a value all the same, cells
    included: consecutive streamed emissions may share their cells and
    spans objects, so mutating one would change its neighbours.
    """

    machine: MachineSpec = field(compare=False, repr=False)
    time: int = 0
    state: str = ""
    heads: tuple[int, ...] = ()
    cells: tuple[dict[int, str], ...] = ()
    spans: tuple[tuple[int, int], ...] = field(default=(), compare=False)

    def symbol_at(self, tape: int, cell: int) -> str:
        return self.cells[tape].get(cell, self.machine.blank)

    def restricted(self, spans: Sequence[tuple[int, int]]) -> "Configuration":
        """Copy with tape contents masked to the given per-tape spans."""
        masked = tuple(
            {c: s for c, s in self.cells[i].items() if spans[i][0] <= c <= spans[i][1]}
            for i in range(self.machine.k)
        )
        return Configuration(
            machine=self.machine,
            time=self.time,
            state=self.state,
            heads=self.heads,
            cells=masked,
            spans=tuple((lo, hi) for lo, hi in spans),
        )

    def describe(self) -> str:
        parts = [f"time={self.time} state={self.state}"]
        for i in range(self.machine.k):
            lo, hi = self.spans[i]
            syms = " ".join(self.symbol_at(i, c) for c in range(lo, hi + 1))
            parts.append(f"tape{i + 1} head={self.heads[i]} [{lo},{hi}]: {syms}")
        return "\n".join(parts)


def normalize_input(machine: MachineSpec, input_word: str | Sequence[str]) -> tuple[str, ...]:
    """Accept either a character string or a symbol sequence; validate
    every symbol against the machine's input alphabet."""
    syms = tuple(input_word)
    allowed = set(machine.input_alphabet)
    for s in syms:
        if s not in allowed:
            raise MachineFormatError(f"input symbol {s!r} not in input alphabet")
    return syms


def initial_configuration(machine: MachineSpec, input_word: str | Sequence[str]) -> Configuration:
    syms = normalize_input(machine, input_word)
    tape0 = {i: s for i, s in enumerate(syms) if s != machine.blank}
    cells = tuple(dict(tape0) if i == 0 else {} for i in range(machine.k))
    return Configuration(
        machine=machine,
        time=0,
        state=machine.start,
        heads=(0,) * machine.k,
        cells=cells,
        spans=((0, 0),) * machine.k,
    )


def steps(
    machine: MachineSpec,
    state: str,
    heads: list[int],
    tapes: Sequence[dict[int, str]],
) -> Iterator[TransitionValue]:
    """The stepping kernel: apply the transition map from `state` until
    a halting state, yielding each transition value taken (state after,
    symbols written, head moves).

    Each step walks machine.step_table: one dict lookup per tape keyed
    by the symbol under its head, then only the tapes that change or
    move are touched.  No key tuple is built or hashed.

    heads and the per-tape cell dicts are the caller's and are updated
    in place before each yield; a blank write removes the cell.  The
    dicts must hold non-blank cells only, on entry and so throughout: a
    write equal to the read is skipped, which would leave a stored blank
    in place.  The consumer bounds the run by how many values it takes;
    exhaustion means the machine halted.
    """
    blank = machine.blank
    readers = [(tape.get, i) for i, tape in enumerate(tapes)]
    node = machine.step_table.get(state)
    while node is not None:
        for get, i in readers:
            node = node[get(heads[i], blank)]
        value, ops, node = node
        for i, w, m in ops:
            h = heads[i]
            if w is None:
                tapes[i].pop(h, None)
            else:
                tapes[i][h] = w
            heads[i] = h + m
        yield value


# ---------------------------------------------------------------------------
# reference execution with replayable history


class HistoryCursor:
    """Sequential walker over a recorded run.

    Keeps one mutable tape image and advances it step by step from time
    0, so a full forward scan costs O(1) amortized per step instead of
    one snapshot per step.  It never rewinds.
    """

    def __init__(self, history: "RunHistory"):
        c = history.c0
        self._h = history
        self.time = c.time
        self.state = c.state
        self.heads = list(c.heads)
        self.cells = [dict(tape) for tape in c.cells]
        self.spans = [list(span) for span in c.spans]
        self._tapes = tuple(zip(range(len(self.heads)), self.cells, self.spans))

    def read(self, tape: int, cell: int) -> str:
        return self.cells[tape].get(cell, self._h.machine.blank)

    def advance(self) -> None:
        self.advance_to(self.time + 1)

    def advance_to(self, time: int) -> None:
        """Apply the recorded steps up to `time` from one slice of the
        trace.  Past the end of the history it stops at t and raises."""
        if time < self.time:
            raise IndexError(f"cursor cannot rewind from {self.time} to {time}")
        h = self._h
        end = time if time < h.t else h.t
        if end > self.time:
            blank = h.machine.blank
            heads = self.heads
            for state, writes, moves in h.trace[self.time : end]:
                for i, tape, span in self._tapes:
                    head = heads[i]
                    if writes[i] == blank:
                        tape.pop(head, None)
                    else:
                        tape[head] = writes[i]
                    head += moves[i]
                    heads[i] = head
                    if head < span[0]:
                        span[0] = head
                    elif head > span[1]:
                        span[1] = head
            self.state = state
            self.time = end
        if time > end:
            raise IndexError("cursor already at end of history")

    def snapshot(self) -> Configuration:
        return Configuration(
            machine=self._h.machine,
            time=self.time,
            state=self.state,
            heads=tuple(self.heads),
            cells=tuple(dict(tape) for tape in self.cells),
            spans=tuple((lo, hi) for lo, hi in self.spans),
        )


class RunHistory:
    """Every configuration of a recorded run, read forward.

    Stores the initial configuration c0 and a compact per-step trace of
    (state after, symbols written, head moves).  cursor() is the one
    access path: it walks the trace from c0.  history[tau] and final
    each take one such walk and snapshot its end.
    """

    def __init__(
        self,
        machine: MachineSpec,
        c0: Configuration,
        trace: list[tuple[str, tuple[str, ...], tuple[int, ...]]],
    ):
        self.machine = machine
        self.t = len(trace)
        self.trace = trace
        self.c0 = c0

    def cursor(self) -> HistoryCursor:
        return HistoryCursor(self)

    def __getitem__(self, tau: int) -> Configuration:
        if not 0 <= tau <= self.t:
            raise IndexError(f"time {tau} outside [0, {self.t}]")
        cur = self.cursor()
        cur.advance_to(tau)
        return cur.snapshot()

    def configurations(self) -> Iterator[Configuration]:
        cur = self.cursor()
        yield cur.snapshot()
        while cur.time < self.t:
            cur.advance()
            yield cur.snapshot()

    @property
    def final(self) -> Configuration:
        return self[self.t]


@dataclass(frozen=True)
class RunRecord:
    """Outcome of a reference run: the oracle all other modules are
    checked against."""

    machine: MachineSpec
    t: int
    halt_reason: str  # accept, reject or budget
    history: RunHistory = field(compare=False, repr=False)


def _halt_reason(machine: MachineSpec, state: str) -> str:
    if state == machine.accept:
        return ACCEPT
    if state == machine.reject:
        return REJECT
    return BUDGET


def run(machine: MachineSpec, input_word: str | Sequence[str], max_steps: int) -> RunRecord:
    """Execute up to max_steps steps from the standard initial
    configuration, recording a replayable history.  Halting earlier is
    fine; t in the result is the number of steps actually executed."""
    if max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    c0 = initial_configuration(machine, input_word)
    kernel = steps(machine, c0.state, list(c0.heads), [dict(tape) for tape in c0.cells])
    trace = list(islice(kernel, max_steps))
    return RunRecord(
        machine=machine,
        t=len(trace),
        halt_reason=_halt_reason(machine, trace[-1][0] if trace else c0.state),
        history=RunHistory(machine, c0, trace),
    )


def probe_run_length(
    machine: MachineSpec, input_word: str | Sequence[str], max_steps: int
) -> tuple[int, str]:
    """Step the machine without recording anything and report how many
    steps it executes within the budget, plus the halt reason."""
    if max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    c0 = initial_configuration(machine, input_word)
    kernel = steps(machine, c0.state, list(c0.heads), [dict(tape) for tape in c0.cells])
    state = c0.state
    count = 0
    for state, _, _ in islice(kernel, max_steps):
        count += 1
    return count, _halt_reason(machine, state)
