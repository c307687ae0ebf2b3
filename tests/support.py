"""Test-side reference implementations and random object generators.

The reference interpreter here uses grow-on-demand list tapes, written
independently of the package's dict-backed machinery, so each can catch
the other's mistakes.  Generators are plain seeded-random constructors
(not hypothesis strategies) so large corpora stay cheap and repeatable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from holosim import (
    CodecError,
    Configuration,
    HistoryCursor,
    InternalInvariantError,
    IntervalSummary,
    MachineSpec,
    POLICY_BOUNDARY,
    POLICY_FULL,
    StepFromHaltError,
    TapeWindow,
    build_machine,
    decompose,
    merge,
    split_left_count,
)
from holosim.ctree import CausalTree
from holosim.ledger import cells_table


class ListTape:
    """Two-sided tape as a pair of grow-on-demand lists."""

    def __init__(self, blank: str, symbols=()):
        self.blank = blank
        self.neg: list[str] = []  # cells -1, -2, ...
        self.pos: list[str] = list(symbols)  # cells 0, 1, ...

    def read(self, i: int) -> str:
        arr, j = (self.pos, i) if i >= 0 else (self.neg, -i - 1)
        return arr[j] if j < len(arr) else self.blank

    def write(self, i: int, sym: str) -> None:
        arr, j = (self.pos, i) if i >= 0 else (self.neg, -i - 1)
        while len(arr) <= j:
            arr.append(self.blank)
        arr[j] = sym

    def nonblank(self) -> dict[int, str]:
        cells = {}
        for j, s in enumerate(self.pos):
            if s != self.blank:
                cells[j] = s
        for j, s in enumerate(self.neg):
            if s != self.blank:
                cells[-j - 1] = s
        return cells


def reference_trace(machine: MachineSpec, word, max_steps: int):
    """Yield (time, state, heads, nonblank-cells-per-tape), time 0
    included, halting at accept/reject or the step budget."""
    tapes = [
        ListTape(machine.blank, tuple(word) if i == 0 else ())
        for i in range(machine.k)
    ]
    heads = [0] * machine.k
    state = machine.start
    yield 0, state, tuple(heads), tuple(t.nonblank() for t in tapes)
    steps = 0
    while steps < max_steps and state not in (machine.accept, machine.reject):
        reads = tuple(tapes[i].read(heads[i]) for i in range(machine.k))
        state, writes, moves = machine.delta[(state, reads)]
        for i in range(machine.k):
            tapes[i].write(heads[i], writes[i])
            heads[i] += moves[i]
        steps += 1
        yield steps, state, tuple(heads), tuple(t.nonblank() for t in tapes)


def naive_step(machine: MachineSpec, config: Configuration) -> Configuration:
    """One deterministic step, the naive reference for machine.steps.
    Pure: the input configuration is kept intact.  Raises
    StepFromHaltError on accepting or rejecting states."""
    if machine.is_halting(config.state):
        raise StepFromHaltError(f"cannot step from halting state {config.state!r}")
    reads = tuple(config.cells[i].get(config.heads[i], machine.blank) for i in range(machine.k))
    q2, writes, moves = machine.delta[(config.state, reads)]
    new_cells = []
    new_heads = []
    new_spans = []
    for i in range(machine.k):
        tape = dict(config.cells[i])
        if writes[i] == machine.blank:
            tape.pop(config.heads[i], None)
        else:
            tape[config.heads[i]] = writes[i]
        head = config.heads[i] + moves[i]
        lo, hi = config.spans[i]
        new_cells.append(tape)
        new_heads.append(head)
        new_spans.append((min(lo, head), max(hi, head)))
    return Configuration(
        machine=machine,
        time=config.time + 1,
        state=q2,
        heads=tuple(new_heads),
        cells=tuple(new_cells),
        spans=tuple(new_spans),
    )


def oracle_walk(history, times):
    """The oracle configuration at each of times, which must not
    decrease, read off one forward cursor walk of history."""
    cursor = history.cursor()
    for tau in times:
        cursor.advance_to(tau)
        yield cursor.snapshot()


class ReferenceVerifier:
    """The verify sink as it was before it stepped its own kernel: it
    walks a recorded oracle history and checks each emitted
    configuration in full, state and heads outright and cells inside the
    emission's spans.  `strict` counts the emissions whose tapes match
    outright too.  streaming.VerifySink checks the engine's steps instead
    and must give the same verdicts on the configurations those steps
    make; it also refuses a skipped time, which this sink accepts."""

    def __init__(self, history):
        self.cursor = HistoryCursor(history)
        self.compared = 0
        self.strict = 0

    def __call__(self, config: Configuration) -> None:
        cursor = self.cursor
        cursor.advance_to(config.time)
        exact = True
        windowed = config.state == cursor.state and list(config.heads) == cursor.heads
        for got, want, (lo, hi) in zip(config.cells, cursor.cells, config.spans):
            if got != want:
                exact = False
                windowed = windowed and all(
                    got.get(c) == want.get(c) for c in range(lo, hi + 1)
                )
        if not windowed:
            raise InternalInvariantError(
                f"emission at t={config.time} disagrees with direct simulation "
                f"inside its window"
            )
        self.compared += 1
        self.strict += exact


def reference_block_spans(machine: MachineSpec, word, t: int, b: int):
    """Per-block per-tape visited spans [lo, hi] over configurations
    L-1..R, by brute force over the reference trace."""
    trace = list(reference_trace(machine, word, t))
    heads_at = [row[2] for row in trace]
    spans = []
    step = 0
    while step < t:
        L = step + 1
        R = min(step + b, t)
        block = []
        for i in range(machine.k):
            positions = [heads_at[tau][i] for tau in range(L - 1, R + 1)]
            block.append((min(positions), max(positions)))
        spans.append(((L, R), tuple(block)))
        step = R
    return spans


# ---------------------------------------------------------------------------
# references for the tree, the merge algebra, the ledger's cell costs and
# emission counts


def fold_left_deep(summaries: Sequence[IntervalSummary]) -> IntervalSummary:
    """Merge a block-ordered summary sequence strictly left to right."""
    if not summaries:
        raise ValueError("cannot fold an empty summary sequence")
    acc = summaries[0]
    for s in summaries[1:]:
        acc = merge(acc, s)
    return acc


@lru_cache(maxsize=None)
def tree_depth_for(T: int) -> int:
    """Depth of the tree over T leaves, by the same split recurrence as
    build_tree but without materializing nodes."""
    if T < 1:
        raise ValueError("need at least one leaf")
    if T == 1:
        return 0
    left = split_left_count(T)
    return 1 + max(tree_depth_for(left), tree_depth_for(T - left))


ENTER = "enter"
LEAF_EMIT = "leaf_emit"
EXIT = "exit"


@dataclass(frozen=True)
class TraversalStep:
    index: int
    node: int
    phase: str
    leaf: int | None = None
    offset: int | None = None


def dfs_order(tree: CausalTree) -> tuple[TraversalStep, ...]:
    """Pre-order walk events: enter/exit per node, one leaf_emit per
    simulated step at each leaf."""
    steps: list[TraversalStep] = []

    def visit(node_id: int) -> None:
        node = tree.node(node_id)
        steps.append(TraversalStep(len(steps), node_id, ENTER))
        if node.is_leaf:
            L, R = node.interval
            for offset in range(R - L + 1):
                steps.append(
                    TraversalStep(len(steps), node_id, LEAF_EMIT, leaf=node.leaf_lo, offset=offset)
                )
        else:
            visit(node.left)  # type: ignore[arg-type]
            visit(node.right)  # type: ignore[arg-type]
        steps.append(TraversalStep(len(steps), node_id, EXIT))

    visit(0)
    return tuple(steps)


def leaf_to_time(k: int, delta: int, b: int, t: int) -> int:
    """Inverse of time_to_leaf; rejects offsets past the leaf's end."""
    decomp = decompose(t, b)
    if not 1 <= k <= decomp.T:
        raise ValueError(f"leaf {k} outside [1, {decomp.T}]")
    L, R = decomp.block(k)
    if not 0 <= delta <= R - L:
        raise ValueError(f"offset {delta} outside [0, {R - L}] for leaf {k}")
    return L + delta


def int_cells(value: int, gamma: int) -> int:
    bits = (value if value >= 0 else ~value).bit_length() + 1
    return cells_table(gamma, bits)[bits]


class CountingSink:
    """Sink that counts emissions per time, for exactly-once checks."""

    def __init__(self):
        self.counts: dict[int, int] = {}

    def __call__(self, config: Configuration) -> None:
        self.counts[config.time] = self.counts.get(config.time, 0) + 1

    def all_once(self, t: int) -> bool:
        """Whether every time 1..t was emitted exactly once, and no other."""
        return self.counts == dict.fromkeys(range(1, t + 1), 1)


# ---------------------------------------------------------------------------
# random generators

_SYMBOL_POOL = ["_", "0", "1", "a", "b", "c"]


def random_machine(rng: random.Random, k: int | None = None) -> MachineSpec:
    """A small total machine with random transitions."""
    if k is None:
        k = rng.randint(1, 3)
    n_work = rng.randint(2, 4)
    work = _SYMBOL_POOL[:n_work]
    blank = "_"
    inputs = [s for s in work if s != blank]
    if rng.random() < 0.3:
        inputs = inputs[: rng.randint(0, len(inputs))]
    middle = [f"s{i}" for i in range(rng.randint(1, 3))]
    states = ["go"] + middle
    accept, reject = "yes", "no"
    all_states = states + [accept, reject]

    def combos(depth: int):
        if depth == 0:
            yield ()
            return
        for rest in combos(depth - 1):
            for s in work:
                yield (s,) + rest

    delta = {}
    for q in states:
        for syms in combos(k):
            q2 = rng.choice(all_states if rng.random() < 0.25 else states)
            writes = tuple(rng.choice(work) for _ in range(k))
            moves = tuple(rng.choice((-1, 0, 1)) for _ in range(k))
            delta[(q, syms)] = (q2, writes, moves)
    return build_machine(
        name=f"rand{rng.randrange(10**6)}",
        k=k,
        start="go",
        accept=accept,
        reject=reject,
        input_alphabet=inputs,
        work_alphabet=work,
        blank=blank,
        delta=delta,
    )


def alphabet_machine(rng: random.Random, work: list[str], name: str = "alpha") -> MachineSpec:
    """A one-tape total machine over the work alphabet work, at least
    four symbols with the blank first.  Half its writes pick one of the
    four last symbols; it never halts."""
    states = ("go", "s0")
    delta = {}
    for q in states:
        for s in work:
            w = work[-1 - rng.randrange(4)] if rng.random() < 0.5 else rng.choice(work)
            delta[(q, (s,))] = (rng.choice(states), (w,), (rng.choice((-1, 0, 1)),))
    return build_machine(
        name=f"{name}{rng.randrange(10**6)}",
        k=1,
        start="go",
        accept="yes",
        reject="no",
        input_alphabet=list(dict.fromkeys(work[1:3] + work[-2:])),
        work_alphabet=work,
        blank="_",
        delta=delta,
    )


def wide_alphabet_machine(rng: random.Random, n_symbols: int = 130) -> MachineSpec:
    """A one-tape total machine over n_symbols work symbols, so that
    symbol indices from 128 up take two-byte varints.  Half its writes
    pick one of the four highest indices; it never halts."""
    return alphabet_machine(rng, ["_"] + [f"x{i}" for i in range(1, n_symbols)], "wide")


# one-character symbols that survive the machine text format: printable
# Latin-1 but for '#' (it opens a comment), blank first
GLYPHS = "_" + "".join(
    c for c in map(chr, [*range(0x21, 0x7F), *range(0xA1, 0x100)]) if c not in "#_"
)


def glyph_machine(rng: random.Random, n_symbols: int) -> MachineSpec:
    """alphabet_machine over n_symbols one-character Latin-1 symbols:
    with at most 128 of them it has a code table."""
    return alphabet_machine(rng, list(GLYPHS[:n_symbols]), "glyph")


# work alphabets of at most 128 symbols that still have no code table
NO_TABLE_ALPHABETS = {
    "multi-char": ["_", "ab", "cd", "e"],
    "not-latin-1": ["_", "0", "1", "λ"],
}


def blinker_machine() -> MachineSpec:
    """Writes two marks, erases the right one, then the left, which
    empties the tape, and refills it one cell further on, forever."""
    plan = {
        ("go", "_"): ("s1", "1", 1),
        ("s1", "_"): ("s2", "1", -1),
        ("s2", "1"): ("s3", "1", 1),
        ("s3", "1"): ("s4", "_", -1),
        ("s4", "1"): ("go", "_", 1),
    }
    delta = {}
    for q in ("go", "s1", "s2", "s3", "s4"):
        for sym in ("_", "1"):
            q2, w, move = plan.get((q, sym), (q, sym, 0))
            delta[(q, (sym,))] = (q2, (w,), (move,))
    return build_machine("blinker", 1, "go", "yes", "no", ["1"], ["_", "1"], "_", delta)


def random_window(rng: random.Random, machine: MachineSpec, span=None) -> TapeWindow:
    if span is None:
        lo = rng.randint(-30, 30)
        hi = lo + rng.randint(0, 8)
    else:
        lo, hi = span
    syms = tuple(rng.choice(machine.work_alphabet) for _ in range(hi - lo + 1))
    return TapeWindow(lo, hi, syms)


def random_summary(rng: random.Random, machine: MachineSpec) -> IntervalSummary:
    """Structurally valid summary, heads inside their windows; not
    necessarily realizable by a run."""
    L = rng.randint(1, 1000)
    R = L + rng.randint(0, 200)
    policy = POLICY_FULL if rng.random() < 0.5 else POLICY_BOUNDARY
    entry = []
    exit_ = []
    for _ in range(machine.k):
        ew = random_window(rng, machine)
        if policy == POLICY_FULL:
            xw = random_window(rng, machine, span=ew.span)
        else:
            xw = random_window(rng, machine)
        entry.append(ew)
        exit_.append(xw)
    heads_in = tuple(rng.randint(w.lo, w.hi) for w in entry)
    heads_out = tuple(rng.randint(w.lo, w.hi) for w in exit_)
    return IntervalSummary(
        machine=machine,
        L=L,
        R=R,
        q_in=rng.choice(machine.states),
        q_out=rng.choice(machine.states),
        heads_in=heads_in,
        heads_out=heads_out,
        entry=tuple(entry),
        exit=tuple(exit_),
        policy=policy,
    )


def random_configuration(rng: random.Random, machine: MachineSpec) -> Configuration:
    cells = []
    spans = []
    heads = []
    for _ in range(machine.k):
        head = rng.randint(-40, 40)
        tape: dict[int, str] = {}
        for _ in range(rng.randint(0, 10)):
            c = rng.randint(-40, 40)
            sym = rng.choice(machine.work_alphabet)
            if sym != machine.blank:
                tape[c] = sym
        occupied = list(tape) + [head]
        spans.append((min(occupied), max(occupied)))
        heads.append(head)
        cells.append(tape)
    return Configuration(
        machine=machine,
        time=rng.randint(0, 10**6),
        state=rng.choice(machine.states),
        heads=tuple(heads),
        cells=tuple(cells),
        spans=tuple(spans),
    )


# ---------------------------------------------------------------------------
# reference decoder


def reference_decode_summary(data: bytes, machine: MachineSpec) -> IntervalSummary:
    """decode_summary_exact written naively, apart from the codec: every
    integer, symbol index included, goes through one general varint
    reader, one byte at a time.  Raises CodecError wherever the record
    layout does not hold."""
    pos = 0

    def byte() -> int:
        nonlocal pos
        if pos == len(data):
            raise CodecError("truncated")
        pos += 1
        return data[pos - 1]

    def uvarint() -> int:
        value = 0
        shift = 0
        more = True
        while more:
            b = byte()
            value += (b % 128) * 2**shift
            shift += 7
            more = b >= 128
        return value

    def svarint() -> int:
        z = uvarint()
        return z // 2 if z % 2 == 0 else -(z + 1) // 2

    def index(options: tuple) -> str:
        i = uvarint()
        if i >= len(options):
            raise CodecError("index out of range")
        return options[i]

    def window() -> TapeWindow:
        lo = svarint()
        n = uvarint()
        symbols = tuple(index(machine.work_alphabet) for _ in range(n))
        return TapeWindow(lo, lo + n - 1, symbols) if n else TapeWindow(0, -1, ())

    if byte() != 0x53 or byte() != 1:
        raise CodecError("not a summary")
    L, R = uvarint(), uvarint()
    q_in, q_out = index(machine.states), index(machine.states)
    heads_in, heads_out, entry, exit_ = [], [], [], []
    for _ in range(machine.k):
        heads_in.append(svarint())
        heads_out.append(svarint())
        entry.append(window())
        exit_.append(window())
    policy = byte()
    if pos != len(data) or policy > 1:
        raise CodecError("bad policy tag or trailing bytes")
    for h, w in zip(heads_in + heads_out, entry + exit_):
        if not w.lo <= h <= w.hi:
            raise CodecError("head outside its window")
    try:
        return IntervalSummary(
            machine=machine,
            L=L,
            R=R,
            q_in=q_in,
            q_out=q_out,
            heads_in=tuple(heads_in),
            heads_out=tuple(heads_out),
            entry=tuple(entry),
            exit=tuple(exit_),
            policy=(POLICY_FULL, POLICY_BOUNDARY)[policy],
        )
    except ValueError as e:
        raise CodecError(str(e)) from e


# ---------------------------------------------------------------------------
# reference encoders


def _uvarint(n: int) -> list[int]:
    """Little-endian base 128, high bit set on every byte but the last."""
    out = []
    while n >= 128:
        out.append(n % 128 + 128)
        n //= 128
    return out + [n]


def _svarint(v: int) -> list[int]:
    return _uvarint(2 * v if v >= 0 else -2 * v - 1)


def _symbols(machine: MachineSpec, symbols) -> list[int]:
    out = []
    for sym in symbols:
        out += _uvarint(machine.work_alphabet.index(sym))
    return out


def reference_encode_summary(s: IntervalSummary) -> bytes:
    """encode_summary written cell by cell from the record layout in
    codec.py's docstring, apart from the codec: its own varints, each
    index looked up in the machine's state order or work alphabet."""
    m = s.machine
    out = [0x53, 1] + _uvarint(s.L) + _uvarint(s.R)
    out += _uvarint(m.states.index(s.q_in)) + _uvarint(m.states.index(s.q_out))
    for i in range(m.k):
        out += _svarint(s.heads_in[i]) + _svarint(s.heads_out[i])
        for w in (s.entry[i], s.exit[i]):
            out += _svarint(w.lo if w.symbols else 0) + _uvarint(len(w.symbols))
            out += _symbols(m, w.symbols)
    out.append({POLICY_FULL: 0x00, POLICY_BOUNDARY: 0x01}[s.policy])
    return bytes(out)


def reference_encode_configuration(c: Configuration) -> bytes:
    """encode_configuration written cell by cell from the record layout
    in codec.py's docstring: each tape over the hull of its non-blank
    cells, (lo=0, len=0) when it has none."""
    m = c.machine
    out = [0x43, 1] + _uvarint(c.time) + _uvarint(m.states.index(c.state))
    for head, tape in zip(c.heads, c.cells):
        out += _svarint(head)
        written = [cell for cell, sym in tape.items() if sym != m.blank]
        if written:
            lo, hi = min(written), max(written)
            out += _svarint(lo) + _uvarint(hi - lo + 1)
            out += _symbols(m, [tape.get(cell, m.blank) for cell in range(lo, hi + 1)])
        else:
            out += _svarint(0) + _uvarint(0)
    return bytes(out)


def reference_encode_history(configs) -> bytes:
    """encode_history from the record layout: the count, then each
    configuration record prefixed by its length in bytes."""
    out = [0x48, 1] + _uvarint(len(configs))
    for c in configs:
        record = reference_encode_configuration(c)
        out += _uvarint(len(record)) + list(record)
    return bytes(out)
