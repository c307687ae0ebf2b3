"""Cell-unit accounting: integer storage costs and the per-step ledger."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import holosim as hs
from holosim.codec import zigzag
from holosim.ledger import cells_for_bits, cells_table
from holosim.samples import counter_input, load_sample, palin_input
from support import int_cells, random_machine, wide_alphabet_machine


def bits_of(value: int) -> int:
    """Bits in the zigzag folding of value; zero still takes one bit."""
    return max(1, zigzag(value).bit_length())


def test_bits_of_pinned():
    # over a binary alphabet an int takes one cell per bit of its zigzag
    # folding: 0->0, -1->1, 1->2, -2->3, 2->4, 300->600
    for v, bits in ((0, 1), (-1, 1), (1, 2), (-2, 2), (2, 3), (300, 10), (-300, 10)):
        assert bits_of(v) == bits
        assert int_cells(v, 2) == bits


def test_cells_for_bits_pinned():
    assert cells_for_bits(1, 2) == 1
    assert cells_for_bits(10, 2) == 10
    assert cells_for_bits(10, 4) == 5
    assert cells_for_bits(3, 3) == 2  # 3^2 = 9 >= 8
    assert cells_for_bits(5, 3) == 4  # 3^3 = 27 < 32 <= 3^4
    assert cells_for_bits(64, 2) == 64


def test_cells_for_bits_rejects_bad_args():
    with pytest.raises(ValueError):
        cells_for_bits(0, 2)
    with pytest.raises(ValueError):
        cells_for_bits(4, 1)


@given(st.integers(min_value=1, max_value=400), st.integers(min_value=2, max_value=17))
def test_cells_for_bits_is_exact_ceiling(bits, gamma):
    c = cells_for_bits(bits, gamma)
    assert gamma**c >= 1 << bits
    assert c == 1 or gamma ** (c - 1) < 1 << bits


@given(st.integers(min_value=-(10**9), max_value=10**9))
def test_int_cells_monotone_in_alphabet(v):
    assert int_cells(v, 4) <= int_cells(v, 2)
    assert int_cells(v, 2) >= 1


@given(st.integers(min_value=-(10**12), max_value=10**12), st.integers(min_value=2, max_value=17))
def test_table_lookup_equals_exact_conversion(v, gamma):
    bits = bits_of(v)
    assert (v if v >= 0 else ~v).bit_length() + 1 == bits
    assert cells_table(gamma, bits)[bits] == cells_for_bits(bits, gamma)
    assert int_cells(v, gamma) == cells_for_bits(bits, gamma)


@pytest.mark.parametrize("gamma", [2, 3, 4, 5, 7, 16, 130])
def test_bands_are_maximal_runs_of_equal_cells(gamma):
    """The band the ledger notes for an int holds every int of equal
    cells on the same side of zero (both sides where the band holds 0
    and -1), and the ints just outside it differ."""
    t = 2**16
    m = load_sample("counter")
    ledger = hs.ScreenLedger(gamma=gamma, t=t, b=256, c_int=2)
    hs.RollingState(m, counter_input(20), t, 256, 2, ledger=ledger)
    for v in range(-(2**12), 2**12):
        n = (v if v >= 0 else ~v).bit_length() + 1
        lo, hi = ledger._bands[v < 0][n]
        assert lo <= v <= hi
        assert int_cells(lo, gamma) == int_cells(v, gamma) == int_cells(hi, gamma)
        assert (lo < 0 <= hi) == (int_cells(0, gamma) == int_cells(v, gamma))
        assert int_cells(lo - 1, gamma) != int_cells(v, gamma)
        if hi < 2 * t:
            assert int_cells(hi + 1, gamma) != int_cells(v, gamma)


def test_row_total():
    row = hs.LedgerRow(tau=4, screen=10, book=3)
    assert row.total == 13


def test_attach_ledger_uses_work_alphabet_size():
    m = load_sample("counter")
    led = hs.attach_ledger(m, 100, 10)
    assert led.gamma == len(m.work_alphabet)
    assert led.t == 100 and led.b == 10 and led.c_int == 2


def test_arena_reserved_in_full():
    m = load_sample("counter")
    t, b, c_int = 128, 8, 2
    led = hs.attach_ledger(m, t, b, c_int=c_int, keep_series=True)
    hs.holo_run(m, counter_input(9), t, b=b, c_int=c_int, ledger=led)
    k = m.k
    assert led.arena_cells == k * c_int * b
    # the arena is charged every step whether occupied or not
    assert all(row.screen >= led.arena_cells for row in led.series)


def test_book_is_logarithmic_not_linear():
    """Doubling t four times must not double max_book; it tracks log T."""
    m = load_sample("counter")
    word = counter_input(16)
    books = []
    for t in (1 << 9, 1 << 11, 1 << 13):
        b = hs.default_block_length(t)
        led = hs.attach_ledger(m, t, b)
        hs.holo_run(m, word, t, b=b, ledger=led)
        books.append(led.max_book)
    assert books[-1] <= 2 * books[0]


def test_dirty_evictions_counted_only_when_lossy():
    m_sweep = load_sample("sweep")
    led = hs.attach_ledger(m_sweep, 256, 16)
    hs.holo_run(m_sweep, "", 256, b=16, ledger=led)
    assert led.dirty_evictions > 0

    m_counter = load_sample("counter")
    led2 = hs.attach_ledger(m_counter, 256, 16)
    hs.holo_run(m_counter, counter_input(9), 256, b=16, ledger=led2)
    assert led2.dirty_evictions == 0


# -- the per-step meter against the per-step formulas it replaced ----------


def _reference_row(engine: hs.RollingState, history: hs.RunHistory) -> hs.LedgerRow:
    """Screen and book cells of the engine's current step, recounted from
    scratch and converted through bits_of and cells_for_bits rather than
    the bit-length table.  The forming summary's entry comes from the
    oracle's configuration at the leaf's start, the parked digests and
    block 1's windows from the engine's pending stack and root windows."""
    gamma = len(engine.machine.work_alphabet)
    idx = engine.machine.state_index

    def cells(v):
        return cells_for_bits(bits_of(v), gamma)

    L = engine.decomp.block(engine.leaf_id)[0]
    entry = history[L - 1]
    payload = [L, idx[entry.state], *entry.heads]
    for d in engine.pending:
        payload += [idx[d.q_in], *d.heads_in]
        for lo, hi in d.entry_spans:
            payload += [lo, hi]
    screen = engine.machine.k * engine.cap + sum(cells(v) for v in payload)
    if engine.retained_entry is not None:
        screen += sum(len(w.symbols) for w in engine.retained_entry)
    values = [engine.tau, engine.leaf_id, engine.t, engine.b, engine.T, len(engine.pending)]
    for ts, head in zip(engine.tapes, engine.heads):
        screen += ts.blk_hi - ts.blk_lo + 1  # the block's entry snapshot
        values.extend((head, ts.lo, ts.hi, ts.blk_lo, ts.blk_hi, ts.lost_lo, ts.lost_hi))
    book = sum(cells(v) for v in values) + cells(engine.next_id)
    if engine.depth_now >= 1:
        book += cells_for_bits(engine.depth_now, gamma)  # path direction bits
    book += 1  # phase flag
    return hs.LedgerRow(engine.tau, screen, book)


def _metered_and_reference(machine, word, t, b, c_int=2):
    """Run the engine with a ledger and a sink that recounts each step;
    the sink runs after the step and before the ledger records it.  A
    model violation ends both series at the same step."""
    ledger = hs.attach_ledger(machine, t, b, c_int=c_int, keep_series=True)
    expected: list[hs.LedgerRow] = []
    history = hs.run(machine, word, max_steps=t).history
    engine = hs.RollingState(
        machine,
        word,
        t,
        b,
        c_int,
        lambda config: expected.append(_reference_row(engine, history)),
        ledger,
    )
    try:
        engine.run()
    except hs.ModelViolation:
        pass
    return ledger, expected


@pytest.mark.parametrize(
    "name, word, t, b",
    [
        ("writer2", "", 2, 1),
        ("counter", counter_input(9), 600, 5),
        ("palin", palin_input(500), 500, 17),
        ("sweep", "", 400, 7),
    ],
    ids=["writer2", "counter", "palin", "sweep"],
)
def test_meter_matches_reference_bundled(name, word, t, b):
    ledger, expected = _metered_and_reference(load_sample(name), word, t, b)
    assert len(ledger.series) == t
    assert ledger.series == expected
    if name == "sweep":
        assert ledger.dirty_evictions > 0
    if t > 2:
        assert ledger.max_pending >= 3


def test_meter_matches_reference_random_machines():
    rng = random.Random(5)
    deep = dirty = rows = 0
    for _ in range(40):
        m = random_machine(rng)
        word = "".join(rng.choice(m.input_alphabet or ("",)) for _ in range(rng.randint(0, 5)))
        t, _ = hs.probe_run_length(m, word, 200)
        if t < 1:
            continue
        ledger, expected = _metered_and_reference(m, word, t, rng.randint(1, 4), rng.randint(1, 2))
        assert ledger.series == expected
        rows += len(expected)
        deep += ledger.max_pending >= 3
        dirty += ledger.dirty_evictions > 0
    assert deep and dirty and rows > 1000


def _most_right_turns(tree) -> int:
    """The most right children on any root-to-leaf path of tree."""
    nodes = {node.id: node for node in tree.nodes}

    def walk(node, turns):
        if node.is_leaf:
            return turns
        return max(walk(nodes[node.left], turns), walk(nodes[node.right], turns + 1))

    return walk(tree.root, 0)


def test_max_pending_is_most_right_turns_on_a_path():
    """A digest is parked for every right turn on the way to a leaf, so
    the deepest pending stack is the most right turns on any
    root-to-leaf path of the static tree."""
    runs = [(load_sample("writer2"), "", 2, b) for b in (1, 2, 3)]
    runs += [
        (load_sample("counter"), counter_input(9), t, b)
        for t, b in ((600, 5), (777, 13), (1024, 32), (1024, 1))
    ]
    runs += [(load_sample("palin"), palin_input(500), 500, b) for b in (17, 23)]
    runs += [(load_sample("sweep"), "", t, b) for t, b in ((400, 7), (1000, 3))]
    rng = random.Random(24)
    while len(runs) < 60:
        m = random_machine(rng)
        word = "".join(rng.choice(m.input_alphabet or ("",)) for _ in range(rng.randint(0, 5)))
        t, _ = hs.probe_run_length(m, word, 300)
        if t >= 1:
            runs.append((m, word, t, rng.randint(1, 6)))
    deepest = 0
    for m, word, t, b in runs:
        ledger = hs.attach_ledger(m, t, b, c_int=t + 1)
        hs.holo_run(m, word, t, b=b, c_int=t + 1, ledger=ledger)
        want = _most_right_turns(hs.build_tree(hs.decompose(t, b)))
        assert ledger.max_pending == want, (m.name, t, b)
        deepest = max(deepest, want)
    assert deepest >= 5


def _window_events(before, after):
    """Window moves between two consecutive steps of one tape, each
    state (lo, hi, lost_lo, lost_hi)."""
    (lo, hi, lost_lo, lost_hi), (lo2, hi2, lost_lo2, lost_hi2) = before, after
    events = set()
    if lo2 < lo and hi2 < hi:
        events.add("slide down")
    if lo2 > lo and hi2 > hi:
        events.add("slide up")
    if lost_lo <= lost_hi:  # the lost hull was already non-empty
        if lost_lo2 < lost_lo:
            events.add("lost hull widens down")
        if lost_hi2 > lost_hi:
            events.add("lost hull widens up")
    return events


def test_meter_matches_reference_wide_random_machines():
    """Cached cells against a recount at every step, over windows down
    to one cell, violations included: the cache must follow every
    window slide, every dirty eviction that widens the lost hull, every
    block start and every hull arrival."""
    rng = random.Random(2502)
    events: set[str] = set()
    outcomes: set[type] = set()
    deep = rows = 0
    for _ in range(150):
        m = random_machine(rng)
        n = rng.randint(0, 8) if m.input_alphabet else 0
        word = "".join(rng.choice(m.input_alphabet) for _ in range(n))
        t, b, c_int = rng.randint(1, 200), rng.randint(1, 5), rng.randint(1, 3)
        ledger = hs.attach_ledger(m, t, b, c_int=c_int, keep_series=True)
        expected: list[hs.LedgerRow] = []
        windows: list[tuple] = []
        history = hs.run(m, word, max_steps=t).history

        def observe(config):
            expected.append(_reference_row(engine, history))
            windows.append(tuple((ts.lo, ts.hi, ts.lost_lo, ts.lost_hi) for ts in engine.tapes))

        engine = hs.RollingState(m, word, t, b, c_int, observe, ledger)
        try:
            engine.run()
            outcomes.add(type(None))
        except hs.ModelViolation as exc:
            outcomes.add(type(exc))
        assert ledger.series == expected
        for before, after in zip(windows, windows[1:]):
            for tape_before, tape_after in zip(before, after):
                events |= _window_events(tape_before, tape_after)
        rows += len(expected)
        deep += ledger.max_pending >= 3
    assert events == {
        "slide down",
        "slide up",
        "lost hull widens down",
        "lost hull widens up",
    }, events
    assert outcomes == {
        type(None),
        hs.NonBlockRespecting,
        hs.StaleWindowReentry,
        hs.RunEndedEarly,
    }, outcomes
    assert deep and rows > 4000


# -- the gate: a step is metered only while its row can beat a maximum ----


def _counting_steps(ledger: hs.ScreenLedger) -> list[int]:
    """Wrap ledger.step so that the returned list receives the tau of
    every step the gate lets through."""
    metered: list[int] = []
    step = ledger.step

    def counted(tau, heads):
        metered.append(tau)
        step(tau, heads)

    ledger.step = counted
    return metered


def _logging_refreshes(ledger: hs.ScreenLedger) -> list[tuple]:
    """Wrap ledger.start_leaf and ledger.refresh_tape so that the
    returned list receives, at every refresh, the leaf's ordinal, the
    tape's index, its hull and its window (lo, hi, lost_lo, lost_hi)."""
    log: list[tuple] = []
    leaves = [0]
    start_leaf, refresh_tape = ledger.start_leaf, ledger.refresh_tape

    def leaf(run):
        leaves[0] += 1
        start_leaf(run)

    def refresh(ts):
        log.append((leaves[0], ts.index, ts.blk_lo, ts.blk_hi, (ts.lo, ts.hi, ts.lost_lo, ts.lost_hi)))
        refresh_tape(ts)

    ledger.start_leaf, ledger.refresh_tape = leaf, refresh
    return log


def _growth_inside_fences(gated: list[tuple], forced: list[tuple]) -> tuple[int, set[str]]:
    """From the refresh logs of one run's gated and forced ledgers: the
    leaves in which two tapes grew their hulls inside their fences, and
    the window events among those growths.  The forced ledger keeps every
    fence at its hull, so it is refreshed at every growth; a growth the
    gated one was not refreshed at was inside its fence."""
    called = {entry[:4] for entry in gated}
    window: dict[int, tuple] = {}
    silent: dict[int, set[int]] = {}
    events: set[str] = set()
    for entry in forced:
        leaf, i, _, _, now = entry
        if entry[:4] not in called:
            silent.setdefault(leaf, set()).add(i)
            events |= _window_events(window[i], now)
        window[i] = now
    return sum(len(tapes) >= 2 for tapes in silent.values()), events


_FIGURES = (
    "T",
    "max_screen",
    "max_book",
    "max_total",
    "argmax_screen",
    "argmax_book",
    "argmax_total",
    "max_pending",
    "dirty_evictions",
    "steps_recorded",
)


def test_gate_matches_forced_metering_random_machines():
    """One run metered twice, by a gated ledger and by one that keeps a
    series and so meters every step, over windows down to one cell and
    violations included: every figure agrees, and every step at which
    the series sets a new maximum was one the gate let through."""
    rng = random.Random(1613)
    outcomes: set[type] = set()
    steps = held_back = two_tapes = 0
    calls = [0, 0]
    events: set[str] = set()
    for i in range(200):
        m = wide_alphabet_machine(rng) if i % 8 == 0 else random_machine(rng)
        n = rng.randint(0, 8) if m.input_alphabet else 0
        word = [rng.choice(m.input_alphabet) for _ in range(n)]
        t, b, c_int = rng.randint(1, 300), rng.randint(1, 5), rng.randint(1, 3)
        gated = hs.attach_ledger(m, t, b, c_int=c_int)
        forced = hs.attach_ledger(m, t, b, c_int=c_int, keep_series=True)
        metered = _counting_steps(gated)
        refreshed = _logging_refreshes(gated), _logging_refreshes(forced)
        kinds = []
        for ledger in (gated, forced):
            try:
                hs.holo_run(m, word, t, b=b, c_int=c_int, ledger=ledger)
                kinds.append(type(None))
            except hs.ModelViolation as exc:
                kinds.append(type(exc))
        assert kinds[0] == kinds[1]
        outcomes.add(kinds[0])
        for name in _FIGURES:
            assert getattr(gated, name) == getattr(forced, name), (i, name)
        assert forced.steps_recorded == len(forced.series)
        best = [0, 0, 0]
        for row in forced.series:
            figures = (row.screen, row.book, row.total)
            if any(f > top for f, top in zip(figures, best)):
                assert row.tau in metered, (i, row)
                best = [max(f, top) for f, top in zip(figures, best)]
        steps += forced.steps_recorded
        held_back += forced.steps_recorded - len(metered)
        # the fences only ever spare the gated ledger a refresh
        assert len(refreshed[0]) <= len(refreshed[1]), i
        calls[0] += len(refreshed[0])
        calls[1] += len(refreshed[1])
        leaves, moved = _growth_inside_fences(*refreshed)
        two_tapes += leaves > 0
        events |= moved
    assert outcomes == {
        type(None),
        hs.NonBlockRespecting,
        hs.StaleWindowReentry,
        hs.RunEndedEarly,
    }, outcomes
    # the gate holds most steps back even at these sizes, and the fences
    # spare some refreshes
    assert held_back > steps // 2
    assert calls[0] < calls[1], calls
    # runs in which two tapes grew inside their fences in one leaf, and
    # windows that slid both ways inside them, with dirty evictions on
    # each side
    assert two_tapes >= 2, two_tapes
    assert events == {
        "slide down",
        "slide up",
        "lost hull widens down",
        "lost hull widens up",
    }, events


# one tape; each input cell takes three steps (mark, step back, step on),
# then the head runs right for good, one new cell a step
_CREEP = """machine creep
tapes 1
blank _
input_alphabet a
work_alphabet a b _
start go
accept acc
reject rej
delta go a -> back b R
delta go b -> back b R
delta go _ -> go _ R
delta back a -> fwd a L
delta back b -> fwd b L
delta back _ -> fwd _ L
delta fwd a -> go a R
delta fwd b -> go b R
delta fwd _ -> go _ R
"""


@pytest.mark.parametrize(
    "name, word, t, b, c_int, error, steps",
    [
        ("counter", "0000", 100, 8, 2, hs.RunEndedEarly, 57),
        ("palin", "0" * 128, 2**12, 64, 2, hs.StaleWindowReentry, 255),
        ("creep", "a" * 6, 200, 6, 1, hs.NonBlockRespecting, 23),
    ],
    ids=["RunEndedEarly", "StaleWindowReentry", "NonBlockRespecting"],
)
def test_steps_recorded_on_violations(name, word, t, b, c_int, error, steps):
    """A leaf that ends early, on a violation or a halt, still adds the
    steps it completed, each one emitted.  Each run ends past its first
    leaf, so earlier leaves count too."""
    m = hs.parse_machine(_CREEP) if name == "creep" else load_sample(name)
    ledger = hs.attach_ledger(m, t, b, c_int=c_int)
    emitted: list[int] = []
    with pytest.raises(error):
        hs.holo_run(m, word, t, b=b, c_int=c_int, sink=lambda c: emitted.append(c.time), ledger=ledger)
    assert emitted == list(range(1, steps + 1))
    assert ledger.steps_recorded == steps > b


def test_ledger_for_another_run_is_rejected():
    m = load_sample("counter")
    word = counter_input(12)
    with pytest.raises(ValueError) as err:
        hs.holo_run(m, word, 1000, b=32, ledger=hs.attach_ledger(m, 100, 5))
    assert "(100, 5, 2)" in str(err.value) and "(1000, 32, 2)" in str(err.value)
    with pytest.raises(ValueError, match=r"\(64, 8, 2\).*\(64, 8, 3\)"):
        hs.holo_run(m, word, 64, b=8, c_int=3, ledger=hs.attach_ledger(m, 64, 8))


def test_reused_ledger_is_rejected():
    m = load_sample("counter")
    word = counter_input(10)
    ledger = hs.attach_ledger(m, 256, 16)
    hs.holo_run(m, word, 256, b=16, ledger=ledger)
    first = (ledger.steps_recorded, ledger.max_total, ledger.argmax_total)
    with pytest.raises(ValueError, match="already recorded 256 steps"):
        hs.holo_run(m, word, 256, b=16, ledger=ledger)
    assert (ledger.steps_recorded, ledger.max_total, ledger.argmax_total) == first
    fresh = hs.attach_ledger(m, 256, 16)
    hs.holo_run(m, word, 256, b=16, ledger=fresh)
    assert (fresh.steps_recorded, fresh.max_total, fresh.argmax_total) == first


@pytest.mark.parametrize(
    "name, word, maxima, argmax_total",
    [
        ("counter", counter_input(20), (247, 68, 314), 8177),
        ("palin", palin_input(2**13), (656, 86, 738), 4180),
        ("sweep", "", (578, 162, 737), 7735),
    ],
    ids=["counter", "palin", "sweep"],
)
def test_ledger_figures_at_benchmark_size(name, word, maxima, argmax_total):
    m = load_sample(name)
    ledger = hs.attach_ledger(m, 2**13, 91)
    hs.holo_run(m, word, 2**13, b=91, ledger=ledger)
    assert (ledger.max_screen, ledger.max_book, ledger.max_total) == maxima
    assert ledger.argmax_total == argmax_total


@pytest.mark.parametrize(
    "name, word, fresh",
    [
        ("counter", counter_input(20), (4146, 12)),
        ("palin", palin_input(2**13), (188, 130)),
        ("sweep", "", (8192, 8192)),
    ],
    ids=["counter", "palin", "sweep"],
)
def test_fresh_emissions_at_benchmark_size(name, word, fresh):
    """How many emissions carry a new cells tuple and a new spans tuple
    rather than the previous emission's: the copies a run pays for.
    sweep writes every step; counter and palin often write the symbol
    already there."""
    m = load_sample(name)
    emitted = []
    hs.holo_run(m, word, 2**13, b=91, sink=emitted.append)
    pairs = list(zip(emitted, emitted[1:]))
    # the first emission is always fresh
    assert (
        1 + sum(cfg.cells is not prev.cells for prev, cfg in pairs),
        1 + sum(cfg.spans is not prev.spans for prev, cfg in pairs),
    ) == fresh


@pytest.mark.parametrize(
    "name, word, metered",
    [
        ("counter", counter_input(20), 315),
        ("palin", palin_input(2**13), 299),
        ("sweep", "", 572),
    ],
    ids=["counter", "palin", "sweep"],
)
def test_gate_work_at_benchmark_size(name, word, metered):
    """How many of the 8192 steps the gate lets through to ledger.step:
    those whose row bound could still beat a maximum.  A gate that also
    opened on a tie would leave every maximum as it is and show only
    here."""
    m = load_sample(name)
    ledger = hs.attach_ledger(m, 2**13, 91)
    taus = _counting_steps(ledger)
    hs.holo_run(m, word, 2**13, b=91, ledger=ledger)
    assert len(taus) == metered
    assert ledger.steps_recorded == 2**13


@pytest.mark.parametrize(
    "name, word, refreshed, grown",
    [
        ("counter", counter_input(20), 324, 673),
        ("palin", palin_input(2**13), 706, 6202),
        ("sweep", "", 686, 8283),
    ],
    ids=["counter", "palin", "sweep"],
)
def test_fence_work_at_benchmark_size(name, word, refreshed, grown):
    """How often refresh_tape runs over the 8192 steps: once per tape at
    each leaf start, and whenever a head crosses a fence.  A keep_series
    ledger keeps every fence at its hull, so it runs at every hull
    growth."""
    m = load_sample(name)
    counts = []
    for keep_series in (False, True):
        ledger = hs.attach_ledger(m, 2**13, 91, keep_series=keep_series)
        log = _logging_refreshes(ledger)
        hs.holo_run(m, word, 2**13, b=91, ledger=ledger)
        counts.append(len(log))
    assert counts == [refreshed, grown]
