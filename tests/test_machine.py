"""Machine model tests: format, semantics against the list-tape
reference interpreter, and reading the recorded history forward."""

from __future__ import annotations

import random
import tracemalloc
from itertools import islice

import pytest

import holosim as hs
from holosim.cli import main
from holosim.machine import MAX_TAPES, steps
from holosim.samples import sample_path
from support import naive_step, random_machine, reference_trace

WRITER2_TEXT = """
machine writer2
tapes 1
blank _
input_alphabet 1
work_alphabet 1 _
start q0
accept acc
reject rej
delta q0 _ -> q1 1 R
delta q0 1 -> q1 1 R
delta q1 _ -> acc 1 S
delta q1 1 -> acc 1 S
"""


def test_parse_writer2_shape():
    m = hs.parse_machine(WRITER2_TEXT)
    assert m.name == "writer2"
    assert m.k == 1
    assert m.blank == "_"
    assert m.start == "q0"
    assert ("q0", ("_",)) in m.delta
    assert m.delta[("q0", ("_",))] == ("q1", ("1",), (1,))


def test_parse_rejects_bad_move():
    text = WRITER2_TEXT.replace("delta q1 1 -> acc 1 S", "delta q1 1 -> acc 1 X")
    with pytest.raises(hs.MachineFormatError, match="invalid move"):
        hs.parse_machine(text)


def test_parse_rejects_wrong_arity():
    text = WRITER2_TEXT.replace("delta q1 1 -> acc 1 S", "delta q1 1 -> acc 1 1 S")
    with pytest.raises(hs.MachineFormatError, match="tokens"):
        hs.parse_machine(text)


def test_parse_rejects_partial_delta():
    text = WRITER2_TEXT.replace("delta q1 _ -> acc 1 S\n", "")
    with pytest.raises(hs.MachineFormatError, match="q1"):
        hs.parse_machine(text)


def test_parse_rejects_tape_counts_int_cannot_read():
    # '²'.isdigit() holds but int('²') raises ValueError
    for count in ("²", "٣", "-1", "1.5"):
        with pytest.raises(hs.MachineFormatError, match="tapes"):
            hs.parse_machine(WRITER2_TEXT.replace("tapes 1", f"tapes {count}"))


def _without_delta(text: str) -> str:
    return "\n".join(line for line in text.splitlines() if not line.startswith("delta"))


def test_parse_reports_missing_delta_for_many_tapes():
    # the first missing read tuple is found without recursing once per tape
    with pytest.raises(hs.MachineFormatError, match="not total"):
        hs.parse_machine(_without_delta(WRITER2_TEXT).replace("tapes 1", f"tapes {MAX_TAPES}"))


@pytest.mark.parametrize(
    "count",
    [MAX_TAPES + 1, 20000, 10**6, "0" * 5000 + "65", "9" * 5000],
    ids=["cap+1", "20000", "10^6", "zero-padded", "5000-digits"],
)
def test_parse_caps_tape_count(count):
    # |Gamma|^k from an uncapped count overflowed int-to-str conversion in
    # the "not total" message (ValueError) and grew with the count
    text = _without_delta(WRITER2_TEXT).replace("tapes 1", f"tapes {count}")
    with pytest.raises(hs.MachineFormatError, match=rf"line 3: tapes takes at most {MAX_TAPES}"):
        hs.parse_machine(text)


def test_build_machine_caps_tape_count():
    with pytest.raises(hs.MachineFormatError, match="tapes"):
        hs.build_machine("wide", MAX_TAPES + 1, "q0", "acc", "rej", ["1"], ["1", "_"], "_", {})


def test_parse_rejects_duplicate_directive():
    with pytest.raises(hs.MachineFormatError, match="duplicate"):
        hs.parse_machine(WRITER2_TEXT + "\nstart q1\n")


def test_parse_reports_line_numbers():
    text = WRITER2_TEXT.replace("delta q0 1 -> q1 1 R", "delta q0 1 -> q1 1 Q")
    with pytest.raises(hs.MachineFormatError, match=r"line 11"):
        hs.parse_machine(text)


def test_serialize_parse_round_trip_bundled(machines):
    for m in machines.values():
        again = hs.parse_machine(hs.serialize_machine(m))
        assert again == m
        assert hs.serialize_machine(again) == hs.serialize_machine(m)


def test_serialize_parse_round_trip_random():
    rng = random.Random(101)
    for _ in range(25):
        m = random_machine(rng)
        assert hs.parse_machine(hs.serialize_machine(m)) == m


def test_input_validation(machines):
    with pytest.raises(hs.MachineFormatError, match="input"):
        hs.run(machines["counter"], "02", max_steps=10)


def test_run_against_reference_bundled(machines):
    cases = [
        ("writer2", "", 100),
        ("sweep", "", 300),
        ("counter", hs.counter_input(6), 500),
        ("palin", "0110", 100),
        ("palin", "01", 100),
    ]
    for name, word, budget in cases:
        m = machines[name]
        rec = hs.run(m, word, max_steps=budget)
        ref = list(reference_trace(m, word, budget))
        assert len(ref) == rec.t + 1
        for cfg in rec.history.configurations():
            time, state, heads, cells = ref[cfg.time]
            assert cfg.state == state
            assert cfg.heads == heads
            assert cfg.cells == cells


def test_run_against_reference_random():
    """run shares its stepping kernel with the streaming engine, so it
    is checked step by step against both the list-tape interpreter and
    a chain of naive_step(); probe_run_length shares it too."""
    rng = random.Random(999)
    checked = 0
    for _ in range(40):
        m = random_machine(rng)
        word = "".join(rng.choice(m.input_alphabet) for _ in range(rng.randint(0, 6))) if m.input_alphabet else ""
        rec = hs.run(m, word, max_steps=200)
        ref = list(reference_trace(m, word, 200))
        assert len(ref) == rec.t + 1
        chained = hs.initial_configuration(m, word)
        for cfg in rec.history.configurations():
            if cfg.time > 0:
                chained = naive_step(m, chained)
            time, state, heads, cells = ref[cfg.time]
            assert (cfg.state, cfg.heads, cfg.cells) == (state, heads, cells)
            assert cfg == chained
        assert hs.probe_run_length(m, word, 200) == (rec.t, rec.halt_reason)
        checked += 1
    assert checked == 40


def _kernel_in_place(m, word, budget):
    """Drive steps() on fresh tape dicts and check them after every
    yield against a chain of naive_step(); return the last state."""
    c = hs.initial_configuration(m, word)
    heads = list(c.heads)
    tapes = [dict(tape) for tape in c.cells]
    taken = 0
    for value in islice(steps(m, c.state, heads, tapes), budget):
        reads = tuple(c.symbol_at(i, c.heads[i]) for i in range(m.k))
        assert value is m.delta[c.state, reads]
        c = naive_step(m, c)
        assert heads == list(c.heads)
        assert tapes == list(c.cells)
        assert not any(m.blank in tape.values() for tape in tapes)
        taken += 1
    assert taken == budget or m.is_halting(c.state)
    return c.state


def test_kernel_in_place_bundled(machines):
    cases = [
        ("writer2", "", 100),
        ("sweep", "", 300),
        ("counter", hs.counter_input(6), 600),
        ("palin", "0110", 200),
        ("palin", "01", 100),
    ]
    for name, word, budget in cases:
        _kernel_in_place(machines[name], word, budget)


def test_kernel_in_place_random_machines():
    rng = random.Random(1207)
    halted = 0
    for k in (1, 2, 3):
        for _ in range(55):
            m = random_machine(rng, k)
            word = "".join(rng.choice(m.input_alphabet) for _ in range(rng.randint(0, 8))) if m.input_alphabet else ""
            halted += m.is_halting(_kernel_in_place(m, word, 150))
    assert halted >= 10


def test_kernel_edges(machines):
    # a machine that starts in its accept state takes no step
    m = hs.build_machine("done", 1, "acc", "acc", "rej", ["1"], ["_", "1"], "_", {})
    heads, tapes = [0], [{0: "1"}]
    assert list(steps(m, m.start, heads, tapes)) == []
    assert (heads, tapes) == ([0], [{0: "1"}])
    # a halt inside the islice bound ends the run there
    w = machines["writer2"]
    heads, tapes = [0], [{}]
    kernel = steps(w, w.start, heads, tapes)
    taken = list(islice(kernel, 100))
    assert [value[0] for value in taken] == ["q1", "acc"]
    assert (heads, tapes) == ([1], [{0: "1", 1: "1"}])
    assert next(kernel, None) is None


def test_step_table_is_lazy_and_shared():
    m = hs.parse_machine(hs.sample_text("counter"))
    assert "step_table" not in vars(m)
    word = hs.counter_input(8)
    t = hs.run(m, word, max_steps=300).t
    table = vars(m)["step_table"]
    hs.holo_run(m, word, t)
    assert m.step_table is table


# (edit, message): a .tm text edit of WRITER2_TEXT as (old, new), or
# delta entries that replace writer2's; the text format cannot write a
# transition of the wrong arity or an integer move.
_BAD_DEFINITIONS = {
    "duplicate-work-symbol": (
        ("work_alphabet 1 _", "work_alphabet 1 _ 1"),
        "duplicate symbol in work_alphabet",
    ),
    "duplicate-input-symbol": (
        ("input_alphabet 1", "input_alphabet 1 1"),
        "duplicate symbol in input_alphabet",
    ),
    "accept-is-reject": (
        ("reject rej", "reject acc"),
        "accept and reject states must differ",
    ),
    "move-out-of-halt": (
        ("delta q0 _", "delta acc _ -> acc 1 S\ndelta q0 _"),
        "transition out of halting state 'acc'",
    ),
    "wrong-arity": (
        {("q0", ("_",)): ("q1", ("1", "1"), (1,))},
        "transition for state 'q0' has wrong arity",
    ),
    "move-outside-unit": (
        {("q0", ("_",)): ("q1", ("1",), (2,))},
        "invalid move 2 in transition for state 'q0'",
    ),
}


@pytest.mark.parametrize("case", list(_BAD_DEFINITIONS))
def test_build_machine_rejects_semantic_faults(case, tmp_path, capsys):
    """Each semantic fault raises MachineFormatError with its message;
    through a .tm file, `holosim run FILE` prints it and exits 2."""
    edit, message = _BAD_DEFINITIONS[case]
    if isinstance(edit, tuple):
        text = WRITER2_TEXT.replace(*edit)
        with pytest.raises(hs.MachineFormatError) as exc:
            hs.parse_machine(text)
        assert str(exc.value) == message
        path = tmp_path / "bad.tm"
        path.write_text(text, encoding="utf-8")
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
    else:
        m = hs.parse_machine(WRITER2_TEXT)
        parts = ("name", "k", "start", "accept", "reject", "input_alphabet", "work_alphabet", "blank")
        with pytest.raises(hs.MachineFormatError) as exc:
            hs.build_machine(**{p: getattr(m, p) for p in parts}, delta={**m.delta, **edit})
        assert str(exc.value) == message


def test_negative_budget_is_rejected(machines):
    for execute in (hs.run, hs.probe_run_length):
        with pytest.raises(ValueError, match="max_steps must be >= 0, got -1"):
            execute(machines["writer2"], "", -1)


def test_halt_reasons(machines):
    assert hs.run(machines["writer2"], "", max_steps=50).halt_reason == "accept"
    assert hs.run(machines["sweep"], "", max_steps=50).halt_reason == "budget"
    assert hs.run(machines["palin"], "01", max_steps=50).halt_reason == "reject"


def test_history_random_access(counter_run):
    rng = random.Random(5)
    straight = list(counter_run.history.configurations())
    for _ in range(60):
        tau = rng.randint(0, counter_run.t)
        assert counter_run.history[tau] == straight[tau]
    with pytest.raises(IndexError):
        counter_run.history[counter_run.t + 1]


def test_history_cursor_matches_random_access(counter_run):
    """The cursor, advanced in strides, against the test-side
    interpreter, which shares no code with it."""
    want = _reference_walk(counter_run, hs.counter_input(10))
    cursor = counter_run.history.cursor()
    for tau in range(0, counter_run.t + 1, 7):
        cursor.advance_to(tau)
        assert _full(cursor.snapshot()) == want[tau]


def test_cursor_advance_to_past_the_end_stops_at_t(counter_run):
    """advance_to past the end applies every step up to t, then raises;
    advance at the end and a rewind raise and move nothing."""
    t = counter_run.t
    final = _reference_walk(counter_run, hs.counter_input(10))[t]
    cursor = counter_run.history.cursor()
    cursor.advance_to(t // 2)
    with pytest.raises(IndexError, match="cursor already at end of history"):
        cursor.advance_to(t + 5)
    assert cursor.time == t and _full(cursor.snapshot()) == final
    with pytest.raises(IndexError, match="cursor already at end of history"):
        cursor.advance()
    with pytest.raises(IndexError, match="rewind"):
        cursor.advance_to(t - 1)
    assert cursor.time == t and _full(cursor.snapshot()) == final


def test_step_is_pure(machines):
    m = machines["writer2"]
    c0 = hs.initial_configuration(m, "")
    c1 = naive_step(m, c0)
    assert c0.time == 0 and c0.state == m.start
    assert c1.time == 1
    assert c1.cells[0] == {0: "1"}
    again = naive_step(m, c0)
    assert again == c1


def test_step_from_halt_raises(machines):
    m = machines["writer2"]
    final = hs.run(m, "", max_steps=10).history.final
    with pytest.raises(hs.StepFromHaltError):
        naive_step(m, final)


def test_probe_run_length(machines):
    assert hs.probe_run_length(machines["writer2"], "", 100) == (2, "accept")
    assert hs.probe_run_length(machines["sweep"], "", 77) == (77, "budget")
    t, reason = hs.probe_run_length(machines["counter"], hs.counter_input(5), 10**6)
    assert reason == "accept"
    assert t == hs.run(machines["counter"], hs.counter_input(5), max_steps=10**6).t


def test_counter_step_count_growth(machines):
    """Accepting time grows like 2^(n+1) with the input length; the
    exact first values are pinned by hand simulation."""
    m = machines["counter"]
    lengths = [hs.run(m, hs.counter_input(n), max_steps=10**5).t for n in range(1, 6)]
    assert lengths[0] == 4
    assert all(b > 2 * a for a, b in zip(lengths, lengths[1:]))


def test_palin_decides_palindromes(machines):
    m = machines["palin"]
    rng = random.Random(17)
    for _ in range(40):
        word = "".join(rng.choice("01") for _ in range(rng.randint(1, 9)))
        rec = hs.run(m, word, max_steps=10_000)
        expected = "accept" if word == word[::-1] else "reject"
        assert rec.halt_reason == expected, word


def _full(cfg):
    return (cfg.time, cfg.state, cfg.heads, cfg.cells, cfg.spans)


def _reference_walk(rec, word) -> list[tuple]:
    """_full of every configuration of rec's run on word, spans
    included, from the test-side interpreter, which shares no code with
    the history."""
    walk = []
    lo = hi = (0,) * rec.machine.k
    for time, state, heads, cells in reference_trace(rec.machine, word, rec.t):
        lo, hi = tuple(map(min, lo, heads)), tuple(map(max, hi, heads))
        walk.append((time, state, heads, cells, tuple(zip(lo, hi))))
    return walk


def _check_random_order_access(rec, word, rng):
    """history[tau], asked with t first, then 0, the middle, random
    times and then descending, and final equal the test-side
    interpreter's configuration; times outside [0, t] raise."""
    history = rec.history
    walk = _reference_walk(rec, word)
    t = rec.t
    order = [t, 0, t // 2] + [rng.randint(0, t) for _ in range(8)] + list(range(t, -1, -max(1, t // 9)))
    for tau in order:
        assert _full(history[tau]) == walk[tau]
    assert _full(history.final) == walk[t]
    with pytest.raises(IndexError):
        history[t + 1]
    with pytest.raises(IndexError):
        history[-1]


def test_history_random_order_access_bundled(machines):
    rng = random.Random(8)
    cases = [
        ("writer2", "", 100),
        ("sweep", "", 0),
        ("sweep", "", 1),
        ("sweep", "", 3),
        ("sweep", "", 300),
        ("counter", hs.counter_input(6), 500),
        ("palin", "0110", 100),
    ]
    for name, word, budget in cases:
        _check_random_order_access(hs.run(machines[name], word, max_steps=budget), word, rng)


def test_history_random_order_access_random_machines():
    rng = random.Random(4242)
    for i in range(60):
        m = random_machine(rng)
        word = "".join(rng.choice(m.input_alphabet) for _ in range(rng.randint(0, 6))) if m.input_alphabet else ""
        budget = (0, 1, 2, 5)[i] if i < 4 else rng.randint(0, 150)
        _check_random_order_access(hs.run(m, word, max_steps=budget), word, rng)


def test_run_peak_heap_holds_no_checkpoints(machines):
    """sweep writes a new cell every step, so whole-tape checkpoints
    every ~sqrt(t) steps would hold O(t^1.5) cells (15.9 MB here)."""
    m = machines["sweep"]
    tracemalloc.start()
    try:
        rec = hs.run(m, "", max_steps=2**13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.t == 2**13
    assert peak < 2**20


def test_sample_helpers_reject_bad_args():
    with pytest.raises(KeyError, match="unknown sample machine 'nope'; have writer2, sweep, counter, palin"):
        sample_path("nope")
    with pytest.raises(ValueError, match="counter needs at least one bit"):
        hs.counter_input(0)
    with pytest.raises(ValueError, match="step budget must be >= 1"):
        hs.palin_input(0)
