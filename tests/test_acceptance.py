"""Acceptance gate: one test per primary claim, each printing a
pass/fail line in the terminal summary (see conftest).

Heavy measurements (the scaling studies) run once per session and feed
the criteria that share them.
"""

from __future__ import annotations

import math
import random

import pytest

import holosim as hs
from conftest import record_criterion
from holosim.machine import HistoryCursor, probe_run_length
from holosim.samples import counter_input, load_sample, palin_input
from support import (
    CountingSink,
    fold_left_deep,
    leaf_to_time,
    oracle_walk,
    random_configuration,
    random_machine,
    random_summary,
    reference_block_spans,
    reference_encode_configuration,
    reference_encode_history,
    tree_depth_for,
)


def _clog2(T: int) -> int:
    return max(0, (T - 1).bit_length()) if T >= 1 else 0


class _CompareSink:
    """Checks each emission against the oracle history as it streams,
    both as a full configuration and restricted to the emission's own
    window."""

    def __init__(self, history):
        self.cursor = HistoryCursor(history)
        self.steps = 0
        self.strict = 0
        self.windowed = 0

    def __call__(self, config):
        self.cursor.advance_to(config.time)
        oracle = self.cursor.snapshot()
        self.steps += 1
        if config == oracle:
            self.strict += 1
        if config.restricted(config.spans) == oracle.restricted(config.spans):
            self.windowed += 1


# -- criterion 1 ------------------------------------------------------------


def test_criterion_1_oracle_equivalence():
    """Streamed emissions reproduce the direct interpreter exactly.

    For the unbounded right-mover the live frontier must evict written
    cells (it writes t cells in O(sqrt t) space), so its emissions are
    compared on their own windows; the window-restricted form is what
    the emission contract defines.  The other three machines fit their
    whole written region in the frontier and are compared bit-for-bit.
    """
    plans = [
        ("writer2", lambda t: "", True),
        ("counter", lambda t: counter_input(16), True),
        ("palin", lambda t: palin_input(t), True),
        ("sweep", lambda t: "", False),
    ]
    details = []
    all_ok = True
    for name, word_fn, strict in plans:
        m = load_sample(name)
        for t_req in (1 << 8, 1 << 10, 1 << 12):
            word = word_fn(t_req)
            t_probe, _ = probe_run_length(m, word, t_req)
            t = min(t_req, t_probe)
            b = hs.default_block_length(t)
            oracle = hs.run(m, word, max_steps=t)
            sink = _CompareSink(oracle.history)
            hs.holo_run(m, word, t, b=b, sink=sink)
            matched = sink.strict if strict else sink.windowed
            ok = sink.steps == t and matched == t
            all_ok = all_ok and ok
            if not ok:
                details.append(f"{name} t={t}: {matched}/{sink.steps} matched")
    mode_note = "writer2/counter/palin bit-exact, sweep exact on emitted windows"
    record_criterion(
        1,
        "oracle equivalence",
        all_ok,
        "; ".join(details) if details else f"100% of steps at t in {{2^8,2^10,2^12}}, {mode_note}",
    )
    assert all_ok, details


# -- criterion 2 ------------------------------------------------------------


def test_criterion_2_projective_duality():
    t_values = list(range(1, 129)) + [300, 1000, 4096, 10**4]
    checked = 0
    for t in t_values:
        b_set = sorted({1, 3, hs.default_block_length(t), t})
        for b in b_set:
            d = hs.decompose(t, b)
            expected = {
                (k, off)
                for k in range(1, d.T + 1)
                for off in range(d.block(k)[1] - d.block(k)[0] + 1)
            }
            seen = set()
            for tau in range(1, t + 1):
                leaf, off = hs.time_to_leaf(tau, b, t)
                assert leaf_to_time(leaf, off, b, t) == tau
                seen.add((leaf, off))
            assert seen == expected, f"coverage gap at t={t} b={b}"
            assert len(seen) == t
            checked += 1

    # the streaming walk delivers each (leaf, offset), i.e. each time
    # step, exactly once
    m = load_sample("counter")
    word = counter_input(8)
    t = 200
    for b, c_int in ((1, 30), (3, 10), (15, 2), (200, 2)):
        sink = CountingSink()
        hs.holo_run(m, word, t, b=b, c_int=c_int, sink=sink)
        assert sink.all_once(t), f"capture not exactly-once at b={b}"
    record_criterion(
        2,
        "projective duality",
        True,
        f"bijection verified on {checked} (t,b) pairs up to t=10^4; "
        f"streaming capture exactly once at 4 block lengths",
    )


# -- criteria 3 and 4 share the scaling studies -----------------------------


@pytest.fixture(scope="module")
def scaling_reports():
    grid = [1 << e for e in range(10, 19)]
    counter = hs.area_law_study(
        load_sample("counter"), lambda t: counter_input(20), grid
    )
    palin = hs.area_law_study(load_sample("palin"), palin_input, grid)
    return {"counter": counter, "palin": palin}


def test_criterion_3_area_law(scaling_reports):
    details = []
    all_ok = True
    for name, report in scaling_reports.items():
        ok = (
            report.failures == ()
            and len(report.rows) >= 5
            and report.exponent is not None
            and 0.35 <= report.exponent <= 0.70
        )
        ratios = [
            r.max_screen / (math.sqrt(r.t) * math.log2(r.t)) for r in report.rows
        ]
        # bounded by a constant over the grid, and in fact non-increasing
        # beyond the smallest two points
        bounded = max(ratios) <= 1.0
        tail_ok = all(ratios[i] >= ratios[i + 1] for i in range(1, len(ratios) - 1))
        ok = ok and bounded and tail_ok
        all_ok = all_ok and ok
        details.append(
            f"{name}: exponent={report.exponent:.3f} max ratio={max(ratios):.3f}"
        )
    record_criterion(3, "area law", all_ok, "; ".join(details))
    assert all_ok, details


def test_criterion_4_bookkeeping_bound(scaling_reports):
    # fit c_book on the smallest grid point (the larger of the two
    # machines' ratios), then require max_book <= c_book * ceil(log2 T)
    # on every run; checked in integers by cross-multiplication
    fit_book, fit_clog = 0, 1
    for report in scaling_reports.values():
        first = report.rows[0]
        if first.max_book * fit_clog > fit_book * _clog2(first.T):
            fit_book, fit_clog = first.max_book, _clog2(first.T)
    violations = []
    for name, report in scaling_reports.items():
        for row in report.rows:
            if row.max_book * fit_clog > fit_book * _clog2(row.T):
                violations.append(f"{name} t={row.t}: book={row.max_book}")
    ok = not violations
    record_criterion(
        4,
        "bookkeeping bound",
        ok,
        f"c_book={fit_book}/{fit_clog}={fit_book/fit_clog:.2f} holds at all "
        f"{sum(len(r.rows) for r in scaling_reports.values())} grid points"
        if ok
        else "; ".join(violations),
    )
    assert ok, violations


# -- criterion 5 ------------------------------------------------------------


def test_criterion_5_screen_vs_total():
    plans = [
        ("writer2", "", 2, 1),
        ("sweep", "", 1 << 10, None),
        ("counter", counter_input(12), 1 << 12, None),
        ("palin", palin_input(1 << 11), 1 << 11, None),
    ]
    steps_checked = 0
    for name, word, t, b in plans:
        m = load_sample(name)
        b = b if b is not None else hs.default_block_length(t)
        ledger = hs.attach_ledger(m, t, b, keep_series=True)
        hs.holo_run(m, word, t, b=b, ledger=ledger)
        assert len(ledger.series) == t
        for row in ledger.series:
            assert row.screen <= row.total
            assert row.total == row.screen + row.book
        steps_checked += t
    record_criterion(
        5,
        "screen <= total",
        True,
        f"holds at every one of {steps_checked} recorded steps (4 machines)",
    )


# -- criterion 6 ------------------------------------------------------------


def test_criterion_6_witness_constancy():
    rng = random.Random(99)
    plans = [
        ("counter", [counter_input(6), counter_input(8), counter_input(10)]),
        ("palin", ["0110", palin_input(300), "0" * 24]),
    ]
    cases = 0
    lengths: dict[tuple[str, str], set[int]] = {}
    for name, words in plans:
        m = load_sample(name)
        pw = hs.build_witness(m, hs.KIND_POINTWISE)
        hw = hs.build_witness(m, hs.KIND_HISTORY)
        for word in words:
            rec = hs.run(m, word, max_steps=3000)
            for _ in range(20):
                L = rng.randint(1, rec.t)
                R = min(rec.t, L + rng.randint(0, 200))
                s = hs.interval_summary(rec, L, R)
                tau = rng.randint(L - 1, R)
                spans = [w.span for w in s.entry]

                # oracle encodings straight from the direct history
                window = [
                    c.restricted(spans) for c in oracle_walk(rec.history, range(L - 1, R + 1))
                ]
                want_point = hs.encode_configuration(window[tau - L + 1])
                want_hist = hs.encode_history(tuple(window))

                got_point = hs.run_witness(
                    pw, [hs.encode_summary(s), hs.encode_uvarint(tau)]
                )
                got_hist = hs.run_witness(hw, [hs.encode_summary(s)])
                assert got_point == want_point
                assert got_hist == want_hist
                # and the layout as written apart from the codec
                assert got_point == reference_encode_configuration(window[tau - L + 1])
                assert got_hist == reference_encode_history(window)
                lengths.setdefault((name, "pointwise"), set()).add(len(pw))
                lengths.setdefault((name, "history"), set()).add(len(hw))
                cases += 1
    constant = all(len(v) == 1 for v in lengths.values())
    record_criterion(
        6,
        "witness constancy",
        constant and cases >= 100,
        f"{cases} randomized cases, all outputs equal oracle encodings; "
        f"lengths {sorted((k, v.pop()) for k, v in lengths.items())}",
    )
    assert constant and cases >= 100


# -- criterion 7 ------------------------------------------------------------


def test_criterion_7_tree_structure():
    for T in range(1, (1 << 16) + 1):
        assert tree_depth_for(T) == _clog2(T), f"depth formula fails at T={T}"
    # built trees agree with the recurrence on a spot sample
    for T in list(range(1, 200)) + [255, 256, 257, 1023, 4096]:
        tree = hs.build_tree(hs.decompose(T, 1))
        assert tree.depth == _clog2(T)

    rng = random.Random(4242)
    done = 0
    while done < 50:
        m = random_machine(rng)
        word = (
            "".join(rng.choice(m.input_alphabet) for _ in range(rng.randint(0, 5)))
            if m.input_alphabet
            else ""
        )
        rec = hs.run(m, word, max_steps=150)
        if rec.t < 2:
            continue
        b = rng.randint(1, rec.t)
        d = hs.decompose(rec.t, b)
        tree = hs.label_tree(hs.build_tree(d), rec, c_int=rec.t + 1)
        audit_root = tree.labels[tree.root.id]
        leaves = [
            hs.leaf_summary(rec, d.block(k), rec.t + 1, b) for k in range(1, d.T + 1)
        ]
        folded = fold_left_deep(leaves)
        assert hs.encode_summary(audit_root) == hs.encode_summary(folded)
        done += 1
    record_criterion(
        7,
        "tree structure",
        True,
        "depth formula exhaustive for T <= 2^16; audit root == left-deep "
        "fold bit-for-bit on 50 randomized runs",
    )


# -- criterion 8 ------------------------------------------------------------


def test_criterion_8_encoding_round_trips():
    rng = random.Random(2718)
    pool = [random_machine(rng) for _ in range(40)]
    trips = 0

    for _ in range(3400):
        m = rng.choice(pool)
        s = random_summary(rng, m)
        assert hs.decode_summary_exact(hs.encode_summary(s), m) == s
        trips += 1
    for _ in range(3300):
        m = rng.choice(pool)
        c = random_configuration(rng, m)
        assert hs.decode_configuration_exact(hs.encode_configuration(c), m) == c
        trips += 1
    for _ in range(3300):
        m = rng.choice(pool)
        configs = tuple(
            random_configuration(rng, m) for _ in range(rng.randint(0, 5))
        )
        assert hs.decode_history_exact(hs.encode_history(configs), m) == configs
        trips += 1

    # self-delimitation: a concatenated stream of mixed records decodes
    # unambiguously, record by record
    records = []
    buffer = bytearray()
    for _ in range(600):
        m = rng.choice(pool)
        which = rng.randrange(3)
        if which == 0:
            obj = random_summary(rng, m)
            buffer += hs.encode_summary(obj)
        elif which == 1:
            obj = random_configuration(rng, m)
            buffer += hs.encode_configuration(obj)
        else:
            obj = tuple(
                random_configuration(rng, m) for _ in range(rng.randint(0, 3))
            )
            buffer += hs.encode_history(obj)
        records.append((which, m, obj))
    data = bytes(buffer)
    offset = 0
    for which, m, obj in records:
        if which == 0:
            got, offset = hs.decode_summary(data, m, offset)
        elif which == 1:
            got, offset = hs.decode_configuration(data, m, offset)
        else:
            got, offset = hs.decode_history(data, m, offset)
        assert got == obj
    assert offset == len(data)
    record_criterion(
        8,
        "encoding round-trips",
        trips == 10**4,
        f"{trips} round-trips exact; 600-record concatenated stream "
        f"decoded unambiguously",
    )
    assert trips == 10**4


# -- criterion 9 ------------------------------------------------------------


def test_criterion_9_block_checker():
    plans = [
        ("writer2", "", 4),
        ("sweep", "", 300),
        ("counter", counter_input(6), 4000),
        ("palin", palin_input(200), 4000),
    ]
    agreements = 0
    for name, word, budget in plans:
        m = load_sample(name)
        rec = hs.run(m, word, max_steps=budget)
        t = rec.t
        b_grid = sorted({1, 2, 3, 5, 7, hs.default_block_length(t), 17, t})
        for b in (v for v in b_grid if v <= t):
            ref = reference_block_spans(m, word, t, b)
            for c_int in (1, 2, 3):
                report = hs.check_block_respecting(rec, b, c_int)
                assert len(report.entries) == len(ref)
                limit = c_int * b
                for entry, (interval, spans) in zip(report.entries, ref):
                    assert entry.interval == interval
                    assert entry.spans == spans
                    ref_ok = all(hi - lo + 1 <= limit for lo, hi in spans)
                    assert entry.ok == ref_ok
                assert report.ok == all(e.ok for e in report.entries)
                agreements += 1
    record_criterion(
        9,
        "block-respecting checker",
        True,
        f"verdicts and spans agree with the brute-force scan in all "
        f"{agreements} (machine, b, c_int) settings",
    )
