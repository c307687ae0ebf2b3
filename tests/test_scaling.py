"""Area-law measurement harness: fits, CSV export, SVG rendering."""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import holosim as hs
from holosim.samples import counter_input, load_sample


def test_fit_recovers_planted_exponent():
    # y = 3 * x^0.5 exactly: slope must come back 0.5 with ~0 residual
    xs = [2**i for i in range(6, 16)]
    ys = [3.0 * math.sqrt(x) for x in xs]
    slope, intercept, resid = hs.fit_loglog(xs, ys)
    assert abs(slope - 0.5) < 1e-9
    assert abs(intercept - math.log(3.0)) < 1e-9
    assert resid < 1e-9


def test_fit_recovers_linear_exponent():
    xs = [10, 100, 1000, 10000]
    ys = [2.0 * x for x in xs]
    slope, _, resid = hs.fit_loglog(xs, ys)
    assert abs(slope - 1.0) < 1e-9
    assert resid < 1e-9


def test_fit_needs_two_points():
    with pytest.raises(ValueError):
        hs.fit_loglog([4.0], [2.0])


def test_fit_needs_two_distinct_x():
    # one distinct x leaves the slope undetermined
    with pytest.raises(ValueError, match="distinct"):
        hs.fit_loglog([2, 2, 2], [10, 10, 10])


def test_fit_matches_numpy_polyfit():
    np = pytest.importorskip("numpy")
    rng = random.Random(1913)
    for _ in range(250):
        n = rng.randint(2, 12)
        xs = [rng.uniform(1.0, 1e6) for _ in range(n)]
        ys = [rng.uniform(1.0, 1e4) for _ in range(n)]
        lx, ly = np.log(xs), np.log(ys)
        slope, intercept = np.polyfit(lx, ly, 1)
        rms = np.sqrt(np.mean((ly - (slope * lx + intercept)) ** 2))
        got = hs.fit_loglog(xs, ys)
        assert all(type(v) is float for v in got)
        assert got == pytest.approx((slope, intercept, rms), rel=1e-9, abs=1e-8)


def test_import_loads_no_numpy():
    """The package and its CLI run on the standard library alone."""
    src = Path(hs.__file__).resolve().parents[1]
    code = (
        "import sys, holosim, holosim.cli\n"
        "holosim.fit_loglog([2, 4, 8], [3, 5, 9])\n"
        "assert 'numpy' not in sys.modules, sorted(m for m in sys.modules if 'numpy' in m)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


def test_area_law_study_counter_small_grid():
    m = load_sample("counter")
    grid = [1 << 8, 1 << 9, 1 << 10, 1 << 11]
    report = hs.area_law_study(m, lambda t: counter_input(16), grid)
    assert report.failures == ()
    assert len(report.rows) == len(grid)
    for row, t in zip(report.rows, grid):
        assert row.t == t
        assert row.b == hs.default_block_length(t)
        assert row.volume == m.k * t
        assert row.max_screen > 0
    assert report.exponent is not None
    # sublinear: well below exponent 1 even on a short grid
    assert report.exponent < 0.9


def test_area_law_study_reruns_early_halt():
    """A machine that halts before the requested t contributes the
    true run length instead of failing the point."""
    m = load_sample("counter")
    word = counter_input(3)  # halts after 26 steps
    true_t = hs.run(m, word, max_steps=10**4).t
    report = hs.area_law_study(m, lambda t: word, [512])
    assert report.failures == ()
    assert len(report.rows) == 1
    assert report.rows[0].t == true_t


def test_area_law_study_one_row_per_true_length():
    """writer2 halts at t = 2 whatever t is asked for: every grid point
    reruns at t = 2, which gives one row and no fit."""
    m = load_sample("writer2")
    report = hs.area_law_study(m, lambda t: "", [1 << 10, 1 << 11, 1 << 12])
    assert report.failures == ()
    assert [r.t for r in report.rows] == [2]
    assert (report.exponent, report.intercept, report.residual) == (None, None, None)


def test_area_law_study_isolates_failures():
    m = load_sample("palin")
    # wrong alphabet for this machine: the point fails, the study survives
    report = hs.area_law_study(m, lambda t: "zz", [64, 128])
    assert len(report.rows) == 0
    assert len(report.failures) == 2
    for t, msg in report.failures:
        assert msg  # reason string captured


def test_area_law_grid_is_sorted_and_deduped():
    m = load_sample("counter")
    report = hs.area_law_study(m, lambda t: counter_input(12), [512, 256, 512])
    assert [r.t for r in report.rows] == [256, 512]


def test_csv_shape():
    m = load_sample("counter")
    report = hs.area_law_study(m, lambda t: counter_input(12), [256, 512, 1024])
    text = hs.report_to_csv(report)
    lines = text.strip().splitlines()
    assert lines[0] == hs.CSV_HEADER
    assert len(lines) == 1 + len(report.rows)
    for line, row in zip(lines[1:], report.rows):
        cols = line.split(",")
        assert len(cols) == len(hs.CSV_HEADER.split(","))
        assert cols[0] == "counter"
        assert int(cols[1]) == row.t
        assert int(cols[6]) == row.max_screen
        assert float(cols[9]) == pytest.approx(report.exponent, abs=1e-6)


def test_csv_empty_fit_fields():
    report = hs.ScalingReport(
        machine="x",
        c_int=2,
        rows=(
            hs.ScalingRow(
                machine="x", t=4, b=2, T=2, k=1, volume=4,
                max_screen=9, max_book=3, max_total=12,
            ),
        ),
        failures=(),
        exponent=None,
        intercept=None,
        residual=None,
    )
    lines = hs.report_to_csv(report).strip().splitlines()
    assert lines[1].endswith(",,")


def test_svg_is_deterministic_and_self_contained():
    m = load_sample("counter")
    report = hs.area_law_study(m, lambda t: counter_input(12), [256, 512, 1024])
    svg1 = hs.render_scaling_svg(report)
    svg2 = hs.render_scaling_svg(report)
    assert svg1 == svg2
    assert svg1.startswith("<svg")
    assert svg1.rstrip().endswith("</svg>")
    assert "http" not in svg1.split(">", 1)[0] or "xmlns" in svg1
    # one plotted point per row
    assert svg1.count("<circle") == len(report.rows)
