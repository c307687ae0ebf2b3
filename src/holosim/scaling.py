"""Area-law measurements: peak screen cells against run length.

Runs one streaming simulation per grid point with a ledger attached,
collects the peak space figures, and fits log(max_screen) against
log(t).  For block-respecting machines at b = ceil(sqrt(t)) the fitted
exponent sits near 1/2: the reserved live-window arena k * c_int * b
dominates and everything else is additive O(log t) bookkeeping.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import RunEndedEarly
from .ledger import attach_ledger
from .machine import MachineSpec
from .streaming import default_block_length, holo_run

SVG_WIDTH, SVG_HEIGHT = 640, 440
CSV_HEADER = "machine,t,b,T,k,volume,max_screen,max_book,max_total,exponent_fit,residual"


@dataclass(frozen=True)
class ScalingRow:
    machine: str
    t: int
    b: int
    T: int
    k: int
    volume: int
    max_screen: int
    max_book: int
    max_total: int


@dataclass(frozen=True)
class ScalingReport:
    machine: str
    c_int: int
    rows: tuple[ScalingRow, ...]
    failures: tuple[tuple[int, str], ...]
    exponent: float | None
    intercept: float | None
    residual: float | None


def fit_loglog(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float, float]:
    """Least-squares line through (log x, log y); returns slope,
    intercept and RMS residual in log space.

    Closed form over centred sums; raises ValueError for fewer than 2
    points or fewer than 2 distinct x, where no slope is determined."""
    if len(xs) < 2:
        raise ValueError(f"need at least 2 points to fit, got {len(xs)}")
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    if len(set(lx)) < 2:
        raise ValueError("need at least 2 distinct x values to fit")
    n = len(lx)
    mx = math.fsum(lx) / n
    my = math.fsum(ly) / n
    dx = [x - mx for x in lx]
    sxx = math.fsum(d * d for d in dx)
    sxy = math.fsum(d * (y - my) for d, y in zip(dx, ly, strict=True))
    slope = sxy / sxx
    intercept = my - slope * mx
    sq = math.fsum((y - (slope * x + intercept)) ** 2 for x, y in zip(lx, ly))
    return slope, intercept, math.sqrt(sq / n)


def area_law_study(
    machine: MachineSpec,
    input_for_t: Callable[[int], str],
    t_grid: Sequence[int],
    c_int: int = 2,
) -> ScalingReport:
    """One ledgered streaming run per grid point, at
    b = default_block_length(t).

    input_for_t maps each t to the input word; inputs should keep the
    machine running for at least t steps.  A grid point where the
    machine halts early is rerun at the true length, and adds no row if
    that length already has one; other failures, a halt before step 1
    among them, are recorded under their grid point and do not abort
    the study.  The fit needs rows at 2 distinct t and is None
    otherwise.
    """
    rows: list[ScalingRow] = []
    failures: list[tuple[int, str]] = []
    for point in sorted(set(int(v) for v in t_grid)):
        word = input_for_t(point)
        t, b = point, default_block_length(point)
        try:
            try:
                ledger = attach_ledger(machine, t, b, c_int)
                holo_run(machine, word, t, b=b, c_int=c_int, ledger=ledger)
            except RunEndedEarly as stop:
                t = stop.steps_done
                if t < 1:
                    raise
                if any(r.t == t for r in rows):
                    continue
                b = default_block_length(t)
                ledger = attach_ledger(machine, t, b, c_int)
                holo_run(machine, word, t, b=b, c_int=c_int, ledger=ledger)
        except Exception as exc:  # noqa: BLE001  - per-point isolation
            failures.append((point, f"{type(exc).__name__}: {exc}"))
            continue
        rows.append(
            ScalingRow(
                machine=machine.name,
                t=t,
                b=b,
                T=ledger.T,
                k=machine.k,
                volume=machine.k * t,
                max_screen=ledger.max_screen,
                max_book=ledger.max_book,
                max_total=ledger.max_total,
            )
        )
    exponent = intercept = residual = None
    if len(rows) >= 2:
        exponent, intercept, residual = fit_loglog(
            [r.t for r in rows], [r.max_screen for r in rows]
        )
    return ScalingReport(
        machine=machine.name,
        c_int=c_int,
        rows=tuple(rows),
        failures=tuple(failures),
        exponent=exponent,
        intercept=intercept,
        residual=residual,
    )


def report_to_csv(report: ScalingReport) -> str:
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    exp = "" if report.exponent is None else f"{report.exponent:.6f}"
    res = "" if report.residual is None else f"{report.residual:.6f}"
    for r in report.rows:
        out.write(
            f"{r.machine},{r.t},{r.b},{r.T},{r.k},{r.volume},"
            f"{r.max_screen},{r.max_book},{r.max_total},{exp},{res}\n"
        )
    return out.getvalue()


def render_scaling_svg(report: ScalingReport) -> str:
    """Log-log scatter of max_screen over t with the fitted line and a
    slope-1/2 guide, as a self-contained deterministic SVG string."""
    pad = 56
    rows = report.rows
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" '
        f'viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<rect width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>',
r"""<style>text{font-family:monospace;font-size:12px;fill:#222}</style>""",
    ]
    if len(rows) < 2:
        parts.append(f'<text x="{pad}" y="{SVG_HEIGHT // 2}">not enough points to plot</text>')
        parts.append("</svg>")
        return "\n".join(parts) + "\n"

    xs = [math.log2(r.t) for r in rows]
    ys = [math.log2(r.max_screen) for r in rows]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    sx = (SVG_WIDTH - 2 * pad) / (x1 - x0)
    sy = (SVG_HEIGHT - 2 * pad) / (y1 - y0)

    def px(x: float) -> float:
        return pad + (x - x0) * sx

    def py(y: float) -> float:
        return SVG_HEIGHT - pad - (y - y0) * sy

    parts.append(
        f'<line x1="{pad}" y1="{SVG_HEIGHT - pad}" x2="{SVG_WIDTH - pad}" y2="{SVG_HEIGHT - pad}" '
        f'stroke="#222"/>'
    )
    parts.append(f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{SVG_HEIGHT - pad}" stroke="#222"/>')
    parts.append(
        f'<text x="{SVG_WIDTH // 2 - 30}" y="{SVG_HEIGHT - 14}">log2 t</text>'
    )
    parts.append(
        f'<text x="10" y="{pad - 16}">log2 max_screen, machine={report.machine}</text>'
    )
    for x, r in zip(xs, rows):
        parts.append(
            f'<text x="{px(x):.1f}" y="{SVG_HEIGHT - pad + 16:.1f}" text-anchor="middle">'
            f"{r.t}</text>"
        )
    for x, y in zip(xs, ys):
        parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="4" fill="#1f6fb2"/>')
    if report.exponent is not None and report.intercept is not None:
        ln2 = math.log(2.0)
        fy0 = (report.exponent * (x0 * ln2) + report.intercept) / ln2
        fy1 = (report.exponent * (x1 * ln2) + report.intercept) / ln2
        parts.append(
            f'<line x1="{px(x0):.2f}" y1="{py(fy0):.2f}" x2="{px(x1):.2f}" '
            f'y2="{py(fy1):.2f}" stroke="#b23a1f" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{SVG_WIDTH - pad - 170}" y="{pad + 4}">fit slope {report.exponent:.3f}</text>'
        )
    gy0 = ys[0]
    gy1 = gy0 + 0.5 * (x1 - x0)
    parts.append(
        f'<line x1="{px(x0):.2f}" y1="{py(gy0):.2f}" x2="{px(x1):.2f}" y2="{py(gy1):.2f}" '
        f'stroke="#999" stroke-dasharray="5 4"/>'
    )
    parts.append(f'<text x="{SVG_WIDTH - pad - 170}" y="{pad + 20}">guide slope 0.500</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
