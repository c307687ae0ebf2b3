"""Command line front end.

Exit codes: 0 success, 2 usage or input format problems, 3 model
violations detected while simulating (non-block-respecting runs, early
halts, stale re-entries), 4 internal cross-check failures.  Step
counts accept doubling notation: --t 2^12 means 4096, up to 2^40.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from .blocks import POLICY_BOUNDARY, POLICY_FULL, check_block_respecting, decompose
from .codec import HistoryWriter, encode_summary
from .ctree import build_tree, label_tree, time_to_leaf, tree_to_json
from .errors import (
    CodecError,
    HolosimError,
    InternalInvariantError,
    MachineFormatError,
    MergeIncompatible,
    ModelViolation,
)
from .ledger import attach_ledger
from .machine import MachineSpec, parse_machine, probe_run_length, run
from .samples import SAMPLE_NAMES, counter_input, palin_input, sample_text
from .scaling import area_law_study, render_scaling_svg, report_to_csv
from .streaming import VerifySink, default_block_length, holo_run, reconstruct_at
from .witness import KIND_HISTORY, KIND_POINTWISE, build_witness

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MODEL = 3
EXIT_INTERNAL = 4

# Largest step count the CLI accepts; far beyond any run that fits in
# memory, and it keeps 2^k arguments from building huge integers.
MAX_STEPS = 2**40


def parse_steps(text: str) -> int:
    """Step count in [1, MAX_STEPS], plain or in 2^k notation."""
    text = text.strip()
    if "^" in text:
        base_text, _, exp_text = text.partition("^")
        base, exp = int(base_text), int(exp_text)
        if exp < 0 or (abs(base) > 1 and exp > MAX_STEPS.bit_length()):
            raise ValueError(f"step count {text!r} is outside [1, {MAX_STEPS}]")
        value = base**exp
    else:
        value = int(text)
    if not 1 <= value <= MAX_STEPS:
        raise ValueError(f"step count {text!r} is outside [1, {MAX_STEPS}]")
    return value


def parse_grid(text: str) -> list[int]:
    """Either a comma list of step counts or lo..hi, doubling from lo
    until hi (hi must be lo times a power of two)."""
    text = text.strip()
    if ".." in text:
        lo_text, _, hi_text = text.partition("..")
        lo, hi = parse_steps(lo_text), parse_steps(hi_text)
        if hi < lo:
            raise ValueError(f"grid range {text!r} is empty")
        grid = []
        v = lo
        while v < hi:
            grid.append(v)
            v *= 2
        grid.append(v)
        if v != hi:
            raise ValueError(f"grid end {hi} is not {lo} times a power of two")
        return grid
    return [parse_steps(part) for part in text.split(",") if part.strip()]


def load_machine_arg(arg: str) -> MachineSpec:
    """A path to a .tm file, or the name of a bundled machine."""
    path = Path(arg)
    if path.exists():
        return parse_machine(path.read_text(encoding="utf-8"))
    if arg in SAMPLE_NAMES:
        return parse_machine(sample_text(arg))
    raise MachineFormatError(
        f"no such file or bundled machine: {arg!r} (bundled: {', '.join(SAMPLE_NAMES)})"
    )


def auto_input(machine: MachineSpec, t_max: int) -> str:
    """Grid-friendly default inputs for the bundled machines."""
    if machine.name == "counter":
        n = max(20, t_max.bit_length() + 2)
        return counter_input(n)
    if machine.name == "palin":
        return palin_input(t_max)
    return ""


def _resolve_input(args, machine: MachineSpec, t_max: int) -> str:
    if args.input == "auto":
        return auto_input(machine, t_max)
    return args.input


def _write_or_print(data: str, out: str | None) -> None:
    if out:
        Path(out).write_text(data, encoding="utf-8")
    else:
        sys.stdout.write(data if data.endswith("\n") else data + "\n")


def _sha16(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _halts_before(steps_done: int, t: int) -> bool:
    """Report a machine that halts before step t, so that a command can
    exit before streaming or labelling anything."""
    if steps_done < t:
        print(f"error: machine halts after {steps_done} steps, not {t}", file=sys.stderr)
        return True
    return False


# ---- subcommands ----------------------------------------------------------


def cmd_run(args) -> int:
    machine = load_machine_arg(args.machine)
    record = run(machine, args.input, max_steps=args.max_steps)
    print(f"t={record.t} {record.halt_reason}")
    if args.emit_history:
        writer = HistoryWriter(record.t + 1)
        for config in record.history.configurations():
            writer.add(config)
        data = writer.getvalue()
        Path(args.emit_history).write_bytes(data)
        print(f"history: {len(data)} bytes -> {args.emit_history}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    machine = load_machine_arg(args.machine)
    if args.t == "auto":
        word = _resolve_input(args, machine, args.budget)
        t, reason = probe_run_length(machine, word, args.budget)
        if t < 1:
            print(f"error: machine halts immediately ({reason})", file=sys.stderr)
            return EXIT_USAGE
    else:
        t = parse_steps(args.t)
        word = _resolve_input(args, machine, t)
        if args.verify and _halts_before(probe_run_length(machine, word, t)[0], t):
            return EXIT_MODEL
    b = args.b if args.b is not None else default_block_length(t)
    ledger = attach_ledger(machine, t, b, args.c_int, keep_series=bool(args.series))
    sink = VerifySink(machine, word) if args.verify else None
    root = holo_run(machine, word, t, b=b, c_int=args.c_int, sink=sink, ledger=ledger)
    blob = encode_summary(root)
    print(
        f"t={t} b={b} T={ledger.T} max_screen={ledger.max_screen} "
        f"max_book={ledger.max_book} max_total={ledger.max_total} "
        f"root=sha256:{_sha16(blob)}"
    )
    if args.verify:
        mode = "strict" if sink.strict == sink.compared else "windowed"
        print(
            f"verified {sink.compared} emissions against direct simulation ({mode}); "
            f"dirty evictions: {ledger.dirty_evictions}"
        )
    if args.series:
        lines = ["tau,screen,book,total"]
        lines += [f"{r.tau},{r.screen},{r.book},{r.total}" for r in ledger.series]
        Path(args.series).write_text("\n".join(lines) + "\n", encoding="utf-8")
    if args.out:
        Path(args.out).write_bytes(blob)
    return EXIT_OK


def cmd_check_blocks(args) -> int:
    machine = load_machine_arg(args.machine)
    t = parse_steps(args.t)
    word = _resolve_input(args, machine, t)
    record = run(machine, word, max_steps=t)
    if _halts_before(record.t, t):
        return EXIT_MODEL
    b = args.b if args.b is not None else default_block_length(t)
    report = check_block_respecting(record, b, args.c_int)
    for e in report.entries:
        widest = max(e.widths)
        tag = "ok" if e.ok else "VIOLATION"
        print(
            f"block {e.k}: steps [{e.interval[0]},{e.interval[1]}] "
            f"max_span={widest} limit={report.limit} {tag}"
        )
    if report.ok:
        print(f"block-respecting at b={b}, c_int={args.c_int} over t={t}")
        return EXIT_OK
    bad = sum(1 for e in report.entries if not e.ok)
    print(f"{bad} of {len(report.entries)} blocks exceed the window limit")
    return EXIT_MODEL


def cmd_tree(args) -> int:
    t = parse_steps(args.t)
    b = args.b if args.b is not None else default_block_length(t)
    tree = build_tree(decompose(t, b))
    if args.label:
        if not args.machine:
            print("error: --label needs --machine", file=sys.stderr)
            return EXIT_USAGE
        machine = load_machine_arg(args.machine)
        word = _resolve_input(args, machine, t)
        record = run(machine, word, max_steps=t)
        if _halts_before(record.t, t):
            return EXIT_MODEL
        tree = label_tree(tree, record, args.c_int, args.policy)
    _write_or_print(json.dumps(tree_to_json(tree), indent=2), args.out)
    return EXIT_OK


def cmd_replay_at(args) -> int:
    machine = load_machine_arg(args.machine)
    t = parse_steps(args.t)
    tau = parse_steps(args.tau)
    word = _resolve_input(args, machine, t)
    b = args.b if args.b is not None else default_block_length(t)
    leaf, offset = time_to_leaf(tau, b, t)
    config = reconstruct_at(machine, word, t, tau, b=b, c_int=args.c_int)
    print(f"tau={tau} leaf={leaf} offset={offset}")
    print(config.describe())
    return EXIT_OK


def cmd_witness(args) -> int:
    machine = load_machine_arg(args.machine)
    program = build_witness(machine, args.kind)
    print(
        f"kind={program.kind} bytes={len(program)} sha256:{_sha16(program.data)}"
    )
    if args.out:
        Path(args.out).write_bytes(program.data)
    else:
        print(program.data.hex())
    return EXIT_OK


def cmd_scaling(args) -> int:
    machine = load_machine_arg(args.machine)
    grid = parse_grid(args.grid)
    word = args.input
    # auto sizes the word per grid point: a word sized for the largest t
    # overfills the window at small t
    report = area_law_study(
        machine,
        (lambda t: auto_input(machine, t)) if word == "auto" else (lambda _t: word),
        grid,
        c_int=args.c_int,
    )
    for t_failed, msg in report.failures:
        print(f"t={t_failed}: {msg}", file=sys.stderr)
    csv_text = report_to_csv(report)
    if args.csv:
        Path(args.csv).write_text(csv_text, encoding="utf-8")
    else:
        sys.stdout.write(csv_text)
    if args.svg:
        Path(args.svg).write_text(render_scaling_svg(report), encoding="utf-8")
    if report.exponent is not None:
        print(
            f"exponent={report.exponent:.4f} residual={report.residual:.4f} "
            f"points={len(report.rows)}"
        )
    if not report.rows:
        print("error: no grid point completed", file=sys.stderr)
        return EXIT_MODEL
    return EXIT_OK


# ---- wiring ---------------------------------------------------------------


def _add_machine_input(p: argparse.ArgumentParser, input_default: str = "") -> None:
    p.add_argument("machine", help="path to a .tm file or a bundled machine name")
    p.add_argument(
        "input",
        nargs="?",
        default=input_default,
        help="input word; 'auto' picks a size-appropriate word for bundled machines",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holosim",
        description="Streamed multitape Turing machine simulation in square-root space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="direct simulation, prints halt status")
    _add_machine_input(p)
    p.add_argument("--max-steps", type=parse_steps, default=1_000_000)
    p.add_argument("--emit-history", metavar="FILE", help="write the encoded history")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("simulate", help="streaming simulation with space ledger")
    _add_machine_input(p, input_default="auto")
    p.add_argument("--t", required=True, help="exact run length, 2^k ok, or 'auto'")
    p.add_argument("--b", type=parse_steps, default=None, help="block length")
    p.add_argument("--c-int", dest="c_int", type=int, default=2)
    p.add_argument("--budget", type=parse_steps, default=1_000_000)
    p.add_argument("--verify", action="store_true", help="compare against direct simulation")
    p.add_argument("--series", metavar="FILE", help="write per-step ledger CSV")
    p.add_argument("--out", metavar="FILE", help="write the root summary bytes")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("check-blocks", help="verify block-respecting head movement")
    _add_machine_input(p, input_default="auto")
    p.add_argument("--t", required=True)
    p.add_argument("--b", type=parse_steps, default=None)
    p.add_argument("--c-int", dest="c_int", type=int, default=2)
    p.set_defaults(func=cmd_check_blocks)

    p = sub.add_parser("tree", help="export the block tree as JSON")
    p.add_argument("--t", required=True)
    p.add_argument("--b", type=parse_steps, default=None)
    p.add_argument("--machine", help="needed with --label")
    p.add_argument("--input", default="auto")
    p.add_argument("--label", action="store_true", help="attach interval summaries")
    p.add_argument(
        "--policy", choices=[POLICY_FULL, POLICY_BOUNDARY], default=POLICY_FULL
    )
    p.add_argument("--c-int", dest="c_int", type=int, default=2)
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("replay-at", help="reconstruct one configuration by streaming")
    _add_machine_input(p, input_default="auto")
    p.add_argument("--t", required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--b", type=parse_steps, default=None)
    p.add_argument("--c-int", dest="c_int", type=int, default=2)
    p.set_defaults(func=cmd_replay_at)

    p = sub.add_parser("witness", help="emit the constant witness program bytes")
    p.add_argument("machine")
    p.add_argument("--kind", choices=[KIND_POINTWISE, KIND_HISTORY], default=KIND_POINTWISE)
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("scaling", help="area-law study over a grid of run lengths")
    _add_machine_input(p, input_default="auto")
    p.add_argument("--grid", required=True, help="e.g. 2^10..2^18 or 1024,2048,4096")
    p.add_argument("--c-int", dest="c_int", type=int, default=2)
    p.add_argument("--csv", metavar="FILE")
    p.add_argument("--svg", metavar="FILE")
    p.set_defaults(func=cmd_scaling)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MachineFormatError, CodecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ModelViolation as exc:
        print(f"model violation: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except (InternalInvariantError, MergeIncompatible) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except HolosimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL


if __name__ == "__main__":
    sys.exit(main())
