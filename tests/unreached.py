"""List the `raise` and `except` lines of src/holosim that no test runs.

Run

    python tests/unreached.py [PYTEST_ARG ...]

from the repository root.  It runs the test suite (or the pytest
arguments given) in this process under sys.settrace, tracing only the
code of src/holosim that holds a `raise` statement or an `except`
clause, and prints every such line that never executed as
`path:line: source`.  Hypothesis deadlines are off, since tracing slows
every traced call several times over.  The exit status is pytest's if
any test failed, else 1 when a line is listed and 0 when none is.

The runner is not part of the test suite: a full run takes about two
minutes on two cores.  Like tests/mutants.py, it uses the standard
library and pytest only.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "holosim"


def target_lines() -> dict[str, dict[int, str]]:
    """Per source file, the first line of each `raise` statement and
    each `except` clause, with its kind."""
    targets = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        targets[str(path)] = {
            node.lineno: "raise" if isinstance(node, ast.Raise) else "except"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Raise, ast.ExceptHandler))
        }
    return targets


def run_traced(targets: dict[str, dict[int, str]], pytest_args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """Run pytest with line tracing on every code object that owns a
    target line; returns pytest's exit status and the (file, line)
    pairs of the targets that executed."""
    hit: set[tuple[str, int]] = set()
    owned: dict = {}  # code object -> the target lines it holds

    def trace_lines(frame, event, arg):
        if event == "line" and frame.f_lineno in owned[frame.f_code]:
            hit.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        code = frame.f_code
        if code not in owned:
            wanted = targets.get(code.co_filename, {})
            owned[code] = {line for _, _, line in code.co_lines() if line in wanted}
        return trace_lines if owned[code] else None

    import hypothesis
    import pytest

    hypothesis.settings.register_profile("unreached", deadline=None)
    hypothesis.settings.load_profile("unreached")
    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        # hypothesis is imported above, before pytest could rewrite it
        warn = "ignore::pytest.PytestAssertRewriteWarning"
        status = pytest.main(["-q", "-p", "no:cacheprovider", "-W", warn, *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hit


def main(argv: list[str]) -> int:
    targets = target_lines()
    status, hit = run_traced(targets, argv or [str(ROOT / "tests")])
    kinds = {"raise": 0, "except": 0}
    for path, lines in targets.items():
        source = Path(path).read_text(encoding="utf-8").splitlines()
        for line in sorted(set(lines) - {n for p, n in hit if p == path}):
            kinds[lines[line]] += 1
            print(f"{Path(path).relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"unreached: {kinds['raise']} raise lines, {kinds['except']} except lines")
    if status:
        return status
    return 1 if any(kinds.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
