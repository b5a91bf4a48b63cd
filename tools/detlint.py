#!/usr/bin/env python
"""Determinism lint for replay fingerprint paths.

The emulator's promise is that a trace replayed twice — on any host,
with any worker count — produces a bit-identical fingerprint.  The
easiest way to break that silently is to let host state leak into the
virtual timeline: a wall-clock read, an iteration over an unordered
set, an unseeded random draw.  This tool walks the AST of the modules
on that path and flags the three leak shapes:

====== ==========================================================
DL101  wall-clock read (``time.time``/``perf_counter``/…,
       ``datetime.now``/``utcnow``/``today``)
DL102  iteration over an unordered ``set``/``frozenset`` expression
DL103  unseeded randomness (module-level ``random.*`` calls, or
       ``random.Random()`` with no seed argument)
====== ==========================================================

A finding on a line ending in ``# detlint: allow`` is suppressed —
use it where host time is the *measurand* (wall-clock throughput
reporting) rather than an input to the emulation.

Usage::

    python tools/detlint.py [FILE ...]

With no arguments the default fingerprint-path file set is checked.
Exits 1 when any unsuppressed finding remains.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import List, NamedTuple, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The modules whose behaviour feeds replay fingerprints, plus the
#: partitioner core: candidate chains and their policy decisions must be
#: bit-identical across runs (the flat/legacy parity suite depends on
#: it), so the same no-wall-clock / no-set-iteration / seeded-random
#: rules apply there.
DEFAULT_TARGETS = (
    "src/repro/emulator/fleet.py",
    "src/repro/emulator/parallel.py",
    "src/repro/emulator/columnar.py",
    "src/repro/rpc/marshal.py",
    "src/repro/core/mincut.py",
    "src/repro/core/flatgraph.py",
    "src/repro/core/partitioner.py",
    "src/repro/net/mobility.py",
    "src/repro/platform/migration.py",
    "src/repro/emulator/replay.py",
    "src/repro/rpc/retry.py",
    "src/repro/net/faults.py",
    "src/repro/rpc/batch.py",
    "src/repro/rpc/cache.py",
)

SUPPRESS_MARKER = "detlint: allow"

#: (module-ish receiver name, attribute) pairs that read the host clock.
WALL_CLOCK_CALLS = frozenset({
    ("time", "time"), ("time", "time_ns"),
    ("time", "perf_counter"), ("time", "perf_counter_ns"),
    ("time", "monotonic"), ("time", "monotonic_ns"),
    ("time", "process_time"), ("time", "process_time_ns"),
    ("time", "localtime"), ("time", "gmtime"),
    ("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"),
    ("date", "today"),
})

#: Module-level ``random.<func>`` draws that use the shared global RNG
#: (whose state depends on import order and anything else in-process).
GLOBAL_RANDOM_FUNCS = frozenset({
    "random", "randint", "randrange", "getrandbits", "randbytes",
    "choice", "choices", "shuffle", "sample", "uniform", "triangular",
    "gauss", "normalvariate", "lognormvariate", "expovariate",
    "vonmisesvariate", "betavariate", "gammavariate", "paretovariate",
    "weibullvariate", "seed",
})


class Finding(NamedTuple):
    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule} {self.message}")


def _dotted(node: ast.AST) -> Optional[tuple]:
    """``a.b`` or ``a.b.c`` call targets as (receiver, attr)."""
    if isinstance(node, ast.Attribute):
        if isinstance(node.value, ast.Name):
            return (node.value.id, node.attr)
        if isinstance(node.value, ast.Attribute):
            # e.g. datetime.datetime.now -> ("datetime", "now")
            return (node.value.attr, node.attr)
    return None


def _is_unordered_expr(node: ast.AST) -> bool:
    """A set display or a bare ``set(...)``/``frozenset(...)`` call."""
    if isinstance(node, ast.Set):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


class _Checker(ast.NodeVisitor):
    def __init__(self, path: str, lines: List[str]) -> None:
        self.path = path
        self.lines = lines
        self.findings: List[Finding] = []

    def _suppressed(self, node: ast.AST) -> bool:
        line = node.lineno - 1
        return (0 <= line < len(self.lines)
                and SUPPRESS_MARKER in self.lines[line])

    def _report(self, node: ast.AST, rule: str, message: str) -> None:
        if not self._suppressed(node):
            self.findings.append(Finding(
                self.path, node.lineno, node.col_offset, rule, message
            ))

    # -- DL101 / DL103: calls ---------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        target = _dotted(node.func)
        if target in WALL_CLOCK_CALLS:
            self._report(
                node, "DL101",
                f"wall-clock read {target[0]}.{target[1]}() on a "
                f"fingerprint path; derive time from the virtual "
                f"timeline (or mark the wall-time measurement with "
                f"'# {SUPPRESS_MARKER}')",
            )
        elif target is not None and target[0] == "random" \
                and target[1] in GLOBAL_RANDOM_FUNCS:
            self._report(
                node, "DL103",
                f"global-RNG draw random.{target[1]}(); use a "
                f"random.Random(seed) instance owned by the replay "
                f"config",
            )
        elif target == ("random", "Random") and not node.args \
                and not node.keywords:
            self._report(
                node, "DL103",
                "random.Random() without a seed falls back to host "
                "entropy; pass an explicit seed",
            )
        elif isinstance(node.func, ast.Name) and node.func.id == "Random" \
                and not node.args and not node.keywords:
            self._report(
                node, "DL103",
                "Random() without a seed falls back to host entropy; "
                "pass an explicit seed",
            )
        self.generic_visit(node)

    # -- DL102: unordered iteration ---------------------------------------

    def _check_iter(self, node: ast.AST, iterable: ast.AST) -> None:
        if _is_unordered_expr(iterable):
            self._report(
                node, "DL102",
                "iteration over an unordered set expression; sort it "
                "(or iterate the ordered source collection)",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node, node.iter)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_iter(node, node.iter)
        self.generic_visit(node)

    def _visit_comprehensions(self, node) -> None:
        for comp in node.generators:
            self._check_iter(comp.iter, comp.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehensions
    visit_SetComp = _visit_comprehensions
    visit_DictComp = _visit_comprehensions
    visit_GeneratorExp = _visit_comprehensions


def check_source(path: str, source: str) -> List[Finding]:
    """All unsuppressed findings in one module's source text."""
    tree = ast.parse(source, filename=path)
    checker = _Checker(path, source.splitlines())
    checker.visit(tree)
    return sorted(checker.findings)


def check_file(path: Path) -> List[Finding]:
    return check_source(str(path), path.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python tools/detlint.py",
        description="Determinism lint for replay fingerprint paths",
    )
    parser.add_argument(
        "files", nargs="*", type=Path,
        help=f"files to check (default: {', '.join(DEFAULT_TARGETS)})",
    )
    args = parser.parse_args(argv)
    files = args.files or [REPO_ROOT / rel for rel in DEFAULT_TARGETS]

    findings: List[Finding] = []
    missing = False
    for path in files:
        if not path.exists():
            print(f"detlint: no such file: {path}", file=sys.stderr)
            missing = True
            continue
        findings.extend(check_file(path))
    for finding in findings:
        print(finding.render())
    if not findings and not missing:
        print(f"detlint: {len(files)} file(s) clean")
    return 1 if findings or missing else 0


if __name__ == "__main__":
    raise SystemExit(main())
