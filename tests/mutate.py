"""Seeded operator mutants of one module, each run against its test files.

    python tests/mutate.py src/fmwb/cfg.py tests/test_cfg.py

Each mutant changes one operator of the module: it swaps ``&``/``|``,
``+``/``-``, ``<<``/``>>`` or ``and``/``or``, flips a comparison, ``is`` or
``in``, or drops a ``not`` or ``~``.  The repository is copied to a temporary
directory once; each mutant is written over the module there and the test
files run with ``pytest -x``.  The results go to ``MUTANTS_<module>.json``
in the working directory, one entry per mutant with its line, operator and
result (killed, survived or timeout).  A ``note`` written by hand into an
entry, such as the argument that a survivor is equivalent, is kept when the
script is run again.

Standard library only; pytest does not collect this file.
"""

from __future__ import annotations

import ast
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SEED = 26
MAX_MUTANTS = 100
TIMEOUT_S = 120
# Operator node -> its replacement; None drops the unary operator.
OPERATORS = {
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd,
    ast.Add: ast.Sub, ast.Sub: ast.Add,
    ast.LShift: ast.RShift, ast.RShift: ast.LShift,
    ast.And: ast.Or, ast.Or: ast.And,
    ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Not: None, ast.Invert: None,
}
ROOT = Path(__file__).resolve().parent.parent


class _Mutator(ast.NodeTransformer):
    """Numbers the mutable operators in a fixed walk; mutates the one
    numbered target, if any.  Annotations are never run, so never mutated."""

    def __init__(self, target: int | None = None):
        self.target = target
        self.sites: list[tuple[int, str]] = []

    def _hit(self, node, op) -> bool:
        new = OPERATORS[type(op)]
        name = type(op).__name__
        self.sites.append((node.lineno, f"{name} -> {new.__name__}" if new else f"drop {name}"))
        return len(self.sites) - 1 == self.target

    def visit_BinOp(self, node):
        self.generic_visit(node)
        if type(node.op) in OPERATORS and self._hit(node, node.op):
            node.op = OPERATORS[type(node.op)]()
        return node

    visit_AugAssign = visit_BoolOp = visit_BinOp

    def visit_Compare(self, node):
        self.generic_visit(node)
        for i, op in enumerate(node.ops):
            if self._hit(node, op):
                node.ops[i] = OPERATORS[type(op)]()
        return node

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        if type(node.op) in OPERATORS and self._hit(node, node.op):
            return node.operand
        return node

    def visit_arg(self, node):
        return node

    def visit_AnnAssign(self, node):
        if node.value is not None:
            node.value = self.visit(node.value)
        return node

    def visit_FunctionDef(self, node):
        returns, node.returns = node.returns, None
        self.generic_visit(node)
        node.returns = returns
        return node


def _run_tests(copy: Path, tests: list[str]) -> str:
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=copy, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if done.returncode == 0 else "killed"


def main(module: str, *tests: str) -> int:
    source = (ROOT / module).read_text()
    counter = _Mutator()
    counter.visit(ast.parse(source))
    picks = sorted(random.Random(SEED).sample(range(len(counter.sites)),
                                              min(MAX_MUTANTS, len(counter.sites))))
    out = Path(f"MUTANTS_{Path(module).stem}.json")
    notes = {}
    if out.exists():
        notes = {(m["line"], m["operator"], m["site"]): m["note"]
                 for m in json.loads(out.read_text())["mutants"] if "note" in m}
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".*")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        if _run_tests(copy, list(tests)) != "survived":
            print("the unmutated module fails its tests", file=sys.stderr)
            return 2
        mutants = []
        for site in picks:
            mutator = _Mutator(site)
            tree = mutator.visit(ast.parse(source))
            (copy / module).write_text(ast.unparse(tree))
            line, operator = mutator.sites[site]
            entry = {"site": site, "line": line, "operator": operator,
                     "result": _run_tests(copy, list(tests))}
            if (line, operator, site) in notes:
                entry["note"] = notes[line, operator, site]
            mutants.append(entry)
            print(f"{module}:{line} {operator}: {entry['result']}", flush=True)
    out.write_text(json.dumps({"module": module, "tests": list(tests), "seed": SEED,
                               "sites": len(counter.sites), "mutants": mutants},
                              indent=1) + "\n")
    return 0


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
