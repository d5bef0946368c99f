"""Small builders the tests share: trivial machines, relabelled structures,
grammar text and node counts.  The package itself has no use for them."""

from __future__ import annotations

from fmwb.cfg import Grammar
from fmwb.core import Structure
from fmwb.logic import walk
from fmwb.machines import POLYTIME, RESERVED, OracleMachine


def always_accept_machine(kind: str = POLYTIME) -> OracleMachine:
    return OracleMachine.make(RESERVED, "ACC", kind, 1, 1, {})


def always_reject_machine(kind: str = POLYTIME) -> OracleMachine:
    return OracleMachine.make(RESERVED, "NO", kind, 1, 1, {})


def apply_permutation(a: Structure, perm) -> Structure:
    """Relabel a structure along element i -> perm[i]."""
    relations = {
        name: {tuple(perm[t] for t in tup) for tup in tuples}
        for name, tuples in a.relations
    }
    return Structure.make(a.vocab, a.n, relations)


def format_grammar(g: Grammar) -> str:
    by_head: dict[str, list[tuple[str, ...]]] = {}
    for head, body in g.productions:
        by_head.setdefault(head, []).append(body)
    heads = [g.start] + [nt for nt in g.nonterminals if nt != g.start]
    lines = []
    for head in heads:
        bodies = by_head.get(head)
        if not bodies:
            continue
        rendered = " | ".join(" ".join(b) if b else "eps" for b in bodies)
        lines.append(f"{head} -> {rendered}")
    return "\n".join(lines) + "\n"


def n_nodes(f) -> int:
    return sum(1 for _ in walk(f))
