"""The benchmark's own reference code, sharing nothing with fmwb.

It holds a small first-order / existential-second-order syntax tree (plain
tuples), a printer that writes fmwb's normalized text syntax, a recursive
Tarskian truth definition, equivalence-preserving rewrites, and independent
writers for the bit codes the paper fixes (the self-delimiting integer code,
Goedel codes, machine codes, grammar codes and encoding sentences).  The
benchmark builds its inputs with these writers and checks fmwb's answers
against the truth definition and against verdicts that follow by
construction, so a wrong answer from fmwb cannot be hidden by the same bug
on both sides.

Node shapes:
    ("rel", name, args)   ("eq", x, y)   ("neq", x, y)   ("lt", x, y)
    ("bit", x, y)         ("not", f)     ("and", f, g)   ("or", f, g)
    ("ex", x, f)          ("all", x, f)  ("soex", Q, k, f)  ("soall", Q, k, f)
"""

from __future__ import annotations

import itertools
import random

# --- printing --------------------------------------------------------------


def show(f) -> str:
    """fmwb's normalized text for a tree (printing a parse of it is a no-op)."""
    op = f[0]
    if op == "rel":
        return f"{f[1]}({','.join(f[2])})"
    if op == "eq":
        return f"{f[1]} = {f[2]}"
    if op == "neq":
        return f"{f[1]} != {f[2]}"
    if op == "lt":
        return f"{f[1]} < {f[2]}"
    if op == "bit":
        return f"BIT({f[1]},{f[2]})"
    if op == "not":
        return "~" + show(f[1])
    if op == "and":
        return f"({show(f[1])} & {show(f[2])})"
    if op == "or":
        return f"({show(f[1])} | {show(f[2])})"
    if op == "ex":
        return f"E{f[1]} {show(f[2])}"
    if op == "all":
        return f"A{f[1]} {show(f[2])}"
    if op == "soex":
        return f"E{f[1]}:{f[2]} {show(f[3])}"
    if op == "soall":
        return f"A{f[1]}:{f[2]} {show(f[3])}"
    raise ValueError(f"unknown node {op!r}")


def from_fmwb(f):
    """Read an fmwb sentence object into a tree, by class name and fields."""
    kind = type(f).__name__
    if kind == "Rel":
        return ("rel", f.name, tuple(f.args))
    if kind in ("Eq", "Neq", "Lt", "Bit"):
        return (kind.lower(), f.left, f.right)
    if kind == "Not":
        return ("not", from_fmwb(f.sub))
    if kind in ("And", "Or"):
        return (kind.lower(), from_fmwb(f.left), from_fmwb(f.right))
    if kind in ("Exists", "Forall"):
        return ("ex" if kind == "Exists" else "all", f.var, from_fmwb(f.sub))
    raise ValueError(f"no tree form for {kind}")


def variables(f) -> set[str]:
    op = f[0]
    if op == "rel":
        return set(f[2])
    if op in ("eq", "neq", "lt", "bit"):
        return {f[1], f[2]}
    if op == "not":
        return variables(f[1])
    if op in ("and", "or"):
        return variables(f[1]) | variables(f[2])
    if op in ("ex", "all"):
        return {f[1]} | variables(f[2])
    return variables(f[3])


# --- truth definition ------------------------------------------------------


def holds(f, n: int, rel: dict, env: dict | None = None, tally=None) -> bool:
    """Plain recursive satisfaction over the universe {0, ..., n-1}.

    rel maps each relation name (symbols and bound relation variables) to
    its set of tuples; `<` and BIT are the natural order and bit predicate.
    With a one-element list as tally, tally[0] counts the nodes visited.
    Conjunction, disjunction and quantifiers stop at the first deciding
    value, left to right, as fmwb's checker does, so the count is the
    checker's work on this structure.
    """
    env = env or {}
    if tally is not None:
        tally[0] += 1
    op = f[0]
    if op == "rel":
        return tuple(env[v] for v in f[2]) in rel[f[1]]
    if op == "eq":
        return env[f[1]] == env[f[2]]
    if op == "neq":
        return env[f[1]] != env[f[2]]
    if op == "lt":
        return env[f[1]] < env[f[2]]
    if op == "bit":
        return (env[f[1]] >> env[f[2]]) & 1 == 1
    if op == "not":
        return not holds(f[1], n, rel, env, tally)
    if op == "and":
        return holds(f[1], n, rel, env, tally) and holds(f[2], n, rel, env, tally)
    if op == "or":
        return holds(f[1], n, rel, env, tally) or holds(f[2], n, rel, env, tally)
    if op in ("ex", "all"):
        want = op == "ex"
        for value in range(n):
            if holds(f[2], n, rel, {**env, f[1]: value}, tally) == want:
                return want
        return not want
    if op in ("soex", "soall"):
        want = op == "soex"
        tuples = list(itertools.product(range(n), repeat=f[2]))
        for mask in range(1 << len(tuples)):
            chosen = {t for i, t in enumerate(tuples) if mask >> i & 1}
            if holds(f[3], n, {**rel, f[1]: chosen}, env, tally) == want:
                return want
        return not want
    raise ValueError(f"unknown node {op!r}")


def structure(symbols, n: int, index: int) -> dict:
    """The structure whose fmwb binary encoding is `index` in length bits.

    Symbols are (name, arity) pairs in vocabulary order; tuples are indexed
    lexicographically, the first tuple taking the most significant bit.
    """
    length = sum(n ** a for _, a in symbols)
    rel = {}
    shift = length
    for name, arity in symbols:
        size = n ** arity
        shift -= size
        block = (index >> shift) & ((1 << size) - 1)
        rel[name] = {
            t for i, t in enumerate(itertools.product(range(n), repeat=arity))
            if block >> (size - 1 - i) & 1
        }
    return rel


def structure_text(symbols, ordered: bool, n: int, rel: dict) -> str:
    """fmwb's structure file format."""
    vocab = " ".join(f"{name}:{a}" for name, a in symbols) + (" <" if ordered else "")
    lines = [f"vocab {vocab}", f"n = {n}"]
    for name, _ in symbols:
        rendered = " ".join("(" + ",".join(map(str, t)) + ")" for t in sorted(rel[name]))
        lines.append(f"{name} = {rendered}".rstrip())
    return "\n".join(lines) + "\n"


# --- equivalence-preserving rewrites --------------------------------------


def _positions(f, path=()):
    yield path, f
    op = f[0]
    if op in ("not",):
        yield from _positions(f[1], path + (1,))
    elif op in ("and", "or"):
        yield from _positions(f[1], path + (1,))
        yield from _positions(f[2], path + (2,))
    elif op in ("ex", "all"):
        yield from _positions(f[2], path + (2,))
    elif op in ("soex", "soall"):
        yield from _positions(f[3], path + (3,))


def _replace(f, path, new):
    if not path:
        return new
    i = path[0]
    return f[:i] + (_replace(f[i], path[1:], new),) + f[i + 1:]


def _rename(f, old: str, new: str):
    """Rename free occurrences of variable `old` (no capture: `new` is fresh)."""
    op = f[0]
    if op == "rel":
        return ("rel", f[1], tuple(new if v == old else v for v in f[2]))
    if op in ("eq", "neq", "lt", "bit"):
        return (op, new if f[1] == old else f[1], new if f[2] == old else f[2])
    if op == "not":
        return ("not", _rename(f[1], old, new))
    if op in ("and", "or"):
        return (op, _rename(f[1], old, new), _rename(f[2], old, new))
    if op in ("ex", "all"):
        if f[1] == old:
            return f
        return (op, f[1], _rename(f[2], old, new))
    return f[:3] + (_rename(f[3], old, new),)


def _rewrite_at(node, rng: random.Random, fresh: str):
    """One equivalence applied at the root of `node`."""
    op = node[0]
    choices = ["dneg"]
    if op in ("and", "or"):
        choices.append("demorgan")
    if op in ("ex", "all"):
        choices += ["dual", "rename"]
    rule = rng.choice(choices)
    if rule == "dneg":
        return ("not", ("not", node))
    if rule == "demorgan":
        dual = "or" if op == "and" else "and"
        return ("not", (dual, ("not", node[1]), ("not", node[2])))
    if rule == "dual":
        dual = "all" if op == "ex" else "ex"
        return ("not", (dual, node[1], ("not", node[2])))
    return (op, fresh, _rename(node[2], node[1], fresh))


def rewrite(f, rng: random.Random, steps: int = 2):
    """An equivalent sentence: De Morgan, double negation, quantifier duality
    and renamed bound variables applied at seeded positions."""
    used = variables(f)
    for step in range(steps):
        fresh = next(f"v{i}" for i in itertools.count(1) if f"v{i}" not in used)
        used.add(fresh)
        spots = [(p, g) for p, g in _positions(f) if g[0] not in ("soex", "soall")]
        path, node = rng.choice(spots)
        f = _replace(f, path, _rewrite_at(node, rng, fresh))
    return f


# --- bit codes -------------------------------------------------------------


def enc_nat(x: int) -> str:
    """Self-delimiting code 1^|c| 0 c b with b = bin(x) and c = bin(|b|)."""
    b = format(x, "b")
    c = format(len(b), "b")
    return "1" * len(c) + "0" + c + b


def enc_str(s: str) -> str:
    data = s.encode("ascii")
    return enc_nat(len(data)) + "".join(format(byte, "08b") for byte in data)


def hex_payload(bits: str) -> str:
    """The hex text of a CHAR_* payload: the bits behind a leading 1."""
    return format(int("1" + bits, 2), "x")


_TAG = {"rel": 1, "eq": 2, "neq": 3, "lt": 4, "bit": 5, "and": 6, "or": 7,
        "not": 8, "ex": 9, "all": 10, "soex": 11, "soall": 12}


def godel(f) -> str:
    op = f[0]
    out = enc_nat(_TAG[op])
    if op == "rel":
        return out + enc_str(f[1]) + enc_nat(len(f[2])) + "".join(map(enc_str, f[2]))
    if op in ("eq", "neq", "lt", "bit"):
        return out + enc_str(f[1]) + enc_str(f[2])
    if op == "not":
        return out + godel(f[1])
    if op in ("and", "or"):
        return out + godel(f[1]) + godel(f[2])
    if op in ("ex", "all"):
        return out + enc_str(f[1]) + godel(f[2])
    return out + enc_str(f[1]) + enc_nat(f[2]) + godel(f[3])


_SYM = {"0": "00", "1": "01", "_": "10"}
_MOVE = {"L": "00", "R": "01", "S": "10"}
_APPEND = {"": "00", "0": "01", "1": "10"}
RESERVED = ("ACC", "QUE", "YES", "NO")


def machine(states, start, kind, clock, step, delta) -> dict:
    """A machine description; delta maps (state, in, sto) to
    (next, write, in_move, sto_move, append)."""
    return {"states": tuple(states), "start": start, "kind": kind,
            "clock": clock, "step": step, "delta": dict(sorted(delta.items()))}


def machine_code(m: dict) -> str:
    index = {s: i for i, s in enumerate(m["states"])}
    out = [enc_nat(len(m["states"]))]
    out += [enc_str(s) for s in m["states"]]
    out.append(enc_nat(index[m["start"]]))
    out.append("0" if m["kind"] == "polytime" else "1")
    out += [enc_nat(m["clock"]), enc_nat(m["step"]), enc_nat(len(m["delta"]))]
    for (state, a, b), (nxt, w, mi, ms, app) in m["delta"].items():
        out += [enc_nat(index[state]), _SYM[a], _SYM[b], enc_nat(index[nxt]),
                _SYM[w], _MOVE[mi], _MOVE[ms], _APPEND[app]]
    return "".join(out)


def machine_text(m: dict) -> str:
    lines = [f"kind {m['kind']}", f"clock {m['clock']}", f"step {m['step']}",
             f"start {m['start']}", "states " + " ".join(m["states"])]
    for (state, a, b), (nxt, w, mi, ms, app) in m["delta"].items():
        lines.append(f"{state} {a} {b} -> {nxt} {w} {mi} {ms} {app or '-'}")
    return "\n".join(lines) + "\n"


def reaches_acc(m: dict) -> bool:
    """Static check: can any run get from the start state to ACC?

    Edges are the transitions plus the oracle answers QUE -> YES and
    QUE -> NO; tape contents are ignored, so False proves rejection.
    """
    edges: dict[str, set[str]] = {"QUE": {"YES", "NO"}}
    for (state, *_), (nxt, *_) in m["delta"].items():
        edges.setdefault(state, set()).add(nxt)
    seen, todo = {m["start"]}, [m["start"]]
    while todo:
        for nxt in edges.get(todo.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return "ACC" in seen


def _padding(count: int, tag: str):
    """Unreachable states, each with one transition to the next, so the
    code grows but no run can enter them."""
    names = [f"u{tag}{i}" for i in range(count)]
    delta = {}
    for i, name in enumerate(names):
        delta[(name, "_", "_")] = (names[(i + 1) % count], "_", "R", "S", "1")
    return names, delta


def identity_machine(kind="polytime", clock=2, step=2, pad=0, tag="p") -> dict:
    """Copy the input to the oracle tape, query, accept exactly on YES."""
    delta = {
        ("q0", "0", "_"): ("q0", "_", "R", "S", "0"),
        ("q0", "1", "_"): ("q0", "_", "R", "S", "1"),
        ("q0", "_", "_"): ("QUE", "_", "S", "S", ""),
        ("YES", "_", "_"): ("ACC", "_", "S", "S", ""),
    }
    names, extra = _padding(pad, tag) if pad else ([], {})
    delta.update(extra)
    return machine(("q0",) + RESERVED + tuple(names), "q0", kind, clock, step, delta)


def spinning_machine(clock=3, step=3, pad=0, tag="p") -> dict:
    """Never moves and never halts, so every run lasts until its clock."""
    delta = {(("q0", s, "_")): ("q0", "_", "S", "S", "") for s in "01_"}
    names, extra = _padding(pad, tag) if pad else ([], {})
    delta.update(extra)
    return machine(("q0",) + RESERVED + tuple(names), "q0", "polytime", clock, step, delta)


def rejecting_machine(pad=0, tag="p") -> dict:
    """Halts at once in NO: a broken reduction for any satisfiable target."""
    names, extra = _padding(pad, tag) if pad else ([], {})
    return machine(RESERVED + tuple(names), "NO", "polytime", 1, 1, extra)


def grammar_code(nonterminals, terminals, productions, start) -> str:
    """fmwb's grammar code; productions are sorted as the program stores them."""
    prods = sorted({(h, tuple(b)) for h, b in productions})
    nt = {s: i for i, s in enumerate(nonterminals)}
    t = {s: i for i, s in enumerate(terminals)}
    out = [enc_nat(len(nonterminals))] + [enc_str(s) for s in nonterminals]
    out += [enc_nat(len(terminals))] + [enc_str(s) for s in terminals]
    out += [enc_nat(nt[start]), enc_nat(len(prods))]
    for head, body in prods:
        out += [enc_nat(nt[head]), enc_nat(len(body))]
        out += ["0" + enc_nat(nt[s]) if s in nt else "1" + enc_nat(t[s]) for s in body]
    return "".join(out)


def psi_text(w: str) -> str:
    """The encoding sentence for w: quantifier i is E for a 1 bit, A for a 0,
    over the identically false matrix x1 != x1 & ... & xk != xk."""
    prefix = "".join(("E" if b == "1" else "A") + f"x{i} " for i, b in enumerate(w, 1))
    matrix = "(" * (len(w) - 1) + "x1 != x1" + "".join(
        f" & x{i} != x{i})" for i in range(2, len(w) + 1))
    return prefix + matrix


def psi_bits(text: str) -> str:
    """Read the bit string back out of the encoding-sentence tail of a form."""
    out = []
    i = 1
    pos = text.rfind("| ") + 2
    while text.startswith(("E", "A"), pos):
        head = f"x{i} "
        if not text.startswith(head, pos + 1):
            break
        out.append("1" if text[pos] == "E" else "0")
        pos += 1 + len(head)
        i += 1
    return "".join(out)


# --- start-up self-check ---------------------------------------------------


def self_check() -> None:
    """Hand-worked verdicts and codes; raises if the reference code is wrong."""
    e2 = [("E", 2)]
    edge = ("ex", "x", ("ex", "y", ("rel", "E", ("x", "y"))))
    total = ("all", "x", ("ex", "y", ("rel", "E", ("x", "y"))))
    empty, one_edge = {"E": set()}, {"E": {(0, 1)}}
    cycle = {"E": {(0, 1), (1, 0)}}
    cases = [
        (edge, 2, empty, False), (edge, 2, one_edge, True),
        (total, 2, one_edge, False), (total, 2, cycle, True),
        (("soex", "Q", 1, ("all", "x", ("rel", "Q", ("x",)))), 2, empty, True),
        (("soall", "Q", 1, ("ex", "x", ("rel", "Q", ("x",)))), 2, empty, False),
        (("ex", "x", ("ex", "y", ("lt", "x", "y"))), 2, empty, True),
        (("ex", "x", ("ex", "y", ("bit", "x", "y"))), 2, empty, True),
        (("all", "x", ("bit", "x", "x")), 2, empty, False),
    ]
    for f, n, rel, want in cases:
        if holds(f, n, rel) != want:
            raise AssertionError(f"truth definition wrong on {show(f)}")
    if structure(e2, 2, 0b0100) != one_edge:
        raise AssertionError("structure indexing wrong")
    if enc_nat(5) != "11011101" or enc_nat(0) != "1010":
        raise AssertionError("integer code wrong")
    if psi_text("10") != "Ex1 Ax2 (x1 != x1 & x2 != x2)" or psi_bits("a | " + psi_text("0110")) != "0110":
        raise AssertionError("encoding sentence text wrong")
    if show(("not", ("or", edge, ("neq", "x", "x")))) != "~(Ex Ey E(x,y) | x != x)":
        raise AssertionError("printer wrong")
    if godel(("eq", "x", "y")) != "1101010" "1011" "01111000" "1011" "01111001":
        raise AssertionError("Goedel code wrong")
    rng = random.Random(0)
    for f, n, rel, want in cases:
        if f[0] in ("soex", "soall"):
            continue
        for _ in range(5):
            g = rewrite(f, rng, 3)
            if holds(g, n, rel) != want:
                raise AssertionError(f"rewrite changed the verdict: {show(g)}")
    if reaches_acc(spinning_machine()) or not reaches_acc(identity_machine(pad=2)):
        raise AssertionError("reachability check wrong")
