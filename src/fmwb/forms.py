"""Canonical disjunctive forms for complete problems and their recognizers.

Five shapes are supported.  The plain pairs 'ord2'/'unord4' exist for
experimenting with the underlying equivalences; the extended shapes 'ord5',
'unord6' and 'npconp8' additionally embed the machine code (or the second
sentence) as an identically false quantifier-pattern disjunct, which is what
makes membership in the resulting logics decidable: a recognizer reads the
code back out of the pattern, rebuilds the form from it, and compares the
whole sentence by strict structural equality.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter

from .charsets import PayloadNotCharFree
from .core import Vocabulary
from .logic import (
    LOGIC_OF_CLASS, SO_E, And, Bit, CharNpconp, CharOrd, CharUnord,
    CoCharUnord, Eq, Exists, Forall, Formula, FormulaError, Lt, Neq, Not, Or,
    Rel, apply_T_ord, apply_T_unord, char_free, godel_decode, godel_encode,
    in_fragment, psi_encode, psi_recognize, validate_sentence,
)
from .machines import (
    LOGSPACE, POLYTIME, RESERVED, MalformedMachine, OracleMachine, decode_tm,
    encode_tm, identity_machine,
)

ORD_CLASSES = ("NL", "P", "coNP", "NP", "PSPACE")
UNORD_CLASSES = ("coNP", "NP", "PSPACE")
RECOGNIZABLE_KINDS = ("ord5", "unord6", "npconp8")
FORM_KINDS = ("ord2", "unord4") + RECOGNIZABLE_KINDS


class FragmentMismatch(ValueError):
    pass


class FormError(ValueError):
    pass


def machine_kind_for(cls: str) -> str:
    if cls in ("NL", "P"):
        return LOGSPACE
    if cls in ("coNP", "NP", "PSPACE"):
        return POLYTIME
    raise FormError(f"unknown complexity class {cls!r}")


@dataclass(frozen=True)
class CanonicalForm:
    kind: str
    cls: str | None
    tau: Vocabulary
    gamma: Formula
    machine: OracleMachine | None
    lam: Formula | None
    upsilon_tau: Formula | None
    formula: Formula


def _check_gamma(name: str, gamma: Formula, tau: Vocabulary,
                 fragment: str) -> None:
    if not char_free(gamma):
        raise PayloadNotCharFree(f"{name} must not contain characteristic leaves")
    validate_sentence(gamma, tau)
    if not in_fragment(gamma, fragment):
        raise FragmentMismatch(f"{name} is not in the {fragment} fragment")


def _upsilon_tau(kind: str, tau: Vocabulary, cls: str, upsilon: Formula,
                 machine: OracleMachine | None = None) -> Formula:
    """Check the class (and the machine's kind, given one) for a machine
    shape, and return upsilon transported to tau."""
    wanted = machine_kind_for(cls)
    if machine is not None and machine.kind != wanted:
        raise FormError(f"{cls}-specific machines must be {wanted}")
    if kind in ("ord2", "ord5"):
        if cls not in ORD_CLASSES:
            raise FormError(f"ordered forms take classes {ORD_CLASSES}")
        return apply_T_ord(upsilon, tau)
    if cls not in UNORD_CLASSES:
        raise FormError(f"unordered forms take classes {UNORD_CLASSES}")
    return apply_T_unord(upsilon, tau)


def _npconp8_form(tau: Vocabulary, lam: Formula, lam_code: str,
                  gamma: Formula, gamma_code: str) -> CanonicalForm:
    """The npconp8 form of lambda and gamma, given their Goedel codes.
    Checks lambda, then gamma."""
    for name, f in (("lambda", lam), ("gamma", gamma)):
        _check_gamma(name, f, tau, SO_E)
    formula = Or(And(CharNpconp(lam_code, gamma_code), gamma), psi_encode(lam_code))
    return CanonicalForm("npconp8", None, tau, gamma, None, lam, None, formula)


def _machine_form(kind: str, tau: Vocabulary, cls: str, gamma: Formula,
                  gamma_code: str, machine: OracleMachine, machine_code: str,
                  upsilon_tau: Formula) -> CanonicalForm:
    """The form of a machine shape, given gamma's Goedel code, the machine's
    code and upsilon already transported to tau.  Checks gamma, then the
    transported upsilon."""
    _check_gamma("gamma", gamma, tau, LOGIC_OF_CLASS[cls])
    validate_sentence(upsilon_tau, tau)
    if kind in ("ord2", "ord5"):
        char = CharOrd(gamma_code, machine_code)
        co_char = Not(char)
    else:
        char = CharUnord(gamma_code, machine_code)
        co_char = CoCharUnord(gamma_code, machine_code)
    formula = Or(And(char, gamma), And(co_char, upsilon_tau))
    if kind in ("ord5", "unord6"):
        formula = Or(formula, psi_encode(machine_code))
    return CanonicalForm(kind, cls, tau, gamma, machine, None, upsilon_tau, formula)


def build_form(kind: str, gamma: Formula, *, tau: Vocabulary,
               cls: str | None = None,
               machine: OracleMachine | None = None,
               lam: Formula | None = None,
               upsilon: Formula | None = None) -> CanonicalForm:
    """Assemble the canonical sentence of the given shape.

    upsilon is the base distinguished sentence (over {R:1,<} for the ordered
    shapes, over {R:2} for the unordered ones); the builder transports it to
    tau itself.
    """
    if kind not in FORM_KINDS:
        raise FormError(f"unknown form kind {kind!r}")

    if kind == "npconp8":
        if lam is None:
            raise FormError("npconp8 needs the complement-candidate sentence")
        return _npconp8_form(tau, lam, godel_encode(lam), gamma, godel_encode(gamma))

    if machine is None or cls is None or upsilon is None:
        raise FormError(f"kind {kind!r} needs a machine, class, and upsilon")
    upsilon_tau = _upsilon_tau(kind, tau, cls, upsilon, machine)
    return _machine_form(kind, tau, cls, gamma, godel_encode(gamma), machine,
                         encode_tm(machine), upsilon_tau)


def recognize(kind: str, phi: Formula, *, tau: Vocabulary,
              cls: str | None = None,
              upsilon: Formula | None = None) -> CanonicalForm | None:
    """Decide membership in the decidable logic of the given shape.

    Reads gamma and the encoding sentence's code off phi, decodes the
    machine (or lambda) from the code, and rebuilds the form from them: phi
    is a member exactly when it is that form, so only canonical codes pass.
    Returns the components on success and None otherwise.  The caller's
    kind, class and upsilon are checked first, as build_form checks them;
    an error about the components read off phi means a non-member.
    """
    if kind not in RECOGNIZABLE_KINDS:
        raise FormError(f"only {RECOGNIZABLE_KINDS} have recognizers")
    if kind != "npconp8":
        if cls is None or upsilon is None:
            raise FormError(f"kind {kind!r} recognition needs a class and upsilon")
        upsilon_tau = _upsilon_tau(kind, tau, cls, upsilon)

    if not isinstance(phi, Or):
        return None
    first = phi.left
    if kind != "npconp8":
        first = first.left if isinstance(first, Or) else None
    w = psi_recognize(phi.right)
    if not isinstance(first, And) or w is None:
        return None
    gamma = first.right
    try:
        if kind == "npconp8":
            lam = godel_decode(w)
            built = _npconp8_form(tau, lam, godel_encode(lam), gamma,
                                  godel_encode(gamma))
        else:
            machine = decode_tm(w)
            if machine.kind != machine_kind_for(cls):
                return None
            built = _machine_form(kind, tau, cls, gamma, godel_encode(gamma),
                                  machine, encode_tm(machine), upsilon_tau)
    except (FragmentMismatch, PayloadNotCharFree, FormulaError, MalformedMachine):
        return None
    return built if built.formula == phi else None


# --- canonical generator families ---------------------------------------


def fo_sentences(vocab: Vocabulary, max_nodes: int) -> list[Formula]:
    """Every closed first-order sentence with at most max_nodes logical nodes.

    Canonical variable naming: the quantifier at nesting depth d binds x{d+1},
    so each sentence shape appears exactly once.  Numeric order atoms appear
    only for ordered vocabularies.
    """
    pools: dict[tuple[int, int], list[Formula]] = {}

    def atoms(depth: int) -> list[Formula]:
        vs = [f"x{i}" for i in range(1, depth + 1)]
        out: list[Formula] = []
        for name, arity in vocab.symbols:
            for args in itertools.product(vs, repeat=arity):
                out.append(Rel(name, args))
        for left in vs:
            for right in vs:
                out.append(Eq(left, right))
                out.append(Neq(left, right))
                if vocab.has_order:
                    out.append(Lt(left, right))
                    out.append(Bit(left, right))
        return out

    def pool(nodes: int, depth: int) -> list[Formula]:
        key = (nodes, depth)
        if key in pools:
            return pools[key]
        out: list[Formula] = []
        if nodes == 1:
            out = atoms(depth)
        else:
            out.extend(Not(f) for f in pool(nodes - 1, depth))
            bound = f"x{depth + 1}"
            for f in pool(nodes - 1, depth + 1):
                out.append(Exists(bound, f))
                out.append(Forall(bound, f))
            for left_nodes in range(1, nodes - 1):
                for left in pool(left_nodes, depth):
                    for right in pool(nodes - 1 - left_nodes, depth):
                        out.append(And(left, right))
                        out.append(Or(left, right))
        pools[key] = out
        return out

    sentences: list[Formula] = []
    for nodes in range(1, max_nodes + 1):
        sentences.extend(pool(nodes, 0))
    # pool refers to itself, so without this the pools would outlive the
    # call until the cyclic collector runs.
    pools.clear()
    return sentences


def machine_pool(kind: str, max_clock: int) -> list[OracleMachine]:
    """Small canonical machines of one resource kind, deterministic order."""
    out = []
    for start in RESERVED:
        for clock_c in range(1, max_clock + 1):
            for step_c in range(1, max_clock + 1):
                out.append(OracleMachine.make(RESERVED, start, kind,
                                              clock_c, step_c, {}))
    for clock_c in range(1, max_clock + 1):
        for step_c in range(1, max_clock + 1):
            out.append(identity_machine(kind, clock_c, step_c))
    return out


def _length_groups(coded: list) -> dict[int, list]:
    """The (code, item) pairs by the length of the code, each group in code
    order."""
    groups: dict[int, list] = {}
    for pair in sorted(coded, key=itemgetter(0)):
        groups.setdefault(len(pair[0]), []).append(pair)
    return groups


def _pairs_by_length(firsts: list, seconds: list):
    """Yield (a, x, b, y) for each (a, x) of firsts and (b, y) of seconds, in
    the order of len(a) + len(b), then a, then b, where the codes a (and the
    codes b) are distinct strings.  The walk goes up the totals and pairs
    only the length groups that make the current one."""
    left, right = _length_groups(firsts), _length_groups(seconds)
    for total in sorted({i + j for i in left for j in right}):
        row = sorted((pair for i, group in left.items() if total - i in right
                      for pair in group), key=itemgetter(0))
        for a, x in row:
            for b, y in right[total - len(a)]:
                yield a, x, b, y


def enumerate_logic(kind: str, *, tau: Vocabulary, cls: str | None = None,
                    upsilon: Formula | None = None, budget: int = 20):
    """Emit the first `budget` canonical-form sentences of the logic.

    Round r pairs the first-order sentences of at most r + 2 nodes, as
    gamma with machine_pool(kind, r + 1), or as lambda with themselves as
    gamma for npconp8.  The first round with at least `budget` pairs is
    used, and its pairs are ordered by total code length, then by the gamma
    (or lambda) code and the machine (or gamma) code as strings, so the
    stream is deterministic and injective and every emission is
    recognizer-accepted.  First-order sentences are char-free and lie in
    every fragment, so each is a gamma for every class.
    """
    if kind not in RECOGNIZABLE_KINDS:
        raise FormError(f"only {RECOGNIZABLE_KINDS} can be enumerated")
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if budget == 0:
        return
    if kind != "npconp8":
        if cls is None or upsilon is None:
            raise FormError(f"kind {kind!r} enumeration needs a class and upsilon")
        upsilon_tau = _upsilon_tau(kind, tau, cls, upsilon)
    rounds = 1
    while True:
        sentences = fo_sentences(tau, 2 + rounds)
        seconds = (sentences if kind == "npconp8"
                   else machine_pool(machine_kind_for(cls), rounds + 1))
        if len(sentences) * len(seconds) >= budget:
            break
        rounds += 1
    firsts = [(godel_encode(f), f) for f in sentences]
    if kind == "npconp8":
        pairs = _pairs_by_length(firsts, firsts)
        for lam_code, lam, gamma_code, gamma in itertools.islice(pairs, budget):
            yield _npconp8_form(tau, lam, lam_code, gamma, gamma_code).formula
        return
    pairs = _pairs_by_length(firsts, [(encode_tm(m), m) for m in seconds])
    for gamma_code, gamma, machine_code, machine in itertools.islice(pairs, budget):
        yield _machine_form(kind, tau, cls, gamma, gamma_code, machine,
                            machine_code, upsilon_tau).formula
