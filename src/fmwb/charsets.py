"""Decision procedures for the bounded reduction-agreement sets.

Each set asks: does the reduction condition (machine accepts the encoding
iff the target sentence holds) survive every structure up to an iterated-log
bound of the input's encoding length?  The verdict therefore depends on the
input structure only through that length, which makes the inner sweep safe
to memoize per bound.

The reserved characteristic leaves get their satisfaction relation from
exactly these procedures; building one requires leaf-free payloads, but
payloads decoded back out of bit strings are treated as untrusted and are
evaluated under the caller's recursion budget.
"""

from __future__ import annotations

from functools import lru_cache

from .cfg import Grammar, decode_grammar, encode_grammar, find_missing
from .core import Structure, Vocabulary, ell, encoding_length
from .logic import (
    SO_E, CharCfg, CharNpconp, CharOrd, CharUnord, CoCharUnord, Formula, Not,
    apply_T_ord, apply_T_unord, char_free, godel_decode, godel_encode,
    in_fragment, validate_sentence,
)
from .machines import OracleMachine, decode_tm, encode_tm, is_reduction_upto
from .semantics import EvalConfig, MissingDistinguished, sweep


class PayloadNotCharFree(ValueError):
    pass


class CharsetError(ValueError):
    pass


@lru_cache(maxsize=512)
def _reduction_agrees(vocab: Vocabulary, gamma: Formula, machine: OracleMachine,
                      upsilon_tau: Formula, bound: int,
                      config: EvalConfig) -> bool:
    # A bound below 2 admits no structure, so the condition holds vacuously.
    return bound < 2 or is_reduction_upto(machine, gamma, upsilon_tau, vocab,
                                          bound, config) is None


@lru_cache(maxsize=512)
def _complement_agrees(vocab: Vocabulary, lam: Formula, gamma: Formula,
                       bound: int, config: EvalConfig) -> bool:
    return sweep(vocab, bound, lam, Not(gamma), config) is None


def _require_char_free(name: str, f: Formula) -> None:
    if not char_free(f):
        raise PayloadNotCharFree(f"{name} must not contain characteristic leaves")


def member_S_ord(a: Structure, gamma: Formula, machine: OracleMachine,
                 upsilon_tau: Formula,
                 config: EvalConfig | None = None) -> bool:
    """Reduction agreement on every structure up to ell^(3) of the encoding length."""
    return _member_reduction(a, gamma, machine, upsilon_tau, config, True)


def member_S_unord(a: Structure, gamma: Formula, machine: OracleMachine,
                   upsilon_tau: Formula,
                   config: EvalConfig | None = None) -> bool:
    """As the ordered set, with bound ell^(2) and an unordered vocabulary."""
    return _member_reduction(a, gamma, machine, upsilon_tau, config, False)


def _member_reduction(a: Structure, gamma: Formula, machine: OracleMachine,
                      upsilon_tau: Formula, config: EvalConfig | None,
                      ordered: bool) -> bool:
    if a.vocab.has_order != ordered:
        raise CharsetError("the ordered set needs an ordered vocabulary" if ordered
                           else "the unordered set needs an order-free vocabulary")
    _require_char_free("gamma", gamma)
    _require_char_free("the transported distinguished sentence", upsilon_tau)
    validate_sentence(gamma, a.vocab)
    validate_sentence(upsilon_tau, a.vocab)
    bound = ell(encoding_length(a.vocab, a.n), 3 if ordered else 2)
    return _reduction_agrees(a.vocab, gamma, machine, upsilon_tau, bound,
                             config or EvalConfig())


def member_S_npconp(a: Structure, lam: Formula, gamma: Formula,
                    config: EvalConfig | None = None) -> bool:
    """Do the two sentences complement each other up to ell^(2) of the length?"""
    for name, f in (("lambda", lam), ("gamma", gamma)):
        _require_char_free(name, f)
        validate_sentence(f, a.vocab)
        if not in_fragment(f, SO_E):
            raise CharsetError(f"{name} must be an existential second-order sentence")
    bound = ell(encoding_length(a.vocab, a.n), 2)
    return _complement_agrees(a.vocab, lam, gamma, bound, config or EvalConfig())


def member_S_cfg(a: Structure, grammar: Grammar) -> bool:
    """Does the language contain every string up to ell^(3) of the length?"""
    return _grammar_covers(a.vocab, a.n, grammar)


def _grammar_covers(vocab: Vocabulary, n: int, grammar: Grammar) -> bool:
    if not vocab.has_order:
        raise CharsetError("the grammar-indexed set needs an ordered vocabulary")
    return find_missing(grammar, ell(encoding_length(vocab, n), 3)) is None


def char_sentence(kind: str, *, gamma: Formula | None = None,
                  machine: OracleMachine | None = None,
                  lam: Formula | None = None,
                  grammar: Grammar | None = None) -> Formula:
    """The reserved leaf whose satisfaction is the matching set membership."""
    if kind in ("ord", "unord", "counord"):
        if gamma is None or machine is None:
            raise CharsetError(f"kind {kind!r} needs gamma and machine")
        _require_char_free("gamma", gamma)
        cls = {"ord": CharOrd, "unord": CharUnord, "counord": CoCharUnord}[kind]
        return cls(godel_encode(gamma), encode_tm(machine))
    if kind == "npconp":
        if lam is None or gamma is None:
            raise CharsetError("kind 'npconp' needs lam and gamma")
        _require_char_free("lambda", lam)
        _require_char_free("gamma", gamma)
        return CharNpconp(godel_encode(lam), godel_encode(gamma))
    if kind == "cfg":
        if grammar is None:
            raise CharsetError("kind 'cfg' needs a grammar")
        return CharCfg(encode_grammar(grammar))
    raise CharsetError(f"unknown characteristic kind {kind!r}")


def leaf_verdict(vocab: Vocabulary, n: int, node: Formula, config: EvalConfig,
                 budget: int) -> bool:
    """Satisfaction of a characteristic leaf on every size-n structure over vocab.

    A structure enters only through its vocabulary and encoding length, so
    the verdict is shared by all structures of one size, and the heavy work
    memoizes on the bound.  Decoded payloads may themselves contain leaves;
    they are evaluated with the decremented budget rather than rejected, so
    that every parseable sentence has a defined (if possibly budget-limited)
    semantics.
    """
    if isinstance(node, CharCfg):
        if not vocab.has_order:
            raise CharsetError("grammar characteristic leaf on an unordered structure")
        return _grammar_covers(vocab, n, _decode_payload(decode_grammar, node.grammar_code))
    if not isinstance(node, (CharOrd, CharUnord, CoCharUnord, CharNpconp)):
        raise CharsetError(f"not a characteristic leaf: {node!r}")
    inner = EvalConfig(config.upsilon_ord, config.upsilon_unord, budget)
    if isinstance(node, CharNpconp):
        lam = _decode_payload(godel_decode, node.lambda_code)
        gamma = _decode_payload(godel_decode, node.gamma_code)
        validate_sentence(lam, vocab)
        validate_sentence(gamma, vocab)
        bound = ell(encoding_length(vocab, n), 2)
        return _complement_agrees(vocab, lam, gamma, bound, inner)
    ordered = isinstance(node, CharOrd)
    kind = "ordered" if ordered else "unordered"
    upsilon = config.upsilon_ord if ordered else config.upsilon_unord
    if upsilon is None:
        raise MissingDistinguished(
            f"{kind} characteristic leaves need a configured distinguished sentence"
        )
    if vocab.has_order != ordered:
        raise CharsetError(f"{kind} characteristic leaf on an "
                           f"{'unordered' if ordered else 'ordered'} structure")
    gamma = _decode_payload(godel_decode, node.gamma_code)
    machine = _decode_payload(decode_tm, node.machine_code)
    validate_sentence(gamma, vocab)
    upsilon_tau = (apply_T_ord if ordered else apply_T_unord)(upsilon, vocab)
    bound = ell(encoding_length(vocab, n), 3 if ordered else 2)
    verdict = _reduction_agrees(vocab, gamma, machine, upsilon_tau, bound, inner)
    return not verdict if isinstance(node, CoCharUnord) else verdict


@lru_cache(maxsize=128)
def _decode_payload(decode, code: str):
    """One payload of a leaf, decoded once for all its bounds and kinds."""
    return decode(code)
