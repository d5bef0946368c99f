"""Batch command-line front end.

Exit codes: 0 for true/success, 1 for a false or negative verdict, 2 for
usage and parse errors.  Output is deterministic for fixed inputs; --emit
additionally writes the machine-readable result to a file that the matching
reader command accepts back.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import aristotelian, cfg, charsets, forms, logic, machines
from .core import (
    Structure, Vocabulary, decode_bin, encode_bin, is_isomorphic, parse_vocab,
)
from .logic import parse_formula, print_formula, validate_sentence
from .semantics import EvalConfig, RecursionBudgetExhausted, models, sweep


class CliError(Exception):
    pass


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="ascii") as handle:
            return handle.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _emit(args, text: str) -> None:
    if getattr(args, "emit", None):
        with open(args.emit, "w", encoding="ascii") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")


def read_structure(path: str) -> Structure:
    lines = [ln.split("#", 1)[0].strip() for ln in _read(path).splitlines()]
    lines = [ln for ln in lines if ln]
    if (len(lines) < 2 or not lines[0].startswith("vocab ") or "=" not in lines[1]
            or lines[1].split("=", 1)[0].strip() != "n"):
        raise CliError(f"{path}: expected 'vocab ...' then 'n = ...'")
    vocab = parse_vocab(lines[0][len("vocab "):])
    n = int(lines[1].split("=", 1)[1])
    relations: dict[str, set[tuple[int, ...]]] = {}
    for line in lines[2:]:
        name, sep, rest = line.partition("=")
        if not sep:
            raise CliError(f"{path}: bad relation line {line!r}")
        tuples = set()
        for tok in rest.split():
            if not (tok.startswith("(") and tok.endswith(")")):
                raise CliError(f"{path}: bad tuple {tok!r}")
            tuples.add(tuple(int(t) for t in tok[1:-1].split(",") if t))
        name = name.strip()
        if name in relations:
            raise CliError(f"{path}: symbol {name} given twice")
        relations[name] = tuples
    return Structure.make(vocab, n, relations)


def read_sentence(path: str) -> logic.Formula:
    return parse_formula(_read(path).strip())


def read_bits(path: str) -> str:
    bits = "".join(_read(path).split())
    if bits.strip("01"):
        raise CliError(f"{path}: expected a bit string")
    return bits


def _tau(args) -> Vocabulary:
    if not getattr(args, "tau", None):
        raise CliError("this action needs --tau")
    return parse_vocab(args.tau)


def _validate(vocab: Vocabulary, *sentences) -> None:
    for sentence in sentences:
        validate_sentence(sentence, vocab)


def _need(args, *names) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise CliError(f"this action needs --{name.replace('_', '-')}")


def _eval_config(args) -> EvalConfig:
    """Resolve distinguished sentences from --upsilon and --config/--class.

    Each resolved sentence is slotted by its source vocabulary: over {R:1,<}
    it feeds the ordered leaves, over {R:2} the unordered ones.
    """
    paths = list(getattr(args, "upsilon", None) or [])
    config_path = getattr(args, "config", None)
    cls = getattr(args, "cls", None)
    if config_path and cls:
        entries = {}
        for raw in _read(config_path).splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise CliError(f"{config_path}: bad config line {raw!r}")
            entries[key.strip()] = value.strip()
        if cls not in entries:
            raise CliError(f"{config_path}: no distinguished sentence for {cls}")
        paths.append(entries[cls])
    ups_ord = ups_unord = None
    for path in paths:
        sentence = read_sentence(path)
        if logic.is_sentence_over(sentence, logic.SIGMA_ORD):
            ups_ord = sentence
        elif logic.is_sentence_over(sentence, logic.SIGMA_UNORD):
            ups_unord = sentence
        else:
            raise CliError(
                f"{path}: distinguished sentences live over"
                f" {logic.SIGMA_ORD} or {logic.SIGMA_UNORD}"
            )
    budget = getattr(args, "budget", None)
    return EvalConfig(ups_ord, ups_unord, budget if budget is not None else 8)


def _base_upsilon(config: EvalConfig, ordered: bool) -> logic.Formula:
    upsilon = config.upsilon_ord if ordered else config.upsilon_unord
    if upsilon is None:
        which = "ordered" if ordered else "unordered"
        raise CliError(
            f"this kind needs the {which} distinguished sentence"
            " (--upsilon FILE or --config FILE --class TAG)"
        )
    return upsilon


# --- subcommands ---------------------------------------------------------


def cmd_mc(args) -> int:
    a = read_structure(args.structure)
    sentence = read_sentence(args.sentence)
    validate_sentence(sentence, a.vocab)
    verdict = models(a, sentence, _eval_config(args))
    print("true" if verdict else "false")
    return 0 if verdict else 1


def cmd_enc(args) -> int:
    bits = encode_bin(read_structure(args.structure))
    print(bits)
    _emit(args, bits)
    return 0


def cmd_dec(args) -> int:
    text = str(decode_bin(_tau(args), read_bits(args.bits)))
    print(text)
    _emit(args, text)
    return 0


def cmd_benc(args) -> int:
    bits = aristotelian.benc(read_structure(args.structure))
    print(bits)
    _emit(args, bits)
    return 0


def cmd_uenc_len(args) -> int:
    print(aristotelian.uenc_length(read_structure(args.structure)))
    return 0


def cmd_reconstruct(args) -> int:
    text = str(aristotelian.reconstruct(_tau(args), read_bits(args.bits)))
    print(text)
    _emit(args, text)
    return 0


def cmd_iso(args) -> int:
    verdict = is_isomorphic(read_structure(args.left), read_structure(args.right))
    print("true" if verdict else "false")
    return 0 if verdict else 1


def cmd_canon(args) -> int:
    text = str(aristotelian.canonize(read_structure(args.structure)))
    print(text)
    _emit(args, text)
    return 0


def cmd_op_apply(args) -> int:
    upsilon = read_sentence(args.sentence)
    tau = _tau(args)
    if args.which == "ord":
        result = logic.apply_T_ord(upsilon, tau)
    else:
        result = logic.apply_T_unord(upsilon, tau)
    text = print_formula(result)
    print(text)
    _emit(args, text)
    return 0


def cmd_psi(args) -> int:
    if args.action == "encode":
        text = print_formula(logic.psi_encode(args.value))
        print(text)
        _emit(args, text)
        return 0
    w = logic.psi_recognize(read_sentence(args.value))
    if w is None:
        print("not an encoding sentence")
        return 1
    print(w)
    _emit(args, w)
    return 0


def cmd_tm(args) -> int:
    if args.action == "encode":
        bits = machines.encode_tm(machines.parse_machine(_read(args.machine)))
        print(bits)
        _emit(args, bits)
        return 0
    if args.action == "decode":
        text = machines.format_machine(machines.decode_tm(read_bits(args.machine)))
        print(text, end="")
        _emit(args, text)
        return 0
    machine = machines.parse_machine(_read(args.machine))
    if args.action == "run":
        _need(args, "input", "oracle")
        oracle = read_sentence(args.oracle)
        step_budget, args.budget = args.budget, None
        word, tau, config = read_bits(args.input), _tau(args), _eval_config(args)
        _validate(tau, oracle)
        accepted = machines.run(machine, word, oracle, tau,
                                max_steps=step_budget, config=config)
        print("accept" if accepted else "reject")
        return 0 if accepted else 1
    _need(args, "gamma", "target")
    gamma = read_sentence(args.gamma)
    target = read_sentence(args.target)
    tau, config = _tau(args), _eval_config(args)
    _validate(tau, gamma, target)
    witness = machines.is_reduction_upto(machine, gamma, target, tau, args.nmax,
                                         config)
    if witness is None:
        print(f"reduction condition holds up to n = {args.nmax}")
        return 0
    print("violated by:")
    print(witness)
    return 1


def cmd_cfg(args) -> int:
    grammar = cfg.parse_grammar(_read(args.grammar))
    if args.action == "member":
        if args.string is None:
            raise CliError("cfg member needs a query string")
        word = "" if args.string in ("eps", "-") else args.string
        verdict = cfg.cyk_member(grammar, word)
        print("true" if verdict else "false")
        return 0 if verdict else 1
    missing = cfg.find_missing(grammar, args.lenmax)
    if missing is None:
        print(f"no missing string up to length {args.lenmax}")
        return 0
    print("".join(missing) if missing else "eps")
    return 1


def cmd_charset(args) -> int:
    a = read_structure(args.struct)
    config = _eval_config(args)
    if args.kind == "ord":
        _need(args, "gamma", "machine")
        gamma = read_sentence(args.gamma)
        machine = machines.parse_machine(_read(args.machine))
        upsilon_tau = logic.apply_T_ord(_base_upsilon(config, True), a.vocab)
        verdict = charsets.member_S_ord(a, gamma, machine, upsilon_tau, config)
    elif args.kind == "unord":
        _need(args, "gamma", "machine")
        gamma = read_sentence(args.gamma)
        machine = machines.parse_machine(_read(args.machine))
        upsilon_tau = logic.apply_T_unord(_base_upsilon(config, False), a.vocab)
        verdict = charsets.member_S_unord(a, gamma, machine, upsilon_tau, config)
    elif args.kind == "npconp":
        _need(args, "lam", "gamma")
        lam = read_sentence(args.lam)
        gamma = read_sentence(args.gamma)
        verdict = charsets.member_S_npconp(a, lam, gamma, config)
    else:
        _need(args, "grammar")
        verdict = charsets.member_S_cfg(a, cfg.parse_grammar(_read(args.grammar)))
    print("true" if verdict else "false")
    return 0 if verdict else 1


def _form_args(args, kind: str):
    tau = _tau(args)
    cls = getattr(args, "cls", None)
    upsilon = None
    if kind in ("ord2", "ord5", "unord4", "unord6"):
        upsilon = _base_upsilon(_eval_config(args), kind.startswith("ord"))
    return tau, cls, upsilon


def cmd_form(args) -> int:
    kind = args.kind
    if args.action == "enumerate":
        # --budget counts emissions here; the leaf budget keeps its default
        count, args.budget = (args.budget if args.budget is not None else 20), None
        tau, cls, upsilon = _form_args(args, kind)
        for sentence in forms.enumerate_logic(kind, tau=tau, cls=cls,
                                              upsilon=upsilon, budget=count):
            print(print_formula(sentence))
        return 0
    if args.action == "build":
        tau, cls, upsilon = _form_args(args, kind)
        _need(args, "gamma")
        gamma = read_sentence(args.gamma)
        if kind == "npconp8":
            _need(args, "lam")
            built = forms.build_form(kind, gamma, tau=tau,
                                     lam=read_sentence(args.lam))
        else:
            _need(args, "machine")
            machine = machines.parse_machine(_read(args.machine))
            built = forms.build_form(kind, gamma, tau=tau, cls=cls,
                                     machine=machine, upsilon=upsilon)
        text = print_formula(built.formula)
        print(text)
        _emit(args, text)
        return 0
    tau, cls, upsilon = _form_args(args, kind)
    if args.sentence is None:
        raise CliError("form recognize needs a sentence file")
    phi = read_sentence(args.sentence)
    found = forms.recognize(kind, phi, tau=tau, cls=cls, upsilon=upsilon)
    if found is None:
        print("not in the logic")
        return 1
    print(f"gamma: {print_formula(found.gamma)}")
    if found.machine is not None:
        print(f"machine: {machines.encode_tm(found.machine)}")
    if found.lam is not None:
        print(f"lambda: {print_formula(found.lam)}")
    return 0


def cmd_valid_upto(args) -> int:
    f = read_sentence(args.sentence)
    tau, config = _tau(args), _eval_config(args)
    _validate(tau, f)
    witness = sweep(tau, args.nmax, f, None, config, args.jobs)
    if witness is None:
        print(f"valid up to n = {args.nmax}")
        return 0
    print("counterexample:")
    print(witness)
    return 1


def cmd_modeq_upto(args) -> int:
    f = read_sentence(args.left)
    g = read_sentence(args.right)
    tau, config = _tau(args), _eval_config(args)
    _validate(tau, f, g)
    witness = sweep(tau, args.nmax, f, g, config, args.jobs)
    if witness is None:
        print(f"equivalent up to n = {args.nmax}")
        return 0
    print("disagreement:")
    print(witness)
    return 1


# --- argument wiring ------------------------------------------------------


def _add_upsilon_opts(p) -> None:
    p.add_argument("--upsilon", action="append", metavar="FILE",
                   help="distinguished sentence file (repeatable)")
    p.add_argument("--config", metavar="FILE",
                   help="class-to-sentence configuration file")
    p.add_argument("--class", dest="cls", metavar="TAG",
                   help="complexity class tag (NL, P, coNP, NP, PSPACE)")
    p.add_argument("--budget", type=int, default=None,
                   help="characteristic-leaf recursion budget")


def _wire_mc(p) -> None:
    p.add_argument("structure")
    p.add_argument("sentence")
    _add_upsilon_opts(p)
    p.set_defaults(func=cmd_mc)


def _wire_enc(p) -> None:
    p.add_argument("structure")
    p.add_argument("--emit")
    p.set_defaults(func=cmd_enc)


def _wire_dec(p) -> None:
    p.add_argument("bits")
    p.add_argument("--tau", required=True)
    p.add_argument("--emit")
    p.set_defaults(func=cmd_dec)


def _wire_benc(p) -> None:
    p.add_argument("structure")
    p.add_argument("--emit")
    p.set_defaults(func=cmd_benc)


def _wire_uenc_len(p) -> None:
    p.add_argument("structure")
    p.set_defaults(func=cmd_uenc_len)


def _wire_reconstruct(p) -> None:
    p.add_argument("bits")
    p.add_argument("--tau", required=True)
    p.add_argument("--emit")
    p.set_defaults(func=cmd_reconstruct)


def _wire_iso(p) -> None:
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_iso)


def _wire_canon(p) -> None:
    p.add_argument("structure")
    p.add_argument("--emit")
    p.set_defaults(func=cmd_canon)


def _wire_op_apply(p) -> None:
    p.add_argument("sentence")
    p.add_argument("--which", choices=("ord", "unord"), required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--emit")
    p.set_defaults(func=cmd_op_apply)


def _wire_psi(p) -> None:
    p.add_argument("action", choices=("encode", "recognize"))
    p.add_argument("value", help="bit string (encode) or sentence file (recognize)")
    p.add_argument("--emit")
    p.set_defaults(func=cmd_psi)


def _wire_tm(p) -> None:
    p.add_argument("action", choices=("run", "encode", "decode", "check-reduction"))
    p.add_argument("machine", help="machine file (or bits file for decode)")
    p.add_argument("--input", help="input bits file (run)")
    p.add_argument("--oracle", help="oracle sentence file (run)")
    p.add_argument("--gamma", help="oracle sentence file (check-reduction)")
    p.add_argument("--target", help="target sentence file (check-reduction)")
    p.add_argument("--tau")
    p.add_argument("--nmax", type=int, default=3)
    p.add_argument("--emit")
    _add_upsilon_opts(p)
    p.set_defaults(func=cmd_tm)


def _wire_cfg(p) -> None:
    p.add_argument("action", choices=("member", "missing"))
    p.add_argument("grammar")
    p.add_argument("string", nargs="?", help="query string ('eps' for empty)")
    p.add_argument("--lenmax", type=int, default=4)
    p.set_defaults(func=cmd_cfg)


def _wire_charset(p) -> None:
    p.add_argument("action", choices=("member",))
    p.add_argument("--kind", choices=("ord", "unord", "npconp", "cfg"),
                   required=True)
    p.add_argument("--struct", required=True)
    p.add_argument("--gamma")
    p.add_argument("--machine")
    p.add_argument("--lambda", dest="lam")
    p.add_argument("--grammar")
    _add_upsilon_opts(p)
    p.set_defaults(func=cmd_charset)


def _wire_form(p) -> None:
    p.add_argument("action", choices=("build", "recognize", "enumerate"))
    p.add_argument("--kind", choices=forms.FORM_KINDS, required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--gamma")
    p.add_argument("--machine")
    p.add_argument("--lambda", dest="lam")
    p.add_argument("sentence", nargs="?", help="sentence file (recognize)")
    p.add_argument("--emit")
    _add_upsilon_opts(p)
    p.set_defaults(func=cmd_form)


def _wire_valid_upto(p) -> None:
    p.add_argument("sentence")
    p.add_argument("--tau", required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    _add_upsilon_opts(p)
    p.set_defaults(func=cmd_valid_upto)


def _wire_modeq_upto(p) -> None:
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--tau", required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    _add_upsilon_opts(p)
    p.set_defaults(func=cmd_modeq_upto)


_COMMANDS = {
    "mc": ("model-check a sentence on a structure", _wire_mc),
    "enc": ("binary encoding of a structure", _wire_enc),
    "dec": ("decode a binary encoding", _wire_dec),
    "benc": ("condensed encoding of a monadic structure", _wire_benc),
    "uenc-len": ("length of the unary encoding", _wire_uenc_len),
    "reconstruct": ("rebuild a structure from benc bits", _wire_reconstruct),
    "iso": ("brute-force isomorphism test", _wire_iso),
    "canon": ("canonical relabeling of a monadic structure", _wire_canon),
    "op-apply": ("transport a distinguished sentence", _wire_op_apply),
    "psi": ("encoding sentences", _wire_psi),
    "tm": ("oracle Turing machines", _wire_tm),
    "cfg": ("context-free grammars", _wire_cfg),
    "charset": ("characteristic-set membership", _wire_charset),
    "form": ("canonical forms", _wire_form),
    "valid-upto": ("bounded validity search", _wire_valid_upto),
    "modeq-upto": ("bounded model-class comparison", _wire_modeq_upto),
}


@functools.cache
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser with every subcommand, or with only the named one,
    built at the first call for that name and shared after it; parsing
    leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="fmwb", description="finite model theory workbench"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS if command is None else (command,):
        help_text, wire = _COMMANDS[name]
        wire(sub.add_parser(name, help=help_text))
    return parser


_USER_ERRORS = (
    CliError, ValueError, aristotelian.MalformedCode, logic.FormulaError,
    RecursionBudgetExhausted,
)


def main(argv=None) -> int:
    # A command parses with its own subparser alone; help and usage errors
    # about the command line as a whole come from the full parser.
    argv = sys.argv[1:] if argv is None else list(argv)
    args = rest = None
    if argv and argv[0] in _COMMANDS:
        args, rest = build_parser(argv[0]).parse_known_args(argv)
    if args is None or rest:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _USER_ERRORS as exc:
        print(f"fmwb: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
