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
    Structure, Vocabulary, decimal, decode_bin, encode_bin, is_bits, is_isomorphic,
    parse_vocab, text_lines,
)
from .logic import parse_formula, print_formula, validate_sentence
from .semantics import EvalConfig, RecursionBudgetExhausted, models, sweep


class CliError(Exception):
    pass


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="ascii") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def read_structure(path: str) -> Structure:
    lines = [line for line, _ in text_lines(_read(path))]
    if (len(lines) < 2 or not lines[0].startswith("vocab ") or "=" not in lines[1]
            or lines[1].split("=", 1)[0].strip() != "n"):
        raise CliError(f"{path}: expected 'vocab ...' then 'n = ...'")
    try:
        vocab = parse_vocab(lines[0][len("vocab "):])
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from None
    try:
        n = decimal(lines[1].split("=", 1)[1].strip())
    except ValueError:
        raise CliError(f"{path}: bad size line {lines[1]!r}") from None
    relations: dict[str, set[tuple[int, ...]]] = {}
    for line in lines[2:]:
        name, sep, rest = line.partition("=")
        if not sep:
            raise CliError(f"{path}: bad relation line {line!r}")
        tuples = set()
        for tok in rest.split():
            try:
                if not (tok.startswith("(") and tok.endswith(")")):
                    raise ValueError
                entries = tok[1:-1]
                tuples.add(tuple(map(decimal, entries.split(","))) if entries else ())
            except ValueError:
                raise CliError(f"{path}: bad tuple {tok!r}") from None
        name = name.strip()
        if name in relations:
            raise CliError(f"{path}: symbol {name} given twice")
        relations[name] = tuples
    try:
        return Structure.make(vocab, n, relations)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from None


def read_sentence(path: str) -> logic.Formula:
    return parse_formula(_read(path).strip())


def read_bits(path: str) -> str:
    bits = "".join(_read(path).split())
    if not is_bits(bits):
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
        for line, raw in text_lines(_read(config_path)):
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
    if budget is None:
        return EvalConfig(ups_ord, ups_unord)
    return EvalConfig(ups_ord, ups_unord, budget)


def _base_upsilon(config: EvalConfig, ordered: bool) -> logic.Formula:
    upsilon = config.upsilon_ord if ordered else config.upsilon_unord
    if upsilon is None:
        which = "ordered" if ordered else "unordered"
        raise CliError(
            f"this kind needs the {which} distinguished sentence"
            " (--upsilon FILE or --config FILE --class TAG)"
        )
    return upsilon


# --- answers -------------------------------------------------------------


def _say(args, text: str) -> int:
    """Print the result text, and write it to --emit's file when given."""
    print(text)
    if getattr(args, "emit", None):
        with open(args.emit, "w", encoding="ascii") as handle:
            print(text, file=handle)
    return 0


def _truth(verdict: bool) -> int:
    print("true" if verdict else "false")
    return 0 if verdict else 1


def _report(witness, holds_line: str, found_line: str) -> int:
    """The answer of a bounded search: holds_line when it found no witness,
    else found_line and the witness."""
    if witness is None:
        print(holds_line)
        return 0
    print(found_line)
    print(witness)
    return 1


# --- subcommands ---------------------------------------------------------


def cmd_mc(args) -> int:
    a = read_structure(args.structure)
    sentence = read_sentence(args.sentence)
    validate_sentence(sentence, a.vocab)
    return _truth(models(a, sentence, _eval_config(args)))


def cmd_enc(args) -> int:
    return _say(args, encode_bin(read_structure(args.structure)))


def cmd_dec(args) -> int:
    return _say(args, str(decode_bin(_tau(args), read_bits(args.bits))))


def cmd_benc(args) -> int:
    return _say(args, aristotelian.benc(read_structure(args.structure)))


def cmd_uenc_len(args) -> int:
    print(aristotelian.uenc_length(read_structure(args.structure)))
    return 0


def cmd_reconstruct(args) -> int:
    return _say(args, str(aristotelian.reconstruct(_tau(args), read_bits(args.bits))))


def cmd_iso(args) -> int:
    return _truth(is_isomorphic(read_structure(args.left), read_structure(args.right)))


def cmd_canon(args) -> int:
    return _say(args, str(aristotelian.canonize(read_structure(args.structure))))


def cmd_op_apply(args) -> int:
    upsilon = read_sentence(args.sentence)
    tau = _tau(args)
    transport = logic.apply_T_ord if args.which == "ord" else logic.apply_T_unord
    return _say(args, print_formula(transport(upsilon, tau)))


def cmd_psi(args) -> int:
    if args.action == "encode":
        return _say(args, print_formula(logic.psi_encode(args.value)))
    w = logic.psi_recognize(read_sentence(args.value))
    if w is None:
        print("not an encoding sentence")
        return 1
    return _say(args, w)


def cmd_tm(args) -> int:
    if args.action == "encode":
        machine = machines.parse_machine(_read(args.machine))
        return _say(args, machines.encode_tm(machine))
    if args.action == "decode":
        text = machines.format_machine(machines.decode_tm(read_bits(args.machine)))
        return _say(args, text.removesuffix("\n"))
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
    return _report(witness, f"reduction condition holds up to n = {args.nmax}",
                   "violated by:")


def cmd_cfg(args) -> int:
    grammar = cfg.parse_grammar(_read(args.grammar))
    # A word is one symbol per character, or, when some terminal is longer
    # than one character, its symbols separated by blanks.
    blank = " " if any(len(t) > 1 for t in grammar.terminals) else ""
    if args.action == "member":
        if args.string is None:
            raise CliError("cfg member needs a query string")
        word = "" if args.string in ("eps", "-") else args.string
        return _truth(cfg.cyk_member(grammar, word.split() if blank else word))
    missing = cfg.find_missing(grammar, args.lenmax)
    if missing is None:
        print(f"no missing string up to length {args.lenmax}")
        return 0
    print(blank.join(missing) if missing else "eps")
    return 1


def cmd_charset(args) -> int:
    a = read_structure(args.struct)
    config = _eval_config(args)
    if args.kind in ("ord", "unord"):
        ordered = args.kind == "ord"
        _need(args, "gamma", "machine")
        gamma = read_sentence(args.gamma)
        machine = machines.parse_machine(_read(args.machine))
        transport, member = ((logic.apply_T_ord, charsets.member_S_ord) if ordered
                             else (logic.apply_T_unord, charsets.member_S_unord))
        upsilon_tau = transport(_base_upsilon(config, ordered), a.vocab)
        verdict = member(a, gamma, machine, upsilon_tau, config)
    elif args.kind == "npconp":
        _need(args, "lam", "gamma")
        lam = read_sentence(args.lam)
        gamma = read_sentence(args.gamma)
        verdict = charsets.member_S_npconp(a, lam, gamma, config)
    else:
        _need(args, "grammar")
        verdict = charsets.member_S_cfg(a, cfg.parse_grammar(_read(args.grammar)))
    return _truth(verdict)


def _form_args(args, kind: str):
    tau = _tau(args)
    cls = getattr(args, "cls", None)
    upsilon = None
    if kind in ("ord2", "ord5", "unord4", "unord6"):
        upsilon = _base_upsilon(_eval_config(args), kind.startswith("ord"))
    return tau, cls, upsilon


def cmd_form(args) -> int:
    kind = args.kind
    tau, cls, upsilon = _form_args(args, kind)
    if args.action == "enumerate":
        # --budget counts emissions here
        count = args.budget if args.budget is not None else 20
        for sentence in forms.enumerate_logic(kind, tau=tau, cls=cls,
                                              upsilon=upsilon, budget=count):
            print(print_formula(sentence))
        return 0
    if args.action == "build":
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
        return _say(args, print_formula(built.formula))
    if args.sentence is None:
        raise CliError("form recognize needs a sentence file")
    phi = read_sentence(args.sentence)
    found = forms.recognize(kind, phi, tau=tau, cls=cls, upsilon=upsilon)
    if found is None:
        print("not in the logic")
        return 1
    print(f"gamma: {print_formula(found.gamma)}")
    if found.machine is not None:
        # The rebuilt form's encoding sentence spells the machine code.
        print(f"machine: {logic.psi_recognize(found.formula.right)}")
    if found.lam is not None:
        print(f"lambda: {print_formula(found.lam)}")
    return 0


def _sweep_command(args, paths, holds_line: str, found_line: str) -> int:
    """The answer of a sweep for a structure that falsifies the sentence of
    the one path, or on which the sentences of the two paths disagree."""
    sentences = [read_sentence(path) for path in paths]
    tau, config = _tau(args), _eval_config(args)
    _validate(tau, *sentences)
    witness = sweep(tau, args.nmax, *sentences, config=config, jobs=args.jobs)
    return _report(witness, holds_line, found_line)


def cmd_valid_upto(args) -> int:
    return _sweep_command(args, [args.sentence], f"valid up to n = {args.nmax}",
                          "counterexample:")


def cmd_modeq_upto(args) -> int:
    return _sweep_command(args, [args.left, args.right],
                          f"equivalent up to n = {args.nmax}", "disagreement:")


# --- argument wiring ------------------------------------------------------


def _add_upsilon_opts(p) -> None:
    p.add_argument("--upsilon", action="append", metavar="FILE",
                   help="distinguished sentence file (repeatable)")
    p.add_argument("--config", metavar="FILE",
                   help="class-to-sentence configuration file")
    p.add_argument("--class", dest="cls", metavar="TAG",
                   help="complexity class tag (NL, P, coNP, NP, PSPACE)")
    p.add_argument("--budget", type=decimal, default=None,
                   help="characteristic-leaf recursion budget")


def _wire_mc(p) -> None:
    p.add_argument("structure")
    p.add_argument("sentence")
    _add_upsilon_opts(p)


def _wire_structure(p) -> None:
    p.add_argument("structure")
    p.add_argument("--emit")


def _wire_bits(p) -> None:
    p.add_argument("bits")
    p.add_argument("--tau", required=True)
    p.add_argument("--emit")


def _wire_uenc_len(p) -> None:
    p.add_argument("structure")


def _wire_iso(p) -> None:
    p.add_argument("left")
    p.add_argument("right")


def _wire_op_apply(p) -> None:
    p.add_argument("sentence")
    p.add_argument("--which", choices=("ord", "unord"), required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--emit")


def _wire_psi(p) -> None:
    p.add_argument("action", choices=("encode", "recognize"))
    p.add_argument("value", help="bit string (encode) or sentence file (recognize)")
    p.add_argument("--emit")


def _wire_tm(p) -> None:
    p.add_argument("action", choices=("run", "encode", "decode", "check-reduction"))
    p.add_argument("machine", help="machine file (or bits file for decode)")
    p.add_argument("--input", help="input bits file (run)")
    p.add_argument("--oracle", help="oracle sentence file (run)")
    p.add_argument("--gamma", help="oracle sentence file (check-reduction)")
    p.add_argument("--target", help="target sentence file (check-reduction)")
    p.add_argument("--tau")
    p.add_argument("--nmax", type=decimal, default=3)
    p.add_argument("--emit")
    _add_upsilon_opts(p)


def _wire_cfg(p) -> None:
    p.add_argument("action", choices=("member", "missing"))
    p.add_argument("grammar")
    p.add_argument("string", nargs="?", help="query string ('eps' for empty)")
    p.add_argument("--lenmax", type=decimal, default=4)


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


def _wire_sweep(positionals, p) -> None:
    for name in positionals:
        p.add_argument(name)
    p.add_argument("--tau", required=True)
    p.add_argument("--nmax", type=decimal, required=True)
    p.add_argument("--jobs", type=decimal, default=1)
    _add_upsilon_opts(p)


_COMMANDS = {
    "mc": ("model-check a sentence on a structure", _wire_mc, cmd_mc),
    "enc": ("binary encoding of a structure", _wire_structure, cmd_enc),
    "dec": ("decode a binary encoding", _wire_bits, cmd_dec),
    "benc": ("condensed encoding of a monadic structure", _wire_structure, cmd_benc),
    "uenc-len": ("length of the unary encoding", _wire_uenc_len, cmd_uenc_len),
    "reconstruct": ("rebuild a structure from benc bits", _wire_bits, cmd_reconstruct),
    "iso": ("brute-force isomorphism test", _wire_iso, cmd_iso),
    "canon": ("canonical relabeling of a monadic structure", _wire_structure,
              cmd_canon),
    "op-apply": ("transport a distinguished sentence", _wire_op_apply, cmd_op_apply),
    "psi": ("encoding sentences", _wire_psi, cmd_psi),
    "tm": ("oracle Turing machines", _wire_tm, cmd_tm),
    "cfg": ("context-free grammars", _wire_cfg, cmd_cfg),
    "charset": ("characteristic-set membership", _wire_charset, cmd_charset),
    "form": ("canonical forms", _wire_form, cmd_form),
    "valid-upto": ("bounded validity search",
                   functools.partial(_wire_sweep, ("sentence",)), cmd_valid_upto),
    "modeq-upto": ("bounded model-class comparison",
                   functools.partial(_wire_sweep, ("left", "right")), cmd_modeq_upto),
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
        help_text, wire, handler = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        wire(p)
        p.set_defaults(func=handler)
    return parser


_USER_ERRORS = (CliError, ValueError, RecursionBudgetExhausted)


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
