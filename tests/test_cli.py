import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fmwb
from fmwb.cfg import parse_grammar
from fmwb.charsets import char_sentence, member_S_unord
from fmwb import cli
from fmwb.cli import build_parser, main, read_structure
from fmwb.core import Structure, Vocabulary, encode_bin
from fmwb.forms import build_form
from fmwb.logic import (
    CharOrd, apply_T_unord, godel_encode, parse_formula, print_formula, psi_encode,
)
from fmwb.machines import (
    BLANK, POLYTIME, RESERVED, SYMBOLS, OracleMachine, encode_tm,
    format_machine, identity_machine,
)
from fmwb.semantics import EvalConfig
from randgen import padded_identity_machine


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text if text.endswith("\n") else text + "\n")
        return str(path)

    return write, tmp_path


def _fmwb_process(argv, timeout):
    """`fmwb <argv>` as its own process: (exit code, stdout, stderr)."""
    src = str(Path(fmwb.__file__).resolve().parent.parent)
    env = {**os.environ, "COLUMNS": "80",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-m", "fmwb.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)
    return done.returncode, done.stdout, done.stderr


def test_mc_exit_codes(files, capsys):
    write, _ = files
    struct = write("c2.struct", "vocab E:2\nn = 2\nE = (0,1) (1,0)")
    sent = write("edge.sent", "Ex Ey E(x,y)")
    nosent = write("noedge.sent", "Ax Ay ~E(x,y)")
    assert main(["mc", struct, sent]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["mc", struct, nosent]) == 1
    assert capsys.readouterr().out.strip() == "false"


def test_parse_errors_exit_2(files, capsys):
    write, _ = files
    struct = write("c2.struct", "vocab E:2\nn = 2\nE = (0,1)")
    bad = write("bad.sent", "Ex R(x")
    assert main(["mc", struct, bad]) == 2
    assert "fmwb:" in capsys.readouterr().err


def test_enc_dec_roundtrip(files, capsys):
    write, tmp = files
    struct = write("a.struct", "vocab R:1 <\nn = 3\nR = (1)")
    emitted = str(tmp / "bits.txt")
    assert main(["enc", struct, "--emit", emitted]) == 0
    assert capsys.readouterr().out.strip() == "010"
    decoded = str(tmp / "back.struct")
    assert main(["dec", emitted, "--tau", "R:1 <", "--emit", decoded]) == 0
    capsys.readouterr()
    assert read_structure(decoded) == read_structure(struct)


def test_benc_uenc_reconstruct(files, capsys):
    write, tmp = files
    struct = write("m.struct", "vocab R:1\nn = 2\nR = (0)")
    bits = str(tmp / "benc.txt")
    assert main(["benc", struct, "--emit", bits]) == 0
    assert capsys.readouterr().out.strip() == "10101111011"
    assert main(["uenc-len", struct]) == 0
    assert capsys.readouterr().out.strip() == "1403"
    assert main(["reconstruct", bits, "--tau", "R:1"]) == 0
    out = capsys.readouterr().out
    assert "n = 2" in out and "R = (1)" in out


def test_iso_and_canon(files, capsys):
    write, _ = files
    a = write("a.struct", "vocab R:1\nn = 2\nR = (0)")
    b = write("b.struct", "vocab R:1\nn = 2\nR = (1)")
    c = write("c.struct", "vocab R:1\nn = 2\nR =")
    assert main(["iso", a, b]) == 0
    capsys.readouterr()
    assert main(["iso", a, c]) == 1
    capsys.readouterr()
    assert main(["canon", a]) == 0
    assert "R = (1)" in capsys.readouterr().out


def test_op_apply(files, capsys):
    write, _ = files
    ups = write("u.sent", "Ex R(x)")
    assert main(["op-apply", ups, "--which", "ord", "--tau", "E:2 <"]) == 0
    assert capsys.readouterr().out.strip() == "Ex Ey1 E(y1,x)"
    ups2 = write("u2.sent", "Ex Ey R(x,y)")
    assert main(["op-apply", ups2, "--which", "unord", "--tau", "H:3"]) == 0
    assert capsys.readouterr().out.strip() == "Ex Ey Ez1 H(x,y,z1)"
    assert main(["op-apply", ups2, "--which", "unord", "--tau", "P:1"]) == 2
    capsys.readouterr()
    # a bound Q would capture the transported atom, or leave one of arity 1
    for text in ("EQ:1 (Ex Q(x) & Ax R(x))", "EQ:2 Ex R(x)"):
        bound = write("bound.sent", text)
        assert main(["op-apply", bound, "--which", "ord", "--tau", "Q:1 <"]) == 2
        assert capsys.readouterr() == (
            "", "fmwb: bound relation variables must not shadow the target symbol Q\n")


def test_psi_roundtrip(files, capsys):
    write, tmp = files
    emitted = str(tmp / "psi.sent")
    assert main(["psi", "encode", "101", "--emit", emitted]) == 0
    capsys.readouterr()
    assert main(["psi", "recognize", emitted]) == 0
    assert capsys.readouterr().out.strip() == "101"
    other = write("o.sent", "Ex1 x1 = x1")
    assert main(["psi", "recognize", other]) == 1


def test_tm_commands(files, capsys):
    write, tmp = files
    machine = write("id.tm", format_machine(identity_machine()))
    cyc = Structure.make(Vocabulary((("E", 2),)), 2, {"E": [(0, 1), (1, 0)]})
    word = write("in.bits", encode_bin(cyc))
    edge = write("edge.sent", "Ex Ey E(x,y)")
    assert main(["tm", "run", machine, "--input", word, "--oracle", edge,
                 "--tau", "E:2"]) == 0
    assert capsys.readouterr().out.strip() == "accept"
    bits = str(tmp / "m.bits")
    assert main(["tm", "encode", machine, "--emit", bits]) == 0
    capsys.readouterr()
    assert main(["tm", "decode", bits]) == 0
    assert "kind polytime" in capsys.readouterr().out
    assert main(["tm", "check-reduction", machine, "--gamma", edge,
                 "--target", edge, "--tau", "E:2", "--nmax", "3"]) == 0
    capsys.readouterr()


def test_tm_check_reduction_prints_the_first_violating_structure(files, capsys):
    # gamma and the target differ first on the directed 3-cycle 0 -> 2 -> 1,
    # which comes after every size-2 structure.
    write, _ = files
    machine = write("id.tm", format_machine(identity_machine()))
    edge = write("edge.sent", "Ex Ey E(x,y)")
    acyclic = write("acyclic.sent", "(Ex Ey E(x,y) & ~Ex Ey Ez (x != y & y != z"
                    " & x != z & E(x,y) & E(y,z) & E(z,x)))")
    assert main(["tm", "check-reduction", machine, "--gamma", edge,
                 "--target", acyclic, "--tau", "E:2", "--nmax", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "violated by:\nvocab E:2\nn = 3\nE = (0,2) (1,0) (2,1)\n"
    assert captured.err == ""
    assert main(["tm", "check-reduction", machine, "--gamma", edge,
                 "--target", acyclic, "--tau", "E:2", "--nmax", "2"]) == 0
    assert capsys.readouterr().out == "reduction condition holds up to n = 2\n"


def test_cfg_commands(files, capsys):
    write, _ = files
    grammar = write("g.cfg", "S -> a S b | eps")
    assert main(["cfg", "member", grammar, "aabb"]) == 0
    capsys.readouterr()
    assert main(["cfg", "member", grammar, "eps"]) == 0
    capsys.readouterr()
    assert main(["cfg", "member", grammar, "aab"]) == 1
    capsys.readouterr()
    assert main(["cfg", "missing", grammar, "--lenmax", "3"]) == 1
    assert capsys.readouterr().out.strip() == "a"


def test_cfg_words_of_multi_character_terminals(files, capsys):
    write, _ = files
    grammar = write("g.cfg", "S -> ab S | c | eps")
    assert main(["cfg", "missing", grammar, "--lenmax", "2"]) == 1
    assert capsys.readouterr().out == "c ab\n"
    for word, verdict in (("ab ab c", 0), ("ab", 0), ("eps", 0), ("c ab", 1),
                          ("c c", 1)):
        assert main(["cfg", "member", grammar, word]) == verdict
        assert capsys.readouterr().out == ("true\n" if verdict == 0 else "false\n")
    assert main(["cfg", "member", grammar, "abc"]) == 2
    assert "symbol 'abc' is not in ('ab', 'c')" in capsys.readouterr().err


def test_cfg_missing_words_read_back_as_cyk_judges_them(files, capsys):
    from fmwb.cfg import cyk_member, find_missing
    write, _ = files
    for text in ("S -> ab S | c | eps", "S -> x S yy | eps\nS -> yy",
                 "S -> a S b | eps\nS -> c", "S -> A B\nA -> a | aa\nB -> b"):
        path = write("g.cfg", text)
        grammar = parse_grammar(text)
        for lenmax in range(4):
            missing = find_missing(grammar, lenmax)
            assert main(["cfg", "missing", path, "--lenmax", str(lenmax)]) == (
                0 if missing is None else 1)
            printed = capsys.readouterr().out.strip()
            if missing is None:
                continue
            verdict = cyk_member(grammar, missing)
            assert main(["cfg", "member", path, printed]) == (0 if verdict else 1)
            assert capsys.readouterr().out == f"{str(verdict).lower()}\n"


def test_charset_and_form_commands(files, capsys):
    write, tmp = files
    struct = write("a.struct", "vocab R1:1 <\nn = 2\nR1 = (0)")
    ups = write("ups.sent", "Ex R(x)")
    gamma = write("gamma.sent", "Ex R1(x)")
    machine = write("id.tm", format_machine(identity_machine()))
    assert main(["charset", "member", "--kind", "ord", "--struct", struct,
                 "--gamma", gamma, "--machine", machine,
                 "--upsilon", ups]) == 0
    capsys.readouterr()
    built = str(tmp / "form.sent")
    assert main(["form", "build", "--kind", "ord5", "--tau", "R1:1 <",
                 "--gamma", gamma, "--machine", machine, "--upsilon", ups,
                 "--class", "NP", "--emit", built]) == 0
    capsys.readouterr()
    assert main(["form", "recognize", built, "--kind", "ord5", "--tau",
                 "R1:1 <", "--upsilon", ups, "--class", "NP"]) == 0
    out = capsys.readouterr().out
    assert "gamma: Ex R1(x)" in out
    other = write("bad.sent", "Ex R1(x)")
    assert main(["form", "recognize", other, "--kind", "ord5", "--tau",
                 "R1:1 <", "--upsilon", ups, "--class", "NP"]) == 1
    capsys.readouterr()
    assert main(["form", "enumerate", "--kind", "npconp8", "--tau", "P:1",
                 "--budget", "5"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 5


def test_config_file_resolution(files, capsys):
    write, _ = files
    ups = write("ups.sent", "Ex R(x)")
    config = write("classes.cfg", f"NP = {ups}")
    struct = write("a.struct", "vocab R1:1 <\nn = 2\nR1 = (0)")
    gamma = write("gamma.sent", "Ex R1(x)")
    machine = write("id.tm", format_machine(identity_machine()))
    assert main(["charset", "member", "--kind", "ord", "--struct", struct,
                 "--gamma", gamma, "--machine", machine,
                 "--config", config, "--class", "NP"]) == 0
    capsys.readouterr()
    assert main(["charset", "member", "--kind", "ord", "--struct", struct,
                 "--gamma", gamma, "--machine", machine,
                 "--config", config, "--class", "P"]) == 2


def test_files_take_comments_and_blank_lines(files, capsys):
    # Each file answers as its plain copy: '#' starts a comment, and the
    # blanks around a line's content and lines without content go.
    write, _ = files

    def commented(name, text):
        lines = [f"  {line}\t# line {i}" for i, line in enumerate(text.splitlines())]
        return write(name, f"# {name}\n\n" + "\n   \n".join(lines) + "\n#")

    ups = write("ups.sent", "Ex R(x)")
    texts = {
        "a.struct": "vocab R1:1 <\nn = 2\nR1 = (0)",
        "id.tm": format_machine(identity_machine()),
        "g.cfg": "S -> a S b | eps\nS -> c",
        "classes.cfg": f"NP = {ups}",
    }
    gamma = write("gamma.sent", "Ex R1(x)")
    outcomes = []
    for write_file in (write, commented):
        paths = {name: write_file(name, text) for name, text in texts.items()}
        for argv in (["enc", paths["a.struct"]], ["tm", "encode", paths["id.tm"]],
                     ["cfg", "missing", paths["g.cfg"], "--lenmax", "3"],
                     ["charset", "member", "--kind", "ord", "--struct", paths["a.struct"],
                      "--gamma", gamma, "--machine", paths["id.tm"],
                      "--config", paths["classes.cfg"], "--class", "NP"]):
            outcomes.append((main(argv), capsys.readouterr()))
    assert outcomes[:4] == outcomes[4:]
    assert [code for code, _ in outcomes[:4]] == [0, 0, 1, 0]


def test_file_errors_quote_the_line_as_written(files, capsys):
    write, _ = files
    machine = write("bad.tm", format_machine(identity_machine()) + " q0 0 _ -> q0 # short")
    grammar = write("bad.g", "S -> a\n\tS a  # no arrow")
    config = write("bad.cfg", "NP # no path")
    struct = write("a.struct", "vocab R1:1 <\nn = 2")
    sentence = write("phi.sent", "Ex R1(x)")
    for argv, error in (
            (["tm", "encode", machine], "bad transition line ' q0 0 _ -> q0 # short'"),
            (["cfg", "missing", grammar], "bad production line '\\tS a  # no arrow'"),
            (["mc", struct, sentence, "--config", config, "--class", "NP"],
             f"{config}: bad config line 'NP # no path'")):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"fmwb: {error}\n")


def test_charset_member_unord_answers_as_member_S_unord(files, capsys):
    write, _ = files
    struct = write("a.struct", "vocab E:2\nn = 2\nE = (0,1) (1,1)")
    machine = write("id.tm", format_machine(identity_machine()))
    ups_ord = write("ord.sent", "Ex R(x)")
    ups_unord = write("unord.sent", "Ax Ey R(x,y)")
    a, upsilon = read_structure(struct), parse_formula("Ax Ey R(x,y)")
    config = EvalConfig(None, upsilon)
    for text in ("Ax Ey E(x,y)", "Ex Ey E(x,y)"):
        gamma = write("gamma.sent", text)
        want = member_S_unord(a, parse_formula(text), identity_machine(),
                              apply_T_unord(upsilon, a.vocab), config)
        assert main(["charset", "member", "--kind", "unord", "--struct", struct,
                     "--gamma", gamma, "--machine", machine,
                     "--upsilon", ups_unord]) == (0 if want else 1)
        assert capsys.readouterr() == (f"{str(want).lower()}\n", "")
    # each side refuses to run on the other side's distinguished sentence alone
    for kind, which, ups in (("ord", "ordered", ups_unord),
                             ("unord", "unordered", ups_ord)):
        assert main(["charset", "member", "--kind", kind, "--struct", struct,
                     "--gamma", gamma, "--machine", machine,
                     "--upsilon", ups]) == 2
        assert capsys.readouterr() == (
            "", f"fmwb: this kind needs the {which} distinguished sentence"
            " (--upsilon FILE or --config FILE --class TAG)\n")


# Per command and action with --emit, its argv without --emit, from a
# function of the fixture's file writer.
_MONADIC = "vocab R:1\nn = 3\nR = (0) (2)"
_EMITTING = {
    "enc": lambda w: ["enc", w("a.struct", _MONADIC)],
    "dec": lambda w: ["dec", w("w.bits", "010"), "--tau", "R:1 <"],
    "benc": lambda w: ["benc", w("a.struct", _MONADIC)],
    "reconstruct": lambda w: ["reconstruct", w("b.bits", "10101111011"),
                              "--tau", "R:1"],
    "canon": lambda w: ["canon", w("a.struct", _MONADIC)],
    "op-apply": lambda w: ["op-apply", w("u.sent", "Ex R(x)"), "--which", "ord",
                           "--tau", "E:2 <"],
    "psi encode": lambda w: ["psi", "encode", "101"],
    "psi recognize": lambda w: ["psi", "recognize",
                                w("p.sent", print_formula(psi_encode("101")))],
    "tm encode": lambda w: ["tm", "encode",
                            w("id.tm", format_machine(identity_machine()))],
    "tm decode": lambda w: ["tm", "decode",
                            w("id.bits", encode_tm(identity_machine()))],
    "form build": lambda w: [
        "form", "build", "--kind", "ord5", "--tau", "R1:1 <",
        "--gamma", w("g.sent", "Ex R1(x)"),
        "--machine", w("id.tm", format_machine(identity_machine())),
        "--upsilon", w("u.sent", "Ex R(x)"), "--class", "NP"],
}


@pytest.mark.parametrize("command", list(_EMITTING))
def test_emit_writes_what_is_printed(command, files, capsys):
    write, tmp = files
    emitted = tmp / "emitted"
    assert main(_EMITTING[command](write) + ["--emit", str(emitted)]) == 0
    out = capsys.readouterr().out
    assert out and emitted.read_text() == out


def test_valid_and_modeq(files, capsys):
    write, _ = files
    taut = write("t.sent", "Ax x = x")
    exists_p = write("p.sent", "Ex P(x)")
    not_all_not = write("q.sent", "~Ax ~P(x)")
    assert main(["valid-upto", taut, "--tau", "P:1", "--nmax", "3"]) == 0
    capsys.readouterr()
    assert main(["valid-upto", exists_p, "--tau", "P:1", "--nmax", "3"]) == 1
    capsys.readouterr()
    assert main(["modeq-upto", exists_p, not_all_not, "--tau", "P:1",
                 "--nmax", "4"]) == 0
    capsys.readouterr()
    assert main(["modeq-upto", exists_p, taut, "--tau", "P:1",
                 "--nmax", "3", "--jobs", "2"]) == 1
    assert "disagreement" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["valid-upto", "modeq-upto", "check-reduction",
                                     "run"])
def test_sentences_are_validated_against_tau(files, capsys, command):
    write, _ = files
    good = write("good.sent", "Ex E(x,x)")
    machine = write("id.tm", format_machine(identity_machine()))
    word = write("in.bits", "0110")
    # a free variable, a symbol outside the vocabulary, a wrong arity
    for text in ("Ex E(x,y)", "Ex F(x,x)", "Ex E(x)"):
        bad = write("bad.sent", text)
        argv = {
            "valid-upto": ["valid-upto", bad, "--nmax", "2"],
            "modeq-upto": ["modeq-upto", good, bad, "--nmax", "2"],
            "check-reduction": ["tm", "check-reduction", machine,
                                "--gamma", good, "--target", bad, "--nmax", "2"],
            "run": ["tm", "run", machine, "--input", word, "--oracle", bad],
        }[command] + ["--tau", "E:2"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("fmwb: ")


@pytest.mark.parametrize("command", ["valid-upto", "modeq-upto", "check-reduction"])
def test_sweeps_need_nmax_of_at_least_two(files, capsys, command):
    write, _ = files
    good = write("good.sent", "Ex E(x,x)")
    machine = write("id.tm", format_machine(identity_machine()))
    argv = {
        "valid-upto": ["valid-upto", good],
        "modeq-upto": ["modeq-upto", good, good],
        "check-reduction": ["tm", "check-reduction", machine,
                            "--gamma", good, "--target", good],
    }[command] + ["--tau", "E:2"]
    for nmax in ("1", "-3"):
        assert main(argv + ["--nmax", nmax]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("fmwb: ")


@pytest.mark.parametrize("command", ["valid-upto", "modeq-upto"])
def test_sweeps_need_jobs_of_at_least_one(files, capsys, command):
    write, _ = files
    good = write("good.sent", "Ex E(x,x)")
    argv = {
        "valid-upto": ["valid-upto", good],
        "modeq-upto": ["modeq-upto", good, good],
    }[command] + ["--tau", "E:2", "--nmax", "2"]
    for jobs in ("0", "-1"):
        assert main(argv + ["--jobs", jobs]) == 2
        assert capsys.readouterr() == ("", f"fmwb: jobs must be >= 1, got {jobs}\n")


def test_numeric_options_take_ascii_decimals_only(files, capsys):
    # int() alone reads '0_3' and ' +3' as 3, and other scripts' digits as
    # theirs, so each of these command lines used to run.
    write, _ = files
    good = write("good.sent", "Ax (E(x,x) | ~E(x,x))")
    machine = write("id.tm", format_machine(identity_machine()))
    grammar = write("g.cfg", "S -> a S | eps")
    sweep = ["valid-upto", good, "--tau", "E:2"]
    reduction = ["tm", "check-reduction", machine, "--gamma", good, "--target", good,
                 "--tau", "E:2"]
    for argv, flag, value in (
            (sweep, "--nmax", "0_3"), (sweep, "--nmax", " +3"),
            (sweep, "--nmax", "\u0663"), (sweep + ["--nmax", "2"], "--jobs", "\uff12"),
            (sweep + ["--nmax", "2"], "--budget", "0_8"),
            (reduction, "--nmax", "0_3"),
            (["cfg", "missing", grammar], "--lenmax", "1_0")):
        code, out, err = _outcome(capsys, main, argv + [flag, value])
        assert (code, out) == (2, "")
        assert err.endswith(f"argument {flag}: invalid decimal value: {value!r}\n")


def test_vocabulary_arities_are_ascii_decimals(files, capsys):
    write, _ = files
    # E:\u0663 was read as E:3; E:\u00b2 leaked int()'s message.
    cube = write("cube.sent", "Ex E(x,x,x)")
    for tau in ("E:\u0663", "E:\u00b2"):
        assert main(["valid-upto", cube, "--tau", tau, "--nmax", "2"]) == 2
        assert capsys.readouterr() == (
            "", f"fmwb: bad vocabulary token {tau!r}, expected name:arity\n")


def test_vocabulary_symbols_are_relation_names(files, capsys):
    # Both command lines used to run, over a symbol no sentence can name.
    write, _ = files
    struct = write("t.struct", "vocab e-f:1\nn = 2\ne-f = (0)")
    assert main(["enc", struct]) == 2
    assert capsys.readouterr() == (
        "", f"fmwb: {struct}: bad relation symbol 'e-f', expected [A-Z][A-Z0-9_]*\n")
    sent = write("t.sent", "Ex x = x")
    assert main(["valid-upto", sent, "--tau", ":2 e:1", "--nmax", "2"]) == 2
    assert capsys.readouterr() == (
        "", "fmwb: bad relation symbol '', expected [A-Z][A-Z0-9_]*\n")


def test_grammar_files_spell_the_empty_body_eps_alone(files, capsys):
    # An empty alternative was read as eps, and eps among other symbols as
    # a terminal named eps, which is also how the empty word is printed.
    write, _ = files
    for text, error in (
            ("S -> a | | b", "empty alternative in 'S -> a | | b', write eps for the empty body"),
            ("S -> a | b |", "empty alternative in 'S -> a | b |', write eps for the empty body"),
            ("S -> a eps b", "eps must stand alone in 'S -> a eps b'")):
        grammar = write("g.cfg", text)
        for argv in (["member", grammar, "eps"], ["missing", grammar, "--lenmax", "1"]):
            assert main(["cfg", *argv]) == 2
            assert capsys.readouterr() == ("", f"fmwb: {error}\n")


def test_a_file_that_is_not_ascii_is_named(files, capsys):
    _, tmp = files
    path = tmp / "arabic.struct"
    path.write_text("vocab E:\u0663\nn = 2\n", encoding="utf-8")
    assert main(["enc", str(path)]) == 2
    assert capsys.readouterr() == (
        "", f"fmwb: cannot read {path}: 'ascii' codec can't decode byte 0xd9"
            " in position 8: ordinal not in range(128)\n")


def test_cycling_least_fixpoint_is_an_error(files):
    # Q occurs positively, but the inner PFP makes the stages alternate.
    write, _ = files
    lfp = write("lfp.sent", "Ex LFP[Q,u: PFP[S,v: ((Q(v) & ~S(v)) | u = v)](u)](x)")
    struct = write("a.struct", "vocab R:1 <\nn = 2\nR = (0)")
    for argv in (["mc", struct, lfp],
                 ["valid-upto", lfp, "--tau", "R:1 <", "--nmax", "2"]):
        rc, out, err = _fmwb_process(argv, timeout=60)
        assert rc == 2
        assert out == ""
        assert err.startswith("fmwb: ") and "least fixpoint" in err


def test_an_exhausted_leaf_budget_is_an_error(files, capsys):
    write, _ = files
    grammar = parse_grammar("S -> a S b | eps")
    leaf = write("leaf.sent", print_formula(char_sentence("cfg", grammar=grammar)))
    edge = write("edge.sent", "Ex Ey E(x,y)")
    machine = write("id.tm", format_machine(identity_machine()))
    struct = write("a.struct", "vocab E:2\nn = 2\nE = (0,1)")
    sweep = ["--tau", "E:2", "--nmax", "2", "--budget", "0"]
    for argv in (["mc", struct, leaf, "--budget", "0"],
                 ["valid-upto", leaf] + sweep,
                 ["modeq-upto", leaf, edge] + sweep,
                 ["tm", "check-reduction", machine, "--gamma", edge,
                  "--target", leaf] + sweep):
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", "fmwb: nested characteristic leaves exceeded the recursion budget\n")


def test_mc_decides_a_spinning_leaf_with_huge_clocks(files):
    # The machine never halts and its clocks are 2^40, so only its first
    # repeated configuration ends each run before 2^63 steps.
    write, _ = files
    spin = OracleMachine.make(
        ("q0",) + RESERVED, "q0", POLYTIME, 2**40, 2**40,
        {("q0", sym, BLANK): ("q0", BLANK, "S", "S", "") for sym in SYMBOLS})
    leaf = char_sentence("unord", gamma=parse_formula("Ex E(x,x)"), machine=spin)
    sentence = write("spin.sent", print_formula(leaf))
    ups = write("ups.sent", "Ax Ey R(x,y)")
    struct = write("a.struct", "vocab E:2\nn = 4\nE = (0,1)")
    assert _fmwb_process(["mc", struct, sentence, "--upsilon", ups],
                         timeout=30) == (1, "false\n", "")


def test_mc_decides_an_unord6_form_at_once(files, capsys):
    # Both leaves of the form sweep every E:2 structure up to n = 3 with the
    # identity machine; the whole check takes well under a second.
    write, tmp = files
    gamma = write("gamma.sent", "Ax Ey E(x,y)")
    ups = write("ups.sent", "Ax Ey R(x,y)")
    machine = write("id.tm", format_machine(identity_machine()))
    form = str(tmp / "form.sent")
    assert main(["form", "build", "--kind", "unord6", "--tau", "E:2",
                 "--class", "NP", "--gamma", gamma, "--machine", machine,
                 "--upsilon", ups, "--emit", form]) == 0
    capsys.readouterr()
    struct = write("p3.struct", "vocab E:2\nn = 3\nE = (0,1) (1,2)")
    assert _fmwb_process(["mc", struct, form, "--upsilon", ups],
                         timeout=30) == (1, "false\n", "")


def test_one_process_answers_as_separate_processes(files, capsys, monkeypatch):
    # The parser is built once per process; calls in sequence must not see
    # each other.
    monkeypatch.setenv("COLUMNS", "80")
    write, _ = files
    struct = write("c2.struct", "vocab E:2\nn = 2\nE = (0,1) (1,0)")
    edge = write("edge.sent", "Ex Ey E(x,y)")
    machine = write("id.tm", format_machine(identity_machine()))
    word = write("w.bits", encode_bin(read_structure(struct)))
    calls = [
        ["mc", struct, edge],
        ["valid-upto", edge, "--tau", "E:2", "--nmax", "3"],
        ["--help"],
        ["tm", "run", machine, "--input", word, "--oracle", edge,
         "--tau", "E:2", "--budget", "3"],
        ["mc", struct],
        ["tm", "run", machine, "--input", word, "--oracle", edge,
         "--tau", "E:2"],
        ["enc", struct],
        ["valid-upto", edge, "--tau", "E:2", "--nmax", "3", "--bogus"],
        ["form", "--help"],
        ["bogus"],
        [],
        ["enc", struct, "extra"],
    ]
    for argv in calls:
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        captured = capsys.readouterr()
        assert (rc, captured.out, captured.err) == _fmwb_process(argv, 30), argv


# Per command, an argv the full parser accepts: with --bogus appended, the
# one unrecognized argument is what goes wrong.
_ACCEPTED = {
    "mc": ["mc", "a.struct", "phi.sent"],
    "enc": ["enc", "a.struct"],
    "dec": ["dec", "w.bits", "--tau", "E:2"],
    "benc": ["benc", "a.struct"],
    "uenc-len": ["uenc-len", "a.struct"],
    "reconstruct": ["reconstruct", "w.bits", "--tau", "R:1"],
    "iso": ["iso", "a.struct", "b.struct"],
    "canon": ["canon", "a.struct"],
    "op-apply": ["op-apply", "u.sent", "--which", "ord", "--tau", "E:2 <"],
    "psi": ["psi", "encode", "101"],
    "tm": ["tm", "encode", "m.tm"],
    "cfg": ["cfg", "member", "g.cfg", "ab"],
    "charset": ["charset", "member", "--kind", "cfg", "--struct", "a.struct"],
    "form": ["form", "enumerate", "--kind", "npconp8", "--tau", "P:1"],
    "valid-upto": ["valid-upto", "phi.sent", "--tau", "E:2", "--nmax", "2"],
    "modeq-upto": ["modeq-upto", "f.sent", "g.sent", "--tau", "E:2", "--nmax", "2"],
}


def _outcome(capsys, call, argv):
    """(exit code, stdout, stderr) of call(argv), which must exit."""
    with pytest.raises(SystemExit) as exited:
        call(argv)
    captured = capsys.readouterr()
    return exited.value.code, captured.out, captured.err


def test_every_command_has_an_accepted_argv():
    assert list(_ACCEPTED) == list(cli._COMMANDS)
    for argv in _ACCEPTED.values():
        assert build_parser().parse_known_args(argv)[1] == []


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_a_command_prints_the_help_and_errors_of_the_full_parser(
        command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for argv in ([command, "--help"], [command], _ACCEPTED[command] + ["--bogus"]):
        expected = _outcome(capsys, build_parser().parse_args, argv)
        assert _outcome(capsys, main, argv) == expected, argv


@pytest.mark.parametrize("argv", [["--help"], ["-h"], [], ["bogus"], ["-h", "mc"]])
def test_top_level_help_and_errors_come_from_the_full_parser(argv, capsys,
                                                             monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    expected = _outcome(capsys, build_parser().parse_args, argv)
    assert _outcome(capsys, main, argv) == expected
    assert "{" + ",".join(cli._COMMANDS) + "}" in expected[1] + expected[2]


def test_a_command_builds_only_its_own_subparser(files, capsys, monkeypatch):
    write, _ = files
    struct = write("c2.struct", "vocab E:2\nn = 2\nE = (0,1) (1,0)")
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    build_parser.cache_clear()
    try:
        assert main(["enc", struct]) == 0
        assert main(["enc", struct]) == 0
        assert built == ["enc"]
        # an unrecognized argument is reported by the full parser
        with pytest.raises(SystemExit):
            main(["enc", struct, "--bogus"])
        assert built == ["enc"] + list(cli._COMMANDS)
    finally:
        build_parser.cache_clear()
    capsys.readouterr()


def test_valid_upto_parallel_path(files, capsys):
    write, _ = files
    taut = write("t.sent", "Ax Ey (x = y | x != y)")
    assert main(["valid-upto", taut, "--tau", "E:2", "--nmax", "4",
                 "--jobs", "2"]) == 0
    assert "valid up to n = 4" in capsys.readouterr().out


def test_missing_option_combinations_exit_2(files, capsys):
    write, _ = files
    machine = write("id.tm", format_machine(identity_machine()))
    assert main(["tm", "run", machine]) == 2
    assert main(["form", "build", "--kind", "ord5", "--tau", "R1:1 <"]) == 2
    grammar = write("g.cfg", "S -> a S b | eps")
    assert main(["cfg", "member", grammar]) == 2
    capsys.readouterr()


def test_structure_files_lose_no_line(files, capsys):
    write, _ = files
    unknown = write("f.struct", "vocab E:2\nn = 2\nF = (0,1)")
    twice = write("twice.struct", "vocab E:2\nn = 2\nE = (0,1)\nE = (1,1)")
    assert main(["enc", unknown]) == 2
    assert capsys.readouterr() == ("", f"fmwb: {unknown}: no symbol F in vocabulary E:2\n")
    assert main(["enc", twice]) == 2
    assert capsys.readouterr() == ("", f"fmwb: {twice}: symbol E given twice\n")


def test_structure_files_need_n_on_their_second_line(files, capsys):
    write, _ = files
    for second in ("E = 2", "m = 2", "n2 = 2"):
        path = write("bad.struct", f"vocab E:2\n{second}")
        assert main(["enc", path]) == 2
        assert capsys.readouterr() == (
            "", f"fmwb: {path}: expected 'vocab ...' then 'n = ...'\n")
    assert main(["enc", write("good.struct", "vocab E:2\n  n=2  ")]) == 0
    assert capsys.readouterr().out == "0000\n"


def test_structure_files_name_themselves_in_number_errors(files, capsys):
    write, _ = files
    # int() alone reads '1_0' as 10 and '+1' as 1, and split(",") leaves
    # empty entries behind a doubled or a trailing comma.
    for text, error in (("vocab E:2\nn = x", "bad size line 'n = x'"),
                        ("vocab E:2\nn = 2\nE = (0,a)", "bad tuple '(0,a)'"),
                        ("vocab E:2\nn = 1_0", "bad size line 'n = 1_0'"),
                        ("vocab E:2\nn = 2\nE = (0,+1)", "bad tuple '(0,+1)'"),
                        ("vocab E:2\nn = 3\nE = (0_1,2)", "bad tuple '(0_1,2)'"),
                        ("vocab E:2\nn = 2\nE = (0,,1)", "bad tuple '(0,,1)'"),
                        ("vocab E:2\nn = 2\nE = (1,0,)", "bad tuple '(1,0,)'")):
        path = write("bad.struct", text)
        assert main(["enc", path]) == 2
        assert capsys.readouterr() == ("", f"fmwb: {path}: {error}\n")


def test_machine_files_take_decimal_exponents_only(files, capsys):
    write, _ = files
    text = format_machine(identity_machine())
    for keyword, value in (("clock", "1_0"), ("step", "+2"), ("clock", "-1"),
                           ("step", "2.0")):
        lines = [f"{keyword} {value}" if line.split()[0] == keyword else line
                 for line in text.splitlines()]
        assert main(["tm", "encode", write("bad.tm", "\n".join(lines))]) == 2
        assert capsys.readouterr() == (
            "", f"fmwb: {keyword} takes a decimal number, got {value!r}\n")


def test_structure_files_name_themselves_in_vocabulary_and_structure_errors(files, capsys):
    write, _ = files
    for text, error in (
            ("vocab E:x\nn = 2", "bad vocabulary token 'E:x', expected name:arity"),
            ("vocab E:2 E:1\nn = 2", "duplicate relation symbols in ['E', 'E']"),
            ("vocab E:2\nn = -1", "universe size must be > 1, got -1"),
            ("vocab E:2\nn = 2\nE = (0,5)", "tuple (0, 5) outside universe of size 2"),
            ("vocab E:2\nn = 2\nE = ()", "E expects arity 2, got ()")):
        path = write("bad.struct", text)
        assert main(["enc", path]) == 2
        assert capsys.readouterr() == ("", f"fmwb: {path}: {error}\n")


def test_form_recognize_refuses_a_class_form_build_refuses(files, capsys):
    write, _ = files
    ups = write("ups.sent", "Ex Ey R(x,y)")
    gamma = write("gamma.sent", "Ex Ey E(x,y)")
    machine = write("log.tm", format_machine(identity_machine("logspace")))
    sentence = write("phi.sent", "Ex Ey E(x,y)")
    common = ["--kind", "unord6", "--tau", "E:2", "--upsilon", ups]
    for cls in ("P", "NL"):
        assert main(["form", "build", "--gamma", gamma, "--machine", machine,
                     "--class", cls] + common) == 2
        refused = capsys.readouterr()
        assert refused.out == "" and refused.err == (
            "fmwb: unordered forms take classes ('coNP', 'NP', 'PSPACE')\n")
        assert main(["form", "recognize", sentence, "--class", cls] + common) == 2
        assert capsys.readouterr() == refused


def test_machine_files_with_a_bad_keyword_line_or_two_transitions_exit_2(
        files, capsys):
    write, _ = files
    text = format_machine(identity_machine())
    for keyword in ("kind", "clock", "step", "start"):
        for bad in (keyword, f"{keyword} 2 3"):
            lines = [bad if line.split()[0] == keyword else line
                     for line in text.splitlines()]
            assert main(["tm", "encode", write("bad.tm", "\n".join(lines))]) == 2
            assert capsys.readouterr() == ("", f"fmwb: {keyword} takes one value\n")
    first = next(line for line in text.splitlines() if "->" in line)
    twice = write("twice.tm", text + first.split("->")[0] + "-> NO _ S S -")
    assert main(["tm", "encode", twice]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("fmwb: two transitions for ")


def test_structure_text_roundtrip(tmp_path):
    import random

    from fmwb.core import parse_vocab
    from randgen import random_structure

    rng = random.Random(71)
    for text in ("E:2", "R:1 <", "P:1 Q:1", "H:3"):
        vocab = parse_vocab(text)
        for _ in range(10):
            a = random_structure(rng, vocab, rng.randint(2, 4))
            path = tmp_path / "s.struct"
            path.write_text(str(a) + "\n")
            assert read_structure(str(path)) == a


def test_mc_evaluates_characteristic_leaves(files, capsys):
    write, tmp = files
    ups = write("ups.sent", "Ex R(x)")
    gamma = write("gamma.sent", "Ex R1(x)")
    machine = write("id.tm", format_machine(identity_machine()))
    struct = write("a.struct", "vocab R1:1 <\nn = 2\nR1 = (0)")
    built = str(tmp / "form.sent")
    assert main(["form", "build", "--kind", "ord5", "--tau", "R1:1 <",
                 "--gamma", gamma, "--machine", machine, "--upsilon", ups,
                 "--class", "NP", "--emit", built]) == 0
    capsys.readouterr()
    assert main(["mc", struct, built, "--upsilon", ups]) == 0
    assert capsys.readouterr().out.strip() == "true"
    # without the distinguished sentence the leaf is unresolvable
    assert main(["mc", struct, built]) == 2


def test_mc_decides_leaves_nested_six_deep(files, capsys):
    # Six CHAR_ORD leaves nest through their gammas.  Each gamma, and the
    # sentence, is wrapped in 9,000 negations: every program is within
    # MAX_DEPTH, but all seven together pass the recursion limit.  Each
    # leaf is computed after the program that reached it has unwound, so
    # the verdict is that of the unwrapped sentence.
    write, _ = files

    def nested(negations):
        text = "Ex R(x)"
        for _ in range(6):
            gamma = parse_formula("~" * negations + text)
            text = print_formula(CharOrd(godel_encode(gamma),
                                         encode_tm(identity_machine())))
        return "~" * negations + text

    ups = write("ups.sent", "Ex R(x)")
    struct = write("a.struct", "vocab R:1 <\nn = 3\nR = (1)")
    verdicts = []
    for negations in (0, 9_000):
        sentence = write("nested.sent", nested(negations))
        verdicts.append((main(["mc", struct, sentence, "--upsilon", ups]),
                         capsys.readouterr()))
    assert verdicts[1] == verdicts[0] and verdicts[0][1].err == ""


def test_form_recognize_reads_a_long_machine_code(files):
    write, _ = files
    machine = padded_identity_machine(12_068)
    code = encode_tm(machine)
    ups = write("ups.sent", "Ex R(x)")
    gamma = parse_formula("Ex R1(x)")
    built = build_form("ord5", gamma, tau=Vocabulary((("R1", 1),), has_order=True),
                       cls="NP", machine=machine, upsilon=parse_formula("Ex R(x)"))
    form = write("big.sent", print_formula(built.formula))
    rc, out, err = _fmwb_process(["form", "recognize", form, "--kind", "ord5",
                                  "--tau", "R1:1 <", "--upsilon", ups,
                                  "--class", "NP"], timeout=120)
    assert (rc, err) == (0, "")
    assert out == f"gamma: Ex R1(x)\nmachine: {code}\n"


def test_mc_rejects_sentences_nested_past_the_ceiling(files):
    # Before the ceiling, hashing this sentence overflowed the C stack.
    write, _ = files
    struct = write("c2.struct", "vocab E:2\nn = 2\nE = (0,1)")
    deep = write("deep.sent", "~" * 20_000 + "Ex E(x,x)")
    rc, out, err = _fmwb_process(["mc", struct, deep], timeout=120)
    assert rc == 2 and out == ""
    assert err.startswith("fmwb: ") and "deeper than" in err
