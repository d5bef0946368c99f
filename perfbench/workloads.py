"""The three workloads: seeded inputs, `fmwb` calls and their checks.

An operation is a fixed list of `fmwb` command lines.  Its inputs are made
from the seed and written to files before the clock starts; the runner
times only the calls; the checks run afterwards against oracle.py, never
against a stored copy of earlier output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracle as O

E2 = [("E", 2)]
R1 = [("R1", 1)]
P1 = [("P", 1)]

# Distinguished sentences: over {R:1, <} for ordered leaves and forms, over
# {R:2} for unordered ones, and one over {R:2} that never holds.
UPS_ORD = ("ex", "x", ("rel", "R", ("x",)))
UPS_UNORD = ("all", "x", ("ex", "y", ("rel", "R", ("x", "y"))))
UPS_NEVER = ("ex", "x", ("ex", "y", ("and", ("rel", "R", ("x", "y")),
                                     ("not", ("rel", "R", ("x", "y"))))))
# ... and their images under the vocabulary transports, written by hand.
UPS_E2 = ("all", "x", ("ex", "y", ("rel", "E", ("x", "y"))))
UPS_E2_ORD = ("ex", "x", ("ex", "y1", ("rel", "E", ("y1", "x"))))
UPS_R1 = ("ex", "x", ("rel", "R1", ("x",)))
NEVER_E2 = ("ex", "x", ("ex", "y", ("and", ("rel", "E", ("x", "y")),
                                    ("not", ("rel", "E", ("x", "y"))))))
EMPTY = ("ex", "x", ("neq", "x", "x"))

# Holds on every structure with n <= 4 except the complete looped graph on
# four elements, the last structure a sweep to n = 4 visits.
_DISTINCT = [("neq", a, b) for a, b in
             (("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d"))]
_FOUR = _DISTINCT[0]
for _atom in _DISTINCT[1:]:
    _FOUR = ("and", _FOUR, _atom)
NOT_K4 = ("not", ("and", ("all", "x", ("all", "y", ("rel", "E", ("x", "y")))),
                  ("ex", "a", ("ex", "b", ("ex", "c", ("ex", "d", _FOUR))))))
K4_INDEX = (1 << 16) - 1

# Structures with 2 <= n <= 3 over E:2 (or E:2 <): the inner sweep of every
# bound-3 leaf.
INNER_E2 = 16 + 512


class Mismatch(AssertionError):
    """fmwb gave an answer the oracle refutes."""


@dataclass
class Call:
    """One `fmwb` command line and what its answer must be."""

    argv: list[str]
    check: Callable          # (rc, out, exc) -> "ok" | "failed"; raises Mismatch
    structures: int = 0      # structures this call decides, from the input sizes
    rc: int | None = None
    out: str = ""
    exc: BaseException | None = None


@dataclass
class Op:
    kind: str
    calls: list[Call]
    timed: bool = True       # False for the operation that fails every time
    extra_checks: list = field(default_factory=list)


def expect(rc_want: int, out_want: str):
    def check(rc, out, exc):
        if exc is not None:
            raise Mismatch(f"raised {type(exc).__name__}: {exc}")
        if rc != rc_want or out != out_want:
            raise Mismatch(f"expected rc {rc_want} {out_want[:80]!r}, got rc {rc} {out[:80]!r}")
        return "ok"
    return check


def _spot(rng, symbols, n_max, count):
    """A seeded sample of (n, index) structures with 2 <= n <= n_max."""
    picks = []
    for _ in range(count):
        n = rng.randint(2, n_max)
        length = sum(n ** a for _, a in symbols)
        picks.append((n, rng.randrange(1 << length)))
    return picks


def _agree(f, g, symbols, picks, same=True):
    for n, index in picks:
        rel = O.structure(symbols, n, index)
        if (O.holds(f, n, rel) == O.holds(g, n, rel)) != same:
            raise Mismatch(f"oracle: {O.show(f)} vs {O.show(g)} at n={n} index={index}")


class Workload:
    name = ""

    def __init__(self, fmwb, seed: int, workdir: Path):
        self.fmwb = fmwb
        self.seed = seed
        self.dir = workdir

    def rng(self, *key) -> random.Random:
        return random.Random("/".join(map(str, (self.seed, self.name) + key)))

    def write(self, name: str, text: str) -> str:
        path = self.dir / name
        path.write_text(text if text.endswith("\n") else text + "\n")
        return str(path)

    def round(self, r: int) -> list[Op]:
        """The operations of round r, inputs written, ready to time."""
        raise NotImplementedError


class Sweep(Workload):
    """Full sweeps of E:2 up to n = 4 (66,064 structures per call)."""

    name = "sweep"
    STRUCTURES = 16 + 512 + 65536

    def setup(self):
        vocab = self.fmwb.core.parse_vocab("E:2")
        self.pool = self.fmwb.forms.fo_sentences(vocab, 6)

    # Checker work per n = 4 structure, in node visits, for the valid-upto
    # sentence and for the modeq-upto pair together.  Out of TRIES seeded
    # candidates, the FINALISTS closest on a small sample of structures are
    # measured again on a large one and the closest is kept, so the check
    # share of an operation barely varies with the seed.
    VALID_VISITS = 60
    MODEQ_VISITS = 80
    TRIES = 24
    FINALISTS = 4

    def sentences(self, rng):
        """The valid-upto sentence and the modeq-upto pair of one operation."""
        small = [O.structure(E2, 4, rng.getrandbits(16)) for _ in range(48)]
        large = [O.structure(E2, 4, rng.getrandbits(16)) for _ in range(400)]

        def visits(fs, sample):
            tally = [0]
            for f in fs:
                for rel in sample:
                    O.holds(f, 4, rel, tally=tally)
            return tally[0] / len(sample)

        def closest(make, target):
            candidates = [make() for _ in range(self.TRIES)]
            candidates.sort(key=lambda fs: abs(visits(fs, small) - target))
            return min(candidates[:self.FINALISTS],
                       key=lambda fs: abs(visits(fs, large) - target))

        def draw():
            return O.from_fmwb(rng.choice(self.pool))

        def tautology():
            phi = draw()
            return ("or", phi, ("not", O.rewrite(phi, rng, 2)))

        def make_valid():
            return (("and", ("and", tautology(), tautology()), NOT_K4),)

        def make_pair():
            left = ("or", ("and", draw(), draw()), draw())
            return left, O.rewrite(left, rng, 3)

        (valid,) = closest(make_valid, self.VALID_VISITS)
        left, right = closest(make_pair, self.MODEQ_VISITS)
        return valid, left, right

    def round(self, r):
        rng = self.rng(r)
        valid, left, right = self.sentences(rng)
        v = self.write(f"valid{r}.sent", O.show(valid))
        a = self.write(f"left{r}.sent", O.show(left))
        b = self.write(f"right{r}.sent", O.show(right))
        k4 = O.structure(E2, 4, K4_INDEX)
        tail = "counterexample:\n" + O.structure_text(E2, False, 4, k4)
        calls = [
            Call(["valid-upto", v, "--tau", "E:2", "--nmax", "4", "--jobs", "1"],
                 expect(1, tail), self.STRUCTURES),
            Call(["modeq-upto", a, b, "--tau", "E:2", "--nmax", "4", "--jobs", "1"],
                 expect(0, "equivalent up to n = 4\n"), self.STRUCTURES),
        ]
        picks = _spot(rng, E2, 4, 6)

        def spot_check():
            for n, index in picks + [(4, K4_INDEX)]:
                rel = O.structure(E2, n, index)
                if O.holds(valid, n, rel) != ((n, index) != (4, K4_INDEX)):
                    raise Mismatch(f"oracle: valid-upto sentence at n={n} index={index}")
            _agree(left, right, E2, picks)
        return [Op("sweep", calls, extra_checks=[spot_check])]


class Leaves(Workload):
    """Cold characteristic-leaf verdicts through `fmwb mc`."""

    name = "leaves"

    def setup(self):
        self.ups = [self.write("ups_ord.sent", O.show(UPS_ORD)),
                    self.write("ups_unord.sent", O.show(UPS_UNORD))]
        self.never = self.write("ups_never.sent", O.show(UPS_NEVER))
        vocab = self.fmwb.core.parse_vocab("E:2")
        self.pool = self.fmwb.forms.fo_sentences(vocab, 5)

    def _structure(self, rng, r, name, ordered=False):
        n = 12 if ordered else rng.randint(4, 11)
        rel = O.structure(E2, n, rng.getrandbits(n * n))
        return self.write(f"{name}{r}.struct", O.structure_text(E2, ordered, n, rel))

    def round(self, r):
        rng = self.rng(r)
        calls, checks = [], []

        def leaf(j, text, struct, want, upsilons, structures):
            path = self.write(f"leaf{r}_{j}.sent", text)
            argv = ["mc", struct, path]
            for u in upsilons:
                argv += ["--upsilon", u]
            out = "true\n" if want else "false\n"
            calls.append(Call(argv, expect(0 if want else 1, out), structures))

        def reduction_leaf(j, keyword, machine, gamma, struct, want, upsilons):
            text = "%s{%s,%s}" % (keyword, O.hex_payload(O.godel(gamma)),
                                  O.hex_payload(O.machine_code(machine)))
            leaf(j, text, struct, want, upsilons, 1 + INNER_E2)

        unord = self._structure(rng, r, "e")
        ordered = self._structure(rng, r, "o", ordered=True)
        picks = _spot(rng, E2, 3, 8)

        # Identity machines with gamma equivalent to the transported
        # distinguished sentence: the reduction agrees everywhere.
        for j, keyword in enumerate(("CHAR_UNORD", "COCHAR_UNORD")):
            gamma = O.rewrite(UPS_E2, rng, 2)
            m = O.identity_machine(clock=rng.randint(2, 4), step=rng.randint(2, 4),
                                   pad=rng.randint(1, 4), tag=f"{r}_{j}_")
            reduction_leaf(j, keyword, m, gamma, unord, keyword == "CHAR_UNORD", self.ups)
            checks.append(lambda g=gamma: _agree(g, UPS_E2, E2, picks))
        gamma = O.rewrite(UPS_E2_ORD, rng, 2)
        m = O.identity_machine(clock=rng.randint(2, 4), step=rng.randint(2, 4),
                               pad=rng.randint(1, 4), tag=f"{r}_2_")
        reduction_leaf(2, "CHAR_ORD", m, gamma, ordered, True, self.ups)
        checks.append(lambda g=gamma: _agree(g, UPS_E2_ORD, E2, picks))

        # A machine that never reaches ACC runs every inner input to its clock,
        # (n^2 + 2)^3 steps; against a target that never holds it agrees.
        spinner = O.spinning_machine(clock=rng.randint(3, 5), pad=rng.randint(1, 4),
                                     tag=f"{r}_3_")
        reduction_leaf(3, "CHAR_UNORD", spinner, O.rewrite(UPS_E2, rng, 1), unord,
                       True, [self.ups[0], self.never])

        def spinner_check():
            if O.reaches_acc(spinner):
                raise Mismatch("the spinning machine can reach ACC")
            for n, index in picks:
                if O.holds(NEVER_E2, n, O.structure(E2, n, index)):
                    raise Mismatch("the never-holding target holds")
        checks.append(spinner_check)

        # CHAR_NPCONP: a complementary pair (true) and an equivalent one (false).
        phi = O.from_fmwb(rng.choice(self.pool))
        lam_co = O.rewrite(("not", phi), rng, 2)
        lam_eq = O.rewrite(phi, rng, 2)
        for j, (lam, want) in enumerate(((lam_co, True), (lam_eq, False)), start=4):
            text = "CHAR_NPCONP{%s,%s}" % (O.hex_payload(O.godel(lam)),
                                           O.hex_payload(O.godel(phi)))
            leaf(j, text, unord, want, self.ups, 1 + INNER_E2)
        checks.append(lambda: _agree(lam_co, phi, E2, picks, same=False))
        checks.append(lambda: _agree(lam_eq, phi, E2, picks))

        # CHAR_CFG: every string up to the bound (3 for n = 12) is in the
        # universal grammar, and "a" is not in a^n b^n.  The nonterminal is
        # renamed per round so each grammar is new to the process.
        head = f"S{r}"
        grammars = (
            ([(head, ("a", head)), (head, ("b", head)), (head, ())], True),
            ([(head, ("a", head, "b")), (head, ())], False),
        )
        for j, (prods, want) in enumerate(grammars, start=6):
            code = O.grammar_code((head,), ("a", "b"), prods, head)
            leaf(j, "CHAR_CFG{%s}" % O.hex_payload(code), ordered, want, self.ups, 1)
        return [Op("leaves", calls, extra_checks=checks)]


FORM_KINDS = (
    # kind, tau text, symbols, class, upsilon file key, nmax for modeq-upto
    ("ord5", "R1:1 <", R1, "NP", "ord", 4),
    ("unord6", "E:2", E2, "coNP", "unord", 3),
    ("npconp8", "P:1", P1, None, None, 3),
)


class Forms(Workload):
    """Build, recognize, compare, mutate and enumerate canonical forms."""

    name = "forms"
    OPS_PER_ROUND = 3
    BIG_BITS = 12_000

    def setup(self):
        self.ups = {"ord": self.write("ups_ord.sent", O.show(UPS_ORD)),
                    "unord": self.write("ups_unord.sent", O.show(UPS_UNORD))}
        self.pools = {}
        for kind, tau, *_ in FORM_KINDS:
            vocab = self.fmwb.core.parse_vocab(tau)
            self.pools[kind] = self.fmwb.forms.fo_sentences(vocab, 5)
        # An ord5 form whose encoding sentence carries a machine code of at
        # least 12,000 bits; the same file in every run, whatever the seed.
        pad = 1
        while len(O.machine_code(O.identity_machine(pad=pad))) < self.BIG_BITS:
            pad += 16
        self.big_code = O.machine_code(O.identity_machine(pad=pad))
        self.big = self.write("big_ord5.sent", self._form_text("ord5", UPS_R1, self.big_code))

    @staticmethod
    def _form_text(kind, gamma, code, lam=None):
        g = O.hex_payload(O.godel(gamma))
        if kind == "npconp8":
            lam_text = O.hex_payload(O.godel(lam))
            return "((CHAR_NPCONP{%s,%s} & %s) | %s)" % (
                lam_text, g, O.show(gamma), O.psi_text(O.godel(lam)))
        m = O.hex_payload(code)
        if kind == "ord5":
            pair = "((CHAR_ORD{%s,%s} & %s) | (~CHAR_ORD{%s,%s} & %s))" % (
                g, m, O.show(gamma), g, m, O.show(UPS_R1))
        else:
            pair = "((CHAR_UNORD{%s,%s} & %s) | (COCHAR_UNORD{%s,%s} & %s))" % (
                g, m, O.show(gamma), g, m, O.show(UPS_E2))
        return "(%s | %s)" % (pair, O.psi_text(code))

    def _kind_calls(self, r, rng, kind, tau, symbols, cls, ups_key, nmax, correct,
                    pad_correct):
        tag = f"{r}{kind[0]}{int(correct)}"
        mtag = f"{kind[0]}{int(correct)}_"
        ups = ["--upsilon", self.ups[ups_key]] if ups_key else []
        cls_args = ["--class", cls] if cls else []
        lam = code = None
        if kind == "npconp8":
            gamma = O.from_fmwb(rng.choice(self.pools[kind]))
            lam = O.rewrite(("not", gamma) if correct else gamma, rng, 2)
            predicted = gamma if correct else EMPTY
            extra = ["--lambda", self.write(f"lam{tag}.sent", O.show(lam))]
        else:
            target = UPS_R1 if kind == "ord5" else UPS_E2
            # The two pairs of a kind share 32 padding states, so every
            # operation hashes and parses the same total code length.
            pad = pad_correct if correct else 32 - pad_correct
            if correct:
                gamma = O.rewrite(target, rng, 3)
                m = O.identity_machine(clock=rng.randint(2, 4), step=rng.randint(2, 4),
                                       pad=pad, tag=mtag)
                predicted = gamma
            else:
                gamma = O.from_fmwb(rng.choice(self.pools[kind]))
                m = O.rejecting_machine(pad=pad, tag=mtag)
                predicted = target
            code = O.machine_code(m)
            extra = ["--machine", self.write(f"m{tag}.tm", O.machine_text(m))]
        gamma_path = self.write(f"gamma{tag}.sent", O.show(gamma))
        predicted_path = self.write(f"pred{tag}.sent", O.show(predicted))
        form_path = str(self.dir / f"form{tag}.sent")
        text = self._form_text(kind, gamma, code, lam)
        common = ["--kind", kind, "--tau", tau] + ups + cls_args
        recognized = f"gamma: {O.show(gamma)}\n" + (
            f"lambda: {O.show(lam)}\n" if lam else f"machine: {code}\n")
        mutants = []
        for j, mutant in enumerate(_mutations(kind, text, O.show(gamma))):
            mutants.append(self.write(f"mut{tag}_{j}.sent", mutant))
        n_struct = sum(1 << sum(n ** a for _, a in symbols) for n in range(2, nmax + 1))
        calls = [
            Call(["form", "build"] + common + ["--gamma", gamma_path] + extra
                 + ["--emit", form_path], expect(0, text + "\n")),
            Call(["form", "recognize", form_path] + common, expect(0, recognized)),
            Call(["modeq-upto", form_path, predicted_path, "--tau", tau, "--nmax",
                  str(nmax), "--jobs", "1"] + ups,
                 expect(0, f"equivalent up to n = {nmax}\n"), n_struct),
        ]
        calls += [Call(["form", "recognize", p] + common, expect(1, "not in the logic\n"))
                  for p in mutants]

        def check():
            if Path(form_path).read_text() != text + "\n":
                raise Mismatch(f"{kind}: emitted file differs from the printed form")
            if kind != "npconp8" and O.psi_bits(text) != code:
                raise Mismatch(f"{kind}: encoding sentence does not spell the machine")
            picks = _spot(rng, symbols, nmax, 4)
            if kind == "npconp8":
                _agree(lam, gamma, symbols, picks, same=not correct)
            elif correct:
                _agree(gamma, predicted, symbols, picks)
        return calls, check

    def _enumerate(self, kind, tau, cls, ups_key):
        ups = ["--upsilon", self.ups[ups_key]] if ups_key else []
        cls_args = ["--class", cls] if cls else []

        def check(rc, out, exc):
            if exc is not None or rc != 0:
                raise Mismatch(f"enumerate {kind}: rc {rc} {exc!r}")
            lines = out.splitlines()
            if len(lines) != 20 or len(set(lines)) != 20:
                raise Mismatch(f"enumerate {kind}: expected 20 distinct forms")
            for line in lines:
                if "CHAR_" not in line or not O.psi_bits(line):
                    raise Mismatch(f"enumerate {kind}: not a canonical form: {line[:60]}")
            return "ok"
        return Call(["form", "enumerate", "--kind", kind, "--tau", tau, "--budget", "20"]
                    + ups + cls_args, check)

    def round(self, r):
        ops = []
        for i in range(self.OPS_PER_ROUND):
            rng = self.rng(r, i)
            calls, checks = [], []
            for kind, tau, symbols, cls, ups_key, nmax in FORM_KINDS:
                pad_correct = rng.randint(10, 22)
                for correct in (True, False):
                    c, chk = self._kind_calls(f"{r}_{i}", rng, kind, tau, symbols, cls,
                                              ups_key, nmax, correct, pad_correct)
                    calls += c
                    checks.append(chk)
                calls.append(self._enumerate(kind, tau, cls, ups_key))
            ops.append(Op("forms", calls, extra_checks=checks))
        ops.append(self._big_op())
        return ops

    def _big_op(self):
        want = f"gamma: {O.show(UPS_R1)}\nmachine: {self.big_code}\n"

        def check(rc, out, exc):
            if isinstance(exc, RecursionError):
                return "failed"
            return expect(0, want)(rc, out, exc)
        argv = ["form", "recognize", self.big, "--kind", "ord5", "--tau", "R1:1 <",
                "--upsilon", self.ups["ord"], "--class", "NP"]
        return Op("forms-12000-bit", [Call(argv, check)], timed=False)


def _mutations(kind, text, gamma_text):
    """Single-node edits of an emitted form; the recognizer must reject each."""
    out = []
    # 1. Flip the last quantifier of the encoding sentence (the code's last bit).
    k = len(O.psi_bits(text))
    pos = text.rindex(f"x{k} ", 0, text.rindex("("))
    flipped = {"E": "A", "A": "E"}[text[pos - 1]]
    out.append(text[:pos - 1] + flipped + text[pos:])
    # 2. Change the second leaf (or swap the NP-coNP payloads).
    if kind == "ord5":
        out.append(text.replace("(~CHAR_ORD{", "(CHAR_ORD{", 1))
    elif kind == "unord6":
        out.append(text.replace("(COCHAR_UNORD{", "(CHAR_UNORD{", 1))
    else:
        head, rest = text.split("{", 1)
        payload, tail = rest.split("}", 1)
        first, second = payload.split(",")
        out.append(f"{head}{{{second},{first}}}{tail}")
    # 3. Negate gamma inside the first disjunct.
    out.append(text.replace(f" & {gamma_text})", f" & ~{gamma_text})", 1))
    return out


WORKLOADS = {w.name: w for w in (Sweep, Leaves, Forms)}
