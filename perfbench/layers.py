"""The traced run (`--trace 1`): per-layer timings and tracing overhead.

Each round runs the workload's own operations, alternately with and without
spans around their `fmwb` calls, and then one probe per layer metric: a
direct call into that module's public functions on inputs made the way the
workloads make them, inside a span and timed by the same reference-scaled
clock.  Every probe checks its answer against oracle.py.  Spans are kept in
memory and written, with their self time, to .perfbench_out/ at the end.
"""

from __future__ import annotations

import itertools
import json
import random
import statistics
import time
from collections import defaultdict

import oracle as O
from workloads import (
    E2, UPS_E2, UPS_ORD, UPS_R1, UPS_UNORD, Forms, Mismatch, Sweep,
)

# name -> unit; "higher is better" for the three rates, lower for the rest.
METRICS = {
    "core.enumerate_per_s": "1/s",
    "core.encode_bin_us": "us",
    "core.decode_bin_us": "us",
    "semantics.compile_us": "us",
    "semantics.check_us": "us",
    "semantics.models_us": "us",
    "semantics.sweep_s": "s",
    "machines.steps_per_s": "1/s",
    "machines.run_us": "us",
    "machines.encode_tm_us_per_kbit": "us/kbit",
    "machines.decode_tm_us_per_kbit": "us/kbit",
    "logic.parse_us_per_kchar": "us/kchar",
    "logic.print_us_per_kchar": "us/kchar",
    "logic.psi_recognize_us_per_kbit": "us/kbit",
    "logic.apply_T_us": "us",
    "logic.godel_encode_us_per_kbit": "us/kbit",
    "logic.godel_decode_us_per_kbit": "us/kbit",
    "aristotelian.decode_nat_us": "us",
    "charsets.leaf_cold_ms": "ms",
    "charsets.leaf_warm_us": "us",
    "charsets.reduction_structs_per_s": "1/s",
    "cfg.cyk_us": "us",
    "cfg.find_missing_ms": "ms",
    "forms.build_ms": "ms",
    "forms.recognize_ms": "ms",
    "forms.enumerate_ms": "ms",
    "cli.dispatch_ms": "ms",
    "trace.overhead_pct": "%",
}


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(f"layer probe: {what}")


class Probes:
    def __init__(self, bench):
        self.bench = bench
        fm = self.fm = bench.fmwb
        self.v_e = fm.core.parse_vocab("E:2")
        self.v_r1 = fm.core.parse_vocab("R1:1 <")
        self.v_p = fm.core.parse_vocab("P:1")
        self.parse = fm.logic.parse_formula
        self.ups_ord = self.parse(O.show(UPS_ORD))
        self.ups_unord = self.parse(O.show(UPS_UNORD))
        self.config = fm.semantics.EvalConfig(self.ups_ord, self.ups_unord)
        self.inner = list(fm.core.enumerate_structures(self.v_e, 3))
        indices = itertools.chain(range(16), range(512))
        self.inner_rel = [(a.n, O.structure(E2, a.n, i)) for a, i in zip(self.inner, indices)]
        self.sweep = bench.workload if isinstance(bench.workload, Sweep) else None
        if self.sweep is None:
            self.sweep = Sweep(fm, bench.args.seed, bench.workdir)
            self.sweep.setup()
        self.two = bench.workload.write("two.struct", "vocab E:2\nn = 2\nE = (0,1)")

    def timed(self, name, fn):
        """(result, scaled seconds) of fn() inside a span."""
        with self.bench.tracer.span("probe." + name):
            result, _, scaled = self.bench.clock.measure(fn)
        return result, scaled

    def round(self, r: int) -> dict:
        fm, out = self.fm, {}
        rng = random.Random(f"{self.bench.args.seed}/layers/{r}")

        # core: decode and encode random E:2 structures, 4 <= n <= 11.
        bits = ["".join(rng.choice("01") for _ in range(n * n))
                for n in (rng.randint(4, 11) for _ in range(200))]
        structs, s = self.timed("core.decode_bin", lambda: [fm.core.decode_bin(self.v_e, b) for b in bits])
        out["core.decode_bin_us"] = s / len(bits) * 1e6
        enc, s = self.timed("core.encode_bin", lambda: [fm.core.encode_bin(a) for a in structs])
        _require(enc == bits, "encode_bin(decode_bin(bits)) != bits")
        out["core.encode_bin_us"] = s / len(bits) * 1e6
        count, s = self.timed("core.enumerate_structures",
                              lambda: sum(1 for _ in fm.core.enumerate_structures(self.v_e, 4)))
        _require(count == Sweep.STRUCTURES, "enumerate_structures count")
        out["core.enumerate_per_s"] = count / s

        # semantics: the sweep workload's sentences.
        valid, left, right = self.sweep.sentences(rng)
        fs = [self.parse(O.show(f)) for f in (valid, left, right)]
        result, s = self.timed("semantics.valid_upto",
                               lambda: fm.semantics.valid_upto(fs[0], self.v_e, 4))
        _require(result is not None and fm.core.encode_bin(result) == "1" * 16,
                 "valid_upto must stop at the complete looped graph on 4 elements")
        out["semantics.sweep_s"] = s
        fresh = []
        for k in range(30):
            t = O.rewrite(O.from_fmwb(rng.choice(self.sweep.pool)), rng, 2)
            w = f"w{r}_{k}"
            fresh.append(("and", t, ("ex", w, ("eq", w, w))))
        parsed = [self.parse(O.show(t)) for t in fresh]
        checkers, s = self.timed("semantics.sentence_checker",
                                 lambda: [fm.semantics.sentence_checker(f) for f in parsed])
        out["semantics.compile_us"] = s / len(parsed) * 1e6
        checkers = [fm.semantics.sentence_checker(f) for f in fs]
        verdicts, s = self.timed("semantics.check",
                                 lambda: [[c(a) for a in self.inner] for c in checkers])
        out["semantics.check_us"] = s / (len(checkers) * len(self.inner)) * 1e6
        _require(all(verdicts[0]) and verdicts[1] == verdicts[2], "checker verdicts")
        for k in range(0, len(self.inner), 37):
            n, rel = self.inner_rel[k]
            _require(O.holds(left, n, rel) == verdicts[1][k], "checker vs truth definition")
        again, s = self.timed("semantics.models",
                              lambda: [[fm.semantics.models(a, f) for a in self.inner] for f in fs])
        _require(again == verdicts, "models() vs sentence_checker")
        out["semantics.models_us"] = s / (len(fs) * len(self.inner)) * 1e6

        # machines: a spinning machine runs to its clock; the identity machine
        # copies its input to the oracle and asks gamma.
        spin = O.spinning_machine(pad=2, tag=f"{r}_")
        spin_m = fm.machines.parse_machine(O.machine_text(spin))
        inputs = [fm.core.encode_bin(a) for a in self.inner[:16] + self.inner[16::8]]
        accepted, s = self.timed("machines.run.spin",
                                 lambda: [fm.machines.run(spin_m, w, fs[1], self.v_e) for w in inputs])
        _require(not any(accepted) and not O.reaches_acc(spin), "spinning machine accepted")
        out["machines.steps_per_s"] = sum((len(w) + 2) ** 3 for w in inputs) / s
        gamma = O.rewrite(UPS_E2, rng, 2)
        gamma_f = self.parse(O.show(gamma))
        ident = fm.machines.parse_machine(O.machine_text(O.identity_machine(pad=2, tag=f"{r}_")))
        enc_inner = [fm.core.encode_bin(a) for a in self.inner]
        accepted, s = self.timed("machines.run.identity", lambda: [
            fm.machines.run(ident, w, gamma_f, self.v_e, config=self.config) for w in enc_inner])
        _require(accepted == [O.holds(gamma, n, rel) for n, rel in self.inner_rel],
                 "identity machine vs truth definition")
        out["machines.run_us"] = s / len(enc_inner) * 1e6
        big = O.identity_machine(pad=16, tag=f"{r}_")
        big_m = fm.machines.parse_machine(O.machine_text(big))
        code = O.machine_code(big)
        kbits = 20 * len(code) / 1000
        codes, s = self.timed("machines.encode_tm", lambda: [fm.machines.encode_tm(big_m) for _ in range(20)])
        _require(codes[0] == code, "encode_tm vs reference machine code")
        out["machines.encode_tm_us_per_kbit"] = s / kbits * 1e6
        decoded, s = self.timed("machines.decode_tm", lambda: [fm.machines.decode_tm(code) for _ in range(20)])
        _require(decoded[0] == big_m, "decode_tm(encode_tm(M)) != M")
        out["machines.decode_tm_us_per_kbit"] = s / kbits * 1e6

        # logic: a correct ord5 form text carrying that machine code.
        gamma_r1 = O.rewrite(UPS_R1, rng, 3)
        text = Forms._form_text("ord5", gamma_r1, code)
        kchar = len(text) / 1000
        phi, s = self.timed("logic.parse_formula", lambda: [self.parse(text) for _ in range(3)])
        out["logic.parse_us_per_kchar"] = s / (3 * kchar) * 1e6
        printed, s = self.timed("logic.print_formula",
                                lambda: [fm.logic.print_formula(phi[0]) for _ in range(3)])
        _require(printed[0] == text, "print(parse(text)) != text")
        out["logic.print_us_per_kchar"] = s / (3 * kchar) * 1e6
        w, s = self.timed("logic.psi_recognize",
                          lambda: [fm.logic.psi_recognize(phi[0].right) for _ in range(5)])
        _require(w[0] == code, "psi_recognize vs machine code")
        out["logic.psi_recognize_us_per_kbit"] = s / (5 * len(code) / 1000) * 1e6
        images, s = self.timed("logic.apply_T", lambda: [
            (fm.logic.apply_T_unord(self.ups_unord, self.v_e),
             fm.logic.apply_T_ord(self.ups_ord, self.v_r1)) for _ in range(100)])
        _require(tuple(map(fm.logic.print_formula, images[0])) == (O.show(UPS_E2), O.show(UPS_R1)),
                 "transported distinguished sentences")
        out["logic.apply_T_us"] = s / 200 * 1e6
        gcodes, s = self.timed("logic.godel_encode", lambda: [fm.logic.godel_encode(f) for f in parsed])
        _require(gcodes == [O.godel(t) for t in fresh], "godel_encode vs reference code")
        kbits = sum(map(len, gcodes)) / 1000
        out["logic.godel_encode_us_per_kbit"] = s / kbits * 1e6
        back, s = self.timed("logic.godel_decode", lambda: [fm.logic.godel_decode(c) for c in gcodes])
        _require(back == parsed, "godel_decode(godel_encode(f)) != f")
        out["logic.godel_decode_us_per_kbit"] = s / kbits * 1e6

        # aristotelian: the integer code every codec reads through.
        values = [rng.randrange(1 << rng.randint(1, 24)) for _ in range(500)]
        stream = "".join(map(O.enc_nat, values))

        def read_all():
            pos, got = 0, []
            while pos < len(stream):
                value, used = fm.aristotelian.decode_nat(stream, pos)
                got.append(value)
                pos += used
            return got
        got, s = self.timed("aristotelian.decode_nat", read_all)
        _require(got == values, "decode_nat stream")
        out["aristotelian.decode_nat_us"] = s / len(values) * 1e6

        # charsets: a leaf no earlier round has seen, then warm on the same bound.
        machine = O.identity_machine(pad=3, tag=f"c{r}_")
        leaf = self.parse("CHAR_UNORD{%s,%s}" % (O.hex_payload(O.godel(gamma)),
                                                 O.hex_payload(O.machine_code(machine))))
        same_bound = [a for a in structs if 4 <= a.n <= 11][:21]
        verdict, s = self.timed("charsets.leaf_cold",
                                lambda: fm.semantics.models(same_bound[0], leaf, self.config))
        _require(verdict is True, "valid-side leaf must hold")
        out["charsets.leaf_cold_ms"] = s * 1e3
        out["charsets.reduction_structs_per_s"] = len(self.inner) / s
        verdicts, s = self.timed("charsets.leaf_warm", lambda: [
            fm.semantics.models(a, leaf, self.config) for a in same_bound[1:]])
        _require(all(verdicts), "valid-side leaf must hold on the same bound")
        out["charsets.leaf_warm_us"] = s / len(same_bound[1:]) * 1e6

        # cfg: CYK on a^n b^n (warm tables) and a gap search on a new grammar.
        anbn = fm.cfg.parse_grammar("S -> a S b | eps")
        fm.cfg.cyk_member(anbn, "ab")
        words = ["".join(p) for k in range(7) for p in itertools.product("ab", repeat=k)]
        member, s = self.timed("cfg.cyk_member", lambda: [fm.cfg.cyk_member(anbn, w) for w in words])
        _require(member == [w == "a" * (len(w) // 2) + "b" * (len(w) // 2) for w in words],
                 "CYK membership in a^n b^n")
        out["cfg.cyk_us"] = s / len(words) * 1e6
        universal = fm.cfg.parse_grammar(f"U{r} -> a U{r} | b U{r} | eps")
        missing, s = self.timed("cfg.find_missing", lambda: fm.cfg.find_missing(universal, 6))
        _require(missing is None, "the universal grammar misses a string")
        out["cfg.find_missing_ms"] = s * 1e3

        # forms: build and recognize an unord6 form, enumerate npconp8.
        gamma_e = self.parse(O.show(gamma))
        built, s = self.timed("forms.build_form", lambda: [fm.forms.build_form(
            "unord6", gamma_e, tau=self.v_e, cls="coNP", machine=big_m,
            upsilon=self.ups_unord) for _ in range(3)])
        _require(fm.logic.print_formula(built[0].formula) == Forms._form_text("unord6", gamma, code),
                 "build_form text")
        out["forms.build_ms"] = s / 3 * 1e3
        found, s = self.timed("forms.recognize", lambda: [fm.forms.recognize(
            "unord6", b.formula, tau=self.v_e, cls="coNP", upsilon=self.ups_unord) for b in built])
        _require(found[0] is not None and found[0].machine == big_m, "recognize(build) round trip")
        out["forms.recognize_ms"] = s / 3 * 1e3
        emitted, s = self.timed("forms.enumerate_logic",
                                lambda: list(fm.forms.enumerate_logic("npconp8", tau=self.v_p, budget=20)))
        _require(len(set(map(fm.logic.print_formula, emitted))) == 20, "20 distinct forms")
        out["forms.enumerate_ms"] = s * 1e3

        # cli: the fixed cost of one command.
        answers, s = self.timed("cli.enc", lambda: [
            self.bench.cli(["enc", self.two]) for _ in range(10)])
        _require(all(a[:2] == (0, "0100\n") for a in answers), "fmwb enc")
        out["cli.dispatch_ms"] = s / 10 * 1e3
        return out


def traced_run(bench) -> dict:
    probes = Probes(bench)
    samples = defaultdict(list)
    times = {False: [], True: []}
    deadline = time.perf_counter() + bench.args.seconds
    r = k = 0
    while r < 2 or time.perf_counter() < deadline:
        for op in bench.workload.round(r):
            traced = k % 2 == 1
            scaled = bench.run_op(op, traced=traced)
            if op.timed:
                times[traced].append(scaled)
            k += 1
        for name, value in probes.round(r).items():
            samples[name].append(value)
        r += 1
    overhead = statistics.median(times[True]) / statistics.median(times[False]) - 1
    samples["trace.overhead_pct"].append(overhead * 100)

    spans = bench.tracer.self_times()
    path = bench.workdir.parent / f"trace-{bench.args.workload}-{bench.args.seed}.json"
    path.write_text(json.dumps({"spans": spans}))
    by_name = defaultdict(float)
    for span in spans:
        by_name[span["name"]] += span["self"]
    print(f"{bench.args.workload} traced: {r} rounds, {len(spans)} spans -> {path.name}")
    print("  self time by span (raw s):")
    for name, total in sorted(by_name.items(), key=lambda item: -item[1])[:12]:
        print(f"    {name:36s} {total:9.3f}")
    metrics = {name: (statistics.median(samples[name]), unit) for name, unit in METRICS.items()}
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.4f} {unit}")
    return metrics
