"""Desk-scale workbench for finite model theory: structure encodings,
brute-force model checking, oracle machine simulation, characteristic sets,
and canonical sentence forms."""

import sys

# The Goedel decoder and the sentence compiler recurse once per nesting
# level, and parsing and decoding accept sentences up to
# logic.MAX_DEPTH levels deep: past the default interpreter limit.
sys.setrecursionlimit(max(sys.getrecursionlimit(), 50_000))

from .core import (  # noqa: E402,F401
    Structure, Vocabulary, decode_bin, ell, encode_bin, enumerate_structures,
    is_isomorphic, parse_vocab,
)
from .aristotelian import (  # noqa: E402,F401
    benc, canonical_order, canonize, decide_M, decode_nat, encode_nat,
    reconstruct, uenc_length,
)
from .logic import (  # noqa: E402,F401
    Formula, apply_T_ord, apply_T_unord, fragment_of, godel_decode,
    godel_encode, parse_formula, print_formula, psi_encode, psi_recognize,
)
from .semantics import EvalConfig, mod_eq_upto, models, valid_upto  # noqa: E402,F401
from .machines import (  # noqa: E402,F401
    OracleMachine, decode_tm, encode_tm, identity_machine, is_reduction_upto,
    run,
)
from .cfg import Grammar, cyk_member, find_missing, parse_grammar, to_cnf  # noqa: E402,F401
from .charsets import (  # noqa: E402,F401
    char_sentence, member_S_cfg, member_S_npconp, member_S_ord, member_S_unord,
)
from .forms import CanonicalForm, build_form, enumerate_logic, recognize  # noqa: E402,F401

__version__ = "0.1.0"
