"""Check that a printed encoding sentence is its printed expansion.

Needs nothing beyond the standard library, so it runs on any supported
Python without the test dependencies:

    PYTHONPATH=src python tests/check_psi_text.py

It prints the number of bit strings checked and exits 1 at the first
string whose printed Psi differs from the printed nested sentence.
"""

import random
import sys

from fmwb.logic import And, Exists, Forall, Neq, Psi, print_formula


def expansion(w):
    matrix = Neq("x1", "x1")
    for i in range(2, len(w) + 1):
        matrix = And(matrix, Neq(f"x{i}", f"x{i}"))
    for i in range(len(w), 0, -1):
        matrix = (Exists if w[i - 1] == "1" else Forall)(f"x{i}", matrix)
    return matrix


def main():
    rng = random.Random(7)
    lengths = [*range(1, 320), 999, 1000, 1001, 9_999, 10_000, 10_001]
    for k in lengths:
        w = format(rng.getrandbits(k), f"0{k}b")
        if print_formula(Psi(w)) != print_formula(expansion(w)):
            print(f"Psi of a {k}-bit string prints other than its expansion: {w}")
            return 1
    print(f"{len(lengths)} encoding sentences print as their expansions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
