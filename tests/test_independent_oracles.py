"""Cartan strata against an oracle that shares no code with loopgr.

sympy computes the invariant factors d_1 | d_2 | ... | d_n of a polynomial
matrix over k[t] by its own Smith form.  For a Laurent polynomial loop g with
t^N g polynomial, the t-adic valuations of those factors, minus N, are the
elementary divisor exponents of g over k[[t]], read in ascending order: the
stratum reversed.  `stratum` must give them on the exact loop, and every
answer it gives on a truncation of that loop must be the same.
"""

import random

import pytest

from loopgr import QQ, LoopMatrix, PrimeField, random_loop, stratum
from loopgr.errors import InsufficientPrecision, SingularToPrecision

sympy = pytest.importorskip("sympy")
normalforms = pytest.importorskip("sympy.matrices.normalforms")


def sympy_stratum(g):
    t = sympy.Symbol("t")
    domain = sympy.QQ if g.ring == QQ else sympy.GF(g.ring.p)
    shift = -min(e.shift for r in g.rows for e in r if e.coeffs)
    matrix = sympy.Matrix(
        [
            [sum(sympy.Rational(str(c)) * t ** (e.shift + shift + k) for k, c in enumerate(e.coeffs)) for e in r]
            for r in g.rows
        ]
    )
    factors = normalforms.invariant_factors(matrix, domain=domain[t])
    vals = [min(m for (m,) in sympy.Poly(f, t, domain=domain).monoms()) - shift for f in factors]
    return tuple(reversed(vals))


def _truncations(g, rng, count):
    """Copies of g in which each entry keeps its first lo..12 known terms, lo
    drawn from 3..6 per copy: at rank 5 most copies with lo < 5 are refused."""
    for _ in range(count):
        lo = rng.randint(3, 6)
        yield LoopMatrix([[e.truncated(e.shift + rng.randint(lo, 12)) for e in r] for r in g.rows])


# the QQ factors grow fast with the rank: QQ stops at rank 4
@pytest.mark.parametrize(
    "ring, n",
    [(QQ, n) for n in (2, 3, 4)] + [(PrimeField(p), n) for p in (10007, 7) for n in (2, 3, 4, 5)],
    ids=str,
)
def test_stratum_matches_sympy_invariant_factors(ring, n):
    rng = random.Random(f"sympy:{ring.key}:{n}")
    answered = 0
    for seed in range(3):
        g = random_loop(n, 2, seed, ring)
        lam = sympy_stratum(g)
        assert stratum(g).entries == lam
        for tr in _truncations(g, rng, 4):
            for precision in (None, 8):
                try:
                    got = stratum(tr, precision)
                except (InsufficientPrecision, SingularToPrecision):
                    continue
                assert got.entries == lam
                answered += 1
    assert answered
