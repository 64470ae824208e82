"""Cartan strata against an oracle that shares no code with loopgr.

sympy computes the invariant factors d_1 | d_2 | ... | d_n of a polynomial
matrix over k[t] by its own Smith form.  For a Laurent polynomial loop g with
t^N g polynomial, the t-adic valuations of those factors, minus N, are the
elementary divisor exponents of g over k[[t]], read in ascending order: the
stratum reversed.  `stratum` must give them on the exact loop, and every
answer it gives on a truncation of that loop must be the same.  The
determinant of g is sympy's determinant of t^N g divided by t^(nN).

Rational functions are checked against sympy's `cancel` (lowest terms, the
denominator made monic) and `series` (the expansion at a center), and the
translation p(t + r) behind every expansion against sympy's `Poly.shift`.
"""

import random
from fractions import Fraction

import pytest

from loopgr import QQ, LaurentSeries, LoopMatrix, PrimeField, RationalFunction, random_loop, stratum
from loopgr.errors import InsufficientPrecision, SingularToPrecision
from loopgr.series import _translated

sympy = pytest.importorskip("sympy")
normalforms = pytest.importorskip("sympy.matrices.normalforms")
DomainMatrix = pytest.importorskip("sympy.polys.matrices").DomainMatrix


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


def sympy_det(g):
    """det g as {exponent: coefficient}, from sympy's determinant of the
    polynomial matrix t^N g over QQ[t] or GF(p)[t], divided by t^(nN)."""
    t = sympy.Symbol("t")
    domain = sympy.QQ if g.ring == QQ else sympy.GF(g.ring.p)
    shift = -min(e.shift for r in g.rows for e in r if e.coeffs)
    poly = domain[t]

    def entry(e):
        return poly.from_sympy(sum(sympy.Rational(str(c)) * t ** (e.shift + shift + k) for k, c in enumerate(e.coeffs)))

    matrix = DomainMatrix([[entry(e) for e in r] for r in g.rows], (g.n, g.n), poly)
    det = sympy.Poly(poly.to_sympy(matrix.det()), t, domain=domain)
    if g.ring == QQ:
        return {m - g.n * shift: Fraction(int(c.p), int(c.q)) for (m,), c in det.terms() if c}
    return {m - g.n * shift: int(c) % g.ring.p for (m,), c in det.terms() if int(c) % g.ring.p}


@pytest.mark.parametrize(
    "ring, n",
    [(QQ, n) for n in (1, 2, 3, 4)] + [(PrimeField(p), n) for p in (10007, 7) for n in (1, 2, 3, 4, 5)],
    ids=str,
)
def test_det_matches_sympy_determinant(ring, n):
    for seed in range(3):
        g = random_loop(n, 2, seed, ring)
        d = g.det()
        assert d.is_exact
        assert {e: c for e, c in enumerate(d.coeffs, d.shift) if c} == sympy_det(g)


T = sympy.Symbol("t")


def _sympy_poly(coeffs, ring):
    """The polynomial sum c_e t^e of loopgr scalars as a sympy Poly over QQ
    or, through its modulus, over GF(p)."""
    expr = sum((sympy.Rational(str(c)) * T**e for e, c in enumerate(coeffs)), sympy.Integer(0))
    return sympy.Poly(expr, T, **({"domain": sympy.QQ} if ring == QQ else {"modulus": ring.p}))


def _terms(poly, ring):
    """{exponent: scalar} of a sympy Poly, its zero terms left out."""
    if ring == QQ:
        return {m: Fraction(int(c.p), int(c.q)) for (m,), c in poly.terms() if c}
    return {m: int(c) % ring.p for (m,), c in poly.terms() if int(c) % ring.p}


def _exact_terms(s):
    return {e: c for e, c in enumerate(s.coeffs, s.shift) if c}


def _sympy_reduced(num, den, ring):
    """(numerator, monic denominator) of num/den in lowest terms, by sympy."""
    p, q = num.cancel(den, include=True)
    return _terms(p.exquo_ground(q.LC()), ring), _terms(q.monic(), ring)


def _from_sympy(num, den, ring):
    return RationalFunction.from_terms(ring, _terms(num, ring).items(), _terms(den, ring).items())


def _random_poly(ring, rng, degree):
    """A sympy Poly of the given degree with small random coefficients."""
    return _sympy_poly([ring.random(rng) for _ in range(degree)] + [ring.random_unit(rng)], ring)


@pytest.mark.parametrize("ring", [QQ, PrimeField(10007)], ids=str)
def test_rational_functions_match_sympy_cancel(ring):
    # numerator a*c and denominator b*c share the factor c, so every input
    # is reduced; the sums and products are reduced from sympy's own inputs
    rng = random.Random(f"sympy-cancel:{ring.key}")
    for _ in range(12):
        raw = []
        for _ in range(2):
            a, b, c = (_random_poly(ring, rng, rng.randint(0, 3)) for _ in range(3))
            raw.append((a * c, b * c))
        (fn, fd), (gn, gd) = raw
        f, g = (_from_sympy(n, d, ring) for n, d in raw)
        for got, (num, den) in [
            (f, (fn, fd)),
            (f.add(g), (fn * gd + gn * fd, fd * gd)),
            (f.mul(g), (fn * gn, fd * gd)),
            (f.inverse(), (fd, fn)),
        ]:
            assert (_exact_terms(got.num), _exact_terms(got.den)) == _sympy_reduced(num, den, ring)


@pytest.mark.parametrize("ring", [QQ, PrimeField(10007)], ids=str)
def test_translation_matches_sympy_shift(ring):
    # p(t + r) at degrees 0..12 and valuations 0..3, r zero, an integer or
    # a fraction; one polynomial of degree 300 over GF(10007) pins the
    # reduction mod p at every Horner step
    rng = random.Random(f"sympy-shift:{ring.key}")
    shapes = [(rng.randint(0, 12), rng.randint(0, 3)) for _ in range(60)]
    for i, (degree, valuation) in enumerate(shapes + ([(300, 2)] if ring != QQ else [])):
        coeffs = [ring.zero] * valuation + [ring.random(rng) for _ in range(degree)] + [ring.random_unit(rng)]
        r = ring.zero if i % 10 == 0 else ring.of(Fraction(rng.randint(-9, 9), rng.choice((2, 3, 7)) if i % 2 else 1))
        want = _sympy_poly(coeffs, ring).shift(sympy.Rational(str(r)))
        assert _exact_terms(_translated(LaurentSeries.from_terms(ring, enumerate(coeffs)), r)) == _terms(want, ring)


def test_expand_at_matches_sympy_series():
    # f has a pole of order k at r; it is expanded there and at a regular
    # center, and every coefficient on the certified window is sympy's, the
    # valuation included
    rng = random.Random("sympy-series")
    for k in (1, 2, 3):
        r = QQ.random(rng)
        num, rest = _random_poly(QQ, rng, 2), _random_poly(QQ, rng, 1)
        num, rest = (p + 1 if p.eval(sympy.Rational(str(r))) == 0 else p for p in (num, rest))  # order k
        den = rest * sympy.Poly((T - sympy.Rational(str(r))) ** k, T, domain=sympy.QQ)
        f = _from_sympy(num, den, QQ)
        regular = r + 1 if den.eval(sympy.Rational(str(r + 1))) != 0 else r + 2
        for center in (r, regular):
            s = f.expand_at(center, 6)
            end = s.degree + 3 if s.is_exact else s.known_end
            assert s.is_exact or end - s.shift >= 6
            shifted = (num.as_expr() / den.as_expr()).subs(T, T + sympy.Rational(str(center)))
            series = sympy.expand(sympy.series(shifted, T, 0, end).removeO() * T**k)  # no pole past t^-k
            want = _terms(sympy.Poly(series, T, domain=sympy.QQ), QQ)
            assert _exact_terms(s) == {e - k: c for e, c in want.items()}
        assert f.expand_at(r, 6).valuation == -k
