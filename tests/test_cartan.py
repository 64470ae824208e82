"""Cartan factorization against hand reductions and the minors oracle."""

import collections
import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from loopgr import (
    QQ,
    ArtinianRing,
    Cocharacter,
    LaurentSeries,
    LoopMatrix,
    PrimeField,
    coarse_stratum,
    elementary_loop,
    mat_inverse,
    mat_mul,
    monomial_loop,
    parabolic_type,
    random_loop,
    random_positive,
    smith_normal_form,
    stratum,
    transpose_inverse,
)
from loopgr import loops
from loopgr.factorization import ElementaryFactor, Factorization
from loopgr.errors import DomainError, PrecisionError, SingularToPrecision

from conftest import minors_stratum_oracle


def test_cocharacter_validation():
    with pytest.raises(DomainError):
        Cocharacter((0, 1))
    assert Cocharacter.dominant([0, 2, -1]).entries == (2, 0, -1)
    assert Cocharacter((2, 0, -1)).dual().entries == (1, 0, -2)
    assert Cocharacter((0, 0)).is_zero


def test_snf_identity():
    fact = smith_normal_form(LoopMatrix.identity(QQ, 3))
    assert fact.cocharacter.entries == (0, 0, 0)
    assert fact.left.is_positive() and fact.right.is_positive()


def test_snf_monomial():
    fact = smith_normal_form(monomial_loop(QQ, (-1, 2)))
    assert fact.cocharacter.entries == (2, -1)
    assert fact.product().agrees_with(monomial_loop(QQ, (-1, 2)))


def test_snf_unipotent_hand_reduction():
    # [[1, t^-1], [0, 1]]: swap columns, eliminate; divisors t^-1 and t.
    m = elementary_loop(QQ, 2, 0, 1, LaurentSeries.t_power(QQ, -1))
    fact = smith_normal_form(m)
    assert fact.cocharacter.entries == (1, -1)
    assert fact.product().agrees_with(m)
    assert minors_stratum_oracle(m) == (1, -1)


def test_snf_keeps_unknown_entries_unknown():
    # the O(t^2) entry is not an exact zero: skipping its elimination would
    # give exact transforms whose product claims the loop is exactly I
    one = LaurentSeries.one(QQ)
    a = LoopMatrix([[one, LaurentSeries.zero(QQ)], [LaurentSeries.zero(QQ, 2), one]])
    fact = smith_normal_form(a)
    assert fact.cocharacter.entries == (0, 0)
    assert not all(e.is_exact for r in fact.left.rows for e in r)
    assert fact.product() == a


def test_stratum_examples():
    assert stratum(LoopMatrix.identity(QQ, 2)).entries == (0, 0)
    anti = LoopMatrix.from_rows(QQ, [[0, [(-2, 1)]], [[(2, 1)], 0]])
    assert stratum(anti).entries == (2, -2)
    assert minors_stratum_oracle(anti) == (2, -2)


def test_stratum_of_construction():
    for seed in range(10):
        lam = Cocharacter.dominant(
            [random.Random(f"c:{seed}:{i}").randint(-2, 2) for i in range(3)]
        )
        p = random_positive(3, seed=seed)
        m = mat_mul(monomial_loop(QQ, lam.entries), p)
        assert stratum(m) == lam


def test_orbit_invariance_small():
    rng = random.Random("cartan-orbit")
    for _ in range(30):
        n = rng.choice((1, 2, 3))
        a = random_loop(n, 2, seed=rng.randrange(10**6))
        p = random_positive(n, seed=rng.randrange(10**6))
        q = random_positive(n, seed=rng.randrange(10**6))
        assert stratum(mat_mul(mat_mul(p, a), q)) == stratum(a)


def test_stratum_agrees_with_minors_oracle():
    rng = random.Random("cartan-minors")
    for _ in range(40):
        n = rng.choice((2, 3))
        a = random_loop(n, 2, seed=rng.randrange(10**6))
        assert stratum(a).entries == minors_stratum_oracle(a)


def test_determinant_law():
    rng = random.Random("cartan-det")
    for _ in range(25):
        a = random_loop(2, 2, seed=rng.randrange(10**6))
        assert stratum(a).degree() == a.det().valuation


def test_duality_under_inverse():
    rng = random.Random("cartan-dual")
    for _ in range(20):
        a = random_loop(2, 2, seed=rng.randrange(10**6))
        assert stratum(mat_inverse(a)) == stratum(a).dual()


def test_coarse_stratum_examples():
    assert coarse_stratum(LoopMatrix.identity(QQ, 3)).orbit == (
        Cocharacter((0, 0, 0)),
    )
    sym = monomial_loop(QQ, (2, 0, -2))
    assert coarse_stratum(sym).orbit == (Cocharacter((2, 0, -2)),)
    asym = monomial_loop(QQ, (1, 1, -2))
    cs = coarse_stratum(asym)
    assert set(cs.orbit) == {Cocharacter((1, 1, -2)), Cocharacter((2, -1, -1))}
    assert cs.representative() == Cocharacter((2, -1, -1))


def test_coarse_stratum_transpose_inverse_invariance():
    rng = random.Random("cartan-coarse")
    for _ in range(15):
        a = random_loop(3, 1, seed=rng.randrange(10**6))
        assert coarse_stratum(transpose_inverse(a)) == coarse_stratum(a)


def test_parabolic_type_examples():
    assert parabolic_type(Cocharacter((0, 0, 0))).blocks == (3,)
    assert not parabolic_type(Cocharacter((0, 0, 0))).is_proper
    assert parabolic_type(Cocharacter((1, -1))).blocks == (1, 1)
    assert parabolic_type(Cocharacter((1, -1))).is_proper
    assert parabolic_type(Cocharacter((3, 3, 0, -1))).blocks == (2, 1, 1)


def test_parabolic_dichotomy_on_zero_sum():
    # on determinant-one cocharacters a single block happens only at zero
    rng = random.Random("cartan-parab")
    for _ in range(200):
        n = rng.choice((2, 3, 4))
        entries = [rng.randint(-3, 3) for _ in range(n - 1)]
        entries.append(-sum(entries))
        lam = Cocharacter.dominant(entries)
        assert parabolic_type(lam).is_proper == (not lam.is_zero)


def test_artinian_backend_rejected():
    from loopgr import ArtinianRing

    A = ArtinianRing(QQ, 2)
    with pytest.raises(DomainError):
        stratum(LoopMatrix.identity(A, 2))


def test_prime_field_stratum():
    F = PrimeField(3)
    m = mat_mul(
        elementary_loop(F, 2, 0, 1, LaurentSeries.t_power(F, -1)),
        monomial_loop(F, (1, 0)),
    )
    assert stratum(m).entries == minors_stratum_oracle(m)


def test_stratum_takes_polynomial_time_at_rank_16_and_12():
    # positivity is decided on the residue matrix, not by a 2^n expansion
    for loop in (LoopMatrix.identity(QQ, 16), random_loop(12, 2, 0, PrimeField(10007))):
        start = time.perf_counter()
        stratum(loop)
        assert time.perf_counter() - start < 1.0


def test_stratum_expands_no_determinant(monkeypatch):
    def forbidden(*args):
        raise AssertionError("stratum expanded a determinant")

    monkeypatch.setattr(loops, "_minor", forbidden)
    answered = 0
    for n in range(2, 6):
        for seed in range(4):
            loop = random_loop(n, 2, seed)
            if seed % 2:  # the same loop with every entry truncated
                loop = LoopMatrix([[e.truncated(e.shift + 6) for e in r] for r in loop.rows])
            try:
                stratum(loop)
                answered += 1
            except (PrecisionError, SingularToPrecision):
                pass
    assert answered >= 8


def _is_exact_unit_sign(e):
    ring = e.ring
    return e.is_exact and e.shift == 0 and e.coeffs in ((ring.one,), (ring.neg(ring.one),))


@pytest.mark.parametrize("args, products", [((3, 2, 7), 19), ((4, 1, 3), 44), ((5, 2, 0), 85)])
def test_smith_normal_form_forms_no_product_for_the_transforms(monkeypatch, args, products):
    # a block of size k costs k scalings, k(k-1) row and (k-1)^2 column updates;
    # U and V are written from the pivot cross and cost no product.  A product
    # is a mul call or a pair of a dot with no exact +-1 operand.
    loop = random_loop(*args)
    calls, mul, dot = [], LaurentSeries.mul, LaurentSeries.dot

    def counted(self, other):
        calls.append(None)
        return mul(self, other)

    def counted_dot(pairs):
        calls.extend(None for a, b in pairs if not (_is_exact_unit_sign(a) or _is_exact_unit_sign(b)))
        return dot(pairs)

    monkeypatch.setattr(LaurentSeries, "mul", counted)
    monkeypatch.setattr(LaurentSeries, "dot", staticmethod(counted_dot))
    smith_normal_form(loop)
    assert len(calls) == products == sum(k * k + (k - 1) ** 2 for k in range(1, loop.n + 1))


def test_stratum_products_and_eliminations_form_no_series_sum(monkeypatch):
    # every sum of products runs through LaurentSeries.dot: no product is
    # formed first and then added or subtracted
    art = ArtinianRing(QQ, 3)
    a, b = random_loop(4, 2, 5), random_loop(4, 2, 6)
    x = LaurentSeries.from_terms(art, [(-1, (1, 2, 0)), (1, (0, 1, -3))], 6)
    y = LaurentSeries.from_terms(art, [(0, (2, 0, 1)), (2, (1, 1, 1))])
    factors = [ElementaryFactor((1, 2), x), ElementaryFactor((2, 1), y), ElementaryFactor((1, 2), y)]

    def transvection_product():
        # a fresh gamma each time, so its determinant is expanded again
        gamma = LoopMatrix.from_rows(art, [[[(0, (1, 1, 0)), (1, (0, 0, 2))], 0], [[(1, (3, 0, 0))], 1]])
        product = Factorization(art, factors, gamma).product()
        return product, product.det()

    expected = (stratum(a), a.mat_mul(b), transvection_product())

    def forbidden(*args):
        raise AssertionError("a series sum was formed outside LaurentSeries.dot")

    monkeypatch.setattr(LaurentSeries, "add", forbidden)
    monkeypatch.setattr(LaurentSeries, "sub", forbidden)
    assert stratum(a) == expected[0]
    assert a.mat_mul(b) == expected[1]
    assert transvection_product() == expected[2]


def _hermite_lattices(ring, n, bound):
    """Every lattice between t^B O^n and t^-B O^n (and some beyond), once each,
    by its upper-triangular Hermite basis: diagonal t^a_i with a_i in [-B, B],
    entry (i, j), i < j, a polynomial with exponents in [-B, a_i)."""
    zero = LaurentSeries.zero(ring)
    scalars = [ring.of(c) for c in range(ring.p)]
    cells = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for diag in itertools.product(range(-bound, bound + 1), repeat=n):
        choices = [itertools.product(scalars, repeat=diag[i] + bound) for i, _ in cells]
        for entries in itertools.product(*choices):
            rows = [[zero] * n for _ in range(n)]
            for i, a in enumerate(diag):
                rows[i][i] = LaurentSeries.t_power(ring, a)
            for (i, j), cs in zip(cells, entries):
                rows[i][j] = LaurentSeries.make(ring, -bound, cs, None)
            yield LoopMatrix(rows)


def _cell_size(lam, q):
    """|K t^lam K / K| over F_q: q^<2rho, lam> [n]! / prod [m_i]!, the
    q-factorials at 1/q (Macdonald, Symmetric Functions, ch. V)."""
    x = Fraction(1, q)

    def factorial(k):
        return math.prod(sum(x**e for e in range(i)) for i in range(1, k + 1))

    dim = sum(a - b for a, b in itertools.combinations(lam, 2))
    blocks = parabolic_type(Cocharacter(lam)).blocks
    return q**dim * factorial(len(lam)) / math.prod(factorial(m) for m in blocks)


@pytest.mark.parametrize("q, n, bound", [(2, 2, 2), (3, 2, 2), (2, 3, 1), (3, 3, 1)])
def test_stratum_counts_match_cartan_cell_sizes(q, n, bound):
    # an oracle that shares no code with elimination: counting lattices
    tally = collections.Counter(
        stratum(g).entries for g in _hermite_lattices(PrimeField(q), n, bound)
    )
    inner = list(itertools.combinations_with_replacement(range(bound, -bound - 1, -1), n))
    assert len(inner) == math.comb(n + 2 * bound, n)
    for lam in inner:
        assert tally[lam] == _cell_size(lam, q), lam
