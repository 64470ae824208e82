import random

import pytest

from loopgr import (
    QQ,
    ArtinianRing,
    LaurentSeries,
    LoopMatrix,
    PrimeField,
    elementary_loop,
    is_positive,
    mat_inverse,
    mat_mul,
    monomial_loop,
    pole_bound,
    random_loop,
    random_positive,
)
from loopgr.errors import (
    BackendMismatch,
    DomainError,
    InsufficientPrecision,
    NonUnitLeading,
    SingularToPrecision,
)
from loopgr.loops import _min_valuation_pivot

from conftest import _exact_det, rand_exact_series, rand_truncated_series

ORACLE_RINGS = [QQ, PrimeField(10007), ArtinianRing(QQ, 3)]


def E12(ring, terms):
    return elementary_loop(ring, 2, 0, 1, LaurentSeries.from_terms(ring, terms))


def E21(ring, terms):
    return elementary_loop(ring, 2, 1, 0, LaurentSeries.from_terms(ring, terms))


def test_identity_is_neutral():
    a = random_loop(2, 1, seed=3)
    i = LoopMatrix.identity(QQ, 2)
    assert mat_mul(i, a).agrees_with(a)
    assert mat_mul(a, i).agrees_with(a)


def test_monomial_product_cancels():
    a = monomial_loop(QQ, (1, -1))
    b = monomial_loop(QQ, (-1, 1))
    assert mat_mul(a, b) == LoopMatrix.identity(QQ, 2)


def test_unipotent_product_example():
    # [[1, t^-1], [0, 1]] * [[1, 0], [t, 1]] = [[2, t^-1], [t, 1]]
    prod = mat_mul(E12(QQ, [(-1, 1)]), E21(QQ, [(1, 1)]))
    expected = LoopMatrix.from_rows(QQ, [[2, [(-1, 1)]], [[(1, 1)], 1]], "GL")
    assert prod.agrees_with(expected)
    assert prod.entry(0, 0) == LaurentSeries.constant(QQ, 2)


def test_inverse_examples():
    i = LoopMatrix.identity(QQ, 2)
    assert mat_inverse(i) == i
    d = monomial_loop(QQ, (2, -2))
    assert mat_inverse(d) == monomial_loop(QQ, (-2, 2))
    u = E12(QQ, [(-1, 1)])
    assert mat_inverse(u).agrees_with(E12(QQ, [(-1, -1)]))
    assert mat_mul(u, mat_inverse(u)).agrees_with(i)


def test_inverse_singular():
    zero = LaurentSeries.zero(QQ, 8)
    m = LoopMatrix([[zero, zero], [zero, zero]])
    with pytest.raises(SingularToPrecision):
        m.inverse()
    # rank 4 goes through elimination, which runs out of pivots
    rows = [list(r) for r in random_loop(4, 1, 0).rows]
    rows[3] = rows[1]
    with pytest.raises(SingularToPrecision):
        LoopMatrix(rows).inverse()


def test_truncated_rank4_inverse_needs_no_determinant():
    # the cofactor determinant of this loop is O(t^0), but elimination
    # certifies every pivot, and its inverse agrees with the exact one
    g = random_loop(4, 1, 0)
    tr = LoopMatrix([[e.truncated(3) for e in r] for r in g.rows])
    assert tr.det().is_zero_to_precision
    inv = tr.inverse()
    assert inv.agrees_with(g.inverse())
    assert mat_mul(tr, inv).agrees_with(LoopMatrix.identity(QQ, 4))


def _truncated_at_one(a):
    return LoopMatrix([[e.truncated(1) for e in r] for r in a.rows])


def _with_unit_corner(a):
    # diag(a, 1) as a loop of rank a.n + 1
    zero, one = LaurentSeries.zero(a.ring, None), LaurentSeries.one(a.ring)
    rows = [list(r) + [zero] for r in a.rows] + [[zero] * a.n + [one]]
    return LoopMatrix(rows)


def test_gauss_inverse_keeps_unknown_entries_unknown():
    # elimination meets a pivot-column entry that is O(t^1), zero only on
    # its window; skipping its row as if it were 0 made entry (2, 1) of the
    # inverse exactly 0
    g = random_loop(3, 1, 2)
    big = _with_unit_corner(_truncated_at_one(g))
    inv = big.inverse()
    assert inv.entry(2, 1).is_zero_to_precision
    assert not inv.entry(2, 1).is_exact_zero
    assert inv.entry(2, 1).known_end == 1
    assert inv.agrees_with(_with_unit_corner(g).inverse())


def test_small_inverse_falls_back_to_elimination():
    # the determinant of the truncated loop is zero on its window only, so
    # the cofactor path cannot divide by it; elimination still certifies
    g = random_loop(3, 1, 2)
    tr = _truncated_at_one(g)
    assert tr.det().is_zero_to_precision and not tr.det().is_exact_zero
    assert tr.inverse().agrees_with(g.inverse())
    # an exactly singular small loop still raises
    one = LaurentSeries.one(QQ)
    with pytest.raises(SingularToPrecision):
        LoopMatrix([[one, one], [one, one]]).inverse()


def _window_ends(m):
    return [e.known_end for r in m.rows for e in r]


def test_truncated_small_inverse_keeps_the_longer_window_per_entry():
    # a = 1 + t is exact, so elimination inverts its pivot at the working
    # precision 2, while the cofactor path divides by the determinant on its
    # own window; each entry keeps the longer of the two certified windows
    a = LaurentSeries.from_terms(QQ, [(0, 1), (1, 1)])
    b = LaurentSeries.from_terms(QQ, [(1, 1)], 4)
    c = LaurentSeries.from_terms(QQ, [(0, 1), (1, 2)], 4)
    d = LaurentSeries.from_terms(QQ, [(0, 3)], 4)
    m = LoopMatrix([[a, b], [c, d]])
    gauss = m._gauss_inverse(2)
    assert _window_ends(gauss) == [2, 3, 2, 3]
    inv = m.inverse(2)
    assert _window_ends(inv) == [4, 4, 4, 4]
    assert inv.agrees_with(gauss)
    exact = LoopMatrix.from_rows(QQ, [[[(0, 1), (1, 1)], [(1, 1)]], [[(0, 1), (1, 2)], 3]])
    assert inv.agrees_with(exact.inverse(8))


def test_truncated_small_inverse_is_never_shorter_than_elimination():
    rng = random.Random("inverse-windows")
    longer = 0
    for _ in range(40):
        g = random_loop(rng.randint(1, 3), rng.randint(0, 2), rng.randrange(10**6))
        # mostly exact entries: elimination then inverts exact pivots at the
        # working precision
        rows = [[e.truncated(rng.randint(2, 12)) if rng.random() < 0.2 else e for e in r] for r in g.rows]
        m = LoopMatrix(rows)
        for p in (None, 4):
            try:
                gauss = m._gauss_inverse(p)
            except (InsufficientPrecision, SingularToPrecision):
                continue
            inv = LoopMatrix(rows).inverse(p)
            assert inv.agrees_with(gauss) and inv.agrees_with(g.inverse(p))
            ends = zip(_window_ends(inv), _window_ends(gauss))
            assert all(x is None or (y is not None and y <= x) for x, y in ends)
            longer += _window_ends(inv) != _window_ends(gauss)
    assert longer >= 10


def test_elimination_pivots_on_a_unit_leading_coefficient():
    # over QQ[x]/(x^2), x in corner (0, 0) has the least valuation but a
    # nilpotent leading coefficient, so the pivot must be the 1 below it
    A = ArtinianRing(QQ, 2)
    x = LaurentSeries.constant(A, A.gen())
    for n in (2, 3, 4, 5):
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        rows[0][:2], rows[1][:2] = [x, 1], [1, 0]
        m = LoopMatrix.from_rows(A, rows)
        inv = m.inverse()
        ident = LoopMatrix.identity(A, n)
        assert mat_mul(m, inv) == ident and mat_mul(inv, m) == ident
        assert m.pole_bound() == 0
    # no unit leading coefficient left in the pivot column
    rows = [[x, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    with pytest.raises(NonUnitLeading):
        LoopMatrix.from_rows(A, rows).inverse()


def test_pole_bound_examples():
    assert pole_bound(LoopMatrix.identity(QQ, 3)) == 0
    assert pole_bound(monomial_loop(QQ, (3, -3))) == 3
    assert pole_bound(E12(QQ, [(-1, 1)])) == 1
    # entries with positive valuation still force a pole on the inverse
    assert pole_bound(monomial_loop(QQ, (2, 2))) == 2


def test_is_positive_examples():
    assert is_positive(LoopMatrix.identity(QQ, 2))
    assert not is_positive(monomial_loop(QQ, (1, -1)))
    m = LoopMatrix.from_rows(QQ, [[1, [(1, 1)]], [[(2, 1)], 1]])
    assert is_positive(m)
    # pole-free but singular constant term
    n = LoopMatrix.from_rows(QQ, [[[(1, 1)], 1], [[(1, 1)], 1]])
    assert not is_positive(n)


def test_is_positive_does_not_depend_on_entry_order():
    # a known pole decides, whatever entry hides a window that ends at t^0
    hidden, pole, one = LaurentSeries.zero(QQ, 0), LaurentSeries.t_power(QQ, -1), LaurentSeries.one(QQ)
    assert not is_positive(LoopMatrix([[hidden, pole], [one, one]]))
    assert not is_positive(LoopMatrix([[pole, hidden], [one, one]]))
    with pytest.raises(InsufficientPrecision):
        is_positive(LoopMatrix([[hidden, one], [one, one]]))


def test_min_valuation_pivot_ties_and_hidden_entries():
    t1, t2, t3 = (LaurentSeries.t_power(QQ, k) for k in (1, 2, 3))
    m = [[t2, t1], [t1, t3]]
    assert _min_valuation_pivot(m, 0, None) == (0, 1)  # ties go to the first row
    assert _min_valuation_pivot(m, 0, None, rows_only=True) == (1, 0)
    # an entry zero on a window that ends at the pivot valuation may tie it
    m[1][1] = LaurentSeries.zero(QQ, 1)
    with pytest.raises(InsufficientPrecision) as exc:
        _min_valuation_pivot(m, 0, 24)
    assert exc.value.suggested_precision == 48
    m[1][1] = LaurentSeries.zero(QQ, 2)
    assert _min_valuation_pivot(m, 0, None) == (0, 1)


_ONE = LaurentSeries.one(QQ)


@pytest.mark.parametrize(
    "rows, group, error, message",
    [
        pytest.param([], "GL", DomainError, "square and non-empty", id="empty"),
        pytest.param([[_ONE, _ONE]], "GL", DomainError, "square and non-empty", id="not-square"),
        pytest.param([[_ONE, 1], [_ONE, _ONE]], "GL", DomainError, "must be LaurentSeries", id="scalar-later"),
        pytest.param([[1]], "GL", DomainError, "must be LaurentSeries", id="scalar-first"),
        pytest.param([[1, _ONE], [_ONE, _ONE]], "GL", DomainError, "must be LaurentSeries", id="scalar-first-of-two"),
        pytest.param(
            [[_ONE, _ONE], [_ONE, LaurentSeries.one(PrimeField(7))]], "GL", BackendMismatch, "mixed", id="mixed"
        ),
        pytest.param([[_ONE]], "PGL", DomainError, "unknown group flag", id="group"),
    ],
)
def test_loop_constructor_checks(rows, group, error, message):
    with pytest.raises(error, match=message):
        LoopMatrix(rows, group)


@pytest.mark.parametrize("i, j", [(0, 0), (1, 1), (0, 2), (-1, 0)])
def test_elementary_loop_needs_an_off_diagonal_position(i, j):
    with pytest.raises(DomainError, match="off-diagonal"):
        elementary_loop(QQ, 2, i, j, _ONE)


def test_sl_flag_checked():
    with pytest.raises(DomainError):
        monomial_loop(QQ, (1, 1), "SL")
    monomial_loop(QQ, (1, -1), "SL")  # determinant 1, fine


def test_random_positive_is_positive():
    for seed in range(30):
        for n in (1, 2, 3):
            assert is_positive(random_positive(n, seed))


def test_random_loop_pole_bound_and_recorded_cocharacter():
    for seed in range(15):
        m = random_loop(3, 2, seed)
        assert pole_bound(m) <= 4  # product bound
        assert m.built_from is not None
    m0 = random_loop(2, 0, seed=5)
    assert is_positive(m0)


def test_group_laws_random():
    rng = random.Random("loops-laws")
    for n in (1, 2, 3):
        ident = LoopMatrix.identity(QQ, n)
        for trial in range(200):
            a = random_loop(n, 1, seed=rng.randrange(10**6))
            b = random_loop(n, 1, seed=rng.randrange(10**6))
            c = random_positive(n, seed=rng.randrange(10**6))
            cl = LoopMatrix(c.rows)
            assert mat_mul(mat_mul(a, b), cl).agrees_with(mat_mul(a, mat_mul(b, cl)))
            inv = mat_inverse(a, 10)
            assert mat_mul(a, inv).agrees_with(ident)
            assert mat_mul(inv, a).agrees_with(ident)


def test_pole_bound_subadditive():
    rng = random.Random("loops-filtration")
    for _ in range(25):
        a = random_loop(2, rng.randint(0, 2), seed=rng.randrange(10**6))
        b = random_loop(2, rng.randint(0, 2), seed=rng.randrange(10**6))
        assert pole_bound(mat_mul(a, b)) <= pole_bound(a) + pole_bound(b)


def test_positive_loops_closed_under_product():
    rng = random.Random("loops-positive")
    for _ in range(40):
        a = random_positive(2, seed=rng.randrange(10**6))
        b = random_positive(2, seed=rng.randrange(10**6))
        assert is_positive(mat_mul(a, b))


def test_det_valuation_additive():
    rng = random.Random("loops-det")
    for _ in range(25):
        a = random_loop(2, 2, seed=rng.randrange(10**6))
        b = random_loop(2, 2, seed=rng.randrange(10**6))
        ab = mat_mul(a, b)
        assert ab.det().valuation == a.det().valuation + b.det().valuation


def test_backends_other_than_q():
    F = PrimeField(5)
    m = monomial_loop(F, (1, -1))
    assert pole_bound(m) == 1
    A = ArtinianRing(QQ, 2)
    u = LoopMatrix.from_rows(A, [[1, [(0, A.gen())]], [0, 1]])
    assert is_positive(u)


def test_gauss_inverse_larger_matrix():
    # n = 4 goes through elimination rather than the adjugate
    rng = random.Random("gauss4")
    diag = monomial_loop(QQ, (1, 0, 0, -1))
    p = random_positive(4, seed=9)
    m = mat_mul(p, diag)
    inv = m.inverse(12)
    assert mat_mul(m, inv).agrees_with(LoopMatrix.identity(QQ, 4))


@pytest.mark.parametrize("ring", ORACLE_RINGS, ids=lambda r: r.name)
def test_det_matches_minors_oracle(ring):
    # the oracle expands along the first row in the same order, so even the
    # windows of truncated entries must agree exactly
    rng = random.Random(f"det-oracle:{ring.name}")
    for n in range(1, 7):
        for truncated in (False, True):
            rows = [
                [
                    rand_truncated_series(ring, rng, -1, 1, window=6)
                    if truncated
                    else rand_exact_series(ring, rng, -1, 1)
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
            assert LoopMatrix(rows).det() == _exact_det(rows)


@pytest.mark.parametrize(
    "ring", ORACLE_RINGS + [ArtinianRing(PrimeField(10007), 2)], ids=lambda r: r.name
)
def test_is_positive_matches_constant_term_oracle(ring):
    rng = random.Random(f"positive-oracle:{ring.name}")
    seen = set()
    for n in range(1, 6):
        for trial in range(12):
            consts = [[ring.random(rng) for _ in range(n)] for _ in range(n)]
            if trial % 3 == 0 and n > 1:
                consts[-1] = list(consts[0])  # singular modulo t
            if trial % 4 == 1 and not ring.is_field:
                consts[0] = [ring.mul(ring.gen(), c) for c in consts[0]]  # not a unit
            rows = []
            for i in range(n):
                row = []
                for j in range(n):
                    e = LaurentSeries.constant(ring, consts[i][j])
                    e = e.add(rand_exact_series(ring, rng, 1, 3))
                    if trial % 2:
                        e = e.truncated(rng.randint(1, 4))
                    row.append(e)
                rows.append(row)
            if trial % 5 == 4:
                rows[0][-1] = rows[0][-1].add(LaurentSeries.t_power(ring, -1))
            pole_free = not any(e.coeffs and e.shift < 0 for r in rows for e in r)
            constant_rows = [
                [LaurentSeries.constant(ring, e.coefficient(0)) for e in r] for r in rows
            ]
            expected = pole_free and ring.is_unit(
                _exact_det(constant_rows).coefficient(0)
            )
            assert is_positive(LoopMatrix(rows)) == expected
            seen.add(expected)
    assert seen == {True, False}


def test_pole_bound_suggestion_exceeds_precision_in_use():
    m = LoopMatrix([[LaurentSeries.zero(QQ, -1)]])
    with pytest.raises(InsufficientPrecision) as exc:
        m.pole_bound(1024)
    assert exc.value.suggested_precision > 1024
