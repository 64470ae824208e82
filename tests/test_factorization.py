import math
import random

import pytest

from loopgr import (
    QQ,
    ArtinianRing,
    ElementaryFactor,
    Factorization,
    LaurentSeries,
    LoopMatrix,
    ModificationDatum,
    PrimeField,
    elementary_loop,
    extend_point,
    factor_elementary,
    lift_factorization,
    mat_mul,
    monomial_loop,
    reduce_datum,
    reduce_factorization,
    reduce_loop,
    stratum,
)
from loopgr import loops
from loopgr.errors import DomainError

from conftest import det_cancelling_sl2_loop, rand_exact_series, rand_truncated_series


def E12(terms, ring=QQ):
    return elementary_loop(ring, 2, 0, 1, LaurentSeries.from_terms(ring, terms))


def E21(terms, ring=QQ):
    return elementary_loop(ring, 2, 1, 0, LaurentSeries.from_terms(ring, terms))


def random_sl2(rng, ring=QQ, max_terms=3):
    """A random product of shears with exact Laurent-polynomial parameters
    and monomial determinant-one diagonals."""
    m = LoopMatrix.identity(ring, 2, "SL")
    for _ in range(rng.randint(1, max_terms)):
        kind = rng.randrange(3)
        if kind == 0:
            m = mat_mul(m, E12([(rng.randint(-2, 2), ring.random(rng))], ring))
        elif kind == 1:
            m = mat_mul(m, E21([(rng.randint(-2, 2), ring.random(rng))], ring))
        else:
            k = rng.randint(-2, 2)
            c = ring.random_unit(rng)
            m = mat_mul(
                m,
                LoopMatrix.from_rows(
                    ring, [[[(k, c)], 0], [0, [(-k, ring.inv(c))]]], "SL"
                ),
            )
    return m


def test_single_transvection_is_one_factor():
    m = E12([(-3, 1)])
    f = factor_elementary(m)
    assert len(f) == 1
    assert f.factors[0].position == (1, 2)
    assert f.factors[0].parameter == LaurentSeries.t_power(QQ, -3)


def test_rotation_standard_identity():
    rot = LoopMatrix.from_rows(QQ, [[0, 1], [-1, 0]], "SL")
    f = factor_elementary(rot)
    assert [x.position for x in f.factors] == [(1, 2), (2, 1), (1, 2)]
    params = [x.parameter for x in f.factors]
    assert params[0] == LaurentSeries.one(QQ)
    assert params[1] == LaurentSeries.constant(QQ, -1)
    assert params[2] == LaurentSeries.one(QQ)
    assert f.product().agrees_with(rot)


def test_premultiplication_is_one_row_operation(monkeypatch):
    # c = 0 and b a unit: E21(1) adds row 1 to row 2, then the three-factor
    # identity applies to [[t, 1], [t, 1 + 1/t]]; no loop product is formed
    t = LaurentSeries.t_power(QQ, 1)
    m = LoopMatrix([[t, LaurentSeries.one(QQ)], [LaurentSeries.zero(QQ), t.invert()]], "SL")

    def no_mat_mul(self, other):
        raise AssertionError("factorization called mat_mul")

    monkeypatch.setattr(LoopMatrix, "mat_mul", no_mat_mul)
    f = factor_elementary(m)
    assert [x.position for x in f.factors] == [(2, 1), (1, 2), (2, 1), (1, 2)]
    assert f.factors[0].parameter == LaurentSeries.constant(QQ, -1)
    assert f.factors[2].parameter == t
    assert f.product().agrees_with(m)


def test_diagonal_whitehead_identity():
    u = LaurentSeries.from_terms(QQ, [(0, 1), (1, 1)])  # 1 + t
    uinv = u.invert(16)
    m = LoopMatrix([[u, LaurentSeries.zero(QQ)], [LaurentSeries.zero(QQ), uinv]])
    f = factor_elementary(m)
    assert len(f) <= 4
    assert f.product().agrees_with(m)
    assert all(x.position in ((1, 2), (2, 1)) for x in f.factors)


def test_factor_count_bound_and_reconstruction_random():
    rng = random.Random("fact-recon")
    for _ in range(60):
        m = random_sl2(rng)
        f = factor_elementary(m)
        assert len(f) <= 4
        assert f.product().agrees_with(m)


def test_product_is_one_loop_with_one_determinant(monkeypatch):
    # the factors are applied as column operations: no factor matrix, no
    # partial product and no mat_mul; the one loop built records det gamma
    # (exactly 1 without gamma) and expands no determinant of its own
    rng = random.Random("fact-det-once")
    gammas = [
        None,
        E21([(1, 1)]),  # positive, SL
        LoopMatrix.from_rows(QQ, [[2, [(1, 1)]], [0, 1]]),  # positive, GL
    ]
    cases = []
    for _ in range(4):
        factors = factor_elementary(random_sl2(rng)).factors
        for gamma in gammas:
            f = Factorization(QQ, factors, gamma)
            expected = gamma or LoopMatrix.identity(QQ, 2, "SL")
            for x in factors:
                expected = expected.mat_mul(x.matrix())
            cases.append((f, expected))
    det, init = LoopMatrix.det, LoopMatrix.__init__
    computed, built = [], []

    def counting_det(self):
        if self._det is None:
            computed.append(self)
        return det(self)

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def no_mat_mul(self, other):
        raise AssertionError("product called mat_mul")

    monkeypatch.setattr(LoopMatrix, "det", counting_det)
    monkeypatch.setattr(LoopMatrix, "__init__", counting_init)
    monkeypatch.setattr(LoopMatrix, "mat_mul", no_mat_mul)
    for f, expected in cases:
        computed.clear()
        built.clear()
        # gamma's own expansion, once, if no earlier product cached it
        uncached = [f.gamma] if f.gamma is not None and f.gamma._det is None else []
        product = f.product()
        assert product == expected  # rows and group
        assert product.det() == (f.gamma.det() if f.gamma else LaurentSeries.one(QQ))
        assert len(built) == 1
        assert [id(m) for m in computed] == [id(m) for m in uncached]


def _random_factorization(ring, rng):
    def param():
        if rng.random() < 0.5:
            return rand_exact_series(ring, rng)
        return rand_truncated_series(ring, rng)

    factors = tuple(
        ElementaryFactor(rng.choice([(1, 2), (2, 1)]), param()) for _ in range(rng.randint(1, 5))
    )
    kind = rng.choice(["none", "SL", "GL"])
    if kind == "none":
        return Factorization(ring, factors)
    if kind == "SL":
        x = LaurentSeries.from_terms(ring, [(e, ring.random(rng)) for e in (0, 1, 2)])
        i = rng.randrange(2)
        return Factorization(ring, factors, elementary_loop(ring, 2, i, 1 - i, x))
    u = [ring.random_unit(rng) for _ in range(2)]
    c = [ring.random(rng) for _ in range(3)]
    gamma = LoopMatrix.from_rows(
        ring, [[[(0, u[0]), (1, c[0])], [(2, c[1])]], [[(1, c[2])], [(0, u[1])]]], "GL"
    )
    if rng.random() < 0.5:
        gamma = LoopMatrix([[e.truncated(rng.randint(1, 3)) for e in r] for r in gamma.rows])
    return Factorization(ring, factors, gamma)


@pytest.mark.parametrize(
    "ring",
    [QQ, PrimeField(10007), ArtinianRing(QQ, 2), ArtinianRing(QQ, 3), ArtinianRing(QQ, 4)],
    ids=lambda r: r.name,
)
def test_recorded_product_determinant_matches_expansion(monkeypatch, ring):
    # det(I + x*e_ij) = 1 for every x, even one known only on a window, so
    # the product records det gamma (exactly 1 without gamma); the minor
    # expansion of its rows stays the oracle on the expansion's window
    rng = random.Random(f"fact-det-oracle:{ring.name}")
    one, full = LaurentSeries.one(ring), (0, 1)
    minor, calls = loops._minor, []
    monkeypatch.setattr(loops, "_minor", lambda *args: calls.append(args) or minor(*args))
    for _ in range(80):
        f = _random_factorization(ring, rng)
        gamma_det = f.gamma.det() if f.gamma is not None else one
        calls.clear()
        product = f.product()
        assert product.det() == gamma_det
        assert not calls  # gamma's determinant was expanded above, once
        assert product.group == (f.gamma.group if f.gamma is not None else "SL")
        assert product.det().agrees_with(minor(product.rows, full, full, {}))


@pytest.mark.parametrize("n", [1, 3])
def test_gamma_must_be_two_by_two(n):
    factors = (ElementaryFactor((1, 2), LaurentSeries.t_power(QQ, -1)),)
    with pytest.raises(DomainError, match="2x2"):
        Factorization(QQ, factors, LoopMatrix.identity(QQ, n))


def test_factors_are_unipotent():
    rng = random.Random("fact-unip")
    one = LaurentSeries.one(QQ)
    two = LaurentSeries.constant(QQ, 2)
    for _ in range(30):
        m = random_sl2(rng)
        for x in factor_elementary(m).factors:
            mat = x.matrix()
            assert mat.det() == one  # determinant exactly 1
            trace = mat.entry(0, 0).add(mat.entry(1, 1))
            assert trace == two  # trace exactly 2
            prod = mat.mat_mul(x.inverse().matrix())
            assert prod.agrees_with(LoopMatrix.identity(QQ, 2, "SL"))


def test_factor_requires_sl():
    with pytest.raises(DomainError):
        factor_elementary(monomial_loop(QQ, (1, 0)))


def test_factor_higher_rank_not_implemented():
    with pytest.raises(NotImplementedError):
        factor_elementary(LoopMatrix.identity(QQ, 3))


# ---------------------------------------------------------------------------
# lifts


def test_constant_lift_roundtrip():
    A = ArtinianRing(QQ, 2)
    f = factor_elementary(E12([(-1, 1)]))
    lifted = lift_factorization(f, A)
    assert reduce_factorization(lifted).factors == f.factors
    assert lifted.factors[0].parameter.ring == A


def test_perturbed_lift_still_reduces():
    A = ArtinianRing(QQ, 2)
    f = factor_elementary(E12([(-1, 1)]))
    pert = {0: LaurentSeries.from_terms(A, [(-2, A.gen())])}
    lifted = lift_factorization(f, A, pert)
    assert lifted.factors[0].parameter != f.factors[0].parameter.map_coefficients(
        A.from_base, A
    )
    assert reduce_factorization(lifted).factors == f.factors


def test_perturbation_must_be_in_maximal_ideal():
    A = ArtinianRing(QQ, 2)
    f = factor_elementary(E12([(-1, 1)]))
    with pytest.raises(DomainError):
        lift_factorization(f, A, {0: LaurentSeries.one(A)})


def test_lift_of_rotation_multiplies_out():
    A = ArtinianRing(QQ, 3)
    rot = LoopMatrix.from_rows(QQ, [[0, 1], [-1, 0]], "SL")
    lifted = lift_factorization(factor_elementary(rot), A)
    product = lifted.product()
    assert reduce_loop(product) == rot


# ---------------------------------------------------------------------------
# extension over the local test base


def test_extend_identity_loops():
    A = ArtinianRing(QQ, 2)
    d = ModificationDatum.at_points(QQ, ["0"], [LoopMatrix.identity(QQ, 2, "SL")])
    out = extend_point(d, A)
    assert out.ring == A
    assert reduce_datum(out).loops[0] == d.loops[0]


def test_extend_diagonal_has_expected_stratum():
    A = ArtinianRing(QQ, 2)
    d = ModificationDatum.at_points(QQ, ["0"], [monomial_loop(QQ, (1, -1), "SL")])
    out = extend_point(d, A)
    red = reduce_datum(out)
    assert stratum(red.loops[0]).entries == (1, -1)
    assert red.loops[0] == d.loops[0]


def test_extend_with_perturbation_reduces_exactly():
    A = ArtinianRing(QQ, 2)
    d = ModificationDatum.at_points(QQ, ["0"], [E12([(-1, 1)])])
    pert = {0: {0: LaurentSeries.from_terms(A, [(-2, A.gen())])}}
    out = extend_point(d, A, pert)
    red = reduce_datum(out)
    assert red.loops[0] == d.loops[0]
    # the perturbation is visible before reduction
    assert not all(
        a == b
        for ra, rb in zip(out.loops[0].rows, extend_point(d, A).loops[0].rows)
        for a, b in zip(ra, rb)
    )


def test_extend_random_reduces_on_window():
    rng = random.Random("fact-extend")
    A = ArtinianRing(QQ, 3)
    for _ in range(20):
        m = random_sl2(rng)
        d = ModificationDatum.at_points(QQ, ["0"], [m])
        out = extend_point(d, A)
        red = reduce_datum(out)
        assert red.loops[0].agrees_with(d.loops[0])


def test_extend_requires_rank_two():
    A = ArtinianRing(QQ, 2)
    d = ModificationDatum.at_points(QQ, ["0"], [LoopMatrix.identity(QQ, 3)])
    with pytest.raises(NotImplementedError):
        extend_point(d, A)


def _window_end(e):
    return math.inf if e.known_end is None else e.known_end


def test_extend_det_cancelling_loop_needs_no_retry():
    # the lifted entries are known to t^8, t^6, exactly and t^8, and their
    # minor expansion is O(t^0); the lift is a product of transvections, so
    # its determinant is exactly 1 and no retry is asked for
    loop = det_cancelling_sl2_loop()
    d = ModificationDatum.at_points(QQ, ["1"], [loop])
    A = ArtinianRing(QQ, 2)
    lifted = extend_point(d, A)
    assert reduce_datum(lifted).loops[0].agrees_with(loop)
    (lp,) = lifted.loops
    assert lp.group == "SL" and lp.det() == LaurentSeries.one(A)
    assert loops._minor(lp.rows, (0, 1), (0, 1), {}) == LaurentSeries.zero(A, 0)
    wider = extend_point(d, A, precision=32).loops[0]
    for r, w in zip(lp.rows, wider.rows):
        assert all(_window_end(b) >= _window_end(a) for a, b in zip(r, w))


def test_extend_rejects_a_perturbation_of_a_missing_loop():
    A = ArtinianRing(QQ, 2)
    d = ModificationDatum.at_points(QQ, ["0"], [E12([(-1, 1)])])
    pert = {0: LaurentSeries.from_terms(A, [(0, A.gen())])}
    for idx in (1, 7, -1):
        with pytest.raises(DomainError, match="out of range"):
            extend_point(d, A, {idx: pert})
    # the infinity loop is the last loop, so index 1 names it
    d = d.with_infinity(E21([(1, 1)]))
    assert reduce_datum(extend_point(d, A, {1: pert})).infinity_loop == d.infinity_loop


# ---------------------------------------------------------------------------
# change of base: one map_coefficients per value type, one reduction body


@pytest.mark.parametrize("base", [QQ, PrimeField(10007)], ids=lambda r: r.name)
def test_constant_lift_then_reduce_is_the_identity_property(base):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=30, deadline=None, database=None)
    @hypothesis.given(st.integers(0, 2**32), st.integers(2, 4))
    def check(seed, m):
        rng = random.Random(seed)
        A = ArtinianRing(base, m)
        u = [base.random_unit(rng) for _ in range(2)]
        c = [base.random(rng) for _ in range(3)]
        gamma = LoopMatrix.from_rows(
            base, [[[(0, u[0]), (1, c[0])], [(2, c[1])]], [[(1, c[2])], [(0, u[1])]]], "GL"
        )
        fact = factor_elementary(random_sl2(rng, base))
        values = [
            (rand_truncated_series(base, rng), reduce_loop),
            (random_sl2(rng, base), reduce_loop),
            (fact, reduce_factorization),
            (Factorization(base, fact.factors, gamma), reduce_factorization),
            (
                ModificationDatum.at_points(
                    base, ["0", "1"], [random_sl2(rng, base), gamma], random_sl2(rng, base)
                ),
                reduce_datum,
            ),
        ]
        for value, reduce in values:
            lifted = value.map_coefficients(A.from_base, A)
            assert lifted.ring == A
            assert reduce(lifted) == value
            with pytest.raises(DomainError):
                reduce(value)  # the base is a field, not k[x]/(x^m)

    check()
