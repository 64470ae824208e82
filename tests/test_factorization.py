import random

import pytest

from loopgr import (
    DEFAULT_PRECISION,
    QQ,
    ArtinianRing,
    ElementaryFactor,
    Factorization,
    LaurentSeries,
    LoopMatrix,
    ModificationDatum,
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
from loopgr.errors import DomainError, InsufficientPrecision

from conftest import det_cancelling_sl2_loop, rand_exact_series


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


def test_diagonal_whitehead_identity():
    u = LaurentSeries.from_terms(QQ, [(0, 1), (1, 1)])  # 1 + t
    uinv = u.invert(16)
    m = LoopMatrix([[u, LaurentSeries.zero(QQ)], [LaurentSeries.zero(QQ), uinv]])
    f = factor_elementary(m)
    assert len(f) <= 8
    assert f.product().agrees_with(m)
    assert all(x.position in ((1, 2), (2, 1)) for x in f.factors)


def test_factor_count_bound_and_reconstruction_random():
    rng = random.Random("fact-recon")
    for _ in range(60):
        m = random_sl2(rng)
        f = factor_elementary(m)
        assert len(f) <= 8
        assert f.product().agrees_with(m)


def test_product_is_one_loop_with_one_determinant(monkeypatch):
    # the factors are applied as column operations: no factor matrix, no
    # partial product and no mat_mul; the one loop built computes one
    # determinant, its SL check, and none when gamma is GL
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
        assert f.product() == expected  # rows and group
        assert len(built) == 1
        assert len(computed) == (expected.group == "SL")


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


def test_extend_precision_failure_is_retryable():
    loop = det_cancelling_sl2_loop()
    d = ModificationDatum.at_points(QQ, ["1"], [loop])
    A = ArtinianRing(QQ, 2)
    with pytest.raises(InsufficientPrecision) as err:
        extend_point(d, A)
    suggested = err.value.suggested_precision
    assert suggested > DEFAULT_PRECISION
    out = extend_point(d, A, precision=suggested)
    assert reduce_datum(out).loops[0].agrees_with(loop)
