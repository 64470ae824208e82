"""Seeded inputs, jobs and independent checks of the in-process workloads.

Each workload builds a pool of inputs from the seed during set-up.  Inputs
hold only immutable values (tuples of ``LaurentSeries`` rows, points, seeded
scalars); every job builds fresh ``LoopMatrix`` and ``ModificationDatum``
objects from them, because loops cache their inverse and pole bound
write-once and users pay that cost for every new loop.  Jobs cycle through
the pool, so a run may see an input more than once but never a warm cache.

A job returns its exact outputs; ``check`` compares them with facts known by
construction of the input, never with a second run of the code under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from loopgr import (
    QQ,
    ArtinianRing,
    LaurentSeries,
    LoopMatrix,
    ModificationDatum,
    PrimeField,
    cartan,
    elementary_loop,
    factorization,
    mat_mul,
    monomial_loop,
    p1bundles,
    random_loop,
    random_positive,
    reduce_datum,
)
from loopgr.cartan import Cocharacter
from loopgr.factorization import Factorization
from loopgr.p1bundles import SplittingType

GF = PrimeField(10007)


@dataclass(frozen=True)
class Workload:
    name: str
    period: int  # the job mix repeats every `period` jobs
    pool_size: int  # a multiple of period
    build: Callable  # (seed, size) -> list of inputs
    run: Callable  # input -> exact outputs
    check: Callable  # (input, outputs) -> None or a failure message


# -- strata-qq ---------------------------------------------------------------

# Rank, truncation and window cycle with the job index (period 36) rather
# than being drawn from the seed: they set most of a job's cost, so drawing
# them would change the cost mix, and with it every timing, from seed to seed.
STRATA_RANKS = (2, 3, 4, 5)
STRATA_WINDOWS = (8, 12, 20)


def _build_strata(seed: int, size: int):
    rng = random.Random(f"strata-qq:{seed}")
    pool = []
    for i in range(size):
        n = STRATA_RANKS[i % len(STRATA_RANKS)]
        a = random_loop(n, 2, seed=rng.randrange(2**30))
        p = random_positive(n, seed=rng.randrange(2**30))
        q = random_positive(n, seed=rng.randrange(2**30))
        rows = mat_mul(mat_mul(p, a), q).rows
        if i % 3 == 2:
            window = STRATA_WINDOWS[(i // 3) % len(STRATA_WINDOWS)]
            rows = tuple(tuple(e.truncated(window) for e in r) for r in rows)
        pool.append((rows, a.built_from))
    return pool


def _run_strata(item):
    rows, _ = item
    return cartan.stratum(LoopMatrix(rows))


def _check_strata(item, lam):
    _, built_from = item
    if lam.entries != built_from:
        return f"stratum {lam.entries} != built_from {built_from}"
    return None


# -- bundles-gf --------------------------------------------------------------


def _lam(n: int, bound: int, slot: int) -> list[int]:
    """A dominant coweight with max |lam_i| == bound, chosen by the slot."""
    shapes = ((1, -1), (1, 0), (0, -1)) if n == 2 else ((1, 0, -1), (1, 1, 0), (0, -1, -1))
    return [bound * x for x in shapes[slot % len(shapes)]]


def _loop_with_lam(lam: list[int], rng) -> tuple:
    """positive * t^lam * positive: its pole bound is max |lam_i| and its
    determinant has valuation sum(lam)."""
    n = len(lam)
    left = random_positive(n, rng.randrange(2**30), GF)
    right = random_positive(n, rng.randrange(2**30), GF)
    return mat_mul(mat_mul(left, monomial_loop(GF, lam)), right).rows


def _build_bundles(seed: int, size: int):
    # Rank, point count, coweights (so pole bounds) and the infinity loop are
    # fixed by the job index (period 36), so each slot costs the same for
    # every seed; the seed draws the points and the positive factors.
    rng = random.Random(f"bundles-gf:{seed}")
    pool = []
    for i in range(size):
        n = 2 + i % 2
        k = 2 + (i // 2) % 2
        points = tuple(GF.of(r) for r in rng.sample(range(GF.p), k))
        lams = [_lam(n, 1 + (i + j) % 3, i // 12 + j) for j in range(k)]
        inf_lam = _lam(n, 1, i // 12) if i % 3 == 2 else None
        degree = -sum(sum(lam) for lam in lams + ([inf_lam] if inf_lam else []))
        pool.append(
            (
                n,
                points,
                tuple(_loop_with_lam(lam, rng) for lam in lams),
                _loop_with_lam(inf_lam, rng) if inf_lam else None,
                degree,
            )
        )
    return pool


def _run_bundles(item):
    n, points, loop_rows, inf_rows, _ = item
    datum = ModificationDatum(
        GF,
        n,
        points,
        tuple(LoopMatrix(rows) for rows in loop_rows),
        LoopMatrix(inf_rows) if inf_rows is not None else None,
    )
    return p1bundles.splitting_type(datum)


def _check_bundles(item, st):
    degree = item[4]
    if st.degree() != degree:
        return f"degree law: splitting type {st.a} has degree {st.degree()}, expected {degree}"
    return None


# -- lift-artinian -----------------------------------------------------------

LIFT_ORDERS = (2, 3, 4, 5, 6)


# Laurent exponents of the transvection parameters, one tuple per parameter
LIFT_EXPONENTS = ((0,), (-1,), (1,), (-1, 0), (0, 1), (-1, 1))


def _build_lift(seed: int, size: int):
    # Backend, number of transvections, parameter exponents and which factors
    # get perturbed are fixed by the job index (period 36), so each slot costs
    # about the same for every seed; the seed draws coefficients and point.
    rng = random.Random(f"lift-artinian:{seed}")
    pool = []
    for i in range(size):
        ring = QQ if i % 2 == 0 else GF
        m = LoopMatrix.identity(ring, 2, "SL")
        for j in range(3 + i % 3):
            exps = LIFT_EXPONENTS[(5 * (i // 6) + j) % len(LIFT_EXPONENTS)]
            param = LaurentSeries.from_terms(ring, [(e, ring.random_unit(rng)) for e in exps])
            i0, j0 = (0, 1) if j % 2 == 0 else (1, 0)
            m = m.mat_mul(elementary_loop(ring, 2, i0, j0, param))
        point = ring.of(rng.randint(-3, 3))
        # per nilpotency order: (factor index, exponent, base unit) triples
        perturb = {
            order: [
                (f, (i + f) % 3 - 1, ring.random_unit(rng))
                for f in range(8)
                if (i + f + order) % 2 == 0
            ]
            for order in LIFT_ORDERS
        }
        pool.append((ring, point, m.rows, perturb))
    return pool


def _run_lift(item):
    ring, point, rows, perturb = item
    loop = LoopMatrix(rows, "SL")
    datum = ModificationDatum(ring, 2, (point,), (loop,))
    fact = factorization.factor_elementary(loop)
    extended = []
    for order in LIFT_ORDERS:
        target = ArtinianRing(ring, order)
        x = target.gen()
        per = {
            f: LaurentSeries.from_terms(target, [(e, target.mul(x, target.from_base(c)))])
            for f, e, c in perturb[order]
            if f < len(fact)
        }
        extended.append(factorization.extend_point(datum, target, {0: per}))
    return loop, fact, extended


def _check_lift(item, outputs):
    _, point, rows, _ = item
    loop, fact, extended = outputs
    if not fact.product().agrees_with(loop):
        return "factorization does not reconstruct the loop"
    for out in extended:
        red = reduce_datum(out)
        if [p.r for p in red.points] != [point] or not red.loops[0].agrees_with(loop):
            return f"reduce_datum over {out.ring} does not give back the input"
    return None


WORKLOADS = {
    "strata-qq": Workload("strata-qq", 36, 72, _build_strata, _run_strata, _check_strata),
    "bundles-gf": Workload("bundles-gf", 36, 108, _build_bundles, _run_bundles, _check_bundles),
    "lift-artinian": Workload("lift-artinian", 36, 108, _build_lift, _run_lift, _check_lift),
}


# -- canonical form of exact outputs, for the golden digests -----------------


def _scalar(c):
    if isinstance(c, tuple):
        return [str(x) for x in c]
    return str(c)


def canonical(x):
    """A JSON-able form of an exact output that does not go through
    ``loopgr.jsonio``, so the digest does not rest on the emitters."""
    if isinstance(x, LaurentSeries):
        return ["series", x.shift, [_scalar(c) for c in x.coeffs], x.known_end]
    if isinstance(x, LoopMatrix):
        return ["loop", x.group, [[canonical(e) for e in r] for r in x.rows]]
    if isinstance(x, Cocharacter):
        return ["lambda", list(x.entries)]
    if isinstance(x, SplittingType):
        return ["splitting", list(x.a)]
    if isinstance(x, Factorization):
        gamma = canonical(x.gamma) if x.gamma is not None else None
        return [
            "factorization",
            gamma,
            [[list(f.position), canonical(f.parameter)] for f in x.factors],
        ]
    if isinstance(x, ModificationDatum):
        inf = canonical(x.infinity_loop) if x.infinity_loop is not None else None
        return [
            "datum",
            x.n,
            [_scalar(p.r) for p in x.points],
            [canonical(lp) for lp in x.loops],
            inf,
        ]
    if isinstance(x, (list, tuple)):
        return [canonical(v) for v in x]
    raise TypeError(f"no canonical form for {type(x).__name__}")

