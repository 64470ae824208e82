"""Elementary factorization of SL(2) loops and lifting over Artinian bases.

Over the Laurent-series field every determinant-one 2x2 loop is a product of
at most a handful of transvections E12(x) = I + x*e12, E21(x) = I + x*e21.
The branch order is fixed: if the (2,1) entry is detectably nonzero the
three-factor identity applies; if it vanishes to precision but (1,2) does
not, apply E21(1) as the row operation "row 2 += row 1" and use the
three-factor identity on the result; if both vanish, use the diagonal
(Whitehead) identity  diag(u, 1/u) = E21(1/u) E12(1-u) E21(-1) E12(1-1/u).

Factor parameters lift coefficientwise over k[x]/(x^m); reducing modulo the
maximal ideal recovers the factorization over k, which is the constructive
content of extending a point of the Grassmannian over a local test base.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, InsufficientPrecision, UnsupportedRank
from .loops import LoopMatrix, elementary_loop
from .p1bundles import MarkedPoint, ModificationDatum
from .rings import ArtinianRing, Ring
from .series import LaurentSeries

_POSITIONS = ((1, 2), (2, 1))


@dataclass(frozen=True)
class ElementaryFactor:
    """A transvection I + parameter * e_ij of SL(2); positions are 1-based."""

    position: tuple[int, int]
    parameter: LaurentSeries

    def __post_init__(self):
        if tuple(self.position) not in _POSITIONS:
            raise DomainError(f"elementary position must be (1,2) or (2,1), got {self.position}")
        object.__setattr__(self, "position", tuple(self.position))

    def matrix(self) -> LoopMatrix:
        i, j = self.position
        return elementary_loop(self.parameter.ring, 2, i - 1, j - 1, self.parameter)

    def inverse(self) -> "ElementaryFactor":
        return ElementaryFactor(self.position, self.parameter.neg())


@dataclass(frozen=True)
class Factorization:
    """An ordered product gamma * prod(factors); gamma defaults to I and is
    always positive."""

    ring: Ring
    factors: tuple[ElementaryFactor, ...]
    gamma: LoopMatrix | None = None

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if self.gamma is not None and not self.gamma.is_positive():
            raise DomainError("gamma must be a positive loop")

    def product(self) -> LoopMatrix:
        # each factor I + x*e_ij is the column operation column j += x * column i
        one, zero = LaurentSeries.one(self.ring), LaurentSeries.zero(self.ring)
        rows = [list(r) for r in self.gamma.rows] if self.gamma else [[one, zero], [zero, one]]
        for f in self.factors:
            i, j = f.position[0] - 1, f.position[1] - 1
            for r in rows:
                r[j] = r[j].add(r[i].mul(f.parameter))
        return LoopMatrix(rows, self.gamma.group if self.gamma else "SL")

    def __len__(self):
        return len(self.factors)


def _unit_entry(e: LaurentSeries) -> bool:
    return bool(e.coeffs) and e.ring.is_unit(e.coeffs[0])


def factor_elementary(m: LoopMatrix, precision: int | None = None) -> Factorization:
    """Factor a determinant-one 2x2 loop into elementary matrices.

    At most 4 factors; exactly-zero parameters are dropped.  Division keeps
    parameters exact whenever the pivot divides exactly.
    """
    if m.n != 2:
        raise UnsupportedRank(
            "elementary factorization is implemented for 2x2 loops only; "
            "higher rank reduces to 2x2 blocks but is not provided"
        )
    ring = m.ring
    if not ring.is_field:
        raise DomainError("elementary factorization needs a field backend")
    one = LaurentSeries.one(ring)
    if not m.det().agrees_with(one):
        raise DomainError("loop determinant must be 1 to precision")
    factors = _factor(m, precision)
    out = Factorization(ring, tuple(f for f in factors if not f.parameter.is_exact_zero))
    if len(out) > 4:
        raise InsufficientPrecision("factorization exceeded the factor bound", precision)
    return out


def _factor(m: LoopMatrix, precision) -> list[ElementaryFactor]:
    one = LaurentSeries.one(m.ring)
    (a, b), (c, d) = m.rows
    # already a single transvection (or the identity): one factor at most
    if a == one and d == one:
        if c.is_exact_zero:
            return [ElementaryFactor((1, 2), b)]
        if b.is_exact_zero:
            return [ElementaryFactor((2, 1), c)]
    head = []
    if c.is_zero_to_precision and _unit_entry(b):
        # E21(1) m: row 2 += row 1.  If a + c is zero on its window, so is
        # a + (a + c), and a second premultiplication cannot help
        c, d = a.add(c), b.add(d)
        if not _unit_entry(c):
            raise InsufficientPrecision(
                "cannot certify a unit pivot after premultiplication", precision
            )
        head = [ElementaryFactor((2, 1), one.neg())]
    if _unit_entry(c):
        x = a.sub(one).div(c, precision)
        y = d.sub(one).div(c, precision)
        return head + [
            ElementaryFactor((1, 2), x),
            ElementaryFactor((2, 1), c),
            ElementaryFactor((1, 2), y),
        ]
    if c.is_zero_to_precision and b.is_zero_to_precision and _unit_entry(a):
        a_inv = a.invert(precision)
        return [
            ElementaryFactor((2, 1), a_inv),
            ElementaryFactor((1, 2), one.sub(a)),
            ElementaryFactor((2, 1), one.neg()),
            ElementaryFactor((1, 2), one.sub(a_inv)),
        ]
    raise InsufficientPrecision(
        "no entry with certifiable valuation to pivot the factorization", precision
    )


def lift_factorization(
    fact: Factorization,
    target: ArtinianRing,
    perturbations: dict[int, LaurentSeries] | None = None,
) -> Factorization:
    """Constant lift of every parameter to the Artinian base, optionally
    perturbed inside the maximal ideal; reduction recovers the input."""
    if not isinstance(target, ArtinianRing):
        raise DomainError("lift target must be an Artinian ring")
    target.base.require_same(fact.ring)
    perturbations = perturbations or {}
    for idx, p in perturbations.items():
        if not 0 <= idx < len(fact.factors):
            raise DomainError(f"perturbation index {idx} out of range")
        p.ring.require_same(target)
        if any(not target.in_maximal_ideal(c) for c in p.coeffs):
            raise DomainError("perturbations must lie in the maximal ideal")
    lifted = []
    for i, f in enumerate(fact.factors):
        param = f.parameter.map_coefficients(target.from_base, target)
        if i in perturbations:
            param = param.add(perturbations[i])
        lifted.append(ElementaryFactor(f.position, param))
    gamma = (
        fact.gamma.map_entries(target.from_base, target)
        if fact.gamma is not None
        else None
    )
    return Factorization(target, tuple(lifted), gamma)


def reduce_factorization(fact: Factorization) -> Factorization:
    """Reduction modulo the maximal ideal of the Artinian base."""
    ring = fact.ring
    if not isinstance(ring, ArtinianRing):
        raise DomainError("reduction needs an Artinian base")
    base = ring.base
    factors = tuple(
        ElementaryFactor(f.position, f.parameter.map_coefficients(ring.residue, base))
        for f in fact.factors
    )
    gamma = fact.gamma.map_entries(ring.residue, base) if fact.gamma is not None else None
    return Factorization(base, factors, gamma)


def reduce_loop(m: LoopMatrix) -> LoopMatrix:
    """Entrywise reduction of a loop over an Artinian base to the residue
    field."""
    ring = m.ring
    if not isinstance(ring, ArtinianRing):
        raise DomainError("reduction needs an Artinian base")
    return m.map_entries(ring.residue, ring.base)


def reduce_datum(datum: ModificationDatum) -> ModificationDatum:
    """Pointwise reduction of a modification datum over an Artinian base."""
    ring = datum.ring
    if not isinstance(ring, ArtinianRing):
        raise DomainError("reduction needs an Artinian base")
    base = ring.base
    return ModificationDatum(
        base,
        datum.n,
        tuple(MarkedPoint(ring.residue(p.r)) for p in datum.points),
        tuple(reduce_loop(lp) for lp in datum.loops),
        reduce_loop(datum.infinity_loop) if datum.infinity_loop is not None else None,
    )


def extend_point(
    datum: ModificationDatum,
    target: ArtinianRing,
    perturbations: dict[int, dict[int, LaurentSeries]] | None = None,
    precision: int | None = None,
) -> ModificationDatum:
    """Extend a modification datum over the residue field to the Artinian
    base: factor each loop into elementary matrices, lift the factorizations,
    and reassemble.  The output reduces to the input pointwise and its loops
    lie in the subgroup generated by the transvections."""
    if not isinstance(target, ArtinianRing):
        raise DomainError("extension target must be an Artinian ring")
    target.base.require_same(datum.ring)
    if datum.n != 2:
        raise UnsupportedRank("extension is implemented for rank 2 only")
    perturbations = perturbations or {}
    lifted_loops = []
    for i, lp in enumerate(datum.all_loops):
        fact = factor_elementary(lp, precision)
        lifted = lift_factorization(fact, target, perturbations.get(i)).product()
        det = lifted.det()
        if det.is_zero_to_precision and not det.is_exact:
            # truncated factor parameters cancel the whole determinant window
            raise InsufficientPrecision(
                "a lifted loop's determinant vanishes on its known window", precision
            )
        lifted_loops.append(lifted)
    inf_loop = lifted_loops.pop() if datum.infinity_loop is not None else None
    return ModificationDatum(
        target,
        2,
        tuple(MarkedPoint(target.from_base(p.r)) for p in datum.points),
        tuple(lifted_loops),
        inf_loop,
    )
