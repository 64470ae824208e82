"""Elementary factorization of SL(2) loops and lifting over Artinian bases.

Over the Laurent-series field every determinant-one 2x2 loop is a product of
at most a handful of transvections E12(x) = I + x*e12, E21(x) = I + x*e21.
The branch order is fixed: if the (2,1) entry is detectably nonzero the
three-factor identity applies; if it vanishes to precision but (1,2) does
not, premultiply by E21(1) and retry; if both vanish, use the diagonal
(Whitehead) identity  diag(u, 1/u) = E21(1/u) E12(1-u) E21(-1) E12(1-1/u).

Factor parameters lift coefficientwise over k[x]/(x^m); reducing modulo the
maximal ideal recovers the factorization over k, which is the constructive
content of extending a point of the Grassmannian over a local test base.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, InsufficientPrecision
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
        acc = LoopMatrix(self.gamma.rows) if self.gamma else LoopMatrix.identity(self.ring, 2)
        for f in self.factors:
            acc = acc.mat_mul(f.matrix())
        # the partial products are GL views, so the SL determinant runs once
        return LoopMatrix(acc.rows, self.gamma.group if self.gamma else "SL")

    def __len__(self):
        return len(self.factors)


def _unit_entry(e: LaurentSeries) -> bool:
    return bool(e.coeffs) and e.ring.is_unit(e.coeffs[0])


def factor_elementary(m: LoopMatrix, precision: int | None = None) -> Factorization:
    """Factor a determinant-one 2x2 loop into elementary matrices.

    At most 5 factors on the generic branches and at most 8 through the
    diagonal identity; exactly-zero parameters are dropped.  Division keeps
    parameters exact whenever the pivot divides exactly.
    """
    if m.n != 2:
        raise NotImplementedError(
            "elementary factorization is implemented for 2x2 loops only; "
            "higher rank reduces to 2x2 blocks but is not provided"
        )
    ring = m.ring
    if not ring.is_field:
        raise DomainError("elementary factorization needs a field backend")
    one = LaurentSeries.one(ring)
    if not m.det().agrees_with(one):
        raise DomainError("loop determinant must be 1 to precision")
    factors = _factor(m, precision, depth=0)
    out = Factorization(ring, tuple(f for f in factors if not f.parameter.is_exact_zero))
    if len(out) > 8:
        raise InsufficientPrecision("factorization exceeded the factor bound", precision)
    return out


def _factor(m: LoopMatrix, precision, depth: int) -> list[ElementaryFactor]:
    ring = m.ring
    one = LaurentSeries.one(ring)
    a, b = m.entry(0, 0), m.entry(0, 1)
    c, d = m.entry(1, 0), m.entry(1, 1)
    # already a single transvection (or the identity): one factor at most
    if a == one and d == one:
        if c.is_exact_zero:
            return [ElementaryFactor((1, 2), b)]
        if b.is_exact_zero:
            return [ElementaryFactor((2, 1), c)]
    if _unit_entry(c):
        x = a.sub(one).div(c, precision)
        y = d.sub(one).div(c, precision)
        return [
            ElementaryFactor((1, 2), x),
            ElementaryFactor((2, 1), c),
            ElementaryFactor((1, 2), y),
        ]
    if c.is_zero_to_precision and _unit_entry(b):
        if depth >= 2:
            raise InsufficientPrecision(
                "cannot certify a unit pivot after premultiplication", precision
            )
        shear = elementary_loop(ring, 2, 1, 0, one)  # E21(1)
        rest = _factor(shear.mat_mul(m), precision, depth + 1)
        return [ElementaryFactor((2, 1), one.neg())] + rest
    if c.is_zero_to_precision and b.is_zero_to_precision and _unit_entry(a):
        u = a
        u_inv = u.invert(precision)
        return [
            ElementaryFactor((2, 1), u_inv),
            ElementaryFactor((1, 2), one.sub(u)),
            ElementaryFactor((2, 1), one.neg()),
            ElementaryFactor((1, 2), one.sub(u_inv)),
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
        raise NotImplementedError("extension is implemented for rank 2 only")
    perturbations = perturbations or {}
    lifted_loops = []
    all_loops = list(datum.loops)
    if datum.infinity_loop is not None:
        all_loops.append(datum.infinity_loop)
    for i, lp in enumerate(all_loops):
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
