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
from .p1bundles import ModificationDatum
from .rings import ArtinianRing, Ring
from .series import DEFAULT_PRECISION, LaurentSeries

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
        if self.gamma is not None and self.gamma.n != 2:
            raise DomainError(f"gamma must be 2x2, got {self.gamma.n}x{self.gamma.n}")
        if self.gamma is not None and not self.gamma.is_positive():
            raise DomainError("gamma must be a positive loop")

    def product(self) -> LoopMatrix:
        # each factor I + x*e_ij is the column operation column j += x * column i;
        # det(I + x*e_ij) = 1 for every x, even one known only on a window, so
        # the determinant is det gamma (exactly 1 without gamma) and is recorded
        one, zero = LaurentSeries.one(self.ring), LaurentSeries.zero(self.ring)
        if self.gamma is None:
            rows, det, group = [[one, zero], [zero, one]], one, "SL"
        else:
            rows = [list(r) for r in self.gamma.rows]
            det, group = self.gamma.det(), self.gamma.group
        for f in self.factors:
            i, j = f.position[0] - 1, f.position[1] - 1
            for r in rows:
                r[j] = LaurentSeries.dot(((r[j], one), (r[i], f.parameter)))
        out = LoopMatrix(rows)
        out._det, out.group = det, group
        return out

    def map_coefficients(self, fn, ring: Ring) -> "Factorization":
        """fn applied to every coefficient of every parameter and of gamma, in `ring`."""
        return self.map_series(lambda s: s.map_coefficients(fn, ring), ring)

    def map_series(self, fn, ring: Ring) -> "Factorization":
        """fn, a map of series into `ring`, applied to every parameter and gamma entry."""
        factors = tuple([ElementaryFactor(f.position, fn(f.parameter)) for f in self.factors])
        return Factorization(ring, factors, None if self.gamma is None else self.gamma.map_series(fn))

    def __len__(self):
        return len(self.factors)


def factor_elementary(m: LoopMatrix, precision: int | None = None) -> Factorization:
    """Factor a determinant-one 2x2 loop into elementary matrices.

    At most 4 factors; exactly-zero parameters are dropped.  Division keeps
    parameters exact whenever the pivot divides exactly.  The result is kept
    on the loop, one per precision, as its inverse is.
    """
    key = precision if precision is not None else DEFAULT_PRECISION
    if key in m._factorization:
        return m._factorization[key]
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
    out = Factorization(ring, tuple([f for f in factors if not f.parameter.is_exact_zero]))
    if len(out) > 4:
        raise InsufficientPrecision("factorization exceeded the factor bound", precision)
    m._factorization[key] = out
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
    if c.is_zero_to_precision and b.has_unit_lead():
        # E21(1) m: row 2 += row 1.  If a + c is zero on its window, so is
        # a + (a + c), and a second premultiplication cannot help
        c, d = a.add(c), b.add(d)
        if not c.has_unit_lead():
            raise InsufficientPrecision(
                "cannot certify a unit pivot after premultiplication", precision
            )
        head = [ElementaryFactor((2, 1), one.neg())]
    if c.has_unit_lead():
        x = a.sub(one).div(c, precision)
        y = d.sub(one).div(c, precision)
        return head + [
            ElementaryFactor((1, 2), x),
            ElementaryFactor((2, 1), c),
            ElementaryFactor((1, 2), y),
        ]
    if c.is_zero_to_precision and b.is_zero_to_precision and a.has_unit_lead():
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


def _artinian(ring: Ring) -> ArtinianRing:
    """The one base check of every lift, extension and reduction."""
    if not isinstance(ring, ArtinianRing):
        raise DomainError(f"need an Artinian base k[x]/(x^m), got {ring}")
    return ring


def lift_factorization(
    fact: Factorization,
    target: ArtinianRing,
    perturbations: dict[int, LaurentSeries] | None = None,
) -> Factorization:
    """Constant lift of every parameter to the Artinian base, optionally
    perturbed inside the maximal ideal; reduction recovers the input."""
    _artinian(target).base.require_same(fact.ring)
    lifted = fact.map_series(lambda s: s.lifted(target), target)
    if not perturbations:
        return lifted
    factors = list(lifted.factors)
    for idx, p in perturbations.items():
        if not 0 <= idx < len(factors):
            raise DomainError(f"perturbation index {idx} out of range")
        p.ring.require_same(target)
        if any(not target.in_maximal_ideal(c) for c in p.coeffs):
            raise DomainError("perturbations must lie in the maximal ideal")
        factors[idx] = ElementaryFactor(factors[idx].position, factors[idx].parameter.add(p))
    return Factorization(target, tuple(factors), lifted.gamma)


def _reduce(value):
    """Reduction modulo the maximal ideal: a series, loop, factorization or
    datum over k[x]/(x^m) maps coefficientwise to the residue field k."""
    ring = _artinian(value.ring)
    return value.map_coefficients(ring.residue, ring.residue_field)


reduce_loop = reduce_factorization = reduce_datum = _reduce


def extend_point(
    datum: ModificationDatum,
    target: ArtinianRing,
    perturbations: dict[int, dict[int, LaurentSeries]] | None = None,
    precision: int | None = None,
) -> ModificationDatum:
    """Extend a modification datum over the residue field to the Artinian
    base: factor each loop into elementary matrices, lift the factorizations,
    and reassemble.  The output reduces to the input pointwise and its loops
    lie in the subgroup generated by the transvections, so each carries
    determinant exactly 1."""
    _artinian(target).base.require_same(datum.ring)
    if datum.n != 2:
        raise UnsupportedRank("extension is implemented for rank 2 only")
    perturbations = perturbations or {}
    for i in perturbations:
        if not 0 <= i < len(datum.all_loops):
            raise DomainError(f"perturbation loop index {i} out of range")
    lifted_loops = []
    for i, lp in enumerate(datum.all_loops):
        fact = factor_elementary(lp, precision)
        lifted_loops.append(lift_factorization(fact, target, perturbations.get(i)).product())
    inf_loop = lifted_loops.pop() if datum.infinity_loop is not None else None
    points = tuple([target.from_base(p.r) for p in datum.points])
    return ModificationDatum(target, 2, points, tuple(lifted_loops), inf_loop)
