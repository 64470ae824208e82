"""Exact scalar backends: rationals, prime fields F_p, Artinian rings k[x]/(x^m).

Every backend works with plain immutable element representations (Fraction,
int, tuple) and exposes the same method surface, so series and matrix code is
generic over the backend.  No floating point anywhere.

The series kernel is ``dot_vec(terms, size)``: the first `size` coefficients
of a sum of shifted products of coefficient sequences.  A field backend k
supplies two hooks through which QQ and k[x]/(x^m) run it in integers:
``to_ints(cs) -> (d, ints)`` writes a list of values as ints over one
denominator d, and ``from_ints(ints, d)`` turns each int over d back into one
canonical value.  Their ``mul_vec`` is the one-pair case of their ``dot_vec``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain
from math import lcm

from .errors import MAX_DIGITS, MAX_PRECISION, BackendMismatch, DomainError, NonUnitLeading

# an exact rational literal "p" or "p/q": sign, numerator digits, denominator digits
RATIONAL_LITERAL = re.compile(r"^([+-]?)(\d+)(?:/([1-9]\d*))?$")


def _is_prime(n: int) -> bool:
    # Deterministic Miller-Rabin with bases 2,3,5,7 (valid below 3.2e9).
    if n < 2:
        return False
    for p in (2, 3, 5, 7):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def signed_sum(terms, var: str) -> str:
    """A sum of (coefficient string, exponent of `var`) terms: a coefficient 1
    before a power of `var` is left out, and a leading minus becomes a
    subtraction."""
    out = ""
    for cs, e in terms:
        sign, cs = ("-", cs[1:]) if cs.startswith("-") else ("+", cs)
        mono = "" if e == 0 else var if e == 1 else f"{var}^{e}"
        term = cs if not mono else mono if cs == "1" else f"{cs}*{mono}"
        if out:
            out += f" {sign} {term}"
        else:
            out = term if sign == "+" else f"-{term}"
    return out or "0"


def _integer_numerators(a) -> tuple:
    """(d, [x * d for x in a]) with d the lcm of the denominators of a, so
    every entry of the list is an int."""
    ratios = [x.as_integer_ratio() for x in a]
    d = lcm(*[q for _, q in ratios])
    return d, [p * (d // q) for p, q in ratios]


def _common_denominator(to_ints, terms) -> tuple:
    """(d, [(offset, ints_x, ints_y)]): each (offset, a, b) term written in
    ints by `to_ints`, the shorter operand first, as the outer loop of a
    convolution, and its ints scaled so that every product lies over the one
    denominator d, the lcm of the products' denominators."""
    conv = []
    for offset, a, b in terms:
        da, na = to_ints(a)
        db, nb = to_ints(b)
        conv.append((offset, da * db, na, nb) if len(na) <= len(nb) else (offset, da * db, nb, na))
    d = lcm(*[dk for _, dk, _, _ in conv])
    return d, [(o, na if dk == d else [x * (d // dk) for x in na], nb) for o, dk, na, nb in conv]


def _product_size(a, b, limit) -> int:
    """How many coefficients mul_vec(a, b, limit) returns."""
    if not a or not b:
        return 0
    size = len(a) + len(b) - 1
    return size if limit is None or limit >= size else max(limit, 0)


def echelon_insert(field, pivots, row) -> int:
    """The scalar elimination kernel: reduce `row` (a list over `field`,
    changed in place) by the echelon rows in `pivots`; keep a nonzero rest as
    a new one and return 1, else 0.  An echelon row is kept scaled to a
    leading one, as its nonzero entries right of the leading column: those
    are the only entries a reduction reads."""
    for col in range(len(row)):
        x = row[col]
        if field.is_zero(x):
            continue
        if col not in pivots:
            inv, rest = field.inv(x), enumerate(row[col + 1 :], col + 1)
            pivots[col] = [(j, field.mul(inv, y)) for j, y in rest if not field.is_zero(y)]
            return 1
        for j, y in pivots[col]:
            if j >= len(row):
                break
            row[j] = field.sub(row[j], field.mul(x, y))
    return 0


class Ring:
    """Common helpers shared by the three scalar backends.  Values are
    canonical (reduced Fractions, ints in [0, p), length-m tuples of those),
    so equality is ``==`` and zero is falsy; backends are equal exactly when
    their keys are.

    Every backend is local: an element is a unit exactly when its residue,
    its image in the residue field, is nonzero.  On a field the residue is
    the identity."""

    is_field = False
    name = "?"

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def eq(self, a, b) -> bool:
        return a == b

    @staticmethod
    def is_zero(a) -> bool:
        return not a

    @property
    def residue_field(self) -> "Ring":
        return self

    @staticmethod
    def residue(a):
        return a

    def is_unit(self, a) -> bool:
        return not self.residue_field.is_zero(self.residue(a))

    def mul_vec(self, a, b, limit=None) -> list:
        """The first `limit` coefficients (all when None) of the product of
        two coefficient sequences indexed by exponent."""
        size = _product_size(a, b, limit)
        add, mul, is_zero = self.add, self.mul, self.is_zero
        out = [self.zero] * size
        for i, ai in enumerate(a[:size]):
            if is_zero(ai):
                continue
            for j, bj in enumerate(b[: size - i], i):
                out[j] = add(out[j], mul(ai, bj))
        return out

    def dot_vec(self, terms, size: int) -> list:
        """The first `size` coefficients of the sum of t^offset * a * b over
        the (offset, a, b) terms, offset >= 0: one mul_vec per term and at
        most one add per coefficient of it, since a slot that is still a
        falsy zero takes the product coefficient without an add."""
        add = self.add
        out = [self.zero] * size
        for offset, a, b in terms:
            for j, c in enumerate(self.mul_vec(a, b, size - offset), offset):
                o = out[j]
                out[j] = add(o, c) if o else c
        return out

    def inv_vec(self, a, length: int) -> list:
        """The first `length` coefficients of 1/a; a[0] must be a unit."""
        add, mul = self.add, self.mul
        c0 = self.inv(a[0])
        terms = [(i, ai) for i, ai in enumerate(a[1:length], 1) if not self.is_zero(ai)]
        out = [c0]
        for k in range(1, length):
            acc = self.zero
            for i, ai in terms:
                if i > k:
                    break
                acc = add(acc, mul(ai, out[k - i]))
            out.append(self.neg(mul(c0, acc)))
        return out

    def require_same(self, other: "Ring") -> None:
        if self != other:
            raise BackendMismatch(f"backend mismatch: {self} vs {other}")

    def __eq__(self, other):
        # the identity test first: require_same runs on every series add and mul
        return other is self or (isinstance(other, Ring) and self.key == other.key)

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return self.name


class RationalField(Ring):
    """The field Q with fractions.Fraction elements."""

    is_field = True
    name = "QQ"
    key = ("QQ",)
    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    def of(self, x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return self.parse(x)
        raise DomainError(f"cannot coerce {x!r} into QQ")

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def mul(a, b):
        return a * b

    def inv(self, a):
        if not a:
            raise NonUnitLeading("division by zero in QQ")
        return 1 / a

    # The series kernels run on integer numerators over one common
    # denominator, so the inner loops do no gcd work and each output
    # coefficient is one Fraction; Fraction values are canonical, so the
    # outputs equal those of the generic kernels.

    def mul_vec(self, a, b, limit=None) -> list:
        return self.dot_vec(((0, a, b),), _product_size(a, b, limit))

    def dot_vec(self, terms, size: int) -> list:
        d, conv = _common_denominator(
            _integer_numerators, [(o, a[: size - o], b[: size - o]) for o, a, b in terms if o < size]
        )
        out = [0] * size
        for offset, na, nb in conv:
            for i, ai in enumerate(na, offset):
                if not ai:
                    continue
                for j, bj in enumerate(nb[: size - i], i):
                    out[j] += ai * bj
        return self.from_ints(out, d)

    def inv_vec(self, a, length: int) -> list:
        # 1/a = da / N with N = da * a, and 1/N = sum_k c_k t^k / a0^(k+1)
        # where a0 = N[0] and c_k = -sum_i N[i] a0^(i-1) c_(k-i), all ints.
        if a[0] == 0:
            raise NonUnitLeading("division by zero in QQ")
        da, na = _integer_numerators(a[: max(length, 1)])
        a0 = na[0]
        terms, p = [], 1
        for i, ai in enumerate(na[1:], 1):
            if ai:
                terms.append((i, ai * p))
            p *= a0
        cs = [1]
        for k in range(1, length):
            acc = 0
            for i, wi in terms:
                if i > k:
                    break
                acc += wi * cs[k - i]
            cs.append(-acc)
        out, p = [], a0
        for c in cs:
            out.append(Fraction(da * c, p))
            p *= a0
        return out

    to_ints = staticmethod(_integer_numerators)

    def from_ints(self, ints, d) -> list:
        zero = self.zero
        return [Fraction(c, d) if c else zero for c in ints]

    def parse(self, s: str) -> Fraction:
        s = s.strip()
        match = RATIONAL_LITERAL.match(s)
        if not match:
            raise DomainError(f"not an exact rational literal: {s!r}")
        sign, num, den = match.groups("1")  # an absent denominator reads as 1
        if max(len(num), len(den)) > MAX_DIGITS:
            # the cap holds whatever Python's own int/str digit limit is
            raise ValueError(f"a rational literal part has more than {MAX_DIGITS} digits")
        return Fraction(int(sign + num), int(den))

    def scalar_str(self, a) -> str:
        return str(a)

    def random(self, rng) -> Fraction:
        return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 1, 2, 3)))

    def random_unit(self, rng) -> Fraction:
        x = self.random(rng)
        return x if x != 0 else Fraction(1)


QQ = RationalField()


class PrimeField(Ring):
    """The field F_p for a prime p < 2**31, elements as ints in [0, p)."""

    is_field = True

    def __init__(self, p: int):
        if not isinstance(p, int) or not 2 <= p < 2**31 or not _is_prime(p):
            raise DomainError(f"modulus must be a prime below 2**31, got {p!r}")
        self.p = p
        self.name = f"GF({p})"
        self.key = ("GF", p)
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def of(self, x) -> int:
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, str):
            return self.parse(x)
        if isinstance(x, Fraction):
            return self.mul(x.numerator % self.p, self.inv(x.denominator % self.p))
        raise DomainError(f"cannot coerce {x!r} into {self.name}")

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        if not a:
            raise NonUnitLeading(f"division by zero in {self.name}")
        return pow(a, self.p - 2, self.p)

    @staticmethod
    def to_ints(cs) -> tuple:
        return 1, cs

    def from_ints(self, ints, d) -> list:
        p = self.p
        return [c % p for c in ints]

    def parse(self, s: str) -> int:
        return self.of(QQ.parse(s))

    def scalar_str(self, a) -> str:
        return str(a)

    def random(self, rng) -> int:
        return rng.randrange(self.p)

    def random_unit(self, rng) -> int:
        return rng.randrange(1, self.p)


class ArtinianRing(Ring):
    """The local ring k[x]/(x^m) over a field backend k, with nilpotent x.

    Elements are tuples of m base-field elements (coefficients of 1, x, ...,
    x^(m-1)).  An element is a unit exactly when its residue, the constant
    coefficient, is nonzero in k.
    """

    is_field = False

    def __init__(self, base: Ring, m: int):
        if not base.is_field:
            raise DomainError("Artinian backend needs a field of coefficients")
        if not isinstance(m, int) or not 1 <= m <= MAX_PRECISION:
            raise DomainError(
                f"nilpotency order must be an int in [1, {MAX_PRECISION}], got {m!r}"
            )
        self.base = base
        self.m = m
        self.name = f"{base.name}[x]/(x^{m})"
        self.key = ("artinian", base, m)
        self.characteristic = base.characteristic
        self.zero = (base.zero,) * m
        self.one = (base.one,) + (base.zero,) * (m - 1)

    def of(self, x) -> tuple:
        if isinstance(x, (list, tuple)):
            if len(x) > self.m:
                raise DomainError(f"too many coefficients for {self.name}")
            xs = [self.base.of(c) for c in x]
            return tuple(xs) + (self.base.zero,) * (self.m - len(xs))
        return self.from_base(self.base.of(x))

    def from_base(self, a) -> tuple:
        """Constant lift k -> k[x]/(x^m)."""
        return (a,) + (self.base.zero,) * (self.m - 1)

    @property
    def residue_field(self) -> Ring:
        return self.base

    @staticmethod
    def residue(a: tuple):
        """Reduction modulo the maximal ideal (x)."""
        return a[0]

    @staticmethod
    def is_zero(a) -> bool:
        return not any(a)

    def in_maximal_ideal(self, a: tuple) -> bool:
        return not self.is_unit(a)

    def gen(self) -> tuple:
        if self.m < 2:
            return self.zero
        return (self.base.zero, self.base.one) + (self.base.zero,) * (self.m - 2)

    def add(self, a, b):
        badd = self.base.add
        return tuple(badd(x, y) for x, y in zip(a, b))

    def neg(self, a):
        bneg = self.base.neg
        return tuple(bneg(x) for x in a)

    def mul(self, a, b):
        return tuple(self.base.mul_vec(a, b, self.m))

    def mul_vec(self, a, b, limit=None) -> list:
        return self.dot_vec(((0, a, b),), _product_size(a, b, limit))

    def dot_vec(self, terms, size: int) -> list:
        # A series over k[x]/(x^m) is a polynomial in t and x, so a sum of
        # products is one integer convolution.  Flattened, the coefficient of
        # t^i x^u sits at i*m + u, so a term of a at p and one of b at k meet
        # at offset*m + p + k.  A pair is skipped when its x-degree would
        # reach m, so no product of x-degree m or more is formed; a run over b
        # stops at the t-cut.
        m, base = self.m, self.base
        d, conv = _common_denominator(
            base.to_ints,
            [
                (o * m, list(chain.from_iterable(a[: size - o])), list(chain.from_iterable(b[: size - o])))
                for o, a, b in terms
                if o < size
            ],
        )
        end = size * m
        out = [0] * end
        for offset, na, nb in conv:
            runs = [(k, e, k % m) for k, e in enumerate(nb) if e]
            for p, c in enumerate(na):
                if not c:
                    continue
                last, cut = end - offset - p, m - p % m
                for k, e, v in runs:
                    if k >= last:
                        break
                    if v < cut:
                        out[offset + p + k] += c * e
        values = iter(base.from_ints(out, d))
        return list(zip(*[values] * m))

    def inv(self, a):
        # Power-series reciprocal truncated at x^m; needs a unit residue.
        if not self.is_unit(a):
            raise NonUnitLeading(f"constant term is not a unit in {self.name}")
        return tuple(self.base.inv_vec(a, self.m))

    def scalar_str(self, a) -> str:
        base = self.base
        terms = [(base.scalar_str(c), i) for i, c in enumerate(a) if not base.is_zero(c)]
        return signed_sum(terms, "x")

    def random(self, rng) -> tuple:
        return tuple(self.base.random(rng) for _ in range(self.m))

    def random_unit(self, rng) -> tuple:
        return (self.base.random_unit(rng),) + tuple(
            self.base.random(rng) for _ in range(self.m - 1)
        )
