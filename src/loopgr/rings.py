"""Exact scalar backends: rationals, prime fields F_p, Artinian rings k[x]/(x^m).

Every backend works with plain immutable element representations (Fraction,
int, tuple) and exposes the same method surface, so series and matrix code is
generic over the backend.  No floating point anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

from .errors import MAX_DIGITS, MAX_PRECISION, BackendMismatch, DomainError, NonUnitLeading

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


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


def _integer_numerators(a) -> tuple:
    """(d, [x * d for x in a]) with d the lcm of the denominators of a, so
    every entry of the list is an int."""
    d = lcm(*[x.denominator for x in a])
    return d, [x.numerator * (d // x.denominator) for x in a]


class Ring:
    """Common helpers shared by the three scalar backends.  Values are
    canonical (reduced Fractions, ints in [0, p), length-m tuples of those),
    so equality is ``==``; backends are equal exactly when their keys are."""

    is_field = False
    name = "?"

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def eq(self, a, b) -> bool:
        return a == b

    def is_zero(self, a) -> bool:
        return a == self.zero

    def mul_vec(self, a, b, limit=None) -> list:
        """The first `limit` coefficients (all when None) of the product of
        two coefficient sequences indexed by exponent."""
        if not a or not b:
            return []
        size = len(a) + len(b) - 1
        if limit is not None and limit < size:
            size = max(limit, 0)
        add, mul, is_zero = self.add, self.mul, self.is_zero
        out = [self.zero] * size
        for i, ai in enumerate(a[:size]):
            if is_zero(ai):
                continue
            for j, bj in enumerate(b[: size - i], i):
                out[j] = add(out[j], mul(ai, bj))
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

    @staticmethod
    def is_unit(a) -> bool:
        return a != 0

    def inv(self, a):
        if a == 0:
            raise NonUnitLeading("division by zero in QQ")
        return 1 / a

    # The two series kernels run on integer numerators over one common
    # denominator, so the inner loops do no gcd work; Fraction values are
    # canonical, so the outputs equal those of the generic kernels.

    def mul_vec(self, a, b, limit=None) -> list:
        if not a or not b:
            return []
        size = len(a) + len(b) - 1
        if limit is not None and limit < size:
            size = max(limit, 0)
        da, na = _integer_numerators(a[:size])
        db, nb = _integer_numerators(b[:size])
        out = [0] * size
        for i, ai in enumerate(na):
            if not ai:
                continue
            for j, bj in enumerate(nb[: size - i], i):
                out[j] += ai * bj
        d = da * db
        return [Fraction(c, d) for c in out]

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

    def parse(self, s: str) -> Fraction:
        s = s.strip()
        if not _RATIONAL_RE.match(s):
            raise DomainError(f"not an exact rational literal: {s!r}")
        if len(s) > MAX_DIGITS and max(map(len, s.lstrip("+-").split("/"))) > MAX_DIGITS:
            # the cap holds whatever Python's own int/str digit limit is
            raise ValueError(f"a rational literal part has more than {MAX_DIGITS} digits")
        return Fraction(s)

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

    @staticmethod
    def is_unit(a) -> bool:
        return a != 0

    def inv(self, a):
        if a % self.p == 0:
            raise NonUnitLeading(f"division by zero in {self.name}")
        return pow(a, self.p - 2, self.p)

    def parse(self, s: str) -> int:
        return self.of(QQ.parse(s))

    def scalar_str(self, a) -> str:
        return str(a % self.p)

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

    def residue(self, a: tuple):
        """Reduction modulo the maximal ideal (x)."""
        return a[0]

    def in_maximal_ideal(self, a: tuple) -> bool:
        return self.base.is_zero(a[0])

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

    def is_unit(self, a) -> bool:
        return self.base.is_unit(a[0])

    def inv(self, a):
        # Power-series reciprocal truncated at x^m; needs a unit residue.
        if not self.is_unit(a):
            raise NonUnitLeading(f"constant term is not a unit in {self.name}")
        return tuple(self.base.inv_vec(a, self.m))

    def scalar_str(self, a) -> str:
        parts = []
        for i, c in enumerate(a):
            if self.base.is_zero(c):
                continue
            cs = self.base.scalar_str(c)
            if i == 0:
                parts.append(cs)
            else:
                xp = "x" if i == 1 else f"x^{i}"
                parts.append(xp if cs == "1" else f"{cs}*{xp}")
        return " + ".join(parts) if parts else "0"

    def random(self, rng) -> tuple:
        return tuple(self.base.random(rng) for _ in range(self.m))

    def random_unit(self, rng) -> tuple:
        return (self.base.random_unit(rng),) + tuple(
            self.base.random(rng) for _ in range(self.m - 1)
        )
