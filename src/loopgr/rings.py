"""Exact scalar backends: rationals, prime fields F_p, Artinian rings k[x]/(x^m).

Every backend works with plain immutable element representations (Fraction,
int, tuple) and exposes the same method surface, so series and matrix code is
generic over the backend.  No floating point anywhere.

A coefficient vector is kept *packed* in ints, in one form for every
backend: ``(d, ints)``, meaning ints / d.  Over QQ d > 0 and gcd(d, *ints) =
1; over GF(p) d = 1 and the ints lie in [0, p); over k[x]/(x^m) the base's
form, flattened (t^i x^u at index i*m + u).  No coefficient at either end is
zero (the zero vector is ``(1, ())`` for every backend), so equal vectors are
equal tuples.  ``close(d, ints)`` packs raw ints: it cuts the zero ends and
divides out the gcd or reduces mod p, once per coefficient.  The series
kernels ``dot_vec``, one integer convolution for a sum of shifted products,
and ``inv_vec``, the reciprocal, work on packed vectors only.  Over QQ the
reciprocal keeps its coefficients over one running denominator, raised only
as the result needs, so no int outgrows the result.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

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


def _strip(ints, width) -> tuple:
    """(lo, body): ints without the zero coefficients, `width` ints each, at
    both ends, and lo the number cut at the front (None if all were zero)."""
    hi = len(ints)
    while hi and not ints[hi - 1]:
        hi -= 1
    if not hi:
        return None, ()
    lo = 0
    while not ints[lo]:
        lo += 1
    lo //= width
    return lo, tuple(ints[lo * width : -(-hi // width) * width])


def _one_denominator(terms, size, width) -> tuple:
    """(d, [(offset, f, na, nb)]) for the (offset, a, b) terms with offset < size: ints cut at
    `size` coefficients, the shorter first, and f * na * nb over d, the lcm of their denominators."""
    conv, d = [], 1
    for o, (da, na), (db, nb) in terms:
        if o < size:
            cut = (size - o) * width
            na, nb, dk = na[:cut], nb[:cut], da * db
            conv.append((o * width, dk, na, nb) if len(na) <= len(nb) else (o * width, dk, nb, na))
            d = d if dk == 1 else lcm(d, dk)  # every GF(p) vector is over 1
    return d, conv if d == 1 else [(o, d // dk, na, nb) for o, dk, na, nb in conv]


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
    width = 1  # ints per coefficient of a packed vector
    zero_vec = (1, ())  # the packed vectors of the series 0 and 1
    one_vec = (1, (1,))

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

    # -- packed vectors (see the module docstring) --------------------------

    def at(self, vec, i):
        """The scalar at index i >= 0 of a packed vector, zero past its end."""
        (d, ints), w = vec, self.width
        return (self.values(d, ints[i * w : i * w + w]) or [self.zero])[0]

    def dot_vec(self, terms, size: int) -> tuple:
        """close() of the first `size` coefficients of the sum of
        t^offset * a * b over the (offset, a, b) terms, a and b packed: one
        integer convolution, the body of QQ and GF(p)."""
        d, conv = _one_denominator(terms, size, 1)
        out = [0] * size
        for offset, f, na, nb in conv:
            for i, ai in enumerate(na, offset):
                if ai:
                    ai *= f
                    for j, bj in enumerate(nb[: size - i], i):
                        out[j] += ai * bj
        return self.close(d, out)

    def inv_vec(self, vec, length: int) -> tuple:
        """close() of the first `length` coefficients of 1/a, a packed with a
        nonzero lead: 1/a = d/N = sum z_k t^k, z_0 = d/N[0] and z_k = -(sum_i
        N[i] z_(k-i))/N[0].  Over QQ every z_k is Z_k/q over one running q,
        raised by one gcd per step only as far as z_k needs: a pivot's N[0]
        often shares most of its digits with d, and its powers would swell far
        past the result.  A lead prime to d is not inflated, and Z_k = d c_k
        over N[0]^(k+1), c_k integers, is cheaper.  Over GF(p) q is 1."""
        p, (d, na) = self.characteristic, vec
        if not na or not na[0]:
            raise NonUnitLeading(f"division by zero in {self.name}")
        a0, g = na[0], gcd(na[0], d)
        reduce, r = not p and g != 1, pow(a0, -1, p) if p else 1
        q, f, power, terms = a0 // g if reduce else 1, a0 if not (p or reduce) else 1, r, []
        for i, ai in enumerate(na[1:length], 1):
            if ai:
                terms.append((i, ai * power))  # N[i] N[0]^(i-1) unreduced, N[i]/N[0] mod p
            power *= f
        zs = [d * r % p if p else d // g if reduce else d][:length]  # none when length < 1
        for k in range(1, length):
            acc = 0
            for i, x in terms:
                if i > k:
                    break
                acc -= x * zs[k - i]
            if reduce:  # z_k = acc/(q a0), and q h is the lcm of q and its denominator
                e = gcd(acc, a0) if a0 > 0 else -gcd(acc, a0)  # so h > 0
                h, acc = a0 // e, acc // e
                if h != 1:
                    zs, q = [z * h for z in zs], q * h
            zs.append(acc % p if p else acc)
        if not (p or reduce):  # Z_k a0^(length-1-k) over the one denominator a0^length
            for k in range(length - 1, -1, -1):
                zs[k] *= q
                q *= a0
        return self.close(q, zs)

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

    @staticmethod
    def close(d, ints, width=1) -> tuple:
        lo, ints = _strip(ints, width)
        g = gcd(d, *ints) if d > 0 else -gcd(d, *ints)
        return lo, ((d // g, tuple([c // g for c in ints])) if g != 1 else (d, ints))

    @staticmethod
    def numerators(values) -> tuple:
        ratios = [x.as_integer_ratio() for x in values]
        d = lcm(*[q for _, q in ratios])
        return d, [n * (d // q) for n, q in ratios]

    def values(self, d, ints) -> list:
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

    def close(self, d, ints, width=1) -> tuple:
        p, r = self.p, 1 if d == 1 else pow(d, -1, self.p)  # r = 1 for every sum of products
        lo, ints = _strip([c * r % p for c in ints] if r != 1 else [c % p for c in ints], width)
        return lo, (1, ints)

    @staticmethod
    def numerators(values) -> tuple:
        return 1, list(values)

    @staticmethod
    def values(d, ints) -> list:
        return list(ints)

    @staticmethod
    def at(vec, i):  # indexes the ints: section counting reads every entry this way
        return vec[1][i] if i < len(vec[1]) else 0

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
        self.m = self.width = m
        self.name = f"{base.name}[x]/(x^{m})"
        self.key = ("artinian", base, m)
        self.characteristic = base.characteristic
        self.zero = (base.zero,) * m
        self.one = (base.one,) + (base.zero,) * (m - 1)
        self.one_vec = self._pack(self.one)  # _strip keeps whole blocks: m ints

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
        return tuple([badd(x, y) for x, y in zip(a, b)])

    def neg(self, a):
        bneg = self.base.neg
        return tuple([bneg(x) for x in a])

    def mul(self, a, b):
        return self.at(self.dot_vec([(0, self._pack(a), self._pack(b))], 1)[1], 0)

    def close(self, d, ints) -> tuple:
        return self.base.close(d, ints, self.m)

    def numerators(self, values) -> tuple:
        return self.base.numerators(list(chain.from_iterable(values)))

    def values(self, d, ints) -> list:
        flat = iter(self.base.values(d, ints))
        return list(zip(*[flat] * self.m))

    def _pack(self, a):  # the packed vector of the one coefficient a
        return self.close(*self.numerators((a,)))[1]

    def dot_vec(self, terms, size: int) -> tuple:
        # A series over k[x]/(x^m) is a polynomial in t and x, so a sum of
        # products is one integer convolution.  Flattened, the coefficient of
        # t^i x^u sits at i*m + u, so a term of a at p and one of b at k meet
        # at offset*m + p + k.  A pair is skipped when its x-degree would
        # reach m, so no product of x-degree m or more is formed; a run over b
        # stops at the t-cut.
        m = self.m
        d, conv = _one_denominator(terms, size, m)
        end = size * m
        out = [0] * end
        for offset, f, na, nb in conv:
            runs = [(k, e, k % m) for k, e in enumerate(nb) if e]
            for p, c in enumerate(na):
                if not c:
                    continue
                c *= f
                last, cut = end - offset - p, m - p % m
                for k, e, v in runs:
                    if k >= last:
                        break
                    if v < cut:
                        out[offset + p + k] += c * e
        return self.close(d, out)

    def inv(self, a):
        # Power-series reciprocal truncated at x^m; needs a unit residue.
        if not self.is_unit(a):
            raise NonUnitLeading(f"constant term is not a unit in {self.name}")
        cs = self.base.values(*self.base.inv_vec(self._pack(a), self.m)[1])
        return tuple(cs) + (self.base.zero,) * (self.m - len(cs))

    def inv_vec(self, vec, length: int) -> tuple:
        # C_k, the coefficient of 1/a at t^k, is a block of m ints: C_0 is the
        # base kernel's reciprocal of a's first block, a series in x, and
        # C_k = sum_i Q_i C_(k-i) with Q_i = -C_0 a_i, each a dot_vec of size 1
        # normalized on its own; one more dot_vec puts them over one denominator.
        m, (d, ints) = self.m, vec
        cs = [self.base.inv_vec(self.close(d, ints[:m])[1], m)[1]]
        blocks = [self.close(-d, ints[i * m : i * m + m])[1] for i in range(1, min(length, len(ints) // m))]
        q = [self.dot_vec([(0, cs[0], a)], 1)[1] for a in blocks]  # close(-d, ints) negates
        for k in range(1, length):
            cs.append(self.dot_vec([(0, qi, cs[k - i]) for i, qi in enumerate(q[:k], 1)], 1)[1])
        return self.dot_vec([(k, c, self.one_vec) for k, c in enumerate(cs)], length)

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
