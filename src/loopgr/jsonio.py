"""Strict JSON encodings for every value the CLI reads or writes.

Formats (unknown keys are rejected everywhere):

  ring      "Q" | {"type": "fp", "p": int}
            | {"type": "artinian", "base": ring, "m": int}
  scalar    "p/q" string over Q and F_p; list of base scalars over an
            Artinian ring
  series    {"terms": [[exponent, scalar], ...], "precision": int | null}
            precision null (or omitted) means an exact Laurent polynomial
  poly      [[exponent, scalar], ...] with non-negative exponents
  function  {"num": poly, "den": poly}
  loop      {"n": int, "entries": [[series, ...], ...], "group": "GL"|"SL"}
  datum     {"points": [scalar, ...], "loops": [loop, ...],
             "infinity_loop": loop | null, "n"?: int}
  factorization
            {"gamma": loop | null,
             "factors": [{"pos": [i, j], "param": series}, ...]}
"""

from __future__ import annotations

from .cartan import CoarseStratum, Cocharacter
from .errors import MAX_PRECISION, Error, SchemaError
from .factorization import ElementaryFactor, Factorization
from .loops import LoopMatrix
from .p1bundles import ModificationDatum, SplittingType
from .rings import QQ, RATIONAL_LITERAL, ArtinianRing, PrimeField, Ring
from .series import LaurentSeries, RationalFunction


def _expect(obj, kind, what: str):
    """obj, if it is a JSON value of the given type (so a bool is no int)."""
    if type(obj) is not kind:
        raise SchemaError(f"{what}: expected {kind.__name__}, got {type(obj).__name__}")
    return obj


def _take(obj: dict, what: str, required: tuple, optional: tuple = ()) -> dict:
    _expect(obj, dict, what)
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise SchemaError(f"{what}: unknown fields {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise SchemaError(f"{what}: missing fields {sorted(missing)}")
    return obj


def _bounded(obj, what: str) -> int:
    """An int in [-MAX_PRECISION, MAX_PRECISION]: exponents and series
    windows size dense coefficient lists, so larger ones are refused."""
    if not -MAX_PRECISION <= _expect(obj, int, what) <= MAX_PRECISION:
        raise SchemaError(f"{what} must lie in [-{MAX_PRECISION}, {MAX_PRECISION}], got {obj}")
    return obj


def _wrap(what: str, fn, *args):
    try:
        return fn(*args)
    except Error:
        raise
    except (TypeError, ValueError, KeyError) as exc:
        raise SchemaError(f"{what}: {exc}") from exc


# -- rings -------------------------------------------------------------------


def ring_from_json(obj) -> Ring:
    if obj == "Q" or obj is None:
        return QQ
    fields = _take(obj, "ring", ("type",), ("p", "base", "m"))
    if fields["type"] == "fp":
        return _wrap("ring", lambda: PrimeField(_expect(fields.get("p"), int, "ring.p")))
    if fields["type"] == "artinian":
        base = ring_from_json(fields.get("base", "Q"))
        return _wrap(
            "ring", lambda: ArtinianRing(base, _expect(fields.get("m"), int, "ring.m"))
        )
    raise SchemaError(f"ring: unknown type {fields['type']!r}")


def ring_to_json(ring: Ring):
    if ring == QQ:
        return "Q"
    if isinstance(ring, PrimeField):
        return {"type": "fp", "p": ring.p}
    if isinstance(ring, ArtinianRing):
        return {"type": "artinian", "base": ring_to_json(ring.base), "m": ring.m}
    raise SchemaError(f"ring: cannot encode {ring!r}")


# -- scalars -----------------------------------------------------------------


def scalar_from_json(ring: Ring, obj):
    if isinstance(ring, ArtinianRing):
        if isinstance(obj, str):
            return ring.from_base(scalar_from_json(ring.base, obj))
        _expect(obj, list, "scalar")
        return _wrap(
            "scalar", lambda: ring.of([scalar_from_json(ring.base, c) for c in obj])
        )
    if not RATIONAL_LITERAL.match(_expect(obj, str, "scalar").strip()):
        raise SchemaError(f"scalar: not an exact rational literal: {obj!r}")
    return _wrap("scalar", ring.parse, obj)


def scalar_to_json(ring: Ring, value):
    if isinstance(ring, ArtinianRing):
        return [scalar_to_json(ring.base, c) for c in value]
    return ring.scalar_str(value)


# -- series and rational functions -------------------------------------------


def _terms(ring: Ring, obj, what: str, nonnegative: bool = False) -> list:
    """[[exponent, coefficient], ...] as a list of (exponent, scalar) pairs."""
    out, term, exponent = [], f"{what} term", f"{what} exponent"
    for item in _expect(obj, list, what):
        pair = _expect(item, list, term)
        if len(pair) != 2:
            raise SchemaError(f"{term}: expected [exponent, coefficient]")
        e = _bounded(pair[0], exponent)
        if nonnegative and e < 0:
            raise SchemaError(f"{what} exponent must be non-negative")
        out.append((e, scalar_from_json(ring, pair[1])))
    return out


def series_from_json(ring: Ring, obj) -> LaurentSeries:
    fields = _take(obj, "series", ("terms",), ("precision",))
    terms = _terms(ring, fields["terms"], "series")
    prec = fields.get("precision")
    if prec is not None:
        prec = _bounded(prec, "series.precision")
    return LaurentSeries.from_terms(ring, terms, prec)


def series_to_json(s: LaurentSeries):
    terms = [
        [s.shift + i, scalar_to_json(s.ring, c)]
        for i, c in enumerate(s.coeffs)
        if not s.ring.is_zero(c)
    ]
    return {"terms": terms, "precision": s.known_end}


def function_from_json(ring: Ring, obj) -> RationalFunction:
    fields = _take(obj, "function", ("num",), ("den",))
    num = _terms(ring, fields["num"], "poly", nonnegative=True)
    den = _terms(ring, fields.get("den", [[0, "1"]]), "poly", nonnegative=True)
    return _wrap("function", RationalFunction.from_terms, ring, num, den)


# -- loops -------------------------------------------------------------------


def loop_from_json(ring: Ring, obj) -> LoopMatrix:
    fields = _take(obj, "loop", ("n", "entries"), ("group",))
    n = _expect(fields["n"], int, "loop.n")
    entries = _expect(fields["entries"], list, "loop.entries")
    if len(entries) != n or any(len(_expect(r, list, "loop row")) != n for r in entries):
        raise SchemaError("loop.entries must be an n x n array")
    group = fields.get("group", "GL")
    if group not in ("GL", "SL"):
        raise SchemaError(f"loop.group must be GL or SL, got {group!r}")
    rows = [[series_from_json(ring, e) for e in r] for r in entries]
    return _wrap("loop", LoopMatrix, rows, group)


def loop_to_json(m: LoopMatrix):
    return {
        "n": m.n,
        "entries": [[series_to_json(e) for e in r] for r in m.rows],
        "group": m.group,
    }


# -- modification data -------------------------------------------------------


def datum_from_json(ring: Ring, obj) -> ModificationDatum:
    fields = _take(obj, "datum", ("points", "loops"), ("infinity_loop", "n"))
    points = [scalar_from_json(ring, p) for p in _expect(fields["points"], list, "datum.points")]
    loops = [loop_from_json(ring, l) for l in _expect(fields["loops"], list, "datum.loops")]
    inf = fields.get("infinity_loop")
    inf_loop = loop_from_json(ring, inf) if inf is not None else None
    if fields.get("n") is not None:
        n = _expect(fields["n"], int, "datum.n")
    elif loops or inf_loop is not None:
        n = (loops[0] if loops else inf_loop).n
    else:
        raise SchemaError("datum: empty data need an explicit rank field n")
    return _wrap(
        "datum", ModificationDatum, ring, n, tuple(points), tuple(loops), inf_loop
    )


def datum_to_json(d: ModificationDatum):
    return {
        "points": [scalar_to_json(d.ring, p.r) for p in d.points],
        "loops": [loop_to_json(l) for l in d.loops],
        "infinity_loop": loop_to_json(d.infinity_loop)
        if d.infinity_loop is not None
        else None,
        "n": d.n,
    }


# -- factorizations ----------------------------------------------------------


def factorization_from_json(ring: Ring, obj) -> Factorization:
    fields = _take(obj, "factorization", ("factors",), ("gamma",))
    factors = []
    for f in _expect(fields["factors"], list, "factorization.factors"):
        fs = _take(f, "factor", ("pos", "param"))
        pos = _expect(fs["pos"], list, "factor.pos")
        if len(pos) != 2 or not all(type(x) is int for x in pos):
            raise SchemaError("factor.pos must be [i, j] with 1-based ints")
        param = series_from_json(ring, fs["param"])
        factors.append(_wrap("factor", ElementaryFactor, tuple(pos), param))
    gamma = fields.get("gamma")
    gamma_loop = loop_from_json(ring, gamma) if gamma is not None else None
    return _wrap("factorization", Factorization, ring, tuple(factors), gamma_loop)


def factorization_to_json(f: Factorization):
    return {
        "gamma": loop_to_json(f.gamma) if f.gamma is not None else None,
        "factors": [
            {"pos": list(x.position), "param": series_to_json(x.parameter)}
            for x in f.factors
        ],
    }


# -- command inputs ----------------------------------------------------------


def working_precision(obj, what: str = "precision"):
    """None for the default, else an int in [1, MAX_PRECISION]: the one rule
    for --precision and every "precision" field of an input."""
    if obj is not None and not (type(obj) is int and 1 <= obj <= MAX_PRECISION):
        raise SchemaError(f"{what} must be an int in [1, {MAX_PRECISION}], got {obj!r}")
    return obj


# one decoder per input field, called as decoder(ring, value); each looks its
# parser up when called, so a parser rebound on this module is the one run
_FIELDS = {
    "ring": lambda ring, obj: ring,
    "loop": lambda ring, obj: loop_from_json(ring, obj),
    "datum": lambda ring, obj: datum_from_json(ring, obj),
    "point": lambda ring, obj: scalar_from_json(ring, obj),
    "center": lambda ring, obj: scalar_from_json(ring, obj),
    "factorization": lambda ring, obj: factorization_from_json(ring, obj),
    "function": lambda ring, obj: function_from_json(ring, obj),
    "m": lambda ring, obj: _expect(obj, int, "m"),
    "modulus_power": lambda ring, obj: _expect(obj, int, "modulus_power"),
    "perturb": lambda ring, obj: _expect(obj, bool, "perturb"),
    "precision": lambda ring, obj: working_precision(obj),
    "command": lambda ring, obj: _expect(obj, str, "command"),
    "input": lambda ring, obj: obj,
}


def command_input(doc, required: tuple, optional: tuple = (), what: str = "input") -> dict:
    """The decoded fields of an input object by name, absent ones left out.
    The ring is read first, then the field names are checked, then the
    fields are decoded in the order given."""
    _expect(doc, dict, what)
    ring = ring_from_json(doc.get("ring"))
    _take(doc, what, required, optional)
    return {name: _FIELDS[name](ring, doc[name]) for name in required + optional if name in doc}


# -- result records ----------------------------------------------------------


def cocharacter_to_json(lam: Cocharacter):
    return {"lambda": list(lam.entries)}


def coarse_to_json(cs: CoarseStratum):
    return {"orbit": [list(c.entries) for c in cs.orbit]}


def splitting_to_json(st: SplittingType):
    return {"a": list(st.a)}
