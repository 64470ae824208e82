"""Seeded JSON-lines input for ``loopgr batch`` and the check of its output.

The entries are built here with plain ``Fraction`` arithmetic on 2x2
matrices of Laurent polynomials, without importing loopgr, so the program
receives only generated inputs and the expected answers are known by
construction:

* stratum, snf, h0, glue, splitting-type: the loop C * diag(t^a, t^b) * Q
  with C a constant transvection and Q a positive loop of determinant 1.
  Its stratum is (a, b) sorted, its determinant has valuation a + b, and at
  a single point it glues the bundle O(-b) + O(-a).
* factor, extend: a product of three transvections, which factors exactly
  into three elementary matrices.
* lift: a factorization whose lift reduces back to the input.
* expand: a rational function; checked only against the golden digest.

A fixed share of entries is invalid on purpose and must fail with a known
error class.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from golden import digest

# one slot per entry, cycled; "invalid" slots rotate through INVALID_KINDS
MIX = (
    "stratum", "expand", "snf", "h0", "glue", "factor", "lift", "extend", "splitting", "invalid",
    "expand", "stratum", "snf", "h0", "glue", "factor", "lift", "extend", "expand", "invalid",
)
INVALID_KINDS = ("bad_schema", "unknown_command", "non_sl_factor")
EXPECTED_ERROR = {
    "bad_schema": "SchemaError",
    "unknown_command": "SchemaError",
    "non_sl_factor": "DomainError",
}
ENTRIES = 3000


# -- Laurent polynomials as {exponent: Fraction}, 2x2 matrices of them ---------


def _pmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _padd(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _mmul(x, y):
    return [
        [_padd(_pmul(x[i][0], y[0][j]), _pmul(x[i][1], y[1][j])) for j in range(2)]
        for i in range(2)
    ]


def _e12(p: dict):
    return [[{0: Fraction(1)}, p], [{}, {0: Fraction(1)}]]


def _e21(p: dict):
    return [[{0: Fraction(1)}, {}], [p, {0: Fraction(1)}]]


def _series(p: dict) -> dict:
    return {"terms": [[e, str(c)] for e, c in sorted(p.items())], "precision": None}


def _loop(m, group="GL") -> dict:
    return {"n": 2, "entries": [[_series(e) for e in row] for row in m], "group": group}


class _Gen:
    def __init__(self, seed: int):
        self.rng = random.Random(f"cli-batch:{seed}")

    def unit(self) -> Fraction:
        return Fraction(self.rng.choice((-3, -2, -1, 1, 2, 3)), self.rng.choice((1, 1, 2, 3)))

    def laurent(self, lo: int, hi: int) -> dict:
        exps = self.rng.sample(range(lo, hi + 1), self.rng.randint(1, 2))
        return {e: self.unit() for e in exps}

    def stratum_loop(self):
        """C * diag(t^a, t^b) * Q and its stratum (a, b) sorted."""
        rng = self.rng
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        c = _e12({0: self.unit()})
        q = _mmul(_e12({0: self.unit(), 1: self.unit()}), _e21({1: self.unit(), 2: self.unit()}))
        m = _mmul(_mmul(c, [[{a: Fraction(1)}, {}], [{}, {b: Fraction(1)}]]), q)
        return m, (max(a, b), min(a, b))

    def sl_loop(self):
        return _mmul(
            _mmul(_e12(self.laurent(-1, 1)), _e21(self.laurent(-1, 1))),
            _e12(self.laurent(-1, 1)),
        )

    def point(self) -> str:
        return str(self.rng.randint(-3, 3))


def _check_lambda(expected):
    def check(out):
        return out.get("lambda") == list(expected)

    return check


def _check_h0(lam, m):
    split = sorted((-x for x in lam), reverse=True)
    expected = sum(max(0, x + m + 1) for x in split)
    return lambda out: out == {"h0": expected}


def _check_splitting(lam):
    """At a single point the splitting type is sorted(-lam)."""
    return lambda out: out == {"a": sorted((-x for x in lam), reverse=True)}


def _check_degree(degree):
    return lambda out: out.get("degree") == degree


def _check_lift(factors):
    def check(out):
        got = out["factorization"]["factors"]
        if len(got) != len(factors):
            return False
        for f, g in zip(factors, got):
            if g["pos"] != f["pos"] or g["param"]["precision"] is not None:
                return False
            lifted = {e: c for e, c in g["param"]["terms"]}
            base = {e: c for e, c in f["param"]["terms"]}
            if set(lifted) != set(base):
                return False
            for e, c in base.items():
                if lifted[e][0] != c or any(x != "0" for x in lifted[e][1:]):
                    return False
        return True

    return check


def _entry(gen: _Gen, kind: str, index: int):
    """One batch entry and its expectation: ("ok", check) or ("error", class)."""
    rng = gen.rng
    if kind == "invalid":
        bad = INVALID_KINDS[(index // len(MIX)) % len(INVALID_KINDS)]
        if bad == "bad_schema":
            loop, _ = gen.stratum_loop()
            doc = {"command": "stratum", "input": {"loop": {**_loop(loop), "bogus": 1}}}
        elif bad == "unknown_command":
            doc = {"command": "frobnicate", "input": {}}
        else:
            a = rng.choice((-2, -1, 1, 2))
            diag = [[{a: Fraction(1)}, {}], [{}, {0: Fraction(1)}]]
            doc = {"command": "factor", "input": {"loop": _loop(diag)}}
        return doc, ("error", EXPECTED_ERROR[bad])
    if kind in ("stratum", "snf"):
        loop, lam = gen.stratum_loop()
        return {"command": kind, "input": {"loop": _loop(loop)}}, ("ok", _check_lambda(lam))
    if kind == "h0":
        loop, lam = gen.stratum_loop()
        m = rng.randint(-2, 2)
        datum = {"points": [gen.point()], "loops": [_loop(loop)]}
        return {"command": "h0", "input": {"datum": datum, "m": m}}, ("ok", _check_h0(lam, m))
    if kind in ("glue", "splitting"):
        points = rng.sample(range(-3, 4), 1 if kind == "splitting" else rng.randint(1, 2))
        loops, lams = [], []
        for _ in points:
            loop, lam = gen.stratum_loop()
            loops.append(_loop(loop))
            lams.append(lam)
        datum = {"points": [str(p) for p in points], "loops": loops}
        if kind == "splitting":
            doc = {"command": "splitting-type", "input": {"datum": datum}}
            return doc, ("ok", _check_splitting(lams[0]))
        degree = -sum(sum(lam) for lam in lams)
        return {"command": "glue", "input": {"datum": datum}}, ("ok", _check_degree(degree))
    if kind == "factor":
        doc = {"command": "factor", "input": {"loop": _loop(gen.sl_loop(), "SL")}}
        return doc, ("ok", lambda out: out.get("reconstructs") is True and len(out["factors"]) == 3)
    if kind == "lift":
        factors = [
            {"pos": [1, 2] if k % 2 == 0 else [2, 1], "param": _series(gen.laurent(-2, 2))}
            for k in range(rng.randint(1, 3))
        ]
        doc = {
            "command": "lift",
            "input": {"factorization": {"factors": factors}, "modulus_power": rng.randint(2, 4)},
        }
        return doc, ("ok", _check_lift(factors))
    if kind == "extend":
        datum = {"points": [gen.point()], "loops": [_loop(gen.sl_loop(), "SL")]}
        doc = {
            "command": "extend",
            "input": {
                "datum": datum,
                "modulus_power": rng.randint(2, 3),
                "perturb": rng.random() < 0.5,
            },
        }
        return doc, ("ok", lambda out: out.get("reduces_to_input") is True)
    if kind == "expand":
        num = [[e, str(c)] for e, c in sorted(gen.laurent(0, 2).items())]
        den = [[0, str(gen.unit())], [1, "1"]]
        doc = {
            "command": "expand",
            "input": {
                "function": {"num": num, "den": den},
                "center": gen.point(),
                "precision": rng.choice((8, 12, 16)),
            },
        }
        return doc, ("ok", lambda out: "series" in out)
    raise ValueError(kind)


def make_batch(seed: int, count: int = ENTRIES):
    """The batch lines and, per line, its expectation."""
    gen = _Gen(seed)
    lines, expected = [], []
    for i in range(count):
        doc, exp = _entry(gen, MIX[i % len(MIX)], i)
        lines.append(json.dumps(doc, separators=(",", ":")))
        expected.append(exp)
    return lines, expected


def check_output(lines: list[str], expected: list, golden) -> tuple[int, int, list[str]]:
    """Compare ``loopgr batch`` output lines with the expectations.

    Returns (failed, expected_errors, failure messages).  An entry fails
    when its line is missing or unparsable, its outcome or error class is
    not the expected one, its result check fails, or its digest differs
    from the golden one.
    """
    by_index = {}
    for line in lines:
        try:
            doc = json.loads(line)
            by_index[doc["index"]] = doc
        except (ValueError, KeyError, TypeError):
            continue
    failed, expected_errors, failures = 0, 0, []
    for i, (outcome, want) in enumerate(expected):
        doc = by_index.get(i)
        error = None
        if doc is None:
            error = "missing output line"
        elif outcome == "error":
            if doc.get("ok") is not False or doc.get("error") != want:
                error = f"expected {want}, got {doc.get('error') or 'ok'}"
            else:
                expected_errors += 1
        elif doc.get("ok") is not True:
            error = f"unexpected {doc.get('error')}: {doc.get('message')}"
        elif not want(doc["output"]):
            error = "result check failed"
        if error is None and golden is not None and digest(outcome_doc(doc)) != golden[i]:
            error = "output differs from the golden digest"
        if error is not None:
            failed += 1
            if len(failures) < 5:
                failures.append(f"entry {i}: {error}")
    return failed, expected_errors, failures


def outcome_doc(doc: dict) -> dict:
    """The exact part of an output line: the result, or the error class."""
    if doc.get("ok"):
        return {"output": doc["output"]}
    return {"error": doc.get("error")}
