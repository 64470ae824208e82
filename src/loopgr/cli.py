"""Command-line front end: every operation on JSON input, for scripting.

Input is a JSON document from a path or stdin ("-"); output is JSON (default)
or an aligned text table.  Error classes map to fixed exit codes: schema 2,
precision 3, singular 4, domain 5.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from . import cartan, factorization, jsonio, p1bundles
from .errors import MAX_PRECISION, Error, SchemaError, UndetectableValuation
from .rings import ArtinianRing
from .series import LaurentSeries


def _read(path: str, what: str) -> str:
    """The text of a file, or of stdin when path is "-"."""
    try:
        return sys.stdin.read() if path == "-" else Path(path).read_text()
    except OSError as exc:
        raise SchemaError(f"cannot read {what}: {exc}") from exc


def _load(path: str):
    text = _read(path, "input")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"input is not valid JSON: {exc}") from exc


def _working_precision(value, what: str):
    """A working precision: None for the default, else an int (not a bool)
    in [1, MAX_PRECISION]."""
    if value is not None and not (jsonio._is_int(value) and 1 <= value <= MAX_PRECISION):
        raise SchemaError(f"{what} must be an int in [1, {MAX_PRECISION}], got {value!r}")
    return value


def _ring_of(doc):
    if not isinstance(doc, dict):
        raise SchemaError("top-level input must be a JSON object")
    return jsonio.ring_from_json(doc.get("ring"))


def _table(rows) -> str:
    rows = [[str(c) for c in r] for r in rows]
    if not rows:
        return ""
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in rows
    )


def _fmt_tuple(values) -> str:
    return "(" + ", ".join(str(v) for v in values) + ")"


# -- command handlers: each returns (json_doc, text) -------------------------
# text may instead be a function, called only for --format text


def _cmd_stratum(doc, precision, seed):
    ring = _ring_of(doc)
    fields = jsonio._take(doc, "input", ("loop",), ("ring",))
    loop = jsonio.loop_from_json(ring, fields["loop"])
    lam = cartan.stratum(loop, precision)
    return jsonio.cocharacter_to_json(lam), f"stratum  {_fmt_tuple(lam.entries)}"


def _cmd_coarse(doc, precision, seed):
    ring = _ring_of(doc)
    fields = jsonio._take(doc, "input", ("loop",), ("ring",))
    loop = jsonio.loop_from_json(ring, fields["loop"])
    cs = cartan.coarse_stratum(loop, precision)
    text = "coarse stratum  " + "  ".join(_fmt_tuple(c.entries) for c in cs.orbit)
    return jsonio.coarse_to_json(cs), text


def _cmd_snf(doc, precision, seed):
    ring = _ring_of(doc)
    fields = jsonio._take(doc, "input", ("loop",), ("ring",))
    loop = jsonio.loop_from_json(ring, fields["loop"])
    fact = cartan.smith_normal_form(loop, precision)
    out = {
        "u": jsonio.loop_to_json(fact.left),
        "lambda": list(fact.cocharacter.entries),
        "v": jsonio.loop_to_json(fact.right),
    }
    return out, f"cocharacter  {_fmt_tuple(fact.cocharacter.entries)}"


def _cmd_splitting(doc, precision, seed):
    ring = _ring_of(doc)
    fields = jsonio._take(doc, "input", ("datum",), ("ring",))
    datum = jsonio.datum_from_json(ring, fields["datum"])
    st = p1bundles.splitting_type(datum, precision)

    def text():
        # only the table shows the strata, so JSON output never reduces a loop
        rows = [["splitting type", _fmt_tuple(st.a), f"degree {st.degree()}"]]
        labels = [ring.scalar_str(p.r) for p in datum.points]
        if datum.infinity_loop is not None:
            labels.append("infinity")
        if labels:
            rows.append(["point", "stratum", ""])
            for label, lam in zip(labels, p1bundles.strata_of(datum, precision)):
                rows.append([label, _fmt_tuple(lam.entries), ""])
        return _table(rows)

    return jsonio.splitting_to_json(st), text


def _cmd_h0(doc, precision, seed):
    ring = _ring_of(doc)
    fields = jsonio._take(doc, "input", ("datum", "m"), ("ring",))
    datum = jsonio.datum_from_json(ring, fields["datum"])
    m = fields["m"]
    if not jsonio._is_int(m):
        raise SchemaError("h0: twist m must be an int")
    value = p1bundles.h0(datum, m, precision)
    return {"h0": value}, f"h0(twist {m})  {value}"


def _cmd_glue(doc, precision, seed):
    ring = _ring_of(doc)
    fields = jsonio._take(doc, "input", ("datum",), ("ring",))
    datum = jsonio.datum_from_json(ring, fields["datum"])
    loops = datum.all_loops
    bounds = [lp.pole_bound(precision) for lp in loops]
    det_vals = [lp.det().valuation for lp in loops]
    if None in det_vals:
        raise UndetectableValuation("a loop determinant is zero on its whole known window")
    out = {
        "datum": jsonio.datum_to_json(datum),
        "pole_bounds": bounds,
        "det_valuations": det_vals,
        "degree": -sum(det_vals),
    }
    text = _table(
        [["loops", str(len(loops))], ["pole bounds", str(bounds)], ["degree", str(-sum(det_vals))]]
    )
    return out, text


def _cmd_modify(doc, precision, seed):
    ring = _ring_of(doc)
    fields = jsonio._take(doc, "input", ("datum", "point", "loop"), ("ring",))
    datum = jsonio.datum_from_json(ring, fields["datum"])
    point = jsonio.scalar_from_json(ring, fields["point"])
    loop = jsonio.loop_from_json(ring, fields["loop"])
    out = p1bundles.modify(datum, point, loop)
    return {"datum": jsonio.datum_to_json(out)}, f"datum now has {len(out.points)} points"


def _cmd_factor(doc, precision, seed):
    ring = _ring_of(doc)
    fields = jsonio._take(doc, "input", ("loop",), ("ring",))
    loop = jsonio.loop_from_json(ring, fields["loop"])
    fact = factorization.factor_elementary(loop, precision)
    reconstructs = fact.product().agrees_with(loop)
    out = jsonio.factorization_to_json(fact)
    out["reconstructs"] = reconstructs
    text = _table(
        [["factors", str(len(fact))], ["reconstructs", str(reconstructs).lower()]]
    )
    return out, text


def _cmd_lift(doc, precision, seed):
    ring = _ring_of(doc)
    fields = jsonio._take(doc, "input", ("factorization", "modulus_power"), ("ring",))
    fact = jsonio.factorization_from_json(ring, fields["factorization"])
    m = fields["modulus_power"]
    if not jsonio._is_int(m):
        raise SchemaError("lift: modulus_power must be an int")
    target = ArtinianRing(ring, m)
    lifted = factorization.lift_factorization(fact, target)
    out = {
        "ring": jsonio.ring_to_json(target),
        "factorization": jsonio.factorization_to_json(lifted),
    }
    return out, f"lifted {len(lifted)} factors over {target.name}"


def _cmd_extend(doc, precision, seed):
    ring = _ring_of(doc)
    fields = jsonio._take(doc, "input", ("datum", "modulus_power"), ("ring", "perturb"))
    datum = jsonio.datum_from_json(ring, fields["datum"])
    m = fields["modulus_power"]
    if not jsonio._is_int(m):
        raise SchemaError("extend: modulus_power must be an int")
    target = ArtinianRing(ring, m)
    perturbations = None
    if fields.get("perturb"):
        perturbations = _random_perturbations(datum, target, seed, precision)
    out_datum = factorization.extend_point(datum, target, perturbations, precision)
    reduced = factorization.reduce_datum(out_datum)
    ok = all(a.agrees_with(b) for a, b in zip(reduced.loops, datum.loops))
    out = {
        "ring": jsonio.ring_to_json(target),
        "datum": jsonio.datum_to_json(out_datum),
        "reduces_to_input": ok,
    }
    return out, f"extended over {target.name}; reduces to input: {str(ok).lower()}"


def _random_perturbations(datum, target, seed, precision):
    """Seeded random maximal-ideal perturbations, one per lifted factor."""
    rng = random.Random(f"extend:{seed}")
    x = target.gen()
    out = {}
    for i, lp in enumerate(datum.loops):
        fact = factorization.factor_elementary(lp, precision)
        per = {}
        for j in range(len(fact.factors)):
            if rng.random() < 0.5:
                continue
            coeff = target.mul(x, target.from_base(datum.ring.random(rng)))
            per[j] = LaurentSeries.from_terms(target, [(rng.randint(-2, 2), coeff)])
        if per:
            out[i] = per
    return out


def _cmd_expand(doc, precision, seed):
    ring = _ring_of(doc)
    fields = jsonio._take(doc, "input", ("function", "center"), ("ring", "precision"))
    f = jsonio.function_from_json(ring, fields["function"])
    center = jsonio.scalar_from_json(ring, fields["center"])
    local = _working_precision(fields.get("precision", precision), "expand: precision")
    s = f.expand_at(center, local)
    return {"series": jsonio.series_to_json(s)}, f"expansion  {s!r}"


_COMMANDS = {
    "stratum": _cmd_stratum,
    "coarse-stratum": _cmd_coarse,
    "snf": _cmd_snf,
    "splitting-type": _cmd_splitting,
    "h0": _cmd_h0,
    "glue": _cmd_glue,
    "modify": _cmd_modify,
    "factor": _cmd_factor,
    "lift": _cmd_lift,
    "extend": _cmd_extend,
    "expand": _cmd_expand,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopgr",
        description="Exact computations with matrix loops and bundles on the line",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS) + ["batch"])
    parser.add_argument("input", nargs="?", default="-", help="input path or - for stdin")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--precision", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    return parser


def _run_one(command: str, doc, precision, seed):
    if command not in _COMMANDS:
        raise SchemaError(f"unknown command {command!r}")
    return _COMMANDS[command](doc, precision, seed)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        precision = _working_precision(args.precision, "--precision")
        if args.command == "batch":
            return _run_batch(args)
        doc = _load(args.input)
        out, text = _run_one(args.command, doc, precision, args.seed)
        if args.format == "json":
            report = json.dumps(out, sort_keys=True)
        else:
            report = text() if callable(text) else text
    except Error as exc:
        suggested = exc.suggested_precision
        hint = f" (suggested precision {suggested})" if suggested is not None else ""
        print(f"error[{type(exc).__name__}]: {exc}{hint}", file=sys.stderr)
        return exc.exit_code
    print(report)
    return 0


def _run_batch(args) -> int:
    status = 0
    for index, line in enumerate(_read(args.input, "batch file").splitlines()):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
            fields = jsonio._take(entry, "batch entry", ("command", "input"), ("precision",))
            precision = _working_precision(
                fields.get("precision", args.precision), "batch entry: precision"
            )
            out, _ = _run_one(fields["command"], fields["input"], precision, args.seed)
            print(json.dumps({"index": index, "ok": True, "output": out}, sort_keys=True))
        except json.JSONDecodeError as exc:
            print(json.dumps({"index": index, "ok": False, "error": "SchemaError", "message": str(exc)}))
            status = status or 2
        except Error as exc:
            row = {"index": index, "ok": False, "error": type(exc).__name__, "message": str(exc)}
            if exc.suggested_precision is not None:
                row["suggested_precision"] = exc.suggested_precision
            print(json.dumps(row, sort_keys=True))
            status = status or exc.exit_code
    return status


if __name__ == "__main__":
    sys.exit(main())
