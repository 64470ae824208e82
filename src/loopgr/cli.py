"""Command-line front end: every operation on JSON input, for scripting.

Input is a JSON document from a path or stdin ("-"); output is JSON (default)
or an aligned text table.  Error classes map to fixed exit codes: schema 2,
precision 3, singular 4, domain 5.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import sys
from pathlib import Path

from . import cartan, factorization, jsonio, p1bundles
from .errors import Error, SchemaError, UndetectableValuation
from .rings import ArtinianRing
from .series import LaurentSeries


def _read(path: str, what: str) -> str:
    """The text of a file, or of stdin when path is "-"."""
    try:
        return sys.stdin.read() if path == "-" else Path(path).read_text()
    except OSError as exc:
        raise SchemaError(f"cannot read {what}: {exc}") from exc


def _parse(text: str, what: str):
    try:
        return json.loads(text)
    except ValueError as exc:  # also an integer past Python's digit limit
        raise SchemaError(f"{what} is not valid JSON: {exc}") from exc


@contextlib.contextmanager
def _exact_digits():
    """Print exact answers of any size: lift Python's int/str digit limit while a
    command runs.  JSON is parsed outside; RationalField.parse caps literals itself."""
    if not hasattr(sys, "set_int_max_str_digits"):  # an interpreter without the limit
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _table(rows) -> str:
    rows = [[str(c) for c in r] for r in rows]
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in rows
    )


def _fmt_tuple(values) -> str:
    return "(" + ", ".join(str(v) for v in values) + ")"


# -- command handlers: each takes the decoded input fields by name and returns
# (json_doc, text); text may instead be a function, called only for --format text


def _cmd_stratum(fields, precision, seed):
    lam = cartan.stratum(fields["loop"], precision)
    return jsonio.cocharacter_to_json(lam), f"stratum  {_fmt_tuple(lam.entries)}"


def _cmd_coarse(fields, precision, seed):
    cs = cartan.coarse_stratum(fields["loop"], precision)
    text = "coarse stratum  " + "  ".join(_fmt_tuple(c.entries) for c in cs.orbit)
    return jsonio.coarse_to_json(cs), text


def _cmd_snf(fields, precision, seed):
    fact = cartan.smith_normal_form(fields["loop"], precision)
    out = {
        "u": jsonio.loop_to_json(fact.left),
        "lambda": list(fact.cocharacter.entries),
        "v": jsonio.loop_to_json(fact.right),
    }
    return out, f"cocharacter  {_fmt_tuple(fact.cocharacter.entries)}"


def _cmd_splitting(fields, precision, seed):
    datum = fields["datum"]
    st = p1bundles.splitting_type(datum, precision)

    def text():
        # only the table shows the strata, so JSON output never reduces a loop
        rows = [["splitting type", _fmt_tuple(st.a), f"degree {st.degree()}"]]
        labels = [datum.ring.scalar_str(p.r) for p in datum.points]
        if datum.infinity_loop is not None:
            labels.append("infinity")
        if labels:
            rows.append(["point", "stratum", ""])
            for label, lam in zip(labels, p1bundles.strata_of(datum, precision)):
                rows.append([label, _fmt_tuple(lam.entries), ""])
        return _table(rows)

    return jsonio.splitting_to_json(st), text


def _cmd_h0(fields, precision, seed):
    m = fields["m"]
    value = p1bundles.h0(fields["datum"], m, precision)
    return {"h0": value}, f"h0(twist {m})  {value}"


def _cmd_glue(fields, precision, seed):
    datum = fields["datum"]
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
    text = _table([["loops", len(loops)], ["pole bounds", bounds], ["degree", -sum(det_vals)]])
    return out, text


def _cmd_modify(fields, precision, seed):
    out = p1bundles.modify(fields["datum"], fields["point"], fields["loop"])
    return {"datum": jsonio.datum_to_json(out)}, f"datum now has {len(out.points)} points"


def _cmd_factor(fields, precision, seed):
    loop = fields["loop"]
    fact = factorization.factor_elementary(loop, precision)
    reconstructs = fact.product().agrees_with(loop)
    out = jsonio.factorization_to_json(fact)
    out["reconstructs"] = reconstructs
    return out, _table([["factors", len(fact)], ["reconstructs", str(reconstructs).lower()]])


def _cmd_lift(fields, precision, seed):
    fact = fields["factorization"]
    target = ArtinianRing(fact.ring, fields["modulus_power"])
    lifted = factorization.lift_factorization(fact, target)
    out = {
        "ring": jsonio.ring_to_json(target),
        "factorization": jsonio.factorization_to_json(lifted),
    }
    return out, f"lifted {len(lifted)} factors over {target.name}"


def _cmd_extend(fields, precision, seed):
    datum = fields["datum"]
    target = ArtinianRing(datum.ring, fields["modulus_power"])
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


def _cmd_expand(fields, precision, seed):
    s = fields["function"].expand_at(fields["center"], fields.get("precision", precision))
    return {"series": jsonio.series_to_json(s)}, f"expansion  {s!r}"


# each command: its handler, its required input fields and its optional ones
_COMMANDS = {
    "stratum": (_cmd_stratum, ("loop",), ("ring",)),
    "coarse-stratum": (_cmd_coarse, ("loop",), ("ring",)),
    "snf": (_cmd_snf, ("loop",), ("ring",)),
    "splitting-type": (_cmd_splitting, ("datum",), ("ring",)),
    "h0": (_cmd_h0, ("datum", "m"), ("ring",)),
    "glue": (_cmd_glue, ("datum",), ("ring",)),
    "modify": (_cmd_modify, ("datum", "point", "loop"), ("ring",)),
    "factor": (_cmd_factor, ("loop",), ("ring",)),
    "lift": (_cmd_lift, ("factorization", "modulus_power"), ("ring",)),
    "extend": (_cmd_extend, ("datum", "modulus_power"), ("ring", "perturb")),
    "expand": (_cmd_expand, ("function", "center"), ("ring", "precision")),
}


def _run_one(command: str, doc, precision, seed):
    if command not in _COMMANDS:
        raise SchemaError(f"unknown command {command!r}")
    handler, required, optional = _COMMANDS[command]
    return handler(jsonio.command_input(doc, required, optional), precision, seed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="loopgr",
        description="Exact computations with matrix loops and bundles on the line",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS) + ["batch"])
    parser.add_argument("input", nargs="?", default="-", help="input path or - for stdin")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--precision", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    try:
        precision = jsonio.working_precision(args.precision, "--precision")
        if args.command == "batch":
            return _run_batch(args)
        doc = _parse(_read(args.input, "input"), "input")
        with _exact_digits():
            out, text = _run_one(args.command, doc, precision, args.seed)
            if args.format == "json":
                text = json.dumps(out, sort_keys=True)
            print(text() if callable(text) else text)
    except Error as exc:
        suggested = exc.suggested_precision
        hint = f" (suggested precision {suggested})" if suggested is not None else ""
        print(f"error[{type(exc).__name__}]: {exc}{hint}", file=sys.stderr)
        return exc.exit_code
    return 0


def _run_batch(args) -> int:
    status = 0
    for index, line in enumerate(_read(args.input, "batch file").splitlines()):
        if not line.strip():
            continue
        try:
            entry = jsonio.command_input(
                _parse(line, "batch entry"), ("command", "input"), ("precision",), "batch entry"
            )
            precision = entry.get("precision", args.precision)
            with _exact_digits():
                out, _ = _run_one(entry["command"], entry["input"], precision, args.seed)
                print(json.dumps({"index": index, "ok": True, "output": out}, sort_keys=True))
        except Error as exc:
            row = {"index": index, "ok": False, "error": type(exc).__name__, "message": str(exc)}
            if exc.suggested_precision is not None:
                row["suggested_precision"] = exc.suggested_precision
            print(json.dumps(row, sort_keys=True))
            status = status or exc.exit_code
    return status


if __name__ == "__main__":
    sys.exit(main())
