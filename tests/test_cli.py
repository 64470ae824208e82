import dataclasses
import json
import math

import pytest

from loopgr import factorization
from loopgr.cli import main

from conftest import det_cancelling_sl2_loop


def run(capsys, args, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


IDENTITY_LOOP = {
    "n": 2,
    "entries": [
        [{"terms": [[0, "1"]]}, {"terms": []}],
        [{"terms": []}, {"terms": [[0, "1"]]}],
    ],
    "group": "GL",
}

DIAG_LOOP = {
    "n": 2,
    "entries": [
        [{"terms": [[-1, "1"]]}, {"terms": []}],
        [{"terms": []}, {"terms": [[1, "1"]]}],
    ],
    "group": "GL",
}

ROTATION_LOOP = {
    "n": 2,
    "entries": [
        [{"terms": []}, {"terms": [[0, "1"]]}],
        [{"terms": [[0, "-1"]]}, {"terms": []}],
    ],
    "group": "SL",
}

# a zero entry whose window ends at the pivot valuation is undecidable
HALF_LOOP = {
    "n": 2,
    "entries": [
        [{"terms": [], "precision": 0}, {"terms": [[0, "1"]]}],
        [{"terms": [[0, "1"]]}, {"terms": [[1, "1"]]}],
    ],
    "group": "GL",
}


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_stratum_identity(tmp_path, capsys):
    path = write(tmp_path, "id.json", {"loop": IDENTITY_LOOP})
    code, out, _ = run(capsys, ["stratum", path])
    assert code == 0
    assert json.loads(out) == {"lambda": [0, 0]}


def test_splitting_type_diag(tmp_path, capsys):
    datum = {"points": ["0"], "loops": [DIAG_LOOP], "infinity_loop": None}
    path = write(tmp_path, "d.json", {"datum": datum})
    code, out, _ = run(capsys, ["splitting-type", path])
    assert code == 0
    assert json.loads(out) == {"a": [1, -1]}


def test_splitting_type_text_table(tmp_path, capsys):
    datum = {"points": ["0"], "loops": [DIAG_LOOP], "infinity_loop": None}
    path = write(tmp_path, "d.json", {"datum": datum})
    code, out, _ = run(capsys, ["splitting-type", path, "--format", "text"])
    assert code == 0
    assert "splitting type" in out and "(1, -1)" in out


def test_splitting_type_json_does_not_need_the_strata(tmp_path, capsys):
    # the splitting type is certified, but the stratum of the truncated loop
    # is not: JSON output succeeds, the text table reports the strata error
    from loopgr import LoopMatrix, jsonio, random_loop

    g = random_loop(2, 1, 0)
    tr = LoopMatrix([[e.truncated((i + j) % 3) for j, e in enumerate(r)] for i, r in enumerate(g.rows)])
    datum = {"points": ["0"], "loops": [jsonio.loop_to_json(tr)], "infinity_loop": None}
    path = write(tmp_path, "tr.json", {"datum": datum})
    code, out, _ = run(capsys, ["splitting-type", path])
    assert code == 0 and json.loads(out) == {"a": [1, 1]}
    code, out, err = run(capsys, ["splitting-type", path, "--format", "text"])
    assert code == 3 and out == ""
    assert err.startswith("error[InsufficientPrecision]: ") and len(err.splitlines()) == 1


def test_factor_rotation(tmp_path, capsys):
    path = write(tmp_path, "rot.json", {"loop": ROTATION_LOOP})
    code, out, _ = run(capsys, ["factor", path])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["factors"]) == 3
    assert doc["reconstructs"] is True
    assert doc["gamma"] is None


def test_snf_and_coarse(tmp_path, capsys):
    path = write(tmp_path, "d.json", {"loop": DIAG_LOOP})
    code, out, _ = run(capsys, ["snf", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda"] == [1, -1]
    code, out, _ = run(capsys, ["coarse-stratum", path])
    assert json.loads(out) == {"orbit": [[1, -1]]}


def test_h0_and_glue(tmp_path, capsys):
    datum = {"points": ["0"], "loops": [DIAG_LOOP], "infinity_loop": None}
    path = write(tmp_path, "d.json", {"datum": datum, "m": 0})
    code, out, _ = run(capsys, ["h0", path])
    assert code == 0
    assert json.loads(out) == {"h0": 2}
    path2 = write(tmp_path, "g.json", {"datum": datum})
    code, out, _ = run(capsys, ["glue", path2])
    doc = json.loads(out)
    assert doc["pole_bounds"] == [1] and doc["degree"] == 0


def test_modify_roundtrip(tmp_path, capsys):
    datum = {"points": [], "loops": [], "infinity_loop": None, "n": 2}
    path = write(
        tmp_path, "m.json", {"datum": datum, "point": "0", "loop": DIAG_LOOP}
    )
    code, out, _ = run(capsys, ["modify", path])
    assert code == 0
    new_datum = json.loads(out)["datum"]
    path2 = write(tmp_path, "d2.json", {"datum": new_datum})
    code, out, _ = run(capsys, ["splitting-type", path2])
    assert json.loads(out) == {"a": [1, -1]}


def test_expand(tmp_path, capsys):
    doc = {
        "function": {"num": [[0, "1"]], "den": [[0, "-3"], [1, "1"]]},
        "center": "1",
        "precision": 3,
    }
    path = write(tmp_path, "e.json", doc)
    code, out, _ = run(capsys, ["expand", path])
    assert code == 0
    series = json.loads(out)["series"]
    assert series["terms"][:2] == [[0, "-1/2"], [1, "-1/4"]]


def test_lift_and_extend(tmp_path, capsys):
    path = write(tmp_path, "rot.json", {"loop": ROTATION_LOOP})
    code, out, _ = run(capsys, ["factor", path])
    fact = json.loads(out)
    fact.pop("reconstructs")
    path2 = write(tmp_path, "lift.json", {"factorization": fact, "modulus_power": 2})
    code, out, _ = run(capsys, ["lift", path2])
    assert code == 0
    assert json.loads(out)["ring"] == {"type": "artinian", "base": "Q", "m": 2}

    datum = {"points": ["0"], "loops": [ROTATION_LOOP], "infinity_loop": None}
    path3 = write(tmp_path, "ext.json", {"datum": datum, "modulus_power": 3})
    code, out, _ = run(capsys, ["extend", path3])
    assert code == 0
    doc = json.loads(out)
    assert doc["reduces_to_input"] is True


def test_extend_with_seeded_perturbation(tmp_path, capsys):
    datum = {"points": ["0"], "loops": [ROTATION_LOOP], "infinity_loop": None}
    path = write(tmp_path, "ext.json", {"datum": datum, "modulus_power": 2, "perturb": True})
    code1, out1, _ = run(capsys, ["extend", path, "--seed", "7"])
    code2, out2, _ = run(capsys, ["extend", path, "--seed", "7"])
    code3, out3, _ = run(capsys, ["extend", path, "--seed", "8"])
    assert code1 == code2 == code3 == 0
    assert out1 == out2  # deterministic for a fixed seed
    assert json.loads(out1)["reduces_to_input"] is True
    assert json.loads(out3)["reduces_to_input"] is True


def test_extend_perturbs_the_loop_at_infinity(tmp_path, capsys):
    datum = {"points": ["0"], "loops": [ROTATION_LOOP], "infinity_loop": ROTATION_LOOP}
    path = write(tmp_path, "ext.json", {"datum": datum, "modulus_power": 2, "perturb": True})
    x_terms = 0
    for seed in range(6):
        code, out, _ = run(capsys, ["extend", path, "--seed", str(seed)])
        doc = json.loads(out)
        assert code == 0 and doc["reduces_to_input"] is True
        entries = doc["datum"]["infinity_loop"]["entries"]
        x_terms += any(c[1] != "0" for row in entries for e in row for _, c in e["terms"])
    assert x_terms > 0


# ---------------------------------------------------------------------------
# exit codes


def test_exit_code_schema(tmp_path, capsys):
    path = write(tmp_path, "bad.json", {"nonsense": True})
    code, _, err = run(capsys, ["stratum", path])
    assert code == 2 and "SchemaError" in err


def test_exit_code_not_json(tmp_path, capsys):
    p = tmp_path / "x.json"
    p.write_text("{broken")
    code, _, err = run(capsys, ["stratum", str(p)])
    assert code == 2


def test_exit_code_precision(tmp_path, capsys):
    zero_series = {"terms": [], "precision": 8}
    loop = {
        "n": 1,
        "entries": [[zero_series]],
        "group": "GL",
    }
    path = write(tmp_path, "z.json", {"loop": loop})
    code, _, err = run(capsys, ["stratum", path])
    assert code == 4  # singular to precision
    path2 = write(tmp_path, "h.json", {"loop": HALF_LOOP})
    code2, _, err2 = run(capsys, ["stratum", path2])
    assert code2 == 3 and "InsufficientPrecision" in err2
    assert "(suggested precision " in err2


def test_h0_zero_to_precision_entry_is_not_read_as_zero(tmp_path, capsys):
    # [[t^2, O(t^0)], [0, t^-2]] at 0: h0(-1) is 0, 1 or 2 depending on the
    # hidden entry, so no count may be reported
    loop = {
        "n": 2,
        "entries": [
            [{"terms": [[2, "1"]]}, {"terms": [], "precision": 0}],
            [{"terms": []}, {"terms": [[-2, "1"]]}],
        ],
        "group": "GL",
    }
    datum = {"points": ["0"], "loops": [loop], "infinity_loop": None}
    path = write(tmp_path, "z.json", {"datum": datum, "m": -1})
    code, out, err = run(capsys, ["h0", path])
    assert code == 3 and out == "" and "InsufficientPrecision" in err


def test_extend_det_cancelling_loop_answers_without_retry(tmp_path, capsys):
    # the lift's determinant is exactly 1 by construction, so the default
    # precision answers and a higher one only lengthens windows
    from loopgr import jsonio

    loop = jsonio.loop_to_json(det_cancelling_sl2_loop())
    datum = {"points": ["1"], "loops": [loop], "infinity_loop": None}
    path = write(tmp_path, "ext.json", {"datum": datum, "modulus_power": 2})
    ends = []
    for args in ([], ["--precision", "32"]):
        code, out, _ = run(capsys, ["extend", path, *args])
        doc = json.loads(out)
        assert code == 0 and doc["reduces_to_input"] is True
        (lifted,) = doc["datum"]["loops"]
        assert lifted["group"] == "SL"
        entries = [e for r in lifted["entries"] for e in r]
        ends.append([math.inf if e["precision"] is None else e["precision"] for e in entries])
    assert all(wide >= short for short, wide in zip(*ends))


@pytest.mark.parametrize("n", [1, 3])
def test_lift_rejects_a_gamma_that_is_not_two_by_two(tmp_path, capsys, n):
    gamma = {
        "n": n,
        "entries": [[{"terms": [[0, "1"]] if i == j else []} for j in range(n)] for i in range(n)],
        "group": "GL",
    }
    fact = {"gamma": gamma, "factors": [{"pos": [1, 2], "param": {"terms": [[-1, "1"]]}}]}
    doc = {"factorization": fact, "modulus_power": 2}
    code, out, err = run(capsys, ["lift", write(tmp_path, "g.json", doc)])
    assert code == 5 and out == "" and "DomainError" in err and "2x2" in err
    p = tmp_path / "batch.jsonl"
    p.write_text(json.dumps({"command": "lift", "input": doc}) + "\n")
    code, out, _ = run(capsys, ["batch", str(p)])
    assert code == 5 and json.loads(out)["error"] == "DomainError"


def test_precision_suggestion_exceeds_precision_in_use(tmp_path, capsys):
    # the zero entry's window is what is too short, but a retry must still
    # be offered above the precision in use
    path = write(tmp_path, "h.json", {"loop": HALF_LOOP})
    for precision in (16, 1024):
        code, _, err = run(capsys, ["stratum", path, "--precision", str(precision)])
        assert code == 3 and "InsufficientPrecision" in err
        suggested = int(err.rsplit("(suggested precision ", 1)[1].rstrip(")\n"))
        assert suggested > precision


def test_no_suggestion_above_the_precision_cap(tmp_path, capsys):
    path = write(tmp_path, "h.json", {"loop": HALF_LOOP})
    code, _, err = run(capsys, ["stratum", path, "--precision", "4096"])
    assert code == 3 and "InsufficientPrecision" in err
    assert "(suggested precision" not in err
    entry = {"command": "stratum", "input": {"loop": HALF_LOOP}, "precision": 4096}
    p = tmp_path / "batch.jsonl"
    p.write_text(json.dumps(entry) + "\n")
    code, out, _ = run(capsys, ["batch", str(p)])
    row = json.loads(out)
    assert code == 3 and row["error"] == "InsufficientPrecision"
    assert "suggested_precision" not in row


def test_glue_unknown_determinant_valuation(tmp_path, capsys):
    from loopgr import jsonio, random_loop, LoopMatrix

    g = random_loop(4, 1, 0)
    tr = LoopMatrix([[e.truncated(3) for e in r] for r in g.rows])
    datum = {"points": ["0"], "loops": [jsonio.loop_to_json(tr)], "infinity_loop": None}
    code, out, err = run(capsys, ["glue", write(tmp_path, "g.json", {"datum": datum})])
    assert code == 3 and out == "" and "UndetectableValuation" in err


def test_batch_is_a_command_not_an_option(tmp_path, capsys):
    p = tmp_path / "batch.jsonl"
    p.write_text(json.dumps({"command": "stratum", "input": {"loop": IDENTITY_LOOP}}) + "\n")
    with pytest.raises(SystemExit) as exc:
        main(["stratum", "--batch", str(p)])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, err = run(capsys, ["batch", str(tmp_path / "missing.jsonl")])
    assert code == 2 and out == ""
    assert err.startswith("error[SchemaError]: cannot read batch file: ")


ONE = {"terms": [[0, "1"]]}
DIAG_DATUM = {"points": ["0"], "loops": [DIAG_LOOP], "infinity_loop": None}


@pytest.mark.parametrize(
    "command, doc",
    [
        pytest.param("stratum", {"ring": {"type": "fp", "p": True}, "loop": IDENTITY_LOOP}, id="ring.p"),
        pytest.param("stratum", {"ring": {"type": "artinian", "m": True}, "loop": IDENTITY_LOOP}, id="ring.m"),
        pytest.param("stratum", {"loop": {"n": True, "entries": [[ONE]]}}, id="loop.n"),
        pytest.param(
            "stratum",
            {"loop": {"n": 1, "entries": [[{"terms": [[0, "1"]], "precision": True}]]}},
            id="series.precision",
        ),
        pytest.param("stratum", {"loop": {"n": 1, "entries": [[{"terms": [[True, "1"]]}]]}}, id="series.exponent"),
        pytest.param("expand", {"function": {"num": [[True, "1"]]}, "center": "0"}, id="poly.exponent"),
        pytest.param(
            "splitting-type",
            {"datum": {"points": [], "loops": [], "infinity_loop": None, "n": True}},
            id="datum.n",
        ),
        pytest.param(
            "lift",
            {"factorization": {"factors": [{"pos": [True, 2], "param": ONE}]}, "modulus_power": 2},
            id="factor.pos",
        ),
        pytest.param("h0", {"datum": DIAG_DATUM, "m": True}, id="h0.m"),
        pytest.param(
            "lift",
            {"factorization": {"factors": [{"pos": [1, 2], "param": ONE}]}, "modulus_power": True},
            id="lift.modulus_power",
        ),
        pytest.param("extend", {"datum": DIAG_DATUM, "modulus_power": True}, id="extend.modulus_power"),
    ],
)
def test_boolean_is_not_an_int(tmp_path, capsys, command, doc):
    code, _, err = run(capsys, [command, write(tmp_path, "b.json", doc)])
    assert code == 2 and "SchemaError" in err


@pytest.mark.parametrize("value", ["no", 0, 1, None, [True]], ids=["string", "0", "1", "null", "list"])
def test_perturb_must_be_a_boolean(tmp_path, capsys, value):
    datum = {"points": ["0"], "loops": [ROTATION_LOOP], "infinity_loop": None}
    doc = {"datum": datum, "modulus_power": 2, "perturb": value}
    code, out, err = run(capsys, ["extend", write(tmp_path, "p.json", doc)])
    assert code == 2 and out == "" and "SchemaError" in err


@pytest.mark.parametrize(
    "command, doc, code, error",
    [
        pytest.param(
            "stratum",
            {"loop": {"n": 1, "entries": [[{"terms": [[4097, "1"]]}]]}},
            2,
            "SchemaError",
            id="series.exponent",
        ),
        pytest.param(
            "stratum",
            {"loop": {"n": 1, "entries": [[{"terms": [[0, "1"]], "precision": 4097}]]}},
            2,
            "SchemaError",
            id="series.precision",
        ),
        pytest.param(
            "expand", {"function": {"num": [[4097, "1"]]}, "center": "0"}, 2, "SchemaError",
            id="poly.exponent",
        ),
        pytest.param(
            "stratum",
            {"ring": {"type": "artinian", "m": 4097}, "loop": IDENTITY_LOOP},
            5,
            "DomainError",
            id="ring.m",
        ),
        pytest.param(
            "extend", {"datum": DIAG_DATUM, "modulus_power": 4097}, 5, "DomainError",
            id="extend.modulus_power",
        ),
        # ArtinianRing alone rules on the nilpotency order, at both ends
        pytest.param(
            "extend", {"datum": DIAG_DATUM, "modulus_power": 0}, 5, "DomainError",
            id="extend.modulus_power.0",
        ),
        pytest.param(
            "lift",
            {"factorization": {"factors": [{"pos": [1, 2], "param": ONE}]}, "modulus_power": 0},
            5,
            "DomainError",
            id="lift.modulus_power.0",
        ),
    ],
)
def test_integers_that_size_allocations_are_capped(tmp_path, capsys, command, doc, code, error):
    # each of these would build a dense list or tuple of that length
    got, _, err = run(capsys, [command, write(tmp_path, "big.json", doc)])
    assert got == code and error in err and "4096" in err


@pytest.mark.parametrize("n", [-3, 0, 4097])
@pytest.mark.parametrize("command, extra", [("h0", {"m": 3}), ("splitting-type", {})])
def test_datum_rank_out_of_range_is_a_domain_error(tmp_path, capsys, command, extra, n):
    # n = -3 once printed {"h0": -12} for h0 and InconsistentH0 for splitting-type
    datum = {"points": [], "loops": [], "infinity_loop": None, "n": n}
    code, out, err = run(capsys, [command, write(tmp_path, "n.json", {"datum": datum, **extra})])
    assert code == 5 and out == "" and "DomainError" in err and "4096" in err


def test_h0_far_above_the_pole_bound_returns_at_once(tmp_path, capsys):
    # B = 1, splitting type (1, -1): above B each twist adds n = 2 sections
    path = write(tmp_path, "d.json", {"datum": DIAG_DATUM, "m": 10**9})
    code, out, _ = run(capsys, ["h0", path])
    assert code == 0 and json.loads(out) == {"h0": 2 * 10**9 + 2}


def test_exit_code_domain(tmp_path, capsys):
    datum = {"points": ["1", "1"], "loops": [DIAG_LOOP, DIAG_LOOP], "infinity_loop": None}
    path = write(tmp_path, "dup.json", {"datum": datum})
    code, _, err = run(capsys, ["splitting-type", path])
    assert code == 5 and "MarkedPointError" in err


def test_section_counting_over_a_non_field_exits_domain(tmp_path, capsys):
    ring = {"type": "artinian", "base": "Q", "m": 2}
    loop = {
        "n": 2,
        "entries": [
            [{"terms": [[-1, "1"]]}, {"terms": [[0, "1"]]}],
            [{"terms": [[0, "1"]]}, {"terms": [], "precision": -1}],
        ],
        "group": "GL",
    }
    datum = {"points": ["0"], "loops": [loop], "infinity_loop": None}
    for command, extra in (("h0", {"m": 0}), ("splitting-type", {})):
        doc = {"ring": ring, "datum": datum, **extra}
        code, out, err = run(capsys, [command, write(tmp_path, "a.json", doc)])
        assert code == 5 and out == "" and "section counting needs a field" in err
    # glue reads only pole bounds, so it still answers over k[x]/(x^2)
    loop = {
        "n": 2,
        "entries": [
            [{"terms": [[-1, ["1", "1"]]]}, {"terms": []}],
            [{"terms": []}, {"terms": [[1, "1"]]}],
        ],
        "group": "GL",
    }
    datum = {"points": ["0"], "loops": [loop], "infinity_loop": None}
    code, out, _ = run(capsys, ["glue", write(tmp_path, "g.json", {"ring": ring, "datum": datum})])
    assert code == 0 and json.loads(out)["pole_bounds"] == [1]


def test_precision_flag_bounds(capsys):
    code, _, err = run(capsys, ["stratum", "-", "--precision", "5000"])
    assert code == 2


@pytest.mark.parametrize("bad", [0, -3, 5000, True, "8"])
def test_batch_and_expand_precision_bounds(tmp_path, capsys, bad):
    entry = {"command": "stratum", "input": {"loop": IDENTITY_LOOP}, "precision": bad}
    p = tmp_path / "batch.jsonl"
    p.write_text(json.dumps(entry) + "\n")
    code, out, _ = run(capsys, ["batch", str(p)])
    row = json.loads(out)
    assert code == 2 and not row["ok"] and row["error"] == "SchemaError"
    doc = {"function": {"num": [[0, "1"]]}, "center": "0", "precision": bad}
    code, _, err = run(capsys, ["expand", write(tmp_path, "e.json", doc)])
    assert code == 2 and "SchemaError" in err


def test_batch_mode(tmp_path, capsys):
    lines = [
        json.dumps({"command": "stratum", "input": {"loop": IDENTITY_LOOP}}),
        json.dumps({"command": "stratum", "input": {"bad": 1}}),
        json.dumps({"command": "h0", "input": {"datum": {"points": ["0"], "loops": [DIAG_LOOP], "infinity_loop": None}, "m": 0}}),
        json.dumps({"command": "stratum", "input": {"loop": HALF_LOOP}}),
    ]
    p = tmp_path / "batch.jsonl"
    p.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, ["batch", str(p)])
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["index"] for r in rows] == [0, 1, 2, 3]
    assert rows[0]["ok"] and rows[0]["output"] == {"lambda": [0, 0]}
    assert not rows[1]["ok"] and rows[1]["error"] == "SchemaError"
    assert rows[2]["ok"] and rows[2]["output"] == {"h0": 2}
    assert rows[3]["error"] == "InsufficientPrecision" and rows[3]["suggested_precision"] > 16
    assert "suggested_precision" not in rows[1]
    assert code == 2  # first failure's code


def test_output_reparses_under_schema(tmp_path, capsys):
    from loopgr import jsonio, QQ

    path = write(tmp_path, "d.json", {"loop": DIAG_LOOP})
    _, out, _ = run(capsys, ["snf", path])
    doc = json.loads(out)
    jsonio.loop_from_json(QQ, doc["u"])
    jsonio.loop_from_json(QQ, doc["v"])


def test_stdin_input(capsys, monkeypatch):
    doc = json.dumps({"loop": IDENTITY_LOOP})
    code, out, _ = run(capsys, ["stratum", "-"], stdin=doc, monkeypatch=monkeypatch)
    assert code == 0 and json.loads(out) == {"lambda": [0, 0]}


def test_batch_entry_faults_are_schema_rows(tmp_path, capsys):
    # a non-string command, and an integer past Python's digit limit
    lines = [
        json.dumps({"command": ["x"], "input": {}}),
        '{"command": "h0", "input": {"datum": {"points": [], "loops": [], "n": 2}, "m": '
        + "9" * 4301
        + "}}",
        json.dumps({"command": "stratum", "input": {"loop": IDENTITY_LOOP}}),
    ]
    p = tmp_path / "batch.jsonl"
    p.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, ["batch", str(p)])
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["index"] for r in rows] == [0, 1, 2]
    assert [r.get("error") for r in rows[:2]] == ["SchemaError", "SchemaError"]
    assert rows[2]["ok"] and rows[2]["output"] == {"lambda": [0, 0]}
    assert code == 2


RANK_ONE_LOOP = {"n": 1, "entries": [[ONE]], "group": "SL"}
RANK_THREE_IDENTITY = {
    "n": 3,
    "entries": [[ONE if i == j else {"terms": []} for j in range(3)] for i in range(3)],
    "group": "SL",
}
RANK_ONE_DATUM = {"points": ["0"], "loops": [RANK_ONE_LOOP], "infinity_loop": None}


@pytest.mark.parametrize(
    "command, doc",
    [
        pytest.param("factor", {"loop": RANK_THREE_IDENTITY}, id="factor.rank3"),
        pytest.param("extend", {"datum": RANK_ONE_DATUM, "modulus_power": 2}, id="extend.rank1"),
        pytest.param(
            "extend",
            {"datum": RANK_ONE_DATUM, "modulus_power": 2, "perturb": True},
            id="extend.rank1.perturb",
        ),
    ],
)
def test_rank_other_than_two_is_a_domain_error(tmp_path, capsys, command, doc):
    code, out, err = run(capsys, [command, write(tmp_path, "r.json", doc)])
    assert code == 5 and out == "" and err.startswith("error[UnsupportedRank]: ")
    p = tmp_path / "batch.jsonl"
    entries = [{"command": command, "input": doc}, {"command": "stratum", "input": {"loop": IDENTITY_LOOP}}]
    p.write_text("".join(json.dumps(e) + "\n" for e in entries))
    code, out, _ = run(capsys, ["batch", str(p)])
    rows = [json.loads(line) for line in out.splitlines()]
    assert code == 5 and rows[0]["error"] == "UnsupportedRank" and rows[1]["ok"]


def _big_int(text: str) -> int:
    # read a decimal numeral of any length in pieces under the digit limit
    value = 0
    sign, digits = (-1, text[1:]) if text.startswith("-") else (1, text)
    for i in range(0, len(digits), 1000):
        piece = digits[i : i + 1000]
        value = value * 10 ** len(piece) + int(piece)
    return sign * value


def test_exact_answers_print_past_the_int_digit_limit(tmp_path, capsys):
    # 1 / (t - 1/97) = -97 * sum (97 t)^k: the coefficient of t^4095 has 8,138 digits
    doc = {
        "function": {"num": [[0, "1"]], "den": [[0, "-1/97"], [1, "1"]]},
        "center": "0",
        "precision": 4096,
    }
    code, out, _ = run(capsys, ["expand", write(tmp_path, "e.json", doc)])
    assert code == 0
    terms = json.loads(out)["series"]["terms"]
    assert [e for e, _ in terms] == list(range(4096))
    for k in (0, 1, 4095):
        assert _big_int(terms[k][1]) == -(97 ** (k + 1))
    assert len(terms[4095][1]) == 1 + 8138
    # the twist may have as many digits as a JSON integer; h0 has one more
    datum = {"points": [], "loops": [], "infinity_loop": None, "n": 2}
    path = tmp_path / "h.json"
    path.write_text('{"datum": ' + json.dumps(datum) + ', "m": ' + "9" * 4300 + "}")
    code, out, _ = run(capsys, ["h0", str(path)])
    assert code == 0 and out == '{"h0": 2' + "0" * 4300 + "}\n"


def test_input_literals_stay_capped(tmp_path, capsys):
    import sys

    path = tmp_path / "m.json"
    path.write_text('{"datum": ' + json.dumps(DIAG_DATUM) + ', "m": ' + "9" * 4301 + "}")
    code, out, err = run(capsys, ["h0", str(path)])
    assert code == 2 and out == "" and err.startswith("error[SchemaError]: input is not valid JSON")
    # the rational literal cap is loopgr's own, not the interpreter's
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for literal in ("1" * 4301, "1/" + "1" * 4301):
            loop = {"n": 1, "entries": [[{"terms": [[0, literal]]}]]}
            code, _, err = run(capsys, ["stratum", write(tmp_path, "l.json", {"loop": loop})])
            assert code == 2 and "SchemaError" in err and "4300 digits" in err
    finally:
        sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------------------
# scalar literals, the datum rank and the extension check


RINGS = {
    "QQ": "Q",
    "GF7": {"type": "fp", "p": 7},
    "QQ[x]/(x^2)": {"type": "artinian", "base": "Q", "m": 2},
}


def _one_entry_loop(coefficient):
    return {"n": 1, "entries": [[{"terms": [[0, coefficient]]}]]}


@pytest.mark.parametrize("ring", list(RINGS), ids=list(RINGS))
@pytest.mark.parametrize("literal", ["1.5", "1/0", "1/07", "x", "", "2/-3", "1e3"])
def test_malformed_literal_is_a_schema_violation(tmp_path, capsys, ring, literal):
    coefficient = [literal] if ring == "QQ[x]/(x^2)" else literal
    doc = {"ring": RINGS[ring], "loop": _one_entry_loop(coefficient)}
    code, out, err = run(capsys, ["stratum", write(tmp_path, "l.json", doc)])
    assert code == 2 and out == "" and err.startswith("error[SchemaError]: scalar: ")


def test_literal_faults_in_batch(tmp_path, capsys):
    fp = {"type": "fp", "p": 7}
    entries = [
        {"ring": fp, "loop": _one_entry_loop("1.5")},
        {"ring": fp, "loop": _one_entry_loop("1/14")},  # well formed, 14 = 0 mod 7
        {"ring": fp, "loop": _one_entry_loop(" 3/2 ")},
    ]
    p = tmp_path / "batch.jsonl"
    p.write_text("".join(json.dumps({"command": "stratum", "input": e}) + "\n" for e in entries))
    code, out, _ = run(capsys, ["batch", str(p)])
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r.get("error") for r in rows] == ["SchemaError", "NonUnitLeading", None]
    assert rows[2]["output"] == {"lambda": [0]}
    assert code == 2
    code, _, err = run(capsys, ["stratum", write(tmp_path, "z.json", entries[1])])
    assert code == 5 and "NonUnitLeading" in err


@pytest.mark.parametrize(
    "n, code, error",
    [(2, 0, ""), (3, 5, "DomainError"), (True, 2, "SchemaError"), ("2", 2, "SchemaError")],
    ids=["int", "mismatch", "bool", "string"],
)
def test_datum_rank_is_checked_when_loops_are_present(tmp_path, capsys, n, code, error):
    datum = {**DIAG_DATUM, "n": n}
    got, out, err = run(capsys, ["splitting-type", write(tmp_path, "d.json", {"datum": datum})])
    assert got == code and error in err
    if code == 0:
        assert json.loads(out) == {"a": [1, -1]}


INFINITY_DATUM = {"points": ["0"], "loops": [ROTATION_LOOP], "infinity_loop": ROTATION_LOOP}


def test_extend_keeps_and_checks_the_infinity_loop(tmp_path, capsys):
    path = write(tmp_path, "e.json", {"datum": INFINITY_DATUM, "modulus_power": 3})
    code, out, _ = run(capsys, ["extend", path])
    doc = json.loads(out)
    assert code == 0 and doc["reduces_to_input"] is True
    assert doc["datum"]["infinity_loop"]["entries"][0][1]["terms"] == [[0, ["1", "0", "0"]]]


def test_extend_perturb_factors_each_loop_once(tmp_path, capsys, monkeypatch):
    # the perturbation draw and the extension share one factorization per loop
    real, calls = factorization._factor, []

    def counting(m, precision):
        calls.append(m)
        return real(m, precision)

    monkeypatch.setattr(factorization, "_factor", counting)
    path = write(tmp_path, "e.json", {"datum": INFINITY_DATUM, "modulus_power": 2, "perturb": True})
    for seed in range(6):
        code, out, _ = run(capsys, ["extend", path, "--seed", str(seed)])
        assert code == 0 and json.loads(out)["reduces_to_input"] is True
    assert len(calls) == 12


@pytest.mark.parametrize("fault", ["infinity loop", "point"])
def test_reduces_to_input_reads_the_infinity_loop_and_the_points(tmp_path, capsys, monkeypatch, fault):
    real = factorization.extend_point

    def faulty(datum, target, *args):
        out = real(datum, target, *args)
        if fault == "point":
            return dataclasses.replace(out, points=(target.one,))
        return dataclasses.replace(out, infinity_loop=out.infinity_loop.inverse())

    monkeypatch.setattr(factorization, "extend_point", faulty)
    path = write(tmp_path, "e.json", {"datum": INFINITY_DATUM, "modulus_power": 2})
    code, out, _ = run(capsys, ["extend", path])
    assert code == 0 and json.loads(out)["reduces_to_input"] is False
