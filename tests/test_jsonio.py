import pytest

from loopgr import QQ, ArtinianRing, LaurentSeries, PrimeField, monomial_loop
from loopgr.errors import DomainError, SchemaError
from loopgr import jsonio


def test_ring_roundtrip():
    for ring in (QQ, PrimeField(11), ArtinianRing(PrimeField(5), 2)):
        assert jsonio.ring_from_json(jsonio.ring_to_json(ring)) == ring
    with pytest.raises(SchemaError):
        jsonio.ring_from_json({"type": "float"})
    with pytest.raises(SchemaError):
        jsonio.ring_from_json({"type": "fp", "p": 7, "extra": 1})


def test_series_roundtrip():
    s = LaurentSeries.from_terms(QQ, [(-2, QQ.parse("1/3")), (0, 5)], 7)
    doc = jsonio.series_to_json(s)
    assert doc == {"terms": [[-2, "1/3"], [0, "5"]], "precision": 7}
    assert jsonio.series_from_json(QQ, doc) == s
    exact = LaurentSeries.from_terms(QQ, [(1, 1)])
    assert jsonio.series_from_json(QQ, jsonio.series_to_json(exact)) == exact


def test_series_schema_strict():
    with pytest.raises(SchemaError):
        jsonio.series_from_json(QQ, {"terms": [], "prec": 2})
    with pytest.raises(SchemaError):
        jsonio.series_from_json(QQ, {"terms": [[0, "1", "2"]]})
    with pytest.raises(SchemaError):
        jsonio.series_from_json(QQ, {"terms": [["0", "1"]]})


def test_sizes_are_capped_at_the_precision_cap():
    for e in (4097, -4097):
        with pytest.raises(SchemaError):
            jsonio.series_from_json(QQ, {"terms": [[e, "1"]]})
        with pytest.raises(SchemaError):
            jsonio.series_from_json(QQ, {"terms": [[0, "1"]], "precision": e})
    with pytest.raises(SchemaError):
        jsonio.function_from_json(QQ, {"num": [[4097, "1"]]})
    with pytest.raises(DomainError):
        jsonio.ring_from_json({"type": "artinian", "m": 4097})
    s = jsonio.series_from_json(QQ, {"terms": [[-4096, "1"], [4095, "2"]], "precision": 4096})
    assert (s.shift, s.known_end) == (-4096, 4096)


def test_artinian_scalar_roundtrip():
    A = ArtinianRing(QQ, 3)
    x = A.add(A.one, A.gen())
    doc = jsonio.scalar_to_json(A, x)
    assert doc == ["1", "1", "0"]
    assert A.eq(jsonio.scalar_from_json(A, doc), x)


def test_loop_roundtrip_and_validation():
    m = monomial_loop(QQ, (1, -1), "SL")
    doc = jsonio.loop_to_json(m)
    assert jsonio.loop_from_json(QQ, doc) == m
    bad = dict(doc)
    bad["n"] = 3
    with pytest.raises(SchemaError):
        jsonio.loop_from_json(QQ, bad)
    with pytest.raises(SchemaError, match="GL or SL"):
        jsonio.loop_from_json(QQ, dict(doc, group="PGL"))


def test_datum_roundtrip():
    from loopgr import ModificationDatum

    d = ModificationDatum.at_points(
        QQ, ["0", "1/2"], [monomial_loop(QQ, (1, -1)), monomial_loop(QQ, (0, 0))]
    )
    doc = jsonio.datum_to_json(d)
    back = jsonio.datum_from_json(QQ, doc)
    assert back == d
    with pytest.raises(SchemaError):
        jsonio.datum_from_json(QQ, {"points": [], "loops": []})


def test_factorization_roundtrip():
    from loopgr import factor_elementary

    rot = jsonio.loop_from_json(
        QQ,
        {
            "n": 2,
            "entries": [
                [{"terms": []}, {"terms": [[0, "1"]]}],
                [{"terms": [[0, "-1"]]}, {"terms": []}],
            ],
            "group": "SL",
        },
    )
    f = factor_elementary(rot)
    doc = jsonio.factorization_to_json(f)
    back = jsonio.factorization_from_json(QQ, doc)
    assert back.factors == f.factors
    with pytest.raises(SchemaError):
        jsonio.factorization_from_json(QQ, {"factors": [{"pos": [1, 1, 2], "param": {"terms": []}}]})


def test_command_input_reads_the_ring_first_and_decodes_declared_fields():
    from loopgr import LoopMatrix

    loop = jsonio.loop_to_json(LoopMatrix.identity(PrimeField(5), 2))
    doc = {"ring": {"type": "fp", "p": 5}, "loop": loop, "m": 3}
    fields = jsonio.command_input(doc, ("loop", "m"), ("ring", "perturb"))
    assert fields == {"loop": LoopMatrix.identity(PrimeField(5), 2), "m": 3, "ring": PrimeField(5)}
    # a bad ring is reported before an unknown field
    with pytest.raises(DomainError):
        jsonio.command_input({**doc, "ring": {"type": "fp", "p": 4}, "x": 1}, ("loop", "m"), ("ring",))
    for bad in ({**doc, "x": 1}, {"loop": loop}, {**doc, "m": True}, [doc]):
        with pytest.raises(SchemaError):
            jsonio.command_input(bad, ("loop", "m"), ("ring",))
    # an object that does not declare "ring" rejects it
    with pytest.raises(SchemaError):
        jsonio.command_input({"command": "h0", "input": {}, "ring": "Q"}, ("command", "input"))
