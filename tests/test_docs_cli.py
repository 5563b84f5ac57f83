import functools
import inspect
import json
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import freeconv
from freeconv import catalog, docs, functionals, oracle
from freeconv.catalog import (NC_CATALOG, NC_MIN_ORDER, nc_entry_d,
                              nc_max_order, nc_verify_d, verify_order)
from freeconv.cli import build_parser, run
from freeconv.coeffs import formal_t
from freeconv.docs import DocumentError
from freeconv.functionals import (
    CanonicalTriple,
    ConsistencyError,
    JacobiParams,
    MomentFunctional,
    TwoStatePair,
    bernoulli_sym,
    moments_from_jacobi,
    semicircular,
)
from freeconv.oracle import MAX_ORACLE_ORDER
from freeconv.series import TruncSeries


def test_rational_encoding():
    assert docs.encode_rational(F(3)) == "3"
    assert docs.encode_rational(F(-7, 2)) == "-7/2"
    assert docs.decode_rational("5/10") == F(1, 2)
    with pytest.raises(DocumentError):
        docs.decode_rational("x")
    with pytest.raises(DocumentError):
        docs.decode_rational(3)


def test_poly_coeff_round_trip():
    t = formal_t()
    c = 1 + 2 * t + F(1, 3) * t ** 2
    assert docs.decode_coeff(docs.encode_coeff(c)) == c
    assert docs.encode_coeff(c) == ["1", "2", "1/3"]
    assert docs.decode_coeff("5") == F(5)


def test_functional_doc_round_trip():
    rng = random.Random(50)
    mf = MomentFunctional(6, [F(rng.randint(-5, 5), rng.randint(1, 4))
                              for _ in range(6)])
    doc = docs.encode_functional(mf)
    assert docs.decode(doc) == mf
    assert json.loads(docs.dumps(doc)) == doc


def test_polynomial_functional_round_trip():
    t = formal_t()
    mf = MomentFunctional(4, (t, 1 + t * t, F(1, 2), 2 * t))
    doc = docs.encode_functional(mf)
    assert docs.decode(doc) == mf
    assert doc["moments"][0] == ["0", "1"]


def test_jacobi_doc_round_trip():
    j = JacobiParams((F(1, 2),), (F(2),), repeat=(F(0), F(1)))
    doc = docs.encode_jacobi(j)
    assert docs.decode(doc) == j
    jt = JacobiParams((0, 0), (1, 0), terminated=True)
    assert docs.decode(docs.encode_jacobi(jt)) == jt


def test_pair_and_triple_docs():
    pair = TwoStatePair(bernoulli_sym(6), semicircular(0, 1, 6))
    assert docs.decode(docs.encode_pair(pair)) == pair
    tri = CanonicalTriple(F(1, 2), F(1), semicircular(0, 1, 4))
    back = docs.decode(docs.encode_triple(tri))
    assert back.beta == tri.beta and back.gamma == tri.gamma
    assert back.rho == tri.rho
    tri0 = CanonicalTriple(F(2), F(0), None)
    assert docs.decode(docs.encode_triple(tri0)).rho is None


def test_documents_print_in_one_ring():
    t = formal_t()
    mixed = MomentFunctional(3, (F(0), t, F(1, 2)))
    assert docs.encode_functional(mixed)["moments"] == [
        ["0"], ["0", "1"], ["1/2"]]
    assert docs.encode_functional(bernoulli_sym(2))["moments"] == ["0", "1"]
    pair = docs.encode_pair(TwoStatePair(mixed, MomentFunctional(3, (1, 2, 3))))
    assert pair["base"]["moments"] == [["1"], ["2"], ["3"]]
    tri = docs.encode_triple(CanonicalTriple(F(1), t, bernoulli_sym(2)))
    assert tri["beta"] == ["1"] and tri["rho"]["moments"] == [["0"], ["1"]]
    jac = docs.encode_jacobi(JacobiParams((F(0),), (1 + t,), repeat=(0, 1)))
    assert jac["betas"] == [["0"]] and jac["repeat"] == {
        "beta": ["0"], "gamma": ["1"]}
    assert docs.encode_coeffs([F(2), F(0)]) == ["2", "0"]
    assert docs.encode_coeffs([F(2), t - t]) == [["2"], ["0"]]


def test_unknown_fields_rejected():
    doc = docs.encode_functional(bernoulli_sym(4))
    doc["extra"] = 1
    with pytest.raises(DocumentError):
        docs.decode(doc)
    with pytest.raises(DocumentError):
        docs.decode({"type": "moments", "order": 2})
    with pytest.raises(DocumentError):
        docs.decode({"type": "wat"})
    with pytest.raises(DocumentError):
        docs.decode({"type": "family", "name": "gaussian", "order": 4})


BAD_ORDERS = ("abc", 2.5, True, False, 0, -1, None, docs.MAX_ORDER + 1)


def _doc_of_kind(kind, order):
    moments = {"type": "moments", "order": 2, "moments": ["0", "1"]}
    if kind == "moments":
        return {**moments, "order": order, "moments": ["0"] * 3}
    if kind == "family":
        return {"type": "family", "name": "semicircular",
                "params": {"beta": "0", "gamma": "1"}, "order": order}
    if kind == "pair":
        return {"type": "pair", "order": order,
                "tilde": moments, "base": moments}
    if kind == "triple":
        return {"type": "triple", "beta": "0", "gamma": "1", "rho": moments,
                "order": order}
    return {"type": "jacobi", "betas": ["0"], "gammas": ["1"],
            "terminated": False, "order": order}


@pytest.mark.parametrize("kind", ("moments", "family", "pair", "triple",
                                  "jacobi"))
@pytest.mark.parametrize("order", BAD_ORDERS, ids=repr)
def test_document_order_is_validated(kind, order):
    with pytest.raises(DocumentError, match="order must be an integer"):
        docs.decode(_doc_of_kind(kind, order))


def test_document_order_limit():
    doc = _doc_of_kind("family", docs.MAX_ORDER)
    assert docs.decode(doc).order == docs.MAX_ORDER
    assert docs.decode(_doc_of_kind("pair", 2)).order == 2


@pytest.mark.parametrize("order", BAD_ORDERS, ids=repr)
def test_cli_bad_document_order_is_usage_error(tmp_path, capsys, order):
    path = write(tmp_path, "f.json", _doc_of_kind("family", order))
    assert run(["convert", "--to", "moments", path]) == 2
    assert "order must be an integer" in capsys.readouterr().err


def test_family_doc():
    doc = {"type": "family", "name": "free_meixner",
           "params": {"b": "0", "c": "1", "beta": "0", "gamma": "1"},
           "order": 4}
    assert docs.decode(doc) == MomentFunctional(4, (0, 1, 0, 3))


# -- CLI ------------------------------------------------------------------------


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(docs.dumps(doc))
    return str(path)


def bernoulli_doc(order=10):
    return {"type": "family", "name": "bernoulli_sym", "params": {},
            "order": order}


def semicircle_doc(order=10):
    return {"type": "family", "name": "semicircular",
            "params": {"beta": "0", "gamma": "1"}, "order": order}


@pytest.mark.parametrize("text", (
    "1e5", "2.5", "1E+3", " 1", "1\n", "1_0", "+1", "\u0661"))
def test_rationals_take_only_integers_and_fractions(tmp_path, capsys, text):
    """A rational is an optional '-', ASCII digits and optionally '/' and
    ASCII digits: Fraction() alone also parses exponents, and spends minutes
    on one like "1e99999999"."""
    with pytest.raises(DocumentError):
        docs.decode_rational(text)
    doc = write(tmp_path, "m.json",
                {"type": "moments", "order": 1, "moments": [text]})
    assert run(["convert", "--to", "moments", doc]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("t", ("2.5e0", "1e1", "2.5", "1E+1", " 2", "2_0"))
def test_cli_t_takes_only_integers_and_fractions(tmp_path, capsys, t):
    """--t is read by the document rule, so an exponent cannot ask for
    unbounded work: this would spend minutes on "1e99999999"."""
    b = write(tmp_path, "b.json", bernoulli_doc(8))
    assert run(["power", "--op", "free", "--t", t, b]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad --t value" in captured.err
    assert run(["power", "--op", "free", "--t=-5/2", b]) == 0


@pytest.mark.parametrize("value", ("1e3", "2.5", "1E+1"))
def test_cli_param_takes_only_integers_and_fractions(capsys, value):
    """A --param number that is no integer or p/q is refused."""
    assert _exit_code(["verify", "free-evolution",
                       "--param", f"beta={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "parameter beta:" in captured.err


@pytest.mark.parametrize("value", ("2.5", "1e3", "-0.5", "inf"))
def test_cli_param_says_how_a_rational_is_written(capsys, value):
    """The refusal of a number in another form names the forms it takes,
    instead of reading the number as a family name that no coefficient
    parameter takes."""
    assert _exit_code(["verify", "free-evolution",
                       "--param", f"beta={value}"]) == 2
    err = capsys.readouterr().err
    assert f"parameter beta: bad rational {value!r}: want an integer or p/q" \
        in err
    assert "want int or Fraction" not in err


_LIMIT = getattr(sys, "get_int_max_str_digits", None)


def test_cli_prints_results_past_the_int_digit_limit(tmp_path, capsys):
    """Results are printed in full however many digits they have, and the
    interpreter's limit, which guards parsing, is restored afterwards."""
    before = _LIMIT and _LIMIT()
    big = 10 ** 3999 + 7  # 4000 digits: decodes, but m_2 of a + a has 8000
    a = write(tmp_path, "a.json", {"type": "moments", "order": 2,
                                   "moments": [str(big), str(big)]})
    assert run(["conv", "--op", "free", a, a]) == 0
    m1, m2 = json.loads(capsys.readouterr().out)["moments"]
    assert (_LIMIT and _LIMIT()) == before
    assert m1 == str(2 * big)
    assert len(m2) == 7999 and m2[:2] == "20" and m2[-3:] == "112"


@pytest.mark.skipif(_LIMIT is None, reason="no int digit limit before 3.10.7")
def test_cli_keeps_the_int_digit_limit_on_input(tmp_path, capsys):
    c = write(tmp_path, "c.json",
              {"type": "moments", "order": 1, "moments": ["1" * 5000]})
    assert run(["convert", "--to", "moments", c]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "bad rational" in captured.err


def test_cli_domain_error_with_a_long_coefficient_exits_3(tmp_path, capsys):
    """A domain error names its operands in full: the strip divides by the
    variance B t - B^2, whose 5000-digit coefficient is no usage error."""
    big = "7" * 2500
    doc = write(tmp_path, "m.json", {"type": "moments", "order": 4, "moments":
                                     [[big], ["0", big], ["1"], [big, "1"]]})
    assert run(["map", "--op", "strip", doc]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not divisible" in captured.err and len(captured.err) > 5000


def test_cli_violation_with_a_long_residual_exits_1(monkeypatch, capsys):
    """A residual is printed in full, so a violated identity still exits 1
    (not 2, the usage-error code) when a coefficient has 5000 digits."""
    big = F(10 ** 5000)

    def violated(order, rng, cross):
        return [catalog.check_eq("big", MomentFunctional(1, (big,)),
                                 MomentFunctional(1, (big + 1,))),
                catalog.check_zero("zero", TruncSeries(0, (big,)))], []

    monkeypatch.setitem(catalog.CATALOG, "pde", (violated, 8))
    before = _LIMIT and _LIMIT()
    assert run(["verify", "pde"]) == 1
    assert (_LIMIT and _LIMIT()) == before
    out = capsys.readouterr().out
    assert "FAIL [pde] big" in out and "FAIL [pde] zero" in out
    assert "m_1: Fraction(1" + "0" * 5000 + ", 1) != " in out


_JACOBI = {"type": "jacobi", "betas": ["0", "0"], "gammas": ["1", "1"],
           "terminated": False, "repeat": {"beta": "0", "gamma": "1"},
           "order": 4}
_FAMILY = {"type": "family", "name": "semicircular", "order": 4}


@pytest.mark.parametrize("doc", (
    {**_JACOBI, "betas": 5},
    {**_JACOBI, "betas": None},
    {**_JACOBI, "betas": "12"},
    {**_JACOBI, "gammas": "11"},
    {**_JACOBI, "repeat": 5},
    {"type": "jacobi", "betas": ["0", "0"], "gammas": ["1", "0"],
     "terminated": 1},
    {**_FAMILY, "name": ["x"]},
    {**_FAMILY, "params": []},
    {**_FAMILY, "params": "gamma"},
), ids=("betas-int", "betas-null", "betas-string", "gammas-string",
        "repeat-int", "terminated-int", "name-array",
        "params-array", "params-string"))
def test_cli_rejects_a_field_of_the_wrong_json_type(tmp_path, capsys, doc):
    """Rows are arrays, repeat and params objects, name a string and
    terminated a boolean; anything else is a usage error, not a crash or a
    silent reading."""
    path = write(tmp_path, "d.json", doc)
    assert run(["convert", "--to", "moments", path]) == 2
    assert capsys.readouterr().out == ""


def _exit_code(argv):
    try:
        return run(argv)
    except SystemExit as e:  # argparse rejects a --param it cannot read
        return e.code


@pytest.mark.parametrize("case", ("directory", "nested", "param"))
def test_cli_unreadable_input_is_usage_error(tmp_path, capsys, case):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000)
    argv, reason = {
        "directory": (["convert", "--to", "moments", str(tmp_path)],
                      "Is a directory"),
        "nested": (["convert", "--to", "moments", str(deep)],
                   "nested too deeply"),
        "param": (["verify", "thm-b", "--param", "omega=missing.json"],
                  "No such file"),
    }[case]
    assert _exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert reason in captured.err


def test_cli_monotone_conv(tmp_path, capsys):
    a = write(tmp_path, "b.json", bernoulli_doc())
    b = write(tmp_path, "s.json", semicircle_doc())
    assert run(["conv", "--op", "monotone", a, b]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["moments"][:4] == ["0", "2", "0", "6"]


def test_cli_strip_zero_variance_is_domain_error(tmp_path, capsys):
    d0 = write(tmp_path, "d0.json",
               {"type": "moments", "order": 6,
                "moments": ["0"] * 6})
    assert run(["map", "--op", "strip", d0]) == 3


@pytest.mark.parametrize("order", ["1", "2"])
def test_cli_strip_names_its_order_floor(tmp_path, capsys, order):
    b = write(tmp_path, "b.json", bernoulli_doc())
    assert run(["map", "--op", "strip", "--order", order, b]) == 2
    assert "strip needs order >= 3" in capsys.readouterr().err


@pytest.mark.parametrize("order, floor", [("1", 2), ("2", 4), ("3", 4)])
def test_cli_triple_names_its_order_floor(tmp_path, capsys, order, floor):
    """Order 1 cannot see gamma = kappa_2; orders 2 and 3 cannot see rho."""
    b = write(tmp_path, "b.json", bernoulli_doc())
    assert run(["map", "--op", "triple", "--order", order, b]) == 2
    out = capsys.readouterr()
    assert out.out == "" and f"need order >= {floor}" in out.err


def test_cli_jacobi_rejects_negative_levels(tmp_path, capsys):
    b = write(tmp_path, "b.json", bernoulli_doc())
    assert run(["convert", "--to", "jacobi", "--levels", "-1", b]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "levels must be >= 0" in out.err


@pytest.mark.parametrize("order", ["1", "2"])
def test_cli_two_state_semigroup_at_low_orders(tmp_path, capsys, order):
    """Below order 3 the relative rho does not enter the pair yet; the
    command still prints the pair, the order-10 one truncated."""
    rel = write(tmp_path, "rel.json",
                {"type": "triple", "beta": "1/2", "gamma": "2",
                 "rho": semicircle_doc(8)})
    base = write(tmp_path, "base.json",
                 {"type": "triple", "beta": "0", "gamma": "1",
                  "rho": bernoulli_doc(8)})
    argv = ["semigroup", "--t", "formal", "--rel", rel, "--base", base]
    assert run(argv + ["--order", "10"]) == 0
    full = json.loads(capsys.readouterr().out)
    assert run(argv + ["--order", order]) == 0
    low = json.loads(capsys.readouterr().out)
    for part in ("tilde", "base"):
        assert low[part]["moments"] == full[part]["moments"][:int(order)]


@pytest.mark.parametrize("order", ["0", "-1"])
@pytest.mark.parametrize("form", ["triple", "rel-base"])
def test_cli_semigroup_rejects_orders_below_one(tmp_path, capsys, form, order):
    """Both forms refuse an order with no moment as a usage error, not
    with the exit code for "identity violated"."""
    triple = write(tmp_path, "tr.json",
                   {"type": "triple", "beta": "1/2", "gamma": "2",
                    "rho": semicircle_doc(8)})
    files = (["--triple", triple] if form == "triple"
             else ["--rel", triple, "--base", triple])
    assert run(["semigroup", "--t", "formal", *files, "--order", order]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "order must be >= 1" in out.err


def test_cli_verify_exit_codes(capsys):
    assert run(["verify", "free-evolution", "--param", "beta=1/2",
                "--param", "gamma=1", "--param", "rho=bernoulli",
                "--order", "10"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out and "FAIL" not in out


def test_cli_verify_json_format(capsys):
    assert run(["verify", "counterexample-r", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verified"] is True
    assert doc["reports"][0]["checks"][0]["ok"] is True


def test_cli_convert_round_trip(tmp_path, capsys):
    b = write(tmp_path, "b.json", bernoulli_doc(8))
    assert run(["convert", "--to", "jacobi", b]) == 0
    jdoc = json.loads(capsys.readouterr().out)
    assert jdoc["terminated"] is True
    j = write(tmp_path, "j.json", jdoc)
    assert run(["convert", "--to", "moments", "--order", "8", j]) == 0
    mdoc = json.loads(capsys.readouterr().out)
    assert mdoc["moments"] == ["0", "1", "0", "1", "0", "1", "0", "1"]


def test_cli_power_and_semigroup(tmp_path, capsys):
    b = write(tmp_path, "b.json", bernoulli_doc(8))
    assert run(["power", "--op", "free", "--t", "2", b]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["moments"][:4] == ["0", "2", "0", "6"]
    tri = write(tmp_path, "tri.json",
                {"type": "triple", "beta": "0", "gamma": "1",
                 "rho": bernoulli_doc(8)})
    assert run(["semigroup", "--t", "formal", "--triple", tri]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["moments"][1] == ["0", "1"]  # m_2 = t


def test_cli_two_state_conv(tmp_path, capsys):
    pair_doc = {"type": "pair", "order": 6,
                "tilde": bernoulli_doc(6), "base": bernoulli_doc(6)}
    p = write(tmp_path, "p.json", pair_doc)
    assert run(["conv", "--op", "two-state", p, p]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["base"]["moments"][:4] == ["0", "2", "0", "6"]
    assert out["tilde"]["moments"] == out["base"]["moments"]


PAIR = str(Path(__file__).parent / "data" / "pair.json")  # order 5


@pytest.mark.parametrize("argv", [
    ["power", "--op", "two-state", "--t", "2", PAIR],
    ["power", "--op", "two-state", "--t", "formal", PAIR],
    ["conv", "--op", "two-state", PAIR, PAIR],
])
def test_cli_two_state_ops_take_the_order(capsys, argv):
    """--order truncates both parts of a pair document, and an order above
    the pair's own is refused."""
    assert run(argv) == 0
    full = json.loads(capsys.readouterr().out)
    assert full["order"] == 5
    assert run(argv + ["--order", "2"]) == 0
    low = json.loads(capsys.readouterr().out)
    assert low["order"] == 2
    for part in ("tilde", "base"):
        assert low[part]["moments"] == full[part]["moments"][:2]
    assert run(argv + ["--order", "9"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "cannot serve order 9" in out.err


def test_cli_subord(tmp_path, capsys):
    s = write(tmp_path, "s.json", semicircle_doc())
    assert run(["subord", s, s]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["moments"][:4] == ["0", "1", "0", "3"]


def test_cli_oracle(capsys, tmp_path):
    assert run(["oracle", "count", "nc", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 42
    b = write(tmp_path, "b.json", bernoulli_doc(6))
    assert run(["oracle", "cumulants", "--kind", "boolean", b]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["cumulants"] == ["0", "1", "0", "0", "0", "0"]


def _coefficients(doc):
    """Every coefficient of a printed document."""
    if doc.get("type") in ("moments", None):
        return doc.get("moments", doc.get("cumulants"))
    if doc["type"] == "pair":
        return _coefficients(doc["tilde"]) + _coefficients(doc["base"])
    if doc["type"] == "triple":
        rho = [] if doc["rho"] is None else _coefficients(doc["rho"])
        return [doc["beta"], doc["gamma"]] + rho
    return (doc["betas"] + doc["gammas"]
            + list(doc.get("repeat", {}).values()))


def test_cli_documents_print_in_one_ring(tmp_path, capsys):
    """A document whose coefficients are partly polynomials in t prints every
    coefficient as an array, whichever of them the solves left rational."""
    q = write(tmp_path, "q.json", {"type": "moments", "order": 4,
                                   "moments": ["0", "1", "0", "2"]})
    qt = write(tmp_path, "qt.json", {"type": "moments", "order": 4,
                                     "moments": [["0", "1"], ["1"], "0", "2"]})
    pq = write(tmp_path, "pq.json", {"type": "pair", "order": 4,
                                     "tilde": bernoulli_doc(4),
                                     "base": semicircle_doc(4)})
    tri = write(tmp_path, "tri.json", {"type": "triple", "beta": "0",
                                       "gamma": "1", "rho": bernoulli_doc(4)})
    assert run(["power", "--op", "free", "--t", "formal", q]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["moments"] == [["0"], ["0", "1"], ["0"], ["0", "0", "2"]]
    commands = (
        [["power", "--op", op, "--t", t, f] for op in ("free", "boolean", "bt")
         for t in ("formal", "1/2") for f in (q, qt)]
        + [["map", "--op", op, f] for op in ("phi", "bp", "bp-inv")
           for f in (q, qt)]
        + [["conv", "--op", op, a, b] for op in ("free", "boolean", "monotone")
           for a, b in ((q, qt), (qt, q), (q, q))]
        + [["subord", *flag, a, b] for flag in ([], ["--inverse"], ["--phi2"])
           for a, b in ((q, qt), (qt, q))]
        + [["power", "--op", "two-state", "--t", "formal", pq],
           ["semigroup", "--t", "formal", "--order", "6", "--triple", tri],
           ["semigroup", "--t", "formal", "--order", "6", "--rel", tri,
            "--base", tri],
           ["map", "--op", "triple", q],
           ["convert", "--to", "moments", qt],
           ["oracle", "cumulants", "--kind", "free", qt]])
    rings = set()
    for argv in commands:
        assert run(argv) == 0, argv
        doc = json.loads(capsys.readouterr().out)
        ring = {type(c) for c in _coefficients(doc)}
        assert len(ring) == 1, (argv, doc)
        rings |= ring
    assert rings == {str, list}


def _semicircle_jacobi(**extra):
    return {"type": "jacobi", "betas": ["0"], "gammas": ["1"],
            "terminated": False, "repeat": {"beta": "0", "gamma": "1"},
            **extra}


def _no_enumeration(*args):
    raise AssertionError("the oracle enumerated partitions")


@pytest.mark.parametrize("argv", (
    ["oracle", "count", "nc", str(MAX_ORACLE_ORDER + 1)],
    ["oracle", "count", "interval", str(MAX_ORACLE_ORDER + 1)],
    ["oracle", "cumulants", "--kind", "free", "DOC"],
    ["oracle", "cumulants", "--kind", "boolean", "DOC"],
    ["oracle", "cumulants", "--kind", "free", "--order",
     str(MAX_ORACLE_ORDER + 1), "SHORT"],
))
def test_cli_oracle_order_cap(monkeypatch, capsys, tmp_path, argv):
    """Above MAX_ORACLE_ORDER = 12 the oracle exits 2 with empty standard
    output, before it enumerates anything."""
    assert MAX_ORACLE_ORDER == 12
    for name in ("_nc_raw", "_nc_size_stream", "_nc_block_sizes",
                 "_nc_columns", "_interval_size_tuples", "_interval_columns"):
        monkeypatch.setattr(oracle, name, _no_enumeration)
    paths = {"DOC": write(tmp_path, "d.json",
                          bernoulli_doc(MAX_ORACLE_ORDER + 1)),
             "SHORT": write(tmp_path, "s.json", _semicircle_jacobi(order=4))}
    assert run([paths.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"1..{MAX_ORACLE_ORDER}" in captured.err


def test_cli_jacobi_document_order(tmp_path, capsys):
    """A jacobi document's ``order`` sets the truncation unless --order
    overrides it; without either the default order 10 applies."""
    j4 = write(tmp_path, "j4.json", _semicircle_jacobi(order=4))
    assert run(["convert", "--to", "moments", j4]) == 0
    assert json.loads(capsys.readouterr().out)["moments"] == \
        ["0", "1", "0", "2"]
    assert run(["convert", "--to", "moments", "--order", "6", j4]) == 0
    assert json.loads(capsys.readouterr().out)["moments"] == \
        ["0", "1", "0", "2", "0", "5"]
    assert run(["oracle", "cumulants", "--kind", "free", j4]) == 0
    assert json.loads(capsys.readouterr().out)["cumulants"] == \
        ["0", "1", "0", "0"]
    j = write(tmp_path, "j.json", _semicircle_jacobi())
    assert run(["convert", "--to", "moments", j]) == 0
    assert json.loads(capsys.readouterr().out)["order"] == 10


def test_cli_triple_document_order(tmp_path, capsys):
    """A triple document's ``order`` sets the semigroup's order unless
    --order overrides it; without either it is rho's order + 2."""
    def triple(**extra):
        return {"type": "triple", "beta": "0", "gamma": "1",
                "rho": semicircle_doc(8), **extra}

    t5 = write(tmp_path, "t5.json", triple(order=5))
    assert run(["semigroup", "--t", "1/2", "--triple", t5]) == 0
    assert json.loads(capsys.readouterr().out)["moments"] == \
        ["0", "1/2", "0", "1", "0"]
    assert run(["semigroup", "--t", "1/2", "--order", "3", "--triple", t5]) == 0
    assert json.loads(capsys.readouterr().out)["order"] == 3
    t = write(tmp_path, "t.json", triple())
    assert run(["semigroup", "--t", "1/2", "--triple", t]) == 0
    assert json.loads(capsys.readouterr().out)["order"] == 10
    t4 = write(tmp_path, "t4.json", triple(order=4))
    assert run(["semigroup", "--t", "1/2", "--rel", t5, "--base", t4]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["order"] == 4 and out["base"]["order"] == 4


def test_cli_nc_verify(capsys):
    assert run(["nc", "verify", "all"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


def _record_entries(monkeypatch):
    """Replace every catalog entry, of both layers, by one that checks
    nothing and records (name, order, d), d None for an entry that takes
    none; each keeps the signature, and so the parameters and the default
    d, of the one it replaces."""
    ran = []

    def recorder(name, fn):
        d = inspect.signature(fn).parameters.get("d")

        @functools.wraps(fn)
        def entry(order, rng, cross, **params):
            ran.append((name, order,
                        None if d is None else params.get("d", d.default)))
            return [], []
        return entry

    for entries, prefix in ((catalog.CATALOG, ""), (NC_CATALOG, "nc:")):
        for name, (fn, default) in entries.items():
            monkeypatch.setitem(entries, name,
                                (recorder(prefix + name, fn), default))
    return ran


# d = 41 is an integer, refused at order 3 by the size rule, which `nc
# verify all` cannot lower below composition's minimum order 3
@pytest.mark.parametrize("d,order", [("3/2", None), ("0", None), ("41", "3"),
                                     ("true", None)],
                         ids=["3/2", "0", "41", "true"])
def test_cli_word_layer_d_is_checked_before_any_entry_runs(
        d, order, monkeypatch, capsys):
    ran = _record_entries(monkeypatch)
    at = [] if order is None else ["--order", order]
    assert run(["verify", "nc:composition", "--param", f"d={d}", *at]) == 2
    assert capsys.readouterr().out == ""
    for name in ("composition", "all"):
        try:
            code = run(["nc", "verify", name, "--d", d, *at])
        except SystemExit as e:  # argparse rejects a --d that is no int
            code = e.code
        assert code == 2
        assert capsys.readouterr().out == ""
    assert not ran


def test_word_layer_d_range(monkeypatch, capsys):
    """d is any integer >= 1, and nc_max_order(d) is the largest order an
    entry runs at there."""
    assert nc_verify_d(F(3)) == 3 and nc_verify_d(41) == 41
    for bad in (True, 0, -1, F(3, 2), "2", 2.0):
        with pytest.raises(ValueError):
            nc_verify_d(bad)
    assert run(["verify", "nc:composition", "--param", "d=1",
                "--order", "3"]) == 0
    assert run(["nc", "verify", "final-prop", "--d", "1", "--order", "3"]) == 0
    assert "FAIL" not in capsys.readouterr().out
    ran = _record_entries(monkeypatch)
    for d in (1, 2, 3, 4, 6, 9, 16, 40):
        high = nc_max_order(d)
        assert run(["nc", "verify", "final-prop", "--d", str(d),
                    "--order", str(high)]) == 0
        assert run(["verify", "nc:composition", "--param", f"d={d}",
                    "--order", str(high + 1)]) == 2
        assert ran.pop() == ("nc:final-prop", high, d) and not ran


def test_word_layer_size_rule(monkeypatch, capsys):
    """Every (d, n) admitted with d <= 4 and n <= 8 is admitted; each request
    past the rule for one entry exits 2 before any entry runs, and so does
    `nc verify all` where the rule is below an entry's minimum order."""
    expected = {1: 64, 2: 14, 3: 9, 4: 8, 5: 6, 6: 6, 7: 5, 8: 5, 9: 5,
                10: 4, 16: 4, 17: 3, 40: 3, 41: 2}
    assert {d: nc_max_order(d) for d in expected} == expected
    for name, low in NC_MIN_ORDER.items():
        for d in (1, 2, 3, 4) if name != "recover-tau" else (1,):
            params = {} if name == "recover-tau" else {"d": d}
            for n in range(low, 9):
                assert verify_order(f"nc:{name}", n, params) == n
    ran = _record_entries(monkeypatch)
    for d, n in ((1, 65), (2, 15), (3, 10), (5, 7), (41, 3)):
        argvs = [["verify", "nc:composition", "--param", f"d={d}",
                  "--order", str(n)],
                 ["nc", "verify", "final-prop", "--d", str(d), "--order",
                  str(n)]]
        if d == 41:
            argvs.append(["nc", "verify", "all", "--d", str(d), "--order",
                          str(n)])
        if d == 1:
            argvs.append(["verify", "nc:recover-tau", "--order", str(n)])
        for argv in argvs:
            assert run(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == "" and "nc_max_order" in captured.err
    assert not ran


def _nc_reports(argv, capsys):
    """{name: (order, notes)} of the JSON reports of a run that exits 0."""
    assert run([*argv, "--format", "json"]) == 0, argv
    return {r["name"]: (r["order"], r["notes"])
            for r in json.loads(capsys.readouterr().out)["reports"]}


def _capped(reports, name):
    """Whether the report of ``name`` notes that the size rule lowered its
    order."""
    return any("nc_max_order" in note for note in reports[name][1])


def test_cli_nc_verify_all_caps_order_entry_by_entry(monkeypatch, capsys):
    """`nc verify all --d D --order N` runs each entry at N lowered to the
    size rule at its d, with a note where it was lowered, as `verify all`
    does; recover-tau runs at d = 1.  An order below an entry's minimum, or
    a d where the rule is below composition's minimum, exits 2 before any
    entry runs."""
    ran = _record_entries(monkeypatch)
    for d, n, orders in ((40, 4, (3, 3, 4)), (17, 5, (3, 3, 5)),
                         (16, 4, (4, 4, 4)), (5, 7, (6, 6, 7)),
                         (2, 15, (14, 14, 15)), (1, 65, (64, 64, 64))):
        reports = _nc_reports(["nc", "verify", "all", "--d", str(d),
                               "--order", str(n)], capsys)
        want = dict(zip((f"nc:{name}" for name in NC_CATALOG), orders))
        assert {name: r[0] for name, r in reports.items()} == want
        for name, order in want.items():
            assert _capped(reports, name) == (order != n), (d, n, name)
        assert sorted(ran) == sorted(
            (name, order, None if name == "nc:recover-tau" else d)
            for name, order in want.items())
        ran.clear()
    for d, n, err in ((40, 3, "'recover-tau' needs an order >= 4, got 3"),
                      (41, 3, "'composition' runs at no order at d = 41"),
                      (41, 5, "nc_max_order admits at most 2"),
                      (2, 2, "'composition' needs an order >= 3, got 2")):
        assert run(["nc", "verify", "all", "--d", str(d), "--order",
                    str(n)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and err in captured.err, (d, n)
    assert not ran


def test_cli_default_word_layer_order_is_capped(monkeypatch, capsys):
    """Without --order a word-layer entry runs at its default order lowered
    to the size rule at its d, with a note; an explicit order past the rule
    for one entry still exits 2."""
    assert verify_order("nc:final-prop", None, {"d": 7}) == 5
    assert verify_order("nc:final-prop", None, {"d": 4}) == 6
    ran = _record_entries(monkeypatch)
    reports = _nc_reports(["nc", "verify", "final-prop", "--d", "7"], capsys)
    assert reports["nc:final-prop"][0] == 5
    assert any("not at the default 6" in note
               for note in reports["nc:final-prop"][1])
    assert ran == [("nc:final-prop", 5, 7)]
    ran.clear()
    for argv in (["nc", "verify", "all", "--d", "7"],
                 ["verify", "all", "--param", "d=7"]):
        reports = _nc_reports(argv, capsys)
        assert reports["nc:composition"][0] == reports["nc:final-prop"][0] \
            == 5 and reports["nc:recover-tau"][0] == 8
        assert _capped(reports, "nc:composition") and \
            _capped(reports, "nc:final-prop")
        assert not any(_capped(reports, name) for name in reports
                       if name not in ("nc:composition", "nc:final-prop"))
        assert sorted(r for r in ran if r[0].startswith("nc:")) == [
            ("nc:composition", 5, 7), ("nc:final-prop", 5, 7),
            ("nc:recover-tau", 8, None)]
        ran.clear()
    reports = _nc_reports(["nc", "verify", "all", "--d", "4"], capsys)
    assert not any(_capped(reports, name) for name in reports)
    ran.clear()
    for argv in (["nc", "verify", "final-prop", "--d", "7", "--order", "6"],
                 ["verify", "nc:composition", "--param", "d=7", "--order",
                  "6"],
                 ["nc", "verify", "composition", "--d", "41"],
                 ["nc", "verify", "all", "--d", "41"]):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "nc_max_order" in captured.err
    assert not ran


def test_verify_runs_validates_every_entry_once_before_any_runs(
        monkeypatch, capsys):
    """`verify all` and `nc verify all` check each entry once, through
    verify_order, and all of them before the first entry runs."""
    ran = _record_entries(monkeypatch)
    validated = []
    verify_order = catalog.verify_order

    def spy(name, *args):
        validated.append((name, len(ran)))
        return verify_order(name, *args)

    monkeypatch.setattr(catalog, "verify_order", spy)
    nc_names = [f"nc:{name}" for name in NC_CATALOG]
    for argv, names in ((["verify", "all"], [*catalog.CATALOG, *nc_names]),
                        (["nc", "verify", "all"], nc_names)):
        assert run(argv) == 0
        assert validated == [(name, 0) for name in names]
        assert [r[0] for r in ran] == names
        validated.clear()
        ran.clear()
    capsys.readouterr()


def test_a_run_of_several_entries_reads_each_signature_once(monkeypatch,
                                                             capsys):
    """A run of several entries sorts the parameters among them and then
    validates each through verify_order; each entry's annotations, an
    inspect.signature with eval_str, are evaluated once for both runs."""
    _record_entries(monkeypatch)
    signature, evaluated = inspect.signature, []

    def spy(fn, **kwargs):
        if kwargs.get("eval_str"):
            evaluated.append(fn)
        return signature(fn, **kwargs)

    monkeypatch.setattr(inspect, "signature", spy)
    monkeypatch.setattr(catalog, "_ENTRY_PARAMS", {})
    for argv in (["verify", "all"], ["verify", "all", "--param", "p=1"]):
        assert run(argv) == 0
    entries = [fn for fn, _ in (*catalog.CATALOG.values(),
                                *NC_CATALOG.values())]
    assert len(evaluated) == len(entries)
    assert set(evaluated) == set(entries)
    capsys.readouterr()


def test_a_library_verify_notes_a_lowered_default_order(monkeypatch):
    """The note that the size rule lowered a default order is the runner's,
    so a library call carries it as the CLI's report does."""
    ran = _record_entries(monkeypatch)
    rep = catalog.verify("nc:final-prop", {"d": 7})
    assert (rep.order, ran) == (5, [("nc:final-prop", 5, 7)])
    assert rep.notes == ["run at order 5, the largest the word layer's size "
                         "rule nc_max_order admits at d = 7, not at the "
                         "default 6"]


def test_an_entry_cannot_drop_its_cross_checks(monkeypatch):
    """The runner hands each entry its cross-checks and ends the report with
    them: an entry that strips and returns its own checks alone still
    reports the Jacobi-shift check of that strip."""
    def entry(order, rng, cross):
        cross.strip(semicircular(0, 1, order))
        return [], []

    monkeypatch.setitem(catalog.CATALOG, "pde", (entry, 8))
    rep = catalog.verify("pde")
    assert [(c.label, c.ok, c.cross_check) for c in rep.checks] == [
        (f"Jacobi shift: {catalog._SHIFTS['J'][0]} (1 of 1 inputs)", True,
         True)]
    assert rep.notes == []


def test_cli_bad_json_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert run(["map", "--op", "bp", str(bad)]) == 2
    doc = write(tmp_path, "unk.json", {"type": "moments", "order": 1,
                                       "moments": ["1"], "junk": 0})
    assert run(["map", "--op", "bp", doc]) == 2


def test_cli_deterministic_output(tmp_path, capsys):
    runs = []
    for _ in range(2):
        assert run(["verify", "bn-mean", "--seed", "9"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]


ENTRY_MIN_ORDERS = (
    [(name, low) for name, low in catalog.MIN_ORDER.items()]
    + [(f"nc:{name}", low) for name, low in NC_MIN_ORDER.items()])


def test_min_orders_cover_the_catalogs():
    assert set(catalog.MIN_ORDER) == set(catalog.CATALOG)
    assert set(NC_MIN_ORDER) == set(NC_CATALOG)
    for name, (_, default) in catalog.CATALOG.items():
        assert catalog.MIN_ORDER[name] <= default
    for name, (_, default) in NC_CATALOG.items():
        assert NC_MIN_ORDER[name] <= default <= nc_max_order(nc_entry_d(name))


@pytest.mark.parametrize("name,low", ENTRY_MIN_ORDERS)
def test_cli_verify_order_range(name, low, monkeypatch, capsys):
    assert run(["verify", name, "--order", str(low - 1)]) == 2
    assert capsys.readouterr().out == ""
    assert run(["verify", name, "--order", str(low)]) == 0
    assert "FAIL" not in capsys.readouterr().out
    if name.startswith("nc:"):
        high = nc_max_order(nc_entry_d(name.removeprefix("nc:")))
        ran = _record_entries(monkeypatch)
        assert run(["verify", name, "--order", str(high + 1)]) == 2
        assert capsys.readouterr().out == "" and not ran


def test_cli_verify_all_rejects_order_before_running(capsys):
    # order 5 suits every entry that runs before two-state-meixner
    assert run(["verify", "all", "--order", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "verify entry 'two-state-meixner' needs an order >= 6, got 5" \
        in captured.err
    assert run(["nc", "verify", "all", "--order", "2"]) == 2
    assert capsys.readouterr().out == ""


def test_cli_verify_all_caps_word_layer_order(monkeypatch, capsys):
    """`verify all --order N` runs each word-layer entry at min(N, the
    largest order the size rule admits at its d) and notes where that is
    not N; recover-tau runs at d = 1."""
    ran = _record_entries(monkeypatch)
    for order, d, capped in ((20, None, (14, 14, 20)), (20, "3", (9, 9, 20)),
                             (70, None, (14, 14, 64)), (8, "4", (8, 8, 8))):
        at = [] if d is None else ["--param", f"d={d}"]
        assert run(["verify", "all", "--order", str(order), "--format",
                    "json", *at]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verified"]
        nc_orders = dict(zip((f"nc:{name}" for name in NC_CATALOG), capped))
        orders = {r["name"]: r["order"] for r in out["reports"]}
        assert orders == {**{name: order for name in catalog.CATALOG},
                          **nc_orders}
        for r in out["reports"]:
            noted = any("nc_max_order" in note for note in r["notes"])
            assert noted == (r["order"] != order)
        want_d = 2 if d is None else int(d)
        assert sorted(r for r in ran if r[0].startswith("nc:")) == sorted(
            (name, n, None if name == "nc:recover-tau" else want_d)
            for name, n in nc_orders.items())
        ran.clear()
    # one named word-layer entry is still held to the rule
    assert run(["verify", "nc:composition", "--order", "15"]) == 2
    assert run(["verify", "nc:composition", "--order", "14"]) == 0
    assert ran == [("nc:composition", 14, 2)]


def test_cli_consistency_error_exits_4(monkeypatch, capsys):
    def broken(order, rng, cross):
        raise ConsistencyError("paths disagree")

    monkeypatch.setitem(catalog.CATALOG, "pde", (broken, 8))
    assert run(["verify", "pde"]) == 4
    assert "internal error: paths disagree" in capsys.readouterr().err
    assert not issubclass(ConsistencyError, AssertionError)
    assert freeconv.ConsistencyError is functionals.ConsistencyError \
        is ConsistencyError


@pytest.mark.parametrize("fmt", ("text", "json"))
@pytest.mark.parametrize("failed,code", (
    (("identity",), 1),
    (("cross-check",), 4),
    (("identity", "cross-check"), 4),
    (("cross-check", "identity"), 4),
))
def test_cli_a_failed_cross_check_exits_4_over_a_failed_identity(
        monkeypatch, capsys, fmt, failed, code):
    """A failed cross-check exits 4, the code for two independent paths that
    disagree, whether or not an identity failed too; a failed identity alone
    exits 1.  The report names the cross-check as one."""
    def entry(order, rng, cross):
        return [catalog.Check(kind, False, "residual",
                              cross_check=kind == "cross-check")
                for kind in failed], []

    monkeypatch.setitem(catalog.CATALOG, "pde", (entry, 8))
    assert run(["verify", "pde", "--format", fmt]) == code
    out = capsys.readouterr().out
    if fmt == "json":
        checks = json.loads(out)["reports"][0]["checks"]
        assert checks == [{"label": kind, "ok": False, "residual": "residual",
                           **({"cross_check": True}
                              if kind == "cross-check" else {})}
                          for kind in failed]
    else:
        for kind in failed:
            marker = "cross-check: " if kind == "cross-check" else ""
            assert f"FAIL [pde] {marker}{kind}\n" in out


def test_verify_parser_has_one_parameter_path():
    """`verify` takes a parameter only as --param: no per-parameter flags."""
    args = build_parser().parse_args(["verify", "all"])
    assert set(vars(args)) == {"command", "fn", "name", "order", "seed",
                               "format", "param"}
    with pytest.raises(SystemExit):
        build_parser().parse_args(["verify", "free-evolution", "--beta", "1"])


@pytest.mark.parametrize("argv,named", (
    (["verify", "free-evolution", "--param", "gama=2"],
     ("gama", "beta, gamma, rho, beta0")),
    (["verify", "all", "--param", "d=0"], ("d",)),
    (["verify", "all", "--param", "gama=2"], ("gama",)),
    (["verify", "thm-b", "--param", "d=2"], ("d", "omega, rho_t")),
    (["nc", "verify", "recover-tau", "--d", "3"], ("recover-tau", "d")),
    (["verify", "nc:recover-tau", "--param", "d=1"], ("recover-tau", "d")),
    # the value as typed: a family alias is resolved only where a family
    # becomes a functional
    (["verify", "all", "--param", "d=bernoulli"],
     ("error: d must be an integer >= 1, got bernoulli\n",)),
))
def test_cli_verify_rejects_a_parameter_no_entry_takes(argv, named, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    for text in named:
        assert text in captured.err


@pytest.mark.parametrize("argv,param", (
    (["verify", "thm-b", "--param", "rho_t=1/2"], "rho_t"),
    (["verify", "free-evolution", "--param", "beta=DOC"], "beta"),
    (["verify", "free-evolution", "--param", "rho=no_such_family"], "rho"),
    (["verify", "nc:composition", "--param", "mu=1/2"], "mu"),
    (["verify", "nc:final-prop", "--param", "beta_t=1/2"], "beta_t"),
))
def test_cli_verify_parameter_of_the_wrong_kind_is_usage_error(
        argv, param, tmp_path, capsys):
    doc = write(tmp_path, "mu.json", bernoulli_doc(8))
    assert run([a.replace("DOC", doc) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"parameter {param}:" in captured.err


@pytest.mark.parametrize("argv,message", (
    (["verify", "thm-b", "--param", "p=0"], "parameter p: want NonzeroCoeff"),
    (["verify", "all", "--param", "p=0"], "no entry takes parameter p"),
    (["verify", "all", "--param", "p=0"], "p as given: thm-b wants NonzeroCoeff"),
))
def test_cli_verify_rejects_a_zero_divisor_before_any_entry_runs(
        argv, message, monkeypatch, capsys):
    """thm-b divides by p, so p = 0 is a usage error that names p, not a
    domain error from inside the entry; `verify all` names the entry that
    takes p and the class it wants."""
    ran = _record_entries(monkeypatch)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert ran == [] and captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("argv,message", (
    (["verify", "general-b", "--param", "gamma=0"],
     "parameter gamma: want NonzeroCoeff"),
    (["verify", "general-b", "--param", "c_t=0"],
     "parameter c_t: want NonzeroCoeff"),
    (["verify", "two-state-meixner", "--param", "c=0"],
     "parameter c: want NonzeroCoeff"),
    (["verify", "two-state-meixner", "--param", "t=0"],
     "parameter t: want NonzeroCoeff"),
    (["verify", "two-state-meixner", "--param", "gamma=0"],
     "parameter gamma: want NonzeroCoeff"),
    (["verify", "two-state-meixner", "--param", "c_t=1", "--param",
      "gamma=-1", "--param", "t=1"],
     "supplied parameters give degenerate Jacobi rows"),
    (["verify", "two-state-meixner", "--param", "c=1", "--param",
      "gamma=-1", "--param", "t=1"],
     "supplied parameters give degenerate Jacobi rows"),
    (["verify", "two-state-meixner", "--param", "gamma=1", "--param",
      "c=1", "--param", "c_t=2"],
     "supplied parameters give degenerate Jacobi rows"),
))
def test_cli_verify_refuses_parameters_that_break_the_entry(
        argv, message, capsys):
    """general-b divides by c~ and gamma, and two-state-meixner's displays
    need every gamma row nonzero: a zero c~, c, gamma or t is refused by
    name, and a zero row of supplied values alone is a usage error too, not
    a domain error or a reported violation."""
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("name", [*catalog.CATALOG,
                                  *(f"nc:{k}" for k in NC_CATALOG)])
def test_cli_verify_every_coefficient_parameter_at_zero(name, capsys):
    """Every coefficient parameter of both catalogs, supplied as 0, verifies
    or is a usage error that names it: exit 2 with "want NonzeroCoeff" and
    nothing on standard output, for each parameter an entry strips or
    divides by, before the entry runs.  Never a domain error or a reported
    violation; nc:recover-tau at c = 0 ends its Jacobi rows at level 1, in
    both spellings of its display."""
    for p, cls in catalog.entry_params(catalog.entry(name)[0]).items():
        if cls not in (catalog.Coeff, catalog.NonzeroCoeff):
            continue
        status = run(["verify", name, "--param", f"{p}=0"])
        captured = capsys.readouterr()
        if cls is catalog.NonzeroCoeff:
            assert (status, captured.out) == (2, ""), p
            assert f"parameter {p}: want NonzeroCoeff" in captured.err, p
        else:
            assert status == 0, (p, captured.out, captured.err)


def test_cli_bt_power_at_t_minus_one_names_the_zero_divisor(tmp_path, capsys):
    b = write(tmp_path, "b.json", bernoulli_doc(8))
    assert run(["power", "--op", "bt", "--t", "-1", b]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "domain error: B_t divides by 1 + t, which is 0" in captured.err


def test_a_wrong_kind_parameter_shared_by_two_keys_is_named_by_value(
        monkeypatch):
    value = object()

    def entry(order, rng, cross, a=None, b=None):
        catalog._functional(a, order, rng)

    monkeypatch.setitem(catalog.CATALOG, "pde", (entry, 4))
    with pytest.raises(ValueError, match="parameter a: want a moment functional"):
        catalog.verify("pde", params={"a": value, "b": 1})
    with pytest.raises(ValueError, match="parameter value <object"):
        catalog.verify("pde", params={"a": value, "b": value})


@pytest.mark.parametrize("param", ("mu=1/2", "beta=bernoulli", "gamma_t=DOC"))
def test_cli_verify_all_rejects_a_wrong_kind_parameter_before_any_entry_runs(
        param, monkeypatch, tmp_path, capsys):
    """Each entry's annotations name the classes it takes, so `verify all`
    rejects a parameter no entry takes in that class up front."""
    ran = _record_entries(monkeypatch)
    param = param.replace("DOC", write(tmp_path, "mu.json", bernoulli_doc(8)))
    assert run(["verify", "all", "--order", "16", "--param", param]) == 2
    captured = capsys.readouterr()
    assert ran == [] and captured.out == ""
    assert f"no entry takes parameter {param.split('=')[0]}" in captured.err


@pytest.mark.parametrize("argv,key", (
    (["verify", "nc:final-prop", "--param", "d=2", "--param", "d=3",
      "--order", "3"], "d"),
    (["verify", "free-evolution", "--param", "rho=bernoulli", "--param",
      "rho=semicircle"], "rho"),
    (["verify", "thm-b", "--param", "rho-t=bernoulli", "--param",
      "rho_t=semicircle"], "rho_t"),
    (["verify", "all", "--param", "d=2", "--param", "d=3"], "d"),
    (["verify", "all", "--param", "rho_t=bernoulli", "--param",
      "rho-t=semicircle"], "rho_t"),
    (["nc", "verify", "composition", "--d", "2", "--d", "40", "--order",
      "3"], "d"),
    (["nc", "verify", "all", "--d", "2", "--d", "3"], "d"),
), ids=("named-word-entry", "named-entry", "named-entry-dash", "all",
        "all-dash", "nc-verify-d", "nc-verify-all-d"))
def test_cli_verify_refuses_a_repeated_parameter(argv, key, monkeypatch,
                                                 capsys):
    """A key given twice (after - reads as _), or a repeated --d, exits 2,
    naming the key, before any entry runs: neither value silently wins."""
    ran = _record_entries(monkeypatch)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert ran == [] and captured.out == ""
    assert captured.err == f"error: parameter {key} given more than once\n"


@pytest.mark.parametrize("argv", (
    ["verify", "thm-b", "--order", "8", "--order", "10"],
    ["verify", "all", "--order", "6", "--order", "6"],
    ["nc", "verify", "composition", "--order", "3", "--order", "5"],
    ["nc", "verify", "all", "--order", "4", "--d", "2", "--order", "3"],
), ids=("verify", "verify-all", "nc-verify", "nc-verify-all"))
def test_cli_verify_refuses_a_repeated_order(argv, monkeypatch, capsys):
    """A repeated --order, equal values included, exits 2 before any entry
    runs, as a repeated --d or --param does: neither value silently wins."""
    ran = _record_entries(monkeypatch)
    with pytest.raises(SystemExit) as e:
        run(argv)
    assert e.value.code == 2
    captured = capsys.readouterr()
    assert ran == [] and captured.out == ""
    assert "argument --order: given more than once" in captured.err


DATA = Path(__file__).parent / "data"
MU, NU, TRIPLE = (str(DATA / f) for f in ("mu.json", "nu.json",
                                          "triple12.json"))


@pytest.mark.parametrize("argv", (
    ["conv", "--op", "free", "--order", "3", "--order", "5", MU, NU],
    ["conv", "--op", "free", "--op", "boolean", MU, NU],
    ["power", "--op", "free", "--t", "1/2", "--t", "formal", MU],
    ["power", "--op", "free", "--op", "bt", "--t", "1", MU],
    ["power", "--op", "free", "--t", "1", "--order", "3", "--order", "3", MU],
    ["verify", "counterexample-r", "--seed", "1", "--seed", "2"],
    ["verify", "counterexample-r", "--seed", "0", "--seed", "0"],
    ["verify", "counterexample-r", "--format", "text", "--format", "json"],
    ["nc", "verify", "composition", "--seed", "1", "--seed", "2"],
    ["nc", "verify", "all", "--format", "json", "--format", "json"],
    ["convert", "--to", "moments", "--order", "3", "--order", "4", MU],
    ["convert", "--to", "moments", "--to", "jacobi", MU],
    ["convert", "--to", "jacobi", "--levels", "1", "--levels", "2", MU],
    ["map", "--op", "phi", "--order", "3", "--order", "4", MU],
    ["map", "--op", "phi", "--op", "strip", MU],
    ["subord", "--order", "3", "--order", "4", MU, NU],
    ["semigroup", "--t", "1", "--triple", TRIPLE, "--order", "3",
     "--order", "4"],
    ["semigroup", "--t", "1", "--t", "2", "--triple", TRIPLE],
    ["semigroup", "--t", "1", "--triple", TRIPLE, "--triple", TRIPLE],
    ["semigroup", "--t", "1", "--rel", TRIPLE, "--rel", TRIPLE, "--base",
     TRIPLE],
    ["semigroup", "--t", "1", "--rel", TRIPLE, "--base", TRIPLE, "--base",
     TRIPLE],
    ["oracle", "cumulants", "--kind", "free", "--order", "3", "--order",
     "4", MU],
    ["oracle", "cumulants", "--kind", "free", "--kind", "boolean", MU],
), ids=lambda argv: "-".join(a for a in argv[:3] if a.isidentifier()))
def test_cli_refuses_every_repeated_single_valued_option(argv, monkeypatch,
                                                         capsys):
    """Every single-valued option of every command exits 2 when given twice,
    equal values and values equal to the default included, before anything
    runs: neither value silently wins."""
    ran = _record_entries(monkeypatch)
    with pytest.raises(SystemExit) as e:
        run(argv)
    assert e.value.code == 2
    captured = capsys.readouterr()
    assert ran == [] and captured.out == ""
    assert "given more than once" in captured.err


@pytest.mark.parametrize("argv,message", (
    (["convert", "--to", "jacobi", "--levels", "100", "{mu}"],
     "order 6 supports at most 3 levels"),
    (["convert", "--to", "moments", "--order", "6", "{rows}"],
     "Jacobi level 1 not available"),
    (["verify", "free-evolution", "--param", "rho={rows}"],
     "Jacobi level 1 not available"),
), ids=("levels-past-moments", "order-past-rows", "verify-order-past-rows"))
def test_cli_input_too_short_for_the_request_exits_2(argv, message, tmp_path,
                                                     capsys):
    """Moments too few for the Jacobi levels asked, or Jacobi rows too few
    for the order asked, exit 2 with nothing on stdout, as a moments
    document too short for its order does: the input does not serve the
    request, and no operation left its domain."""
    rows = write(tmp_path, "rows.json",
                 docs.encode_jacobi(JacobiParams((F(0),), (F(1),))))
    mu = str(Path(__file__).parent / "data" / "mu.json")  # order 6
    assert run([a.format(mu=mu, rows=rows) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_cli_verify_takes_a_jacobi_document_as_a_functional(monkeypatch,
                                                           tmp_path, capsys):
    """A Jacobi document for rho runs as the moments of its rows: the
    semicircle's rows give free-evolution the report of the family name."""
    rows = JacobiParams((), (), repeat=(F(0), F(1)))
    path = write(tmp_path, "semicircle.json", docs.encode_jacobi(rows))
    seen = []

    def spy(jp, order):
        seen.append(jp.repeat)
        return moments_from_jacobi(jp, order)

    monkeypatch.setattr(catalog, "moments_from_jacobi", spy)
    outs = []
    for rho in (path, "semicircle"):
        assert run(["verify", "free-evolution", "--param", f"rho={rho}",
                    "--format", "json"]) == 0
        outs.append(capsys.readouterr().out)
    assert seen == [(F(0), F(1))]
    assert outs[0] == outs[1] and json.loads(outs[0])["verified"]


def test_every_entry_parameter_is_annotated_with_what_it_accepts():
    for entries in (catalog.CATALOG, NC_CATALOG):
        for name, (fn, _) in entries.items():
            for key, cls in catalog.entry_params(fn).items():
                assert cls is not object or key == "d", (name, key)


@pytest.mark.parametrize("argv", (
    ["verify", "no-such-entry"],
    ["verify", "nc:nope"],
    ["nc", "verify", "nope"],
))
def test_cli_verify_unknown_entry_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as e:
        run(argv)
    assert e.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert argv[-1] in captured.err


def test_cli_verify_several_entries_note_a_parameter_one_does_not_take(
        capsys):
    assert run(["nc", "verify", "all", "--d", "2", "--order", "4",
                "--format", "json"]) == 0
    reports = json.loads(capsys.readouterr().out)["reports"]
    noted = {r["name"] for r in reports
             if any("run without d" in note for note in r["notes"])}
    assert noted == {"nc:recover-tau"}


@pytest.mark.parametrize("param,word_entry", (
    ("beta_t=1/2", "nc:final-prop"),  # a list of d rationals there
    ("mu=bernoulli", "nc:composition"),  # a word functional there
))
def test_cli_verify_all_passes_no_entry_a_parameter_of_another_class(
        param, word_entry, capsys):
    assert run(["verify", "all", "--param", param, "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verified"]
    key = param.split("=")[0]
    taken = {r["name"] for r in out["reports"]
             if not any(f"run without {key}" in n for n in r["notes"])}
    assert word_entry not in taken
    assert any(not name.startswith("nc:") for name in taken)


@pytest.mark.parametrize("argv", (
    ["verify", "bt-semigroup", "--format", "json"],
    ["verify", "pde", "--format", "json", "--order", "4"],
    ["verify", "nc:composition", "--format", "json", "--order", "3"],
    ["verify", "thm-b", "--order", "3", "--seed", "5"],
    ["nc", "verify", "final-prop", "--d", "2", "--order", "3", "--seed", "5"],
))
def test_cli_forms_the_benchmark_runs(argv, capsys):
    """The command lines perfbench/workloads.py and perfbench/baseline.py
    pass to the CLI."""
    assert run(argv) == 0
    out = capsys.readouterr().out
    if "json" in argv:
        assert json.loads(out)["verified"] is True
    else:
        assert "FAIL" not in out and "checks verified" in out
