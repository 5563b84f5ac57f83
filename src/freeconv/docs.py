"""Lossless JSON documents for functionals, pairs, Jacobi rows and triples.

Rationals are strings "p/q" in lowest terms ("/q" omitted when q = 1), and
only that form is read back: an optional "-", ASCII digits, and optionally
"/" and ASCII digits.  Polynomial-in-t coefficients are arrays of such
strings by ascending t-degree.  Each document prints in one ring: if any of
its coefficients is a polynomial in t, every coefficient prints as an array
(a rational as a constant one), otherwise every coefficient prints as a
rational.  Unknown fields, and fields of the wrong JSON type, are rejected.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .coeffs import TPoly, _polys, all_digits
from .functionals import (
    CanonicalTriple,
    FAMILIES,
    JacobiParams,
    MomentFunctional,
    TwoStatePair,
    family,
    moments_from_jacobi,
)


class DocumentError(ValueError):
    """Malformed or unknown-field functional document."""


# The highest truncation order a document may request, so that an untrusted
# document cannot ask for unbounded work.
MAX_ORDER = 64


def _order(doc, required=True):
    """The document's ``order`` field, or None when optional and absent.

    Raises DocumentError unless it is an integer in 1..MAX_ORDER.
    """
    if not required and "order" not in doc:
        return None
    n = doc["order"]
    if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= MAX_ORDER:
        raise DocumentError(
            f"order must be an integer in 1..{MAX_ORDER}, got {n!r}")
    return n


# The only rational form a document may use.  Fraction() alone would also
# take decimals and exponents, and parsing "1e99999999" runs for minutes.
# Left to re's cache, so that importing the CLI compiles no pattern.
_RATIONAL = r"-?[0-9]+(?:/[0-9]+)?"

_JSON_TYPES = {list: "an array", dict: "an object", str: "a string",
               bool: "a boolean"}


def _typed(doc, key, kind):
    """``doc[key]``, which must have decoded to the Python type ``kind``."""
    v = doc[key]
    if not isinstance(v, kind):
        raise DocumentError(f"{key} must be {_JSON_TYPES[kind]}, got {v!r}")
    return v


def encode_rational(x):
    x = Fraction(x)
    with all_digits():
        return (str(x.numerator) if x.denominator == 1
                else f"{x.numerator}/{x.denominator}")


def decode_rational(s):
    if not isinstance(s, str):
        raise DocumentError(f"rational must be a string, got {s!r}")
    if not re.fullmatch(_RATIONAL, s):
        raise DocumentError(f"bad rational {s!r}: want an integer or p/q")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as e:
        raise DocumentError(f"bad rational {s!r}: {e}") from None


def encode_coeff(c, poly=None):
    """A rational string, or an array of them when ``poly`` (by default, when
    c is a TPoly)."""
    if poly is None:
        poly = isinstance(c, TPoly)
    if not poly:
        return encode_rational(c)
    cs = c.coeffs if isinstance(c, TPoly) else (c,)
    return [encode_rational(x) for x in cs] or ["0"]


def encode_coeffs(cs, poly=None):
    """The coefficients cs in one ring, Q[t] when ``poly`` (by default, when
    any of them is a TPoly)."""
    if poly is None:
        poly = _polys(cs)
    return [encode_coeff(c, poly) for c in cs]


def decode_coeff(v):
    if isinstance(v, list):
        return TPoly([decode_rational(x) for x in v])
    return decode_rational(v)


def _expect_fields(doc, required, optional=()):
    keys = set(doc)
    missing = set(required) - keys
    if missing:
        raise DocumentError(f"missing fields {sorted(missing)}")
    unknown = keys - set(required) - set(optional)
    if unknown:
        raise DocumentError(f"unknown fields {sorted(unknown)}")


def encode_functional(mf, poly=None):
    return {"type": "moments", "order": mf.order,
            "moments": encode_coeffs(mf.moments(), poly)}


def encode_jacobi(jp):
    poly = _polys(jp.betas + jp.gammas + (jp.repeat or ()))
    doc = {"type": "jacobi",
           "betas": encode_coeffs(jp.betas, poly),
           "gammas": encode_coeffs(jp.gammas, poly),
           "terminated": jp.terminated}
    if jp.repeat is not None:
        doc["repeat"] = {"beta": encode_coeff(jp.repeat[0], poly),
                         "gamma": encode_coeff(jp.repeat[1], poly)}
    return doc


def encode_pair(pair):
    poly = _polys(pair.tilde.moments() + pair.base.moments())
    return {"type": "pair", "order": pair.order,
            "tilde": encode_functional(pair.tilde, poly),
            "base": encode_functional(pair.base, poly)}


def encode_triple(triple):
    rho = triple.rho
    poly = _polys((triple.beta, triple.gamma)
                  + (() if rho is None else rho.moments()))
    return {"type": "triple",
            "beta": encode_coeff(triple.beta, poly),
            "gamma": encode_coeff(triple.gamma, poly),
            "rho": None if rho is None else encode_functional(rho, poly)}


def decode(doc):
    """Decode any functional document into its library value.

    The optional ``order`` of a jacobi or triple document is validated here
    but is no part of the value; a caller that needs it reads the field (the
    CLI uses it when ``--order`` is absent).
    """
    if not isinstance(doc, dict) or "type" not in doc:
        raise DocumentError("document must be an object with a 'type' field")
    kind = doc["type"]
    if kind == "moments":
        _expect_fields(doc, ("type", "order", "moments"))
        n = _order(doc)
        ms = _typed(doc, "moments", list)
        if len(ms) != n:
            raise DocumentError(f"expected {n} moments")
        return MomentFunctional(n, [decode_coeff(m) for m in ms])
    if kind == "jacobi":
        _expect_fields(doc, ("type", "betas", "gammas", "terminated"),
                       ("repeat", "order"))
        _order(doc, required=False)
        repeat = None
        if "repeat" in doc:
            tail = _typed(doc, "repeat", dict)
            _expect_fields(tail, ("beta", "gamma"))
            repeat = (decode_coeff(tail["beta"]), decode_coeff(tail["gamma"]))
        try:
            return JacobiParams(
                [decode_coeff(b) for b in _typed(doc, "betas", list)],
                [decode_coeff(g) for g in _typed(doc, "gammas", list)],
                terminated=_typed(doc, "terminated", bool), repeat=repeat)
        except ValueError as e:
            raise DocumentError(str(e)) from None
    if kind == "family":
        _expect_fields(doc, ("type", "name", "order"), ("params",))
        n = _order(doc)
        name = _typed(doc, "name", str)
        if name not in FAMILIES:
            raise DocumentError(f"unknown family {name!r}")
        params = _typed(doc, "params", dict) if "params" in doc else {}
        params = {k: decode_rational(v) for k, v in params.items()}
        try:
            return family(name, params, n)
        except ValueError as e:
            raise DocumentError(str(e)) from None
    if kind == "pair":
        _expect_fields(doc, ("type", "order", "tilde", "base"))
        n = _order(doc)
        tilde = decode(doc["tilde"])
        base = decode(doc["base"])
        return TwoStatePair(as_functional(tilde, n), as_functional(base, n))
    if kind == "triple":
        _expect_fields(doc, ("type", "beta", "gamma", "rho"), ("order",))
        _order(doc, required=False)
        rho = doc["rho"]
        rho_val = None
        if rho is not None:
            rho_val = as_functional(decode(rho), None)
        try:
            return CanonicalTriple(decode_coeff(doc["beta"]),
                                   decode_coeff(doc["gamma"]), rho_val)
        except ValueError as e:
            raise DocumentError(str(e)) from None
    raise DocumentError(f"unknown document type {kind!r}")


def as_functional(value, order):
    """Coerce a decoded document to a MomentFunctional at the given order."""
    if isinstance(value, MomentFunctional):
        if order is None:
            return value
        if value.order < order:
            raise DocumentError(
                f"functional of order {value.order} cannot serve order {order}")
        return value.truncate(order)
    if isinstance(value, JacobiParams):
        if order is None:
            raise DocumentError("a jacobi document needs an order to convert")
        return moments_from_jacobi(value, order)
    raise DocumentError(f"expected a functional, got {type(value).__name__}")


def load(path_or_fp):
    """The JSON value in a file, given by path or as an open file.

    Raises DocumentError when the file cannot be read or is not JSON.
    """
    try:
        if hasattr(path_or_fp, "read"):
            raw = path_or_fp.read()
        else:
            with open(path_or_fp, "r", encoding="utf-8") as fp:
                raw = fp.read()
    except OSError as e:
        raise DocumentError(
            f"cannot read {path_or_fp}: {e.strerror or e}") from None
    try:
        return json.loads(raw)
    except json.JSONDecodeError as e:
        raise DocumentError(f"invalid JSON: {e}") from None
    except RecursionError:
        raise DocumentError("invalid JSON: nested too deeply") from None


def dumps(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
