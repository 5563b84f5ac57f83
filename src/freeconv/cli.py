"""Command-line verification harness.

Exit codes: 0 success / identity verified, 1 identity violated (residual
printed), 2 usage or parse error (an order outside a verify entry's range
included), 3 domain error (zero-variance strip, non-invertible series, and
friends), 4 internal consistency failure (two independent paths disagreed).
"""

from __future__ import annotations

import argparse
import sys

from . import docs
from .coeffs import ExactDivisionError, formal_t
from .convolutions import (
    boolean_convolve,
    boolean_power,
    free_convolve,
    free_power,
    monotone_convolve,
    two_state_convolve,
    two_state_power,
)
from .docs import DocumentError
from .evolution import (
    CATALOG,
    belinschi_nica,
    bercovici_pata,
    bercovici_pata_inverse,
    class_names,
    entry_params,
    phi_map,
    phi_two,
    strip,
    subordination,
    subordination_inverse,
    triple_from_semigroup,
    two_state_semigroup,
    maassen_semigroup,
    verify,
    verify_order,
)
from .functionals import (
    CanonicalTriple,
    ConsistencyError,
    JacobiDepthError,
    MomentFunctional,
    NoJacobiRepresentationError,
    TwoStatePair,
    ZeroVarianceError,
    jacobi_from_moments,
)
from .multivariate import (
    MAX_NC_D,
    MAX_NC_ORDER,
    NC_CATALOG,
    nc_verify,
    nc_verify_order,
)
from .oracle import (
    boolean_cumulants_oracle,
    enumerate_interval,
    enumerate_nc,
    free_cumulants_oracle,
)
from .series import CompositionDomainError, NotInvertibleError

DOMAIN_ERRORS = (ZeroVarianceError, NoJacobiRepresentationError,
                 JacobiDepthError, NotInvertibleError, CompositionDomainError,
                 ExactDivisionError, ZeroDivisionError)

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_INTERNAL = 4


def _parse_t(text):
    if text == "formal":
        return formal_t()
    try:
        return docs.decode_rational(text)
    except DocumentError:
        raise DocumentError(
            f"bad --t value {text!r} (want p/q or 'formal')") from None


DEFAULT_ORDER = 10


def _coerce_functional(value, order):
    """To a MomentFunctional; ``order=None`` keeps the document's own.

    Jacobi documents without an ``order`` field fall back to the default.
    """
    if order is None and not isinstance(value, MomentFunctional):
        order = DEFAULT_ORDER
    return docs.as_functional(value, order)


def _load_raw(path):
    """The decoded document at ``path`` and its ``order`` field (or None)."""
    doc = docs.load(path)
    return docs.decode(doc), doc.get("order")


def _load_functional(path, order):
    value, own = _load_raw(path)
    return _coerce_functional(value, own if order is None else order)


def _emit(doc):
    sys.stdout.write(docs.dumps(doc))


def _emit_functional(mf):
    _emit(docs.encode_functional(mf))


# -- subcommand handlers -------------------------------------------------------


def _cmd_convert(args):
    mf = _load_functional(args.file, args.order)
    if args.to == "moments":
        _emit_functional(mf)
    else:
        levels = args.levels if args.levels is not None else mf.order // 2
        _emit(docs.encode_jacobi(jacobi_from_moments(mf, levels)))
    return EXIT_OK


def _cmd_conv(args):
    if args.op == "two-state":
        (a, _), (b, _) = _load_raw(args.a), _load_raw(args.b)
        if not (isinstance(a, TwoStatePair) and isinstance(b, TwoStatePair)):
            raise DocumentError("two-state convolution needs pair documents")
        _emit(docs.encode_pair(two_state_convolve(a, b)))
        return EXIT_OK
    a = _load_functional(args.a, args.order)
    b = _load_functional(args.b, args.order)
    op = {"free": free_convolve, "boolean": boolean_convolve,
          "monotone": monotone_convolve}[args.op]
    _emit_functional(op(a, b))
    return EXIT_OK


def _cmd_power(args):
    t = _parse_t(args.t)
    if args.op == "two-state":
        pair, _ = _load_raw(args.file)
        if not isinstance(pair, TwoStatePair):
            raise DocumentError("two-state power needs a pair document")
        _emit(docs.encode_pair(two_state_power(pair, t)))
        return EXIT_OK
    mf = _load_functional(args.file, args.order)
    op = {"free": free_power, "boolean": boolean_power, "bt": belinschi_nica}
    _emit_functional(op[args.op](mf, t))
    return EXIT_OK


def _cmd_map(args):
    mf = _load_functional(args.file, args.order)
    if args.op == "triple":
        _emit(docs.encode_triple(triple_from_semigroup(mf)))
        return EXIT_OK
    op = {"phi": phi_map, "strip": strip, "bp": bercovici_pata,
          "bp-inv": bercovici_pata_inverse}
    _emit_functional(op[args.op](mf))
    return EXIT_OK


def _cmd_subord(args):
    mu = _load_functional(args.mu, args.order)
    nu = _load_functional(args.nu, args.order)
    if args.inverse:
        out = subordination_inverse(mu, nu)
    elif args.phi2:
        out = phi_two(mu, nu)
    else:
        out = subordination(mu, nu)
    _emit_functional(out)
    return EXIT_OK


def _cmd_semigroup(args):
    t = _parse_t(args.t)

    def load_triple(path):
        value, own = _load_raw(path)
        if not isinstance(value, CanonicalTriple):
            raise DocumentError(f"{path}: expected a triple document")
        return value, own

    if args.triple is not None:
        triple, own = load_triple(args.triple)
        order = own if args.order is None else args.order
        _emit_functional(maassen_semigroup(triple, t, order))
        return EXIT_OK
    if args.rel is None or args.base is None:
        raise DocumentError("need either --triple, or both --rel and --base")
    rel, own_rel = load_triple(args.rel)
    base, own_base = load_triple(args.base)
    order = args.order
    if order is None:  # the smaller of the documents' own orders, if any
        order = min((o for o in (own_rel, own_base) if o is not None),
                    default=None)
    _emit(docs.encode_pair(two_state_semigroup(rel, base, t, order)))
    return EXIT_OK


def _print_report(rep):
    for c in rep.checks:
        line = f"{'ok  ' if c.ok else 'FAIL'} [{rep.name}] {c.label}"
        sys.stdout.write(line + "\n")
        if not c.ok and c.detail:
            sys.stdout.write(f"     residual: {c.detail}\n")
    for note in rep.notes:
        sys.stdout.write(f"note [{rep.name}] {note}\n")


def _report_doc(rep):
    return {"name": rep.name, "order": rep.order,
            "verified": rep.verified,
            "checks": [{"label": c.label, "ok": c.ok,
                        **({"residual": c.detail} if not c.ok and c.detail
                           else {})}
                       for c in rep.checks],
            "notes": list(rep.notes)}


FAMILY_ALIASES = {"bernoulli": "bernoulli_sym", "semicircle": "semicircular"}


def _parse_param(text):
    """KEY=VALUE: a JSON document path, a rational or a family name."""
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"expected key=value, got {text!r}")
    key, value = text.split("=", 1)
    if value.endswith(".json") or value.startswith("@"):
        try:
            value = docs.decode(docs.load(value.removeprefix("@")))
        except DocumentError as e:
            raise argparse.ArgumentTypeError(f"{text}: {e}") from None
    else:
        try:
            value = docs.decode_rational(value)
        except DocumentError:
            value = FAMILY_ALIASES.get(value, value)  # family name
    return key.replace("-", "_"), value


def _verify_entries(args, runs, params):
    """Run and print the (name, order) pairs ``runs``, ``nc:`` on the word
    layer; the exit code.  One entry must take every parameter; each of several
    gets those it takes, by name and class, and each must go to some entry."""
    planned = []
    refused = {}  # parameter -> the first entry to refuse its class, and why
    for run_name, order in runs:
        fn, order_of, catalog = ((nc_verify, nc_verify_order, NC_CATALOG)
                                 if run_name.startswith("nc:")
                                 else (verify, verify_order, CATALOG))
        name = run_name.removeprefix("nc:")
        own = params
        if len(runs) > 1:  # the names of several come from the catalogs
            takes = entry_params(catalog[name][0])
            own = {k: v for k, v in params.items()
                   if k in takes and isinstance(v, takes[k])}
            for k in takes.keys() & params.keys() - own.keys():
                refused.setdefault(
                    k, f" as given: {run_name} wants {class_names(takes[k])}")
        order_of(name, order, own)
        planned.append((fn, name, order, own))
    unused = set(params).difference(*(own for *_, own in planned))
    if unused:
        raise ValueError("; ".join(f"no entry takes parameter {k}"
                                   f"{refused.get(k, '')}"
                                   for k in sorted(unused)))
    reports = []
    for fn, name, order, own in planned:
        rep = fn(name, params=own, order=order, seed=args.seed)
        if args.order is not None and rep.order != args.order:
            rep.notes.append(f"run at order {rep.order}, the word layer's cap "
                             f"MAX_NC_ORDER, not at {args.order}")
        skipped = [k for k in params if k not in own]
        if skipped:
            rep.notes.append(f"run without {', '.join(skipped)}, which this "
                             f"entry does not take as given")
        reports.append(rep)
    if args.format == "json":
        _emit({"reports": [_report_doc(r) for r in reports],
               "verified": all(r.verified for r in reports)})
    else:
        for rep in reports:
            _print_report(rep)
        total = sum(len(r.checks) for r in reports)
        ok = sum(c.ok for r in reports for c in r.checks)
        sys.stdout.write(f"{ok}/{total} checks verified across "
                         f"{len(reports)} identities\n")
    return EXIT_OK if all(r.verified for r in reports) else EXIT_VIOLATED


def _cmd_verify(args):
    params = dict(args.param or [])
    if args.name != "all":
        return _verify_entries(args, [(args.name, args.order)], params)
    # `verify all` runs the word-layer entries at most at their cap
    nc_order = None if args.order is None else min(args.order, MAX_NC_ORDER)
    return _verify_entries(
        args, [(name, args.order) for name in CATALOG]
        + [(f"nc:{name}", nc_order) for name in NC_CATALOG], params)


def _cmd_nc(args):
    names = list(NC_CATALOG) if args.name == "all" else [args.name]
    return _verify_entries(args, [(f"nc:{name}", args.order) for name in names],
                           {} if args.d is None else {"d": args.d})


def _cmd_oracle(args):
    if args.what == "count":
        n = args.n
        parts = enumerate_nc(n) if args.kind == "nc" else enumerate_interval(n)
        _emit({"kind": args.kind, "n": n, "count": len(parts)})
        return EXIT_OK
    mf = _load_functional(args.file, args.order)
    fn = free_cumulants_oracle if args.kind == "free" \
        else boolean_cumulants_oracle
    _emit({"kind": args.kind, "order": mf.order,
           "cumulants": docs.encode_coeffs(fn(mf))})
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="freeconv",
        description="Exact moment-series calculus for free, Boolean, monotone "
                    "and two-state free convolutions, with machine-checked "
                    "identities.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--order", type=int, default=None,
                       help="truncation order (default: the document's own; "
                            "10 where one is required)")

    def run_options(p, fn):  # verify and nc verify
        p.add_argument("--order", type=int, default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(fn=fn)

    p = sub.add_parser("convert", help="convert between representations")
    p.add_argument("--to", choices=("moments", "jacobi"), required=True)
    p.add_argument("--levels", type=int, default=None,
                   help="Jacobi rows to extract (default order//2)")
    common(p)
    p.add_argument("file")
    p.set_defaults(fn=_cmd_convert)

    p = sub.add_parser("conv", help="convolve two functionals")
    p.add_argument("--op", choices=("free", "boolean", "monotone", "two-state"),
                   required=True)
    common(p)
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=_cmd_conv)

    p = sub.add_parser("power", help="convolution powers (rational or formal t)")
    p.add_argument("--op", choices=("free", "boolean", "two-state", "bt"),
                   required=True)
    p.add_argument("--t", required=True, help="p/q or 'formal'")
    common(p)
    p.add_argument("file")
    p.set_defaults(fn=_cmd_power)

    p = sub.add_parser("map", help="apply Phi, J, B, B^-1 or triple extraction")
    p.add_argument("--op", choices=("phi", "strip", "bp", "bp-inv", "triple"),
                   required=True)
    common(p)
    p.add_argument("file")
    p.set_defaults(fn=_cmd_map)

    p = sub.add_parser("subord", help="subordination distribution mu |> nu")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--inverse", action="store_true",
                       help="solve mu |> nu = lambda for mu (first file is lambda)")
    group.add_argument("--phi2", action="store_true",
                       help="Phi[mu, nu] = B^-1[mu |> nu]")
    common(p)
    p.add_argument("mu")
    p.add_argument("nu")
    p.set_defaults(fn=_cmd_subord)

    p = sub.add_parser("semigroup",
                       help="build semigroup elements from canonical triples")
    p.add_argument("--t", required=True, help="p/q or 'formal'")
    p.add_argument("--triple", help="triple document (single-state)")
    p.add_argument("--rel", help="relative triple document (two-state)")
    p.add_argument("--base", help="base triple document (two-state)")
    p.add_argument("--order", type=int, default=None)
    p.set_defaults(fn=_cmd_semigroup)

    p = sub.add_parser("verify", help="machine-check catalog identities")
    p.add_argument("name", help="catalog entry or 'all'",
                   choices=sorted(CATALOG) + [f"nc:{n}" for n in NC_CATALOG]
                   + ["all"])
    run_options(p, _cmd_verify)
    p.add_argument("--param", action="append", type=_parse_param,
                   metavar="KEY=VALUE",
                   help="set a parameter the entry takes (rational, family "
                        "name, or JSON document path); the entry draws the "
                        "others from --seed")

    p = sub.add_parser("nc", help="multivariate (word-series) identities")
    ncsub = p.add_subparsers(dest="nc_command", required=True)
    q = ncsub.add_parser("verify")
    q.add_argument("name", choices=sorted(NC_CATALOG) + ["all"])
    q.add_argument("--d", type=int, default=None,
                   help=f"alphabet size, 1..{MAX_NC_D} (default 2)")
    run_options(q, _cmd_nc)

    p = sub.add_parser("oracle", help="partition-enumeration cross-checks")
    osub = p.add_subparsers(dest="what", required=True)
    q = osub.add_parser("count")
    q.add_argument("kind", choices=("nc", "interval"))
    q.add_argument("n", type=int)
    q.set_defaults(fn=_cmd_oracle)
    q = osub.add_parser("cumulants")
    q.add_argument("--kind", choices=("free", "boolean"), required=True)
    common(q)
    q.add_argument("file")
    q.set_defaults(fn=_cmd_oracle)

    return parser


def run(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except DocumentError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_USAGE
    except DOMAIN_ERRORS as e:
        sys.stderr.write(f"domain error: {e}\n")
        return EXIT_DOMAIN
    except ConsistencyError as e:
        sys.stderr.write(f"internal error: {e}\n")
        return EXIT_INTERNAL
    except ValueError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_USAGE


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
