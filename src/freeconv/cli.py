"""Command-line verification harness.

It parses, prints and picks the exit code; ``catalog.verify_runs`` plans
and checks a verify run.  Exit codes: 0 success / identity verified, 1
identity violated (residual printed), 2 usage or parse error (an order
outside a verify entry's range included), 3 domain error (zero-variance
strip, non-invertible series, and friends), 4 internal consistency failure
(two independent paths disagreed: a verify cross-check failed, which
outranks a violated identity).
"""

from __future__ import annotations

import argparse
import sys

from . import docs
from .catalog import CATALOG, NC_CATALOG, verify_runs
from .catalog import FAMILY_ALIASES  # noqa: F401 (still importable here)
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
    belinschi_nica,
    bercovici_pata,
    bercovici_pata_inverse,
    phi_map,
    phi_two,
    strip,
    subordination,
    subordination_inverse,
    triple_from_semigroup,
    two_state_semigroup,
    maassen_semigroup,
)
from .functionals import (
    CanonicalTriple,
    ConsistencyError,
    MomentFunctional,
    NoJacobiRepresentationError,
    TwoStatePair,
    ZeroVarianceError,
    jacobi_from_moments,
)
from .oracle import (
    boolean_cumulants_oracle,
    count_partitions,
    free_cumulants_oracle,
)
from .series import CompositionDomainError, NotInvertibleError

DOMAIN_ERRORS = (ZeroVarianceError, NoJacobiRepresentationError,
                 NotInvertibleError, CompositionDomainError,
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


def _load_pair(path, order):
    """The pair document at ``path``, both parts truncated to ``order``
    (None keeps the pair's own); a higher order is refused, as
    ``docs.as_functional`` refuses one for a functional."""
    pair, _ = _load_raw(path)
    if not isinstance(pair, TwoStatePair):
        raise DocumentError(f"{path}: expected a pair document")
    if order is None:
        return pair
    if pair.order < order:
        raise DocumentError(
            f"pair of order {pair.order} cannot serve order {order}")
    return TwoStatePair(pair.tilde.truncate(order), pair.base.truncate(order))


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
        a, b = _load_pair(args.a, args.order), _load_pair(args.b, args.order)
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
        pair = _load_pair(args.file, args.order)
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
        line = (f"{'ok  ' if c.ok else 'FAIL'} [{rep.name}] "
                f"{'cross-check: ' if c.cross_check else ''}{c.label}")
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
                           else {}),
                        **({"cross_check": True} if c.cross_check else {})}
                       for c in rep.checks],
            "notes": list(rep.notes)}


def _parse_param(text):
    """KEY=VALUE: a JSON document path, a rational (an integer or p/q) or a
    family name; a number in any other form is refused."""
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
        except DocumentError as e:
            try:
                float(value)
            except ValueError:
                pass  # a family name, its alias resolved by the entry
            else:  # a number, in a form such as 2.5 or 1e3 that is refused
                raise argparse.ArgumentTypeError(
                    f"parameter {key}: {e}") from None
    return key.replace("-", "_"), value


def _verify_entries(args, names, params):
    """Run the verify entries ``names`` (catalog.verify_runs), ``nc:`` on the
    word layer, and print their reports; the exit code."""
    reports = verify_runs(names, params, args.order, args.seed)
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
    failed = [c for r in reports for c in r.checks if not c.ok]
    if any(c.cross_check for c in failed):
        return EXIT_INTERNAL
    return EXIT_VIOLATED if failed else EXIT_OK


def _params(pairs):
    """The dict of the (key, value) pairs; a key given twice is refused, so
    that neither value silently wins."""
    params = {}
    for key, value in pairs:
        if key in params:
            raise ValueError(f"parameter {key} given more than once")
        params[key] = value
    return params


def _cmd_verify(args):
    names = [args.name] if args.name != "all" else [
        *CATALOG, *(f"nc:{name}" for name in NC_CATALOG)]
    return _verify_entries(args, names, _params(args.param or []))


def _cmd_nc(args):
    params = _params(("d", d) for d in args.d or [])
    names = NC_CATALOG if args.name == "all" else [args.name]
    return _verify_entries(args, [f"nc:{name}" for name in names], params)


def _cmd_oracle(args):
    if args.what == "count":
        _emit({"kind": args.kind, "n": args.n,
               "count": count_partitions(args.kind, args.n)})
        return EXIT_OK
    mf = _load_functional(args.file, args.order)
    fn = free_cumulants_oracle if args.kind == "free" \
        else boolean_cumulants_oracle
    _emit({"kind": args.kind, "order": mf.order,
           "cumulants": docs.encode_coeffs(fn(mf))})
    return EXIT_OK


class _Once(argparse.Action):
    """Store an option's value, and refuse a second one, so that neither
    value silently wins.  The options seen so far are marked on the
    namespace, since a default (--seed 0, --format text) is no sign that an
    option is absent."""

    def __call__(self, parser, namespace, values, option_string=None):
        seen = vars(namespace).setdefault("_given", set())
        if self.dest in seen:
            raise argparse.ArgumentError(self, "given more than once")
        seen.add(self.dest)
        setattr(namespace, self.dest, values)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="freeconv",
        description="Exact moment-series calculus for free, Boolean, monotone "
                    "and two-state free convolutions, with machine-checked "
                    "identities.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--order", type=int, default=None, action=_Once,
                       help="truncation order (default: the document's own; "
                            "10 where one is required)")

    def run_options(p, fn):  # verify and nc verify
        p.add_argument("--order", type=int, default=None, action=_Once)
        p.add_argument("--seed", type=int, default=0, action=_Once)
        p.add_argument("--format", choices=("text", "json"), default="text",
                       action=_Once)
        p.set_defaults(fn=fn)

    p = sub.add_parser("convert", help="convert between representations")
    p.add_argument("--to", choices=("moments", "jacobi"), required=True,
                   action=_Once)
    p.add_argument("--levels", type=int, default=None, action=_Once,
                   help="Jacobi rows to extract (default order//2)")
    common(p)
    p.add_argument("file")
    p.set_defaults(fn=_cmd_convert)

    p = sub.add_parser("conv", help="convolve two functionals")
    p.add_argument("--op", choices=("free", "boolean", "monotone", "two-state"),
                   required=True, action=_Once)
    common(p)
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=_cmd_conv)

    p = sub.add_parser("power", help="convolution powers (rational or formal t)")
    p.add_argument("--op", choices=("free", "boolean", "two-state", "bt"),
                   required=True, action=_Once)
    p.add_argument("--t", required=True, action=_Once,
                   help="p/q or 'formal'")
    common(p)
    p.add_argument("file")
    p.set_defaults(fn=_cmd_power)

    p = sub.add_parser("map", help="apply Phi, J, B, B^-1 or triple extraction")
    p.add_argument("--op", choices=("phi", "strip", "bp", "bp-inv", "triple"),
                   required=True, action=_Once)
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
    p.add_argument("--t", required=True, action=_Once,
                   help="p/q or 'formal'")
    p.add_argument("--triple", action=_Once,
                   help="triple document (single-state)")
    p.add_argument("--rel", action=_Once,
                   help="relative triple document (two-state)")
    p.add_argument("--base", action=_Once,
                   help="base triple document (two-state)")
    p.add_argument("--order", type=int, default=None, action=_Once)
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
    q.add_argument("--d", type=int, action="append",
                   help="alphabet size (default 2); with the order, at most "
                        "the words and n^2 d^n work of d = 4 at order 8 "
                        "(catalog.nc_max_order), to which a default "
                        "order, or the --order of 'all', is lowered")
    run_options(q, _cmd_nc)

    p = sub.add_parser("oracle", help="partition-enumeration cross-checks")
    osub = p.add_subparsers(dest="what", required=True)
    q = osub.add_parser("count")
    q.add_argument("kind", choices=("nc", "interval"))
    q.add_argument("n", type=int)
    q.set_defaults(fn=_cmd_oracle)
    q = osub.add_parser("cumulants")
    q.add_argument("--kind", choices=("free", "boolean"), required=True,
                   action=_Once)
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
