"""Command-line entry point.

The argparse parser is the one registry of commands: each subcommand names
its handler, which reads the parsed namespace.  Exit codes: 0 success,
1 usage error, 2 verification failure, 3 internal error.  Output is
deterministic for a fixed configuration.  Every command runs in one
process: --jobs N (N >= 1) is accepted and ignored.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_INTERNAL = 3

# sphere-fields caps, checked before anything is built: --n 3968 with 100
# points, the largest run they allow, takes about 5 s and 85 MB
SPHERE_MAX_N = 4096
SPHERE_MAX_POINTS = 100

_CANONICAL_NAMES = {
    "omegaL": "OmegaL",
    "spin7": "Spin7Delta",
    "spin8": "Spin8",
    "spin9": "Spin9",
}

_LIEALG_CHECKS = ("span", "bracket", "commutant", "normalizer", "decomposition")


class UsageError(Exception):
    pass


class VerificationFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; we use 1
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cliffsys", description=__doc__)
    parser.add_argument("--out", help="write output to this path instead of stdout")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="accepted and ignored (N >= 1); every command runs in one process",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen", help="emit a Clifford system")
    p.add_argument("--m", type=int, required=True)
    which = p.add_mutually_exclusive_group()  # a tilde system is of the minus class
    which.add_argument("--class", dest="cls", choices=("plus", "minus"))
    which.add_argument("--tilde", action="store_true")
    p.set_defaults(run=_cmd_gen)

    p = sub.add_parser("verify", help="verify a system from its JSON form")
    p.add_argument("--in", dest="path", required=True)
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("rep", help="emit the skew representation matrices")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(run=_cmd_rep)

    p = sub.add_parser("form", help="emit an invariant form or a tau computation")
    p.add_argument("--name", choices=_CANONICAL_NAMES)
    p.add_argument("--tau", type=int)
    p.add_argument("--psi", choices=("A", "B", "C"))
    p.set_defaults(run=_cmd_form)

    p = sub.add_parser("liealg", help="span/bracket/stabilizer report for a system")
    p.add_argument("--system", required=True, metavar="C<m>")
    p.add_argument("--check", default="span,bracket")
    p.set_defaults(run=_cmd_liealg)

    p = sub.add_parser("evencliff", help="rank-10 structure data and classification")
    p.add_argument("--rank", type=int)
    what = p.add_mutually_exclusive_group(required=True)
    what.add_argument("--emit", choices=("psiD", "tau4"))
    what.add_argument("--classify", type=int)
    p.set_defaults(run=_cmd_evencliff)

    p = sub.add_parser("sphere-fields", help="maximal tangent fields on S^{n-1}")
    p.add_argument("--n", type=int, required=True, help=f"at most {SPHERE_MAX_N}")
    p.add_argument("--points", type=int, default=25, help=f"0..{SPHERE_MAX_POINTS}")
    p.set_defaults(run=_cmd_sphere_fields)

    p = sub.add_parser("classify-essential", help="essentiality of rank-(m+1) structures")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(run=_cmd_classify_essential)

    p = sub.add_parser("octonion", help="multiplication table and operators")
    what = p.add_mutually_exclusive_group(required=True)
    what.add_argument("--table", action="store_true")
    what.add_argument("--right", metavar="UNIT")
    what.add_argument("--left", metavar="UNIT")
    p.set_defaults(run=_cmd_octonion)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--slow", action="store_true")
    p.set_defaults(run=_cmd_selftest)
    return parser


def _usage(fn, *args):
    """fn(*args), where a ValueError means bad input: a usage error."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise UsageError(str(exc))


def _form_payload(form, fmt):
    from .forms import form_to_json_text, form_to_text

    if fmt == "text":
        return form_to_text(form) + "\n"
    return form_to_json_text(form)


def _json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _emit(args, payload: str) -> None:
    try:
        if args.out is None:
            try:
                sys.stdout.write(payload)
                sys.stdout.flush()
            except OSError:
                # Bytes left in stdout's buffer would fail again in the flush at
                # interpreter exit; send them to devnull instead.
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
                raise
        else:
            with open(args.out, "w") as fh:
                fh.write(payload)
    except OSError as exc:  # missing directory, a directory, no permission, a full disk
        raise UsageError(f"cannot write {'stdout' if args.out is None else args.out}: {exc}")


def _writes_text(args) -> bool:
    """Whether the command has text output; the others write JSON only."""
    return (
        args.subcommand in ("form", "selftest")
        or getattr(args, "emit", None) == "tau4"
        or getattr(args, "table", False)
    )


def _cmd_gen(args) -> int:
    from .clifford import build, system_to_json, tilde

    if args.tilde:
        system = _usage(tilde, args.m)
    elif args.cls is None:  # build's own default class
        system = _usage(build, args.m)
    else:
        system = _usage(build, args.m, args.cls)
    _emit(args, _json(system_to_json(system)))
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .clifford import system_from_json, verify

    try:
        with open(args.path) as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # unreadable, not JSON or too deep
        raise UsageError(f"cannot read {args.path}: {exc}")
    try:
        system = system_from_json(data)
    except ValueError as exc:
        raise VerificationFailure(f"ill-formed system: {exc}")
    report = verify(system)
    _emit(args, _json(report.to_json()))
    return EXIT_OK if report.all_ok() else EXIT_VERIFY


def _cmd_rep(args) -> int:
    from .clifford import build, to_representation
    from .exactmat import matrix_to_json

    rep = to_representation(_usage(build, args.m))
    payload = _json(
        {
            "m": args.m,
            "delta": rep.delta,
            "matrices": [matrix_to_json(e) for e in rep.matrices],
        }
    )
    _emit(args, payload)
    return EXIT_OK


def _cmd_form(args) -> int:
    from .forms import canonical_form, psi_matrix, tau

    if (args.name is None) == (args.tau is None):
        raise UsageError("form needs exactly one of --name or --tau K --psi F")
    if args.name is not None:
        if args.psi is not None:
            raise UsageError("--psi goes with --tau, not with --name")
        form = canonical_form(_CANONICAL_NAMES[args.name])
    elif args.psi is None:
        raise UsageError("--tau needs --psi A|B|C")
    else:
        form = _usage(tau, psi_matrix(args.psi), args.tau)
    _emit(args, _form_payload(form, args.format))
    return EXIT_OK


def _cmd_liealg(args) -> int:
    from .clifford import build
    from .exactmat import pairwise_products
    from .liealg import MatrixSpan, commutant_dim, normalizer_dim, triple_span_decomposition

    label = args.system
    if not re.fullmatch("C[1-9][0-9]*", label):
        raise UsageError("--system expects C<m>, e.g. C8")
    checks = [c.strip() for c in args.check.split(",") if c.strip()]
    if not checks:
        raise UsageError("--check needs at least one check name")
    system = _usage(lambda: build(int(label[1:])))  # int() of over 4,300 digits: ValueError
    for token in checks:
        if token not in _LIEALG_CHECKS:
            raise UsageError(f"unknown check {token!r}")
    report: dict = {"system": label, "n": system.n}
    span = None
    for token in checks:
        if token == "span":
            span = span or MatrixSpan(pairwise_products(system.generators))
            report["spanDim"] = span.rank
        elif token == "bracket":
            span = span or MatrixSpan(pairwise_products(system.generators))
            report["bracketClosed"] = span.bracket_closed()
        elif token == "commutant":
            report["commutantDim"] = commutant_dim(system.generators)
        elif token == "normalizer":
            report["normalizerDim"] = normalizer_dim(system.generators)
        else:  # decomposition
            pair_dim, triple_dim, orth, total = triple_span_decomposition(system.generators)
            report["decomposition"] = {
                "pairSpan": pair_dim,
                "tripleSpan": triple_dim,
                "orthogonal": orth,
                "totalRank": total,
            }
    _emit(args, _json(report))
    return EXIT_OK


def _cmd_evencliff(args) -> int:
    from .evencliff import classify, psi_d, tau4_psi_d

    if args.classify is not None:
        if args.rank is not None:
            raise UsageError("--rank goes with --emit, not with --classify")
        record = _usage(classify, args.classify)
        _emit(args, _json({"rank": record.rank, "verdict": record.verdict, "note": record.note}))
        return EXIT_OK
    if args.rank != 10:
        raise UsageError("need --rank 10 --emit psiD|tau4, or --classify <rank>")
    if args.emit == "tau4":
        _emit(args, _form_payload(tau4_psi_d(), args.format))
        return EXIT_OK
    from .forms import form_to_json

    matrix = psi_d()
    entries = [
        {"row": i, "col": j, "form": form_to_json(form)} for (i, j), form in matrix.upper_items()
    ]
    _emit(args, _json({"size": matrix.size, "N": matrix.n, "entries": entries}))
    return EXIT_OK


def _cmd_sphere_fields(args) -> int:
    n = args.n
    if n > SPHERE_MAX_N:
        raise UsageError(f"--n must be <= {SPHERE_MAX_N}")
    if not 0 <= args.points <= SPHERE_MAX_POINTS:
        raise UsageError(f"--points must be in 0..{SPHERE_MAX_POINTS}")
    from .exactmat import matrix_to_json
    from .spheres import hurwitz_radon, max_vector_fields, random_unit_points, verify_pointwise

    system = _usage(max_vector_fields, n)
    system.validate()
    points = random_unit_points(n, args.points, seed=n)
    pointwise = verify_pointwise(system, points)
    payload = _json(
        {
            "n": n,
            "sigma": system.sigma,
            "factorization": dict(hurwitz_radon(n)._asdict()),
            "fields": [matrix_to_json(j) for j in system.structures],
            "verification": {
                "algebraic": True,
                "pointwise": pointwise,
                "points": len(points),
            },
        }
    )
    _emit(args, payload)
    return EXIT_OK if pointwise else EXIT_VERIFY


def _cmd_classify_essential(args) -> int:
    from .clifford import classify_essential

    _emit(args, _json({"m": args.m, "verdict": _usage(classify_essential, args.m)}))
    return EXIT_OK


def _cmd_octonion(args) -> int:
    from .algebras import algebra_table, left_mult, right_mult
    from .exactmat import matrix_to_json

    if args.table:
        _emit(args, algebra_table(8).text_grid() + "\n")
        return EXIT_OK
    if args.right is not None:
        mat = _usage(right_mult, args.right, 8)
    else:
        mat = _usage(left_mult, args.left, 8)
    _emit(args, _json(matrix_to_json(mat)))
    return EXIT_OK


def _cmd_selftest(args) -> int:
    from .acceptance import run_all

    results = run_all(slow=args.slow)
    lines = [r.line() for r in results]
    _emit(args, "\n".join(lines) + "\n")
    for r in results:  # timings vary from run to run, so they stay off the output
        print(f"{r.name}: {r.seconds:.2f}s", file=sys.stderr)
    return EXIT_OK if all(r.ok for r in results) else EXIT_VERIFY


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.jobs < 1:
            raise UsageError("parallelism degree must be >= 1")
        if args.format == "text" and not _writes_text(args):
            raise UsageError(
                "--format text applies only to form, evencliff --emit tau4, octonion --table "
                "and selftest"
            )
        return args.run(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except Exception as exc:  # computation failure: JSON error body, code 3
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}), file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
