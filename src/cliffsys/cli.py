"""Command-line entry point.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 internal
error.  Output is deterministic for a fixed configuration regardless of the
parallelism degree (exact arithmetic, order-independent merges).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


class VerificationFailure(Exception):
    pass


@dataclass
class RunConfig:
    subcommand: str
    params: dict = field(default_factory=dict)
    out: str | None = None
    format: str = "json"
    jobs: int = 1
    slow: bool = False

    def __post_init__(self):
        if self.format not in ("json", "text"):
            raise UsageError(f"unknown format {self.format!r}")
        if self.jobs < 1:
            raise UsageError("parallelism degree must be >= 1")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; we use 1
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cliffsys", description=__doc__)
    parser.add_argument("--out", help="write output to this path instead of stdout")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument(
        "--jobs",
        type=int,
        # a string default goes through `type` like a command-line value, so a
        # non-integer CLIFFSYS_JOBS is a usage error, and only when --jobs is absent
        default=os.environ.get("CLIFFSYS_JOBS", "1"),
        help="parallelism degree (env CLIFFSYS_JOBS)",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen", help="emit a Clifford system")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--class", dest="cls", choices=("plus", "minus"), default="plus")
    p.add_argument("--tilde", action="store_true")

    p = sub.add_parser("verify", help="verify a system from its JSON form")
    p.add_argument("--in", dest="path", required=True)

    p = sub.add_parser("rep", help="emit the skew representation matrices")
    p.add_argument("--m", type=int, required=True)

    p = sub.add_parser("form", help="emit an invariant form or a tau computation")
    p.add_argument("--name", choices=("omegaL", "spin7", "spin8", "spin9"))
    p.add_argument("--tau", type=int)
    p.add_argument("--psi", choices=("A", "B", "C"))

    p = sub.add_parser("liealg", help="span/bracket/stabilizer report for a system")
    p.add_argument("--system", required=True, metavar="C<m>")
    p.add_argument("--check", default="span,bracket")

    p = sub.add_parser("evencliff", help="rank-10 structure data and classification")
    p.add_argument("--rank", type=int)
    p.add_argument("--emit", choices=("psiD", "tau4"))
    p.add_argument("--classify", type=int)

    p = sub.add_parser("sphere-fields", help="maximal tangent fields on S^{n-1}")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--points", type=int, default=25)

    p = sub.add_parser("classify-essential", help="essentiality of rank-(m+1) structures")
    p.add_argument("--m", type=int, required=True)

    p = sub.add_parser("octonion", help="multiplication table and operators")
    p.add_argument("--table", action="store_true")
    p.add_argument("--right", metavar="UNIT")
    p.add_argument("--left", metavar="UNIT")

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--slow", action="store_true")
    return parser


def parse_config(argv) -> RunConfig:
    ns = _build_parser().parse_args(argv)
    params = {
        k: v
        for k, v in vars(ns).items()
        if k not in ("out", "format", "jobs", "subcommand")
    }
    return RunConfig(
        subcommand=ns.subcommand,
        params=params,
        out=ns.out,
        format=ns.format,
        jobs=ns.jobs,
        slow=params.get("slow", False),
    )


def _form_payload(form, fmt):
    from .forms import form_to_json_text, form_to_text

    if fmt == "text":
        return form_to_text(form) + "\n"
    return form_to_json_text(form)


def _json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _emit(config: RunConfig, payload: str) -> None:
    if config.out:
        try:
            fh = open(config.out, "w")
        except OSError as exc:  # missing directory, a directory, no permission
            raise UsageError(f"cannot write {config.out}: {exc}")
        with fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _system_from_params(params) -> "object":
    from .clifford import build, tilde

    m = params["m"]
    if params.get("tilde"):
        return tilde(m)
    return build(m, params.get("cls", "plus"))


_CANONICAL_NAMES = {
    "omegaL": "OmegaL",
    "spin7": "Spin7Delta",
    "spin8": "Spin8",
    "spin9": "Spin9",
}


def dispatch(config: RunConfig) -> int:
    handler = _HANDLERS.get(config.subcommand)
    if handler is None:
        raise UsageError(f"unknown subcommand {config.subcommand!r}")
    return handler(config)


def _cmd_gen(config: RunConfig) -> int:
    from .clifford import system_to_json

    try:
        system = _system_from_params(config.params)
    except ValueError as exc:
        raise UsageError(str(exc))
    payload = _json(system_to_json(system))
    _emit(config, payload)
    return EXIT_OK


def _cmd_verify(config: RunConfig) -> int:
    from .clifford import system_from_json, verify

    path = config.params["path"]
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
        raise UsageError(f"cannot read {path}: {exc}")
    try:
        system = system_from_json(data)
    except ValueError as exc:
        raise VerificationFailure(f"ill-formed system: {exc}")
    report = verify(system)
    _emit(config, _json(report.to_json()))
    return EXIT_OK if report.all_ok() else EXIT_VERIFY


def _cmd_rep(config: RunConfig) -> int:
    from .clifford import build, to_representation
    from .exactmat import matrix_to_json

    try:
        rep = to_representation(build(config.params["m"]))
    except ValueError as exc:
        raise UsageError(str(exc))
    payload = _json(
        {
            "m": config.params["m"],
            "delta": rep.delta,
            "matrices": [matrix_to_json(e) for e in rep.matrices],
        }
    )
    _emit(config, payload)
    return EXIT_OK


def _cmd_form(config: RunConfig) -> int:
    from .forms import canonical_form, psi_matrix, tau

    name = config.params.get("name")
    tau_k = config.params.get("tau")
    if (name is None) == (tau_k is None):
        raise UsageError("form needs exactly one of --name or --tau K --psi F")
    if name is not None:
        form = canonical_form(_CANONICAL_NAMES[name])
    else:
        family = config.params.get("psi")
        if family is None:
            raise UsageError("--tau needs --psi A|B|C")
        try:
            form = tau(psi_matrix(family), tau_k, jobs=config.jobs)
        except ValueError as exc:
            raise UsageError(str(exc))
    _emit(config, _form_payload(form, config.format))
    return EXIT_OK


def _cmd_liealg(config: RunConfig) -> int:
    from .clifford import build
    from .liealg import MatrixSpan, commutant_dim, normalizer_dim, triple_span_decomposition

    label = config.params["system"]
    if not label.startswith("C") or not label[1:].isdigit():
        raise UsageError("--system expects C<m>, e.g. C8")
    m = int(label[1:])
    try:
        system = build(m)
    except ValueError as exc:
        raise UsageError(str(exc))
    checks = [c.strip() for c in config.params["check"].split(",") if c.strip()]
    report: dict = {"system": label, "n": system.n}
    span = None
    for token in checks:
        if token == "span":
            span = span or MatrixSpan(system.compositions())
            report["spanDim"] = span.rank
        elif token == "bracket":
            span = span or MatrixSpan(system.compositions())
            report["bracketClosed"] = span.bracket_closed()
        elif token == "commutant":
            report["commutantDim"] = commutant_dim(system.generators)
        elif token == "normalizer":
            report["normalizerDim"] = normalizer_dim(system.generators)
        elif token == "decomposition":
            d36, d84, orth, total = triple_span_decomposition()
            report["decomposition"] = {
                "pairSpan": d36,
                "tripleSpan": d84,
                "orthogonal": orth,
                "totalRank": total,
            }
        else:
            raise UsageError(f"unknown check {token!r}")
    _emit(config, _json(report))
    return EXIT_OK


def _cmd_evencliff(config: RunConfig) -> int:
    from .evencliff import classify as classify_rank, psi_d, tau4_psi_d

    rank = config.params.get("rank")
    emit = config.params.get("emit")
    classify_arg = config.params.get("classify")
    if classify_arg is not None:
        try:
            record = classify_rank(classify_arg)
        except ValueError as exc:
            raise UsageError(str(exc))
        _emit(
            config,
            _json({"rank": record.rank, "verdict": record.verdict, "note": record.note}),
        )
        return EXIT_OK
    if rank != 10 or emit is None:
        raise UsageError("need --rank 10 --emit psiD|tau4, or --classify <rank>")
    if emit == "tau4":
        _emit(config, _form_payload(tau4_psi_d(jobs=config.jobs), config.format))
        return EXIT_OK
    from .forms import form_to_json

    matrix = psi_d()
    entries = [
        {"row": i, "col": j, "form": form_to_json(form)} for (i, j), form in matrix.upper_items()
    ]
    _emit(config, _json({"size": matrix.size, "N": matrix.n, "entries": entries}))
    return EXIT_OK


def _cmd_sphere_fields(config: RunConfig) -> int:
    from .exactmat import matrix_to_json
    from .spheres import hurwitz_radon, max_vector_fields, random_unit_points, verify_pointwise

    n = config.params["n"]
    if config.params["points"] < 0:
        raise UsageError("--points must be >= 0")
    try:
        system = max_vector_fields(n)
    except ValueError as exc:
        raise UsageError(str(exc))
    system.validate()
    points = random_unit_points(n, config.params["points"], seed=n)
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
    _emit(config, payload)
    return EXIT_OK if pointwise else EXIT_VERIFY


def _cmd_classify_essential(config: RunConfig) -> int:
    from .clifford import classify_essential

    m = config.params["m"]
    try:
        verdict = classify_essential(m)
    except ValueError as exc:
        raise UsageError(str(exc))
    _emit(config, _json({"m": m, "verdict": verdict}))
    return EXIT_OK


def _cmd_octonion(config: RunConfig) -> int:
    from .algebras import algebra_table, left_mult, right_mult
    from .exactmat import matrix_to_json

    if config.params.get("table"):
        _emit(config, algebra_table(8).text_grid() + "\n")
        return EXIT_OK
    unit = config.params.get("right") or config.params.get("left")
    if not unit:
        raise UsageError("octonion needs --table, --right UNIT or --left UNIT")
    try:
        mat = right_mult(unit, 8) if config.params.get("right") else left_mult(unit, 8)
    except ValueError as exc:
        raise UsageError(str(exc))
    _emit(config, _json(matrix_to_json(mat)))
    return EXIT_OK


def _cmd_selftest(config: RunConfig) -> int:
    from .acceptance import run_all

    results = run_all(slow=config.slow, jobs=config.jobs)
    lines = [r.line() for r in results]
    _emit(config, "\n".join(lines) + "\n")
    for r in results:  # timings vary from run to run, so they stay off the output
        print(f"{r.name}: {r.seconds:.2f}s", file=sys.stderr)
    return EXIT_OK if all(r.ok for r in results) else EXIT_VERIFY


_HANDLERS = {
    "gen": _cmd_gen,
    "verify": _cmd_verify,
    "rep": _cmd_rep,
    "form": _cmd_form,
    "liealg": _cmd_liealg,
    "evencliff": _cmd_evencliff,
    "sphere-fields": _cmd_sphere_fields,
    "classify-essential": _cmd_classify_essential,
    "octonion": _cmd_octonion,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = parse_config(argv)
        return dispatch(config)
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
