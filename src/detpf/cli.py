"""Command-line front end.

Every subcommand renders a JSON document (the canonical output); text output
renders the same document as `key: value` lines, with each list item under a
`-` marker, and sweep CSV rows carry the fixed column set
r,d,prime,seed,cd,rank,target,verdict,elapsed_ms.  Each subcommand declares
only the options its handler reads, and the ranges of its numbers, so
argparse refuses the rest with the subcommand's usage.
Exit codes: 0 success, 1 verification/certification failure, 2 usage or
input errors; every input the toolkit refuses raises an `InputError`, which
exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, constructions, dominance, graded, mpoly, polymat
from .exactlin import DEFAULT_PRIME, InputError, PrimeField
from .rng import FieldRng


def _render_text(doc, indent: int = 0) -> str:
    """`key: value` lines for a dict, `- value` lines for a list, nested deeper."""
    pad = "  " * indent
    if isinstance(doc, dict):
        items = [(f"{k}:", v) for k, v in doc.items()]
    elif isinstance(doc, list):
        items = [("-", v) for v in doc]
    else:
        return f"{pad}{doc}"
    lines = []
    for label, v in items:
        if isinstance(v, (dict, list)):
            lines.append(f"{pad}{label}")
            lines.append(_render_text(v, indent + 1))
        else:
            lines.append(f"{pad}{label} {v}")
    return "\n".join(lines)


def _emit(args: argparse.Namespace, doc, csv_lines: list[str] | None = None) -> None:
    if args.fmt == "json":
        text = json.dumps(doc, indent=2, sort_keys=True)
    elif args.fmt == "csv":
        text = "\n".join(csv_lines)
    else:
        text = _render_text(doc)
    _write_file(args.output, text + "\n")


def _write_file(path: str | None, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


# ---- subcommand handlers ------------------------------------------------------


def _cmd_formulas(args: argparse.Namespace) -> int:
    table = dominance.formula_table(args.ambient, args.degree)
    _emit(args, table.to_dict())
    return 0


def _cmd_dominance(args: argparse.Namespace) -> int:
    ok, cert = dominance.is_dominant(
        args.ambient,
        args.degree,
        prime=PrimeField(args.prime).p,
        seed=args.seed,
        retries=args.retries,
    )
    _emit(
        args,
        cert.to_dict(),
        csv_lines=[cert.csv_header(), cert.csv_row()],
    )
    if args.expect_dominant and not ok:
        return 1
    return 0


def _cmd_dominance_sweep(args: argparse.Namespace) -> int:
    if args.min_degree > args.max_degree:
        args.subparser.error(f"empty degree range {args.min_degree}..{args.max_degree}")
    certs = dominance.dominance_sweep(
        args.ambient,
        args.max_degree,
        prime=PrimeField(args.prime).p,
        seed=args.seed,
        retries=args.retries,
        min_degree=args.min_degree,
        workers=args.workers,
    )
    doc = [c.to_dict() for c in certs]
    csv_lines = [dominance.DominanceCertificate.csv_header()] + [c.csv_row() for c in certs]
    _emit(args, doc, csv_lines=csv_lines)
    return 0


def _cmd_lower_bound(args: argparse.Namespace) -> int:
    threshold, trail = dominance.lower_bound_for_dominant_degree(
        args.ambient,
        prime=PrimeField(args.prime).p,
        seed=args.seed,
        retries=args.retries,
    )
    doc = {
        "ambient": args.ambient,
        "threshold": threshold,
        "trail": [c.to_dict() for c in trail],
    }
    csv_lines = [dominance.DominanceCertificate.csv_header()] + [c.csv_row() for c in trail]
    _emit(args, doc, csv_lines=csv_lines)
    if args.expect is not None and threshold != args.expect:
        return 1
    return 0


_INPUT_FILES = dict(cyclic=("--f-forms", "--g-forms"), block=("--matrix",), pullback=("--matrix",))


def _cmd_construct(args: argparse.Namespace) -> int:
    for option in _INPUT_FILES.get(args.kind, ()):
        if getattr(args, option[2:].replace("-", "_")) is None:
            args.subparser.error(f"construct {args.kind} needs {option}")
    field = PrimeField(args.prime)
    rng = FieldRng(args.seed, "construct", args.kind)
    if args.kind == "fermat":
        built = constructions.fermat_matrix(field, args.ambient, args.degree)
        matrix = built.matrix
        if built.footnote_variant:
            print("# footnote variant: char divides degree", file=sys.stderr)
    elif args.kind == "cyclic":
        f_forms = mpoly.parse_forms(_read_file(args.f_forms), field)
        g_forms = mpoly.parse_forms(_read_file(args.g_forms), field)
        matrix = constructions.cyclic_matrix(f_forms, g_forms)
    elif args.kind == "block":
        inner = polymat.parse_graded_matrix(_read_file(args.matrix), field)
        matrix = constructions.block_skew_from(inner)
    elif args.kind == "theta-shape":
        matrix = constructions.theta_shape_random(field, args.degree, rng)
    elif args.kind == "pullback":
        inner = polymat.parse_graded_matrix(_read_file(args.matrix), field)
        matrix = constructions.pullback_squares(inner)
    elif args.kind == "random":
        shape = constructions.ResolutionShape(args.rows, args.cols, args.symmetry)
        matrix = constructions.random_graded_matrix(field, args.nvars, shape, rng)
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown construction {args.kind!r}")
    _write_file(args.output, matrix.to_text())
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    field = PrimeField(args.prime)
    matrix = polymat.parse_graded_matrix(_read_file(args.matrix), field)
    form = mpoly.parse_form(_read_file(args.form), field)
    result = polymat.verify_representation(matrix, form, args.kind, seed=args.seed)
    _emit(args, {"ok": result.ok, "scalar": result.scalar, "kind": args.kind})
    return 0 if result.ok else 1


def _cmd_hilbert(args: argparse.Namespace) -> int:
    field = PrimeField(args.prime)
    matrix = polymat.parse_graded_matrix(_read_file(args.matrix), field)
    table = {str(j): graded.coker_hilbert(matrix, j) for j in args.degrees}
    _emit(args, {"hilbert": table})
    return 0


def _cmd_gorenstein(args: argparse.Namespace) -> int:
    field = PrimeField(args.prime)
    points = graded.parse_point_set(_read_file(args.points), field)
    report = graded.gorenstein_check(points, work_limit=args.work_limit_degree)
    _emit(
        args,
        {
            "degree": report.degree,
            "hilbert": list(report.hilbert),
            "index": report.index,
            "symmetry_ok": report.symmetry_ok,
            "cayley_bacharach_ok": report.cayley_bacharach_ok,
            "passed": report.passed,
        },
    )
    return 0


def _cmd_smooth(args: argparse.Namespace) -> int:
    field = PrimeField(args.prime)
    form = mpoly.parse_form(_read_file(args.form), field)
    cert = graded.smoothness_certificate(
        form, max_certificate_degree=args.work_limit_degree
    )
    _emit(
        args,
        {
            "verdict": cert.verdict,
            "certificate_degree": cert.certificate_degree,
            "achieved_dim": cert.achieved_dim,
            "full_dim": cert.full_dim,
            "witness": list(cert.witness) if cert.witness else None,
        },
    )
    return 0


def _int_at_least(low: int):
    """An argparse type for integers >= low; smaller values exit 2."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _twists(text: str) -> tuple[int, ...]:
    """An argparse type for a comma-separated list of integers."""
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers separated by commas, got {text!r}")


def _degree_range(text: str) -> range:
    """An argparse type for a nonempty range J0..J1 of degrees, both included."""
    try:
        lo, hi = (int(v) for v in text.split(".."))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected J0..J1, got {text!r}")
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty degree range {lo}..{hi}")
    return range(lo, hi + 1)


def _options(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """A parent parser holding a group of options shared by subcommands."""
    return argparse.ArgumentParser(add_help=False, parents=list(parents))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detpf",
        description="determinantal and pfaffian representations of hypersurfaces over GF(p)",
    )
    parser.add_argument("--version", action="version", version=f"detpf {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    prime = _options()
    prime.add_argument("--prime", type=int, default=DEFAULT_PRIME, help="field modulus (odd prime)")
    seeded = _options(prime)
    seeded.add_argument("--seed", type=int, default=0, help="root seed for all randomness")
    output = _options()
    output.add_argument("--output", type=str, default=None, help="write result to this path")
    document = _options(output)
    document.add_argument("--format", dest="fmt", choices=("json", "text"), default="json")
    certificate = _options(seeded, output)
    certificate.add_argument(
        "--retries", type=int, default=3, help="independent samples before giving up"
    )
    certificate.add_argument(
        "--format", dest="fmt", choices=("json", "csv", "text"), default="json"
    )
    work_limit = _options()
    work_limit.add_argument(
        "--work-limit-degree",
        type=_int_at_least(0),
        default=40,
        help="largest graded piece degree certificates may compute",
    )

    sub = subs.add_parser(
        "formulas", parents=[document], help="degree/genus/dimension formula table"
    )
    sub.add_argument("--ambient", type=_int_at_least(2), required=True)
    sub.add_argument("--degree", type=_int_at_least(1), required=True)
    sub.set_defaults(handler=_cmd_formulas)

    sub = subs.add_parser(
        "dominance", parents=[certificate], help="one pfaffian dominance certificate"
    )
    sub.add_argument("--ambient", type=int, choices=range(2, 6), required=True)
    sub.add_argument("--degree", type=_int_at_least(2), required=True)
    sub.add_argument(
        "--expect-dominant",
        action="store_true",
        help="exit 1 unless the certificate proves dominance",
    )
    sub.set_defaults(handler=_cmd_dominance)

    sub = subs.add_parser(
        "dominance-sweep", parents=[certificate], help="certificates for a degree range"
    )
    sub.add_argument("--ambient", type=int, choices=range(2, 6), required=True)
    sub.add_argument("--max-degree", type=_int_at_least(2), required=True)
    sub.add_argument("--min-degree", type=_int_at_least(2), default=3)
    sub.add_argument("--workers", type=int, default=1, help="worker pool size")
    sub.set_defaults(handler=_cmd_dominance_sweep)

    sub = subs.add_parser(
        "lower-bound", parents=[certificate], help="largest dominant degree for an ambient"
    )
    # plane curves (r = 2) are never count-obstructed: no threshold exists
    sub.add_argument("--ambient", type=int, choices=range(3, 6), required=True)
    sub.add_argument("--expect", type=int, default=None, help="exit 1 unless the threshold matches")
    sub.set_defaults(handler=_cmd_lower_bound)

    sub = subs.add_parser(
        "construct", parents=[seeded, output], help="emit a constructed matrix file"
    )
    sub.add_argument(
        "kind",
        choices=("fermat", "cyclic", "block", "theta-shape", "pullback", "random"),
    )
    sub.add_argument("--ambient", type=int, default=2)
    sub.add_argument("--degree", type=int, default=3)
    sub.add_argument("--matrix", type=str, help="input matrix file (block, pullback)")
    sub.add_argument("--f-forms", type=str, help="diagonal forms file (cyclic)")
    sub.add_argument("--g-forms", type=str, help="cycle forms file (cyclic)")
    sub.add_argument("--rows", type=_twists, default="0,0,0", help="row twists (random)")
    sub.add_argument(
        "--cols",
        type=_twists,
        default="-1,-1,-1",
        help="column twists (random); use --cols=-1,-1,-1 for negative values",
    )
    sub.add_argument("--symmetry", choices=("general", "symmetric", "skew"), default="general")
    sub.add_argument("--nvars", type=_int_at_least(1), default=4)
    sub.set_defaults(handler=_cmd_construct)

    sub = subs.add_parser(
        "verify", parents=[seeded, document], help="check det/pf of a matrix against a form"
    )
    sub.add_argument("--matrix", type=str, required=True)
    sub.add_argument("--form", type=str, required=True)
    sub.add_argument("--kind", choices=("det", "pf"), required=True)
    sub.set_defaults(handler=_cmd_verify)

    sub = subs.add_parser(
        "hilbert", parents=[prime, document], help="Hilbert function of a presented cokernel"
    )
    sub.add_argument("--matrix", type=str, required=True)
    sub.add_argument(
        "--degrees",
        type=_degree_range,
        required=True,
        help="range J0..J1; use --degrees=-3..-1 for a negative J0",
    )
    sub.set_defaults(handler=_cmd_hilbert)

    sub = subs.add_parser(
        "gorenstein",
        parents=[prime, document, work_limit],
        help="arithmetically Gorenstein point-set check",
    )
    sub.add_argument("--points", type=str, required=True)
    sub.set_defaults(handler=_cmd_gorenstein)

    sub = subs.add_parser(
        "smooth", parents=[prime, document, work_limit], help="smoothness certificate for a form"
    )
    sub.add_argument("--form", type=str, required=True)
    sub.set_defaults(handler=_cmd_smooth)

    for sub in subs.choices.values():
        sub.set_defaults(subparser=sub)  # reports options it does not read
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, unread = parser.parse_known_args(argv)
    if unread:
        args.subparser.error(f"unrecognized arguments: {' '.join(unread)}")
    try:
        return args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
