"""Command line interface: verification certificates and survey tables.

Both commands only render certificates from ``replay_proof``; a survey row
is a summary of the all-layer certificate for its power.

Exit codes: 0 success (including the reported-survivors regime m <= 2g),
1 verification failure, 2 usage or resource errors.
"""

from __future__ import annotations

import argparse
import sys

from .grading import (
    DEFAULT_MAX_DIM,
    FAIL,
    FORMAL_IDENTITY,
    LAYERS,
    PASS,
    PIGEONHOLE,
    SKIPPED,
    certificate_to_json,
    certificate_to_text,
    graded_dimension,
    replay_proof,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modiag",
        description=(
            "Exact verification that the modified diagonal on the m-th power of"
            " a g-dimensional abelian variety vanishes rationally once m >= 2g+1."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="replay the vanishing argument for one (g, m)")
    verify.add_argument("--genus", type=int, required=True, help="dimension g of the abelian variety (>= 1)")
    verify.add_argument("--power", type=int, required=True, help="number of factors m (>= 1)")
    verify.add_argument(
        "--layers",
        default="formal,grading",
        help=f"comma-separated subset of {','.join(LAYERS)} (default: formal,grading)",
    )
    verify.add_argument("--format", choices=("json", "text"), default="json", dest="format")
    verify.add_argument("--out", default=None, help="write the certificate here instead of stdout")
    verify.add_argument(
        "--max-dim",
        type=int,
        default=DEFAULT_MAX_DIM,
        dest="max_dim",
        help="largest graded-piece dimension the cohomology layer may walk",
    )

    survey = sub.add_parser("survey", help="one row per m = 1..M summarizing every layer")
    survey.add_argument("--genus", type=int, required=True)
    survey.add_argument("--power-max", type=int, required=True, dest="power_max")
    survey.add_argument("--max-dim", type=int, default=DEFAULT_MAX_DIM, dest="max_dim")
    return parser


def cmd_verify(args, parser: argparse.ArgumentParser) -> int:
    if args.genus < 1:
        parser.error(f"--genus must be >= 1, got {args.genus}")
    if args.power < 1:
        parser.error(f"--power must be >= 1, got {args.power}")
    layers = []
    for name in args.layers.split(","):
        name = name.strip()
        if name and name not in layers:
            layers.append(name)
    if not layers or any(name not in LAYERS for name in layers):
        parser.error(f"--layers must be a nonempty subset of {','.join(LAYERS)}")
    g, m = args.genus, args.power
    if "cohomology" in layers:
        dim = graded_dimension(g, m)
        if dim >= args.max_dim:
            print(
                f"error: the cohomology layer at g={g} m={m} needs a graded piece of"
                f" dimension {dim}, at or above the bound {args.max_dim};"
                " raise --max-dim or drop the layer",
                file=sys.stderr,
            )
            return 2

    cert = replay_proof(g, m, layers=layers, max_dim=args.max_dim)
    payload = certificate_to_json(cert) if args.format == "json" else certificate_to_text(cert)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)

    return 0 if _accepted(cert) else 1


def _accepted(cert) -> bool:
    """The exit-code rule shared by verify and survey.

    For m <= 2g the pigeonhole step fails by design: survivors are reported
    and no vanishing is claimed.  Anything else failing is a genuine
    verification failure.
    """
    if cert.result == PASS:
        return True
    return cert.m <= 2 * cert.g and all(
        s.status != FAIL or s.kind == PIGEONHOLE for s in cert.steps
    )


def _survey_row(g: int, m: int, max_dim: int) -> dict:
    cert = replay_proof(g, m, layers=LAYERS, max_dim=max_dim)
    steps = {s.id: s for s in cert.steps}
    formal_ok = all(s.status == PASS for s in cert.steps if s.kind == FORMAL_IDENTITY)
    shadow = steps["cohomology-shadow"]
    if shadow.status == SKIPPED:
        cohomology = "SKIPPED"
    else:
        cohomology = "zero" if shadow.witness["is_zero"] else "nonzero"
    return {
        "m": m,
        "formal": "pass" if formal_ok else "FAIL",
        "survivors": steps["kunneth-survivors"].witness["survivor_count"],
        "cohomology": cohomology,
        "prediction": "vanishes (m >= 2g+1)" if m >= 2 * g + 1 else "no claim (m <= 2g)",
        "consistent": _accepted(cert),
    }


def cmd_survey(args, parser: argparse.ArgumentParser) -> int:
    if args.genus < 1:
        parser.error(f"--genus must be >= 1, got {args.genus}")
    if args.power_max < 1:
        parser.error(f"--power-max must be >= 1, got {args.power_max}")
    g = args.genus
    rows = [_survey_row(g, m, args.max_dim) for m in range(1, args.power_max + 1)]
    lines = [
        f"survey g={g} power_max={args.power_max}"
        f" (the argument concludes for m >= {2 * g + 1})",
        f"{'m':>3}  {'formal':<7}{'survivors':>10}  {'cohomology':<11}{'prediction'}",
    ]
    for row in rows:
        lines.append(
            f"{row['m']:>3}  {row['formal']:<7}{row['survivors']:>10}"
            f"  {row['cohomology']:<11}{row['prediction']}"
        )
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if all(row["consistent"] for row in rows) else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        return cmd_verify(args, parser)
    return cmd_survey(args, parser)


if __name__ == "__main__":
    raise SystemExit(main())
