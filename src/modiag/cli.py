"""Command line interface: verification certificates and survey tables.

Both commands only render certificates from ``replay_proof``; a survey row
is a summary of the all-layer certificate for its power, and its prediction
is that certificate's claim.

Each subcommand's flags are written once, in ``_COMMANDS``.  A plain command
line, a subcommand and then whole ``--flag value`` pairs with exact flag
names, is read from that table without importing argparse and the gettext
and locale modules it loads, about 5 ms of each command's start-up.  Help,
every other spelling (``--flag=value``, abbreviations, repeats, negative
numbers) and every usage error go through the argparse parser built from
the same table, unchanged.

Exit codes: 1 when a certificate's claim, as ``grading.claim`` reads it,
is "failed"; 0 when it is "vanishing" or "no claim", which includes the
reported-survivors regime m <= 2g; 2 on usage or resource errors: the
certificate's cohomology-shadow step was SKIPPED by --max-dim, or the
--out path cannot be written.  The claim rule lives in ``grading`` alone.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from .grading import (
    DEFAULT_LAYERS,
    DEFAULT_MAX_DIM,
    FORMAL_IDENTITY,
    LAYERS,
    PASS,
    SKIPPED,
    certificate_to_json,
    certificate_to_text,
    claim,
    int_repr,
    replay_proof,
)


# Each subcommand's help line and flags, written once: build_parser passes
# each flag's entries to argparse's add_argument, and _parse_plain reads a
# plain command line from the same entries.
_COMMON = {
    "--genus": {"type": int, "required": True, "help": "dimension g of the abelian variety (>= 1)"},
    "--max-dim": {
        "type": int,
        "default": DEFAULT_MAX_DIM,
        "help": (
            "refuse the cohomology shadow when its graded dimension C(2gm, 2g)"
            " reaches this bound; the dimension is not the shadow's work"
        ),
    },
}
_COMMANDS = {
    "verify": (
        "replay the vanishing argument for one (g, m)",
        {
            **_COMMON,
            "--power": {"type": int, "required": True, "help": "number of factors m (>= 1)"},
            "--layers": {
                "default": ",".join(DEFAULT_LAYERS),
                "help": f"comma-separated subset of {','.join(LAYERS)} (default: %(default)s)",
            },
            "--format": {"choices": ("json", "text"), "default": "json"},
            "--out": {"help": "write the certificate here instead of stdout"},
        },
    ),
    "survey": (
        "one row per m = 1..M summarizing every layer",
        {**_COMMON, "--power-max": {"type": int, "required": True}},
    ),
}


def build_parser():
    import argparse  # help, errors and every command line that is not plain

    parser = argparse.ArgumentParser(
        prog="modiag",
        description=(
            "Exact verification that the modified diagonal on the m-th power of"
            " a g-dimensional abelian variety vanishes rationally once m >= 2g+1."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, flags) in _COMMANDS.items():
        command_parser = sub.add_parser(command, help=summary)
        for flag, entries in flags.items():
            command_parser.add_argument(flag, **entries)
    return parser


def _parse_plain(argv):
    """The namespace argparse returns for a plain command line, else None.

    A command line is plain when it names a subcommand and then gives whole
    ``--flag value`` pairs: each flag by its exact name and at most once,
    every required flag present, no value starting with ``-``, each int
    value read by ``int`` and each value inside its choices.  Anything else
    goes to argparse, which alone writes help and errors.
    """
    if not argv or argv[0] not in _COMMANDS or len(argv) % 2 == 0:
        return None
    flags = _COMMANDS[argv[0]][1]
    given = dict(zip(argv[1::2], argv[2::2]))
    if len(given) < len(argv) // 2 or not given.keys() <= flags.keys():
        return None
    args = SimpleNamespace(command=argv[0])
    for flag, entries in flags.items():
        dest = flag[2:].replace("-", "_")
        if flag not in given:
            if entries.get("required"):
                return None
            setattr(args, dest, entries.get("default"))
            continue
        text = given[flag]
        if text.startswith("-") or ("choices" in entries and text not in entries["choices"]):
            return None
        try:
            setattr(args, dest, entries.get("type", str)(text))
        except ValueError:
            return None
    return args


def cmd_verify(args) -> int:
    layers = [name for name in map(str.strip, args.layers.split(",")) if name]
    if not layers or any(name not in LAYERS for name in layers):
        build_parser().error(f"--layers must be a nonempty subset of {','.join(LAYERS)}")
    cert = replay_proof(args.genus, args.power, layers=layers, max_dim=args.max_dim)
    for s in cert.steps:
        if s.id == "cohomology-shadow" and s.status == SKIPPED:
            print(
                f"error: the cohomology layer at g={cert.g} m={cert.m} needs a graded piece of"
                f" dimension {int_repr(s.witness['graded_dimension'])}, at or above the bound"
                f" {s.witness['max_dim']}; raise --max-dim or drop the layer",
                file=sys.stderr,
            )
            return 2
    payload = certificate_to_json(cert) if args.format == "json" else certificate_to_text(cert)
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(payload)
        except OSError as exc:
            print(f"error: cannot write the certificate to {args.out}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(payload)

    return 1 if claim(cert) == "failed" else 0


# The prediction column prints each row's claim, as ``grading.claim`` reads it.
_PREDICTION = {"vanishing": "vanishes (m >= 2g+1)", "no claim": "no claim (m <= 2g)", "failed": "failed"}


def _survey_row(g: int, m: int, max_dim: int) -> tuple[str, str]:
    """The survey line for power m, and its certificate's claim."""
    cert = replay_proof(g, m, layers=LAYERS, max_dim=max_dim)
    steps = {s.id: s for s in cert.steps}
    formal = "pass" if all(s.status == PASS for s in cert.steps if s.kind == FORMAL_IDENTITY) else "FAIL"
    survivors = steps["kunneth-survivors"].witness["survivor_count"]
    shadow = steps["cohomology-shadow"]
    if shadow.status == SKIPPED:
        cohomology = "SKIPPED"
    else:
        cohomology = "zero" if shadow.witness["is_zero"] else "nonzero"
    verdict = claim(cert)
    return f"{m:>3}  {formal:<7}{int_repr(survivors):>10}  {cohomology:<11}{_PREDICTION[verdict]}", verdict


def cmd_survey(args) -> int:
    g = args.genus
    rows = [_survey_row(g, m, args.max_dim) for m in range(1, args.power_max + 1)]
    lines = [
        f"survey g={g} power_max={args.power_max}"
        f" (the argument concludes for m >= {2 * g + 1})",
        f"{'m':>3}  {'formal':<7}{'survivors':>10}  {'cohomology':<11}{'prediction'}",
        *(line for line, _ in rows),
    ]
    sys.stdout.write("\n".join(lines) + "\n")
    return 1 if any(verdict == "failed" for _, verdict in rows) else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_plain(argv) or build_parser().parse_args(argv)
    for flag in ("genus", "power", "power_max"):  # survey has no --power, verify no --power-max
        if (value := getattr(args, flag, 1)) < 1:
            build_parser().error(f"--{flag.replace('_', '-')} must be >= 1, got {value}")
    if args.command == "verify":
        return cmd_verify(args)
    return cmd_survey(args)
