"""Batch command-line front door.

One binary with subcommands; every subcommand loads its inputs, runs the
corresponding library call and prints either a text summary or a canonical
JSON report.  Exit statuses are the machine-readable truth: 0 means the
checked property holds, 1 means it fails (with a witness in the report),
2 means the invocation or an input file was unusable.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional

from . import io as qio
from .functors import (
    NotDiscreteSheafError,
    check_adjunction,
    left_adjoint_literal,
    monodromy_report,
)
from .presheaf import PresheafError, dualize
from .quiver import QuiverError, validate
from .sheaf import is_discrete_sheaf_criterion, is_sheaf
from .sieves import (
    DEFAULT_SIEVE_LIMIT,
    SieveError,
    TopologySpec,
    audit_axioms,
)

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_USAGE = 2


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="quivsheaf",
        description="Validate quivers, audit Grothendieck topologies and "
        "decide sheaf conditions by exact rational linear algebra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, presheaves=0, topology=False):
        p.add_argument("--quiver", required=True, help="quiver JSON file")
        if presheaves:
            p.add_argument(
                "--presheaf",
                action="append",
                default=[],
                metavar="PATH",
                help="presheaf JSON file (repeatable)",
            )
        if topology:
            p.add_argument(
                "--topology",
                default="coarse",
                help="coarse | discrete | discrete+empty | edge | graded:N",
            )
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--sieve-limit", type=int, default=DEFAULT_SIEVE_LIMIT)
        p.add_argument("--seed", type=int, default=0, help="accepted for reproducible scripting; deterministic commands ignore it")

    p = sub.add_parser("validate", help="check quiver well-formedness and acyclicity")
    common(p)

    p = sub.add_parser("audit", help="check the Grothendieck axioms exhaustively")
    common(p, topology=True)

    p = sub.add_parser("check-sheaf", help="decide the sheaf condition")
    common(p, presheaves=1, topology=True)

    p = sub.add_parser("dualize", help="transpose a representation into a presheaf")
    p.add_argument("--quiver", required=True)
    p.add_argument("--representation", required=True, help="representation JSON file")
    p.add_argument("--output", default="-", help="output path, - for stdout")
    p.add_argument("--format", choices=("text", "json"), default="json")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser(
        "functors",
        help="adjunction dimensions, pointwise-extension collapse and monodromy",
    )
    common(p, presheaves=2)
    return parser


def _emit(report: dict, fmt: str, text_lines) -> None:
    if fmt == "json":
        sys.stdout.write(qio.dumps_canonical(report))
    else:
        for line in text_lines:
            print(line)


def cmd_validate(args) -> int:
    q = qio.load_quiver(args.quiver)
    report = validate(q)
    lines = [f"valid: {report.valid}"]
    lines += [f"  problem: {p}" for p in report.problems]
    _emit(qio.validation_report_to_json(report), args.format, lines)
    return EXIT_HOLDS if report.valid else EXIT_FAILS


def cmd_audit(args) -> int:
    q = qio.load_quiver(args.quiver).require_valid()
    topology = TopologySpec.parse(args.topology)
    report = audit_axioms(topology, q, args.sieve_limit)
    lines = [f"topology: {topology.describe()}", f"passed: {report.passed}"]
    for name, result in (("GT1", report.gt1), ("GT2", report.gt2), ("GT3", report.gt3)):
        lines.append(f"  {name}: {'pass' if result.passed else 'FAIL'}")
        if not result.passed:
            lines.append(f"    counterexample: {result.counterexample}")
    _emit(qio.axiom_report_to_json(report), args.format, lines)
    return EXIT_HOLDS if report.passed else EXIT_FAILS


def cmd_check_sheaf(args) -> int:
    if not args.presheaf:
        raise qio.ParseError("check-sheaf needs at least one --presheaf")
    q = qio.load_quiver(args.quiver).require_valid()
    topology = TopologySpec.parse(args.topology)
    verdicts = []
    lines = []
    for path in args.presheaf:
        F = qio.load_presheaf(path, q)
        verdict = is_sheaf(F, topology, args.sieve_limit)
        verdicts.append({"presheaf": path, "verdict": qio.verdict_to_json(verdict)})
        if verdict.holds:
            lines.append(f"{path}: sheaf for {topology.describe()}")
        else:
            lines.append(
                f"{path}: NOT a sheaf; sieve {{{', '.join(verdict.failing_sieve.labels())}}} "
                f"on {verdict.vertex} ({verdict.diagnosis})"
            )
    all_hold = all(v["verdict"]["holds"] for v in verdicts)
    report = {"topology": topology.describe(), "results": verdicts, "holds": all_hold}
    _emit(report, args.format, lines)
    return EXIT_HOLDS if all_hold else EXIT_FAILS


def cmd_dualize(args) -> int:
    q = qio.load_quiver(args.quiver).require_valid()
    V = qio.load_representation(args.representation, q)
    out = qio.dumps_canonical(qio.presheaf_to_json(dualize(V)))
    if args.output == "-":
        sys.stdout.write(out)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(out)
    return EXIT_HOLDS


def cmd_functors(args) -> int:
    if len(args.presheaf) != 2:
        raise qio.ParseError("functors needs exactly two --presheaf files: F then G")
    q = qio.load_quiver(args.quiver).require_valid()
    F = qio.load_presheaf(args.presheaf[0], q)
    G = qio.load_presheaf(args.presheaf[1], q)
    adj = check_adjunction(F, G)

    literal = []
    for v in q.vertices:
        rep = left_adjoint_literal(F, v)
        literal.append(
            {"vertex": v, "dim": rep.dim, "comparison_is_iso": rep.comparison_is_iso}
        )

    monodromy: Optional[dict] = None
    if is_discrete_sheaf_criterion(F):
        trans = monodromy_report(F)
        monodromy = {
            "all_identity": trans.all_identity,
            "components": [
                {
                    "root": comp.root,
                    "tree_edges": list(comp.tree_edges),
                    "cycles": [
                        {
                            "edge": c.edge_id,
                            "base_vertex": c.base_vertex,
                            "is_identity": c.is_identity,
                            "matrix": qio.matrix_to_json(c.map.matrix),
                        }
                        for c in comp.cycles
                    ],
                }
                for comp in trans.components
            ],
        }

    report = {
        "adjunction": {
            "left_dim": adj.left_dim,
            "right_dim": adj.right_dim,
            "match": adj.match,
            "unit_spans": adj.unit_spans,
        },
        "pointwise_extension": literal,
        "monodromy": monodromy,
    }
    lines = [
        f"adjunction: left_dim={adj.left_dim} right_dim={adj.right_dim} match={adj.match}",
        "pointwise extension comparison per vertex:",
    ]
    for item in literal:
        lines.append(
            f"  {item['vertex']}: dim={item['dim']} iso={item['comparison_is_iso']}"
        )
    if monodromy is None:
        lines.append("monodromy: skipped (some restriction map is not invertible)")
    else:
        lines.append(f"monodromy all identity: {monodromy['all_identity']}")
        for comp in monodromy["components"]:
            for c in comp["cycles"]:
                lines.append(
                    f"  cycle at {c['base_vertex']} via {c['edge']}: "
                    f"{'identity' if c['is_identity'] else c['matrix']}"
                )
    _emit(report, args.format, lines)
    return EXIT_HOLDS if adj.match else EXIT_FAILS


_COMMANDS = {
    "validate": cmd_validate,
    "audit": cmd_audit,
    "check-sheaf": cmd_check_sheaf,
    "dualize": cmd_dualize,
    "functors": cmd_functors,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return EXIT_USAGE if exc.code else EXIT_HOLDS
    try:
        return _COMMANDS[args.command](args)
    except (qio.IoError, QuiverError, SieveError, PresheafError, NotDiscreteSheafError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
