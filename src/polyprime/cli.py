"""Batch command-line surface.

Exit codes: 0 success, 2 counterexample found, 3 budget exhausted (a
Prime verdict whose equality proof the budget cut short included),
4 input error (a usage error included).  The commands raise; :func:`main`
alone turns an exception into a message and an exit code.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .budget import Budget, BudgetExhausted, CounterexampleFound
from .classify import (
    closed_path_certificate,
    find_l_configurations,
    find_ladders,
    open_path_certificate,
    trimino_certificate,
)
from .families import enumerate_closed_paths, verify_main_theorem
from .grid import (
    Polyomino,
    format_shape_json,
    holes,
    inner_intervals,
    is_simple,
    parse_grid,
    parse_shape_json,
)
from .zigzag import find_zigzag_walk

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 2
EXIT_BUDGET = 3
EXIT_INPUT = 4


def _read_shape(path: str, fmt: str | None) -> Polyomino:
    if path == "-":
        text = sys.stdin.read()
        name = "<stdin>"
    else:
        text = Path(path).read_text()
        name = path
    chosen = fmt
    if chosen is None:
        chosen = "json" if name.endswith(".json") or text.lstrip().startswith("{") else "grid"
    if chosen == "json":
        return parse_shape_json(text)
    return parse_grid(text)


def _budget_from_args(args: argparse.Namespace) -> Budget:
    return Budget(
        max_pairs=args.budget_pairs,
        max_degree=args.budget_degree,
        max_seconds=args.budget_seconds,
    )


def _emit(args: argparse.Namespace, human: str, payload: dict) -> None:
    if args.json:
        print(json.dumps(payload, separators=(",", ":"), sort_keys=True))
    else:
        print(human)
    if args.output:
        Path(args.output).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )


def _cmd_classify(args: argparse.Namespace) -> int:
    shape = _read_shape(args.shape, args.format)
    cert = closed_path_certificate(shape)
    lconfigs = find_l_configurations(shape)
    ladders = find_ladders(shape, min_steps=args.min_steps)
    open_path = open_path_certificate(shape)
    trimino = trimino_certificate(shape)
    payload = {
        "rank": shape.rank,
        "simple": is_simple(shape),
        "holes": len(holes(shape)),
        "closed_path": None if cert is None else [list(c) for c in cert.cycle],
        "l_configurations": [[list(c) for c in l.cells] for l in lconfigs],
        "ladders": [
            {
                "orientation": l.orientation,
                "blocks": [[list(c) for c in b.cells] for b in l.blocks],
                "contacts": [[list(a), list(b)] for a, b in l.contacts],
            }
            for l in ladders
        ],
        "open_path": None if open_path is None else [list(c) for c in open_path.cells],
        "trimino": None
        if trimino is None
        else {
            "cells": [list(c) for c in trimino.cells],
            "hooking_vertices": [list(v) for v in trimino.hooking_vertices],
        },
        "inner_intervals": len(inner_intervals(shape)),
    }
    shape_kind = "simple" if payload["simple"] else f"{payload['holes']} hole(s)"
    closed = "yes" if cert else "no"
    human = (
        f"rank {payload['rank']}; {shape_kind}; closed path: {closed}; "
        f"L-configurations: {len(lconfigs)}; ladders(>= {args.min_steps}): {len(ladders)}"
    )
    _emit(args, human, payload)
    return EXIT_OK


def _cmd_zigzag(args: argparse.Namespace) -> int:
    shape = _read_shape(args.shape, args.format)
    witness = find_zigzag_walk(shape)
    if witness is None:
        _emit(args, "none", {"witness": None})
    else:
        _emit(args, f"zig-zag walk of length {witness.length}",
              {"witness": witness.to_json_dict()})
    return EXIT_OK


def _cmd_ideal(args: argparse.Namespace) -> int:
    from .ideals import export_generators, inner_minors, toric_map_marked, vertex_name, vertex_order
    from .toric import feature_marking, toric_ideal

    shape = _read_shape(args.shape, args.format)
    names = [vertex_name(v) for v in vertex_order(shape)]
    out = export_generators(names, inner_minors(shape))
    if args.toric:
        marked = ()
        if args.marked == "lconfig":
            # The L-configuration comes from the shape's own scan, so the map needs no re-check.
            marking = feature_marking(shape.cells, find_l_configurations(shape), ())
            if marking is None:
                raise ValueError("--marked lconfig needs an L-configuration, "
                                 "and the shape has none")
            marked = marking[0]
        phi = toric_map_marked(shape, marked)
        basis = toric_ideal(phi.entries, _budget_from_args(args), names)
        out += "\n" + export_generators(names, basis)
    sys.stdout.write(out)
    if args.output:
        Path(args.output).write_text(out)
    return EXIT_OK


def _verdict_exit(equality: str | None) -> int:
    """A verdict whose proof of I_P = ker(phi) the budget cut short exits as a budget stop."""
    return EXIT_BUDGET if equality == "containment-only" else EXIT_OK


def _cmd_certify(args: argparse.Namespace) -> int:
    from .toric import certify_primality

    shape = _read_shape(args.shape, args.format)
    verdict = certify_primality(shape, _budget_from_args(args))
    payload = verdict.to_json_dict()
    if verdict.kind == "prime":
        human = f"Prime ({verdict.proof}; equality={verdict.equality})"
    elif verdict.kind == "nonprime":
        human = f"NonPrime (zig-zag walk of length {verdict.witness.length})"
    else:
        human = f"Inconclusive ({verdict.reason})"
    _emit(args, human, payload)
    return _verdict_exit(verdict.equality)


def _cmd_enumerate(args: argparse.Namespace) -> int:
    count = 0
    for shape in enumerate_closed_paths(args.max_rank):
        count += 1
        print(format_shape_json(shape))
    print(f"total {count}", file=sys.stderr)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify_main_theorem(
        args.max_rank,
        _budget_from_args(args),
        jobs=args.jobs,
        certify=not args.no_certify,
        cache_dir=args.cache_dir,
    )
    text = report.to_json_lines()
    if args.output:
        Path(args.output).write_text(text)
    if args.json:
        sys.stdout.write(text)
    else:
        print(json.dumps(report.summary(), indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_family(args: argparse.Namespace) -> int:
    from .composites import certify_family, check_good_l_rectangle, parse_family_json

    text = Path(args.spec).read_text() if args.spec != "-" else sys.stdin.read()
    shape, spec = parse_family_json(text)
    payload: dict = {
        "kind": spec.kind,
        "cells": [list(c) for c in shape.sorted_cells()],
        "holes": len(holes(shape)),
    }
    if spec.kind == "good-l-rectangle":
        payload["good"] = check_good_l_rectangle(shape, spec)
    if not args.certify:
        _emit(args, f"{spec.kind}: valid, {payload['holes']} hole(s)", payload)
        return EXIT_OK
    verdict = certify_family(shape, spec, _budget_from_args(args))
    payload["verdict"] = verdict.to_json_dict()
    human = f"{spec.kind}: valid, {verdict.kind}"
    if verdict.kind == "prime":
        human += f" ({verdict.proof}; equality={verdict.equality})"
    _emit(args, human, payload)
    return _verdict_exit(verdict.equality)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_INPUT; argparse's own 2 means a counterexample here."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="polyprime",
        description="Classify lattice shapes and certify primality of their binomial ideals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shape = argparse.ArgumentParser(add_help=False)
    shape.add_argument("shape", help="shape file (text grid or JSON), '-' for stdin")
    shape.add_argument("--format", choices=("grid", "json"), default=None)
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--json", action="store_true", help="machine-readable stdout")
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--budget-pairs", type=int, default=None)
    budget.add_argument("--budget-degree", type=int, default=None)
    budget.add_argument("--budget-seconds", type=float, default=None)

    def command(name: str, func, about: str, *parents,
                output: str | None = None) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=list(parents), help=about)
        p.set_defaults(func=func)
        if output is not None:
            p.add_argument("--output", default=None, help=f"also write {output} to this file")
        return p

    payload = "the indented JSON payload"

    p = command("classify", _cmd_classify, "structure facts for a shape", shape, report,
                output=payload)
    p.add_argument("--min-steps", type=int, default=3, help="ladder step threshold")
    command("zigzag", _cmd_zigzag, "search for a zig-zag walk", shape, report, output=payload)
    p = command("ideal", _cmd_ideal, "export generators (and optionally the kernel basis)",
                shape, budget, output="the exported text")
    p.add_argument("--toric", action="store_true", help="also compute the kernel basis")
    p.add_argument("--marked", choices=("none", "lconfig"), default="none")
    command("certify", _cmd_certify, "primality verdict for a shape", shape, report, budget,
            output=payload)
    p = command("enumerate", _cmd_enumerate, "stream closed paths up to a rank bound")
    p.add_argument("--max-rank", type=int, required=True)
    p = command("verify", _cmd_verify, "run the exhaustive verification harness", report, budget,
                output="the JSON-lines report (one record per shape, then a summary line)")
    p.add_argument("--max-rank", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1, help="worker processes, at least 1")
    p.add_argument("--no-certify", action="store_true", help="structural checks only")
    p.add_argument("--cache-dir", default=None, help="content-addressed result cache")
    p = command("family", _cmd_family, "validate and certify a composite family instance",
                report, budget, output=payload)
    p.add_argument("spec", help="family spec JSON, '-' for stdin")
    p.add_argument("--certify", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExhausted as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except CounterexampleFound as exc:
        print(f"counterexample: {exc}", file=sys.stderr)
        return EXIT_COUNTEREXAMPLE


if __name__ == "__main__":
    sys.exit(main())
