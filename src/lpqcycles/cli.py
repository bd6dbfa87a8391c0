"""Command-line front end.

Subcommands: lambda (span of a product of cycles), construct (build a
certificate labeling), verify (validate a labeling document), lemmas (run
the local diagonality checks), pattern (search cyclic patterns), decompose
(two-generator semigroup membership).

Human-readable text goes to standard output; --out writes the JSON
documents.  Exit codes: 0 success / valid / holds, 1 invalid labeling or
counterexample found, 2 usage or range error, 3 search budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import gcd

from .graphs import ProductKind, oriented_cycle
from .labelings import (
    Labeling,
    _load_document,
    _parse_labeling,
    labeling_document,
    torus_violations,
    validate,
)
from .lambda_numbers import (
    CheckReport,
    _DICHOTOMY,
    construction,
    lambda_cartesian,
    lambda_strong,
    verify_lemma_cartesian_local,
    verify_lemma_strong_local,
)
from .patterns import _feasible_words, conditions_for, exists_cycle_pattern, semigroup_decompose
from .solver import DEFAULT_BUDGET, BudgetExhausted, SolveBudget


def _budget(args: argparse.Namespace) -> SolveBudget:
    return SolveBudget(max_nodes=args.budget_nodes)


def _grid_text(f: Labeling) -> str:
    """Color matrix with row i shifted right by i cells, so the constant
    anti-diagonals of a diagonal labeling line up as columns."""

    grid = f.color_grid()
    width = len(str(int(grid.max()))) + 1
    lines = []
    for i, row in enumerate(grid):
        lines.append(" " * (i * width) + "".join(str(int(c)).rjust(width) for c in row))
    return "\n".join(lines)


def _write_doc(path: str, doc: object) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(doc, fp, indent=1)
        fp.write("\n")


def _cmd_lambda(args: argparse.Namespace) -> int:
    kind = ProductKind(args.product)
    fn = lambda_cartesian if kind is ProductKind.CARTESIAN else lambda_strong
    res = fn(args.m, args.n, solve=args.solve, budget=_budget(args))
    if args.out:
        if res.witness is not None:
            _write_doc(args.out, labeling_document(res.witness))
        else:
            check = f"lambda-{kind.value}-{args.m}x{args.n}-in-{res.lo}..{res.hi}"
            _write_doc(args.out, CheckReport(check, True, 0, None).to_document())
    if res.is_exact:
        print(f"Exact {res.lo}")
    else:
        print(f"Interval {res.lo} {res.hi}")
    print(f"certificate: {res.certificate.value}")
    print(f"note: {res.note}")
    return 0


def _cmd_construct(args: argparse.Namespace) -> int:
    built = construction(ProductKind(args.product), args.m, args.n, _budget(args))
    if built is None:
        d = gcd(args.m, args.n)
        raise ValueError(f"no lifted construction: gcd({args.m}, {args.n}) = {d}")
    word, f = built
    if args.max_span is not None and f.k_budget > args.max_span:
        raise ValueError(f"construction needs span {f.k_budget} > limit {args.max_span}")
    doc = labeling_document(f, pattern=word.colors)
    if args.out:
        _write_doc(args.out, doc)
    print(json.dumps(doc, indent=1) if args.format == "json" else _grid_text(f))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    with open(args.file, encoding="utf-8") as fp:
        f, params = _parse_labeling(_load_document(fp))
    if f.shape is None:
        bad = validate(oriented_cycle(f.n_vertices), f, params)
    else:
        bad = torus_violations(f.shape.kind, f.color_grid(), params)
    if not bad:
        print(f"valid: {f.n_vertices} vertices, budget {f.k_budget}, no violations")
        return 0
    for v in bad:
        u, w = v.pair
        print(
            f"{v.kind.value}: vertices {u} and {w} have colors {v.labels[0]} "
            f"and {v.labels[1]}, need gap >= {v.required}"
        )
    print(f"invalid: {len(bad)} violated constraints")
    return 1


def _cmd_lemmas(args: argparse.Namespace) -> int:
    if args.parallel < 1:
        raise ValueError("--parallel must be positive")
    runs = []
    if args.which in ("cartesian-local", "all"):
        runs.append(verify_lemma_cartesian_local(span=args.span, budget=_budget(args)))
    if args.which in ("strong-local", "all"):
        runs.append(verify_lemma_strong_local(span=args.span, budget=_budget(args)))
    if args.out:
        docs = [rep.to_document() for rep in runs]
        _write_doc(args.out, docs[0] if len(docs) == 1 else docs)
    for rep in runs:
        print(f"{rep.check}: holds={str(rep.holds).lower()} labelings={rep.count}")
    return 0 if all(rep.holds for rep in runs) else 1


def _cmd_pattern(args: argparse.Namespace) -> int:
    kind = ProductKind(args.product)
    conds = conditions_for(kind)
    if args.conditions is not None:
        conds = tuple(map(int, args.conditions.split(","))) if args.conditions else ()
    span = _DICHOTOMY[kind][1] if args.span is None else args.span

    if args.feasible_up_to is not None:
        feasible = list(_feasible_words(args.feasible_up_to, span, conds))
        if args.out:
            check = f"pattern-span-{span}-feasible-lengths"
            report = CheckReport(check, bool(feasible), len(feasible), feasible)
            _write_doc(args.out, report.to_document())
        print("feasible lengths:", " ".join(map(str, feasible)) if feasible else "none")
        return 0

    if args.length is None:
        raise ValueError("pattern needs --length (or --feasible-up-to)")
    pat = exists_cycle_pattern(args.length, span, conds)
    if pat is None:
        print(f"no pattern of length {args.length} at span {span} for {conds}")
        return 1
    if args.out:
        check = f"pattern-length-{args.length}-span-{span}"
        _write_doc(args.out, CheckReport(check, True, 1, list(pat.colors)).to_document())
    print(" ".join(map(str, pat.colors)))
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    try:
        a_gen, b_gen = (int(x) for x in args.gens.split(","))
    except ValueError:
        raise ValueError("--gens takes two comma-separated integers") from None
    dec = semigroup_decompose(args.target, a_gen, b_gen)
    if dec is None:
        print(f"{args.target} is not representable over {{{a_gen}, {b_gen}}}")
        return 1
    print(f"{dec.target} = {dec.a}*{dec.m} + {dec.b}*{dec.n}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="lpqcycles",
        description="Exact L(p,q)-labelings of oriented cycles and their products.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, product: bool = True) -> None:
        if product:
            p.add_argument("--product", choices=["cartesian", "strong"], required=True)
            p.add_argument("--m", type=int, required=True)
            p.add_argument("--n", type=int, required=True)
        p.add_argument("--budget-nodes", type=int, default=DEFAULT_BUDGET.max_nodes)
        p.add_argument("--out", metavar="FILE")

    p = sub.add_parser("lambda", help="span of a product of two oriented cycles")
    add_common(p)
    p.add_argument("--solve", action="store_true",
                   help="run the exact solver below the dichotomy range")
    p.set_defaults(fn=_cmd_lambda)

    p = sub.add_parser("construct", help="build and print a certificate labeling")
    add_common(p)
    p.add_argument("--max-span", type=int, default=None)
    p.add_argument("--format", choices=["json", "grid"], default="grid")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("verify", help="validate a labeling document")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("lemmas", help="run the local diagonality checks")
    p.add_argument("--which", choices=["cartesian-local", "strong-local", "all"],
                   default="all")
    p.add_argument("--span", type=int, default=None)
    p.add_argument("--parallel", type=int, default=1, metavar="WORKERS",
                   help="no-op: must be at least 1; every check runs in this "
                        "process (kept until bench/ stops passing it)")
    add_common(p, product=False)
    p.set_defaults(fn=_cmd_lemmas)

    p = sub.add_parser("pattern", help="search cyclic color patterns")
    p.add_argument("--length", type=int, default=None)
    p.add_argument("--span", type=int, default=None,
                   help="defaults to the --product's window span (4 cartesian, 6 strong)")
    p.add_argument("--conditions", help="comma-separated gaps, e.g. 2,2,1,1")
    p.add_argument("--product", choices=["cartesian", "strong"], default="cartesian",
                   help="defaults --conditions to this product's vector")
    p.add_argument("--feasible-up-to", type=int, default=None, metavar="D",
                   help="scan lengths 3..D (D >= 3) instead of one --length")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(fn=_cmd_pattern)

    p = sub.add_parser("decompose", help="two-generator semigroup decomposition")
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--gens", default="7,8", help="comma-separated generators")
    p.set_defaults(fn=_cmd_decompose)

    return top


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, MemoryError, OverflowError) as exc:
        # a MemoryError may carry no message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except BudgetExhausted as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
