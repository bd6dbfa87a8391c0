"""The three workloads: seeded inputs, the call each input makes, and its check.

A workload hands out rounds.  Round r of seed s is always the same list of
calls, drawn from random.Random(f"<workload>/<s>/<r>"), so a traced and an
untraced pass can replay it.  Each call is made through the package's
module attributes at call time, so the tracer's wrappers see it.  A check
runs after its call, outside the timed region, and returns None or a reason.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import cache
from math import gcd
from pathlib import Path
from random import Random
from typing import Callable

import check


@dataclass
class Call:
    group: str
    cells: int  # sum of m * n over the tori or grids the call works on
    run: Callable[[], object]
    check: Callable[[object], str | None]
    prepare: Callable[[], None] | None = None


def _seven(m: int, n: int) -> bool:
    return m % 7 == 0 and n % 7 == 0


# The rows of the README's divisibility table: (product, side floor, condition).
CLASSES: dict[str, tuple[str, int, Callable[[int, int], bool]]] = {
    "cartesian-gcd>=3": ("cartesian", 40, lambda m, n: gcd(m, n) >= 3),
    "cartesian-gcd<=2": ("cartesian", 40, lambda m, n: gcd(m, n) <= 2),
    "strong-7|both": ("strong", 48, _seven),
    "strong-gcd>=42": ("strong", 48, lambda m, n: gcd(m, n) >= 42 and not _seven(m, n)),
    "strong-interval": ("strong", 48, lambda m, n: gcd(m, n) < 42 and not _seven(m, n)),
}
SIDE_MAX = 240
SHAPE_TOLERANCE = 0.04

# Sides stay far below the dispatch's full-check cutoff (2 M cells): above
# it a lift is returned without being re-validated, and timing such a call
# measures a different program.  A constructed answer that says so is a
# failed call (check.UNCHECKED_LIFT), whatever the cutoff becomes.
#
# Each round makes one constructed call per row and cell-count target, and
# one call of each non-constructive row (which take well under a
# millisecond) at a target the seed picks.  A strong torus costs about
# twice a Cartesian one per cell, so Cartesian targets are doubled: each
# target gives three calls of similar cost, and the median call falls
# inside the second-cheapest such group, not on the edge between two.
STRONG_TARGETS = (2500, 6000, 12000, 20000)
CALLS_PER_ROUND = {
    "cartesian-gcd>=3": 4, "cartesian-gcd<=2": 1, "strong-7|both": 4,
    "strong-gcd>=42": 4, "strong-interval": 1,
}
CLI_TARGET = 72 * 72

@cache
def shapes(cls: str, target: int) -> list[tuple[int, int]]:
    """Tori of a table row whose cell count is within SHAPE_TOLERANCE of the
    target.  Holding the cell count and drawing the shape keeps a round's
    work nearly independent of the seed."""
    _product, floor, cond = CLASSES[cls]
    sides = range(floor, SIDE_MAX + 1)
    return [(m, n) for m in sides for n in sides
            if abs(m * n - target) <= SHAPE_TOLERANCE * target and cond(m, n)]


def _dispatch(lpq, product: str):
    return lpq.lambda_cartesian if product == "cartesian" else lpq.lambda_strong


class Certify:
    """lambda_cartesian / lambda_strong above the floors, rotating through
    the five table rows in the proportion CALLS_PER_ROUND."""

    def __init__(self, lpq, seed: int, workdir: Path) -> None:
        self.lpq, self.seed = lpq, seed

    def calls(self, r: int) -> list[Call]:
        rng = Random(f"certify/{self.seed}/{r}")
        order = {cls: rng.sample(STRONG_TARGETS, count) for cls, count in CALLS_PER_ROUND.items()}
        out = []
        for slot in range(len(STRONG_TARGETS)):
            for cls, (product, _floor, _cond) in CLASSES.items():
                if slot < CALLS_PER_ROUND[cls]:
                    target = order[cls][slot] * (2 if product == "cartesian" else 1)
                    m, n = rng.choice(shapes(cls, target))
                    out.append(self._call(cls, product, m, n))
        return out

    def _call(self, cls: str, product: str, m: int, n: int) -> Call:
        lpq = self.lpq
        return Call(
            cls, m * n,
            lambda: _dispatch(lpq, product)(m, n),
            lambda res: check.lambda_result_error(product, m, n, res),
        )


# Tori below the dichotomy floors that settle within SOLVE_NODES nodes per
# span, with the span the exact solver returned when this list was made.
# The backtracker's cost depends on orientation (strong 3x9 takes ~150
# times as long as 9x3), so each entry is an oriented (rows, cols) pair.
SOLVE_NODES = 3_000_000
SOLVE_HEAVY = (("strong", 3, 9, 8), ("strong", 7, 8, 8))
SOLVE_MEDIUM = (
    ("strong", 3, 4, 11), ("strong", 4, 3, 11), ("strong", 6, 7, 8),
    ("strong", 6, 5, 9), ("strong", 8, 6, 8), ("strong", 7, 6, 8),
    ("cartesian", 5, 7, 6), ("cartesian", 7, 5, 6), ("cartesian", 4, 9, 6),
    ("cartesian", 9, 4, 6),
)
SOLVE_LIGHT = (
    ("strong", 3, 3, 10), ("strong", 4, 4, 9), ("strong", 5, 5, 8),
    ("strong", 6, 6, 7), ("strong", 7, 7, 6), ("strong", 8, 8, 7),
    ("strong", 9, 3, 8), ("strong", 6, 3, 9), ("strong", 5, 4, 9),
    ("cartesian", 3, 3, 4), ("cartesian", 3, 4, 6), ("cartesian", 3, 5, 5),
    ("cartesian", 3, 7, 6), ("cartesian", 3, 8, 5), ("cartesian", 4, 5, 6),
    ("cartesian", 4, 6, 6), ("cartesian", 4, 7, 6), ("cartesian", 5, 6, 5),
    ("cartesian", 5, 8, 5), ("cartesian", 5, 9, 5), ("cartesian", 6, 8, 5),
    ("cartesian", 7, 4, 6), ("cartesian", 8, 9, 5), ("cartesian", 9, 9, 4),
)
SOLVE_LIGHT_PER_ROUND = 8
# (product, rows, cols, span, workers, labelings): the counts the tests pin
SOLVE_COUNTS = (
    ("cartesian", 3, 3, 5, 1, 1088),
    ("strong", 4, 4, 6, 1, 180),
    ("strong", 4, 4, 7, 1, 29444),
    ("strong", 4, 4, 7, 2, 29444),
)
L2211_MAX = 30


class Solve:
    """The exact solver and the word search.  Every round runs the heavy and
    medium tori and draws a sample of the light ones; the seed also orders
    the calls and picks the entry point of each torus (lambda_*(solve=True)
    or exact_lambda), so the work per round barely depends on it."""

    def __init__(self, lpq, seed: int, workdir: Path) -> None:
        self.lpq, self.seed = lpq, seed
        self.budget = lpq.SolveBudget(max_nodes=SOLVE_NODES)

    def calls(self, r: int) -> list[Call]:
        rng = Random(f"solve/{self.seed}/{r}")
        tori = list(SOLVE_HEAVY + SOLVE_MEDIUM)
        tori += rng.sample(SOLVE_LIGHT, SOLVE_LIGHT_PER_ROUND)
        out = [self._torus(rng.random() < 0.5, *t) for t in tori]
        out += [self._count(*c) for c in SOLVE_COUNTS]
        out.append(self._l2211())
        rng.shuffle(out)
        return out

    def _torus(self, via_dispatch: bool, product: str, m: int, n: int, span: int) -> Call:
        lpq, budget = self.lpq, self.budget
        kind = lpq.ProductKind(product)

        def run():
            if via_dispatch:
                res = _dispatch(lpq, product)(m, n, solve=True, budget=budget)
                return res.lo, res.witness, res.certificate.value
            res = lpq.exact_lambda(lpq.torus(kind, m, n), budget=budget)
            return res.value, res.witness, check.CONSTRUCTED

        def verdict(out) -> str | None:
            value, witness, cert = out
            if cert != check.CONSTRUCTED:
                return f"solver answer certified as {cert}"
            return check.solved_error(product, m, n, value, witness, span)

        return Call(f"torus-{'dispatch' if via_dispatch else 'exact'}", m * n, run, verdict)

    def _count(self, product: str, m: int, n: int, k: int, workers: int, expected: int) -> Call:
        lpq, budget = self.lpq, self.budget
        kind = lpq.ProductKind(product)
        return Call(
            "count" if workers == 1 else "count-parallel", m * n,
            lambda: lpq.count_labelings(lpq.grid(kind, m, n), k, budget=budget, workers=workers),
            lambda got: None if got == expected else
            f"{product} {m}x{n} grid at span {k}: {got} labelings, expected {expected}",
        )

    def _l2211(self) -> Call:
        lpq = self.lpq

        def verdict(found) -> str | None:
            lengths = sorted(found)
            if lengths != list(range(7, L2211_MAX + 1, 7)):
                return f"feasible lengths {lengths} are not the multiples of 7"
            for pat in found.values():
                err = check.pattern_error(pat.colors, 6, (2, 2, 1, 1))
                if err:
                    return err
            return None

        return Call("word-search", 0, lambda: lpq.verify_l2211_periodicity(L2211_MAX), verdict)


class Cli:
    """One `python -m lpqcycles` at a time: construct, verify of the
    documents and of corrupted copies, lambda --out for every table row,
    lemmas on a pool of two workers, and a malformed input.  With
    in_process the same argv lists go to lpqcycles.cli.main instead, each
    after emptying the per-process caches, as a fresh process finds them."""

    def __init__(self, lpq, seed: int, workdir: Path, in_process: bool = False) -> None:
        self.lpq, self.seed, self.dir = lpq, seed, workdir
        self.in_process = in_process
        self.missing: list[str] = []
        if in_process:
            import lpqcycles.cli  # noqa: F401  (cli is not imported by the package)

    def _invoke(self, argv: list[str]) -> tuple[int, str]:
        if not self.in_process:
            proc = subprocess.run(
                [sys.executable, "-m", "lpqcycles", *argv], cwd=self.dir,
                capture_output=True, text=True, timeout=150,
            )
            return proc.returncode, proc.stdout
        numbers = self.lpq.lambda_numbers
        for cache in ("_lemma_cache", "_subgraph_cache"):
            if hasattr(numbers, cache):
                getattr(numbers, cache).clear()
            elif f"lambda_numbers.{cache}" not in self.missing:
                self.missing.append(f"lambda_numbers.{cache}")
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                code = self.lpq.cli.main(argv)
            except SystemExit as exc:  # argparse rejects malformed usage this way
                code = exc.code
        return code, out.getvalue()

    def _call(self, group: str, cells: int, argv: list[str], verdict, prepare=None) -> Call:
        def run():
            return self._invoke([str(a) for a in argv])

        def checked(out) -> str | None:
            code, stdout = out
            return verdict(code, stdout.splitlines())

        return Call(group, cells, run, checked, prepare)

    def calls(self, r: int) -> list[Call]:
        rng = Random(f"cli/{self.seed}/{r}")
        d = self.dir
        out = []
        docs = {}
        for product, cls in (("cartesian", "cartesian-gcd>=3"),
                             ("strong", rng.choice(["strong-7|both", "strong-gcd>=42"]))):
            m, n = rng.choice(shapes(cls, CLI_TARGET))
            doc = d / f"construct-{product}.json"
            span = check.expected_answer(product, m, n)[0]
            docs[product] = (doc, m, n, span)
            out.append(self._call(
                "construct", m * n,
                ["construct", "--product", product, "--m", m, "--n", n, "--out", doc],
                _construct_verdict(doc, product, m, n, span),
            ))
        for product, (doc, m, n, span) in docs.items():
            out.append(self._call(
                "verify", m * n, ["verify", doc],
                _verify_valid_verdict(m * n, span),
            ))
        for product, (doc, m, n, span) in docs.items():
            bad = d / f"corrupt-{product}.json"
            expected: dict = {}
            out.append(self._call(
                "verify-corrupt", m * n, ["verify", bad],
                _verify_corrupt_verdict(expected),
                _corrupt(doc, bad, product, Random(f"cli/{self.seed}/{r}/{product}"), expected),
            ))
        for cls, (product, _floor, _cond) in CLASSES.items():
            m, n = rng.choice(shapes(cls, CLI_TARGET))
            doc = d / f"lambda-{len(out)}.json"
            out.append(self._call(
                "lambda", m * n,
                ["lambda", "--product", product, "--m", m, "--n", n, "--out", doc],
                _lambda_verdict(doc, product, m, n),
            ))
        lemmas_doc = d / "lemmas.json"
        out.append(self._call("lemmas", 9 + 16,
                              ["lemmas", "--parallel", 2, "--out", lemmas_doc],
                              _lemmas_verdict(lemmas_doc)))
        out.append(self._call("malformed", 0, _malformed(rng, d), _malformed_verdict))
        return out


def _read(doc: Path):
    with open(doc, encoding="utf-8") as fp:
        return json.load(fp)


def _document_error(doc: dict, product: str, m: int, n: int, span: int) -> str | None:
    head = {key: doc.get(key) for key in ("product", "m", "n", "p", "q", "k")}
    want = {"product": product, "m": m, "n": n, "p": check.P, "q": check.Q, "k": span}
    if head != want:
        return f"document header {head}, expected {want}"
    return check.torus_labeling_error(product, m, n, doc.get("labels"), span)


def _construct_verdict(doc: Path, product: str, m: int, n: int, span: int):
    def verdict(code: int, lines: list[str]) -> str | None:
        if code != 0:
            return f"construct exited {code}"
        body = _read(doc)
        err = _document_error(body, product, m, n, span)
        if err:
            return err
        pattern = body.get("pattern")
        conds = (2, 1) if product == "cartesian" else (2, 2, 1, 1)
        if not pattern or check.pattern_error(pattern, span, conds):
            return "construct document lacks a valid base pattern"
        labels = body["labels"]
        width = len(str(max(max(row) for row in labels))) + 1
        first = "".join(str(c).rjust(width) for c in labels[0])
        if not lines or lines[0] != first:
            return "construct printed another first grid row"
        return None

    return verdict


def _verify_valid_verdict(cells: int, span: int):
    want = f"valid: {cells} vertices, budget {span}, no violations"

    def verdict(code: int, lines: list[str]) -> str | None:
        if code != 0 or lines[:1] != [want]:
            return f"verify of a valid document: exit {code}, first line {lines[:1]}"
        return None

    return verdict


def _corrupt(doc: Path, bad: Path, product: str, rng: Random, expected: dict):
    """Recolor about 1% of the cells of a constructed document at random
    and record the violations an independent check finds in the result."""

    def prepare() -> None:
        body = _read(doc)
        labels, k = body["labels"], body["k"]
        m, n = len(labels), len(labels[0])
        for cell in rng.sample(range(m * n), max(20, m * n // 100)):
            i, j = divmod(cell, n)
            labels[i][j] = rng.choice([c for c in range(k + 1) if c != labels[i][j]])
        with open(bad, "w", encoding="utf-8") as fp:
            json.dump(body, fp)
        flat = [c for row in labels for c in row]
        bad_pairs = check.torus_violations(product, labels)
        u, w, gap, is_edge = bad_pairs[0]
        expected["first"] = (
            f"{'edge-gap' if is_edge else 'two-step-gap'}: vertices {u} and {w} have "
            f"colors {flat[u]} and {flat[w]}, need gap >= {gap}"
        )
        expected["last"] = f"invalid: {len(bad_pairs)} violated constraints"

    return prepare


def _verify_corrupt_verdict(expected: dict):
    def verdict(code: int, lines: list[str]) -> str | None:
        if code != 1:
            return f"verify of a corrupted document exited {code}"
        if lines[:1] != [expected["first"]] or lines[-1:] != [expected["last"]]:
            return f"verify reported {lines[:1]} ... {lines[-1:]}, expected {expected}"
        return None

    return verdict


def _lambda_verdict(doc: Path, product: str, m: int, n: int):
    lo, hi, cert = check.expected_answer(product, m, n)

    def verdict(code: int, lines: list[str]) -> str | None:
        first = f"Exact {lo}" if lo == hi else f"Interval {lo} {hi}"
        if code != 0 or lines[:2] != [first, f"certificate: {cert}"]:
            return f"lambda {product} {m}x{n}: exit {code}, printed {lines[:2]}"
        body = _read(doc)
        if cert == check.CONSTRUCTED:
            return _document_error(body, product, m, n, lo)
        want = {"check": f"lambda-{product}-{m}x{n}-in-{lo}..{hi}", "holds": True,
                "count": 0, "witness": None}
        return None if body == want else f"lambda document {body}, expected {want}"

    return verdict


def _lemmas_verdict(doc: Path):
    want = [("cartesian-local-diagonality-span-4", 44), ("strong-local-diagonality-span-6", 180)]

    def verdict(code: int, lines: list[str]) -> str | None:
        first = f"{want[0][0]}: holds=true labelings={want[0][1]}"
        if code != 0 or lines[:1] != [first]:
            return f"lemmas: exit {code}, first line {lines[:1]}"
        got = [(rep["check"], rep["count"]) for rep in _read(doc)
               if rep["holds"] is True and rep["witness"] is None]
        return None if got == want else f"lemmas document reports {got}"

    return verdict


def _malformed(rng: Random, d: Path) -> list:
    which = rng.randrange(5)
    if which == 0:
        bad = d / "not-json.json"
        bad.write_text("{labels: [[0, 2,", encoding="utf-8")
        return ["verify", bad]
    if which == 1:
        bad = d / "no-labels.json"
        bad.write_text('{"product": "strong", "m": 7, "n": 7, "p": 2, "q": 1, "k": 6}',
                       encoding="utf-8")
        return ["verify", bad]
    if which == 2:
        return ["lambda", "--product", "strong", "--m", rng.randrange(3, 48), "--n", 60]
    if which == 3:
        return ["construct", "--product", "cartesian", "--m", 41, "--n", 43]
    return ["lambda", "--product", "hexagonal", "--m", 50, "--n", 50]


def _malformed_verdict(code: int, lines: list[str]) -> str | None:
    if code != 2 or lines:
        return f"malformed input: exit {code}, stdout {lines[:1]}"
    return None


WORKLOADS = {"certify": Certify, "solve": Solve, "cli": Cli}
