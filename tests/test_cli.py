import json
import os
import shlex
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest

from lpqcycles import (
    CertificateKind,
    cli,
    labelings,
    lambda_cartesian,
    lambda_numbers,
    lambda_strong,
)
from lpqcycles.cli import _build_parser, main

ROOT = Path(__file__).resolve().parent.parent


def run(*argv, capsys):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# --- lambda ------------------------------------------------------------------

def test_lambda_strong_exact_with_witness_doc(tmp_path, capsys):
    out = tmp_path / "lab.json"
    code, text, _ = run(
        "lambda", "--product", "strong", "--m", "49", "--n", "56",
        "--out", str(out), capsys=capsys,
    )
    assert code == 0
    assert "Exact 6" in text
    assert "certificate: constructed" in text
    doc = json.loads(out.read_text())
    assert list(doc)[:7] == ["product", "m", "n", "p", "q", "k", "labels"]
    assert (doc["product"], doc["m"], doc["n"], doc["k"]) == ("strong", 49, 56, 6)

    code, text, _ = run("verify", str(out), capsys=capsys)
    assert code == 0
    assert text.startswith("valid:")


@pytest.mark.parametrize(
    "product,m,n,answer,certificate,check",
    [
        pytest.param("cartesian", 41, 40, "Exact 5", "cited-upper-verified-lower",
                     "lambda-cartesian-41x40-in-5..5", id="cartesian-41x40"),
        pytest.param("strong", 48, 50, "Interval 7 8", "interval-cited",
                     "lambda-strong-48x50-in-7..8", id="strong-48x50"),
    ],
)
def test_lambda_cited_result_writes_report_doc(
    tmp_path, capsys, product, m, n, answer, certificate, check
):
    out = tmp_path / "rep.json"
    code, text, _ = run(
        "lambda", "--product", product, "--m", str(m), "--n", str(n),
        "--out", str(out), capsys=capsys,
    )
    assert code == 0
    assert answer in text
    assert f"certificate: {certificate}" in text
    doc = json.loads(out.read_text())
    assert list(doc) == ["check", "holds", "count", "witness"]
    assert doc["holds"] is True and doc["witness"] is None
    assert check == doc["check"]


def test_lambda_interval(capsys):
    code, text, _ = run(
        "lambda", "--product", "strong", "--m", "48", "--n", "50", capsys=capsys
    )
    assert code == 0
    assert "Interval 7 8" in text
    assert "certificate: interval-cited" in text


def test_lambda_below_range_needs_solve(capsys):
    code, _, err = run(
        "lambda", "--product", "cartesian", "--m", "5", "--n", "5", capsys=capsys
    )
    assert code == 2
    assert err.startswith("error:")
    code, text, _ = run(
        "lambda", "--product", "cartesian", "--m", "5", "--n", "5", "--solve",
        capsys=capsys,
    )
    assert code == 0
    assert "Exact 4" in text


def test_lambda_budget_exhaustion_is_exit_3(capsys):
    code, _, err = run(
        "lambda", "--product", "strong", "--m", "7", "--n", "7", "--solve",
        "--budget-nodes", "5", capsys=capsys,
    )
    assert code == 3
    assert "budget exhausted" in err
    # --parallel is a no-op and leaves the budget to run out as without it
    code, _, err = run(
        "lemmas", "--parallel", "2", "--budget-nodes", "10", capsys=capsys,
    )
    assert code == 3
    assert "budget exhausted" in err
    # the window lemma's count and breaker search fit 700 nodes each but
    # not together
    code, _, err = run(
        "lemmas", "--which", "strong-local", "--budget-nodes", "700", capsys=capsys,
    )
    assert code == 3
    assert "budget exhausted" in err


# --- construct ---------------------------------------------------------------

def test_construct_grid_output_is_antidiagonally_aligned(capsys):
    code, text, _ = run(
        "construct", "--product", "cartesian", "--m", "40", "--n", "45",
        capsys=capsys,
    )
    assert code == 0
    lines = text.splitlines()
    assert len(lines) == 40
    rows = [[int(c) for c in line.split()] for line in lines]
    assert all(len(r) == 45 for r in rows)
    for i in range(39):
        assert rows[i + 1][:-1] == rows[i][1:]
    width = 2
    for i, line in enumerate(lines):
        pad = len(line) - len(line.lstrip(" "))
        assert pad == i * width + 1


def test_construct_roundtrip_through_verify(tmp_path, capsys):
    out = tmp_path / "c.json"
    code, _, _ = run(
        "construct", "--product", "strong", "--m", "49", "--n", "49",
        "--out", str(out), capsys=capsys,
    )
    assert code == 0
    doc = json.loads(out.read_text())
    # the base word has length gcd(m, n)
    assert doc["pattern"] == [0, 2, 4, 6, 1, 3, 5] * 7
    code, text, _ = run("verify", str(out), capsys=capsys)
    assert code == 0 and "no violations" in text


def test_construct_json_format(capsys):
    code, text, _ = run(
        "construct", "--product", "cartesian", "--m", "42", "--n", "42",
        "--format", "json", capsys=capsys,
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["k"] == 4
    assert len(doc["labels"]) == 42 and all(len(row) == 42 for row in doc["labels"])


def test_construct_json_stdout_is_the_out_document(tmp_path, capsys):
    out = tmp_path / "c.json"
    code, text, _ = run(
        "construct", "--product", "strong", "--m", "49", "--n", "49",
        "--format", "json", "--out", str(out), capsys=capsys,
    )
    assert code == 0
    assert text == out.read_text()
    assert json.loads(text)["pattern"] == [0, 2, 4, 6, 1, 3, 5] * 7


def test_construct_refuses_when_no_lift_exists(capsys):
    code, _, err = run(
        "construct", "--product", "cartesian", "--m", "41", "--n", "40",
        capsys=capsys,
    )
    assert code == 2
    assert "gcd(41, 40) = 1" in err


@pytest.mark.parametrize(
    "product,m,n",
    [
        # one torus per row of the README table
        ("cartesian", 40, 45),
        ("cartesian", 41, 40),
        ("strong", 49, 56),
        ("strong", 90, 135),
        ("strong", 48, 50),
        # gcd 15, 16 and 30 are sums of 7s and 8s but below 42: the
        # dispatch lifts nothing there, so construct must not either
        ("strong", 60, 75),
        ("strong", 48, 80),
        ("strong", 60, 90),
    ],
)
def test_construct_builds_exactly_the_constructed_certificates(capsys, product, m, n):
    res = (lambda_cartesian if product == "cartesian" else lambda_strong)(m, n)
    code, text, err = run(
        "construct", "--product", product, "--m", str(m), "--n", str(n),
        "--format", "json", capsys=capsys,
    )
    if res.certificate is CertificateKind.CONSTRUCTED:
        assert code == 0
        doc = json.loads(text)
        assert doc["k"] == res.value == res.witness.k_budget
        assert doc["labels"] == res.witness.color_grid().tolist()
    else:
        assert code == 2 and text == ""
        assert f"no lifted construction: gcd({m}, {n}) = {gcd(m, n)}" in err


def test_construct_max_span_guard(capsys):
    code, _, err = run(
        "construct", "--product", "cartesian", "--m", "40", "--n", "45",
        "--max-span", "3", capsys=capsys,
    )
    assert code == 2
    assert "span 4" in err


def test_construct_budget_limits_the_word_search(capsys):
    code, text, err = run(
        "construct", "--product", "strong", "--m", "49", "--n", "49",
        "--budget-nodes", "1", capsys=capsys,
    )
    assert code == 3 and text == ""
    assert "budget exhausted" in err


# --- verify ------------------------------------------------------------------

def test_verify_flags_each_violation(tmp_path, capsys):
    out = tmp_path / "bad.json"
    code, _, _ = run(
        "construct", "--product", "cartesian", "--m", "42", "--n", "42",
        "--out", str(out), capsys=capsys,
    )
    assert code == 0
    doc = json.loads(out.read_text())
    doc["labels"][0] = doc["labels"][1]  # duplicate a row: every column edge breaks
    out.write_text(json.dumps(doc))
    code, text, _ = run("verify", str(out), capsys=capsys)
    assert code == 1
    assert "invalid:" in text
    assert "need gap >=" in text


def _cycle_doc(path, labels):
    path.write_text(json.dumps({"product": "none", "m": 1, "n": len(labels), "p": 2,
                                "q": 1, "k": 4, "labels": [labels]}))
    return str(path)


def test_verify_single_cycle(tmp_path, capsys):
    # a "none" document is checked through the constraint pair map of the cycle
    code, text, _ = run("verify", _cycle_doc(tmp_path / "ok.json", [0, 2, 4, 1, 3]),
                        capsys=capsys)
    assert (code, text) == (0, "valid: 5 vertices, budget 4, no violations\n")
    code, text, _ = run("verify", _cycle_doc(tmp_path / "bad.json", [0, 2, 4, 3, 1]),
                        capsys=capsys)
    assert (code, text) == (1, (
        "edge-gap: vertices 0 and 4 have colors 0 and 1, need gap >= 2\n"
        "edge-gap: vertices 2 and 3 have colors 4 and 3, need gap >= 2\n"
        "invalid: 2 violated constraints\n"
    ))
    code, text, err = run("verify", _cycle_doc(tmp_path / "short.json", [0, 2]),
                          capsys=capsys)
    assert (code, text, err) == (2, "", "error: oriented cycle needs at least 3 vertices, got 2\n")


def test_verify_builds_no_torus_graph(tmp_path, capsys, monkeypatch):
    doc, bad = tmp_path / "c.json", tmp_path / "bad.json"
    code, _, _ = run(
        "construct", "--product", "strong", "--m", "56", "--n", "49",
        "--out", str(doc), capsys=capsys,
    )
    assert code == 0
    body = json.loads(doc.read_text())
    body["labels"][3][5] = body["labels"][3][6]
    bad.write_text(json.dumps(body))
    before = [run("verify", str(p), capsys=capsys)[:2] for p in (doc, bad)]

    def no_graph(*args, **kwargs):
        raise AssertionError("verify built the torus graph")

    monkeypatch.setattr(labelings, "product", no_graph)
    after = [run("verify", str(p), capsys=capsys)[:2] for p in (doc, bad)]
    assert after == before
    assert after[0] == (0, "valid: 2744 vertices, budget 6, no violations\n")
    assert after[1] == (1, (
        "edge-gap: vertices 102 and 152 have colors 5 and 4, need gap >= 2\n"
        "edge-gap: vertices 152 and 153 have colors 4 and 4, need gap >= 2\n"
        "edge-gap: vertices 152 and 201 have colors 4 and 4, need gap >= 2\n"
        "invalid: 3 violated constraints\n"
    ))


def test_torus_too_large_for_memory_is_exit_2(capsys, monkeypatch):
    # a lift of a huge torus fails to allocate; the CLI reports it and exits 2
    def no_memory(*args):
        raise MemoryError("Unable to allocate 671. GiB")

    monkeypatch.setattr(lambda_numbers, "lift_diagonal", no_memory)
    for command in ("lambda", "construct"):
        code, text, err = run(command, "--product", "cartesian", "--m", "300000",
                              "--n", "300003", capsys=capsys)
        assert (code, text) == (2, "")
        assert err == "error: Unable to allocate 671. GiB\n"


@pytest.mark.parametrize("argv", [
    ("pattern", "--length", "5", "--span", "99999999999999999999"),
    ("lemmas", "--span", "100000000000000000000"),
], ids=["pattern", "lemmas"])
def test_oversized_span_is_exit_2(capsys, argv):
    # a search at span k works with 1 << (k + 1), which overflows before
    # anything is allocated
    code, text, err = run(*argv, capsys=capsys)
    assert (code, text) == (2, "")
    assert err.startswith("error: ") and err.strip() != "error:"


def test_memory_error_without_a_message_still_says_what(capsys, monkeypatch):
    # a span small enough to shift can still outgrow memory, and the
    # MemoryError raised then carries no message
    def no_memory(*args):
        raise MemoryError()

    monkeypatch.setattr(cli, "exists_cycle_pattern", no_memory)
    code, text, err = run("pattern", "--length", "5", "--span", "1000000000000", capsys=capsys)
    assert (code, text, err) == (2, "", "error: out of memory\n")


@pytest.mark.parametrize("argv", [
    ("lambda", "--product", "cartesian", "--m", "40", "--n", "40"),
    ("construct", "--product", "cartesian", "--m", "42", "--n", "42"),
    ("lemmas", "--which", "cartesian-local"),
    ("pattern", "--length", "5"),
], ids=["lambda", "construct", "lemmas", "pattern"])
def test_unwritable_out_prints_nothing(tmp_path, capsys, argv):
    # the document is written before anything is printed, so a run whose
    # --out cannot be opened leaves stdout empty
    out = tmp_path / "missing" / "x.json"
    code, text, err = run(*argv, "--out", str(out), capsys=capsys)
    assert (code, text) == (2, "")
    assert err.startswith("error: ")
    assert not out.parent.exists()


def test_verify_missing_file(capsys):
    code, _, err = run("verify", "/nonexistent/x.json", capsys=capsys)
    assert code == 2 and err.startswith("error:")


def test_verify_malformed_document(tmp_path, capsys):
    f = tmp_path / "junk.json"
    f.write_text('{"product": "cartesian"}')
    code, _, err = run("verify", str(f), capsys=capsys)
    assert code == 2 and err.startswith("error:")
    f.write_text("not json at all")
    code, _, _ = run("verify", str(f), capsys=capsys)
    assert code == 2
    # non-integer fields are refused, not truncated by int()
    doc = {"product": "none", "m": 1, "n": 5, "p": 2, "q": 1, "k": 4,
           "labels": [[0, 2, 4, 1, 3]]}
    for key, value in [
        ("labels", [[0.9, 2.5, 4.2, 1.7, 3.1]]),
        ("labels", [[True, 3, 0, 2, 4]]),
        ("m", 1.7),
        # integers beyond the signed 64-bit range are refused, not overflowed
        ("labels", [[10**23, 2, 4, 1, 3]]),
        ("labels", [[2**63, 2, 4, 1, 3]]),
        ("p", 10**23),
        ("k", -(2**63) - 1),
        # a product that names no ProductKind never reaches a shape
        ("product", "tensor"),
        ("product", "STRONG"),
        ("product", ["strong"]),
        ("product", None),
    ]:
        f.write_text(json.dumps({**doc, key: value}))
        code, _, err = run("verify", str(f), capsys=capsys)
        assert code == 2 and err.startswith("error:"), (key, value)
    # documents nested past the parser's recursion limit are refused too
    for text in ["[" * 1000 + "]" * 1000, '{"a": ' * 1000 + "0" + "}" * 1000]:
        f.write_text(text)
        code, _, err = run("verify", str(f), capsys=capsys)
        assert code == 2 and err.startswith("error:"), text[:8]


# --- lemmas ------------------------------------------------------------------

def test_lemmas_all_hold(tmp_path, capsys):
    out = tmp_path / "reports.json"
    code, text, _ = run("lemmas", "--which", "all", "--out", str(out), capsys=capsys)
    assert code == 0
    lines = text.strip().splitlines()
    assert len(lines) == 2
    assert all("holds=true" in line for line in lines)
    assert "labelings=44" in lines[0]
    assert "labelings=180" in lines[1]
    docs = json.loads(out.read_text())
    assert isinstance(docs, list) and len(docs) == 2
    assert all(list(d) == ["check", "holds", "count", "witness"] for d in docs)


def test_lemmas_counterexample_is_exit_1(tmp_path, capsys):
    out = tmp_path / "r.json"
    code, text, _ = run(
        "lemmas", "--which", "cartesian-local", "--span", "5", "--out", str(out),
        capsys=capsys,
    )
    assert code == 1
    assert "holds=false" in text and "labelings=1088" in text
    doc = json.loads(out.read_text())
    assert doc["holds"] is False
    assert len(doc["witness"]) == 3 and len(doc["witness"][0]) == 3


def test_lemmas_parallel_same_counts(capsys):
    # start cold so --parallel 2 runs the counts rather than a cached report
    lambda_numbers._verify_local.cache_clear()
    code, text, _ = run(
        "lemmas", "--which", "cartesian-local", "--parallel", "2", capsys=capsys
    )
    assert code == 0 and "labelings=44" in text


def test_lemmas_parallel_shares_the_dispatch_cache(capsys):
    # --parallel is not part of the cache key: the window report that the
    # dispatch of a non-multiple-of-7 strong torus counted answers the CLI
    lambda_numbers._verify_local.cache_clear()
    lambda_strong(48, 50)
    hits = lambda_numbers._verify_local.cache_info().hits
    code, text, _ = run(
        "lemmas", "--which", "strong-local", "--parallel", "2", capsys=capsys
    )
    assert code == 0 and "labelings=180" in text
    assert lambda_numbers._verify_local.cache_info().hits == hits + 1


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_lemmas_parallel_below_one_is_usage_error(capsys, workers):
    code, text, err = run("lemmas", "--parallel", workers, capsys=capsys)
    assert code == 2 and text == ""
    assert err.startswith("error:") and "Traceback" not in err


# --- pattern -----------------------------------------------------------------

def test_pattern_search_found(tmp_path, capsys):
    out = tmp_path / "p.json"
    code, text, _ = run("pattern", "--length", "5", "--out", str(out), capsys=capsys)
    assert code == 0
    assert text.strip() == "0 2 4 1 3"
    doc = json.loads(out.read_text())
    assert doc["witness"] == [0, 2, 4, 1, 3] and doc["holds"] is True


def test_pattern_search_long_word(capsys):
    code, text, _ = run("pattern", "--length", "1500", "--span", "4", capsys=capsys)
    assert code == 0
    assert text.split() == ["0", "2", "4"] * 500


def test_pattern_span_defaults_to_the_window_span(capsys):
    # strong words need span 6; --conditions 2,1 keeps the Cartesian 4
    code, text, _ = run("pattern", "--product", "strong", "--length", "7", capsys=capsys)
    assert (code, text) == (0, "0 2 4 6 1 3 5\n")


def test_pattern_search_none_is_exit_1(capsys):
    code, text, _ = run(
        "pattern", "--length", "4", "--product", "strong", "--span", "6",
        capsys=capsys,
    )
    assert code == 1
    assert "no pattern" in text


def test_pattern_feasibility_scan(capsys):
    code, text, _ = run(
        "pattern", "--product", "strong", "--span", "6", "--feasible-up-to", "16",
        capsys=capsys,
    )
    assert code == 0
    assert "feasible lengths: 7 14" in text


@pytest.mark.parametrize(
    "argv,text,doc",
    [
        pytest.param(
            ["--product", "strong", "--span", "6", "--feasible-up-to", "16"],
            "feasible lengths: 7 14\n",
            [("check", "pattern-span-6-feasible-lengths"), ("holds", True),
             ("count", 2), ("witness", [7, 14])],
            id="scan-strong-span-6",
        ),
        pytest.param(
            ["--product", "strong", "--span", "4", "--feasible-up-to", "10"],
            "feasible lengths: none\n",
            [("check", "pattern-span-4-feasible-lengths"), ("holds", False),
             ("count", 0), ("witness", [])],
            id="scan-strong-span-4",
        ),
        pytest.param(
            ["--length", "13", "--product", "strong", "--span", "7"],
            "0 2 4 6 1 3 7 0 4 6 1 3 5\n",
            [("check", "pattern-length-13-span-7"), ("holds", True), ("count", 1),
             ("witness", [0, 2, 4, 6, 1, 3, 7, 0, 4, 6, 1, 3, 5])],
            id="word-strong-13-span-7",
        ),
    ],
)
def test_pattern_out_documents_are_pinned(tmp_path, capsys, argv, text, doc):
    out = tmp_path / "p.json"
    code, got, _ = run("pattern", *argv, "--out", str(out), capsys=capsys)
    assert (code, got) == (0, text)
    assert list(json.loads(out.read_text()).items()) == doc


def test_pattern_explicit_conditions(capsys):
    code, text, _ = run(
        "pattern", "--conditions", "2,1", "--length", "3", capsys=capsys
    )
    assert code == 0 and text.strip() == "0 2 4"


_BAD_VECTOR = "error: condition vector must be nonempty and nonnegative\n"


@pytest.mark.parametrize(
    "argv,err",
    [
        # an explicit empty vector is not the product's default
        (["--length", "5", "--conditions="], _BAD_VECTOR),
        (["--length", "5", "--conditions=-1,2"], _BAD_VECTOR),
        (["--feasible-up-to", "5", "--conditions=-1,2"], _BAD_VECTOR),
        # a scan with no length in 3..D is refused, not reported as "none"
        (["--feasible-up-to", "2", "--conditions=-1,2"],
         "error: the length scan needs d_max >= 3, got 2\n"),
        (["--feasible-up-to", "2"], "error: the length scan needs d_max >= 3, got 2\n"),
    ],
    ids=["", "-1,2", "scan-5--1,2", "scan-2--1,2", "scan-2"],
)
def test_pattern_bad_condition_vector_is_usage_error(capsys, argv, err):
    code, text, got = run("pattern", *argv, capsys=capsys)
    assert (code, text, got) == (2, "", err)


def test_pattern_requires_length_or_scan(capsys):
    code, _, err = run("pattern", capsys=capsys)
    assert code == 2 and "needs --length" in err


# --- decompose ---------------------------------------------------------------

def test_decompose_large_generators_answers_at_once():
    # the least b is 999,999,999,999: trying b one at a time never ends
    proc = subprocess.run(
        [sys.executable, "-m", "lpqcycles", "decompose",
         "--target", "11999999999993", "--gens", "1000000000000,7"],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 0
    assert proc.stdout == "11999999999993 = 5*1000000000000 + 999999999999*7\n"


def test_decompose_output(capsys):
    code, text, _ = run("decompose", "--target", "45", capsys=capsys)
    assert code == 0 and text.strip() == "45 = 3*7 + 3*8"
    code, text, _ = run("decompose", "--target", "41", capsys=capsys)
    assert code == 1 and "not representable" in text
    code, text, _ = run("decompose", "--target", "39", "--gens", "5,11", capsys=capsys)
    assert code == 1
    code, _, err = run("decompose", "--target", "10", "--gens", "7", capsys=capsys)
    assert code == 2 and "comma-separated" in err


# --- argparse plumbing -------------------------------------------------------

def test_missing_subcommand_is_usage_error(capsys):
    for argv in ([], ["descent", "--m", "43", "--n", "40"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()


def test_module_entry_point_runs_in_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "lpqcycles", "decompose", "--target", "45"],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "45 = 3*7 + 3*8"


def test_import_loads_no_process_machinery():
    # every search runs in the calling process, so the CLI never pays for
    # importing a process pool
    code = (
        "import sys, lpqcycles.cli; "
        "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# Runs cli.main on each argv list in one fresh process and reports, after
# each, its exit code, its first line of output and whether numpy is loaded.
_RUN_IN_ONE_PROCESS = """
import contextlib, io, json, sys
import lpqcycles, lpqcycles.cli
out = [["import", None, None, "numpy" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    text = io.StringIO()
    with contextlib.redirect_stdout(text), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = lpqcycles.cli.main(argv)
        except SystemExit as exc:  # argparse rejects usage this way
            code = exc.code
    out.append([argv[0], code, text.getvalue().partition("\\n")[0], "numpy" in sys.modules])
print(json.dumps(out))
"""


def test_cli_runs_that_build_no_array_load_no_numpy(tmp_path):
    (tmp_path / "not-json.json").write_text("{labels: [[0, 2,", encoding="utf-8")
    (tmp_path / "no-labels.json").write_text(
        '{"product": "strong", "m": 7, "n": 7, "p": 2, "q": 1, "k": 6}', encoding="utf-8"
    )
    doc = tmp_path / "construct.json"
    no_array = [
        (["lemmas", "--out", tmp_path / "lemmas.json"], 0),
        (["decompose", "--target", "50"], 0),
        (["pattern", "--product", "strong", "--length", "14"], 0),
        (["pattern", "--feasible-up-to", "28"], 0),
        (["lambda", "--product", "cartesian", "--m", "40", "--n", "41",
          "--out", tmp_path / "cited.json"], 0),
        (["lambda", "--product", "strong", "--m", "48", "--n", "50",
          "--out", tmp_path / "interval.json"], 0),
        # the five malformed inputs the bench's cli workload draws from
        (["verify", tmp_path / "not-json.json"], 2),
        (["verify", tmp_path / "no-labels.json"], 2),
        (["lambda", "--product", "strong", "--m", "47", "--n", "60"], 2),
        (["construct", "--product", "cartesian", "--m", "41", "--n", "43"], 2),
        (["lambda", "--product", "hexagonal", "--m", "50", "--n", "50"], 2),
    ]
    with_array = [
        (["construct", "--product", "strong", "--m", "49", "--n", "56", "--out", doc],
         " 0 2 4 6 1 3 5"),
        (["verify", doc], "valid: 2744 vertices, budget 6, no violations"),
        (["lambda", "--product", "strong", "--m", "49", "--n", "56"], "Exact 6"),
    ]
    argvs = [[str(a) for a in argv] for argv, _ in no_array + with_array]
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_IN_ONE_PROCESS, json.dumps(argvs)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout)
    assert len(steps) == 1 + len(no_array) + len(with_array)
    assert steps[0] == ["import", None, None, False]
    for (argv, code), (name, got, _first, numpy_loaded) in zip(no_array, steps[1:]):
        assert (name, got, numpy_loaded) == (argv[0], code, False), argv
    for (argv, first), (_name, got, line, _loaded) in zip(with_array, steps[1 + len(no_array):]):
        assert (got, line.startswith(first)) == (0, True), (argv, line)
    assert steps[-1][-1] is True


def test_readme_command_lines_parse():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line) for line in block.splitlines() if line.strip()]
    assert lines and all(argv[0] == "lpqcycles" for argv in lines)
    parser = _build_parser()
    for argv in lines:
        parser.parse_args(argv[1:])
