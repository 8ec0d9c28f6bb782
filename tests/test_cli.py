"""Command-line behavior: subcommands, exit codes, and piping."""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootlink import parse_spec, validate_annotation
from rootlink.cli import COUNTEREXAMPLE_FILE, main

SIX_LEAF_DOC = Path(__file__).resolve().parent.parent / "specs" / "six_leaf.json"


def write_doc(tmp_path: Path, text: str, name: str = "doc.json") -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_validate_ok(capsys):
    assert main(["validate", str(SIX_LEAF_DOC)]) == 0
    out = capsys.readouterr().out
    assert out == "ok: 6 leaves, fixed leaf 6\n"


def test_validate_reports_violations(tmp_path, capsys):
    doc = json.loads(SIX_LEAF_DOC.read_text())
    for node in doc["nodes"]:
        if node["id"] == "A":
            node["beta"] = 1
    path = write_doc(tmp_path, json.dumps(doc))
    assert main(["validate", path]) == 1
    out = capsys.readouterr().out
    assert "condition (ii) at A: alpha 2 > beta 1" in out


def test_validate_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(SIX_LEAF_DOC.read_text()))
    assert main(["validate", "-"]) == 0
    assert "ok: 6 leaves" in capsys.readouterr().out


def test_parse_error_exit_2(tmp_path, capsys):
    path = write_doc(tmp_path, "{not json")
    assert main(["validate", path]) == 2
    assert "parse error:" in capsys.readouterr().err


def test_missing_file_exit_2(capsys):
    assert main(["validate", "/nonexistent/doc.json"]) == 2
    assert "parse error:" in capsys.readouterr().err


def test_float_rejected_exit_2(tmp_path, capsys):
    doc = SIX_LEAF_DOC.read_text().replace('"alpha": 1', '"alpha": 1.0', 1)
    path = write_doc(tmp_path, doc)
    assert main(["validate", path]) == 2
    assert "floating point literal" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "report", "dot"])
def test_overlong_integer_exit_2(tmp_path, capsys, command):
    digits = "1" * 5000
    path = write_doc(
        tmp_path,
        f'{{"root": "1", "nodes": [{{"id": "1", "alpha": {digits}, "beta": 1}}]}}',
    )
    assert main([command, path]) == 2
    assert "parse error: invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "report"])
def test_deeply_nested_document_exit_2(tmp_path, capsys, command):
    path = write_doc(tmp_path, "[" * 100_000)
    assert main([command, path]) == 2
    assert "parse error: invalid JSON: " in capsys.readouterr().err


def _caterpillar_doc(leaves: int, leaf_value: str = "2") -> str:
    """A valid left comb: every internal node (0, 0)-annotated, leaves equal."""
    nodes = [{"id": "r", "minus": "c1", "plus": "f", "alpha": 0, "beta": 0}]
    for k in range(1, leaves - 1):
        minus = f"c{k + 1}" if k < leaves - 2 else "l0"
        nodes.append({"id": f"c{k}", "minus": minus, "plus": f"l{k}", "alpha": 0, "beta": 0})
    nodes += [{"id": f"l{k}", "alpha": leaf_value, "beta": leaf_value} for k in range(leaves - 1)]
    nodes.append({"id": "f", "alpha": leaf_value, "beta": leaf_value})
    return json.dumps({"root": "r", "nodes": nodes})


def test_report_leaf_budget_exit_2(tmp_path, capsys):
    from rootlink.specfile import MAX_LEAVES

    path = write_doc(tmp_path, _caterpillar_doc(MAX_LEAVES + 1))
    assert main(["validate", path]) == 0  # validation has no budget
    capsys.readouterr()
    assert main(["report", path]) == 2
    err = capsys.readouterr().err
    assert f"over the report budget: {MAX_LEAVES + 1} leaves, at most {MAX_LEAVES}" in err


def test_report_at_the_leaf_budget(tmp_path, capsys):
    from rootlink.specfile import MAX_LEAVES

    path = write_doc(tmp_path, _caterpillar_doc(MAX_LEAVES, "1/2"))
    assert main(["report", path]) == 0
    assert len(json.loads(capsys.readouterr().out)["leaves"]) == MAX_LEAVES


@pytest.mark.parametrize(
    "value,what",
    [
        ("9" * 2500, "the value at node 'l0' has more than 20 digits"),
        ("1" * 21, "the value at node 'l0' has more than 20 digits"),
        ("1/" + "3" * 21, "the values' common denominator has more than 20 digits"),
    ],
)
def test_report_digit_budget_exit_2(tmp_path, capsys, value, what):
    path = write_doc(tmp_path, _caterpillar_doc(3, value))
    assert main(["report", path]) == 2
    assert f"over the report budget: {what}" in capsys.readouterr().err


def test_report_at_the_digit_budget(tmp_path, capsys):
    doc = json.loads(_caterpillar_doc(3))
    # Over the common denominator 7: 20, 20 and 19 digits.
    for node, value in zip(doc["nodes"][2:], ("9" * 19, "9" * 19 + "/7", "1/7")):
        node["alpha"] = node["beta"] = value
    path = write_doc(tmp_path, json.dumps(doc))
    assert main(["report", path]) == 0, capsys.readouterr().err
    assert json.loads(capsys.readouterr().out)["leaves"] == ["l0", "l1", "f"]


def test_selftest_leaf_budget(capsys):
    from rootlink.specfile import MAX_LEAVES

    with pytest.raises(SystemExit) as err:
        main(["selftest", "--cases", "1", "--max-leaves", str(MAX_LEAVES + 1)])
    assert err.value.code == 2
    assert "leaf budget" in capsys.readouterr().err


def test_report_at_the_neumann_cap(capsys):
    from rootlink.cli import MAX_NEUMANN_STEPS

    argv = ["report", str(SIX_LEAF_DOC), "--neumann", str(MAX_NEUMANN_STEPS)]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["neumann_steps"] == MAX_NEUMANN_STEPS
    assert len(doc["neumann_gaps"]) == MAX_NEUMANN_STEPS + 1


def test_report_neumann_cap_exit_2(capsys):
    from rootlink.cli import MAX_NEUMANN_STEPS

    with pytest.raises(SystemExit) as err:
        main(["report", str(SIX_LEAF_DOC), "--neumann", str(MAX_NEUMANN_STEPS + 1)])
    assert err.value.code == 2
    assert f"must be <= {MAX_NEUMANN_STEPS}" in capsys.readouterr().err


def test_report_json(capsys):
    assert main(["report", str(SIX_LEAF_DOC)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["roots"] == ["1", "3", "5"]
    assert doc["eta"] == "11/8"


def test_report_byte_identical(capsys):
    assert main(["report", str(SIX_LEAF_DOC)]) == 0
    first = capsys.readouterr().out
    assert main(["report", str(SIX_LEAF_DOC)]) == 0
    assert capsys.readouterr().out == first


def test_report_text_flags(capsys):
    assert main(["report", str(SIX_LEAF_DOC), "--format", "text", "--neumann", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("leaves: 1 2 3 4 5 6")
    assert "neumann_steps: 3" in out


def test_report_invalid_annotation_exit_1(tmp_path, capsys):
    doc = json.loads(SIX_LEAF_DOC.read_text())
    for node in doc["nodes"]:
        if node["id"] == "A":
            node["beta"] = 1
    path = write_doc(tmp_path, json.dumps(doc))
    assert main(["report", path]) == 1
    assert "condition (ii) at A" in capsys.readouterr().err


def test_report_singular_exit_3(tmp_path, capsys):
    doc = {
        "root": "I",
        "nodes": [
            {"id": "I", "minus": "1", "plus": "2", "alpha": 2, "beta": 2},
            {"id": "1", "alpha": 2, "beta": 2},
            {"id": "2", "alpha": 2, "beta": 2},
        ],
    }
    path = write_doc(tmp_path, json.dumps(doc))
    assert main(["report", path]) == 3
    err = capsys.readouterr().err
    assert "theorem hypotheses not met" in err


def test_report_eta_too_small_exit_3(capsys):
    assert main(["report", str(SIX_LEAF_DOC), "--eta", "1"]) == 3
    assert "theorem hypotheses not met" in capsys.readouterr().err


def test_report_kernel_value_error_exit_4(capsys, monkeypatch):
    import rootlink.report as report_mod

    def bad_kernel(minv, eta=None):
        raise ValueError("off-diagonal of the kernel is negative")

    monkeypatch.setattr(report_mod, "transition_kernel", bad_kernel)
    assert main(["report", str(SIX_LEAF_DOC)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "theorem mismatch:" in captured.err
    assert "off-diagonal of the kernel is negative" in captured.err


def test_report_failed_certificate_exit_4(capsys, monkeypatch):
    import rootlink.report as report_mod

    real = report_mod.tree_inverse

    def off_by_one(tm):
        denom, nums = real(tm)
        nums[0][0] += 1  # 32 -> 33: the first product entry is no longer L * d
        return denom, nums

    monkeypatch.setattr(report_mod, "tree_inverse", off_by_one)
    assert main(["report", str(SIX_LEAF_DOC)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "tree inverse fails its certificate" in captured.err
    assert "(U @ N)[1][1] != L * d" in captured.err


def test_report_eta_flag_must_be_rational(capsys):
    with pytest.raises(SystemExit) as err:
        main(["report", str(SIX_LEAF_DOC), "--eta", "1.5"])
    assert err.value.code == 2


def test_report_at_the_eta_budget(capsys):
    from rootlink.specfile import MAX_VALUE_DIGITS

    eta = "9" * MAX_VALUE_DIGITS
    assert main(["report", str(SIX_LEAF_DOC), "--eta", eta, "--neumann", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["eta"] == eta
    assert doc["neumann_gaps"] == [4e20, 4e20]
    # A denominator at the budget passes the flag; this eta is then too small.
    assert main(["report", str(SIX_LEAF_DOC), "--eta", "1/" + eta]) == 3


@pytest.mark.parametrize(
    "eta",
    [
        "1" + "0" * 20,  # 21-digit numerator
        "1/1" + "0" * 20,  # 21-digit denominator
        "1" + "0" * 320,  # a Neumann gap this large would overflow a float
    ],
)
def test_report_eta_budget_exit_2(capsys, eta):
    from rootlink.specfile import MAX_VALUE_DIGITS

    with pytest.raises(SystemExit) as err:
        main(["report", str(SIX_LEAF_DOC), "--eta", eta, "--neumann", "0"])
    assert err.value.code == 2
    assert f"at most {MAX_VALUE_DIGITS} digits" in capsys.readouterr().err


def test_dot_stdout(capsys):
    assert main(["dot", str(SIX_LEAF_DOC)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph tree {")
    assert "A -> 2 [style=dashed,color=red];" in out


def test_dot_output_file(tmp_path, capsys):
    target = tmp_path / "tree.dot"
    assert main(["dot", str(SIX_LEAF_DOC), "-o", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text().startswith("digraph tree {")


def test_random_emits_valid_document(capsys):
    assert main(["random", "--seed", "5", "--max-leaves", "7"]) == 0
    text = capsys.readouterr().out
    tree, annotation = parse_spec(text)
    assert validate_annotation(tree, annotation) == ()
    assert 1 <= len(tree.leaf_order) <= 7


def test_random_leaf_budget(capsys):
    from rootlink.specfile import MAX_LEAVES

    assert main(["random", "--seed", "2", "--max-leaves", str(MAX_LEAVES)]) == 0
    tree, _ = parse_spec(capsys.readouterr().out)
    assert len(tree.leaf_order) <= MAX_LEAVES
    with pytest.raises(SystemExit) as err:
        main(["random", "--max-leaves", str(MAX_LEAVES + 1)])
    assert err.value.code == 2
    assert "leaf budget" in capsys.readouterr().err


def test_random_roundtrips_through_validate(tmp_path, capsys):
    assert main(["random", "--seed", "9", "--strict"]) == 0
    text = capsys.readouterr().out
    path = write_doc(tmp_path, text)
    assert main(["validate", path]) == 0
    assert "ok:" in capsys.readouterr().out


def test_random_deterministic(capsys):
    assert main(["random", "--seed", "11"]) == 0
    first = capsys.readouterr().out
    assert main(["random", "--seed", "11"]) == 0
    assert capsys.readouterr().out == first


def test_random_output_file(tmp_path):
    target = tmp_path / "instance.json"
    assert main(["random", "--seed", "3", "-o", str(target)]) == 0
    parse_spec(target.read_text())


def test_selftest_smoke(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # counterexample file would land here
    assert main(["selftest", "--cases", "20", "--max-leaves", "6", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "20 cases" in out
    assert "links_agree:" in out
    assert "self-test passed" in out
    assert not (tmp_path / COUNTEREXAMPLE_FILE).exists()


def test_selftest_strict_smoke(capsys):
    assert main(["selftest", "--cases", "10", "--max-leaves", "5", "--strict"]) == 0
    assert "strict" in capsys.readouterr().out


def test_selftest_rejects_zero_cases(capsys):
    with pytest.raises(SystemExit) as err:
        main(["selftest", "--cases", "0"])
    assert err.value.code == 2


def test_report_path_does_not_load_the_selftest():
    import os
    import subprocess
    import sys

    code = (
        "import sys, rootlink.cli; "
        "assert 'rootlink.selftest' not in sys.modules; "
        "from rootlink import run_selftest; "
        "assert run_selftest.__module__ == 'rootlink.selftest'"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60)


def test_version(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert capsys.readouterr().out.startswith("rootlink ")


def test_console_script_installed():
    import shutil
    import subprocess

    exe = shutil.which("rootlink")
    if exe is None:
        pytest.skip("console script not on PATH")
    result = subprocess.run(
        [exe, "report", str(SIX_LEAF_DOC)], capture_output=True, text=True
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["mu_bar"] == "1/4"


# -- fuzzing: every input ends in a documented exit code ------------------------

_VALUES = st.one_of(
    st.integers(-3, 12),
    st.fractions(0, 12, max_denominator=9).map(str),
    st.integers(10**19, 10**21),  # around the digit budget
    st.sampled_from([1.5, True, None, "x", "1/0", "-1/2", [], {}]),
)
_FLAG = st.sampled_from(["", "x", "1.5", "-1"])
_ETAS = st.one_of(
    st.fractions(0, 40, max_denominator=9).map(str),
    st.integers(10**18, 10**22).map(str),  # around the digit budget
    st.integers(10**300, 10**330).map(str),  # past the float range
    _FLAG,
)
_NEUMANN = st.one_of(st.integers(-1, 3).map(str), st.just("51"), _FLAG)
_MAX_LEAVES = st.one_of(st.integers(-1, 6).map(str), st.just("129"), _FLAG)


@st.composite
def cli_arguments(draw):
    """A mutated six-leaf document and an argument list that reads it from stdin."""
    doc = json.loads(SIX_LEAF_DOC.read_text())
    for node in doc["nodes"]:
        for key in ("alpha", "beta"):
            if draw(st.integers(0, 9)) == 0:
                node[key] = draw(_VALUES)
    if draw(st.integers(0, 9)) == 0:
        del doc["nodes"][draw(st.integers(0, len(doc["nodes"]) - 1))]
    command = draw(st.sampled_from(["report"] * 4 + ["validate", "dot", "random", "selftest"]))
    argv = [command]
    if command in ("report", "validate", "dot"):
        argv.append("-")
    if command == "report":
        for flag, values in (("--eta", _ETAS), ("--neumann", _NEUMANN)):
            if draw(st.booleans()):
                argv += [flag, draw(values)]
    if command in ("random", "selftest"):
        argv += ["--max-leaves", draw(_MAX_LEAVES), "--seed", str(draw(st.integers(0, 9)))]
    if command == "selftest":
        argv += ["--cases", draw(st.sampled_from(["1", "2", "0", "x"]))]
    return json.dumps(doc), argv


@settings(max_examples=80)
@given(cli_arguments())
def test_cli_fuzz_exits_with_a_documented_code(tmp_path_factory, arguments):
    text, argv = arguments
    out, err = io.StringIO(), io.StringIO()
    with (
        contextlib.chdir(tmp_path_factory.mktemp("fuzz")),  # a counterexample file lands here
        mock.patch("sys.stdin", io.StringIO(text)),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a flag with 2
            code = exc.code
    assert code in range(5), (argv, err.getvalue())
