"""Subcommand behavior and exit codes, driven in-process."""

import json
import re
from pathlib import Path

import pytest

from torusquot import cli
from torusquot.cli import build_parser, main
from torusquot.errors import TableComputationError
from torusquot.fixtures import FIXTURES, S4_FILE

TRIVIAL2 = "conductor 1\ndegree 2\ngenerator perm\nmap 1 2\n"


@pytest.fixture
def s4_file(tmp_path):
    path = tmp_path / "s4.group"
    path.write_text(S4_FILE)
    return str(path)


def test_analyze_text_report(s4_file, capsys):
    code = main(["analyze", "--group", s4_file, "--pair",
                 "--form", "wedge 1:4 2:5 3:6"])
    out = capsys.readouterr().out
    assert code == 0
    assert "group order            24" in out
    assert "h2,0 (2-forms)         1" in out
    assert "form preserved         yes" in out


def test_analyze_json_matches_text(s4_file, capsys):
    code = main(["analyze", "--group", s4_file, "--pair",
                 "--form", "wedge 1:4 2:5 3:6", "--report", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    code = main(["analyze", "--group", s4_file, "--pair",
                 "--form", "wedge 1:4 2:5 3:6"])
    text = capsys.readouterr().out
    assert code == 0
    # same values surface in both renderings
    assert f"group order            {data['group_order']}" in text
    assert f"h1,0 (1-forms)         {data['h10']}" in text
    assert f"h2,0 (2-forms)         {data['h20']}" in text
    assert data["verdict"] in text
    assert data["symplectic_class"] in text
    assert data["form_preserved"] is True
    assert data["primitive"] is True


def test_readme_schema_lists_the_report_keys_in_order(s4_file, capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## JSON report schema\n", 1)[1].split("\n## ", 1)[0]
    documented = [name for line in section.splitlines() if line.startswith("| `")
                  for name in re.findall(r"`(\w+)`", line.split("|")[1])]
    assert main(["analyze", "--group", s4_file, "--pair", "--report", "json"]) == 0
    assert documented == list(json.loads(capsys.readouterr().out))


def test_analyze_trivial_two_torus(tmp_path, capsys):
    path = tmp_path / "t2.group"
    path.write_text(TRIVIAL2)
    code = main(["analyze", "--group", str(path), "--report", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["h10"] == 2
    assert data["h20"] == 1
    assert data["verdict"] == "TWO_TORUS"


def test_analyze_non_invariant_form_still_succeeds(s4_file, capsys):
    code = main(["analyze", "--group", s4_file, "--pair",
                 "--form", "wedge 1:2 3:4 5:6", "--report", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["form_preserved"] is False


def test_analyze_form_degree_mismatch_is_input_error(s4_file, capsys):
    code = main(["analyze", "--group", s4_file, "--form", "wedge 1:4 2:5 3:6"])
    err = capsys.readouterr().err
    assert code == 2
    assert "wedge index" in err or "degree" in err


def test_analyze_form_file(tmp_path, s4_file, capsys):
    omega = tmp_path / "omega.form"
    omega.write_text("form wedge 1:4 2:5 3:6\n")
    code = main(["analyze", "--group", s4_file, "--pair", "--form", str(omega),
                 "--report", "json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["form_preserved"] is True


def test_analyze_form_file_named_wedge_is_read_as_a_file(tmp_path, s4_file, capsys,
                                                         monkeypatch):
    # only a first word `wedge` makes the flag an inline form
    (tmp_path / "wedge_s4.form").write_text("form wedge 1:4 2:5 3:6\n")
    monkeypatch.chdir(tmp_path)
    assert main(["analyze", "--group", s4_file, "--pair", "--form", "wedge_s4.form"]) == 0
    from_file = capsys.readouterr().out
    assert main(["analyze", "--group", s4_file, "--pair", "--form", "wedge 1:4 2:5 3:6"]) == 0
    assert from_file == capsys.readouterr().out
    assert "form preserved         yes" in from_file


def test_analyze_form_file_of_the_wrong_degree_is_input_error(tmp_path, s4_file, capsys):
    # the form file is read at the analyzed degree, 6 for the pair
    omega = tmp_path / "omega.form"
    omega.write_text("form dense\nrow 0; 1; 0\nrow -1; 0; 0\nrow 0; 0; 0\n")
    code = main(["analyze", "--group", s4_file, "--pair", "--form", str(omega)])
    assert code == 2
    assert capsys.readouterr().err == "error: form row has 3 entries, degree is 6 (line 2)\n"


def test_analyze_lattice_flag(s4_file, capsys):
    code = main(["analyze", "--group", s4_file, "--lattice", "1",
                 "--report", "json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["lattice_preserved"] is True


def test_analyze_closure_limit_exit_3(s4_file, capsys):
    code = main(["analyze", "--group", s4_file, "--limit", "5"])
    assert code == 3
    assert "limit" in capsys.readouterr().err


@pytest.mark.parametrize("generator", [
    "generator monomial\nmap 1\nscalars 2\n",
    "generator dense\nrow 1; 1\nrow 0; 1\n",
], ids=["scalar-2", "shear"])
def test_analyze_infinite_group_exit_3(tmp_path, capsys, generator):
    degree = generator.count("row") or 1
    path = tmp_path / "infinite.group"
    path.write_text(f"conductor 1\ndegree {degree}\n{generator}")
    code = main(["analyze", "--group", str(path), "--limit", "500"])
    assert code == 3
    assert "element limit of 500" in capsys.readouterr().err


def test_analyze_syntax_error_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.group"
    path.write_text("conductor 4\ndegree 1\ngenerator monomial\nmap 1\nscalars z^\n")
    code = main(["analyze", "--group", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 5" in err


def test_analyze_singular_dense_generator_exit_2(tmp_path, capsys):
    path = tmp_path / "singular.group"
    path.write_text("conductor 1\ndegree 3\ngenerator dense\n"
                    "row 1; 2; 3\nrow 4; 5; 6\nrow 7; 8; 9\n")
    code = main(["analyze", "--group", str(path)])
    assert code == 2
    assert "dense generator is not invertible" in capsys.readouterr().err


def test_analyze_missing_file_exit_2(tmp_path, capsys):
    code = main(["analyze", "--group", str(tmp_path / "nope.group")])
    assert code == 2


def test_chartable_text(s4_file, capsys):
    code = main(["chartable", "--group", s4_file])
    out = capsys.readouterr().out
    assert code == 0
    assert "class" in out
    assert out.count("X") == 5


def test_chartable_json(s4_file, capsys):
    code = main(["chartable", "--group", s4_file, "--format", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    degrees = sorted(chi["degree"] for chi in data["irreducibles"])
    assert degrees == [1, 1, 2, 3, 3]
    assert data["group_order"] == 24


def test_check_example_s4(capsys):
    code = main(["check-example", "s4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "all 10 checks passed" in out
    assert "FAIL" not in out


def test_check_example_g216(capsys):
    code = main(["check-example", "g216"])
    out = capsys.readouterr().out
    assert code == 0
    assert "all 11 checks passed" in out


def test_check_example_g1280_reports_primitivity_mismatch(capsys):
    # the closure of the shipped degree-20 generators is not primitive:
    # its abelianization has order 5 and its Sylow 5-subgroup is cyclic.
    # no group of order 1280 with the other expected properties could be
    # (see the proof in torusquot.fixtures), so the expected value is
    # "no" and the command reports it as a passing check.
    code = main(["check-example", "g1280"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS  primitive: no" in out
    assert "g1280: all 10 checks passed" in out
    assert "FAIL" not in out
    assert "PASS  group order: 1280" in out
    assert "PASS  fs indicator: -1" in out


def test_check_example_with_a_wrong_expectation_exits_1(monkeypatch, capsys):
    fixture = FIXTURES["s4"]
    expected = tuple((name, 1 if name == "h10" else value) for name, value in fixture.expected)
    monkeypatch.setitem(FIXTURES, "s4", fixture._replace(expected=expected))
    code = main(["check-example", "s4"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert "FAIL  h10: expected 1, got 0" in lines
    assert lines[-1] == "s4: 1 of 10 checks failed"


def test_check_example_unknown_exit_2(capsys):
    code = main(["check-example", "nope"])
    assert code == 2
    assert "unknown example" in capsys.readouterr().err


def _raise_table_error(*args):
    raise TableComputationError("no admissible prime")


def test_check_example_error_is_one_line_exit_2(monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_fixture", _raise_table_error)
    code = main(["check-example", "s4"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: no admissible prime\n"


def test_search_error_on_a_closed_group_is_one_line_exit_2(tmp_path, monkeypatch, capsys):
    # the table of a closed, primitive group is built outside the per-file
    # handling that skips unreadable files
    (tmp_path / "s4.group").write_text(S4_FILE)
    monkeypatch.setattr(cli, "character_table", _raise_table_error)
    code = main(["search", "--catalog", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "s4.group: order 24, primitive: yes\n"
    assert captured.err == "error: no admissible prime\n"


def _write_catalog(tmp_path):
    (tmp_path / "s4.group").write_text(S4_FILE)
    (tmp_path / "c2.group").write_text(
        "conductor 1\ndegree 1\ngenerator dense\nrow -1\n")
    (tmp_path / "broken.group").write_text("conductor 1\ndegree 1\nrow 1\n")
    (tmp_path / "notes.txt").write_text("not a group file")


def test_search_catalog(tmp_path, capsys):
    _write_catalog(tmp_path)
    code = main(["search", "--catalog", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "c2.group: order 2, primitive: no" in captured.out
    assert "rejected" in captured.out
    assert "s4.group: order 24, primitive: yes" in captured.out
    assert "degree 3, type real, eigenvalue-1 all classes: yes, candidate: yes" \
        in captured.out
    assert "broken.group" in captured.err and "skipped" in captured.err


def test_search_max_order(tmp_path, capsys):
    _write_catalog(tmp_path)
    code = main(["search", "--catalog", str(tmp_path), "--max-order", "10"])
    captured = capsys.readouterr()
    assert code == 0
    assert "c2.group" in captured.out
    assert "s4.group: order exceeds 10, skipped" in captured.err


# --max-order is search's one closure bound: a value below 1 gets one error
# line, and argparse refuses --limit with its usage line
USAGE = build_parser().format_usage()


@pytest.mark.parametrize("flags, err", [
    (["--max-order", "0"], "error: --max-order must be at least 1, got 0\n"),
    (["--max-order", "-4"], "error: --max-order must be at least 1, got -4\n"),
    (["--limit", "0"], USAGE + "torusquot: error: unrecognized arguments: --limit 0\n"),
    (["--limit", "-4"], USAGE + "torusquot: error: unrecognized arguments: --limit -4\n"),
], ids=["max-order-0", "max-order-negative", "limit-0", "limit-negative"])
def test_search_rejects_a_bound_below_1(tmp_path, capsys, flags, err):
    # rejected once, before any file is read: no report, only the refusal,
    # where 0 meant "no bound" and a negative bound one warning per file
    _write_catalog(tmp_path)
    try:
        code = main(["search", "--catalog", str(tmp_path), *flags])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == err


def test_search_empty_catalog_exit_2(tmp_path, capsys):
    code = main(["search", "--catalog", str(tmp_path)])
    assert code == 2
    code = main(["search", "--catalog", str(tmp_path / "missing")])
    assert code == 2


def test_search_all_unreadable_exit_2(tmp_path, capsys):
    (tmp_path / "broken.group").write_text("conductor 1\n")
    code = main(["search", "--catalog", str(tmp_path)])
    capsys.readouterr()
    assert code == 2
