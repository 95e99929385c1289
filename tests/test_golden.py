"""Golden outputs: the CLI prints the same bytes and exit codes as recorded.

Each case runs one command in-process and compares its exit code, stdout
and stderr with `tests/golden/<case>.out`.  The built-in examples and the
`search` case's catalog are written to a temporary directory first; the
dense-generator inputs live next to the golden files.  Arithmetic or encoding refactors must leave
every file unchanged.

To record the files again after a deliberate change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from torusquot import chartab, cli, torusq
from torusquot.cli import main
from torusquot.fixtures import FIXTURES

GOLDEN = Path(__file__).parent / "golden"

_EXAMPLE_CASES = {}
for _name in ("s4", "g216", "g1280"):
    _EXAMPLE_CASES.update({
        f"check-example-{_name}": ["check-example", _name],
        f"{_name}-analyze-json": ["analyze", "--group", f"{{{_name}}}", "--report", "json"],
        f"{_name}-chartable-json": ["chartable", "--group", f"{{{_name}}}", "--format", "json"],
    })

_G1280_PAIR_FORM = "wedge " + " ".join(f"{i}:{i + 20}" for i in range(1, 21))

CASES = {
    **_EXAMPLE_CASES,
    "s4-analyze-pair-json": ["analyze", "--group", "{s4}", "--pair", "--report", "json"],
    "g216-analyze-pair-json": ["analyze", "--group", "{g216}", "--pair", "--report", "json"],
    "g1280-analyze-pair-json": ["analyze", "--group", "{g1280}", "--pair",
                                "--form", _G1280_PAIR_FORM, "--report", "json"],
    # the file's degree-20 form does not fit the doubled representation: exit 2
    "g1280-analyze-pair-file-form": ["analyze", "--group", "{g1280}", "--pair"],
    "s4-analyze-pair-form-text": ["analyze", "--group", "{s4}", "--pair",
                                  "--form", "wedge 1:4 2:5 3:6"],
    "g216-chartable-text": ["chartable", "--group", "{g216}"],
    "s4-dense-analyze-json": ["analyze", "--group", "{s4_dense}", "--report", "json"],
    "s4-dense-analyze-pair-json": ["analyze", "--group", "{s4_dense}", "--pair",
                                   "--report", "json"],
    "s4-dense-chartable-json": ["chartable", "--group", "{s4_dense}", "--format", "json"],
    "s3-dense-analyze-json": ["analyze", "--group", "{s3_dense}", "--report", "json"],
    "s3-dense-analyze-pair-json": ["analyze", "--group", "{s3_dense}", "--pair",
                                   "--report", "json"],
    "s3-dense-chartable-json": ["chartable", "--group", "{s3_dense}", "--format", "json"],
    # s4's real-type pair conjugated by an integer matrix: the fibration is
    # spun from a joint eigenvector, two rational 3-dimensional halves
    "pair-dense-analyze-json": ["analyze", "--group", "{pair_dense}", "--report", "json"],
    "search-catalog": ["search", "--catalog", "{catalog}", "--max-order", "200"],
}

# the catalog of the search case: four primitive groups with tables (one
# written with dense generators), one group the primitivity criterion
# rejects and one group beyond the order bound
CATALOG = {
    # cube rotations, S4
    "a_s4.group": "conductor 1\ndegree 3\n"
                  "generator monomial\nmap 2 1 3\nscalars -1; 1; 1\n"
                  "generator perm\nmap 3 1 2\n",
    # G(4,1,2), order 32
    "b_g412.group": "conductor 4\ndegree 2\n"
                    "generator monomial\nmap 1 2\nscalars z; 1\n"
                    "generator perm\nmap 2 1\n",
    # the Heisenberg group of order 27
    "c_heis27.group": "conductor 3\ndegree 3\n"
                      "generator perm\nmap 2 3 1\n"
                      "generator monomial\nmap 1 2 3\nscalars 1; z; z^2\n",
    # Q8, dense
    "d_q8_dense.group": "conductor 4\ndegree 2\n"
                        "generator dense\nrow z; 0\nrow 0; -z\n"
                        "generator dense\nrow 0; -1\nrow 1; 0\n",
    # A4: cyclic Sylow 3-subgroup and abelianization C3, rejected
    "e_a4.group": "conductor 1\ndegree 3\n"
                  "generator perm\nmap 3 1 2\n"
                  "generator monomial\nmap 1 2 3\nscalars -1; -1; 1\n",
    # G(2,1,4), order 384, beyond --max-order 200
    "f_g214.group": "conductor 1\ndegree 4\n"
                    "generator monomial\nmap 2 3 4 1\nscalars -1; 1; 1; 1\n"
                    "generator perm\nmap 2 1 3 4\n",
}


def _group_paths(directory: Path) -> dict:
    paths = {path.stem: str(path) for path in GOLDEN.glob("*.group")}
    for name, fixture in FIXTURES.items():
        path = directory / f"{name}.group"
        path.write_text(fixture.file_text)
        paths[name] = str(path)
    catalog = directory / "catalog"
    catalog.mkdir()
    for name, text in CATALOG.items():
        (catalog / name).write_text(text)
    paths["catalog"] = str(catalog)
    return paths


def _run(case: str, paths: dict) -> str:
    argv = [arg.format(**paths) for arg in CASES[case]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


@pytest.fixture(scope="module")
def group_paths(tmp_path_factory):
    return _group_paths(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case, group_paths):
    expected = (GOLDEN / f"{case}.out").read_text()
    assert _run(case, group_paths) == expected


def test_search_reads_types_and_eigenvalue_one_off_the_table(group_paths, monkeypatch):
    # the indicator sum stays for arbitrary class functions; search reads
    # each irreducible's indicator and eigenvalue-1 counts off its table
    def refuse(chi):
        raise AssertionError("search summed over the classes of one character")

    for module in (chartab, cli, torusq):
        monkeypatch.setattr(module, "frobenius_schur", refuse, raising=False)
    expected = (GOLDEN / "search-catalog.out").read_text()
    assert _run("search-catalog", group_paths) == expected


def _record() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        paths = _group_paths(Path(tmp))
        for case in sorted(CASES):
            (GOLDEN / f"{case}.out").write_text(_run(case, paths))
            print(f"wrote {case}.out")
    return 0


if __name__ == "__main__":
    sys.exit(_record())
