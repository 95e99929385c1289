"""The group-file and form-file reader against the earlier line-by-line one.

The package reads a file from one list of directives, taking each block
as the run of records after its header; `groupfile_oracle` walks the
lines through a peek/take cursor.  On valid files mutated line by line
(lines deleted, duplicated or swapped, keywords replaced, stray tokens
appended, characters inserted into entries) both readers must give the
same content, or the same error with the same text, line and column.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groupfile_oracle as oracle
from helpers import readme_group_example

from torusquot.errors import TorusQuotError
from torusquot.fixtures import G1280_FILE, G216_FILE, S4_FILE
from torusquot.groupfile import parse_form_file, parse_group_text

GOLDEN = Path(__file__).parent / "golden"

GROUP_TEXTS = [S4_FILE, G216_FILE, G1280_FILE, readme_group_example()] + [
    path.read_text(encoding="utf-8") for path in sorted(GOLDEN.glob("*.group"))]

# (text, conductor, degree): a wedge form, a dense form, a leading
# conductor line, trailing content, and no form block
FORM_FILES = [
    ("form wedge 1:2 3:4\n", 4, 4),
    ("form dense\nrow 0; 2; 0; 0\nrow -2; 0; 0; 0\nrow 0; 0; 0; z^1\nrow 0; 0; -z^1; 0\n", 4, 4),
    ("# a form over Q\nconductor 1\nform dense\nrow 0; 1\nrow -1; 0\n", 4, 2),
    ("form wedge 1:2\nlattice 1\n", 1, 2),
    ("conductor 3\n# no form here\n", 3, 2),
]

KEYWORDS = ("conductor", "degree", "generator", "form", "lattice",
            "map", "scalars", "row", "whatever")
TOKENS = ("1", "0", "-1", "z^1", "1:2", "x", "dense", "wedge", "perm")
CHARACTERS = " \t;:/*^+-019zq#"


@st.composite
def mutated(draw, text):
    """``text`` after up to three line mutations."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(0, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        words = line.split(None, 1)
        kind = draw(st.sampled_from(("delete", "duplicate", "swap", "keyword", "token", "char")))
        if kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, line)
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "keyword" and words:
            at = line.index(words[0])
            word = draw(st.sampled_from(KEYWORDS))
            lines[i] = line[:at] + word + line[at + len(words[0]):]
        elif kind == "token":
            lines[i] = line + " " + draw(st.sampled_from(TOKENS))
        elif kind == "char" and words:
            at = draw(st.integers(line.index(words[0]) + len(words[0]), len(line)))
            lines[i] = line[:at] + draw(st.sampled_from(CHARACTERS)) + line[at:]
    return "".join(line + "\n" for line in lines)


def outcome(parse, *args):
    """What a reader makes of its input: the value, or the error's type,
    text, line and column."""
    try:
        return parse(*args)
    except TorusQuotError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)


def content(gf):
    if isinstance(gf, tuple):
        return gf
    omega = None if gf.lattice is None else gf.lattice.omega
    return gf.conductor, gf.degree, gf.generators, gf.form, omega


@settings(deadline=None, max_examples=400)
@given(data=st.data())
def test_mutated_group_files_read_alike(data):
    text = data.draw(st.sampled_from(GROUP_TEXTS).flatmap(mutated))
    new = content(outcome(parse_group_text, text, "mutant"))
    old = content(outcome(oracle.parse_group_text, text, "mutant"))
    assert new == old


@pytest.fixture(scope="module")
def form_path(tmp_path_factory):
    return tmp_path_factory.mktemp("forms") / "mutant.form"


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_mutated_form_files_read_alike(data, form_path):
    base, conductor, degree = data.draw(st.sampled_from(FORM_FILES))
    form_path.write_text(data.draw(mutated(base)), encoding="utf-8")
    new = outcome(parse_form_file, form_path, conductor, degree)
    old = outcome(oracle.parse_form_file, form_path, conductor, degree)
    assert new == old


def test_every_base_text_reads_alike():
    for text in GROUP_TEXTS:
        assert content(parse_group_text(text)) == content(oracle.parse_group_text(text))
