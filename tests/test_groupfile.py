"""Group-file parsing, serialization, and positioned errors."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import readme_group_example

from torusquot.cyclo import Cyclotomic
from torusquot.errors import GroupFileError, InvalidInputError
from torusquot.fixtures import G1280_FILE, G216_FILE, S4_FILE
from torusquot.groupfile import (
    GroupFile,
    parse_form_file,
    parse_group,
    parse_group_text,
    parse_lattice_token,
    serialize_group,
    parse_wedge_pairs,
)
from torusquot.groups import Dense, Monomial
from torusquot.torusq import LatticeSpec, SymplecticForm

GOLDEN = Path(__file__).parent / "golden"


def _same_content(a: GroupFile, b: GroupFile) -> bool:
    def omega(gf):
        return None if gf.lattice is None else gf.lattice.omega

    return (a.conductor == b.conductor
            and a.degree == b.degree
            and a.generators == b.generators
            and a.form == b.form
            and omega(a) == omega(b))


@pytest.mark.parametrize("text", [S4_FILE, G216_FILE, G1280_FILE])
def test_fixture_files_round_trip(text):
    gf = parse_group_text(text)
    again = parse_group_text(serialize_group(gf))
    assert _same_content(gf, again)


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.group")), ids=lambda p: p.name)
def test_golden_group_files_round_trip(path):
    gf = parse_group(path)
    assert _same_content(gf, parse_group_text(serialize_group(gf)))


def test_serialization_spells_each_value_canonically():
    # a monomial and a permutation matrix written dense, a wedge written as
    # rows with one pair reversed, and z^4 at conductor 3
    written = (
        "conductor 3\ndegree 4\n"
        "generator dense\nrow 0; -1; 0; 0\nrow 1; 0; 0; 0\nrow 0; 0; 0; z^1\nrow 0; 0; 1; 0\n"
        "generator dense\nrow 0; 0; 1; 0\nrow 0; 0; 0; 1\nrow 1; 0; 0; 0\nrow 0; 1; 0; 0\n"
        "generator dense\nrow 1; 1; 0; 0\nrow 0; 1; 0; 0\nrow 0; 0; 1; 0\nrow 0; 0; 0; 1\n"
        "form dense\nrow 0; 0; 0; -1\nrow 0; 0; 1; 0\nrow 0; -1; 0; 0\nrow 1; 0; 0; 0\n"
        "lattice z^4\n")
    assert serialize_group(parse_group_text(written)) == (
        "conductor 3\ndegree 4\n"
        "generator monomial\nmap 2 1 4 3\nscalars -1; 1; z^1; 1\n"
        "generator perm\nmap 3 4 1 2\n"
        "generator dense\nrow 1; 1; 0; 0\nrow 0; 1; 0; 0\nrow 0; 0; 1; 0\nrow 0; 0; 0; 1\n"
        "form wedge 2:3 4:1\n"
        "lattice z^1\n")


def test_serialization_keeps_the_rows_of_a_form_that_is_no_wedge():
    # an entry 2, and a wedge that leaves coordinates 3 and 4 out
    for rows in ([[0, 2], [-2, 0]], [[0, 1, 0, 0], [-1, 0, 0, 0], [0] * 4, [0] * 4]):
        n = len(rows)
        gf = GroupFile(conductor=1, degree=n, generators=[Monomial(range(n), [1] * n)],
                       form=SymplecticForm(rows), lattice=LatticeSpec(1))
        text = serialize_group(gf)
        assert "form dense" in text and text.endswith("lattice 1\n")
        assert _same_content(gf, parse_group_text(text))


def test_serialization_refuses_a_lattice_generator_outside_the_conductor():
    gf = GroupFile(conductor=3, degree=1, generators=[Dense([[1]])],
                   lattice=LatticeSpec(Cyclotomic.zeta(4, 1)))
    with pytest.raises(InvalidInputError):
        serialize_group(gf)


def test_readme_example():
    gf = parse_group_text(readme_group_example())
    z = Cyclotomic.zeta(4, 1)
    monomial, dense, perm = gf.generators
    assert dense == perm
    assert monomial == Dense([[0, z], [-1, 0]])
    assert gf.form == SymplecticForm([[0, 1], [-1, 0]])
    assert gf.conductor == 4 and gf.lattice.omega == z


def test_monomial_block_semantics():
    gf = parse_group_text(
        "conductor 4\ndegree 2\ngenerator monomial\nmap 2 1\nscalars z^1; -1\n")
    el = gf.generators[0]
    # row 1 reads i times coordinate 2, row 2 reads -1 times coordinate 1
    rows = el.rows
    assert rows[0][1] == Cyclotomic.zeta(4, 1)
    assert rows[1][0] == -1
    assert rows[0][0].is_zero() and rows[1][1].is_zero()


def test_dense_block_and_form_dense():
    text = (
        "conductor 1\ndegree 2\n"
        "generator dense\nrow 0; 1\nrow 1; 0\n"
        "form dense\nrow 0; 1\nrow -1; 0\n")
    gf = parse_group_text(text)
    assert gf.form is not None and gf.form.is_nondegenerate()
    again = parse_group_text(serialize_group(gf))
    assert _same_content(gf, again)


def test_perm_block():
    gf = parse_group_text("conductor 1\ndegree 3\ngenerator perm\nmap 2 3 1\n")
    el = gf.generators[0]
    assert el.rows[0][1] == 1


def test_comments_and_blank_lines_ignored():
    gf = parse_group_text(
        "# heading\n\nconductor 1 # trailing\ndegree 1\n\n"
        "generator perm # style\nmap 1\n")
    assert gf.degree == 1


def test_header_order_free():
    gf = parse_group_text("degree 1\nconductor 3\ngenerator perm\nmap 1\n")
    assert gf.conductor == 3


def test_lattice_tokens():
    gf = parse_group_text(
        "conductor 4\ndegree 1\ngenerator perm\nmap 1\nlattice z^1\n")
    assert gf.lattice is not None
    assert gf.lattice.omega == Cyclotomic.zeta(4, 1)
    spec = parse_lattice_token("1", 4)
    assert spec.omega == 1 and spec.contains(Cyclotomic.from_value(5))


def test_wedge_pair_parsing():
    assert parse_wedge_pairs("1:2 3:4", 4) == [(0, 1), (2, 3)]
    with pytest.raises(GroupFileError):
        parse_wedge_pairs("1:1", 2)
    with pytest.raises(GroupFileError):
        parse_wedge_pairs("1:2 2:3", 4)  # reused coordinate
    with pytest.raises(GroupFileError):
        parse_wedge_pairs("1-2", 2)
    with pytest.raises(GroupFileError):
        parse_wedge_pairs("", 2)


def _expect_error(text, fragment, line=None):
    with pytest.raises(GroupFileError) as exc:
        parse_group_text(text)
    assert fragment in str(exc.value)
    if line is not None:
        assert exc.value.line == line
    return exc.value


def test_malformed_entry_is_positioned():
    err = _expect_error(
        "conductor 4\ndegree 1\ngenerator monomial\nmap 1\nscalars z^\n",
        "scalar entry", line=5)
    assert err.column is not None


# each block kind as (lines before it, its lines as (keyword, rest)); the
# last rest holds an entry list where the block has one
_BLOCKS = {
    "perm-map": ("generator perm\n", [("map", "2 1")]),
    "monomial": ("generator monomial\n", [("map", "2 1"), ("scalars", "z^1; -1")]),
    "dense-row": ("generator dense\n", [("row", "0; 1"), ("row", "1; 0")]),
    "form-row": ("generator perm\nmap 2 1\nform dense\n", [("row", "0; 1"), ("row", "-1; 0")]),
}
_LAYOUTS = {
    "tab": "{kw}\t{rest}",
    "indented": "  {kw} {rest}",
    "indented-tab": "\t{kw}\t{rest}",
}


def _block_text(block, layout, last_rest=None):
    before, lines = _BLOCKS[block]
    if last_rest is not None:
        lines = lines[:-1] + [(lines[-1][0], last_rest)]
    body = "".join(_LAYOUTS[layout].format(kw=kw, rest=rest) + "\n" for kw, rest in lines)
    return "conductor 4\ndegree 2\n" + before + body


@pytest.mark.parametrize("layout", list(_LAYOUTS))
@pytest.mark.parametrize("block", list(_BLOCKS))
def test_block_keyword_is_split_at_any_whitespace(block, layout):
    plain = parse_group_text(_block_text(block, "tab").replace("\t", " "))
    assert _same_content(parse_group_text(_block_text(block, layout)), plain)


@pytest.mark.parametrize("layout", list(_LAYOUTS))
@pytest.mark.parametrize("block", ["monomial", "dense-row", "form-row"])
def test_entry_errors_after_whitespace_keep_their_columns(block, layout):
    # the last entry of the block's last line gains a stray q
    rest = _BLOCKS[block][1][-1][1] + "q"
    text = _block_text(block, layout, rest)
    lines = text.splitlines()
    err = _expect_error(text, "unexpected character 'q'", line=len(lines))
    assert err.column == lines[-1].index("q") + 1


def test_missing_headers():
    _expect_error("degree 2\ngenerator perm\nmap 1 2\n", "missing conductor")
    _expect_error("conductor 1\ngenerator perm\nmap 1\n", "missing degree")


def test_duplicate_headers_rejected():
    _expect_error("conductor 1\nconductor 2\ndegree 1\ngenerator perm\nmap 1\n",
                  "duplicate conductor")


def test_header_after_block_rejected():
    _expect_error("conductor 1\ndegree 1\ngenerator perm\nmap 1\ndegree 2\n",
                  "before all blocks", line=5)


def test_map_must_be_permutation():
    _expect_error("conductor 1\ndegree 2\ngenerator perm\nmap 1 1\n",
                  "permutation", line=4)


def test_map_length_checked():
    _expect_error("conductor 1\ndegree 3\ngenerator perm\nmap 1 2\n",
                  "lists 2 coordinates", line=4)


def test_map_index_range_checked():
    _expect_error("conductor 1\ndegree 2\ngenerator perm\nmap 1 5\n",
                  "outside 1..2", line=4)


def test_monomial_needs_both_lines():
    _expect_error("conductor 1\ndegree 1\ngenerator monomial\nmap 1\n",
                  "missing its scalars")
    _expect_error("conductor 1\ndegree 1\ngenerator monomial\nscalars 1\n",
                  "missing its map")


def test_dense_row_count_checked():
    _expect_error("conductor 1\ndegree 2\ngenerator dense\nrow 1; 0\n",
                  "has 1 rows")
    _expect_error("conductor 1\ndegree 2\ngenerator dense\nrow 1; 0; 0\nrow 0; 1\n",
                  "row has 3 entries", line=4)


def test_unknown_directive():
    _expect_error("conductor 1\ndegree 1\ngenerator perm\nmap 1\nwhatever x\n",
                  "unknown directive", line=5)


def test_no_generators():
    _expect_error("conductor 1\ndegree 1\n", "no generator blocks")


def test_duplicate_form_and_lattice():
    base = "conductor 1\ndegree 2\ngenerator perm\nmap 1 2\n"
    _expect_error(base + "form wedge 1:2\nform wedge 1:2\n", "duplicate form")
    _expect_error(base + "lattice 1\nlattice 1\n", "duplicate lattice")


def test_bad_lattice_tokens():
    base = "conductor 4\ndegree 1\ngenerator perm\nmap 1\n"
    _expect_error(base + "lattice q\n", "must be z^k or 1")
    # z^2 at conductor 4 is -1, which spans no lattice
    _expect_error(base + "lattice z^2\n", "-1")


def test_zero_scalar_rejected():
    _expect_error("conductor 1\ndegree 1\ngenerator monomial\nmap 1\nscalars 0\n",
                  "nonzero")


def test_scalar_count_must_match_the_degree():
    exc = _expect_error("conductor 1\ndegree 2\ngenerator monomial\nmap 2 1\nscalars 1\n",
                        "scalars lists", line=5)
    assert str(exc) == "scalars lists 1 entries, degree is 2 (line 5)"


def test_form_must_be_antisymmetric():
    _expect_error(
        "conductor 1\ndegree 2\ngenerator perm\nmap 1 2\n"
        "form dense\nrow 1; 0\nrow 0; 1\n",
        "antisymmetric")


def test_parse_group_reads_files(tmp_path):
    path = tmp_path / "a.group"
    path.write_text(S4_FILE)
    gf = parse_group(path)
    assert gf.degree == 3
    assert len(gf.generators) == 2
    with pytest.raises(GroupFileError):
        parse_group(tmp_path / "missing.group")


def test_parse_form_file(tmp_path):
    path = tmp_path / "omega.form"
    path.write_text("form wedge 1:2 3:4\n")
    form = parse_form_file(path, conductor=4, degree=4)
    assert form.is_nondegenerate()
    path.write_text("conductor 1\nform dense\nrow 0; 2\nrow -2; 0\n")
    form = parse_form_file(path, conductor=4, degree=2)
    assert form.matrix[0][1] == 2
    path.write_text("form wedge 1:2\nlattice 1\n")
    with pytest.raises(GroupFileError):
        parse_form_file(path, conductor=1, degree=2)


@pytest.mark.parametrize("value", ["0", "-4"])
def test_form_file_conductor_must_be_positive(tmp_path, value):
    path = tmp_path / "omega.form"
    path.write_text(f"# a form over Q\nconductor {value}\nform wedge 1:2\n")
    with pytest.raises(GroupFileError) as exc:
        parse_form_file(path, conductor=4, degree=2)
    assert "conductor must be positive" in str(exc.value)
    assert exc.value.line == 2


# -- randomized round trips for monomial blocks


@st.composite
def _monomials(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    perm = draw(st.permutations(range(n)))
    conductor = draw(st.sampled_from((1, 3, 4, 8, 12)))
    scalars = [Cyclotomic.zeta(conductor, draw(st.integers(0, conductor - 1)))
               for _ in range(n)]
    return conductor, Monomial(perm, scalars)


@settings(deadline=None, max_examples=60)
@given(data=_monomials())
def test_random_monomial_round_trip(data):
    conductor, el = data
    gf = GroupFile(conductor=conductor, degree=el.degree, generators=[el])
    again = parse_group_text(serialize_group(gf))
    assert again.generators[0] == el
