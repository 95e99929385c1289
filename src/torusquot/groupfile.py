"""Line-oriented text format for groups given by generator matrices.

A file declares a cyclotomic conductor and a degree, then one block per
generator.  Three generator styles exist:

    generator monomial        one nonzero entry per row
    map 2 1 3                 row r reads from input coordinate map[r] (1-based)
    scalars 1; -1; 1          entry placed in row r, cyclotomic syntax

    generator dense           full matrix, one `row` line per row
    row 0; 1
    row 1; 0

    generator perm            permutation matrix, row style as above
    map 2 3 1

The style only spells the matrix: a scaled permutation matrix written
`dense` is the same element as written `monomial`, and closes as one.

Optionally a file carries an antisymmetric form and a lattice generator:

    form wedge 1:4 2:5 3:6    sum of dz_a ^ dz_b, 1-based coordinates
    form dense                or explicit rows like a dense generator
    lattice z^1               entries must lie in Z + wZ, w = z^k or 1

`#` starts a comment.  Blank lines separate nothing and are ignored.
Scalar syntax is the `a/b*z^k` sum form of :mod:`torusquot.cyclo` with z
the primitive conductor-th root of unity.
"""

from __future__ import annotations

from .cyclo import Cyclotomic, EntryParseError, one, parse_entry
from .cyclo import format_entry
from .errors import GroupFileError, InvalidInputError
from .groups import Dense, Element, Monomial
from .torusq import LatticeSpec, SymplecticForm


class GroupFile:
    """A parsed group file: generator elements, and the form and lattice
    when given.  No spelling is kept; :func:`serialize_group` derives it."""

    def __init__(self, conductor: int, degree: int, generators: list | None = None,
                 form: SymplecticForm | None = None, lattice: LatticeSpec | None = None):
        self.conductor = conductor
        self.degree = degree
        self.generators = [] if generators is None else generators
        self.form = form
        self.lattice = lattice

    def elements(self):
        return self.generators


# -- parsing

# the keywords of the lines that a block header, split at whitespace, takes
_BLOCKS = {("generator", "perm"): ("map",), ("generator", "monomial"): ("map", "scalars"),
           ("generator", "dense"): ("row",), ("form", "dense"): ("row",)}


def _directives(text: str):
    """(line number, keyword, rest, rest's 0-based column) for each
    comment-stripped, non-blank line, the keyword split off at whitespace."""
    out = []
    for no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        words = body.split(None, 1)
        if words:
            col = body.index(words[0]) + len(words[0])
            out.append((no, words[0], body[col:], col))
    return out


def _block(records, i: int):
    """The records of the block headed by records[i]: the run after it
    whose keywords its header takes."""
    _, kw, rest, _ = records[i]
    allowed = _BLOCKS.get((kw, *rest.split()), ())
    end = i + 1
    while end < len(records) and records[end][1] in allowed:
        end += 1
    return records[i + 1:end]


def _parse_int(token: str, what: str, lineno: int) -> int:
    try:
        value = int(token)
    except ValueError:
        raise GroupFileError(f"{what} must be an integer, got {token!r}", lineno)
    return value


def _header_value(record) -> int:
    """The N of a `conductor N` or `degree N` record, which must be positive."""
    lineno, kw, rest, _ = record
    parts = rest.split()
    if len(parts) != 1:
        raise GroupFileError(f"expected `{kw} N`", lineno)
    value = _parse_int(parts[0], kw, lineno)
    if value < 1:
        raise GroupFileError(f"{kw} must be positive", lineno)
    return value


def _parse_index_list(rest: str, degree: int, lineno: int, what: str):
    tokens = rest.split()
    if len(tokens) != degree:
        raise GroupFileError(
            f"{what} lists {len(tokens)} coordinates, degree is {degree}", lineno)
    out = []
    for tok in tokens:
        k = _parse_int(tok, what, lineno)
        if not 1 <= k <= degree:
            raise GroupFileError(
                f"{what} index {k} outside 1..{degree}", lineno)
        out.append(k)
    return out


def _parse_entry_list(rest: str, rest_offset: int, conductor: int,
                      lineno: int, what: str):
    """Split on `;` and parse each chunk, reporting real column numbers."""
    entries = []
    chunks = rest.split(";")
    offset = rest_offset
    for chunk in chunks:
        try:
            entries.append(parse_entry(chunk, conductor))
        except EntryParseError as exc:
            col = offset + (exc.column - 1) + 1
            raise GroupFileError(f"bad {what} entry: {exc}", lineno, col)
        offset += len(chunk) + 1
    return entries


def _row_style_monomial(maps, scalars, degree: int, lineno: int) -> Element:
    """Build the element whose row r has scalars[r] in column maps[r]."""
    if sorted(maps) != list(range(1, degree + 1)):
        raise GroupFileError("map indices must form a permutation", lineno)
    perm = [0] * degree
    by_col = [one()] * degree
    for r, (t, s) in enumerate(zip(maps, scalars)):
        perm[t - 1] = r
        by_col[t - 1] = s
    try:
        return Monomial(perm, by_col)
    except Exception as exc:
        raise GroupFileError(str(exc), lineno)


def parse_group_text(text: str, source: str = "<string>") -> GroupFile:
    records = _directives(text)
    header = {}
    i = 0
    # conductor and degree in either order, both before any block
    while i < len(records) and records[i][1] in ("conductor", "degree"):
        value = _header_value(records[i])
        lineno, kw = records[i][:2]
        if kw in header:
            raise GroupFileError(f"duplicate {kw} line", lineno)
        header[kw] = value
        i += 1
    at = records[i][0] if i < len(records) else None
    for kw in ("conductor", "degree"):
        if kw not in header:
            raise GroupFileError(f"{source}: missing {kw} line", at)

    gf = GroupFile(conductor=header["conductor"], degree=header["degree"])
    while i < len(records):
        lineno, kw, rest, _ = records[i]
        block = _block(records, i)
        i += 1 + len(block)
        if kw == "generator":
            gf.generators.append(_parse_generator(lineno, rest, block, gf.conductor, gf.degree))
        elif kw == "form":
            if gf.form is not None:
                raise GroupFileError("duplicate form block", lineno)
            gf.form = _parse_form(lineno, rest, block, gf.conductor, gf.degree)
        elif kw == "lattice":
            if gf.lattice is not None:
                raise GroupFileError("duplicate lattice block", lineno)
            parts = rest.split()
            if len(parts) != 1:
                raise GroupFileError("expected `lattice z^k` or `lattice 1`", lineno)
            gf.lattice = parse_lattice_token(parts[0], gf.conductor, lineno)
        elif kw in ("conductor", "degree"):
            raise GroupFileError(f"{kw} must appear before all blocks", lineno)
        else:
            raise GroupFileError(f"unknown directive {kw!r}", lineno)

    if not gf.generators:
        raise GroupFileError(f"{source}: no generator blocks", None)
    return gf


def _parse_generator(lineno: int, rest: str, block, conductor: int, n: int) -> Element:
    style = rest.split()
    if ("generator", *style) not in _BLOCKS:
        raise GroupFileError("expected `generator monomial|dense|perm`", lineno)

    if style == ["perm"]:
        if len(block) != 1:
            raise GroupFileError("perm generator needs exactly one map line", lineno)
        mlineno, _, mrest, _ = block[0]
        maps = _parse_index_list(mrest, n, mlineno, "map")
        return _row_style_monomial(maps, [one()] * n, n, mlineno)

    if style == ["monomial"]:
        lines = {}
        for blineno, kw, brest, off in block:
            if kw in lines:
                raise GroupFileError(f"duplicate {kw} line", blineno)
            if kw == "map":
                lines[kw] = _parse_index_list(brest, n, blineno, "map")
            else:
                lines[kw] = _parse_entry_list(brest, off, conductor, blineno, "scalar")
                if len(lines[kw]) != n:
                    raise GroupFileError(
                        f"scalars lists {len(lines[kw])} entries, degree is {n}", blineno)
        for kw in ("map", "scalars"):
            if kw not in lines:
                raise GroupFileError(f"monomial generator is missing its {kw} line", lineno)
        return _row_style_monomial(lines["map"], lines["scalars"], n, lineno)

    return Dense(_parse_rows(block, lineno, conductor, n, "matrix", "row", "dense generator"))


def _parse_rows(block, lineno: int, conductor: int, n: int, what: str, row: str, name: str):
    """The `row` records of a dense block, n many of n entries each:
    ``what`` names a bad entry, ``row`` a short or long row and ``name``
    the block with too few or too many rows."""
    rows = []
    for blineno, _, rest, off in block:
        entries = _parse_entry_list(rest, off, conductor, blineno, what)
        if len(entries) != n:
            raise GroupFileError(f"{row} has {len(entries)} entries, degree is {n}", blineno)
        rows.append(entries)
    if len(rows) != n:
        raise GroupFileError(f"{name} has {len(rows)} rows, degree is {n}", lineno)
    return rows


def _parse_form(lineno: int, rest: str, block, conductor: int, degree: int):
    parts = rest.split()
    if parts[:1] == ["wedge"]:
        pairs = parse_wedge_pairs(" ".join(parts[1:]), degree, lineno)
        return SymplecticForm.wedge_pairs(degree, pairs)
    if parts == ["dense"]:
        rows = _parse_rows(block, lineno, conductor, degree, "form", "form row", "form")
        try:
            return SymplecticForm(rows)
        except Exception as exc:
            raise GroupFileError(str(exc), lineno)
    raise GroupFileError("expected `form wedge ...` or `form dense`", lineno)


def parse_wedge_pairs(text: str, degree: int, lineno: int | None = None):
    """`a:b` tokens, 1-based and pairwise disjoint, to 0-based pairs."""
    pairs = []
    seen = set()
    tokens = text.split()
    if not tokens:
        raise GroupFileError("wedge form lists no pairs", lineno)
    for tok in tokens:
        a, sep, b = tok.partition(":")
        if not sep:
            raise GroupFileError(f"wedge pair {tok!r} is not of the form a:b", lineno)
        ai = _parse_int(a, "wedge index", lineno)
        bi = _parse_int(b, "wedge index", lineno)
        for k in (ai, bi):
            if not 1 <= k <= degree:
                raise GroupFileError(f"wedge index {k} outside 1..{degree}", lineno)
            if k in seen:
                raise GroupFileError(f"coordinate {k} used twice in wedge form", lineno)
            seen.add(k)
        pairs.append((ai - 1, bi - 1))
    return pairs


def parse_lattice_token(token: str, conductor: int, lineno: int | None = None):
    """`z^k` or `1` into a LatticeSpec."""
    if token == "1":
        return LatticeSpec(1)
    if token.startswith("z^"):
        k = _parse_int(token[2:], "lattice exponent", lineno)
        try:
            return LatticeSpec(Cyclotomic.zeta(conductor, k))
        except Exception as exc:
            raise GroupFileError(str(exc), lineno)
    raise GroupFileError(
        f"lattice generator must be z^k or 1, got {token!r}", lineno)


def parse_form_file(path, conductor: int, degree: int) -> SymplecticForm:
    """A standalone form file: optional `conductor N`, then one form block."""
    records = _directives(_read(path))
    i = 0
    if records and records[0][1] == "conductor":
        conductor = _header_value(records[0])
        i = 1
    if i == len(records):
        raise GroupFileError(f"{path}: no form block", None)
    lineno, kw, rest, _ = records[i]
    if kw != "form":
        raise GroupFileError("expected a form block", lineno)
    block = _block(records, i)
    form = _parse_form(lineno, rest, block, conductor, degree)
    left = records[i + 1 + len(block):]
    if left:
        raise GroupFileError("unexpected content after form block", left[0][0])
    return form


def parse_group(path) -> GroupFile:
    return parse_group_text(_read(path), source=str(path))


def _read(path) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise GroupFileError(f"cannot read {path}: {exc.strerror or exc}", None)


# -- serialization


def serialize_group(gf: GroupFile) -> str:
    """The file text, each value in its canonical spelling: a scaled
    permutation matrix as `perm` when its scalars are 1 and as `monomial`
    otherwise, any other generator as `dense`; a form whose columns each
    hold one entry ±1 as `form wedge`, any other as `form dense`; the
    lattice as `1` or as the least `z^k` that is its generator."""
    out = [f"conductor {gf.conductor}", f"degree {gf.degree}"]
    fmt = lambda x: format_entry(x, gf.conductor)
    for element in gf.generators:
        if element.is_monomial():
            cols, scalars = element.row_entries()
            perm = all(s == 1 for s in scalars)
            out.append("generator perm" if perm else "generator monomial")
            out.append("map " + " ".join(str(c + 1) for c in cols))
            if not perm:
                out.append("scalars " + "; ".join(fmt(s) for s in scalars))
        else:
            out.append("generator dense")
            out.extend("row " + "; ".join(fmt(x) for x in row) for row in element.rows)
    if gf.form is not None:
        columns = gf.form.element.columns
        if all(len(column) == 1 and column[0][1] in (1, -1) for column in columns):
            # antisymmetry pairs column j's entry at row i with column i's at
            # row j, so each pair is written once, as a:b when Omega[a][b] = 1
            pairs = [(i, j) if x == 1 else (j, i)
                     for j, ((i, x),) in enumerate(columns) if i < j]
            out.append("form wedge " + " ".join(f"{a + 1}:{b + 1}" for a, b in pairs))
        else:
            out.append("form dense")
            out.extend("row " + "; ".join(fmt(x) for x in row) for row in gf.form.matrix)
    if gf.lattice is not None:
        omega, n = gf.lattice.omega, gf.conductor
        k = next((k for k in range(n) if Cyclotomic.zeta(n, k) == omega), None)
        if k is None:
            raise InvalidInputError(f"lattice generator {omega} is no power of z at conductor {n}")
        out.append("lattice 1" if k == 0 else f"lattice z^{k}")
    return "\n".join(out) + "\n"
