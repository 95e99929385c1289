"""Test-only group-file reader, the earlier body of
:func:`torusquot.groupfile.parse_group_text` and
:func:`torusquot.groupfile.parse_form_file`.

It walks the comment-stripped lines through a peek/take cursor
(`_Lines`), takes each block's lines with a generator that stops at the
first keyword the block does not allow (`_block_lines`), and reads the
headers of a group file and of a form file with loops of their own.  The
package reads both files from one list of directives; the differential
tests require the two readers to give the same content, or the same
error text, line and column, on mutated valid files.
"""

from __future__ import annotations

from torusquot.cyclo import EntryParseError, one, parse_entry
from torusquot.errors import GroupFileError
from torusquot.groupfile import GroupFile, _read, parse_lattice_token, parse_wedge_pairs
from torusquot.groups import Dense, Element, Monomial
from torusquot.torusq import SymplecticForm


class _Lines:
    """Comment-stripped, non-blank lines with their original numbers."""

    def __init__(self, text: str):
        self.items = []
        for no, raw in enumerate(text.splitlines(), start=1):
            body = raw.split("#", 1)[0]
            if body.strip():
                self.items.append((no, body))
        self.pos = 0

    def peek(self):
        return self.items[self.pos] if self.pos < len(self.items) else None

    def take(self):
        item = self.peek()
        if item is not None:
            self.pos += 1
        return item


def _keyword(line: str) -> str:
    return line.split(None, 1)[0]


def _parse_int(token: str, what: str, lineno: int) -> int:
    try:
        value = int(token)
    except ValueError:
        raise GroupFileError(f"{what} must be an integer, got {token!r}", lineno)
    return value


def _header_value(body: str, kw: str, lineno: int) -> int:
    """The N of a `conductor N` or `degree N` line, which must be positive."""
    parts = body.split()
    if len(parts) != 2:
        raise GroupFileError(f"expected `{kw} N`", lineno)
    value = _parse_int(parts[1], kw, lineno)
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
    lines = _Lines(text)
    conductor = None
    degree = None

    # header: conductor and degree in either order, both before any block
    while True:
        item = lines.peek()
        if item is None:
            break
        lineno, body = item
        kw = _keyword(body)
        if kw not in ("conductor", "degree"):
            break
        lines.take()
        value = _header_value(body, kw, lineno)
        if kw == "conductor":
            if conductor is not None:
                raise GroupFileError("duplicate conductor line", lineno)
            conductor = value
        else:
            if degree is not None:
                raise GroupFileError("duplicate degree line", lineno)
            degree = value

    first = lines.peek()
    at = first[0] if first else None
    if conductor is None:
        raise GroupFileError(f"{source}: missing conductor line", at)
    if degree is None:
        raise GroupFileError(f"{source}: missing degree line", at)

    gf = GroupFile(conductor=conductor, degree=degree)

    while True:
        item = lines.take()
        if item is None:
            break
        lineno, body = item
        kw = _keyword(body)
        if kw == "generator":
            gf.generators.append(_parse_generator(lines, body, lineno, gf))
        elif kw == "form":
            if gf.form is not None:
                raise GroupFileError("duplicate form block", lineno)
            gf.form = _parse_form(lines, body, lineno, gf)
        elif kw == "lattice":
            if gf.lattice is not None:
                raise GroupFileError("duplicate lattice block", lineno)
            gf.lattice = _parse_lattice(body, lineno, gf)
        elif kw in ("conductor", "degree"):
            raise GroupFileError(f"{kw} must appear before all blocks", lineno)
        else:
            raise GroupFileError(f"unknown directive {kw!r}", lineno)

    if not gf.generators:
        raise GroupFileError(f"{source}: no generator blocks", None)
    return gf


def _block_lines(lines: _Lines, allowed):
    """Yield (lineno, keyword, rest, rest_offset) until the next directive:
    the keyword split off as `_keyword` does, rest from its 0-based column."""
    while True:
        item = lines.peek()
        if item is None:
            return
        lineno, body = item
        kw = _keyword(body)
        if kw not in allowed:
            return
        lines.take()
        offset = body.index(kw) + len(kw)
        yield lineno, kw, body[offset:], offset


def _parse_generator(lines: _Lines, header: str, lineno: int, gf: GroupFile) -> Element:
    parts = header.split()
    if len(parts) != 2 or parts[1] not in ("monomial", "dense", "perm"):
        raise GroupFileError("expected `generator monomial|dense|perm`", lineno)
    kind = parts[1]
    n = gf.degree

    if kind == "perm":
        got = list(_block_lines(lines, ("map",)))
        if len(got) != 1:
            raise GroupFileError("perm generator needs exactly one map line", lineno)
        mlineno, _, rest, _ = got[0]
        maps = _parse_index_list(rest, n, mlineno, "map")
        return _row_style_monomial(maps, [one()] * n, n, mlineno)

    if kind == "monomial":
        maps = None
        scalars = None
        for blineno, kw, rest, off in _block_lines(lines, ("map", "scalars")):
            if kw == "map":
                if maps is not None:
                    raise GroupFileError("duplicate map line", blineno)
                maps = _parse_index_list(rest, n, blineno, "map")
            else:
                if scalars is not None:
                    raise GroupFileError("duplicate scalars line", blineno)
                entries = _parse_entry_list(rest, off, gf.conductor,
                                            blineno, "scalar")
                if len(entries) != n:
                    raise GroupFileError(
                        f"scalars lists {len(entries)} entries, degree is {n}", blineno)
                scalars = entries
        if maps is None:
            raise GroupFileError("monomial generator is missing its map line", lineno)
        if scalars is None:
            raise GroupFileError("monomial generator is missing its scalars line", lineno)
        return _row_style_monomial(maps, scalars, n, lineno)

    return Dense(_parse_rows(lines, lineno, gf, "matrix", "row", "dense generator"))


def _parse_rows(lines: _Lines, lineno: int, gf: GroupFile, what: str, row: str, block: str):
    """The `row` lines of a dense block, degree many of degree many entries:
    ``what`` names a bad entry, ``row`` a short or long row and ``block``
    the block with too few or too many rows."""
    n = gf.degree
    rows = []
    for blineno, _, rest, off in _block_lines(lines, ("row",)):
        entries = _parse_entry_list(rest, off, gf.conductor, blineno, what)
        if len(entries) != n:
            raise GroupFileError(f"{row} has {len(entries)} entries, degree is {n}", blineno)
        rows.append(entries)
    if len(rows) != n:
        raise GroupFileError(f"{block} has {len(rows)} rows, degree is {n}", lineno)
    return rows


def _parse_form(lines: _Lines, header: str, lineno: int, gf: GroupFile):
    parts = header.split()
    if len(parts) >= 2 and parts[1] == "wedge":
        pairs = parse_wedge_pairs(" ".join(parts[2:]), gf.degree, lineno)
        return SymplecticForm.wedge_pairs(gf.degree, pairs)
    if parts[1:] == ["dense"]:
        rows = _parse_rows(lines, lineno, gf, "form", "form row", "form")
        try:
            return SymplecticForm(rows)
        except Exception as exc:
            raise GroupFileError(str(exc), lineno)
    raise GroupFileError("expected `form wedge ...` or `form dense`", lineno)


def _parse_lattice(body: str, lineno: int, gf: GroupFile):
    parts = body.split()
    if len(parts) != 2:
        raise GroupFileError("expected `lattice z^k` or `lattice 1`", lineno)
    return parse_lattice_token(parts[1], gf.conductor, lineno)


def parse_form_file(path, conductor: int, degree: int) -> SymplecticForm:
    """A standalone form file: optional `conductor N`, then one form block."""
    lines = _Lines(_read(path))
    item = lines.peek()
    if item is not None and _keyword(item[1]) == "conductor":
        lineno, body = lines.take()
        conductor = _header_value(body, "conductor", lineno)
    item = lines.take()
    if item is None:
        raise GroupFileError(f"{path}: no form block", None)
    lineno, body = item
    if _keyword(body) != "form":
        raise GroupFileError("expected a form block", lineno)
    carrier = GroupFile(conductor=conductor, degree=degree)
    form = _parse_form(lines, body, lineno, carrier)
    left = lines.peek()
    if left is not None:
        raise GroupFileError("unexpected content after form block", left[0])
    return form
