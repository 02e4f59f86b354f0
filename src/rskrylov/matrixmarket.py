"""Matrix Market coordinate files and plain vector files.

The reader handles ``coordinate real`` matrices in ``general`` or
``symmetric`` layout (symmetric files mirror their off-diagonal entries),
converts the 1-based indices, and sums duplicate entries.  Only square
matrices are accepted; the ``pattern`` and ``complex`` fields are
rejected.

The file is read as bytes, with no decoded copy of its text.  The header
and the size line are read line by line.  The entry lines after them are
parsed in one pass by numpy's text parser into index and value arrays,
and every check (three fields per line, integer indices, 1-based indices
in range, as many entries as the size line announces) runs on those
arrays.  Only when the parse or a check fails does a
locator scan the entry lines one at a time, to raise the error for the
first offending line with its ``path:lineno:`` prefix.  A ``%`` after the
first field of an entry line is an error, not a trailing comment.
Numbers are read as numpy reads them, so Python-only spellings such as
``1_000`` are rejected.

The writer formats every entry with the shortest decimal that
round-trips (``repr``), so a write followed by a read reproduces the
matrix bit for bit.
"""

from __future__ import annotations

import io
import warnings

import numpy as np

from .operators import as_vector, sparse_from_triplets

__all__ = [
    "MatrixMarketError",
    "read_matrix_market",
    "write_matrix_market",
    "read_vector",
    "write_vector",
]

_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])
_WRITE_BLOCK = 1 << 14  # entries formatted per write


class MatrixMarketError(ValueError):
    """Malformed Matrix Market input."""


def read_matrix_market(path):
    """Read a square sparse matrix from a Matrix Market coordinate file."""
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\r" in data:
        # Lines end as in text mode; numpy's parser takes no lone "\r".
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    # The entry lines are parsed from this stream without a copy.
    lines = io.BytesIO(data)
    header = lines.readline().decode("utf-8")
    if not header.startswith("%%MatrixMarket"):
        raise MatrixMarketError(f"{path}:1: missing %%MatrixMarket header")
    fields = header.split()
    if len(fields) < 5:
        raise MatrixMarketError(f"{path}:1: incomplete header: {header.strip()!r}")
    obj, fmt, field, symmetry = (f.lower() for f in fields[1:5])
    if obj != "matrix" or fmt != "coordinate":
        raise MatrixMarketError(
            f"{path}:1: only 'matrix coordinate' files are supported"
        )
    if field != "real":
        raise MatrixMarketError(
            f"{path}:1: unsupported field {field!r} (only 'real')"
        )
    if symmetry not in ("general", "symmetric"):
        raise MatrixMarketError(
            f"{path}:1: unsupported symmetry {symmetry!r} "
            "(only 'general' or 'symmetric')"
        )

    lineno = 1
    size = None
    for line in lines:
        lineno += 1
        stripped = line.decode("utf-8").strip()
        if not stripped or stripped.startswith("%"):
            continue
        parts = stripped.split()
        if len(parts) != 3:
            raise MatrixMarketError(
                f"{path}:{lineno}: expected 'rows cols nnz', got {stripped!r}"
            )
        try:
            nrows, ncols, nnz = (int(p) for p in parts)
        except ValueError as exc:
            raise MatrixMarketError(f"{path}:{lineno}: bad size line: {exc}")
        size = (nrows, ncols, nnz)
        break
    if size is None:
        raise MatrixMarketError(f"{path}: no size line found")
    nrows, ncols, nnz = size
    if nrows != ncols:
        raise MatrixMarketError(
            f"{path}:{lineno}: matrix must be square, got {nrows} x {ncols}"
        )

    start = lines.tell()  # offset of the first entry line
    try:
        entries = _parse_entries(data, lines)
    except (ValueError, OverflowError, DeprecationWarning) as exc:
        _raise_first_error(path, data[start:], lineno, nrows, nnz, exc)
    rows, cols, vals = entries["i"] - 1, entries["j"] - 1, entries["v"]
    in_range = _in_range(rows, nrows) and _in_range(cols, nrows)
    if len(entries) != nnz or not in_range:
        _raise_first_error(path, data[start:], lineno, nrows, nnz, None)
    if symmetry == "symmetric":
        off = rows != cols
        rows, cols = np.concatenate((rows, cols[off])), np.concatenate((cols, rows[off]))
        vals = np.concatenate((vals, vals[off]))
    return sparse_from_triplets(nrows, rows, cols, vals)


def _parse_entries(data, lines):
    """The entry lines, the rest of the stream ``lines`` over ``data``, as
    one structured array ``(i, j, v)``."""
    if _has_inline_percent(data, lines.tell()):
        raise ValueError("'%' after the first field of an entry line")
    with warnings.catch_warnings():
        # A body without entries (nnz = 0) is valid.
        warnings.simplefilter("ignore", UserWarning)
        # numpy 1.23-1.26 read an index such as 1.5 as the integer 1 and
        # only warn that this is deprecated.
        warnings.simplefilter("error", DeprecationWarning)
        return np.loadtxt(
            lines, dtype=_ENTRY, comments="%", ndmin=1, encoding="utf-8"
        )


def _has_inline_percent(data, pos):
    """Whether a ``%`` after offset ``pos`` of ``data`` follows other text
    on its line: np.loadtxt would drop the rest of such a line as a
    comment, which the format does not allow.  Costs one search per
    comment line."""
    pos = data.find(b"%", pos)
    while pos >= 0:
        start = data.rfind(b"\n", 0, pos) + 1
        if data[start:pos].decode("utf-8").strip():
            return True
        end = data.find(b"\n", pos)
        if end < 0:
            return False
        pos = data.find(b"%", end)
    return False


def _in_range(index, n):
    """Whether every 0-based ``index`` lies in ``[0, n)``."""
    return index.size == 0 or (index.min() >= 0 and index.max() < n)


def _raise_first_error(path, body, lineno, n, nnz, cause):
    """Raise the error of the first entry line of the bytes ``body``
    (whose first line is ``lineno + 1``) that breaks the format, or else
    the count mismatch; ``cause`` is the array parser's own error, if
    any."""
    seen = 0
    text = body.decode("utf-8")
    for lineno, line in enumerate(text.split("\n"), start=lineno + 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("%"):
            continue
        parts = stripped.split()
        if len(parts) != 3:
            raise MatrixMarketError(
                f"{path}:{lineno}: expected 'i j value', got {stripped!r}"
            )
        try:
            i, j = int(parts[0]), int(parts[1])
            float(parts[2])
        except ValueError as exc:
            raise MatrixMarketError(f"{path}:{lineno}: bad entry: {exc}")
        if not (1 <= i <= n and 1 <= j <= n):
            raise MatrixMarketError(
                f"{path}:{lineno}: index ({i}, {j}) out of range for "
                f"{n} x {n} matrix (indices are 1-based)"
            )
        seen += 1
    if seen != nnz:
        raise MatrixMarketError(
            f"{path}: header announced {nnz} entries, found {seen}"
        )
    # Every line passes the rules above, but numpy's parser refused one.
    raise MatrixMarketError(f"{path}: bad entries: {cause}")


def write_matrix_market(path, A, comment=None):
    """Write a sparse (or dense) square matrix as coordinate real general."""
    import scipy.sparse as sp

    coo = sp.coo_matrix(A)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        if comment:
            for line in str(comment).splitlines():
                fh.write(f"% {line}\n")
        fh.write(f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
        # One string per block of entries, so the Python objects of only
        # one block are alive at a time.
        for start in range(0, coo.nnz, _WRITE_BLOCK):
            block = slice(start, start + _WRITE_BLOCK)
            rows = (coo.row[block].astype(np.int64) + 1).tolist()
            cols = (coo.col[block].astype(np.int64) + 1).tolist()
            vals = coo.data[block].astype(np.float64).tolist()
            fh.write("".join(f"{i} {j} {v!r}\n" for i, j, v in zip(rows, cols, vals)))


def read_vector(path):
    """Read a dense vector: one floating-point value per line, '%' or '#'
    comments and blank lines allowed.

    A text whose every line is a value is converted in one array
    operation, which reads each line with ``float``.  Otherwise (comments,
    blank lines, a bad value) the lines are read one at a time, and a bad
    value is reported with its ``path:lineno:`` prefix.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # the text ends with a newline, or is empty
    try:
        return np.array(lines, dtype=np.float64)
    except ValueError:
        pass
    values = []
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith(("%", "#")):
            continue
        try:
            values.append(float(stripped))
        except ValueError as exc:
            raise MatrixMarketError(f"{path}:{lineno}: bad value: {exc}")
    return np.asarray(values, dtype=np.float64)


def write_vector(path, v):
    """Write a vector one value per line, each as the shortest decimal
    that round-trips (``repr``)."""
    v = as_vector(v)
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, len(v), _WRITE_BLOCK):
            block = v[start : start + _WRITE_BLOCK].tolist()
            fh.write("\n".join(map(repr, block)) + "\n")
