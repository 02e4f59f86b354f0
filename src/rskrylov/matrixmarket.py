"""Matrix Market coordinate files and plain vector files.

The reader handles ``coordinate real`` matrices in ``general`` or
``symmetric`` layout (symmetric files mirror their off-diagonal entries),
converts the 1-based indices, and sums duplicate entries.  Only square
matrices are accepted; the ``pattern`` and ``complex`` fields are
rejected.

The file is read as bytes, in blocks of ``_READ_BLOCK`` bytes cut after
their last line end, with no decoded copy of its text; ``\r\n`` and a
lone ``\r`` end a line as in text mode.  The header and the size line
are read line by line.  The entry count of the size line sizes the index
and value arrays of the result, and numpy's text parser fills them one
block at a time, so a read holds the matrix it returns plus one block:
its peak, while the triplets become CSR, is about twice the CSR matrix.
Every check (three fields per line, integer indices, 1-based indices in
range, as many entries as the size line announces) runs on the parsed
arrays.  When the parse or a check of a block fails, the lines of that
block alone are checked one at a time, numbered from a running count of
line ends, to raise the error of the first bad line with its
``path:lineno:`` prefix: an error is found in the block that failed, in
one read that stops there, with no more memory than a valid read.  The
entries past the count of the size line, and all of them when the size
of a regular file rules that count out, are parsed and counted but not
stored, so that a later bad line still wins over the count mismatch.
A pipe takes the same path and gives the same messages; only its size
does not bound the entry count, so its arrays start at one block of
entries and double as they fill.
A ``%`` after the first field of an entry line is an error, not a
trailing comment.
Numbers are read as numpy reads them, so Python-only spellings such as
``1_000`` are rejected.

The writer picks the layout from the values: a square matrix equal to
its transpose bit for bit (stored zeros and signed zeros included) is
written ``symmetric``, its entries on and below the diagonal alone, and
any other matrix ``general``.  Every entry is formatted with the
shortest decimal that round-trips (``repr``), so a write followed by a
read reproduces the CSR matrix (duplicates summed, indices sorted) bit
for bit.
"""

from __future__ import annotations

import io
import itertools
import os
import re
import stat
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
# Bytes read and parsed at a time.  The buffers of a block stay under
# glibc's 128 KiB mmap threshold and so reuse heap memory: with 256 KiB
# blocks, a read of a 1.7 MB file peaked 0.7 MiB higher.
_READ_BLOCK = 1 << 16
_WRITE_BLOCK = 1 << 14  # entries formatted per write


class MatrixMarketError(ValueError):
    """Malformed Matrix Market input."""


def read_matrix_market(path):
    """Read a square sparse matrix from a Matrix Market coordinate file.

    The entry lines are parsed a block of ``_READ_BLOCK`` bytes at a time
    into index and value arrays reserved with the entry count of the
    size line (grown as they fill when the input is not a regular file),
    so the memory a read needs is about the matrix it returns (twice the
    CSR matrix at the peak), not a multiple of the file.  A file or pipe
    that breaks the format is reported with its first bad line, found in
    the block that failed; the read stops there.
    """
    with open(path, "rb") as fh:
        blocks = _blocks(fh)
        lines = io.BytesIO(next(blocks, b""))
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
        while size is None:
            line = lines.readline()
            if not line:  # the block is used up
                block = next(blocks, None)
                if block is None:
                    raise MatrixMarketError(f"{path}: no size line found")
                lines = io.BytesIO(block)
                continue
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
                size = tuple(int(p) for p in parts)
            except ValueError as exc:
                raise MatrixMarketError(f"{path}:{lineno}: bad size line: {exc}")
        nrows, ncols, nnz = size
        if nrows != ncols:
            raise MatrixMarketError(
                f"{path}:{lineno}: matrix must be square, got {nrows} x {ncols}"
            )
        # An entry line takes at least six bytes with its line end, so the
        # size of a regular file bounds the count: a false count reserves
        # no memory, and its lines are only parsed and counted.  Other
        # inputs (a pipe) give no bound, so their arrays start at one
        # block of entries and grow.
        info = os.fstat(fh.fileno())
        regular = stat.S_ISREG(info.st_mode)
        fits = not regular or nnz <= (info.st_size + 1) // 6
        room = nnz if 0 <= nnz and fits else 0
        reserve = room if regular else min(room, _READ_BLOCK // 6)
        body = itertools.chain((lines.read(),), blocks)
        rows, cols, vals = _read_entries(path, body, lineno, nrows, nnz, room, reserve)
    if symmetry == "symmetric":
        off = rows != cols
        rows, cols = np.concatenate((rows, cols[off])), np.concatenate((cols, rows[off]))
        vals = np.concatenate((vals, vals[off]))
    return sparse_from_triplets(nrows, rows, cols, vals)


def _blocks(fh):
    """The bytes of the binary file ``fh`` in blocks of about
    ``_READ_BLOCK`` bytes that end at a line end (but the last), with
    ``\r\n`` and a lone ``\r`` read as ``\n``, as in text mode."""
    tail = b""
    while chunk := fh.read(_READ_BLOCK):
        data = tail + chunk
        held = b""
        if b"\r" in data:
            if data.endswith(b"\r"):  # it may open a "\r\n" pair
                data, held = data[:-1], b"\r"
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        cut = data.rfind(b"\n") + 1
        if cut:
            yield data[:cut]
        tail = data[cut:] + held
    if tail:
        yield tail.replace(b"\r", b"\n")


def _read_entries(path, blocks, lineno, n, nnz, room, reserve):
    """The 0-based rows, the columns and the values of the entry lines in
    ``blocks``, which follow line ``lineno``.  The arrays start with
    ``reserve`` entries and double, up to ``room``, when they fill; past
    ``room`` entries the lines are parsed and counted, but not stored.
    Raises the error of the first line that breaks the format, or else
    of a count other than ``nnz``."""
    # The index dtype scipy picks for an n x n matrix, so that the
    # conversion to CSR takes these arrays without a copy.
    index = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    rows, cols = np.empty(reserve, dtype=index), np.empty(reserve, dtype=index)
    vals = np.empty(reserve)
    found = 0
    for block in blocks:
        try:
            entries = _parse_entries(block)
            if not (_in_range(entries["i"], n) and _in_range(entries["j"], n)):
                raise ValueError("index out of range")
        except (ValueError, OverflowError, DeprecationWarning) as exc:
            _raise_bad_line(path, block, lineno, n, exc)
        end = found + len(entries)
        if end <= room:
            if end > len(vals):
                size = min(room, max(end, 2 * len(vals)))
                rows, cols, vals = (_grown(a, found, size) for a in (rows, cols, vals))
            rows[found:end], cols[found:end] = entries["i"], entries["j"]
            vals[found:end] = entries["v"]
        found = end
        lineno += int(np.count_nonzero(np.frombuffer(block, np.uint8) == 10))
    if found != nnz:
        raise MatrixMarketError(f"{path}: header announced {nnz} entries, found {found}")
    rows -= 1
    cols -= 1
    return rows, cols, vals


def _grown(a, filled, size):
    """A copy of the first ``filled`` entries of ``a`` in an array of
    ``size`` entries."""
    out = np.empty(size, dtype=a.dtype)
    out[:filled] = a[:filled]
    return out


def _parse_entries(text):
    """The entry lines of the bytes ``text``, which start at a line start,
    as one structured array ``(i, j, v)``."""
    if _has_inline_percent(text):
        raise ValueError("'%' after the first field of an entry line")
    with warnings.catch_warnings():
        # A text without entries (a block of comments, nnz = 0) is valid.
        warnings.simplefilter("ignore", UserWarning)
        # numpy 1.23-1.26 read an index such as 1.5 as the integer 1 and
        # only warn that this is deprecated.
        warnings.simplefilter("error", DeprecationWarning)
        return np.loadtxt(
            io.BytesIO(text), dtype=_ENTRY, comments="%", ndmin=1, encoding="utf-8"
        )


def _has_inline_percent(text):
    """Whether a ``%`` in the bytes ``text`` follows other text on its
    line: np.loadtxt would drop the rest of such a line as a comment,
    which the format does not allow.  Costs one search per comment
    line."""
    pos = text.find(b"%")
    while pos >= 0:
        start = text.rfind(b"\n", 0, pos) + 1
        if text[start:pos].decode("utf-8").strip():
            return True
        end = text.find(b"\n", pos)
        if end < 0:
            return False
        pos = text.find(b"%", end)
    return False


def _in_range(index, n):
    """Whether every 1-based ``index`` lies in ``[1, n]``."""
    return index.size == 0 or (index.min() >= 1 and index.max() <= n)


def _raise_bad_line(path, block, lineno, n, error):
    """Raise the error of the first line that breaks the format in the
    failed ``block``, whose lines follow line ``lineno``: the first line
    that breaks the rules below, else the first that numpy alone refuses
    (such as ``1_0.5``, which Python reads as 10.5), with numpy's message
    for that line less its `` at row R, column C`` (the line is row 0 of
    the text numpy saw); numpy's ``error`` for the block if no line fails."""
    lines = list(enumerate(block.decode("utf-8").split("\n"), start=lineno + 1))
    for lineno, line in lines:
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
    for lineno, line in lines:
        try:
            _parse_entries(line.encode("utf-8"))
        except (ValueError, OverflowError, DeprecationWarning) as exc:
            msg = re.sub(r" at row \d+, column \d+(?=\.?$)", "", str(exc))
            raise MatrixMarketError(f"{path}:{lineno}: bad entry: {msg}")
    raise MatrixMarketError(f"{path}: bad entries: {error}")


def write_matrix_market(path, A, comment=None):
    """Write a sparse (or dense) matrix as coordinate real entries.

    A square matrix whose CSR form (duplicates summed, indices sorted)
    equals its transpose bit for bit, stored zeros and the sign of zero
    included, is written in the ``symmetric`` layout: its entries on and
    below the diagonal, in row order.  Any other matrix is written in the
    ``general`` layout, its entries in the order of ``coo_matrix(A)``.
    """
    import scipy.sparse as sp

    csr = sp.csr_matrix(A)
    if not csr.has_canonical_format:
        csr = csr.copy()  # sum the duplicates of a copy, not of A
        csr.sum_duplicates()
    if _is_symmetric(csr):
        symmetry = "symmetric"
        row = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
        lower = csr.indices <= row
        row, col, val = row[lower], csr.indices[lower], csr.data[lower]
    else:
        symmetry = "general"
        coo = sp.coo_matrix(A)
        row, col, val = coo.row, coo.col, coo.data
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"%%MatrixMarket matrix coordinate real {symmetry}\n")
        if comment:
            for line in str(comment).splitlines():
                fh.write(f"% {line}\n")
        fh.write(f"{csr.shape[0]} {csr.shape[1]} {len(val)}\n")
        # One string per block of entries, so the Python objects of only
        # one block are alive at a time.
        for start in range(0, len(val), _WRITE_BLOCK):
            block = slice(start, start + _WRITE_BLOCK)
            rows = (row[block].astype(np.int64) + 1).tolist()
            cols = (col[block].astype(np.int64) + 1).tolist()
            vals = val[block].astype(np.float64).tolist()
            fh.write("".join(f"{i} {j} {v!r}\n" for i, j, v in zip(rows, cols, vals)))


def _is_symmetric(csr):
    """Whether the canonical CSR matrix ``csr`` is square and equal to its
    transpose in its stored positions and in the bytes of its values."""
    if csr.shape[0] != csr.shape[1]:
        return False
    t = csr.T.tocsr()  # sorted indices, as the conversion makes them
    return (
        np.array_equal(csr.indptr, t.indptr)
        and np.array_equal(csr.indices, t.indices)
        and csr.data.tobytes() == t.data.tobytes()
    )


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
