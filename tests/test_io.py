import dataclasses
import os
import re
import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose

import rskrylov as rk
from rskrylov.cli import cli_main
from rskrylov.history import read_history_csv, write_history_csv
from rskrylov.matrixmarket import (
    _READ_BLOCK,
    MatrixMarketError,
    read_matrix_market,
    read_vector,
    write_matrix_market,
    write_vector,
)


def test_read_minimal_general(tmp_path):
    path = tmp_path / "a.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 3.0\n"
    )
    A = read_matrix_market(path)
    assert A.shape == (2, 2)
    assert A.nnz == 1
    assert A[0, 1] == 3.0


def test_read_symmetric_expands(tmp_path):
    path = tmp_path / "s.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "% a comment line\n"
        "2 2 1\n"
        "2 1 5.0\n"
    )
    A = read_matrix_market(path)
    assert A[1, 0] == 5.0
    assert A[0, 1] == 5.0


def test_read_bad_index_reports_line(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 3.0\n"
    )
    with pytest.raises(MatrixMarketError) as err:
        read_matrix_market(path)
    assert ":3:" in str(err.value)


def test_read_rejects_pattern_and_nonsquare(tmp_path):
    p1 = tmp_path / "p.mtx"
    p1.write_text("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1\n")
    with pytest.raises(MatrixMarketError):
        read_matrix_market(p1)
    p2 = tmp_path / "r.mtx"
    p2.write_text("%%MatrixMarket matrix coordinate real general\n2 3 1\n1 1 1.0\n")
    with pytest.raises(MatrixMarketError):
        read_matrix_market(p2)


def test_matrix_roundtrip(tmp_path):
    A = rk.make_bvp_matrix(rk.BvpSpec(m=4, d=10.0))
    path = tmp_path / "bvp.mtx"
    write_matrix_market(path, A, comment="test matrix")
    B = read_matrix_market(path)
    assert (A != B).nnz == 0


def test_duplicates_summed(tmp_path):
    path = tmp_path / "dup.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 2.0\n1 1 3.0\n"
    )
    A = read_matrix_market(path)
    assert A[0, 0] == 5.0


GENERAL = "%%MatrixMarket matrix coordinate real general\n"


def _read_error(tmp_path, text):
    """Read ``text`` as a Matrix Market file; return the file name and the
    message of the MatrixMarketError it raises."""
    path = tmp_path / "m.mtx"
    path.write_text(text)
    with pytest.raises(MatrixMarketError) as err:
        read_matrix_market(path)
    return str(path), str(err.value)


@pytest.mark.parametrize(
    "body, lineno, wording",
    [
        ("1 1 1.0\n2 2 abc\n", 4, "bad entry: could not convert string to float: 'abc'"),
        ("1 1 1.0\n1.5 2 3.0\n", 4, "bad entry: invalid literal for int() with base 10: '1.5'"),
        ("1 1 1.0\n1 2\n", 4, "expected 'i j value', got '1 2'"),
        ("1 2 3 4\n1 1 1.0\n", 3, "expected 'i j value', got '1 2 3 4'"),
        ("1 1 1.0\n1 2 3.0 % note\n", 4, "expected 'i j value', got '1 2 3.0 % note'"),
        ("0 1 1.0\n2 2 1.0\n", 3, "index (0, 1) out of range for 3 x 3 matrix (indices are 1-based)"),
        ("1 1 1.0\n2 4 1.0\n", 4, "index (2, 4) out of range for 3 x 3 matrix (indices are 1-based)"),
        (
            "1 1 1.0\n99999999999999999999999 1 1.0\n",
            4,
            "index (99999999999999999999999, 1) out of range for 3 x 3 matrix (indices are 1-based)",
        ),
    ],
    ids=[
        "non-numeric",
        "non-integer-index",
        "two-tokens",
        "four-tokens",
        "trailing-comment",
        "index-zero",
        "index-above-n",
        "index-beyond-int64",
    ],
)
def test_malformed_entry_reports_its_line(tmp_path, body, lineno, wording):
    path, msg = _read_error(tmp_path, GENERAL + "3 3 2\n" + body)
    assert msg == f"{path}:{lineno}: {wording}"


def test_first_of_two_malformed_lines_is_reported(tmp_path):
    # line 5 is out of range, line 6 is not a number: line 5 comes first
    _, msg = _read_error(tmp_path, GENERAL + "3 3 4\n1 1 1.0\n2 2 1.0\n9 1 1.0\n1 x 1.0\n")
    assert ":5: index (9, 1) out of range" in msg
    _, msg = _read_error(tmp_path, GENERAL + "3 3 4\n1 1 1.0\n2 2 x\n9 1 1.0\n")
    assert ":4: bad entry" in msg


@pytest.mark.parametrize("nnz, found", [(3, 2), (1, 2)])
def test_entry_count_mismatch(tmp_path, nnz, found):
    path, msg = _read_error(tmp_path, GENERAL + f"3 3 {nnz}\n1 1 1.0\n% c\n2 2 1.0\n")
    assert msg == f"{path}: header announced {nnz} entries, found {found}"


@pytest.mark.parametrize("nnz", [-1, 10**12])
def test_impossible_entry_count_is_a_count_mismatch(tmp_path, nnz):
    # Such a count is refused before any array is reserved for it.
    path, msg = _read_error(tmp_path, GENERAL + f"3 3 {nnz}\n1 1 1.0\n")
    assert msg == f"{path}: header announced {nnz} entries, found 1"


def test_comment_and_blank_lines_keep_line_numbers(tmp_path):
    text = (
        GENERAL
        + "% before the size line\n"  # line 2
        + "\n"  # 3
        + "3 3 3\n"  # 4
        + "1 1 1.0\n"  # 5
        + "% between entries\n"  # 6
        + "\n"  # 7
        + "   \n"  # 8
        + "2 3 -2.5\n"  # 9
        + "  % indented comment\n"  # 10
        + "3 2 x\n"  # 11
    )
    _, msg = _read_error(tmp_path, text)
    assert ":11: bad entry" in msg
    path = tmp_path / "ok.mtx"
    ok = text.replace("3 2 x", "3 2 0.5")
    # a last comment line may end the file without a line end
    for body in (ok, ok + "% last comment, no line end"):
        path.write_text(body)
        A = read_matrix_market(path)
        assert A.toarray().tolist() == [[1.0, 0.0, 0.0], [0.0, 0.0, -2.5], [0.0, 0.5, 0.0]]


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_other_line_endings_read_as_newlines(tmp_path, newline):
    text = (
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "% comment\n"
        "3 3 3\n"
        "1 1 1.0\n"
        "\n"
        "\f3 2 -2.5\n"  # a form feed is blank space, not a line break
        "% between entries\n"
        "3 3 4e-3\n"
    )
    path = tmp_path / "m.mtx"
    path.write_bytes(text.replace("\n", newline).encode())
    A = read_matrix_market(path)
    path.write_bytes(text.encode())
    assert (A != read_matrix_market(path)).nnz == 0
    assert A.toarray().tolist() == [[1.0, 0.0, 0.0], [0.0, 0.0, -2.5], [0.0, -2.5, 4e-3]]
    bad = text.replace("3 3 4e-3", "3 3 x")
    path.write_bytes(bad.replace("\n", newline).encode())
    with pytest.raises(MatrixMarketError, match=r"m\.mtx:8: bad entry"):
        read_matrix_market(path)


def _many_blocks(tmp_path, symmetry, newline):
    """A file of unsorted entries with duplicates, comment and blank lines
    over more than three read blocks, with a line end split across two of
    them; returns its path, its lines and the entries' ``(i, j, v)``."""
    rng = np.random.default_rng(11)
    n, count = 500, 30_000
    i = rng.integers(1, n + 1, count)
    j = rng.integers(1, n + 1, count)
    if symmetry == "symmetric":
        i, j = np.maximum(i, j), np.minimum(i, j)
    i[-100:], j[-100:] = i[:100], j[:100]  # duplicates
    v = rng.standard_normal(count) * 10.0 ** rng.integers(-30, 30, count)
    lines = [f"%%MatrixMarket matrix coordinate real {symmetry}", "% generated", f"{n} {n} {count}"]
    for k, entry in enumerate(zip(i.tolist(), j.tolist(), v.tolist())):
        lines.append("%d %d %r" % entry)
        if k % 1000 == 7:
            lines += ["% a comment line", ""]
    # Trailing blanks on an entry line move its line end onto the last
    # byte of the first read block.
    last = _READ_BLOCK - 1
    end = len("".join(line + newline for line in lines[:3])) - len(newline)
    k = 3
    while end + len(newline) + len(lines[k]) <= last:
        end += len(newline) + len(lines[k])
        k += 1
    lines[k - 1] += " " * (last - end)
    path = tmp_path / f"{symmetry}.mtx"
    path.write_bytes("".join(line + newline for line in lines).encode())
    assert path.read_bytes()[last : last + 1] == newline[:1].encode()
    assert path.stat().st_size > 3 * _READ_BLOCK
    return path, lines, (i, j, v)


@pytest.mark.parametrize("symmetry", ["general", "symmetric"])
@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_read_across_blocks_matches_triplets(tmp_path, symmetry, newline):
    path, lines, (i, j, v) = _many_blocks(tmp_path, symmetry, newline)
    rows, cols = i - 1, j - 1
    if symmetry == "symmetric":
        off = rows != cols
        rows, cols = np.concatenate((rows, cols[off])), np.concatenate((cols, rows[off]))
        v = np.concatenate((v, v[off]))
    expected = rk.sparse_from_triplets(500, rows, cols, v)
    A = read_matrix_market(path)
    for name in ("indptr", "indices", "data"):
        got, want = getattr(A, name), getattr(expected, name)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_errors_in_the_last_block_report_their_line(tmp_path):
    path, lines, _ = _many_blocks(tmp_path, "general", "\r\n")

    def error(lines):
        path.write_bytes("".join(line + "\r\n" for line in lines).encode())
        with pytest.raises(MatrixMarketError) as err:
            read_matrix_market(path)
        return str(err.value)

    k = len(lines) - 5
    assert error(lines[:k] + ["7 7 x"] + lines[k + 1 :]) == (
        f"{path}:{k + 1}: bad entry: could not convert string to float: 'x'"
    )
    assert error(lines[:k] + ["7 501 1.0"] + lines[k + 1 :]) == (
        f"{path}:{k + 1}: index (7, 501) out of range for 500 x 500 matrix "
        "(indices are 1-based)"
    )
    # Python reads 1_0.5 as a float, numpy does not: numpy's message for
    # that line alone.
    msg = error(lines[:k] + ["7 7 1_0.5"] + lines[k + 1 :])
    assert msg.startswith(f"{path}:{k + 1}: bad entry: ") and "'1_0.5'" in msg
    assert "row 0" not in msg
    assert error(lines[:k] + lines[k + 1 :]) == (
        f"{path}: header announced 30000 entries, found 29999"
    )
    assert error(lines + ["1 1 1.0"]) == (
        f"{path}: header announced 30000 entries, found 30001"
    )


def _read_through_pipe(data, fed=None):
    """``read_matrix_market`` of ``data`` fed from a thread into a pipe;
    appends to the list ``fed``, if given, whether the thread wrote all of
    ``data``."""
    r, w = os.pipe()

    def feed():
        try:
            with os.fdopen(w, "wb") as fh:
                fh.write(data)
        except BrokenPipeError:  # the reader stopped early
            done = False
        else:
            done = True
        if fed is not None:
            fed.append(done)

    feeder = threading.Thread(target=feed)
    feeder.start()
    try:
        return read_matrix_market(f"/dev/fd/{r}")
    finally:
        os.close(r)
        feeder.join()


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_pipe_reads_and_reports_errors(tmp_path):
    # A pipe takes the path of a regular file: the same matrix, and for
    # each bad input the same message, with the same line.
    path, lines, _ = _many_blocks(tmp_path, "general", "\n")
    data = path.read_bytes()
    A, expected = _read_through_pipe(data), read_matrix_market(path)
    for name in ("indptr", "indices", "data"):
        assert getattr(A, name).tobytes() == getattr(expected, name).tobytes()
    k = len(lines) - 5
    bad = "".join(line + "\n" for line in lines[:k] + ["7 7 x"] + lines[k + 1 :])
    # A pipe has no size to bound the count, so a false count is found
    # by reading, not by reserving its arrays.
    counts = [GENERAL + f"2 2 {nnz}\n1 1 1.0\n" for nnz in (2, -1, 10**12)]
    for text in [bad, GENERAL + "2 2 1\n1 3 1.0\n"] + counts:
        path.write_bytes(text.encode())
        with pytest.raises(MatrixMarketError) as filed:
            read_matrix_market(path)
        with pytest.raises(MatrixMarketError) as piped:
            _read_through_pipe(text.encode())
        pipe, _, message = str(piped.value).partition(":")
        assert re.fullmatch(r"/dev/fd/\d+", pipe)
        assert f"{path}:{message}" == str(filed.value)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_pipe_stops_at_the_block_of_its_first_bad_line():
    # 1.6 MB of entries follow the bad line: far more than the pipe and
    # one read block hold, so the feeder is still writing when the
    # reader stops and closes the pipe.
    count = 200_000
    data = (GENERAL + f"2 2 {count}\n1 x 1.0\n" + "1 1 1.0\n" * count).encode()
    fed = []
    with pytest.raises(MatrixMarketError) as err:
        _read_through_pipe(data, fed)
    assert re.fullmatch(
        r"/dev/fd/\d+:3: bad entry: invalid literal for int\(\) with base 10: 'x'",
        str(err.value),
    )
    assert fed == [False]


def test_read_empty_matrix(tmp_path):
    path = tmp_path / "z.mtx"
    path.write_text(GENERAL + "% no entries\n4 4 0\n% still none\n\n")
    A = read_matrix_market(path)
    assert A.shape == (4, 4)
    assert A.nnz == 0


def test_read_symmetric_diagonal_once_and_duplicates_summed(tmp_path):
    path = tmp_path / "s.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "3 3 6\n"
        "1 1 2.0\n"
        "2 1 3.0\n"
        "3 3 -1.0\n"
        "2 1 0.5\n"
        "3 3 -0.25\n"
        "3 1 7.0\n"
    )
    A = read_matrix_market(path)
    expected = [[2.0, 3.5, 7.0], [3.5, 0.0, 0.0], [7.0, 0.0, -1.25]]
    assert A.toarray().tolist() == expected
    assert A.nnz == 6  # two diagonal and four mirrored positions
    assert A.has_sorted_indices


def test_write_matches_golden_bytes(tmp_path):
    A = np.array([[1e-300, 0.0, -2.5], [0.0, 5e-324, 0.0], [-1.0, 0.1, 3.0]])
    path = tmp_path / "w.mtx"
    write_matrix_market(path, A, comment="first line\nsecond line")
    assert path.read_bytes() == (
        b"%%MatrixMarket matrix coordinate real general\n"
        b"% first line\n"
        b"% second line\n"
        b"3 3 6\n"
        b"1 1 1e-300\n"
        b"1 3 -2.5\n"
        b"2 2 5e-324\n"
        b"3 1 -1.0\n"
        b"3 2 0.1\n"
        b"3 3 3.0\n"
    )


def test_write_read_roundtrip_is_exact(tmp_path):
    import scipy.sparse as sp

    rng = np.random.default_rng(7)
    A = sp.random(60, 60, density=0.05, format="csr", random_state=rng)
    A.data = rng.standard_normal(A.nnz) * 10.0 ** rng.integers(-300, 300, A.nnz)
    path = tmp_path / "r.mtx"
    write_matrix_market(path, A)
    B = read_matrix_market(path)
    A.sort_indices()
    assert np.array_equal(A.indptr, B.indptr)
    assert np.array_equal(A.indices, B.indices)
    assert A.data.tobytes() == B.data.tobytes()


def test_vector_roundtrip(tmp_path):
    v = np.array([1.0, -2.5, 3e-17, np.pi])
    path = tmp_path / "v.txt"
    write_vector(path, v)
    assert_allclose(read_vector(path), v, rtol=0, atol=0)


def test_vector_roundtrip_bytes(tmp_path):
    # Several write blocks, and values whose repr is not plain.
    rng = np.random.default_rng(0)
    v = rng.standard_normal(40_000) * 10.0 ** rng.integers(-300, 300, 40_000)
    v[:5] = [np.inf, -np.inf, -0.0, 5e-324, 1e22]
    path = tmp_path / "v.txt"
    write_vector(path, v)
    assert path.read_text() == "".join(f"{x!r}\n" for x in v.tolist())
    assert read_vector(path).tobytes() == v.tobytes()


def test_read_vector_comments_and_blank_lines(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("% header\n1.5\n\n# note\n  -2.0  \n   \n3e-3\n")
    assert read_vector(path).tolist() == [1.5, -2.0, 3e-3]
    path.write_text("1.5\n\n\t-2.0\n1_000\n")
    assert read_vector(path).tolist() == [1.5, -2.0, 1000.0]
    path.write_text("\n")
    assert read_vector(path).shape == (0,)


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("1.0\n\n2.0\nabc\n", 4),
        ("1.0\n2.0 3.0\n", 2),
        ("2.0 3.0\n", 1),
        ("% c\n1.0\n\n1.0,\n", 4),
    ],
)
def test_read_vector_bad_value_line_number(tmp_path, text, lineno):
    path = tmp_path / "v.txt"
    path.write_text(text)
    with pytest.raises(MatrixMarketError, match=f"v.txt:{lineno}: bad value"):
        read_vector(path)


def _history_report(method, res, ares, matvecs, explicit=True):
    """A report that carries only histories, as the CSV writer reads them."""
    return rk.SolveReport(
        method=method,
        solution=np.zeros(1),
        lifted_solution=None,
        residual_history=np.asarray(res),
        aresidual_history=np.asarray(ares),
        estimate_history=np.asarray(res),
        matvec_history=np.asarray(matvecs),
        matvec_count=int(matvecs[-1]),
        termination="converged",
        record_explicit=explicit,
    )


def test_history_csv_header_only(tmp_path):
    path = tmp_path / "h.csv"
    write_history_csv([], path)
    comment, rows = read_history_csv(path)
    assert comment == "# residuals: explicit"
    assert rows == []


def test_history_csv_rows_and_roundtrip(tmp_path):
    rep = _history_report("gmres", [1.0, 0.5, 0.25], [2.0, 1.0, 0.125], [0, 3, 6])
    path = tmp_path / "h.csv"
    write_history_csv([rep], path)
    comment, rows = read_history_csv(path)
    assert len(rows) == 3
    assert rows[2] == {
        "method": "gmres",
        "iter": 2,
        "res_norm": 0.25,
        "ares_norm": 0.125,
        "matvecs": 6,
    }


def test_history_csv_exact_roundtrip_from_solve(tmp_path):
    A, _ = rk.make_random_range_symmetric(rk.RandomSpec(n=12, rank=9, seed=0))
    b = A @ np.random.default_rng(0).standard_normal(12)
    rep = rk.gmres_solve(A, b, tol=1e-10, record_explicit=True)
    path = tmp_path / "h.csv"
    write_history_csv([rep], path)
    _, rows = read_history_csv(path)
    # shortest round-trip decimals reproduce the doubles bit for bit
    for i, row in enumerate(rows):
        assert row["res_norm"] == rep.residual_history[i]
        assert row["ares_norm"] == rep.aresidual_history[i]


@pytest.mark.parametrize("explicit", [True, False])
def test_history_label_follows_the_report(tmp_path, explicit):
    # The report records its monitoring mode; estimates and their nan rows
    # were written under "# residuals: explicit" whatever the mode.
    rep = rk.gmres_solve(np.diag([1.0, 2, 3, 0]), np.ones(4), record_explicit=explicit)
    assert rep.record_explicit is explicit
    path = tmp_path / "h.csv"
    write_history_csv([rep], path)
    comment, _ = read_history_csv(path)
    assert comment == f"# residuals: {'explicit' if explicit else 'estimated'}"


def test_history_csv_byte_deterministic(tmp_path):
    A, _ = rk.make_random_range_symmetric(rk.RandomSpec(n=10, rank=7, seed=3))
    b = A @ np.random.default_rng(3).standard_normal(10)
    reps = [rk.gmres_solve(A, b, tol=1e-10), rk.rsmar2_solve(A, b, tol=1e-10)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_history_csv(reps, p1)
    write_history_csv(reps, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_history_mode_mixing_rejected(tmp_path):
    rep = _history_report("gmres", np.ones(1), np.ones(1), np.zeros(1, dtype=int), False)
    with pytest.raises(ValueError):
        write_history_csv(
            [dataclasses.replace(rep, record_explicit=True), rep], tmp_path / "h.csv"
        )
    # the mode is the reports': estimated here, explicit for no reports
    for reports, comment in (([rep], "# residuals: estimated"), ([], "# residuals: explicit")):
        write_history_csv(reports, tmp_path / "h.csv")
        assert read_history_csv(tmp_path / "h.csv")[0] == comment


def test_cli_generate_solve_check(tmp_path):
    mtx = tmp_path / "a.mtx"
    rc = cli_main(
        ["generate", "bvp", "--m", "6", "--d", "10", "--out", str(mtx)]
    )
    assert rc == 0
    rc = cli_main(
        [
            "solve",
            "--method",
            "rsmar2",
            "--matrix",
            str(mtx),
            "--rhs",
            "ones",
            "--tol",
            "1e-8",
            "--out",
            str(tmp_path / "x.txt"),
        ]
    )
    assert rc == 0
    rc = cli_main(["check", "--matrix", str(mtx), "--rhs", "ones"])
    assert rc == 0


def test_cli_solve_identity_converges_first_iteration(tmp_path, capsys):
    mtx = tmp_path / "id3.mtx"
    mtx.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "3 3 3\n1 1 1.0\n2 2 1.0\n3 3 1.0\n"
    )
    rc = cli_main(
        ["solve", "--method", "rsmar2", "--matrix", str(mtx), "--rhs", "ones"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "iterations=1" in out


@pytest.mark.parametrize(
    "method, d, flags",
    [
        pytest.param("gmres", "10", ["--explicit"], id="gmres-10"),
        pytest.param("minres", "0", ["--explicit"], id="minres-0"),
        pytest.param("minares", "0", ["--estimates"], id="minares-0-estimates"),
        pytest.param("gmres", "10", [], id="gmres-10-default"),
        pytest.param("minres", "0", [], id="minres-0-default"),
    ],
)
def test_cli_solve_prints_the_norms_of_the_answer(tmp_path, capsys, method, d, flags):
    # The first two runs return an iterate checked before the last one:
    # gmres runs on past its attainable floor, minres polishes past the
    # A-residual floor.  minares without explicit monitoring stops on its
    # recurrence value; by default gmres ends on its best estimate, checked
    # once, and minres on an estimate confirmed by one explicit |Ar|.  The
    # printed |Ar| and the history's last row must still be the answer's own.
    mtx, out, csv_path = tmp_path / "a.mtx", tmp_path / "x.txt", tmp_path / "h.csv"
    assert cli_main(["generate", "bvp", "--m", "10", "--d", d, "--out", str(mtx)]) == 0
    rc = cli_main(
        [
            "solve", "--method", method, "--matrix", str(mtx), "--rhs-kind", "xy",
            "--history", str(csv_path), "--out", str(out), *flags,
        ]
    )
    assert rc == 0
    printed = float(re.search(r"\|Ar\|=(\S+)", capsys.readouterr().out).group(1))
    A = read_matrix_market(mtx)
    b = rk.make_bvp_rhs(rk.BvpSpec(m=10), "inconsistent_xy")
    arn = np.linalg.norm(A @ (b - A @ read_vector(out)))
    _, rows = read_history_csv(csv_path)
    assert printed == pytest.approx(arn, rel=1e-6, abs=0.0)
    assert rows[-1]["ares_norm"] == pytest.approx(arn, rel=1e-6, abs=0.0)


@pytest.mark.parametrize(
    "flags, residuals",
    [([], "estimated"), (["--explicit"], "explicit")],
)
def test_cli_solve_monitors_by_the_flag_estimates_by_default(
    tmp_path, capsys, flags, residuals
):
    # Estimates spend one matvec per step, plus the seed's and the checks
    # of a stop; explicit monitoring two more per step.
    mtx, csv_path = tmp_path / "a.mtx", tmp_path / "h.csv"
    assert cli_main(["generate", "bvp", "--m", "10", "--out", str(mtx)]) == 0
    capsys.readouterr()
    rc = cli_main(
        [
            "solve", "--method", "rsmar2", "--matrix", str(mtx), "--rhs-kind", "xy",
            "--history", str(csv_path), *flags,
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    iterations, matvecs = (
        int(re.search(rf"{key}=(\d+)", out).group(1)) for key in ("iterations", "matvecs")
    )
    comment, rows = read_history_csv(csv_path)
    assert comment == f"# residuals: {residuals}"
    assert f"monitor={'explicit' if residuals == 'explicit' else 'estimates'}" in out
    assert rows[-1]["matvecs"] == matvecs
    if residuals == "estimated":
        assert matvecs <= iterations + 3
    else:
        assert 3 * iterations <= matvecs <= 3 * iterations + 3


def test_cli_solve_says_when_the_answers_aresidual_was_not_checked(tmp_path, capsys):
    # estimate-mode maxit checks only the answer's |r|
    mtx = tmp_path / "a.mtx"
    assert cli_main(["generate", "random-rs", "--n", "40", "--rank", "30", "--out", str(mtx)]) == 0
    rc = cli_main(["solve", "--method", "minres", "--matrix", str(mtx), "--rhs-kind", "Ae"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "termination=maxit" in out
    assert "|Ar|=not checked" in out
    assert "nan" not in out


def test_cli_compare_says_when_an_aresidual_was_not_checked(tmp_path, capsys):
    # estimate-mode gmres and rrgmres stop on the residual rule, which
    # checks only the answer's |r|
    mtx, rhs = tmp_path / "a.mtx", tmp_path / "b.txt"
    assert cli_main(
        ["generate", "bvp", "--m", "10", "--rhs-kind", "consistent-random",
         "--out", str(mtx), "--rhs-out", str(rhs)]
    ) == 0
    capsys.readouterr()
    rc = cli_main(
        ["compare", "--methods", "gmres,rrgmres", "--estimates", "--matrix", str(mtx),
         "--rhs", str(rhs), "--out", str(tmp_path / "c.csv")]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("|Ar|=not checked") == 2
    assert "nan" not in out


def test_cli_explicit_gmres_on_an_rhs_in_the_null_space_returns_zero(tmp_path, capsys):
    # --rhs-kind e on the periodic grid is the null vector of A
    mtx, out = tmp_path / "a.mtx", tmp_path / "x.txt"
    assert cli_main(["generate", "bvp", "--m", "10", "--out", str(mtx)]) == 0
    rc = cli_main(
        ["solve", "--method", "gmres", "--explicit", "--matrix", str(mtx),
         "--rhs-kind", "e", "--out", str(out)]
    )
    assert rc == 0
    assert "termination=singular_final_system" in capsys.readouterr().out
    assert np.linalg.norm(read_vector(out)) <= 1e-6


def test_cli_compare_bvp_inconsistent(tmp_path):
    # desk-scale rerun of the benchmark setup: four methods on the grid
    # system with the x+y right-hand side
    mtx = tmp_path / "bvp30.mtx"
    assert cli_main(["generate", "bvp", "--m", "30", "--out", str(mtx)]) == 0
    csv_path = tmp_path / "hist.csv"
    rc = cli_main(
        [
            "compare",
            "--methods",
            "gmres,rrgmres,rsmar2,dgmres",
            "--matrix",
            str(mtx),
            "--rhs-kind",
            "xy",
            "--tol",
            "1e-8",
            "--maxit",
            "300",
            "--out",
            str(csv_path),
        ]
    )
    assert rc == 0
    comment, rows = read_history_csv(csv_path)
    assert comment == "# residuals: explicit"
    methods = {row["method"] for row in rows}
    assert methods == {"gmres", "rrgmres", "rsmar2", "dgmres"}
    for method in ("rrgmres", "rsmar2", "dgmres"):
        series = [row for row in rows if row["method"] == method]
        assert series[-1]["ares_norm"] <= 1e-8 * series[0]["ares_norm"]


def test_cli_estimates_mode_csv(tmp_path):
    mtx = tmp_path / "a.mtx"
    cli_main(["generate", "random-rs", "--n", "12", "--rank", "9", "--out", str(mtx)])
    csv_path = tmp_path / "h.csv"
    rc = cli_main(
        [
            "solve",
            "--method",
            "dgmres",
            "--matrix",
            str(mtx),
            "--rhs",
            "ones",
            "--estimates",
            "--tol",
            "1e-8",
            "--history",
            str(csv_path),
        ]
    )
    assert rc == 0
    comment, rows = read_history_csv(csv_path)
    assert comment == "# residuals: estimated"
    assert len(rows) >= 2


def test_cli_errors(tmp_path, capsys):
    # unknown method, and both monitors: argparse exits with code 2
    assert cli_main(["solve", "--method", "nosuch", "--matrix", "x", "--rhs", "ones"]) == 2
    both = ["--estimates", "--explicit"]
    assert cli_main(["solve", "--method", "gmres", "--matrix", "x", "--rhs", "ones", *both]) == 2
    # missing file: reported error, exit 1
    assert (
        cli_main(["solve", "--method", "gmres", "--matrix", str(tmp_path / "no.mtx"), "--rhs", "ones"])
        == 1
    )
    # oracle cap exceeded
    mtx = tmp_path / "big.mtx"
    assert cli_main(["generate", "random-sym", "--n", "30", "--out", str(mtx)]) == 0
    assert cli_main(["check", "--matrix", str(mtx), "--max-n", "10"]) == 1
    # a tolerance that stops nothing, and a comparison of no methods
    assert cli_main(["solve", "--method", "gmres", "--matrix", str(mtx), "--rhs", "ones", "--tol", "inf"]) == 1
    out = tmp_path / "c.csv"
    assert cli_main(["compare", "--methods", ",", "--matrix", str(mtx), "--rhs", "ones", "--out", str(out)]) == 1
    assert not out.exists()
    # an output path that nothing would be written to names the missing flag
    capsys.readouterr()
    assert cli_main(["check", "--matrix", str(mtx), "--out", str(out)]) == 1
    assert "--out requires --rhs" in capsys.readouterr().err
    grid = tmp_path / "g.mtx"
    assert cli_main(["generate", "bvp", "--m", "5", "--out", str(grid), "--rhs-out", str(out)]) == 1
    assert "--rhs-out requires --rhs-kind" in capsys.readouterr().err
    assert not out.exists() and not grid.exists()


def test_cli_solve_with_x0_and_lifted_output(tmp_path):
    mtx = tmp_path / "a.mtx"
    cli_main(["generate", "random-rs", "--n", "12", "--rank", "9", "--out", str(mtx)])
    x0_path = tmp_path / "x0.txt"
    write_vector(x0_path, np.zeros(12))
    out = tmp_path / "x.txt"
    rc = cli_main(
        [
            "solve",
            "--method",
            "gmres",
            "--matrix",
            str(mtx),
            "--rhs",
            "ones",
            "--x0",
            str(x0_path),
            "--tol",
            "1e-9",
            "--lifted",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    x = read_vector(out)
    A = read_matrix_market(mtx).toarray()
    xstar = rk.pseudoinverse_solve(A, np.ones(12))
    assert np.linalg.norm(x - xstar) <= 1e-6 * np.linalg.norm(xstar)


def test_cli_generate_random_kinds(tmp_path):
    for kind in ("random-rs", "random-sym", "random-skew"):
        path = tmp_path / f"{kind}.mtx"
        n = "11" if kind == "random-skew" else "12"
        assert cli_main(["generate", kind, "--n", n, "--out", str(path)]) == 0
        A = read_matrix_market(path)
        assert A.shape == (int(n), int(n))


@pytest.mark.parametrize(
    "argv, flag",
    [
        pytest.param(["random-skew", "--n", "11", "--cond", "5"], "--cond", id="skew-cond"),
        pytest.param(["random-skew", "--n", "11", "--rank", "5"], "--rank", id="skew-rank"),
        pytest.param(["random-skew", "--n", "11", "--m", "3"], "--m", id="skew-m"),
        pytest.param(["random-rs", "--m", "3"], "--m", id="rs-m"),
        pytest.param(["random-sym", "--d", "1"], "--d", id="sym-d"),
        pytest.param(["bvp", "--m", "5", "--n", "11"], "--n", id="bvp-n"),
        pytest.param(["bvp", "--m", "5", "--rank", "5"], "--rank", id="bvp-rank"),
        pytest.param(["bvp", "--m", "5", "--cond", "5"], "--cond", id="bvp-cond"),
        pytest.param(["bvp", "--m", "5", "--seed", "3"], "--seed", id="bvp-seed"),
        pytest.param(
            ["bvp", "--m", "5", "--seed", "3", "--rhs-kind", "xy", "--rhs-out", "b.txt"],
            "--seed",
            id="bvp-seed-xy",
        ),
        pytest.param(
            ["random-rs", "--rhs-kind", "xy", "--rhs-out", "b.txt"], "--rhs-kind", id="rs-rhs-kind"
        ),
    ],
)
def test_cli_generate_rejects_options_of_other_kinds(tmp_path, monkeypatch, capsys, argv, flag):
    monkeypatch.chdir(tmp_path)
    assert cli_main(["generate", *argv, "--out", "a.mtx"]) == 1
    assert f"error: {flag} " in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cli_generate_takes_the_options_of_its_kind(tmp_path):
    def generate(*argv):
        assert cli_main(["generate", *argv, "--out", str(tmp_path / "a.mtx")]) == 0
        return read_matrix_market(tmp_path / "a.mtx")

    rhs = ["--rhs-kind", "consistent-random", "--rhs-out", str(tmp_path / "b.txt")]
    rhs_by_seed = []
    for seed in ([], ["--seed", "0"], ["--seed", "3"]):
        generate("bvp", "--m", "4", "--d", "2", *seed, *rhs)
        rhs_by_seed.append(read_vector(tmp_path / "b.txt"))
    default, zero, three = rhs_by_seed
    assert np.array_equal(default, zero) and not np.array_equal(zero, three)
    skew = generate("random-skew", "--n", "9", "--seed", "4")
    assert skew.shape == (9, 9) and abs(skew + skew.T).max() == 0.0
    A = generate("random-rs", "--n", "12", "--rank", "6", "--cond", "5", "--seed", "4")
    assert np.linalg.matrix_rank(A.toarray()) == 6


def test_cli_scale_flag(tmp_path, capsys):
    mtx = tmp_path / "a.mtx"
    cli_main(["generate", "bvp", "--m", "5", "--out", str(mtx)])
    rc = cli_main(
        ["check", "--matrix", str(mtx)]
    )
    assert rc == 0
    rc = cli_main(
        [
            "solve",
            "--method",
            "gmres",
            "--matrix",
            str(mtx),
            "--rhs-kind",
            "Ae",
            "--scale",
            "--tol",
            "1e-10",
        ]
    )
    assert rc == 0
    assert "termination=" in capsys.readouterr().out


@pytest.mark.parametrize(
    "text, lineno, wording",
    [
        ("2 2 1\n1 1 1.0\n", 1, "missing %%MatrixMarket header"),
        (
            "%%MatrixMarket matrix coordinate real\n2 2 1\n1 1 1.0\n",
            1,
            "incomplete header: '%%MatrixMarket matrix coordinate real'",
        ),
        (
            "%%MatrixMarket matrix array real general\n2 2\n1.0\n0.0\n0.0\n1.0\n",
            1,
            "only 'matrix coordinate' files are supported",
        ),
        (
            "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 1.0\n",
            1,
            "unsupported symmetry 'skew-symmetric' (only 'general' or 'symmetric')",
        ),
        (GENERAL + "% a comment\n2 2\n1 1 1.0\n", 3, "expected 'rows cols nnz', got '2 2'"),
        (
            GENERAL + "2 2.5 1\n1 1 1.0\n",
            2,
            "bad size line: invalid literal for int() with base 10: '2.5'",
        ),
        (GENERAL + "% only comments\n\n", None, "no size line found"),
    ],
    ids=[
        "no-header",
        "short-header",
        "array-format",
        "skew-symmetric",
        "two-size-fields",
        "non-integer-size",
        "no-size-line",
    ],
)
def test_malformed_header_or_size_line_reports_its_line(tmp_path, text, lineno, wording):
    path, msg = _read_error(tmp_path, text)
    where = path if lineno is None else f"{path}:{lineno}"
    assert msg == f"{where}: {wording}"


def test_header_and_comments_longer_than_a_read_block(tmp_path):
    # The size line is found, and counted, in the second read block.
    comments = ["% " + "c" * 98] * (_READ_BLOCK // 100 + 10)
    head = GENERAL + "".join(line + "\n" for line in comments)
    assert len(head) > _READ_BLOCK
    size_line = 2 + len(comments)
    path = tmp_path / "long.mtx"
    path.write_text(head + "2 2 2\n1 1 3.0\n2 1 -1.5\n")
    assert_allclose(read_matrix_market(path).toarray(), [[3.0, 0.0], [-1.5, 0.0]])
    _, msg = _read_error(tmp_path, head + "2 2\n")
    assert msg.endswith(f":{size_line}: expected 'rows cols nnz', got '2 2'")
    path, msg = _read_error(tmp_path, head)
    assert msg == f"{path}: no size line found"


def test_history_record_checks_its_columns(tmp_path):
    with pytest.raises(ValueError, match="history columns must have equal lengths"):
        write_history_csv(
            [_history_report("gmres", np.ones(3), np.ones(2), np.arange(3))],
            tmp_path / "h.csv",
        )
    path = tmp_path / "h.csv"
    path.write_text("# residuals: explicit\nmethod,iter,res,ares,matvecs\n")
    with pytest.raises(ValueError) as err:
        read_history_csv(path)
    assert str(err.value) == (
        "unexpected header ['method', 'iter', 'res', 'ares', 'matvecs']"
    )


def _cli_error(capsys, argv):
    """Run a command line that must fail; returns its stderr."""
    capsys.readouterr()
    assert cli_main(argv) == 1
    return capsys.readouterr().err


def test_cli_system_input_errors(tmp_path, capsys):
    mtx = tmp_path / "a.mtx"
    assert cli_main(["generate", "random-sym", "--n", "30", "--out", str(mtx)]) == 0
    solve = ["solve", "--method", "minres", "--matrix", str(mtx)]
    err = _cli_error(capsys, [*solve, "--rhs", "ones", "--rhs-kind", "e"])
    assert err == "error: pass either --rhs or --rhs-kind, not both\n"
    err = _cli_error(capsys, [*solve, "--rhs-kind", "xy"])
    assert err == "error: --rhs-kind xy needs a grid matrix (order m*m), got order 30\n"
    err = _cli_error(capsys, solve)
    assert err == "error: an RHS is required: pass --rhs or --rhs-kind\n"
    short = tmp_path / "b.txt"
    write_vector(short, np.ones(29))
    err = _cli_error(capsys, [*solve, "--rhs", str(short)])
    assert err == "error: rhs has length 29, matrix has order 30\n"
    out = tmp_path / "c.csv"
    compare = ["compare", "--methods", "gmres,nosuch,minres,other"]
    err = _cli_error(capsys, [*compare, "--matrix", str(mtx), "--rhs", "ones", "--out", str(out)])
    assert err == "error: unknown methods: nosuch, other\n"
    assert not out.exists()


def test_cli_generate_rhs_kind_needs_an_output(tmp_path, capsys):
    grid = tmp_path / "g.mtx"
    err = _cli_error(capsys, ["generate", "bvp", "--m", "5", "--rhs-kind", "xy", "--out", str(grid)])
    assert err == "error: --rhs-kind requires --rhs-out\n"
    assert not grid.exists()


def test_cli_check_writes_the_pseudoinverse_solution(tmp_path, capsys):
    mtx, out = tmp_path / "a.mtx", tmp_path / "p.txt"
    assert cli_main(["generate", "random-rs", "--n", "12", "--rank", "9", "--out", str(mtx)]) == 0
    capsys.readouterr()
    assert cli_main(["check", "--matrix", str(mtx), "--rhs", "ones", "--out", str(out)]) == 0
    assert f"pseudoinverse solution written to {out}" in capsys.readouterr().out
    A = read_matrix_market(mtx).toarray()
    assert_allclose(read_vector(out), rk.pseudoinverse_solve(A, np.ones(12)), rtol=0, atol=1e-12)


def test_cli_check_validates_its_system_as_solve_does(tmp_path, capsys):
    mtx = tmp_path / "a.mtx"
    assert cli_main(["generate", "random-rs", "--n", "12", "--rank", "9", "--out", str(mtx)]) == 0
    short, nan = tmp_path / "short.txt", tmp_path / "nan.txt"
    write_vector(short, np.ones(11))
    write_vector(nan, np.r_[np.ones(11), np.nan])
    out = tmp_path / "p.txt"
    for command in ("check", "solve --method minres"):
        argv = [*command.split(), "--matrix", str(mtx)]
        err = _cli_error(capsys, [*argv, "--rhs", str(short)])
        assert err == "error: rhs has length 11, matrix has order 12\n"
        err = _cli_error(capsys, [*argv, "--rhs", str(nan), "--out", str(out)])
        assert err == "error: b has non-finite entries\n"
        assert not out.exists()
    A = read_matrix_market(mtx)
    A.data[3] = np.nan
    write_matrix_market(mtx, A)
    for command in ("check", "solve --method minres"):
        err = _cli_error(capsys, [*command.split(), "--matrix", str(mtx), "--rhs", "ones"])
        assert err == "error: A has non-finite entries\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bvp", "--m", "5", "--d", "nan"], "convection constant d must be finite"),
        (["bvp", "--m", "5", "--d=-inf"], "convection constant d must be finite"),
        (["random-rs", "--cond", "inf"], "condition target must be finite and at least 1"),
        (["random-sym", "--cond", "nan"], "condition target must be finite and at least 1"),
        (["random-skew", "--n", "-3"], "skew-symmetric generator requires n >= 1"),
    ],
    ids=["bvp-d-nan", "bvp-d-inf", "rs-cond-inf", "sym-cond-nan", "skew-negative-n"],
)
def test_cli_generate_rejects_non_finite_parameters(tmp_path, capsys, argv, message):
    out = tmp_path / "a.mtx"
    err = _cli_error(capsys, ["generate", *argv, "--out", str(out)])
    assert err == f"error: {message}\n"
    assert not out.exists()
