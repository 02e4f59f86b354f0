"""Convergence histories of solver runs and their CSV serialization.

A history CSV is written from the solve reports themselves
(:class:`~rskrylov.SolveReport`): their ``residual_history``,
``aresidual_history`` and ``matvec_history`` rows, labelled by their
``record_explicit``.
"""

from __future__ import annotations

import csv

__all__ = ["write_history_csv", "read_history_csv"]

CSV_HEADER = ["method", "iter", "res_norm", "ares_norm", "matvecs"]


def write_history_csv(reports, path):
    """Write the histories of solve reports to a UTF-8 CSV file.

    Rows cover each report's initial values plus one entry per completed
    iteration; ``matvecs`` holds the cumulative matvec count at each row.
    The first line is a comment recording whether the residual columns
    hold explicitly recomputed norms or recurrence estimates, read from
    the reports' ``record_explicit`` (a file without reports says
    explicit).  All reports of one file are of one kind, and the three
    history columns of a report are of one length, a ``ValueError``
    otherwise; the last row of an estimated report holds the explicit
    norms of its answer.  Numbers use the shortest round-trip decimal
    representation.
    """
    reports = list(reports)
    explicit = all(rep.record_explicit for rep in reports)
    if any(rep.record_explicit != explicit for rep in reports):
        raise ValueError("cannot mix explicit and estimated histories in one file")
    for rep in reports:
        rows = len(rep.residual_history)
        if not (len(rep.aresidual_history) == len(rep.matvec_history) == rows):
            raise ValueError("history columns must have equal lengths")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# residuals: {'explicit' if explicit else 'estimated'}\n")
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for rep in reports:
            for i, (rn, arn, mv) in enumerate(
                zip(rep.residual_history, rep.aresidual_history, rep.matvec_history)
            ):
                writer.writerow([rep.method, i, repr(float(rn)), repr(float(arn)), int(mv)])


def read_history_csv(path):
    """Parse a history CSV back into (mode_comment, row dicts); mostly for
    round-trip checks."""
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        comment = fh.readline().strip()
        reader = csv.reader(fh)
        header = next(reader)
        if header != CSV_HEADER:
            raise ValueError(f"unexpected header {header!r}")
        for rec in reader:
            rows.append(
                {
                    "method": rec[0],
                    "iter": int(rec[1]),
                    "res_norm": float(rec[2]),
                    "ares_norm": float(rec[3]),
                    "matvecs": int(rec[4]),
                }
            )
    return comment, rows
