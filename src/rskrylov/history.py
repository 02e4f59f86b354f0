"""Convergence-history records and their CSV serialization."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

__all__ = ["HistoryRecord", "write_history_csv", "read_history_csv"]

CSV_HEADER = ["method", "iter", "res_norm", "ares_norm", "matvecs"]


@dataclass
class HistoryRecord:
    """Per-iteration convergence data of one solver run.

    Rows cover the initial values plus one entry per completed iteration;
    ``matvecs`` holds the cumulative matvec count at each row.
    """

    method: str
    res_norms: np.ndarray
    ares_norms: np.ndarray
    matvecs: np.ndarray
    termination: str
    explicit: bool = True

    def __post_init__(self):
        rows = len(self.res_norms)
        if not (len(self.ares_norms) == len(self.matvecs) == rows):
            raise ValueError("history columns must have equal lengths")

    @classmethod
    def from_report(cls, report):
        """The record of a :class:`SolveReport`, explicit or estimated as
        its solve monitored."""
        return cls(
            method=report.method,
            res_norms=np.asarray(report.residual_history),
            ares_norms=np.asarray(report.aresidual_history),
            matvecs=np.asarray(report.matvec_history),
            termination=report.termination,
            explicit=report.record_explicit,
        )


def write_history_csv(records, path):
    """Write history records to a UTF-8 CSV file.

    The first line is a comment recording whether the residual columns
    hold explicitly recomputed norms or recurrence estimates, read from
    the records' ``explicit`` (a file without records says explicit).
    All records of one file are of one kind, a ``ValueError`` otherwise;
    the last row of an estimated record holds the explicit norms of its
    answer.  Numbers use the shortest round-trip decimal representation.
    """
    records = list(records)
    explicit = all(rec.explicit for rec in records)
    if any(rec.explicit != explicit for rec in records):
        raise ValueError("cannot mix explicit and estimated histories in one file")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# residuals: {'explicit' if explicit else 'estimated'}\n")
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for rec in records:
            for i in range(len(rec.res_norms)):
                writer.writerow(
                    [
                        rec.method,
                        i,
                        repr(float(rec.res_norms[i])),
                        repr(float(rec.ares_norms[i])),
                        int(rec.matvecs[i]),
                    ]
                )


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
