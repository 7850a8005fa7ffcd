"""Matrix Market (coordinate) I/O.

The paper's artifact distributes its 968 inputs as ``.mtx`` files from the
UF (SuiteSparse) collection. We implement the coordinate subset of the
format — real/integer/pattern fields, general/symmetric symmetry — so the
synthetic collection can round-trip through the same file format the
original kernels consumed.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import TextIO

import numpy as np

from repro.sparse.csr import CSRMatrix

_HEADER = "%%MatrixMarket matrix coordinate {field} {symmetry}\n"


def write_mm(matrix: CSRMatrix, dest: str | Path | TextIO, *, comment: str = "") -> None:
    """Write a CSR matrix in coordinate/real/general Matrix Market form."""
    rows, cols, vals = matrix.to_coo()
    own = isinstance(dest, (str, Path))
    fh: TextIO = open(dest, "w") if own else dest  # type: ignore[arg-type]
    try:
        fh.write(_HEADER.format(field="real", symmetry="general"))
        if comment:
            for line in comment.splitlines():
                fh.write(f"%{line}\n")
        fh.write(f"{matrix.n_rows} {matrix.n_cols} {len(vals)}\n")
        for r, c, v in zip(rows, cols, vals):
            fh.write(f"{r + 1} {c + 1} {float(v)!r}\n")
    finally:
        if own:
            fh.close()


def read_mm(src: str | Path | TextIO) -> CSRMatrix:
    """Read a coordinate Matrix Market file into CSR.

    Supports ``real``/``integer``/``pattern`` fields and ``general``/
    ``symmetric``/``skew-symmetric`` symmetry (pattern entries become 1.0).
    Duplicate coordinates are summed by :meth:`CSRMatrix.from_coo`'s rule
    in file order, the mirrored entries of a symmetric file after every
    written one; a sum that cancels stays stored as 0.0. An entry outside
    the declared shape raises :class:`ValueError`.
    """
    own = isinstance(src, (str, Path))
    fh: TextIO = open(src) if own else src  # type: ignore[arg-type]
    try:
        header = fh.readline()
        parts = header.strip().split()
        if (
            len(parts) < 5
            or parts[0] != "%%MatrixMarket"
            or parts[1].lower() != "matrix"
            or parts[2].lower() != "coordinate"
        ):
            raise ValueError(f"unsupported MatrixMarket header: {header.strip()!r}")
        field = parts[3].lower()
        symmetry = parts[4].lower()
        if field not in ("real", "integer", "pattern"):
            raise ValueError(f"unsupported field type: {field}")
        if symmetry not in ("general", "symmetric", "skew-symmetric"):
            raise ValueError(f"unsupported symmetry: {symmetry}")
        line_no = 1  # the header line just read
        line = fh.readline()
        line_no += 1
        while line and (line.startswith("%") or not line.strip()):
            line = fh.readline()
            line_no += 1
        try:
            n_rows, n_cols, nnz = (int(tok) for tok in line.split())
        except ValueError:
            raise ValueError(
                f"line {line_no}: expected 'rows cols nnz' size line, "
                f"got {line.strip()!r}"
            ) from None
        rows, cols, vals = _read_entries(fh, nnz, field, line_no)
    finally:
        if own:
            fh.close()
    if symmetry in ("symmetric", "skew-symmetric"):
        off = rows != cols
        sign = -1.0 if symmetry == "skew-symmetric" else 1.0
        mirror_rows, mirror_cols, mirror_vals = cols[off], rows[off], sign * vals[off]
        rows = np.concatenate([rows, mirror_rows])
        cols = np.concatenate([cols, mirror_cols])
        vals = np.concatenate([vals, mirror_vals])
    return CSRMatrix.from_coo(rows, cols, vals, (n_rows, n_cols))


def _read_entries(
    fh: TextIO, nnz: int, field: str, size_line_no: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parse the ``nnz`` coordinate entries following the size line.

    Blank lines inside the entry section are skipped (some exporters pad
    with them); a structurally short line raises a :class:`ValueError`
    naming its 1-based line number instead of the bare ``IndexError`` a
    per-token loop would produce. The numeric conversion is vectorized
    (one ``astype`` per column) so multi-million-entry UF matrices parse
    in NumPy rather than in a Python loop; only when a bulk conversion
    fails do we re-scan to locate and report the offending line.
    """
    if nnz == 0:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )
    want = 2 if field == "pattern" else 3
    entries: list[list[str]] = []
    line_nos: list[int] = []
    line_no = size_line_no
    while len(entries) < nnz:
        line = fh.readline()
        if not line:
            raise ValueError(
                f"line {line_no + 1}: unexpected end of file after "
                f"{len(entries)} of {nnz} entries"
            )
        line_no += 1
        toks = line.split()
        if not toks:
            continue  # blank padding line inside the entry section
        if len(toks) < want:
            raise ValueError(
                f"line {line_no}: matrix entry needs {want} fields "
                f"({'row col' if want == 2 else 'row col value'}), "
                f"got {line.strip()!r}"
            )
        entries.append(toks[:want])
        line_nos.append(line_no)
    table = np.array(entries, dtype=object)
    try:
        rows = table[:, 0].astype(np.int64) - 1
        cols = table[:, 1].astype(np.int64) - 1
        vals = (
            np.ones(nnz, dtype=np.float64)
            if field == "pattern"
            else table[:, 2].astype(np.float64)
        )
    except (ValueError, TypeError):
        for toks, bad_line_no in zip(entries, line_nos):
            try:
                int(toks[0]), int(toks[1])
                if field != "pattern":
                    float(toks[2])
            except ValueError:
                raise ValueError(
                    f"line {bad_line_no}: malformed matrix entry "
                    f"{' '.join(toks)!r}"
                ) from None
        raise
    return rows, cols, vals


def round_trip(matrix: CSRMatrix) -> CSRMatrix:
    """Write + read through an in-memory buffer (testing helper)."""
    buf = io.StringIO()
    write_mm(matrix, buf)
    buf.seek(0)
    return read_mm(buf)
