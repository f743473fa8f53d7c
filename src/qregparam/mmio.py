"""Minimal Matrix Market text reader/writer (coordinate and array, dense storage).

Hand-rolled rather than delegated to scipy so that malformed input is reported
with its line number, duplicate coordinate entries are rejected instead of
being summed, and so are non-finite values.  A symmetric or hermitian file
must be square, and there (i, j) and its mirror (j, i) are one entry.
"""
from __future__ import annotations

import cmath

import numpy as np


class MatrixMarketError(ValueError):
    """Malformed Matrix Market input; the message carries the line number."""


_FIELDS = ("real", "integer", "complex")
_FORMATS = ("coordinate", "array")
_SYMMETRIES = ("general", "symmetric", "hermitian")


def _fail(lineno: int, msg: str):
    raise MatrixMarketError(f"line {lineno}: {msg}")


def _parse_value(tokens: list[str], field: str, lineno: int) -> complex:
    expected = 2 if field == "complex" else 1
    if len(tokens) != expected:
        _fail(lineno, f"{field} entry needs {expected} value(s), got {len(tokens)}")
    try:
        value = complex(*(int(t) if field == "integer" else float(t) for t in tokens))
    except ValueError:
        _fail(lineno, f"cannot parse {field} value from {' '.join(tokens)!r}")
    if not cmath.isfinite(value):
        _fail(lineno, f"non-finite {field} value {' '.join(tokens)!r}")
    return value


def load_matrix(path) -> np.ndarray:
    """Parse a Matrix Market file into a dense complex matrix."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise MatrixMarketError("line 1: empty file")
    header = lines[0].split()
    if len(header) != 5 or header[0] != "%%MatrixMarket" or header[1].lower() != "matrix":
        _fail(1, f"malformed header {lines[0]!r}")
    fmt, field, symmetry = (h.lower() for h in header[2:])
    if fmt not in _FORMATS:
        _fail(1, f"unsupported format {fmt!r}")
    if field not in _FIELDS:
        _fail(1, f"unsupported field {field!r}")
    if symmetry not in _SYMMETRIES:
        _fail(1, f"unsupported symmetry {symmetry!r}")

    body = [(i + 1, ln) for i, ln in enumerate(lines[1:], start=1)
            if ln.strip() and not ln.lstrip().startswith("%")]
    if not body:
        raise MatrixMarketError(f"line {len(lines)}: missing size line")
    size_lineno, size_line = body[0]
    sizes = size_line.split()
    want = 3 if fmt == "coordinate" else 2
    if len(sizes) != want:
        _fail(size_lineno, f"{fmt} size line needs {want} integers, got {size_line!r}")
    try:
        dims = [int(s) for s in sizes]
    except ValueError:
        _fail(size_lineno, f"cannot parse size line {size_line!r}")
    m, n = dims[:2]
    if symmetry != "general" and m != n:
        _fail(size_lineno, f"a {symmetry} matrix must be square, size line gives {m}x{n}")

    if fmt == "coordinate":
        nnz = dims[2]
        M = np.zeros((m, n), dtype=complex)
        seen = {}
        entries = body[1:]
        if len(entries) != nnz:
            lineno = entries[-1][0] if entries else size_lineno
            _fail(lineno, f"expected {nnz} entries, found {len(entries)}")
        for lineno, ln in entries:
            tokens = ln.split()
            if len(tokens) < 2:
                _fail(lineno, f"coordinate entry needs indices, got {ln!r}")
            try:
                i, j = int(tokens[0]), int(tokens[1])
            except ValueError:
                _fail(lineno, f"cannot parse indices from {ln!r}")
            if not (1 <= i <= m and 1 <= j <= n):
                _fail(lineno, f"index ({i}, {j}) out of bounds for {m}x{n} matrix")
            # a symmetric or hermitian file stores (i, j) and (j, i) as one entry
            key = (i, j) if symmetry == "general" else (max(i, j), min(i, j))
            if key in seen:
                first, (fi, fj) = seen[key]
                also = "" if (fi, fj) == (i, j) else f" as its mirror ({fi}, {fj})"
                _fail(lineno, f"duplicate entry ({i}, {j}), first seen on line {first}{also}")
            seen[key] = (lineno, (i, j))
            v = _parse_value(tokens[2:], field, lineno)
            M[i - 1, j - 1] = v
            if symmetry != "general" and i != j:
                M[j - 1, i - 1] = v.conjugate() if symmetry == "hermitian" else v
        return M

    entries = body[1:]
    expected = m * n if symmetry == "general" else m * (m + 1) // 2
    if len(entries) != expected:
        lineno = entries[-1][0] if entries else size_lineno
        _fail(lineno, f"expected {expected} array values, found {len(entries)}")
    M = np.zeros((m, n), dtype=complex)
    pos = 0
    for lineno, ln in entries:
        v = _parse_value(ln.split(), field, lineno)
        if symmetry == "general":
            j, i = divmod(pos, m)  # column-major
        else:
            # packed lower triangle, column-major
            j = 0
            rem = pos
            while rem >= m - j:
                rem -= m - j
                j += 1
            i = j + rem
        M[i, j] = v
        if symmetry != "general" and i != j:
            M[j, i] = v.conjugate() if symmetry == "hermitian" else v
        pos += 1
    return M


def load_vector(path) -> np.ndarray:
    """Load a vector stored as an m x 1 (or 1 x n) Matrix Market matrix."""
    M = load_matrix(path)
    if 1 not in M.shape:
        raise MatrixMarketError(
            f"expected a vector (one dimension of size 1), got shape {M.shape}"
        )
    return M.ravel()


def save_matrix(path, M: np.ndarray) -> None:
    """Write a dense matrix in array format with round-trip precision."""
    M = np.atleast_2d(np.asarray(M))
    is_complex = np.iscomplexobj(M) and np.any(M.imag != 0)
    field = "complex" if is_complex else "real"
    m, n = M.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"%%MatrixMarket matrix array {field} general\n")
        fh.write(f"{m} {n}\n")
        for j in range(n):
            for i in range(m):
                v = M[i, j]
                if is_complex:
                    fh.write(f"{v.real:.17g} {v.imag:.17g}\n")
                else:
                    fh.write(f"{np.real(v):.17g}\n")


def save_vector(path, v: np.ndarray) -> None:
    save_matrix(path, np.asarray(v).reshape(-1, 1))
