"""Plain-text matrix files.

Format: first line is the dimension d, then d lines of d whitespace-separated
entries written as ``RE+IMi`` (for example ``0.5-0.25i``); exponent notation
is accepted on either part.  An entry is read as ``complex()`` reads it once
an i that ends it is written as j, so ``1+2j`` and ``(1+2j)`` are read too.
Self-dual pairs travel as two matrix files plus a one-line header file
naming the half-dimension N.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import InvalidMatrix
from .linalg import as_matrix


def format_matrix(M) -> str:
    A = as_matrix(M)
    d = A.shape[0]
    lines = [str(d)]
    for row in A:
        lines.append(" ".join(f"{z.real:.17g}{z.imag:+.17g}i" for z in row))
    return "\n".join(lines) + "\n"


_UNIT = re.compile(r"i(?=\s|$)")


def parse_matrix(text: str) -> np.ndarray:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InvalidMatrix("empty matrix file")
    try:
        d = int(lines[0].strip())
    except ValueError as exc:
        raise InvalidMatrix(f"first line must be the dimension, got {lines[0]!r}") from exc
    if d <= 0:
        raise InvalidMatrix(f"dimension must be positive, got {d}")
    if len(lines) != d + 1:
        raise InvalidMatrix(f"expected {d} rows, found {len(lines) - 1}")
    rows = []
    for r, ln in enumerate(lines[1:], start=1):
        try:
            row = list(map(complex, _UNIT.sub("j", ln).split()))
        except ValueError as exc:
            raise InvalidMatrix(f"row {r}: an entry is not a complex number") from exc
        if len(row) != d:
            raise InvalidMatrix(f"row {r}: expected {d} entries, found {len(row)}")
        rows.append(row)
    return as_matrix(np.array(rows, dtype=complex))


def write_matrix(path, M) -> None:
    with open(path, "w") as fh:
        fh.write(format_matrix(M))


def read_matrix(path) -> np.ndarray:
    with open(path) as fh:
        return parse_matrix(fh.read())


def write_selfdual_header(path, N: int) -> None:
    with open(path, "w") as fh:
        fh.write(f"{N}\n")


def read_selfdual_header(path) -> int:
    with open(path) as fh:
        line = fh.readline().strip()
    try:
        N = int(line)
    except ValueError as exc:
        raise InvalidMatrix(f"self-dual header must name N, got {line!r}") from exc
    if N <= 0:
        raise InvalidMatrix(f"half-dimension must be positive, got {N}")
    return N
