"""Block one-step scheme data model, builtin registry, and file I/O.

A scheme advances a block of s solution values sitting at staggered offsets
(abscissae) from the base time:

    V_{n+1} = A V_n + dt * B * F(V_n)

with s x s coefficient matrices A and B held exactly as rationals.  Input
abscissae c_in and output abscissae c_out are stored explicitly, in units of
the block step dt, largest first; the last input abscissa is always 0 (the
base time itself).  All float code reads a scheme through Scheme.float_tables.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .exact import ExactMatrix, ExactVector, as_matrix, as_vector, rat_str as _rat_str


@dataclass(frozen=True)
class Scheme:
    """An explicit block one-step method with exact coefficients."""

    name: str
    c_in: ExactVector
    c_out: ExactVector
    A: ExactMatrix
    B: ExactMatrix

    @property
    def s(self) -> int:  # block size
        return len(self.c_in)

    def __post_init__(self):
        s = self.s
        if s < 1:
            raise ValueError("s must be positive")
        if len(self.c_out) != s:
            raise ValueError(f"abscissae must have length s={s}")
        for label, M in (("A", self.A), ("B", self.B)):
            if len(M) != s or any(len(row) != s for row in M):
                raise ValueError(f"{label} not square of size s")
        if any(self.c_in[i] <= self.c_in[i + 1] for i in range(s - 1)):
            raise ValueError("abscissae not descending (c_in)")
        if any(self.c_out[i] <= self.c_out[i + 1] for i in range(s - 1)):
            raise ValueError("abscissae not descending (c_out)")
        if self.c_in[s - 1] != 0:
            raise ValueError("last input abscissa must be 0")
        if any(self.c_out[i] <= self.c_in[i] for i in range(s)):
            raise ValueError("output abscissae must exceed input abscissae")

    @cached_property
    def float_tables(self):
        """Read-only (A, B, c_in, c_out) rounded to double, once per scheme."""
        A, B = (np.array([[float(x) for x in row] for row in M]) for M in (self.A, self.B))
        c_in, c_out = (np.array([float(x) for x in c]) for c in (self.c_in, self.c_out))
        for arr in (A, B, c_in, c_out):
            arr.setflags(write=False)
        return A, B, c_in, c_out


def make_scheme(name, c_in, c_out, A, B) -> Scheme:
    """Construct a Scheme from rational-like nested values."""
    return Scheme(
        name=str(name),
        c_in=as_vector(c_in),
        c_out=as_vector(c_out),
        A=as_matrix(A),
        B=as_matrix(B),
    )


def _scaled(den, rows):
    return [[Fraction(x, den) for x in row] for row in rows]


# The five reference methods.  S2, S3A, S3B, S3C are error inhibiting
# (their global error converges one order beyond their truncation error);
# BUTCHER2 is the classical Type-3 two-step counterexample that is not.
_BUILTINS = {
    "S2": dict(
        c_in=[Fraction(1, 2), 0],
        c_out=[Fraction(3, 2), 1],
        A=_scaled(6, [[-1, 7], [-1, 7]]),
        B=_scaled(24, [[55, -17], [25, 1]]),
    ),
    "BUTCHER2": dict(
        c_in=[1, 0],
        c_out=[2, 1],
        A=_scaled(4, [[7, -3], [7, -3]]),
        B=_scaled(8, [[9, -7], [-3, -3]]),
    ),
    "S3A": dict(
        c_in=[Fraction(2, 3), Fraction(1, 3), 0],
        c_out=[Fraction(5, 3), Fraction(4, 3), 1],
        A=_scaled(768, [[467, -1996, 2297]] * 3),
        B=_scaled(1152, [[5439, -6046, 3058], [2399, -1694, 1362], [703, 354, 626]]),
    ),
    "S3B": dict(
        c_in=[Fraction(2, 3), Fraction(1, 3), 0],
        c_out=[Fraction(5, 3), Fraction(4, 3), 1],
        A=_scaled(1020, [[449, -1966, 2537]] * 3),
        B=_scaled(6120, [[29123, -32576, 15789], [12973, -9456, 6779], [3963, 1424, 2869]]),
    ),
    "S3C": dict(
        c_in=[Fraction(2, 3), Fraction(1, 3), 0],
        c_out=[Fraction(5, 3), Fraction(4, 3), 1],
        A=[[Fraction(-101, 96), Fraction(97, 24), Fraction(-191, 96)]] * 3,
        B=[
            [Fraction(733, 144), Fraction(-431, 72), Fraction(23, 12)],
            [Fraction(353, 144), Fraction(-53, 24), Fraction(4, 9)],
            [Fraction(47, 48), Fraction(-31, 72), Fraction(-7, 36)],
        ],
    ),
}

BUILTIN_NAMES = tuple(_BUILTINS)


def builtin(name: str) -> Scheme:
    """Return a builtin scheme by name (S2, BUTCHER2, S3A, S3B, S3C)."""
    try:
        entry = _BUILTINS[name]
    except KeyError:
        raise ValueError(f"unknown builtin: {name!r}") from None
    return make_scheme(name, **entry)


def save(scheme: Scheme, path) -> None:
    """Write a scheme to a JSON file with exact 'p/q' coefficient strings."""
    doc = {
        "name": scheme.name,
        "s": scheme.s,
        "c_in": [_rat_str(x) for x in scheme.c_in],
        "c_out": [_rat_str(x) for x in scheme.c_out],
        "A": [[_rat_str(x) for x in row] for row in scheme.A],
        "B": [[_rat_str(x) for x in row] for row in scheme.B],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


_FIELDS = {"name", "s", "c_in", "c_out", "A", "B"}


def _parse_rat(value, where: str) -> Fraction:
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{where}: invalid rational {value!r}") from None


def load(path) -> Scheme:
    """Read a scheme JSON file, validating structure and invariants."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValueError(f"parse error at line {e.lineno}: {e.msg}") from None
    if not isinstance(doc, dict):
        raise ValueError("scheme file must hold a JSON object")
    unknown = set(doc) - _FIELDS
    if unknown:
        raise ValueError(f"unknown field: {', '.join(sorted(unknown))}")
    missing = _FIELDS - set(doc)
    if missing:
        raise ValueError(f"missing field: {', '.join(sorted(missing))}")
    if not isinstance(doc["s"], int):
        raise ValueError("s: expected an integer")
    for key in ("c_in", "c_out"):
        if not isinstance(doc[key], list):
            raise ValueError(f"{key}: expected an array")
    for key in ("A", "B"):
        if not isinstance(doc[key], list) or any(not isinstance(r, list) for r in doc[key]):
            raise ValueError(f"{key}: expected an array of arrays")
    c_in = [_parse_rat(x, f"c_in[{i}]") for i, x in enumerate(doc["c_in"])]
    c_out = [_parse_rat(x, f"c_out[{i}]") for i, x in enumerate(doc["c_out"])]
    A = [
        [_parse_rat(x, f"A[{i}][{j}]") for j, x in enumerate(row)]
        for i, row in enumerate(doc["A"])
    ]
    B = [
        [_parse_rat(x, f"B[{i}][{j}]") for j, x in enumerate(row)]
        for i, row in enumerate(doc["B"])
    ]
    sch = make_scheme(doc["name"], c_in, c_out, A, B)
    if sch.s != doc["s"]:
        raise ValueError(f"s: declared {doc['s']} but abscissae have length {sch.s}")
    return sch
