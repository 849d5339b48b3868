"""Substitution sequences and power-freeness scanning.

Provides the Thue-Morse binary sequence (cube-free; term i is the parity
of the binary digit sum of i, so no prefix is kept), the square-free
ternary sequence obtained by recoding its length-2 factors, and
power-freeness scanning.  The two colorings of the integers built from
them (Thue-Morse by |x|, and the perfect-square indicator) and their
witness searches are in tests/paper_checks.py.

The power-freeness scan is exact and pure Python.  For each period p it
extends runs of s[k] == s[k + p] outward from anchors at multiples of p
(Main and Lorentz 1984; Crochemore 1981), each extension stopping at its
first mismatch, and it reports the leftmost witness, the shortest W among
ties.
"""

from dataclasses import dataclass
from itertools import compress
from operator import eq

from .errors import ValidationError, WindowError

_PAIR_CODES = {(0, 1): 0, (1, 0): 1, (0, 0): 2, (1, 1): 2}


def _term(i: int) -> int:
    """Thue-Morse term i, the parity of the binary digit sum of i (Allouche
    and Shallit, Automatic Sequences, 2003)."""
    return i.bit_count() & 1


def thue_morse_prefix(n: int) -> list[int]:
    """First n terms of the Thue-Morse sequence (0-indexed, starts 0,1,1,0...)."""
    if n < 0:
        raise ValidationError("prefix length must be nonnegative")
    return list(map(_term, range(n)))


def square_free_prefix(n: int) -> list[int]:
    """First n terms of the ternary square-free sequence.

    Term i recodes the Thue-Morse pair (m(i), m(i+1)):
    01 -> 0, 10 -> 1, 00 -> 2, 11 -> 2.
    """
    if n < 0:
        raise ValidationError("prefix length must be nonnegative")
    mt = thue_morse_prefix(n + 1)
    return [_PAIR_CODES[(mt[i], mt[i + 1])] for i in range(n)]


def ternary_term(i: int) -> int:
    """Term i of the ternary square-free sequence, from Thue-Morse terms i and i + 1."""
    if i < 0:
        raise ValidationError("index must be nonnegative")
    return _PAIR_CODES[(_term(i), _term(i + 1))]


@dataclass(frozen=True)
class PowerWitness:
    """Leftmost repetition W^p found by verify_power_free."""

    position: int
    word: tuple[int, ...]


def verify_power_free(seq, power: int, n: int):
    """Scan the first n symbols for a factor W^power.

    Returns None when no such factor exists (the prefix is power-free),
    otherwise the leftmost witness, ties broken by the shortest W.

    A factor W^power with |W| = p starts at i exactly when s[k] == s[k + p]
    for every k in [i, i + (power - 1) p).  That run of matches is at least
    p long, so it holds an anchor j, a multiple of p, with s[j] == s[j + p];
    those anchors are read off the column s[::p] in one pass.  From each
    anchor the run is extended left (at most p) and right (at most the
    length still needed), each extension stopping at its first mismatch.  An
    anchor whose left extension reaches p is skipped, the previous anchor
    lying in the same run.  Anchors are visited left to right, so a period
    stops at its first witness or once no anchor can start before the best
    witness so far, and the scan stops once a witness starts at 0.  Symbols
    are compared with == only.
    """
    if power not in (2, 3):
        raise ValidationError("power must be 2 or 3")
    if n < 0:
        raise WindowError(f"scan length must be nonnegative, got {n}")
    if n > len(seq):
        raise WindowError(f"scan length {n} exceeds sequence length {len(seq)}")
    s = list(seq[:n])
    best_start, best_period = n, 0
    for p in range(1, n // power + 1):
        need = (power - 1) * p
        last = min(n - power * p, best_start - 1)  # latest start worth finding
        column = s[: last + 2 * p : p]
        for j in compress(range(0, last + p, p), map(eq, column, column[1:])):
            left = 0
            while left < p and left < j and s[j - 1 - left] == s[j + p - 1 - left]:
                left += 1
            if left == p:
                continue
            start = j - left
            if start > last:
                break
            right, stop = 1, need - left
            while right < stop and s[j + right] == s[j + p + right]:
                right += 1
            if right == stop:
                best_start, best_period = start, p
                break
        if best_start == 0:
            break
    if not best_period:
        return None
    return PowerWitness(best_start, tuple(s[best_start : best_start + best_period]))
