"""Pure-Python wedge accumulation kernel.

Monomials are bitmasks (bit i-1 set means index i is present), coefficients
exact ints or Fractions.  A compiled twin with the same interface, for
bounded integer coefficients, lives in the C extension _wedge_c; `kernel`
picks one at import time.  This module is also the reference the compiled
kernel is tested against.
"""

from __future__ import annotations

from fractions import Fraction

BACKEND = "pure-python"


def merge_sign(ma: int, mb: int) -> int:
    """Sign of sorting the concatenation (sorted ma, sorted mb).

    Counts pairs x in ma, y in mb with x > y; the masks must be disjoint.
    """
    s = 0
    m = mb
    while m:
        low = m & -m
        s ^= (ma >> low.bit_length()).bit_count() & 1
        m ^= low
    return -1 if s else 1


def _nonzero(acc: dict):
    """The nonzero (mask, coeff) items of `acc`, a Fraction(p, 1) as p."""
    return [
        (m, c.numerator if type(c) is Fraction and c.denominator == 1 else c)
        for m, c in acc.items()
        if c
    ]


class Accumulator:
    """Mutable term accumulator shared across many wedge operations."""

    __slots__ = ("_acc",)

    def __init__(self):
        self._acc: dict[int, object] = {}

    def add_product(self, ta, tb) -> None:
        acc = self._acc
        get = acc.get
        for ma, ca in ta:
            for mb, cb in tb:
                if ma & mb:
                    continue
                s = 0
                m = mb
                while m:
                    low = m & -m
                    s ^= (ma >> low.bit_length()).bit_count() & 1
                    m ^= low
                key = ma | mb
                v = ca * cb
                acc[key] = get(key, 0) - v if s else get(key, 0) + v

    def add_square(self, ta) -> None:
        acc = self._acc
        get = acc.get
        n = len(ta)
        for i in range(n):
            ma, ca = ta[i]
            ca2 = 2 * ca
            for j in range(i + 1, n):
                mb, cb = ta[j]
                if ma & mb:
                    continue
                s = 0
                m = mb
                while m:
                    low = m & -m
                    s ^= (ma >> low.bit_length()).bit_count() & 1
                    m ^= low
                key = ma | mb
                v = ca2 * cb
                acc[key] = get(key, 0) - v if s else get(key, 0) + v

    def items(self):
        return _nonzero(self._acc)


def signed_perm_action(terms, perm, signs):
    """Derivation action on monomials for X with X e_{perm[i]} = signs... i.e.
    the letter i is replaced by j = perm[i] with factor -signs[i], inserting
    j with the crossing sign of resorting."""
    acc: dict[int, object] = {}
    get = acc.get
    for mask, c in terms:
        m = mask
        while m:
            low = m & -m
            m ^= low
            i = low.bit_length() - 1
            j = perm[i]
            factor = -signs[i]
            if j == i:
                acc[mask] = get(mask, 0) + c * factor
                continue
            without = mask ^ low
            jbit = 1 << j
            if without & jbit:
                continue
            lo, hi = (i, j) if i < j else (j, i)
            between = ((1 << hi) - 1) ^ ((1 << (lo + 1)) - 1)
            if (without & between).bit_count() & 1:
                factor = -factor
            new = without | jbit
            acc[new] = get(new, 0) + c * factor
    return _nonzero(acc)
