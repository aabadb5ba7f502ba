"""Pure-Python wedge accumulation kernel.

Monomials are bitmasks (bit i-1 set means index i is present), coefficients
exact ints or Fractions.  A compiled twin with the same interface, for
bounded integer coefficients, lives in the C extension _wedge_c; `kernel`
picks one at import time.  The loops and the sign rule mirror _wedge_c's:
products and squares share one accumulation loop, the sign of a merge is
the parity of a prefix-parity mask computed once per right-hand term, and
the derivation action reads its moves per letter.  This module is the
reference the compiled kernel is tested against; `tests/oracles.py`
checks it independently, by explicit sorting.
"""

from __future__ import annotations

from fractions import Fraction

BACKEND = "pure-python"


def _below_parity(mb: int, width: int) -> int:
    """Bit x (x < width) is set when mb has an odd number of bits below x.
    The sign of merging sorted ma before sorted mb, for ma of at most
    `width` bits, is then the parity of ma & below: the count of pairs x in
    ma, y in mb with x > y."""
    p = mb << 1
    s = 1
    while s < width:
        p ^= p << s
        s <<= 1
    return p


def merge_sign(ma: int, mb: int) -> int:
    """Sign of sorting the concatenation (sorted ma, sorted mb); the masks
    must be disjoint."""
    return -1 if (ma & _below_parity(mb, ma.bit_length())).bit_count() & 1 else 1


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
        self._add(ta, tb, False)

    def add_square(self, ta) -> None:
        self._add(ta, ta, True)

    def _add(self, ta, tb, square: bool) -> None:
        """ta ^ tb into the sums.  With `square` set, tb is ta and only the
        cross terms of ta ^ ta are taken, each pair once and doubled (for an
        even-degree ta)."""
        width = max((ma.bit_length() for ma, _ in ta), default=0)
        tb = [(mb, cb, _below_parity(mb, width)) for mb, cb in tb]
        acc = self._acc
        get = acc.get
        for i, (ma, ca) in enumerate(ta):
            if square:
                ca = 2 * ca
            for mb, cb, below in tb[i + 1:] if square else tb:
                if ma & mb:
                    continue
                key = ma | mb
                v = ca * cb
                acc[key] = get(key, 0) - v if (ma & below).bit_count() & 1 else get(key, 0) + v

    def items(self):
        return _nonzero(self._acc)


def signed_perm_action(terms, perm, signs):
    """Derivation action: letter i of a monomial becomes j = perm[i] with
    factor -signs[i], resorted with the sign of the letters strictly between
    i and j (none when j == i, so a fixed letter keeps the monomial)."""
    moves = [
        (1 << j, ((1 << max(i, j)) - 1) & ~((2 << min(i, j)) - 1), -s)
        for i, (j, s) in enumerate(zip(perm, signs))
    ]
    acc: dict[int, object] = {}
    get = acc.get
    for mask, c in terms:
        m = mask
        while m:
            low = m & -m
            m ^= low
            jbit, between, factor = moves[low.bit_length() - 1]
            without = mask ^ low
            if without & jbit:
                continue
            new = without | jbit
            v = c * factor
            acc[new] = get(new, 0) - v if (without & between).bit_count() & 1 else get(new, 0) + v
    return _nonzero(acc)
