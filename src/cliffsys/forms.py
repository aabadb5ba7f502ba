"""Exact exterior algebra: k-forms, wedge, Hodge star, Kaehler forms,
characteristic coefficients tau_k of matrices of 2-forms, and the canonical
invariant forms of the quaternionic and octonionic structure groups.

Coordinates follow the convention 1..8 for the first octonion factor and
1'..8' (indices 9..16) for the second; primes repeat for every further
block of eight.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain, combinations
from math import gcd
from operator import getitem, or_
from typing import Iterable, Iterator, Mapping, Sequence

from . import kernel
from .exactmat import SignedPermMatrix, SKEW_COMPLEX_STRUCTURE, block_diag


def _norm_coeff(c):
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return c.numerator
        return c
    return c


def _mask_from_indices(indices: Iterable[int], n: int) -> int:
    mask = 0
    prev = 0
    for i in indices:
        if not 1 <= i <= n:
            raise ValueError(f"index {i} outside 1..{n}")
        if i <= prev:
            raise ValueError("indices must be strictly increasing")
        prev = i
        mask |= 1 << (i - 1)
    return mask


def _indices_from_mask(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


class KForm:
    """Exterior k-form on R^n with exact rational coefficients.

    Terms are keyed by strictly increasing index tuples (stored as
    bitmasks); zero coefficients are never kept.  Values are immutable by
    convention: no method mutates an existing form.
    """

    __slots__ = ("n", "k", "_terms", "_ints")

    def __init__(self, n: int, k: int, terms: Mapping[int, object] | None = None):
        if n <= 0 or k < 0:
            raise ValueError("need n >= 1 and k >= 0")
        self.n = n
        self.k = k
        clean: dict[int, object] = {}
        ints = True
        for mask, c in (terms or {}).items():
            c = _norm_coeff(c)
            if not c:
                continue
            if mask.bit_count() != k or mask >= (1 << n):
                raise ValueError("term does not match degree/ambient")
            if not isinstance(c, int):
                ints = False
            clean[mask] = c
        self._terms = clean
        self._ints = ints

    @classmethod
    def _trusted(cls, n: int, k: int, terms: dict[int, object], ints: bool) -> "KForm":
        """A form that takes `terms` as they are, unchecked: masks of k bits
        below 2^n mapped to nonzero ints (all of them when `ints`) or
        non-integral Fractions.  For kernel outputs, sums and multiples of
        integer forms, and validated input."""
        form = object.__new__(cls)
        form.n, form.k, form._terms, form._ints = n, k, terms, ints
        return form

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(n: int, k: int) -> "KForm":
        return KForm(n, k)

    @staticmethod
    def monomial(n: int, indices: Sequence[int], coeff=1) -> "KForm":
        return KForm(n, len(indices), {_mask_from_indices(indices, n): coeff})

    @staticmethod
    def from_terms(n: int, k: int, pairs: Iterable[tuple[Sequence[int], object]]) -> "KForm":
        acc: dict[int, object] = {}
        for indices, c in pairs:
            if len(indices) != k:
                raise ValueError("term of wrong degree")
            mask = _mask_from_indices(indices, n)
            acc[mask] = acc.get(mask, 0) + c
        return KForm(n, k, acc)

    # -- queries ---------------------------------------------------------------

    def terms(self) -> Iterator[tuple[tuple[int, ...], object]]:
        """Terms as (indices, coeff), sorted lexicographically by indices."""
        return ((sum(indices, ()), c) for indices, c in _rendered_terms(self, _byte_indices))

    def mask_items(self) -> list[tuple[int, object]]:
        return list(self._terms.items())

    def coefficient(self, indices: Sequence[int]):
        return self._terms.get(_mask_from_indices(indices, self.n), 0)

    def is_zero(self) -> bool:
        return not self._terms

    def num_terms(self) -> int:
        return len(self._terms)

    def content(self) -> int:
        """gcd of the coefficients; requires them integral, 0 for the zero form."""
        if not self._ints:
            raise ValueError("content needs integer coefficients")
        return gcd(*self._terms.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, KForm):
            return NotImplemented
        return (
            self.n == other.n
            and self.k == other.k
            and self._terms == other._terms
        )

    def __repr__(self) -> str:
        return f"KForm(n={self.n}, k={self.k}, terms={self.num_terms()})"

    # -- linear structure --------------------------------------------------------

    def __add__(self, other: "KForm") -> "KForm":
        self._need_match(other)
        acc = dict(self._terms)
        for mask, c in other._terms.items():
            acc[mask] = acc.get(mask, 0) + c
        return self._sum_form(other, acc)

    def __sub__(self, other: "KForm") -> "KForm":
        self._need_match(other)
        acc = dict(self._terms)
        for mask, c in other._terms.items():
            acc[mask] = acc.get(mask, 0) - c
        return self._sum_form(other, acc)

    def _sum_form(self, other: "KForm", acc: dict[int, object]) -> "KForm":
        """The form over `acc`, a sum or difference of the terms of self and
        other; integer operands give integer terms, of which only zeros drop."""
        if self._ints and other._ints:
            return KForm._trusted(self.n, self.k, {m: c for m, c in acc.items() if c}, True)
        return KForm(self.n, self.k, acc)

    def __neg__(self) -> "KForm":
        return KForm(self.n, self.k, {m: -c for m, c in self._terms.items()})

    def scale(self, c) -> "KForm":
        c = _norm_coeff(Fraction(c)) if not isinstance(c, int) else c
        if not c:
            return KForm.zero(self.n, self.k)
        terms = {m: v * c for m, v in self._terms.items()}
        if self._ints and isinstance(c, int):
            return KForm._trusted(self.n, self.k, terms, True)
        return KForm(self.n, self.k, terms)

    def __mul__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    __rmul__ = __mul__

    def _need_match(self, other: "KForm"):
        if self.n != other.n:
            raise ValueError("ambient dimension mismatch")
        if self.k != other.k:
            raise ValueError("degree mismatch")

    # -- graded structure -----------------------------------------------------------

    def wedge(self, other: "KForm") -> "KForm":
        if self.n != other.n:
            raise ValueError("ambient dimension mismatch")
        k = self.k + other.k
        if k > self.n:
            return KForm.zero(self.n, k)
        ints = self._ints and other._ints
        ta, tb = self.mask_items(), other.mask_items()
        pairs = kernel.accumulate(lambda acc: acc.add_product(ta, tb), ints)
        return _kernel_form(self.n, k, pairs, ints)

    def wedge_square(self) -> "KForm":
        """self ^ self, using the even-degree shortcut (zero for odd degree)."""
        k = 2 * self.k
        if self.k % 2 == 1 or k > self.n:
            return KForm.zero(self.n, k)
        if k == 0:  # the shortcut skips squares of monomials, nonzero only in degree 0
            return self.wedge(self)
        ta = self.mask_items()
        pairs = kernel.accumulate(lambda acc: acc.add_square(ta), self._ints)
        return _kernel_form(self.n, k, pairs, self._ints)

    def restrict(self, indices: Sequence[int]) -> "KForm":
        """Pull back along the inclusion of the span of e_i, i in `indices`
        (strictly increasing); surviving indices are renumbered by position."""
        idx = list(indices)
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("indices must be strictly increasing")
        allowed = _mask_from_indices(idx, self.n)
        pos = {i: p + 1 for p, i in enumerate(idx)}
        acc: dict[int, object] = {}
        for mask, c in self._terms.items():
            if mask & ~allowed:
                continue
            new = 0
            for i in _indices_from_mask(mask):
                new |= 1 << (pos[i] - 1)
            acc[new] = acc.get(new, 0) + c
        return KForm(len(idx), self.k, acc)


def _kernel_form(n: int, k: int, pairs, ints: bool) -> KForm:
    """The form over kernel output `pairs`: nonzero terms of degree k.  With
    integer inputs they are clean ints; Fraction inputs may give Fraction(p, 1),
    which the checking constructor normalises."""
    if ints:
        return KForm._trusted(n, k, dict(pairs), True)
    return KForm(n, k, dict(pairs))


def wedge(a: KForm, b: KForm) -> KForm:
    return a.wedge(b)


def hodge_star(a: KForm) -> KForm:
    """Hodge star for the standard metric and orientation e^1 ^ ... ^ e^n."""
    full = (1 << a.n) - 1
    acc: dict[int, object] = {}
    for mask, c in a._terms.items():
        comp = full ^ mask
        acc[comp] = c * kernel.merge_sign(mask, comp)
    return KForm(a.n, a.n - a.k, acc)


def kaehler_form(j: SignedPermMatrix) -> KForm:
    """Kaehler 2-form of a metric-compatible complex structure.

    Sign convention: omega(e_a, e_b) is the (a, b) matrix entry of J, i.e.
    omega(X, Y) = <X, JY>; it is fixed by the convention-resolution test
    against the C_4 composition R_i.
    """
    if j.classify() != SKEW_COMPLEX_STRUCTURE:
        raise ValueError("kaehler_form needs a skew complex structure")
    acc: dict[int, object] = {}
    for b in range(j.n):
        t, s = j.apply(b)
        if t < b:
            acc[(1 << t) | (1 << b)] = s
    return KForm(j.n, 2, acc)


class FormMatrix:
    """Skew-symmetric square matrix of 2-forms with one ambient dimension."""

    __slots__ = ("size", "n", "_upper")

    def __init__(self, size: int, n: int, upper: Mapping[tuple[int, int], KForm]):
        if size <= 0:
            raise ValueError("size must be positive")
        self.size = size
        self.n = n
        self._upper: dict[tuple[int, int], KForm] = {}
        for (i, jj), form in upper.items():
            if not 0 <= i < jj < size:
                raise ValueError("upper entries need 0 <= i < j < size")
            if form.n != n or form.k != 2:
                raise ValueError("entries must be 2-forms on the common ambient")
            if not form.is_zero():
                self._upper[(i, jj)] = form

    def entry(self, i: int, j: int) -> KForm:
        if not (0 <= i < self.size and 0 <= j < self.size):
            raise ValueError("index out of range")
        if i == j:
            return KForm.zero(self.n, 2)
        if i < j:
            return self._upper.get((i, j), KForm.zero(self.n, 2))
        return -self._upper.get((j, i), KForm.zero(self.n, 2))

    def upper_items(self) -> Iterator[tuple[tuple[int, int], KForm]]:
        return iter(sorted(self._upper.items()))


def kaehler_matrix(generators: Sequence[SignedPermMatrix]) -> FormMatrix:
    """Matrix of Kaehler forms of the pairwise compositions P_i P_j."""
    if not generators:
        raise ValueError("need at least one generator")
    n = generators[0].n
    upper = {}
    for i, j in combinations(range(len(generators)), 2):
        upper[(i, j)] = kaehler_form(generators[i].mul(generators[j]))
    return FormMatrix(len(generators), n, upper)


@lru_cache(maxsize=None)
def psi_matrix(family: str) -> FormMatrix:
    """Kaehler-form matrices of the spin families on R^16.

    family "A": compositions S_a S_b for 1 <= a < b <= 7 (size 7);
    family "B": 0 <= a < b <= 7 (size 8); family "C": 0 <= a < b <= 8
    (size 9).
    """
    from .clifford import build

    ranges = {"A": (1, 8), "B": (0, 8), "C": (0, 9)}
    if family not in ranges:
        raise ValueError("family must be A, B or C")
    lo, hi = ranges[family]
    gens = build(8).generators[lo:hi]
    return kaehler_matrix(gens)


def _pfaffian_terms(psi: FormMatrix, rows: tuple[int, ...]) -> KForm:
    """Pfaffian of the principal minor on `rows` (even length)."""
    if len(rows) == 0:
        raise ValueError("empty minor")
    if len(rows) == 2:
        return psi.entry(rows[0], rows[1])
    first = rows[0]
    rest = rows[1:]
    total = KForm.zero(psi.n, len(rows))
    for pos, j in enumerate(rest):
        sub = tuple(r for r in rest if r != j)
        part = psi.entry(first, j).wedge(_pfaffian_terms(psi, sub))
        total = total + part if pos % 2 == 0 else total - part
    return total


def tau(psi: FormMatrix, k: int, jobs: int = 1) -> KForm:
    """Sum of the k x k principal minors of a skew matrix of 2-forms.

    Entries commute (even degree), so each minor is an honest determinant;
    for skew matrices it equals the square of the minor's Pfaffian, which
    is the evaluation path used here.  tau_0 is the constant 1, the
    determinant of the one empty minor.  Partial sums over minor subsets
    may be evaluated in parallel; exact arithmetic makes the merge
    order-independent.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k % 2 == 1:
        raise ValueError("tau is zero/undefined for odd k; need even k")
    if k > psi.size:
        raise ValueError("k exceeds matrix size")
    if k == 0:
        return KForm(psi.n, 0, {0: 1})
    subsets = list(combinations(range(psi.size), k))
    if jobs > 1 and len(subsets) >= 2 * jobs:
        return _tau_parallel(psi, k, subsets, jobs)
    return _kernel_form(psi.n, 2 * k, _tau_terms(psi, subsets), _psi_ints(psi))


def _psi_ints(psi: FormMatrix) -> bool:
    return all(form._ints for _, form in psi.upper_items())


def _tau_terms(psi: FormMatrix, subsets) -> list[tuple[int, object]]:
    """Terms of the sum of the squared Pfaffians over `subsets`."""

    def fill(acc):
        for rows in subsets:
            acc.add_square(_pfaffian_terms(psi, rows).mask_items())

    return kernel.accumulate(fill, _psi_ints(psi))


def _tau_worker(args):
    size, n, upper_raw, chunk = args
    upper = {key: KForm(n, 2, dict(pairs)) for key, pairs in upper_raw}
    return _tau_terms(FormMatrix(size, n, upper), chunk)


def _tau_parallel(psi: FormMatrix, k: int, subsets, jobs: int) -> KForm:
    from concurrent.futures import ProcessPoolExecutor

    upper_raw = [(key, form.mask_items()) for key, form in psi.upper_items()]
    chunks = [subsets[i::jobs] for i in range(jobs)]
    args = [(psi.size, psi.n, upper_raw, chunk) for chunk in chunks if chunk]
    acc: dict[int, object] = {}
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for part in pool.map(_tau_worker, args):
            for mask, c in part:
                acc[mask] = acc.get(mask, 0) + c
    # partial sums may cancel across chunks
    return _kernel_form(psi.n, 2 * k, [(m, c) for m, c in acc.items() if c], _psi_ints(psi))


def lie_action(x: SignedPermMatrix, a: KForm) -> KForm:
    """Natural action of a skew matrix on a k-form:
    (rho(X)a)(v_1, ..., v_k) = -sum_i a(v_1, ..., X v_i, ..., v_k)."""
    if not isinstance(x, SignedPermMatrix):
        raise TypeError("x must be a SignedPermMatrix")
    if x.n != a.n:
        raise ValueError("shape mismatch")
    inv = x.transpose()  # letter i is sent to inv.perm[i] with sign inv.signs[i]
    pairs = kernel.signed_perm_action(a.mask_items(), inv.perm, inv.signs, a._ints)
    return _kernel_form(a.n, a.k, pairs, a._ints)


@lru_cache(maxsize=None)
def canonical_form(name: str) -> KForm:
    """Canonical invariant forms, normalized as printed.

    OmegaL: left quaternionic 4-form on R^8 (sum of the three Kaehler-form
    squares of the diagonal left multiplications; its coefficients share a
    factor 2).  Spin7Delta: tau_2(psi^A)/6.  Spin8: tau_2(psi^B)/4.
    Spin9: tau_4(psi^C)/360.  Spin8 and Spin9 have integer coefficients
    with gcd 1; Spin7Delta has rational mixed coefficients, and its
    restriction to either R^8 summand is integral with unit coefficients.
    """
    from .algebras import left_mult

    if name == "OmegaL":
        total = KForm.zero(8, 4)
        for u in ("i", "j", "k"):
            lu = left_mult(u, 4)
            omega = kaehler_form(block_diag([lu, lu]))
            total = total + omega.wedge_square()
        return total
    scalings = {"Spin7Delta": ("A", 2, 6), "Spin8": ("B", 2, 4), "Spin9": ("C", 4, 360)}
    if name not in scalings:
        raise ValueError(f"unknown canonical form {name!r}")
    family, k, divisor = scalings[name]
    form = tau(psi_matrix(family), k).scale(Fraction(1, divisor))
    if name != "Spin7Delta":
        # Spin7Delta keeps rational mixed coefficients; its summand
        # restrictions are the integral unit-coefficient 4-forms.
        if not form._ints:
            raise ArithmeticError(f"{name}: expected integral coefficients")
        if form.content() != 1:
            raise ArithmeticError(f"{name}: expected coefficient gcd 1")
    return form


# -- term order ---------------------------------------------------------------

_BIT_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _sorted_masks(masks: Iterable[int], width: int) -> list[int]:
    """`masks` of one degree, each below 2^(8 width), in lexicographic order
    of their index tuples.

    For one degree that order is the descending order of the masks with
    their bits reversed.  The little-endian bytes of a mask, each byte
    bit-reversed, spell that reversal big-endian over whole bytes, which
    shifts it but keeps the order."""
    return sorted(
        masks,
        key=lambda m: m.to_bytes(width, "little").translate(_BIT_REVERSED),
        reverse=True,
    )


def _rendered_terms(a: KForm, table) -> Iterator[tuple[Iterator, object]]:
    """(pieces, coefficient) per term of `a` in lexicographic order.  The
    pieces are `table(p)[b]` for each byte p of the mask whose value b is
    nonzero, so a table renders the indices 8p+1..8p+8 that b holds."""
    terms = a._terms
    used = reduce(or_, terms, 0)
    width = (used.bit_length() + 7) // 8
    # tables only for the byte positions some mask uses, so that a sparse form
    # on a large R^n builds few; an unused position only ever looks up entry 0
    tables = [table(p) if b else ("",) for p, b in enumerate(used.to_bytes(width, "little"))]
    for m in _sorted_masks(terms, width):
        yield filter(None, map(getitem, tables, m.to_bytes(width, "little"))), terms[m]


@lru_cache(maxsize=64)
def _byte_indices(p: int) -> tuple[tuple[int, ...], ...]:
    """Entry b: the indices that value b of byte p of a mask holds."""
    return tuple(tuple(8 * p + j + 1 for j in range(8) if b >> j & 1) for b in range(256))


@lru_cache(maxsize=64)
def _json_index_lines(p: int) -> tuple[str, ...]:
    return tuple(",\n".join(f"        {i}" for i in idx) for idx in _byte_indices(p))


@lru_cache(maxsize=64)
def _index_tokens(p: int) -> tuple[str, ...]:
    return tuple("".join(_index_token(i) for i in idx) for idx in _byte_indices(p))


# -- wire format -------------------------------------------------------------


def form_to_json(a: KForm) -> dict:
    """{"N": n, "k": k, "terms": [{"idx": [...], "c": "p/q"}, ...]},
    sorted lexicographically by index tuple."""
    terms = [{"idx": list(idx), "c": str(c)} for idx, c in a.terms()]
    return {"N": a.n, "k": a.k, "terms": terms}


def form_to_json_text(a: KForm) -> str:
    """The text of `json.dumps(form_to_json(a), indent=2) + "\\n"`, byte for
    byte, rendered straight from the masks.  It skips the intermediate dict
    and the pure-Python encoder that `indent` selects, which for the
    234,364-term rank-10 form cost seconds and doubled the peak memory."""
    head = f'{{\n  "N": {a.n},\n  "k": {a.k},\n  "terms": '
    if a.is_zero():
        return head + "[]\n}\n"
    chunks = []
    for lines, c in _rendered_terms(a, _json_index_lines):
        idx = ",\n".join(lines)
        idx_text = f"[\n{idx}\n      ]" if idx else "[]"
        chunks.append(f'    {{\n      "idx": {idx_text},\n      "c": "{c!s}"\n    }}')
    return head + "[\n" + ",\n".join(chunks) + "\n  ]\n}\n"


_RATIO = r"(-?[1-9][0-9]*)/([1-9][0-9]*)"  # compiled on first use, not at import


def _ratio_from_text(c) -> Fraction:
    """The value of a canonical "p/q" literal: p, q coprime, q >= 2."""
    match = re.fullmatch(_RATIO, c) if type(c) is str else None
    if match is not None:
        p, q = int(match[1]), int(match[2])
        if q > 1 and gcd(p, q) == 1:
            return Fraction(p, q)
    raise ValueError(f"coefficient {c!r} is not a canonical literal")


def form_from_json(data: dict) -> KForm:
    """The form written by `form_to_json`.

    Input contract, ValueError otherwise: `N` is an int >= 1 and `k` an int
    >= 0 (not bools); every term is {"idx": [...], "c": "..."} where idx is
    a list of k strictly increasing int indices in 1..N (no bool or float)
    and no idx occurs twice; c is a canonical literal string, an integer
    as `str(int)` writes it or "p/q" with q >= 2 and p, q coprime (no
    decimals, exponents, whitespace, "+", "_", leading zeros or "-0").
    Terms may come in any order; terms with c = "0" are dropped.
    """
    try:
        n, k, items = data["N"], data["k"], data["terms"]
    except (KeyError, TypeError):
        raise ValueError("form JSON needs N, k and terms") from None
    if type(n) is not int or type(k) is not int or n < 1 or k < 0:
        raise ValueError("N must be an int >= 1 and k an int >= 0")
    if type(items) is not list:
        raise ValueError("terms must be a list")
    try:
        index_lists = [t["idx"] for t in items]
        coeffs = [t["c"] for t in items]
    except (KeyError, TypeError):
        raise ValueError('every term needs "idx" and "c"') from None
    bit = _bit_table(n, index_lists)
    terms: dict[int, object] = {}
    ints = True
    for idx, c in zip(index_lists, coeffs):
        mask = sum(map(bit.__getitem__, idx))
        if len(idx) != k or mask.bit_count() != k or idx != sorted(idx):
            raise ValueError(f"idx {idx}: need {k} strictly increasing indices")
        try:
            v = int(c)
            if str(v) != c:
                raise ValueError
        except (TypeError, ValueError):
            v = _ratio_from_text(c)
            ints = False
        terms[mask] = v
    if len(terms) != len(items):
        raise ValueError("an idx occurs twice")
    if 0 in terms.values():
        terms = {m: v for m, v in terms.items() if v}
    return KForm._trusted(n, k, terms, ints)


def _bit_table(n: int, index_lists: list) -> dict[int, int]:
    """{i: 1 << (i - 1)} for the indices in `index_lists`, which must be
    lists of ints in 1..n."""
    if not set(map(type, index_lists)) <= {list}:
        raise ValueError("every idx must be a list")
    if not set(map(type, chain.from_iterable(index_lists))) <= {int}:
        raise ValueError("indices must be ints")
    seen = set(chain.from_iterable(index_lists))
    if seen and not 1 <= min(seen) <= max(seen) <= n:
        raise ValueError(f"index outside 1..{n}")
    return {i: 1 << (i - 1) for i in seen}


# -- short 's' notation ----------------------------------------------------------


def _index_token(i: int) -> str:
    block, pos = divmod(i - 1, 8)
    return str(pos + 1) + "'" * block


def monomial_token(indices: Sequence[int]) -> str:
    """Compact token for a monomial: s1234, s121'2', ..."""
    return "s" + "".join(_index_token(i) for i in indices)


def parse_monomial_token(token: str) -> tuple[int, ...]:
    body = token[1:] if token.startswith("s") else token
    out = []
    pos = 0
    while pos < len(body):
        ch = body[pos]
        if not ch.isdigit():
            raise ValueError(f"bad monomial token {token!r}")
        digit = int(ch)
        pos += 1
        primes = 0
        while pos < len(body) and body[pos] == "'":
            primes += 1
            pos += 1
        out.append(8 * primes + digit)
    return tuple(out)


def form_to_text(a: KForm) -> str:
    """Human-auditable rendering in the short notation, lexicographic order."""
    if a.is_zero():
        return "0"
    parts = []
    for tokens, c in _rendered_terms(a, _index_tokens):
        sign, mag = ("-", -c) if c < 0 else ("+", c)
        coeff = "" if mag == 1 else f"{mag}*"
        parts.append(f"{sign} {coeff}s{''.join(tokens)}")
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text
