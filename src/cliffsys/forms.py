"""Exact exterior algebra: k-forms, wedge, Hodge star, Kaehler forms,
characteristic coefficients tau_k of matrices of 2-forms, and the canonical
invariant forms of the quaternionic and octonionic structure groups.

Coordinates follow the convention 1..8 for the first octonion factor and
1'..8' (indices 9..16) for the second; primes repeat for every further
block of eight.
"""

from __future__ import annotations

import os
import re
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import chain, combinations
from math import gcd
from operator import getitem, or_
from typing import Iterable, Iterator, Mapping, Sequence

from . import kernel
from .exactmat import SignedPermMatrix


def _coeff(c):
    """c as a form coefficient: an int, or a Fraction that is not one; the
    wire format carries nothing else (a bool or a float is a TypeError)."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"coefficient {c!r} is not an int or a Fraction")


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
    bitmasks); zero coefficients are never kept.  The constructor takes
    ints n and k and {mask: coeff} with each mask an int >= 0 and each
    coefficient an int or a Fraction, none of them a bool: what the wire
    format can carry.  Values are immutable by convention: no method
    mutates an existing form.

    A form made from kernel output keeps the kernel's (mask, coeff) pair
    sequence as it came, and builds its {mask: coeff} dict `_terms` only
    when Python code first asks for it.
    """

    __slots__ = ("n", "k", "_map", "_pairs")

    def __init__(self, n: int, k: int, terms: Mapping[int, object] | None = None):
        if type(n) is not int or type(k) is not int:
            raise ValueError("n and k must be ints")
        if n <= 0 or k < 0:
            raise ValueError("need n >= 1 and k >= 0")
        self.n = n
        self.k = k
        clean: dict[int, object] = {}
        for mask, c in (terms or {}).items():
            c = _coeff(c)
            if not c:
                continue
            if type(mask) is not int or mask < 0:
                raise ValueError(f"mask {mask!r} is not an int >= 0")
            if mask.bit_count() != k or mask >= (1 << n):
                raise ValueError("term does not match degree/ambient")
            clean[mask] = c
        self._map = clean
        self._pairs = None

    @classmethod
    def _trusted(cls, n: int, k: int, terms) -> "KForm":
        """A form that takes `terms` as they are, unchecked: a {mask: coeff}
        dict, or a sequence of (mask, coeff) pairs with distinct masks, whose
        masks have k bits below 2^n and whose coefficients are nonzero ints
        or non-integral Fractions.  For kernel outputs, which both kernels
        give in that shape (the pure one turns a Fraction(p, 1) into p), and
        validated input."""
        form = object.__new__(cls)
        form.n, form.k = n, k
        if isinstance(terms, dict):
            form._map, form._pairs = terms, None
        else:
            form._map, form._pairs = None, terms
        return form

    @property
    def _terms(self) -> dict[int, object]:
        """{mask: coeff}, built from the pair sequence on first use."""
        if self._map is None:
            self._map = dict(self._pairs)
        return self._map

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

    def mask_items(self) -> Sequence[tuple[int, object]]:
        """The (mask, coeff) pairs: the kernel's sequence when the form came
        from the kernel, a fresh list otherwise."""
        if self._pairs is not None:
            return self._pairs
        return list(self._map.items())

    def coefficient(self, indices: Sequence[int]):
        return self._terms.get(_mask_from_indices(indices, self.n), 0)

    def is_zero(self) -> bool:
        return self.num_terms() == 0

    def num_terms(self) -> int:
        return len(self._map if self._pairs is None else self._pairs)

    def content(self) -> int:
        """gcd of the coefficients; requires them integral, 0 for the zero form."""
        coeffs = [c for _, c in self.mask_items()]
        if not all(isinstance(c, int) for c in coeffs):
            raise ValueError("content needs integer coefficients")
        return gcd(*coeffs)

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
        return KForm(self.n, self.k, acc)

    def __sub__(self, other: "KForm") -> "KForm":
        return self + -other

    def __neg__(self) -> "KForm":
        return KForm(self.n, self.k, {m: -c for m, c in self._terms.items()})

    def scale(self, c) -> "KForm":
        c = _coeff(c)
        if not c:
            return KForm.zero(self.n, self.k)
        return KForm(self.n, self.k, {m: v * c for m, v in self._terms.items()})

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
        ta, tb = self.mask_items(), other.mask_items()
        pairs = kernel.accumulate(lambda acc: acc.add_product(ta, tb), self.n)
        return KForm._trusted(self.n, k, pairs)

    def wedge_square(self) -> "KForm":
        """self ^ self, using the even-degree shortcut (zero for odd degree)."""
        k = 2 * self.k
        if self.k % 2 == 1 or k > self.n:
            return KForm.zero(self.n, k)
        if k == 0:  # the shortcut skips squares of monomials, nonzero only in degree 0
            return self.wedge(self)
        ta = self.mask_items()
        pairs = kernel.accumulate(lambda acc: acc.add_square(ta), self.n)
        return KForm._trusted(self.n, k, pairs)

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
    if not j.is_complex_structure():
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
        form = self._upper.get((i, j) if i < j else (j, i))
        if form is None:
            return KForm.zero(self.n, 2)
        return form if i < j else -form

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
    """Pfaffian of the principal minor on `rows` (even length): the sum of
    (-1)^pos psi[first, j] ^ Pf(rest without j) over the j at position pos
    of the rest, accumulated at once."""
    if len(rows) == 0:
        raise ValueError("empty minor")
    if len(rows) == 2:
        return psi.entry(rows[0], rows[1])
    first = rows[0]
    rest = rows[1:]
    parts = []
    for pos, j in enumerate(rest):
        entry = psi.entry(first, j)
        sub = _pfaffian_terms(psi, tuple(r for r in rest if r != j))
        sign = -1 if pos % 2 else 1
        parts.append(([(m, sign * c) for m, c in entry.mask_items()], sub.mask_items()))

    def fill(acc):
        for ta, tb in parts:
            acc.add_product(ta, tb)

    return KForm._trusted(psi.n, len(rows), kernel.accumulate(fill, psi.n))


def tau(psi: FormMatrix, k: int, jobs: int = 1) -> KForm:
    """Sum of the k x k principal minors of a skew matrix of 2-forms.

    Entries commute (even degree), so each minor is an honest determinant;
    for skew matrices it equals the square of the minor's Pfaffian, which
    is the evaluation path used here.  tau_0 is the constant 1, the
    determinant of the one empty minor.  Where the pure kernel accumulates
    the minors, partial sums over minor subsets may be evaluated in up to
    `jobs` worker processes, no more than the CPUs this process may use;
    exact arithmetic makes the merge order-independent.
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
    if jobs > 1 and not kernel.tries_compiled(psi.n):
        workers = min(jobs, _usable_cpus())
        if workers > 1 and len(subsets) >= 2 * workers:
            return _tau_parallel(psi, k, subsets, workers)
    return KForm._trusted(psi.n, 2 * k, _tau_terms(psi, subsets))


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _tau_terms(psi: FormMatrix, subsets):
    """Terms of the sum of the squared Pfaffians over `subsets`."""

    def fill(acc):
        for rows in subsets:
            acc.add_square(_pfaffian_terms(psi, rows).mask_items())

    return kernel.accumulate(fill, psi.n)


def _tau_parallel(psi: FormMatrix, k: int, subsets, jobs: int) -> KForm:
    from concurrent.futures import ProcessPoolExecutor

    chunks = [subsets[i::jobs] for i in range(jobs)]
    acc: dict[int, object] = {}
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for part in pool.map(partial(_tau_terms, psi), chunks):
            for mask, c in part:
                acc[mask] = acc.get(mask, 0) + c
    # partial sums may cancel across chunks
    return KForm(psi.n, 2 * k, acc)


def lie_action(x: SignedPermMatrix, a: KForm) -> KForm:
    """Natural action of a skew matrix on a k-form:
    (rho(X)a)(v_1, ..., v_k) = -sum_i a(v_1, ..., X v_i, ..., v_k)."""
    if not isinstance(x, SignedPermMatrix):
        raise TypeError("x must be a SignedPermMatrix")
    if x.n != a.n:
        raise ValueError("shape mismatch")
    inv = x.transpose()  # letter i is sent to inv.perm[i] with sign inv.signs[i]
    pairs = kernel.signed_perm_action(a.mask_items(), inv.perm, inv.signs)
    return KForm._trusted(a.n, a.k, pairs)


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
            omega = kaehler_form(SignedPermMatrix.identity(2).kron(lu))
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
        if not all(isinstance(c, int) for _, c in form.mask_items()):
            raise ArithmeticError(f"{name}: expected integral coefficients")
        if form.content() != 1:
            raise ArithmeticError(f"{name}: expected coefficient gcd 1")
    return form


# -- term order ---------------------------------------------------------------

_BIT_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _sorted_terms(terms: Iterable[tuple[int, object]], width: int) -> list[tuple[int, object]]:
    """(mask, coeff) `terms` of one degree, each mask below 2^(8 width), in
    lexicographic order of the masks' index tuples.

    For one degree that order is the descending order of the masks with
    their bits reversed.  The little-endian bytes of a mask, each byte
    bit-reversed, spell that reversal big-endian over whole bytes, which
    shifts it but keeps the order."""
    return sorted(
        terms,
        key=lambda t: t[0].to_bytes(width, "little").translate(_BIT_REVERSED),
        reverse=True,
    )


def _rendered_terms(a: KForm, table) -> Iterator[tuple[Iterator, object]]:
    """(pieces, coefficient) per term of `a` in lexicographic order.  The
    pieces are `table(p)[b]` for each byte p of the mask whose value b is
    nonzero, so a table renders the indices 8p+1..8p+8 that b holds."""
    terms = a.mask_items()
    used = reduce(or_, (m for m, _ in terms), 0)
    width = (used.bit_length() + 7) // 8
    # tables only for the byte positions some mask uses, so that a sparse form
    # on a large R^n builds few; an unused position only ever looks up entry 0
    tables = [table(p) if b else ("",) for p, b in enumerate(used.to_bytes(width, "little"))]
    for m, c in _sorted_terms(terms, width):
        yield filter(None, map(getitem, tables, m.to_bytes(width, "little"))), c


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
    sorted lexicographically by index tuple: built by the C kernel for an
    integral form it takes, by `_json_dict` otherwise."""
    return kernel.form_json_dict(a.n, a.k, a.mask_items(), lambda: _json_dict(a))


def _json_dict(a: KForm) -> dict:
    """The pure dict writer."""
    terms = [{"idx": list(idx), "c": str(c)} for idx, c in a.terms()]
    return {"N": a.n, "k": a.k, "terms": terms}


def form_to_json_text(a: KForm) -> str:
    """The text of `json.dumps(form_to_json(a), indent=2) + "\\n"`, byte for
    byte, rendered straight from the masks: by the C kernel for an integral
    form it takes, by `_json_text` otherwise."""
    return kernel.form_json_text(a.n, a.k, a.mask_items(), lambda: _json_text(a))


def _json_text(a: KForm) -> str:
    """The pure writer.  It skips the intermediate dict and the pure-Python
    encoder that `indent` selects, which for the 234,364-term rank-10 form
    cost seconds and doubled the peak memory."""
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

    `_read_terms` owns this contract.  The C kernel reads only canonical
    integer documents on R^n, n <= its mask width, and declines the rest,
    which `_read_terms` then reads whole.
    """
    try:
        n, k, items = data["N"], data["k"], data["terms"]
    except (KeyError, TypeError):
        raise ValueError("form JSON needs N, k and terms") from None
    if type(n) is not int or type(k) is not int or n < 1 or k < 0:
        raise ValueError("N must be an int >= 1 and k an int >= 0")
    if type(items) is not list:
        raise ValueError("terms must be a list")
    terms = kernel.form_json_terms(n, k, items, lambda: _read_terms(n, k, items))
    return KForm._trusted(n, k, terms)


def _read_terms(n: int, k: int, items: list) -> dict[int, object]:
    """{mask: coeff} of the terms of a form document on R^n of degree k,
    validated as `form_from_json` says."""
    try:
        index_lists = [t["idx"] for t in items]
        coeffs = [t["c"] for t in items]
    except (KeyError, TypeError):
        raise ValueError('every term needs "idx" and "c"') from None
    bit = _bit_table(n, index_lists)
    terms: dict[int, object] = {}
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
        terms[mask] = v
    if len(terms) != len(items):
        raise ValueError("an idx occurs twice")
    if 0 in terms.values():
        terms = {m: v for m, v in terms.items() if v}
    return terms


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
