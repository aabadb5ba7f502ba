"""Output checkers for the benchmark, computed apart from cliffsys.

Nothing here imports the package under test.  Every check re-derives its
expectation from the wire format alone: signed permutation matrices are
multiplied entry by entry, exterior products are expanded over index
tuples, and tau_k coefficients are recomputed by permutation expansion of
the principal minors.  Each checker raises CheckError on the first
disagreement.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from fractions import Fraction
from itertools import combinations, permutations

# delta(m), the dimension of the irreducible module, from the paper's table.
DELTA = {
    1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 6: 8, 7: 8, 8: 8,
    9: 16, 10: 32, 11: 64, 12: 64, 13: 128, 14: 128, 15: 128, 16: 128,
}

_COEFF = re.compile(r"-?[0-9]+(/[0-9]+)?")


class CheckError(Exception):
    pass


def require(cond, message: str) -> None:
    if not cond:
        raise CheckError(message)


# -- signed permutation matrices ----------------------------------------------
#
# A matrix is a pair (perm, signs), 0-based: column a has its single
# nonzero, signs[a], in row perm[a].


def signed_perm(data: dict, n: int | None = None) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Parse {"n": N, "entries": [[row, col, +-1], ...]} (1-based)."""
    size = data["n"]
    require(isinstance(size, int) and size > 0, "matrix order must be a positive integer")
    require(n is None or size == n, f"matrix order {size} != {n}")
    entries = data["entries"]
    require(len(entries) == size, f"{len(entries)} entries for order {size}")
    perm = [None] * size
    signs = [0] * size
    for entry in entries:
        require(len(entry) == 3, "entry is not [row, col, value]")
        row, col, value = entry
        require(all(isinstance(v, int) for v in entry), "entry values must be integers")
        require(1 <= row <= size and 1 <= col <= size, f"entry {entry} outside 1..{size}")
        require(value in (1, -1), f"entry {entry} is not +-1")
        require(perm[col - 1] is None, f"column {col} has two entries")
        perm[col - 1] = row - 1
        signs[col - 1] = value
    require(sorted(perm) == list(range(size)), "rows do not form a permutation")
    return tuple(perm), tuple(signs)


def mul(a, b):
    """Product a @ b: e_c -> b moves it to e_{pb[c]}, then a moves that."""
    pa, sa = a
    pb, sb = b
    return (
        tuple(pa[pb[c]] for c in range(len(pb))),
        tuple(sb[c] * sa[pb[c]] for c in range(len(pb))),
    )


def neg(a):
    return a[0], tuple(-s for s in a[1])


def transpose(a):
    p, s = a
    perm = [0] * len(p)
    signs = [0] * len(p)
    for c, r in enumerate(p):
        perm[r] = c
        signs[r] = s[c]
    return tuple(perm), tuple(signs)


def identity(n: int):
    return tuple(range(n)), (1,) * n


def trace(a) -> int:
    p, s = a
    return sum(s[c] for c in range(len(p)) if p[c] == c)


def anticommute(a, b) -> bool:
    return mul(a, b) == neg(mul(b, a))


def check_clifford_system(data: dict, m: int) -> list:
    """gen --m output: m+1 pairwise anticommuting symmetric involutions on
    R^{2 delta(m)}.  Returns the generators."""
    n = 2 * DELTA[m]
    require(data["m"] == m, f"m = {data['m']} != {m}")
    require(data["n"] == n, f"N = {data['n']} != 2 delta({m}) = {n}")
    gens = [signed_perm(g, n) for g in data["generators"]]
    require(len(gens) == m + 1, f"{len(gens)} generators, want {m + 1}")
    one = identity(n)
    for i, g in enumerate(gens):
        require(transpose(g) == g, f"P_{i} is not symmetric")
        require(mul(g, g) == one, f"P_{i} is not an involution")
    for i, j in combinations(range(len(gens)), 2):
        require(anticommute(gens[i], gens[j]), f"P_{i}, P_{j} do not anticommute")
    return gens


def check_complex_structures(mats: list, n: int, count: int, what: str) -> None:
    """`count` skew, pairwise anticommuting J with J^2 = -1 on R^n."""
    require(len(mats) == count, f"{what}: {len(mats)} matrices, want {count}")
    minus_one = neg(identity(n))
    for i, j in enumerate(mats):
        require(transpose(j) == neg(j), f"{what}: J_{i + 1} is not skew")
        require(mul(j, j) == minus_one, f"{what}: J_{i + 1}^2 != -1")
    for a, b in combinations(range(count), 2):
        require(anticommute(mats[a], mats[b]), f"{what}: J_{a + 1}, J_{b + 1} do not anticommute")


def check_verify_report(report: dict) -> None:
    for key in ("symmetric", "involutions", "anticommuting", "irreducibleDimension"):
        require(report.get(key) is True, f"verify report: {key} is not true")
    require(report.get("firstFailure") is None, "verify report names a failure")


# -- exterior forms -------------------------------------------------------------


def parse_form(data: dict, n: int, k: int) -> dict[tuple[int, ...], int | Fraction]:
    """Terms of a form in the wire format, which must be sorted by index
    tuple, with strictly increasing indices in 1..n and nonzero
    coefficients in lowest terms (ints when integral)."""
    require(data.get("N") == n and data.get("k") == k, f"form is not a {k}-form on R^{n}")
    terms: dict = {}
    prev = ()
    valid = set(range(1, n + 1))
    for term in data["terms"]:
        idx = tuple(term["idx"])
        text = term["c"]
        if not (
            len(idx) == k
            and valid.issuperset(idx)
            and prev < idx
            and list(idx) == sorted(set(idx))
            and isinstance(text, str)
            and _COEFF.fullmatch(text)
        ):
            require(len(idx) == k and valid.issuperset(idx), f"term {idx} is not {k} indices in 1..{n}")
            require(list(idx) == sorted(set(idx)), f"term {idx} not strictly increasing")
            require(prev < idx, f"terms not sorted at {idx}")
            raise CheckError(f"coefficient {text!r} at {idx} malformed")
        prev = idx
        c = int(text) if "/" not in text else Fraction(text)
        require(c != 0 and str(c) == text, f"coefficient {text!r} is zero or not in lowest terms")
        terms[idx] = c
    return terms


def check_integral_gcd1(terms: dict) -> None:
    require(all(type(c) is int for c in terms.values()), "non-integer coefficient")
    g = 0
    for c in terms.values():
        g = math.gcd(g, c)
    require(g == 1, f"coefficient gcd {g} != 1")


def _sorted_sign(seq) -> int:
    """Sign of the permutation sorting `seq` (distinct entries)."""
    inversions = sum(1 for a, b in combinations(seq, 2) if a > b)
    return -1 if inversions % 2 else 1


def naive_action(x, terms: dict) -> dict:
    """Derivation action of the matrix x on a form, from the definition
    (rho(X) a)(v_1..v_k) = -sum_t a(v_1, .., X v_t, .., v_k): the covector
    e^i goes to -sum_j X_ij e^j.  x is a 0-based signed permutation, so
    X_ij is nonzero only for i = perm[j].  Putting e^j back in place from
    slot t to its sorted slot s costs the sign (-1)^(t - s)."""
    perm, signs = x
    row = {perm[j] + 1: (j + 1, signs[j]) for j in range(len(perm))}  # i -> (j, X_ij)
    out: dict = {}
    for idx, c in terms.items():
        for t, i in enumerate(idx):
            j, v = row[i]
            rest = idx[:t] + idx[t + 1:]
            if j in rest:
                continue
            s = bisect_left(rest, j)
            key = rest[:s] + (j,) + rest[s:]
            v = -v * c if (t - s) % 2 == 0 else v * c
            out[key] = out.get(key, 0) + v
    return {k: v for k, v in out.items() if v}


def kaehler_matching(form: dict, n: int) -> None:
    """A Kaehler form of a signed-permutation complex structure pairs up
    all n indices with unit coefficients."""
    require(all(abs(c) == 1 for c in form.values()), "Kaehler form with non-unit coefficient")
    seen = [i for pair in form for i in pair]
    require(sorted(seen) == list(range(1, n + 1)), "Kaehler form is not a perfect matching")


def parse_form_matrix(data: dict, size: int, n: int) -> dict[tuple[int, int], dict]:
    """evencliff --emit psiD output: upper entries (0-based row < col) of a
    skew matrix of Kaehler 2-forms."""
    require(data["size"] == size and data["N"] == n, "psi matrix has the wrong shape")
    upper = {}
    for entry in data["entries"]:
        i, j = entry["row"], entry["col"]
        require(0 <= i < j < size, f"psi entry ({i}, {j}) outside the upper triangle")
        form = parse_form(entry["form"], n, 2)
        kaehler_matching(form, n)
        upper[(i, j)] = form
    require(len(upper) == size * (size - 1) // 2, f"psi matrix has {len(upper)} upper entries")
    return upper


def tau_coefficient(upper: dict, size: int, k: int, monomial: tuple[int, ...]) -> Fraction:
    """Coefficient of e^monomial in tau_k(psi), the sum of the k x k
    principal minors, each expanded over all permutations, with every entry
    restricted to the 2k indices of the monomial."""
    inside = set(monomial)
    restricted = {}
    for (i, j), form in upper.items():
        part = {pair: c for pair, c in form.items() if inside.issuperset(pair)}
        if part:
            restricted[(i, j)] = part
            restricted[(j, i)] = {pair: -c for pair, c in part.items()}
    total = Fraction(0)
    for rows in combinations(range(size), k):
        for image in permutations(rows):
            factors = [restricted.get((r, s)) for r, s in zip(rows, image)]
            if any(f is None for f in factors):
                continue
            sign = _sorted_sign([rows.index(s) for s in image])
            total += sign * _product_coefficient(factors, monomial)
    return total


def _product_coefficient(factors: list, monomial: tuple[int, ...]) -> Fraction:
    """Coefficient of e^monomial in the wedge product of 2-forms."""
    total = Fraction(0)

    def extend(t, used, seq, coeff):
        nonlocal total
        if t == len(factors):
            if len(used) == len(monomial):
                total += coeff * _sorted_sign(seq)
            return
        for (a, b), c in factors[t].items():
            if a not in used and b not in used:
                extend(t + 1, used | {a, b}, seq + [a, b], coeff * c)

    extend(0, frozenset(), [], Fraction(1))
    return total


def sample_monomials(terms: dict, n: int, rng, count: int) -> list[tuple]:
    """`count` monomials of the form and `count` absent neighbours, each a
    present monomial with one index swapped for another."""
    present = rng.sample(list(terms), count)
    absent: list[tuple] = []
    while len(absent) < count:
        mono = rng.choice(present)
        new = rng.choice([i for i in range(1, n + 1) if i not in mono])
        cand = tuple(sorted(set(mono) - {rng.choice(mono)} | {new}))
        if cand not in terms and cand not in absent:
            absent.append(cand)
    return present + absent


def check_tau_form(data: dict, upper: dict, size: int, k: int, n: int, count: int,
                   rng, samples: int) -> dict:
    """tau_k(psi) as emitted: `count` integral terms, and the coefficients
    of `samples` present and `samples` absent monomials, drawn with `rng`,
    equal to their permutation expansion."""
    terms = parse_form(data, n, 2 * k)
    require(len(terms) == count, f"tau_{k} has {len(terms)} terms, want {count}")
    require(all(type(c) is int for c in terms.values()), f"tau_{k} has a non-integer coefficient")
    for mono in sample_monomials(terms, n, rng, samples):
        want = tau_coefficient(upper, size, k, mono)
        got = terms.get(mono, 0)
        require(got == want, f"coefficient of {mono}: {got}, permutation expansion {want}")
    return terms


def check_actions(result: dict, terms: dict, extra, invariant: int) -> None:
    """Read-back report: the form's size, `invariant` zero actions, and the
    extra action equal to the naive one and nonzero."""
    require(result["terms"] == len(terms), f"read back {result['terms']} terms, want {len(terms)}")
    require(len(result["invariant"]) == invariant, f"{len(result['invariant'])} invariance actions, want {invariant}")
    require(all(t == 0 for t in result["invariant"]), f"invariance actions not zero: {result['invariant']}")
    got = parse_form(result["extra"], len(extra[0]), len(next(iter(terms))))
    require(got, "the non-invariant action is zero")
    require(got == naive_action(extra, terms), "the non-invariant action differs from the naive derivation action")


def check_invariant_form(data: dict, n: int, k: int, count: int, gens: list) -> dict:
    """A canonical form: `count` integral monomials with gcd 1, annihilated
    by every composition P_a P_b (a < b) of `gens` under the naive action."""
    terms = parse_form(data, n, k)
    require(len(terms) == count, f"{len(terms)} monomials, want {count}")
    check_integral_gcd1(terms)
    for a, b in combinations(range(len(gens)), 2):
        require(not naive_action(mul(gens[a], gens[b]), terms), f"not annihilated by P_{a} P_{b}")
    return terms


# -- Lie algebra data -------------------------------------------------------------


def commutant_by_characters(gens: list) -> int:
    """dim of the commutant in so(N) of the group G generated by `gens`:
    so(N) = Lambda^2 R^N as a G-module, so the commutant has dimension
    (1/|G|) sum_g (chi(g)^2 - chi(g^2)) / 2.  The generators are pairwise
    anticommuting involutions, so every word in them reduces to a signed
    ordered subset product and G = {+-P_S}."""
    products = [identity(len(gens[0][0]))]
    for g in gens:
        products += [mul(p, g) for p in products]
    group = set(products) | {neg(p) for p in products}
    total = sum(trace(g) ** 2 - trace(mul(g, g)) for g in group)
    require(total % (2 * len(group)) == 0, "character sum is not divisible by 2|G|")
    return total // (2 * len(group))


def check_liealg_report(report: dict, m: int, commutant: int) -> None:
    span = m * (m + 1) // 2
    require(report.get("spanDim") == span, f"C{m} span dim {report.get('spanDim')} != {span}")
    require(report.get("bracketClosed") is True, f"C{m} span not bracket-closed")
    require(report.get("commutantDim") == commutant,
            f"C{m} commutant dim {report.get('commutantDim')} != {commutant}")
    require(report.get("normalizerDim") == commutant + span,
            f"C{m} normalizer dim {report.get('normalizerDim')} != {commutant + span}")


def check_decomposition(report: dict) -> None:
    want = {"pairSpan": 36, "tripleSpan": 84, "orthogonal": True, "totalRank": 120}
    require(report.get("decomposition") == want, f"decomposition {report.get('decomposition')} != {want}")


# -- small reports ------------------------------------------------------------------


def check_selftest(text: str) -> None:
    """Every line PASS, except the strict expected failure of criterion 3d."""
    lines = [line for line in text.splitlines() if line.strip()]
    require(lines, "selftest printed nothing")
    xfail = [line for line in lines if line.startswith("XFAIL")]
    require(len(xfail) == 1 and "criterion 3d" in xfail[0], "criterion 3d is not the single XFAIL")
    for line in lines:
        require(line.startswith(("PASS ", "XFAIL ")), f"selftest line not passing: {line!r}")


def hurwitz_radon_sigma(n: int) -> int:
    """sigma(N) = 2^p + 8q - 1 for N = odd * 2^(p + 4q), 0 <= p <= 3."""
    v = (n & -n).bit_length() - 1
    return 2 ** (v % 4) + 8 * (v // 4) - 1


def check_sphere_fields(report: dict, n: int) -> None:
    sigma = hurwitz_radon_sigma(n)
    require(report["n"] == n, f"sphere fields for N = {report['n']}")
    require(report["sigma"] == sigma, f"sigma({n}) = {report['sigma']} != {sigma}")
    fields = [signed_perm(f, n) for f in report["fields"]]
    check_complex_structures(fields, n, sigma, f"fields on S^{n - 1}")
    ver = report["verification"]
    require(ver["algebraic"] is True and ver["pointwise"] is True, "pointwise verification failed")
    require(ver["points"] > 0, "no verification points")


def check_octonion_table(text: str) -> None:
    """The 8 x 8 grid of unit products: a signed Latin square with unit 1,
    e_a^2 = -1 and e_a e_b = -e_b e_a, and alternative: (xx)y = x(xy)."""
    rows = [line for line in text.splitlines() if "|" in line]
    labels = rows[0].split("|")[1].split()
    require(len(labels) == 8 and labels[0] == "1", "octonion table header malformed")
    table = {}
    for line in rows[1:]:
        head, body = line.split("|")
        cells = body.split()
        require(len(cells) == 8, "octonion table row has the wrong width")
        table[head.strip()] = [(-1 if c.startswith("-") else 1, c.lstrip("-")) for c in cells]
    require(sorted(table) == sorted(labels), "octonion table rows do not match the header")

    def prod(a, b):
        return table[a][labels.index(b)]

    for a in labels:
        require(sorted(u for _, u in table[a]) == sorted(labels), f"row {a} is not a signed permutation")
        require(prod("1", a) == (1, a) and prod(a, "1") == (1, a), f"1 is not a unit for {a}")
        if a != "1":
            require(prod(a, a) == (-1, "1"), f"{a}^2 != -1")
    for a, b in permutations(labels[1:], 2):
        sa, ua = prod(a, b)
        sb, ub = prod(b, a)
        require(ua == ub and sa == -sb, f"{a}{b} != -{b}{a}")
        sy, uy = prod(a, ua)  # a(ab) = (aa)b = -b
        require((sa * sy, uy) == (-1, b), f"alternativity fails for ({a}, {b})")
