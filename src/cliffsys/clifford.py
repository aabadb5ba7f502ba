"""Construction, verification and classification of the Clifford systems
C_1 ... C_16, plus the conversion to and from representations by
anticommuting skew complex structures.

Each system is an (m+1)-tuple of pairwise anticommuting symmetric
involutions on R^N, N = 2 delta(m), built by one induction:

* for m <= 8, C_m is made from the right multiplications by the
  imaginary units u_1 .. u_{m-1} of R, C, H or O, whichever has dimension
  delta(m): P_0 = swap, P_a = antidiag(R_{u_a}), P_m = diag(Id, -Id);
* for m > 8, C_m is C_{m-1} doubled when delta(m) = 2 delta(m-1), and
  otherwise (m = 12, 14, 15, 16) C_{m-1} augmented by one more
  anticommuting block.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .algebras import OCTONION_LABELS, left_mult, right_mult
from .exactmat import (
    Record,
    SignedPermMatrix,
    antidiag,
    cross,
    diag_split,
    matrix_from_json,
    matrix_to_json,
    split,
    swap,
)

PLUS = "plus"
MINUS = "minus"
NOT_APPLICABLE = "n/a"

ESSENTIAL = "Essential"
NON_ESSENTIAL = "NonEssential"
UNDETERMINED = "Undetermined"

_CLASSICAL_DELTA = (1, 2, 4, 4, 8, 8, 8, 8)


def delta(m: int) -> int:
    """Dimension of the irreducible module: the classical values for
    m = 1..8, then the period-8 rule delta(m+8) = 16 delta(m)."""
    if type(m) is not int or m < 1:
        raise ValueError("m must be >= 1")
    periods, r = divmod(m - 1, 8)
    return 16**periods * _CLASSICAL_DELTA[r]


class CliffordSystem(Record):
    """m, ambient order, generators (P_0, ..., P_m), and the class tag.

    The tag is "plus" for the canonical construction, "minus" for the
    other equivalence class (m = 0 mod 4 only), "n/a" otherwise; the
    signed invariant itself is `class_trace`.
    """

    __slots__ = ("m", "n", "generators", "class_tag")

    def __init__(self, m: int, n: int, generators: tuple[SignedPermMatrix, ...], class_tag: str):
        if type(m) is not int or type(n) is not int:
            raise ValueError("m and n must be ints")
        if m < 1:
            raise ValueError("m must be >= 1")
        if len(generators) != m + 1:
            raise ValueError("need m+1 generators")
        if any(g.n != n for g in generators):
            raise ValueError("generators must share the ambient order")
        if class_tag not in (PLUS, MINUS, NOT_APPLICABLE):
            raise ValueError("bad class tag")
        super().__init__(m, n, generators, class_tag)


class CliffordRepresentation(Record):
    """Anticommuting skew complex structures E_1, ..., E_{m-1} on R^delta."""

    __slots__ = ("delta", "matrices")

    def __init__(self, delta: int, matrices: tuple[SignedPermMatrix, ...]):
        if any(e.n != delta for e in matrices):
            raise ValueError("matrices must act on R^delta")
        super().__init__(delta, matrices)

    def validate(self) -> None:
        ms = self.matrices
        for i, e in enumerate(ms):
            if not e.is_complex_structure():
                raise ValueError(f"E_{i + 1} is not a skew complex structure")
        for i in range(len(ms)):
            for j in range(i + 1, len(ms)):
                if not ms[i].anticommutes(ms[j]):
                    raise ValueError(f"E_{i + 1}, E_{j + 1} do not anticommute")


class VerifyReport(Record):
    """Outcome of `verify`.  A signed permutation is symmetric exactly when
    it is an involution, so one field holds both facts; the JSON report
    writes it as both "symmetric" and "involutions", which its readers
    have looked for from the start."""

    __slots__ = ("symmetric", "anticommuting", "irreducible_dimension", "first_failure")

    def all_ok(self) -> bool:
        return self.symmetric and self.anticommuting and self.irreducible_dimension

    def to_json(self) -> dict:
        return {
            "symmetric": self.symmetric,
            "involutions": self.symmetric,
            "anticommuting": self.anticommuting,
            "irreducibleDimension": self.irreducible_dimension,
            "firstFailure": self.first_failure,
        }


def _from_structures(n: int, js) -> tuple[SignedPermMatrix, ...]:
    """Generators on R^{2n} from skew structures J_a on R^n: the swap,
    antidiag(J_a) for each a, and diag(Id, -Id)."""
    return (swap(n),) + tuple(antidiag(j) for j in js) + (diag_split(n),)


def _double_generators(
    gens: tuple[SignedPermMatrix, ...]
) -> tuple[SignedPermMatrix, ...]:
    p0 = gens[0]
    return _from_structures(p0.n, (p0.mul(p) for p in gens[1:]))


def _augment(
    gens: tuple[SignedPermMatrix, ...], extras: tuple[SignedPermMatrix, ...]
) -> tuple[SignedPermMatrix, ...]:
    return gens[:-1] + tuple(antidiag(j) for j in extras) + gens[-1:]


def _classical_generators(m: int, mult) -> tuple[SignedPermMatrix, ...]:
    """C_m, m <= 8, from the multiplications `mult` of the algebra of dimension delta(m)."""
    d = delta(m)
    return _from_structures(d, (mult(u, d) for u in OCTONION_LABELS[1:m]))


@lru_cache(maxsize=None)
def _canonical_generators(m: int) -> tuple[SignedPermMatrix, ...]:
    if m <= 8:
        return _classical_generators(m, right_mult)
    previous = _canonical_generators(m - 1)
    if delta(m) == 2 * delta(m - 1):
        return _double_generators(previous)
    return _augment(previous, (_extra(m),))


def _extra(m: int) -> SignedPermMatrix:
    """The block that augments C_{m-1} to C_m, for m = 12, 14, 15, 16.

    On R^128 they are forced up to sign and order: a block anticommuting
    with all twelve compositions of the doubled system must vanish on the
    diagonal and carry an imaginary unit of the (quaternionic) commutant
    of those compositions in each off-diagonal slot.
    """
    if m in (12, 14):
        return right_mult("h", 8).kron(SignedPermMatrix.identity(delta(m) // 8))
    if m == 15:
        return cross(antidiag(split(swap(8))))
    if m == 16:
        inner = antidiag(swap(8))
        return cross(SignedPermMatrix.identity(2).kron(inner))
    raise ValueError(f"C_{m} is not an augmentation of C_{m - 1}")


def _canonical_system(m: int, gens: tuple[SignedPermMatrix, ...]) -> CliffordSystem:
    """The canonical class: tagged "plus" iff m = 0 mod 4, else "n/a"."""
    return CliffordSystem(m, gens[0].n, gens, PLUS if m % 4 == 0 else NOT_APPLICABLE)


def build(m: int, cls: str = PLUS) -> CliffordSystem:
    """Canonical Clifford system C_m on R^{2 delta(m)}, m = 1..16.

    cls selects the equivalence class when m = 0 mod 4: "plus" is the
    canonical construction, "minus" negates generator P_1, which flips the
    sign of the trace invariant.
    """
    if type(m) is not int or not 1 <= m <= 16:
        raise ValueError("m must be in 1..16")
    gens = _canonical_generators(m)
    if cls == PLUS:
        return _canonical_system(m, gens)
    if cls != MINUS:
        raise ValueError("cls must be 'plus' or 'minus'")
    if m % 4 != 0:
        raise ValueError("two classes exist only for m = 0 mod 4")
    flipped = (gens[0], -gens[1]) + gens[2:]
    return CliffordSystem(m, gens[0].n, flipped, MINUS)


def double(system: CliffordSystem) -> CliffordSystem:
    """C_{m+1} on R^{2N}: swap, antidiag(P_0 P_a) for a = 1..m, diag(Id, -Id)."""
    return _canonical_system(system.m + 1, _double_generators(system.generators))


def tilde(m: int) -> CliffordSystem:
    """Representative of the second equivalence class for m in {4, 8},
    built from left instead of right multiplications."""
    if type(m) is not int or m not in (4, 8):
        raise ValueError("tilde systems exist for m in {4, 8}")
    gens = _classical_generators(m, left_mult)
    return CliffordSystem(m, gens[0].n, gens, MINUS)


def verify(system: CliffordSystem) -> VerifyReport:
    """Check symmetry (for a signed permutation, the same as involutivity),
    pairwise anticommutation and N = 2 delta(m)."""
    gens = system.generators
    asymmetric = next((i for i, g in enumerate(gens) if not g.is_involution()), None)
    clash = next(((i, j) for (i, a), (j, b) in combinations(enumerate(gens), 2)
                  if not a.anticommutes(b)), None)
    irreducible = system.n == 2 * delta(system.m)
    if asymmetric is not None:
        failure = f"generator {asymmetric} is not symmetric"
    elif clash is not None:
        failure = "generators {}, {} do not anticommute".format(*clash)
    elif not irreducible:
        failure = f"N = {system.n} != 2 delta({system.m})"
    else:
        failure = None
    return VerifyReport(asymmetric is None, clash is None, irreducible, failure)


def class_trace(system: CliffordSystem) -> int:
    """tr(P_0 P_1 ... P_m); equals +-2 delta(m) when m = 0 mod 4, else 0."""
    prod = system.generators[0]
    for g in system.generators[1:]:
        prod = prod.mul(g)
    return prod.trace()


def to_representation(system: CliffordSystem) -> CliffordRepresentation:
    """Restrict the compositions P_a P_m to the +1-eigenspace of P_0.

    Requires P_0 in swap form, which all canonical builds guarantee; other
    systems are rejected rather than silently conjugated.  In the
    eigenbasis (e_a, e_a) the restrictions give m-1 anticommuting skew
    complex structures on R^delta, and the canonical builds round-trip
    exactly through from_representation.
    """
    half = system.n // 2
    if system.generators[0] != swap(half):
        raise ValueError("P_0 must be the standard swap; normalize first")
    p_last = system.generators[-1]
    matrices = []
    for p in system.generators[1:-1]:
        matrices.append(_restrict_to_diagonal(p.mul(p_last), half))
    rep = CliffordRepresentation(half, tuple(matrices))
    rep.validate()
    return rep


def _restrict_to_diagonal(mat: SignedPermMatrix, half: int) -> SignedPermMatrix:
    if not mat.commutes(swap(half)):
        raise ValueError("matrix does not preserve the eigenspace")
    perm = [0] * half
    signs = [0] * half
    for a in range(half):
        t, s = mat.apply(a)
        perm[a] = t - half if t >= half else t
        signs[a] = s
    return SignedPermMatrix(half, tuple(perm), tuple(signs))


def from_representation(rep: CliffordRepresentation) -> CliffordSystem:
    """Clifford system on R^{2 delta}: P_0(u,v) = (v,u),
    P_a(u,v) = (-E_a v, E_a u), P_m(u,v) = (u,-v)."""
    rep.validate()
    return _canonical_system(len(rep.matrices) + 1, _from_structures(rep.delta, rep.matrices))


def classify_essential(m: int) -> str:
    """Essentiality of irreducible rank-(m+1) even Clifford structures on
    R^{2 delta(m)}: periodic in m mod 8."""
    if type(m) is not int or m < 1:
        raise ValueError("m must be >= 1")
    r = m % 8
    if r in (3, 5, 6, 7):
        return ESSENTIAL
    if r in (0, 4):
        return NON_ESSENTIAL
    return UNDETERMINED


def system_to_json(system: CliffordSystem) -> dict:
    return {
        "m": system.m,
        "n": system.n,
        "class": system.class_tag,
        "classTrace": class_trace(system),
        "generators": [matrix_to_json(g) for g in system.generators],
    }


def system_from_json(data: dict) -> CliffordSystem:
    """Inverse of `system_to_json`; raises ValueError unless `data` is a dict
    with int "m" and "n" (not bools), a list of matrices "generators" that
    `matrix_from_json` accepts, and an optional class tag."""
    try:
        m, n, generators = data["m"], data["n"], data["generators"]
    except (KeyError, TypeError):
        raise ValueError('system JSON needs "m", "n" and "generators"') from None
    if type(generators) is not list:
        raise ValueError("system JSON generators must be a list")
    gens = tuple(matrix_from_json(g) for g in generators)
    return CliffordSystem(m, n, gens, data.get("class", NOT_APPLICABLE))
