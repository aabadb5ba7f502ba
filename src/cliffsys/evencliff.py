"""Rank-10 even Clifford structure on R^32: the generator family
<I> + <S_0..S_8>, its 10x10 matrix of Kaehler 2-forms, and the
invariant 8-form given by the fourth characteristic coefficient.

R^32 = R^2 (x) R^16 is split as real plus imaginary copies of R^16: the
standard complex structure is I = J (x) Id and each involution is
Id (x) S_alpha, so I commutes with every S_alpha and all pairwise
products are skew.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .clifford import ESSENTIAL, build, classify_essential
from .exactmat import Record, SignedPermMatrix, antidiag, pairwise_products

if TYPE_CHECKING:  # forms is imported where it is used, so classify() runs without it
    from .forms import FormMatrix, KForm


class EvenCliffordStructure(Record):
    """rank-r generator family split into skew (complex) and symmetric parts."""

    __slots__ = ("rank", "n", "complex_generators", "symmetric_generators")

    def generators(self) -> tuple[SignedPermMatrix, ...]:
        return self.complex_generators + self.symmetric_generators

    def pairwise_products(self) -> list[SignedPermMatrix]:
        """Products g_i g_j for i < j over the ordered generator list."""
        return pairwise_products(self.generators())

    def validate(self) -> None:
        gens = self.generators()
        if len(gens) != self.rank:
            raise ValueError(f"rank {self.rank} != {len(gens)} generators")
        if any(g.n != self.n for g in gens):
            raise ValueError(f"generators must act on R^{self.n}")
        for i, c in enumerate(self.complex_generators):
            if not c.is_complex_structure():
                raise ValueError(f"complex generator {i} invalid")
        for i, s in enumerate(self.symmetric_generators):
            if not s.is_involution():
                raise ValueError(f"symmetric generator {i} invalid")
        for c in self.complex_generators:
            for s in self.symmetric_generators:
                if not c.commutes(s):
                    raise ValueError("complex part must commute with involutions")
        syms = self.symmetric_generators
        for i in range(len(syms)):
            for j in range(i + 1, len(syms)):
                if not syms[i].anticommutes(syms[j]):
                    raise ValueError(f"involutions {i}, {j} do not anticommute")
        for p in self.pairwise_products():
            if not p.is_complex_structure():
                raise ValueError("a pairwise product is not skew")


def build_e10() -> EvenCliffordStructure:
    """The rank-10 structure on R^32 = C^16."""
    gens16 = build(8).generators
    cplx = antidiag(SignedPermMatrix.identity(16))
    sym = tuple(SignedPermMatrix.identity(2).kron(s) for s in gens16)
    return EvenCliffordStructure(10, 32, (cplx,), sym)


def psi_d() -> FormMatrix:
    """10x10 skew matrix of Kaehler forms on R^32, rows (I, S_0, ..., S_8)."""
    from .forms import kaehler_matrix

    return kaehler_matrix(build_e10().generators())


def tau4_psi_d(jobs: int = 1) -> KForm:
    """The degree-8 invariant: sum of the 210 principal 4x4 minors of psi^D."""
    from .forms import tau

    return tau(psi_d(), 4, jobs=jobs)


def involution_span_obstruction() -> bool:
    """True iff NO 10 pairwise-anticommuting symmetric involutions exist
    among the signed generators and signed pairwise products.

    The symmetric involutions in that candidate set are exactly the
    +-S_alpha (eighteen candidates), so a family of ten cannot exist;
    the search is still run exhaustively.
    """
    e10 = build_e10()
    candidates = []
    for m in list(e10.generators()) + e10.pairwise_products():
        for signed in (m, -m):
            if signed.is_involution():
                candidates.append(signed)
    best = _max_anticommuting(candidates)
    return best < 10


def _max_anticommuting(mats: list[SignedPermMatrix]) -> int:
    n = len(mats)
    compat = [
        {j for j in range(n) if j != i and mats[i].anticommutes(mats[j])}
        for i in range(n)
    ]
    best = 0

    def extend(chosen: int, allowed: set[int]) -> None:
        nonlocal best
        best = max(best, chosen)
        if chosen + len(allowed) <= best:
            return
        for i in sorted(allowed):
            extend(chosen + 1, {j for j in allowed if j > i} & compat[i])

    extend(0, set(range(n)))
    return best


class EvenCliffordRecord(Record):
    __slots__ = ("rank", "verdict", "note")


_PARALLEL_RANKS = {
    10: "rank-10 parallel structure on the 32-dimensional model: not spanned "
    "by anticommuting symmetric involutions (holonomy obstruction); the "
    "flat-model surrogate check is involution_span_obstruction()",
    12: "rank-12 parallel structure on the 64-dimensional model: essential; "
    "no flat-model generator matrices are represented",
    16: "rank-16 parallel structure on the 128-dimensional model: essential; "
    "no flat-model generator matrices are represented",
}


def classify(rank: int) -> EvenCliffordRecord:
    """Essentiality verdict for an even Clifford structure of this rank.

    Ranks 10, 12, 16 are the recorded parallel structures (all essential);
    any other rank falls back to the periodic rank-(m+1)-on-R^{2 delta(m)}
    rule."""
    if rank in _PARALLEL_RANKS:
        return EvenCliffordRecord(rank, ESSENTIAL, _PARALLEL_RANKS[rank])
    if rank < 2:
        raise ValueError("rank must be >= 2")
    verdict = classify_essential(rank - 1)
    return EvenCliffordRecord(
        rank, verdict, f"periodic rule for irreducible rank-{rank} structures"
    )
