"""Hurwitz-Radon maximal orthonormal tangent vector fields on spheres.

sigma(N) = 2^p + 8q - 1 for N = (2k+1) 2^p 16^q with 0 <= p <= 3; the
fields on S^{N-1} are x -> J x for sigma anticommuting skew complex
structures J, delivered as matrices Id_{2k+1} (x) E_a, where the E_a are
the representation attached to the Clifford system C_{sigma(N)+1}.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from operator import mul
from typing import NamedTuple, Sequence

from .clifford import CliffordRepresentation, build, to_representation
from .exactmat import Record, SignedPermMatrix


class HurwitzRadon(NamedTuple):
    sigma: int
    p: int
    q: int
    k: int


def hurwitz_radon(n: int) -> HurwitzRadon:
    """Factor n = (2k+1) 2^p 16^q (0 <= p <= 3) and report sigma = 2^p+8q-1.

    Odd n degenerates to sigma = 0; it is reported, not an error.
    """
    if type(n) is not int or n < 1:
        raise ValueError("n must be >= 1")
    v = 0
    odd = n
    while odd % 2 == 0:
        odd //= 2
        v += 1
    p, q = v % 4, v // 4
    return HurwitzRadon(2**p + 8 * q - 1, p, q, (odd - 1) // 2)


class VectorFieldSystem(Record):
    """The sigma skew complex structures J on R^n whose fields x -> J x
    are tangent to S^{n-1}."""

    __slots__ = ("n", "sigma", "structures")

    def validate(self) -> None:
        js = self.structures
        if len(js) != self.sigma:
            raise ValueError("field count mismatch")
        CliffordRepresentation(self.n, js).validate()


def max_vector_fields(n: int) -> VectorFieldSystem:
    """sigma(n) orthonormal tangent fields on S^{n-1}, as matrices."""
    if n < 2 or n % 2 == 1:
        raise ValueError("need even n >= 2")
    sigma, p, q, k = hurwitz_radon(n)
    n0 = 2**p * 16**q
    try:
        system = build(sigma + 1)
    except ValueError as exc:
        raise ValueError(f"power-of-two part {n0} needs C_{sigma + 1}: {exc}") from None
    rep = to_representation(system)
    if rep.delta != n0:
        raise AssertionError("delta(sigma+1) != n0; table alignment broken")
    copies = SignedPermMatrix.identity(2 * k + 1)
    structures = tuple(copies.kron(e) for e in rep.matrices)
    return VectorFieldSystem(n, sigma, structures)


def verify_pointwise(system: VectorFieldSystem, points: Sequence[Sequence]) -> bool:
    """Exact check that {J_a x} is orthonormal and tangent at each unit x.

    Each x is scaled by the lcm d of its denominators to the integer vector
    v = d x, so every test runs on ints: |v|^2 = d^2, <J_a v, v> = 0 and
    <J_a v, J_b v> = d^2 delta_ab.
    """
    for x in points:
        x = [Fraction(c) for c in x]
        if len(x) != system.n:
            raise ValueError("point dimension mismatch")
        d = lcm(*(c.denominator for c in x))
        v = [c.numerator * (d // c.denominator) for c in x]
        d2 = d * d
        if _dot(v, v) != d2:
            raise ValueError("point is not a unit vector")
        images = [j.apply_vector(v) for j in system.structures]
        for a, ja in enumerate(images):
            if _dot(ja, v) != 0:
                return False
            for b in range(a, len(images)):
                expected = d2 if a == b else 0
                if _dot(ja, images[b]) != expected:
                    return False
    return True


def _dot(u, v):
    return sum(map(mul, u, v))


def random_unit_points(n: int, count: int, seed: int = 0) -> list[tuple[Fraction, ...]]:
    """Exact rational points on S^{n-1} via inverse stereographic projection.

    t in Q^{n-1} is drawn as a / q, an integer vector a over a common
    denominator q; with s = |a|^2 the point is (2q a, q^2 - s) / (q^2 + s).
    """
    rng = random.Random(seed)
    points = []
    for _ in range(count):
        t = [
            (rng.randint(-9, 9), rng.randint(1, 9)) if rng.random() < 0.4 else (0, 1)
            for _ in range(n - 1)
        ]
        q = lcm(*(den for _, den in t))
        a = [num * (q // den) for num, den in t]
        q2, s = q * q, _dot(a, a)
        denom = q2 + s
        points.append(tuple([Fraction(2 * q * c, denom) for c in a] + [Fraction(q2 - s, denom)]))
    return points
