import random

import pytest

from cliffsys.clifford import (
    ESSENTIAL,
    NON_ESSENTIAL,
    UNDETERMINED,
    CliffordRepresentation,
    CliffordSystem,
    build,
    class_trace,
    classify_essential,
    delta,
    double,
    from_representation,
    tilde,
    to_representation,
    verify,
    _extra,
)
from cliffsys.algebras import left_mult, right_mult
from cliffsys.exactmat import (
    SignedPermMatrix,
    antidiag,
    diag_split,
    pairwise_products,
    swap,
)

from oracles import block_diag, dense_symmetry


DELTA_ROW = {1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 6: 8, 7: 8, 8: 8,
             9: 16, 10: 32, 11: 64, 12: 64, 13: 128, 14: 128, 15: 128, 16: 128}


def test_delta_table_and_periodicity():
    for m, want in DELTA_ROW.items():
        assert delta(m) == want
    assert delta(9) == 16
    assert delta(20) == 16 * delta(12) == 1024
    assert delta(17) == 16 * delta(9)
    for m in range(1, 41):
        assert delta(m + 8) == 16 * delta(m)
    with pytest.raises(ValueError):
        delta(0)


@pytest.mark.parametrize("m", [1, 4, 8, 9, 11, 13, 17, 20])
def test_extra_block_only_for_the_augmenting_steps(m):
    with pytest.raises(ValueError, match="not an augmentation"):
        _extra(m)


def test_build_pauli_real_form():
    n01 = SignedPermMatrix.from_dense([[0, -1], [1, 0]])
    expected = (swap(2), antidiag(n01), diag_split(2))
    assert build(2).generators == expected


def test_build_c4_extra_generator_is_quaternionic_k():
    assert build(4).generators[3] == antidiag(right_mult("k", 4))


def test_build_c12_extra_generator_is_block_extension():
    extra = right_mult("h", 8).kron(SignedPermMatrix.identity(8))
    assert build(12).generators[11] == antidiag(extra)


def test_all_canonical_builds_verify():
    for m in range(1, 17):
        system = build(m)
        report = verify(system)
        assert report.all_ok(), (m, report.first_failure)
        assert system.n == 2 * delta(m)


def test_doubling_chain_matches_canonical_builds():
    assert double(build(1)).generators == build(2).generators
    assert double(build(2)).generators == build(3).generators
    assert double(build(8)).generators == build(9).generators


def test_double_of_every_build_satisfies_relations():
    for m in range(1, 16):
        doubled = double(build(m))
        report = verify(doubled)
        assert report.symmetric and report.involutions and report.anticommuting
        expected_irreducible = delta(m + 1) == 2 * delta(m)
        assert report.irreducible_dimension == expected_irreducible, m


def test_tilde_generators_and_verify():
    t4 = tilde(4)
    assert t4.generators[1] == antidiag(left_mult("i", 4))
    assert verify(t4).all_ok()
    assert verify(tilde(8)).all_ok()


def test_tilde_flips_trace_class():
    for m in (4, 8):
        assert class_trace(tilde(m)) == -class_trace(build(m)) != 0
    with pytest.raises(ValueError):
        tilde(12)


def test_class_traces():
    for m in range(1, 17):
        tr = class_trace(build(m))
        if m % 4 == 0:
            assert abs(tr) == 2 * delta(m)
        else:
            assert tr == 0


def test_minus_class_flips_trace_and_verifies():
    for m in (4, 8, 12, 16):
        minus = build(m, "minus")
        assert verify(minus).all_ok()
        assert class_trace(minus) == -class_trace(build(m))
    with pytest.raises(ValueError):
        build(5, "minus")
    with pytest.raises(ValueError):
        build(4, "down")


def test_negating_any_generator_flips_trace():
    rng = random.Random(1)
    for m in (4, 8, 12):
        system = build(m)
        idx = rng.randrange(m + 1)
        gens = list(system.generators)
        gens[idx] = -gens[idx]
        flipped = CliffordSystem(m, system.n, tuple(gens), system.class_tag)
        assert verify(flipped).all_ok()
        assert class_trace(flipped) == -class_trace(system)


def test_verify_detects_repeated_generator():
    c4 = build(4)
    gens = list(c4.generators)
    gens[1] = gens[2]
    broken = CliffordSystem(4, 8, tuple(gens), "plus")
    report = verify(broken)
    assert not report.anticommuting
    assert report.first_failure is not None


def test_verify_flags_reducible_dimension():
    c2 = build(2)
    gens = tuple(block_diag([g, g]) for g in c2.generators)
    reducible = CliffordSystem(2, 8, gens, "n/a")
    report = verify(reducible)
    assert report.symmetric and report.involutions and report.anticommuting
    assert not report.irreducible_dimension


def test_verify_stops_at_the_first_clash(monkeypatch):
    # 9,001 copies of the swap: all symmetric, and the first pair already
    # commutes, so verify tests one pair, not 40 million
    calls = []
    anticommutes = SignedPermMatrix.anticommutes
    monkeypatch.setattr(SignedPermMatrix, "anticommutes",
                        lambda a, b: calls.append(1) or anticommutes(a, b))
    report = verify(CliffordSystem(9000, 2, (swap(1),) * 9001, "n/a"))
    assert report.symmetric and report.involutions and not report.anticommuting
    assert report.first_failure == "generators 0, 1 do not anticommute"
    assert len(calls) == 1


def test_compositions_are_skew_complex_structures():
    for m in (4, 8):
        for comp in pairwise_products(build(m).generators):
            assert dense_symmetry(comp.dense()) == -1 and comp.is_complex_structure()


def test_triple_compositions_are_skew_complex_structures():
    gens = build(8).generators
    for a in range(9):
        for b in range(a + 1, 9):
            for c in range(b + 1, 9):
                triple = gens[a].mul(gens[b]).mul(gens[c])
                assert dense_symmetry(triple.dense()) == -1
                assert triple.is_complex_structure()


def test_to_representation_of_pauli_system():
    rep = to_representation(build(2))
    assert len(rep.matrices) == 1
    assert rep.matrices[0] == SignedPermMatrix.from_dense([[0, -1], [1, 0]])


def test_to_representation_counts_and_relations():
    for m in range(2, 10):
        rep = to_representation(build(m))
        assert len(rep.matrices) == m - 1
        assert rep.delta == delta(m)
        rep.validate()


def test_round_trip_is_identity_on_canonical_builds():
    for m in range(2, 10):
        system = build(m)
        assert from_representation(to_representation(system)).generators == system.generators


def test_to_representation_rejects_non_swap_p0():
    c4 = build(4)
    gens = (c4.generators[1],) + (c4.generators[0],) + c4.generators[2:]
    shuffled = CliffordSystem(4, 8, gens, "plus")
    with pytest.raises(ValueError):
        to_representation(shuffled)


def test_from_representation_empty_is_smallest_system():
    rep = CliffordRepresentation(1, ())
    system = from_representation(rep)
    assert system.m == 1
    assert system.generators == build(1).generators


def test_from_representation_single_complex_structure():
    n01 = SignedPermMatrix.from_dense([[0, -1], [1, 0]])
    system = from_representation(CliffordRepresentation(2, (n01,)))
    assert system.m == 2
    assert verify(system).all_ok()


def test_from_representation_rejects_bad_input():
    bad = CliffordRepresentation(2, (SignedPermMatrix.identity(2),))
    with pytest.raises(ValueError):
        from_representation(bad)


def test_classify_essential_pattern():
    assert classify_essential(3) == ESSENTIAL
    assert classify_essential(8) == NON_ESSENTIAL
    assert classify_essential(9) == UNDETERMINED
    assert classify_essential(7) == ESSENTIAL
    with pytest.raises(ValueError):
        classify_essential(0)


def test_composition_span_is_bracket_closed_spin_image():
    from cliffsys.liealg import MatrixSpan

    for m in range(2, 10):
        span = MatrixSpan(pairwise_products(build(m).generators))
        assert span.rank == m * (m + 1) // 2
        assert span.bracket_closed()


def test_system_json_round_trip():
    """Every system the package builds survives its wire format as text."""
    import json

    from cliffsys.clifford import MINUS, system_from_json, system_to_json

    systems = [build(m) for m in range(1, 17)]
    systems += [build(m, MINUS) for m in (4, 8, 12, 16)] + [tilde(4), tilde(8)]
    for system in systems:
        data = system_to_json(system)
        assert system_from_json(json.loads(json.dumps(data))) == system
        assert data["classTrace"] == class_trace(system)


@pytest.mark.parametrize("m", [True, 1.0, 4.0])
def test_build_refuses_an_m_that_is_not_an_int(m):
    with pytest.raises(ValueError, match="^m must be in 1..16$"):
        build(m)
