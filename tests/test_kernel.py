"""Backend equivalence: the compiled kernel must agree with the pure one.

The C kernel (the `wc` fixture) is compiled from `src/cliffsys/_wedge_c.c`
into a temporary directory with the system `cc`, so these tests run on
every machine with a C compiler and the Python headers, whether or not the
package was built.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cliffsys import _wedge_py
from cliffsys import forms as forms_module
from cliffsys import kernel
from cliffsys.clifford import build
from cliffsys.evencliff import build_e10
from cliffsys.exactmat import SignedPermMatrix
from cliffsys.forms import (
    FormMatrix,
    KForm,
    _indices_from_mask,
    _pfaffian_terms,
    canonical_form,
    form_from_json,
    form_to_json,
    form_to_json_text,
    kaehler_matrix,
    lie_action,
    tau,
)

from backends import dispatch_to
from oracles import assert_clean, brute_wedge

C_MAX = (1 << 31) - 1  # largest coefficient the C kernel accumulates
ACC_LIMIT = 1 << 62  # accumulated values must stay strictly inside +-2^62
WIRE_MAX = (1 << 63) - 1  # largest coefficient the C kernel writes and reads


def product(module, ta, tb):
    """ta ^ tb, accumulated once on a fresh `module.Accumulator`."""
    acc = module.Accumulator()
    acc.add_product(ta, tb)
    return acc.items()


def square(module, ta):
    """ta ^ ta (cross terms doubled), accumulated once on `module`."""
    acc = module.Accumulator()
    acc.add_square(ta)
    return acc.items()


def dimension(*term_lists):
    """The least n >= 1 with every mask of `term_lists` on R^n."""
    return max((m.bit_length() for terms in term_lists for m, _ in terms), default=1) or 1


def kernel_product(ta, tb):
    return kernel.accumulate(lambda acc: acc.add_product(ta, tb), dimension(ta, tb))


def kernel_square(ta):
    return kernel.accumulate(lambda acc: acc.add_square(ta), dimension(ta))


def random_terms(rng, n, k, count):
    masks = []
    while len(masks) < count:
        bits = rng.sample(range(n), k)
        masks.append(sum(1 << b for b in bits))
    return [(m, rng.randint(-99, 99)) for m in masks]


def test_backend_name(wc):
    assert wc.BACKEND == "c"
    assert wc.MASK_BITS == 64


def test_wedge_terms_equivalence(wc):
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(2, 64)
        ka = rng.randint(1, min(4, n))
        kb = rng.randint(1, min(4, n))
        ta = random_terms(rng, n, ka, rng.randint(1, 25))
        tb = random_terms(rng, n, kb, rng.randint(1, 25))
        assert sorted(product(wc, ta, tb)) == sorted(product(_wedge_py, ta, tb))


def test_square_terms_equivalence(wc):
    rng = random.Random(8)
    for _ in range(300):
        n = rng.randint(4, 64)
        k = rng.choice((2, 4))
        ta = random_terms(rng, n, k, rng.randint(1, 25))
        assert sorted(square(wc, ta)) == sorted(square(_wedge_py, ta))


def test_accumulator_equivalence(wc):
    rng = random.Random(9)
    for _ in range(50):
        n = rng.randint(4, 40)
        acc_c = wc.Accumulator()
        acc_p = _wedge_py.Accumulator()
        for _ in range(rng.randint(1, 6)):
            ta = random_terms(rng, n, 2, rng.randint(1, 15))
            tb = random_terms(rng, n, 2, rng.randint(1, 15))
            acc_c.add_product(ta, tb)
            acc_p.add_product(ta, tb)
            sq = random_terms(rng, n, 2, rng.randint(1, 15))
            acc_c.add_square(sq)
            acc_p.add_square(sq)
        assert sorted(acc_c.items()) == sorted(acc_p.items())


def test_signed_perm_action_equivalence(wc):
    rng = random.Random(10)
    for _ in range(200):
        n = rng.choice((4, 8, 16, 32, 64))
        perm = list(range(n))
        rng.shuffle(perm)
        signs = [rng.choice((1, -1)) for _ in range(n)]
        terms = random_terms(rng, n, rng.choice((2, 4)), rng.randint(1, 20))
        assert sorted(wc.signed_perm_action(terms, perm, signs)) == sorted(
            _wedge_py.signed_perm_action(terms, perm, signs)
        )


def test_compiled_kernel_rejects_oversized_inputs(wc):
    with pytest.raises(OverflowError):
        product(wc, [(1, 1 << 40)], [(2, 1)])
    with pytest.raises(OverflowError):
        product(wc, [(1 << 70, 1)], [(2, 1)])


# -- boundaries of the compiled range ------------------------------------------------


@pytest.mark.parametrize("c", [C_MAX, -C_MAX])
def test_largest_coefficients_are_accepted(wc, c):
    ta, tb = [(1, c), (4, 1)], [(2, c), (8, -c)]
    assert sorted(product(wc, ta, tb)) == sorted(product(_wedge_py, ta, tb))
    assert list(square(wc, [(1, c), (2, 1)])) == [(3, 2 * c)]
    assert list(wc.signed_perm_action([(1, c)], [1, 0], [1, 1])) == [(2, -c)]


@pytest.mark.parametrize("c", [C_MAX + 1, -C_MAX - 1])
def test_coefficients_of_31_bits_are_rejected(wc, c):
    with pytest.raises(OverflowError):
        product(wc, [(1, c)], [(2, 1)])
    with pytest.raises(OverflowError):
        square(wc, [(1, 1), (2, c)])
    with pytest.raises(OverflowError):
        wc.signed_perm_action([(1, c)], [1, 0], [1, 1])
    with pytest.raises(OverflowError):
        wc.Accumulator().add_product([(1, 1)], [(2, c)])


def test_largest_square_product_is_range_checked(wc, monkeypatch):
    # 2 * (2^31 - 1) * (2^31 - 1) = (2^32 - 2)(2^31 - 1) fits in int64 but
    # not in the accumulator range
    ta = [(1, C_MAX), (2, C_MAX)]
    with pytest.raises(OverflowError):
        square(wc, ta)
    with pytest.raises(OverflowError):
        wc.Accumulator().add_square(ta)
    monkeypatch.setattr(kernel, "_impl", wc)
    assert list(kernel_square(ta)) == [(3, (2**32 - 2) * C_MAX)]


@pytest.mark.parametrize("sign", [1, -1])
def test_accumulator_range_is_open_at_2_62(wc, sign):
    acc = wc.Accumulator()
    acc.add_product([(1, sign * C_MAX)], [(2, C_MAX)])  # 2^62 - 2^32 + 1
    acc.add_product([(1, sign * 2)], [(2, C_MAX)])  # now 2^62 - 1
    assert list(acc.items()) == [(3, sign * (ACC_LIMIT - 1))]
    with pytest.raises(OverflowError):
        acc.add_product([(1, sign)], [(2, 1)])


def test_masks_using_bit_63(wc):
    top = 1 << 63
    # merging (64) before (1) takes one transposition
    assert list(product(wc, [(top, 3)], [(1, 5)])) == [(top | 1, -15)]
    assert list(product(wc, [(1, 3)], [(top, 5)])) == [(top | 1, 15)]
    ta = [(top | 1, 2), (6, 3), (top | 4, 1), (3 << 61, -7)]
    assert sorted(square(wc, ta)) == sorted(square(_wedge_py, ta))
    perm = list(range(64))
    perm[0], perm[63] = 63, 0
    signs = [1] * 63 + [-1]
    terms = [(top | 2, 5), (1 | 2, 4), (top, 1)]
    assert sorted(wc.signed_perm_action(terms, perm, signs)) == sorted(
        _wedge_py.signed_perm_action(terms, perm, signs)
    )


def test_masks_of_64_bits_and_more_go_pure(wc, monkeypatch):
    with pytest.raises(OverflowError):
        product(wc, [(1 << 64, 1)], [(1, 1)])
    with pytest.raises(OverflowError):
        square(wc, [(1 << 64, 1), (1, 1)])
    monkeypatch.setattr(kernel, "_impl", wc)
    # merging (65) before (1) takes one transposition
    assert kernel_product([(1 << 64, 2)], [(1, 3)]) == [((1 << 64) | 1, -6)]
    # a permutation of 70 letters: targets past bit 63 go pure, the rest stay
    perm = list(range(70))
    perm[1], perm[69] = 69, 1
    signs = [1, -1] * 35
    for terms in ([(3, 5), (12, -2)], [(48, 7)]):
        assert sorted(kernel.signed_perm_action(terms, perm, signs)) == sorted(
            _wedge_py.signed_perm_action(terms, perm, signs)
        )


def test_malformed_terms_and_letters(wc, monkeypatch):
    for module in (wc, _wedge_py):
        with pytest.raises(ValueError):
            product(module, [(1, 2, 3)], [(2, 1)])
    # a letter past the end of perm, or a target past bit 63, is left to
    # the pure kernel, which raises or computes as it always did
    with pytest.raises(OverflowError):
        wc.signed_perm_action([(4, 1)], [1, 0], [1, 1])
    with pytest.raises(OverflowError):
        wc.signed_perm_action([(1, 1)], [70], [1])
    monkeypatch.setattr(kernel, "_impl", wc)
    with pytest.raises(IndexError):
        kernel.signed_perm_action([(4, 1)], [1, 0], [1, 1])
    assert kernel.signed_perm_action([(1, 1)], [70], [1]) == [(1 << 70, -1)]


def test_mask_zero_is_a_key(wc):
    assert list(product(wc, [(0, 3)], [(0, 4)])) == [(0, 12)]
    assert list(product(wc, [(0, 2)], [(5, 3)])) == [(5, 6)]
    assert list(square(wc, [(0, 3), (0, 4)])) == [(0, 24)]
    acc = wc.Accumulator()
    acc.add_product([(0, 1)], [(0, 1), (1, 1)])
    acc.add_product([(0, -1)], [(0, 1)])
    assert list(acc.items()) == [(1, 1)]  # the mask-0 sum cancelled to zero


def test_empty_term_lists(wc):
    assert list(product(wc, [], [(1, 1)])) == []
    assert list(product(wc, [(1, 1)], [])) == []
    assert list(square(wc, [])) == []
    assert list(wc.signed_perm_action([], [0, 1], [1, 1])) == []
    acc = wc.Accumulator()
    acc.add_product([], [])
    acc.add_square([])
    assert list(acc.items()) == []


# -- batches: the C loops queue pairs and add them to the table in order ------------


def spaced(count):
    """`count` 1-forms on e_2..e_63, each followed by e_1: the wedge of e_1
    with them keeps `count` pairs and drops as many."""
    out = []
    for j in range(count):
        out += [(2 << (j % 62), j + 1), (1, 5)]
    return out


def accumulated(module, *calls):
    """The items of one `module.Accumulator` after the add_product calls
    `calls`, each a (ta, tb) pair."""
    acc = module.Accumulator()
    for ta, tb in calls:
        acc.add_product(ta, tb)
    return sorted(acc.items())


@pytest.mark.parametrize("extra", [-1, 0, 1, 5])
@pytest.mark.parametrize("batches", [1, 3])
def test_batches_fill_several_times_and_end_partial(wc, batches, extra):
    count = batches * wc.BATCH + extra  # the pairs of e_1 with spaced(count) that are kept
    ta, tb = [(1, 3)], spaced(count)
    assert accumulated(wc, (ta, tb)) == accumulated(_wedge_py, (ta, tb))
    sq = [(1, 2)] + spaced(count)
    assert sorted(square(wc, sq)) == sorted(square(_wedge_py, sq))
    # each letter moves to its neighbour (e_1 <-> e_2, e_3 <-> e_4, ...), so
    # most keys are new: up to two per term, which the action's table, sized
    # for two keys per term, takes without growing
    terms = [(1 | 2 << j, j + 1) for j in range(count % 62 + 1)]
    perm = [i ^ 1 for i in range(64)]
    assert sorted(wc.signed_perm_action(terms, perm, [1] * 64)) == sorted(
        _wedge_py.signed_perm_action(terms, perm, [1] * 64)
    )


@pytest.mark.parametrize("where", ["last-of-partial-batch", "mid-batch"])
def test_overflow_inside_a_batch_leaves_the_pairs_before_it(wc, where):
    # key 3 = e_1 ^ e_2 is loaded to 2^62 - 2^32 + 1; e_1 meets e_3..e_62
    # in the pairs before and after position `fail`, and e_2 there, which
    # adds 2^32 to key 3
    B = wc.BATCH
    count, fail = {"last-of-partial-batch": (2 * B + 3, 2 * B + 2),
                   "mid-batch": (3 * B, B + B // 2)}[where]
    load = ([(1, C_MAX)], [(2, C_MAX)])
    ta = [(1, 1 << 16)]
    tb = [(2 if j == fail else 4 << (j % 60), 1 << 16) for j in range(count)]
    acc = wc.Accumulator()
    acc.add_product(*load)
    with pytest.raises(OverflowError):
        acc.add_product(ta, tb)
    # what the table holds is what the pairs before the failing one added
    assert sorted(acc.items()) == accumulated(_wedge_py, load, (ta, tb[:fail]))
    with dispatch_to(wc):
        result = kernel.accumulate(lambda a: (a.add_product(*load), a.add_product(ta, tb)), 64)
    assert sorted(result) == accumulated(_wedge_py, load, (ta, tb))


def test_declines_come_in_loop_order(wc):
    # letters 1 and 2 of e_1 ^ e_2 ^ e_3 stay put with factor 2^31 - 1, which
    # overflows the sum at letter 2, before letter 3, whose target the C
    # kernel cannot take, is reached
    terms, perm, signs = [(7, C_MAX)], [0, 1, 70], [-C_MAX, -C_MAX, 1]
    with pytest.raises(OverflowError, match="accumulator"):
        wc.signed_perm_action(terms, perm, signs)
    with pytest.raises(OverflowError, match="letter"):
        wc.signed_perm_action(terms, perm, [1, 1, 1])


def test_table_grows_inside_a_batch(wc):
    # a fresh table has 16 slots and grows past 8 keys: adding the first
    # batch of 32 distinct keys grows it twice partway through
    B = wc.BATCH
    ta = [(1 << i, i + 1) for i in range(8)]
    tb = [(1 << (8 + j), j - 3) for j in range(B)]
    assert accumulated(wc, (ta, tb)) == accumulated(_wedge_py, (ta, tb))
    with dispatch_to(wc):
        assert sorted(kernel_product(ta, tb)) == accumulated(_wedge_py, (ta, tb))


# -- property: the C kernel equals the pure one, or declines --------------------------

masks = st.sets(st.integers(0, 63), max_size=4).map(lambda bits: sum(1 << b for b in bits))
coeffs = st.one_of(
    st.integers(-3, 3),
    st.integers(-C_MAX, C_MAX),
    st.sampled_from([C_MAX, -C_MAX, C_MAX + 1, -C_MAX - 1]),
)
term_lists = st.lists(st.tuples(masks, coeffs), max_size=10)


def bounded_product(ta, tb):
    """True when the pure accumulation of ta ^ tb, in the kernels' loop
    order, stays inside the compiled range at every step."""
    if any(abs(c) > C_MAX for _, c in ta + tb):
        return False
    acc = {}
    for ma, ca in ta:
        for mb, cb in tb:
            if ma & mb:
                continue
            key = ma | mb
            acc[key] = acc.get(key, 0) + _wedge_py.merge_sign(ma, mb) * ca * cb
            if abs(acc[key]) >= ACC_LIMIT:
                return False
    return True


@settings(max_examples=200, deadline=None)
@given(ta=term_lists, tb=term_lists)
def test_compiled_matches_pure_property(wc, ta, tb):
    expected = sorted(product(_wedge_py, ta, tb))
    if bounded_product(ta, tb):
        assert sorted(product(wc, ta, tb)) == expected
    else:
        with pytest.raises(OverflowError):
            product(wc, ta, tb)
    perm = list(range(63, -1, -1))
    signs = [1, -1] * 32
    with dispatch_to(wc):
        assert sorted(kernel_product(ta, tb)) == expected
        assert sorted(kernel_square(ta)) == sorted(square(_wedge_py, ta))
        assert sorted(kernel.signed_perm_action(ta, perm, signs)) == sorted(
            _wedge_py.signed_perm_action(ta, perm, signs)
        )


# -- property: forms built from kernel output unchecked are clean ------------------


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_trusted_forms_equal_checked_ones(wc, data):
    n = data.draw(st.integers(4, 70), label="n")  # masks past 64 bits go pure
    value = coeffs
    if data.draw(st.booleans(), label="rational"):
        value = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    monomial = st.frozensets(st.integers(0, n - 1), min_size=2, max_size=2)

    def two_form(label):
        terms = data.draw(st.dictionaries(monomial, value, max_size=6), label=label)
        return KForm(n, 2, {sum(1 << b for b in s): c for s, c in terms.items()})

    psi = FormMatrix(4, n, {(i, j): two_form(f"psi{i}{j}") for i in range(4) for j in range(i + 1, 4)})
    a, b = two_form("a"), two_form("b")
    x = SignedPermMatrix(
        n,
        tuple(data.draw(st.permutations(range(n)), label="perm")),
        tuple(data.draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n), label="signs")),
    )
    results = []
    for module in (wc, _wedge_py):
        with dispatch_to(module):
            forms = [a.wedge(b), a.wedge_square(), tau(psi, 2), tau(psi, 4), lie_action(x, a)]
        for form in forms:
            assert_clean(form)
        results.append(forms)
    assert results[0] == results[1]


# -- dispatcher: an OverflowError restarts the computation on the pure kernel ------


def test_dispatcher_falls_back_on_big_coefficients(wc, monkeypatch):
    # coefficients out of compiled range: silently exact
    monkeypatch.setattr(kernel, "_impl", wc)
    big = 1 << 40
    out = kernel_product([(1, big)], [(2, big)])
    assert out == [(3, big * big)]


def test_overflowing_tau_restarts_pure(wc, monkeypatch):
    # six disjoint 2-forms a e_p ^ e_q: the Pfaffian's three terms carry
    # a^2 < 2^31, its square's cross terms 2 a^4 >= 2^62
    a = 46000
    pairs = iter(range(12))
    upper = {
        (i, j): KForm(12, 2, {(1 << next(pairs)) | (1 << next(pairs)): a})
        for i in range(4)
        for j in range(i + 1, 4)
    }
    psi = FormMatrix(4, 12, upper)
    with pytest.raises(OverflowError):
        wc.Accumulator().add_square(_pfaffian_terms(psi, (0, 1, 2, 3)).mask_items())
    monkeypatch.setattr(kernel, "_impl", _wedge_py)
    expected = tau(psi, 4)
    monkeypatch.setattr(kernel, "_impl", wc)
    result = tau(psi, 4)
    assert result == expected
    assert result.num_terms() == 3
    assert {abs(c) for _, c in result.terms()} == {2 * a**4}


def test_tau_past_64_dimensions_matches_pure(wc, monkeypatch):
    # tau_2 on R^128: its masks pass 2^64, so the sum runs on the pure
    # accumulator, and each of the 6 Pfaffians of its 2x2 minors is built
    # once on either backend
    psi = kaehler_matrix(build(11).generators[:4])
    assert psi.n == 128
    calls = []

    def counted(*args):
        calls.append(args)
        return _pfaffian_terms(*args)

    monkeypatch.setattr(forms_module, "_pfaffian_terms", counted)
    results = []
    for module in (wc, _wedge_py):
        monkeypatch.setattr(kernel, "_impl", module)
        calls.clear()
        results.append(tau(psi, 2))
        assert len(calls) == 6
    assert results[0] == results[1]
    assert results[0].num_terms() == 2912


def test_overflowing_perm_action_restarts_pure(wc, monkeypatch):
    # both letters of e_1 ^ e_2 stay put with factor 2^31 - 1: the two
    # contributions of (2^31 - 1)^2 sum past 2^62
    terms, perm, signs = [(3, C_MAX)], [0, 1], [-C_MAX, -C_MAX]
    with pytest.raises(OverflowError):
        wc.signed_perm_action(terms, perm, signs)
    monkeypatch.setattr(kernel, "_impl", wc)
    assert kernel.signed_perm_action(terms, perm, signs) == [(3, 2 * C_MAX**2)]
    big = [(3, 1 << 40)]
    assert kernel.signed_perm_action(big, [1, 0], [1, 1]) == (
        _wedge_py.signed_perm_action(big, [1, 0], [1, 1])
    )


@pytest.mark.parametrize("c", [Fraction(4, 1), Fraction(-1, 2), True, False],
                         ids=["fraction-integral", "fraction", "bool-true", "bool-false"])
def test_non_int_coefficients_are_declined_at_load(wc, c):
    """Every C entry point declines a coefficient that is not an exact int,
    so no caller need say whether its terms are integral; through `kernel`
    each gives the pure result."""
    ta, tb, perm, signs = [(1, c), (4, 3)], [(2, 5)], [1, 0, 2], [1, 1, -1]
    declined = [
        lambda: wc.Accumulator().add_product(ta, tb),
        lambda: wc.Accumulator().add_product(tb, ta),
        lambda: wc.Accumulator().add_square(ta),
        lambda: wc.signed_perm_action(ta, perm, signs),
        lambda: wc.form_json_text(3, 1, ta),
        lambda: wc.form_json_dict(3, 1, ta),
    ]
    for call in declined:
        with pytest.raises(OverflowError):
            call()
    with dispatch_to(wc):
        got = [kernel_product(ta, tb), kernel_square(ta), kernel.signed_perm_action(ta, perm, signs),
               kernel.form_json_text(3, 1, ta, lambda: "pure"), kernel.form_json_dict(3, 1, ta, dict)]
    expected = [product(_wedge_py, ta, tb), square(_wedge_py, ta),
                _wedge_py.signed_perm_action(ta, perm, signs), "pure", {}]
    assert got == expected
    # the pure kernel gives Fraction(p, 1) as p
    assert {type(c) for terms in got[:3] for _, c in terms} <= {int, Fraction}
    assert all(type(c) is int or c.denominator > 1 for terms in got[:3] for _, c in terms)


def test_merge_sign():
    assert kernel.merge_sign(0b0001, 0b0010) == 1  # 1 before 2
    assert kernel.merge_sign(0b0010, 0b0001) == -1
    assert kernel.merge_sign(0b0101, 0b1010) == -1  # (1,3) vs (2,4): one inversion


@settings(max_examples=300, deadline=None)
@given(a=st.sets(st.integers(1, 70), max_size=12), b=st.sets(st.integers(1, 70), max_size=12))
def test_merge_sign_matches_bruteforce_oracle(a, b):
    """Past the C kernel's 64 bits too: the sign of explicit sorting."""
    ia, ib = sorted(a), sorted(b - a)
    _, sign = brute_wedge(ia, ib, 70)
    assert kernel.merge_sign(sum(1 << (i - 1) for i in ia), sum(1 << (i - 1) for i in ib)) == sign


# -- the wire format: the C writer and reader equal the pure ones, or decline ------


class Recording:
    """`module` with every call to one of its functions recorded by name."""

    def __init__(self, module):
        self._module = module
        self.calls = []

    def __getattr__(self, name):
        value = getattr(self._module, name)
        if not callable(value) or isinstance(value, type):
            return value

        def call(*args):
            self.calls.append(name)
            return value(*args)

        return call


def pure_text(a):
    with dispatch_to(_wedge_py):
        return form_to_json_text(a)


def is_integral(a):
    return all(isinstance(c, int) for c in a._terms.values())


def in_wire_range(a):
    return a.n <= 64 and is_integral(a) and all(abs(c) <= WIRE_MAX for c in a._terms.values())


def check_writer(wc, a):
    """The C writer renders `a` as the pure one does when it is in range and
    declines it otherwise; through `kernel` the text is the pure text."""
    expected = pure_text(a)
    assert expected == json.dumps(form_to_json(a), indent=2) + "\n"
    if in_wire_range(a):
        assert wc.form_json_text(a.n, a.k, a.mask_items()) == expected
    else:
        with pytest.raises(OverflowError):
            wc.form_json_text(a.n, a.k, a.mask_items())
    with dispatch_to(wc):
        assert form_to_json_text(a) == expected


wire_coeffs = st.one_of(
    st.integers(-9, 9),
    st.integers(-WIRE_MAX, WIRE_MAX),
    st.sampled_from([WIRE_MAX, -WIRE_MAX, WIRE_MAX + 1, -WIRE_MAX - 1, 1 << 70, -(1 << 70)]),
)


@st.composite
def integral_forms(draw, dimensions=st.integers(1, 70), coefficient=wire_coeffs):
    """Integral forms on R^n, n up to 70 so that some pass the C kernel's
    mask width, with coefficients around the edges of its int64 range."""
    n = draw(dimensions)
    k = draw(st.integers(0, min(n, 6)))
    monomial = st.frozensets(st.integers(1, n), min_size=k, max_size=k)
    terms = draw(st.dictionaries(monomial, coefficient, max_size=12))
    return KForm(n, k, {sum(1 << (i - 1) for i in s): c for s, c in terms.items()})


@settings(max_examples=300, deadline=None)
@given(a=integral_forms())
def test_compiled_writer_matches_pure_property(wc, a):
    check_writer(wc, a)


WRITER_EDGES = [
    pytest.param(KForm.zero(16, 8), id="empty"),
    pytest.param(KForm.zero(1, 0), id="empty-degree-0"),
    pytest.param(KForm(5, 0, {0: -3}), id="degree-0"),
    pytest.param(KForm(64, 1, {1 << 63: 7, 1: -1}), id="bit-63"),
    pytest.param(KForm(64, 3, {(1 << 63) | (1 << 9) | 1: 2, (3 << 62) | 2: -5}), id="bit-63-deg-3"),
    pytest.param(KForm(64, 2, {(1 << 63) | 1: WIRE_MAX, 3: -WIRE_MAX}), id="int64-edge"),
    pytest.param(KForm(8, 2, {3: WIRE_MAX + 1}), id="past-int64"),
    pytest.param(KForm(8, 2, {3: -WIRE_MAX - 1}), id="past-int64-negative"),
    pytest.param(KForm(8, 2, {3: 1 << 100, 5: 1}), id="big-int"),
    pytest.param(KForm(65, 2, {3: 1, (1 << 64) | 1: -2}), id="N=65"),
    pytest.param(KForm(65, 2, {3: 1, 6: -2}), id="N=65-low-masks"),
    pytest.param(canonical_form("Spin9"), id="Spin9"),
    pytest.param(canonical_form("Spin7Delta"), id="Spin7Delta-rational"),
]


@pytest.mark.parametrize("a", WRITER_EDGES)
def test_compiled_writer_edges(wc, a):
    check_writer(wc, a)


def check_dict_writer(backends, a):
    """`form_to_json` gives the pure dict on every backend, and that dict
    encodes to the text `form_to_json_text` writes."""
    with dispatch_to(_wedge_py):
        expected = form_to_json(a)
    for module in backends:
        if module is not _wedge_py and in_wire_range(a):
            assert module.form_json_dict(a.n, a.k, a.mask_items()) == expected
        elif module is not _wedge_py:
            with pytest.raises(OverflowError):
                module.form_json_dict(a.n, a.k, a.mask_items())
        with dispatch_to(module):
            data = form_to_json(a)
            assert data == expected
            assert json.dumps(data, indent=2) + "\n" == form_to_json_text(a)


@settings(max_examples=300, deadline=None)
@given(a=st.one_of(integral_forms(), integral_forms(
    coefficient=st.fractions(min_value=-4, max_value=4, max_denominator=5))))
def test_form_to_json_matches_pure_property(kernel_backends, a):
    check_dict_writer(kernel_backends, a)


@pytest.mark.parametrize("a", WRITER_EDGES)
def test_form_to_json_edges(kernel_backends, a):
    check_dict_writer(kernel_backends, a)


def test_wire_format_past_the_mask_width_skips_the_compiled_kernel(wc):
    a = KForm(64, 2, {3: 1, 6: -2})
    b = KForm(65, 2, a._terms)
    spy = Recording(wc)
    with dispatch_to(spy):
        for form in (a, b):
            assert form_from_json(json.loads(form_to_json_text(form))) == form
    assert spy.calls == ["form_json_text", "form_json_terms"]


def test_compiled_reader_reads_canonical_integer_documents(wc):
    a = canonical_form("Spin9")
    items = form_to_json(a)["terms"]
    assert dict(wc.form_json_terms(16, 8, items)) == a._terms
    zero_dropped = [{"idx": [1, 2], "c": "0"}, {"idx": [1, 64], "c": str(-WIRE_MAX)}]
    assert list(wc.form_json_terms(64, 2, zero_dropped)) == [(1 | 1 << 63, -WIRE_MAX)]
    assert list(wc.form_json_terms(1, 0, [{"idx": [], "c": "7"}])) == [(0, 7)]
    assert list(wc.form_json_terms(3, 1, [])) == []


@pytest.mark.parametrize(
    "n, k, items",
    [
        pytest.param(4, 2, [{"idx": [1, 2], "c": "1"}, {"idx": [1, 2], "c": "0"}], id="duplicate-zero"),
        pytest.param(4, 2, [{"idx": [1, 2], "c": "0"}, {"idx": [1, 2], "c": "0"}], id="duplicate-zeros"),
        pytest.param(4, 2, [{"idx": [1, 2], "c": "1/2"}], id="rational"),
        pytest.param(4, 2, [{"idx": [1, 2], "c": "-0"}], id="minus-zero"),
        pytest.param(4, 2, [{"idx": [1, 2], "c": str(WIRE_MAX + 1)}], id="past-int64"),
        pytest.param(4, 2, [{"idx": [1, 2], "c": "\ud800"}], id="lone-surrogate"),
        pytest.param(4, 2, [{"idx": [True, 2], "c": "1"}], id="bool-index"),
        pytest.param(4, 2, [{"idx": [1.0, 2], "c": "1"}], id="float-index"),
        pytest.param(4, 2, [{"idx": [1, 1 << 70], "c": "1"}], id="huge-index"),
        pytest.param(4, 2, [{"idx": (1, 2), "c": "1"}], id="idx-a-tuple"),
        pytest.param(4, 2, [[[1, 2], "1"]], id="term-a-list"),
        pytest.param(65, 2, [{"idx": [1, 2], "c": "1"}], id="N=65"),
        pytest.param(3, 5, [], id="k-past-N"),
    ],
)
def test_compiled_reader_declines_the_rest(wc, n, k, items):
    with pytest.raises(OverflowError):
        wc.form_json_terms(n, k, items)


PERTURBATIONS = [
    "bool-index", "float-index", "minus-zero", "leading-zeros", "space", "underscore",
    "duplicate", "duplicate-zero", "unsorted", "ratio", "canonical-ratio", "past-int64",
    "N=65", "extra-key", "term-a-list", "idx-a-tuple", "index-past-N", "index-0",
]


def perturb(data, how, pos):
    """`data` with its term at `pos` (or the document itself) changed `how`."""
    terms = data["terms"]
    term = terms[pos]
    idx = term["idx"]
    if how == "bool-index" and idx:
        idx[0] = True
    elif how == "float-index" and idx:
        idx[-1] = float(idx[-1])
    elif how in ("minus-zero", "leading-zeros", "space", "underscore", "ratio", "canonical-ratio", "past-int64"):
        term["c"] = {
            "minus-zero": "-0", "leading-zeros": "007", "space": " 1", "underscore": "1_0",
            "ratio": "p/q", "canonical-ratio": "-3/4", "past-int64": str(WIRE_MAX + 1),
        }[how]
    elif how == "duplicate":
        terms.append(dict(term))
    elif how == "duplicate-zero":
        terms.append({"idx": list(idx), "c": "0"})
    elif how == "unsorted":
        idx.reverse()
    elif how == "N=65":
        data["N"] = 65
    elif how == "extra-key":
        term["x"] = [1]
    elif how == "term-a-list":
        terms[pos] = [idx, term["c"]]
    elif how == "idx-a-tuple":
        term["idx"] = tuple(idx)
    elif how == "index-past-N" and idx:
        idx[-1] = data["N"] + 1
    elif how == "index-0" and idx:
        idx[0] = 0
    return data


def read(data):
    """The form `data` gives, or the message of the ValueError it raises."""
    try:
        return form_from_json(data)
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=300, deadline=None)
@given(
    a=integral_forms(st.integers(1, 64), st.integers(-(10**6), 10**6)).filter(
        lambda a: not a.is_zero()
    ),
    how=st.sampled_from(PERTURBATIONS),
    where=st.integers(0, 11),
)
def test_compiled_reader_matches_pure_on_perturbed_documents(wc, a, how, where):
    text = form_to_json_text(a)
    assert dict(wc.form_json_terms(a.n, a.k, json.loads(text)["terms"])) == a._terms
    data = json.loads(text)
    perturb(data, how, where % len(data["terms"]))
    with dispatch_to(_wedge_py):
        expected = read(data)
    with dispatch_to(wc):
        assert read(data) == expected
    if isinstance(expected, KForm):
        assert_clean(expected)


# -- the derivation action, summed in one table: equal to the pure one, or declines -


def wire_order(terms):
    """`terms` of one degree in wire order: lexicographic in index tuples."""
    return sorted(terms, key=lambda t: _indices_from_mask(t[0]))


def bounded_action(terms, perm, signs):
    """True when the C kernel must take the action: every mask and
    coefficient in its range, every letter of every mask with a target
    below 64 and a factor below 2^31, and every sum, taken in the pure
    kernel's loop order, inside +-2^62 at every step."""
    acc = {}
    for mask, c in terms:
        if mask >> 64 or abs(c) > C_MAX:
            return False
        for i in (b - 1 for b in _indices_from_mask(mask)):
            j = perm[i]
            if j >= 64 or abs(signs[i]) > C_MAX:
                return False
            without = mask & ~(1 << i)
            if j != i and without >> j & 1:
                continue
            lo, hi = min(i, j), max(i, j)
            crossed = (without & ((1 << hi) - (2 << lo))).bit_count() if j != i else 0
            key = without | 1 << j
            acc[key] = acc.get(key, 0) - signs[i] * (-1) ** crossed * c
            if abs(acc[key]) >= ACC_LIMIT:
                return False
    return True


@st.composite
def signed_perms(draw):
    """(perm, signs) on n <= 70 letters, cut into fixed letters, 2-cycles and
    longer cycles; with n > 64 some cycles carry a letter past bit 63.  Most
    signs are +-1; some are +-(2^31 - 1), which can overflow a sum, and some
    +-2^31, a factor the C kernel leaves to the pure one."""
    n = draw(st.one_of(st.integers(1, 70), st.integers(62, 70)), label="n")
    letters = draw(st.permutations(range(n)), label="letters")
    perm = list(range(n))
    pos = 0
    while pos < n:
        cycle = letters[pos:pos + draw(st.sampled_from([1, 2, 2, 3, 4, 7]))]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            perm[a] = b
        pos += len(cycle)
    sign = st.sampled_from([1, -1] * 8 + [C_MAX, -C_MAX, C_MAX + 1, -C_MAX - 1])
    signs = draw(st.lists(sign, min_size=n, max_size=n), label="signs")
    return perm, signs


@st.composite
def action_cases(draw):
    perm, signs = draw(signed_perms())
    n = len(perm)
    top = [n - 1, 63] if n >= 64 else [n - 1]
    letter = st.one_of(st.integers(0, n - 1), st.sampled_from(top))  # bit 63 often
    degree = draw(st.integers(0, min(n, 5)), label="degree")
    mask = st.sets(letter, min_size=degree, max_size=degree).map(lambda s: sum(1 << b for b in s))
    terms = draw(st.lists(st.tuples(mask, coeffs), max_size=12), label="terms")
    return terms, perm, signs


@settings(max_examples=300, deadline=None)
@given(case=action_cases())
def test_grouped_action_matches_pure_property(wc, case):
    terms, perm, signs = case
    expected = _wedge_py.signed_perm_action(terms, perm, signs)
    if bounded_action(terms, perm, signs):
        got = wc.signed_perm_action(terms, perm, signs)
        assert type(got) is wc.Terms
        assert list(got) == wire_order(expected)
    else:
        with pytest.raises(OverflowError):
            wc.signed_perm_action(terms, perm, signs)
    with dispatch_to(wc):
        assert sorted(kernel.signed_perm_action(terms, perm, signs)) == sorted(expected)


def test_grouped_action_on_the_rank10_generators(wc):
    """Signed permutations with 16 2-cycles, as in the rank-10 read-back, on a
    seeded 8-form on R^32: equal to the pure action, in wire order."""
    rng = random.Random(13)
    terms = {}
    while len(terms) < 2000:
        terms[sum(1 << b for b in rng.sample(range(32), 8))] = rng.choice((-3, -2, -1, 1, 2, 3))
    terms = list(terms.items())
    e10 = build_e10()
    for x in e10.pairwise_products()[:6] + list(e10.complex_generators):
        inv = x.transpose()
        expected = _wedge_py.signed_perm_action(terms, inv.perm, inv.signs)
        assert list(wc.signed_perm_action(terms, inv.perm, inv.signs)) == wire_order(expected)


@pytest.mark.parametrize("count", [2, 4, 5, 9])
def test_action_table_grows_inside_and_across_a_batch(wc, count):
    # `count` 8-forms on e_1..e_16 whose letters all move to free letters
    # (e_i <-> e_{i+16}): 8 distinct keys per term, against the 2 per term
    # the table is sized for.  A fresh table has at least 16 slots and grows
    # past half load, so it grows inside the first batch of 32 keys and, from
    # 5 terms on, in a later one.
    rng = random.Random(count)
    terms = {}
    while len(terms) < count:
        terms[sum(1 << b for b in rng.sample(range(16), 8))] = rng.choice((-5, -1, 1, 2, 7))
    terms = list(terms.items())
    perm = [i ^ 16 for i in range(32)]
    signs = [rng.choice((1, -1, 3)) for _ in range(32)]
    expected = _wedge_py.signed_perm_action(terms, perm, signs)
    assert len(expected) == 8 * count  # one key per letter of each term
    got = wc.signed_perm_action(terms, perm, signs)
    assert type(got) is wc.Terms
    assert list(got) == wire_order(expected)
    with dispatch_to(wc):
        assert list(kernel.signed_perm_action(terms, perm, signs)) == wire_order(expected)


# -- Terms: the C kernel's packed pair sequence ---------------------------------------


def test_terms_of_the_compiled_kernel_equal_the_pure_ones(wc):
    rng = random.Random(14)
    for _ in range(100):
        n = rng.randint(4, 64)
        k = rng.choice((1, 2, 3))
        ta, tb = random_terms(rng, n, k, rng.randint(1, 20)), random_terms(rng, n, k, rng.randint(1, 20))
        results = [(product(wc, ta, tb), product(_wedge_py, ta, tb))]
        if k % 2 == 0:
            results.append((square(wc, ta), square(_wedge_py, ta)))
        for got, expected in results:
            assert type(got) is wc.Terms and len(got) == len(expected)
            assert list(got) == wire_order(expected)
        perm = list(range(n))
        rng.shuffle(perm)
        signs = [rng.choice((1, -1)) for _ in range(n)]
        got = wc.signed_perm_action(ta, perm, signs)
        assert list(got) == wire_order(_wedge_py.signed_perm_action(ta, perm, signs))
        # the reader gives the terms of the pure reader, in wire order
        form = KForm(n, k, dict(ta))
        items = json.loads(form_to_json_text(form))["terms"]
        assert list(wc.form_json_terms(n, k, items)) == wire_order(form._terms.items())


def test_terms_sequence_protocol(wc):
    items = [{"idx": idx, "c": c} for idx, c in (([2, 3], "-2"), ([1, 64], "5"), ([1, 2], "7"),
                                                 ([1, 3], "1"))]
    t = wc.form_json_terms(64, 2, items)
    # wire order: (1, 2), (1, 3), (1, 64), (2, 3)
    assert list(t) == [(3, 7), (5, 1), (1 << 63 | 1, 5), (6, -2)]
    assert len(t) == 4 and t[0] == (3, 7) and t[-1] == (6, -2)
    assert t != list(t)  # a plain sequence, compared as list(t)
    assert dict(t) == {3: 7, 5: 1, 1 << 63 | 1: 5, 6: -2}
    with pytest.raises(IndexError):
        t[4]
    with pytest.raises(TypeError):
        hash(t)
    with pytest.raises(TypeError):  # only the kernel makes one
        type(t)(list(t))


def test_readback_on_the_c_kernel_never_builds_the_dict(wc, monkeypatch):
    """form_from_json, three lie_action, num_terms and form_to_json: the
    C kernel's Terms go from one step to the next, and no {mask: coeff}
    dict is built."""
    rng = random.Random(15)
    terms = {}
    while len(terms) < 300:
        terms[sum(1 << b for b in rng.sample(range(32), 8))] = rng.choice((-3, -2, -1, 1, 2, 3))
    text = form_to_json_text(KForm(32, 8, terms))
    e10 = build_e10()
    actions = [e10.pairwise_products()[5], e10.complex_generators[0],
               SignedPermMatrix(32, tuple(i ^ 1 for i in range(32)), tuple([1, -1] * 16))]

    def readback():
        form = form_from_json(json.loads(text))
        acted = [lie_action(x, form) for x in actions]
        return form.num_terms(), [a.num_terms() for a in acted], form_to_json(acted[-1])

    with dispatch_to(_wedge_py):
        expected = readback()
    assert expected[1][-1] > 0
    with dispatch_to(wc):
        monkeypatch.setattr(KForm, "_terms", property(lambda self: pytest.fail("built the dict")))
        got = readback()
    assert got == expected
