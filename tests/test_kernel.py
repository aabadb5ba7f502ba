"""Backend equivalence: the compiled kernel must agree with the pure one.

The C kernel is compiled from `src/cliffsys/_wedge_c.c` into a temporary
directory with the system `cc`, so these tests run on every machine with a
C compiler and the Python headers, whether or not the package was built.
"""

import importlib.machinery
import importlib.util
import random
import shutil
import subprocess
import sysconfig
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cliffsys import _wedge_py
from cliffsys import kernel
from cliffsys.clifford import build
from cliffsys.exactmat import SignedPermMatrix
from cliffsys.forms import FormMatrix, KForm, _pfaffian_terms, kaehler_matrix, lie_action, tau

from oracles import assert_clean

SOURCE = Path(__file__).resolve().parents[1] / "src" / "cliffsys" / "_wedge_c.c"
C_MAX = (1 << 31) - 1  # largest coefficient the C kernel takes
ACC_LIMIT = 1 << 62  # accumulated values must stay strictly inside +-2^62


@pytest.fixture(scope="module")
def wc(tmp_path_factory):
    """The C kernel module, compiled from source for this test run."""
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler: `cc` is not on PATH")
    include = sysconfig.get_paths()["include"]
    if not (Path(include) / "Python.h").is_file():
        pytest.skip(f"no Python.h in {include}")
    out = tmp_path_factory.mktemp("wedge_c") / (
        "_wedge_c" + sysconfig.get_config_var("EXT_SUFFIX")
    )
    build = subprocess.run(
        [cc, "-O2", "-Wall", "-shared", "-fPIC", f"-I{include}", str(SOURCE), "-o", str(out)],
        capture_output=True,
        text=True,
    )
    assert build.returncode == 0, build.stderr
    loader = importlib.machinery.ExtensionFileLoader("cliffsys._wedge_c", str(out))
    spec = importlib.util.spec_from_file_location("cliffsys._wedge_c", out, loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


@contextmanager
def dispatch_to(module):
    """Route `kernel` through `module` as if it had been imported as _impl."""
    saved = kernel._impl
    kernel._impl = module
    try:
        yield
    finally:
        kernel._impl = saved


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


def kernel_product(ta, tb):
    return kernel.accumulate(lambda acc: acc.add_product(ta, tb), True)


def kernel_square(ta):
    return kernel.accumulate(lambda acc: acc.add_square(ta), True)


def random_terms(rng, n, k, count):
    masks = []
    while len(masks) < count:
        bits = rng.sample(range(n), k)
        masks.append(sum(1 << b for b in bits))
    return [(m, rng.randint(-99, 99)) for m in masks]


def test_backend_name(wc):
    assert wc.BACKEND == "c"


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
    assert square(wc, [(1, c), (2, 1)]) == [(3, 2 * c)]
    assert wc.signed_perm_action([(1, c)], [1, 0], [1, 1]) == [(2, -c)]


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
    assert kernel_square(ta) == [(3, (2**32 - 2) * C_MAX)]


@pytest.mark.parametrize("sign", [1, -1])
def test_accumulator_range_is_open_at_2_62(wc, sign):
    acc = wc.Accumulator()
    acc.add_product([(1, sign * C_MAX)], [(2, C_MAX)])  # 2^62 - 2^32 + 1
    acc.add_product([(1, sign * 2)], [(2, C_MAX)])  # now 2^62 - 1
    assert acc.items() == [(3, sign * (ACC_LIMIT - 1))]
    with pytest.raises(OverflowError):
        acc.add_product([(1, sign)], [(2, 1)])


def test_masks_using_bit_63(wc):
    top = 1 << 63
    # merging (64) before (1) takes one transposition
    assert product(wc, [(top, 3)], [(1, 5)]) == [(top | 1, -15)]
    assert product(wc, [(1, 3)], [(top, 5)]) == [(top | 1, 15)]
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
        assert sorted(kernel.signed_perm_action(terms, perm, signs, True)) == sorted(
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
        kernel.signed_perm_action([(4, 1)], [1, 0], [1, 1], True)
    assert kernel.signed_perm_action([(1, 1)], [70], [1], True) == [(1 << 70, -1)]


def test_mask_zero_is_a_key(wc):
    assert product(wc, [(0, 3)], [(0, 4)]) == [(0, 12)]
    assert product(wc, [(0, 2)], [(5, 3)]) == [(5, 6)]
    assert square(wc, [(0, 3), (0, 4)]) == [(0, 24)]
    acc = wc.Accumulator()
    acc.add_product([(0, 1)], [(0, 1), (1, 1)])
    acc.add_product([(0, -1)], [(0, 1)])
    assert acc.items() == [(1, 1)]  # the mask-0 sum cancelled to zero


def test_empty_term_lists(wc):
    assert product(wc, [], [(1, 1)]) == []
    assert product(wc, [(1, 1)], []) == []
    assert square(wc, []) == []
    assert wc.signed_perm_action([], [0, 1], [1, 1]) == []
    acc = wc.Accumulator()
    acc.add_product([], [])
    acc.add_square([])
    assert acc.items() == []


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
        assert sorted(kernel.signed_perm_action(ta, perm, signs, True)) == sorted(
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
    # ints flag True but coefficients out of compiled range: silently exact
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
    # tau_2 on R^128: its masks pass 2^64, so the compiled accumulator
    # declines while loading them and the sum restarts on the pure one
    psi = kaehler_matrix(build(11).generators[:4])
    assert psi.n == 128
    results = []
    for module in (wc, _wedge_py):
        monkeypatch.setattr(kernel, "_impl", module)
        results.append(tau(psi, 2))
    assert results[0] == results[1]
    assert results[0].num_terms() == 2912


def test_overflowing_perm_action_restarts_pure(wc, monkeypatch):
    # both letters of e_1 ^ e_2 stay put with factor 2^31 - 1: the two
    # contributions of (2^31 - 1)^2 sum past 2^62
    terms, perm, signs = [(3, C_MAX)], [0, 1], [-C_MAX, -C_MAX]
    with pytest.raises(OverflowError):
        wc.signed_perm_action(terms, perm, signs)
    monkeypatch.setattr(kernel, "_impl", wc)
    assert kernel.signed_perm_action(terms, perm, signs, True) == [(3, 2 * C_MAX**2)]
    big = [(3, 1 << 40)]
    assert kernel.signed_perm_action(big, [1, 0], [1, 1], True) == (
        _wedge_py.signed_perm_action(big, [1, 0], [1, 1])
    )


def test_merge_sign():
    assert kernel.merge_sign(0b0001, 0b0010) == 1  # 1 before 2
    assert kernel.merge_sign(0b0010, 0b0001) == -1
    assert kernel.merge_sign(0b0101, 0b1010) == -1  # (1,3) vs (2,4): one inversion
