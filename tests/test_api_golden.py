"""The public API, pinned: the names `cliffsys` exports, the public
attributes of each exported class and the parameters of each exported
function, and the exception and message each check of the API raises.
Adding or removing a public name or parameter is a deliberate change to
this file, so it shows in review the way a change to the CLI output shows
in the CLI goldens."""

import inspect

import pytest

import cliffsys
from cliffsys.algebras import AlgebraTable
from cliffsys.clifford import CliffordSystem, to_representation
from cliffsys.exactmat import SignedPermMatrix, matrix_from_json, swap
from cliffsys.forms import FormMatrix, KForm, kaehler_matrix, lie_action, parse_monomial_token
from cliffsys.liealg import MatrixSpan, commutant_dim

EXPORTS = [
    "AlgebraTable",
    "CliffordRepresentation",
    "CliffordSystem",
    "FormMatrix",
    "KERNEL_BACKEND",
    "KForm",
    "MatrixSpan",
    "RationalMatrix",
    "SignedPermMatrix",
    "algebra_table",
    "build",
    "canonical_form",
    "class_trace",
    "classify_essential",
    "delta",
    "double",
    "from_representation",
    "hodge_star",
    "kaehler_form",
    "kaehler_matrix",
    "left_mult",
    "lie_action",
    "psi_matrix",
    "right_mult",
    "spin9_symmetric",
    "tau",
    "tilde",
    "to_representation",
    "triple_span_decomposition",
    "verify",
]

CLASS_ATTRIBUTES = {
    "AlgebraTable": ["dim", "labels", "table", "text_grid"],
    "CliffordRepresentation": ["delta", "matrices", "validate"],
    "CliffordSystem": ["class_tag", "generators", "m", "n"],
    "FormMatrix": ["entry", "n", "size", "upper_items"],
    "KForm": ["coefficient", "content", "from_terms", "is_zero", "k", "mask_items", "monomial",
              "n", "num_terms", "restrict", "scale", "terms", "wedge", "wedge_square", "zero"],
    "MatrixSpan": ["bracket_closed", "contains", "rank"],
    "RationalMatrix": ["ncols", "nrows", "rows"],
    "SignedPermMatrix": ["anticommutes", "apply", "apply_vector", "commutes", "dense", "entries",
                         "from_dense", "identity", "is_complex_structure", "is_involution",
                         "kron", "mul", "n", "perm", "signs", "trace", "transpose"],
}

# parameter names, kinds and defaults; annotations are left out, since the
# modules defer them to strings (`from __future__ import annotations`)
FUNCTION_SIGNATURES = {
    "algebra_table": "(dim=8)",
    "build": "(m, cls='plus')",
    "canonical_form": "(name)",
    "class_trace": "(system)",
    "classify_essential": "(m)",
    "delta": "(m)",
    "double": "(system)",
    "from_representation": "(rep)",
    "hodge_star": "(a)",
    "kaehler_form": "(j)",
    "kaehler_matrix": "(generators)",
    "left_mult": "(u, dim=8)",
    "lie_action": "(x, a)",
    "psi_matrix": "(family)",
    "right_mult": "(u, dim=8)",
    "spin9_symmetric": "(u, r)",
    "tau": "(psi, k)",
    "tilde": "(m)",
    "to_representation": "(system)",
    "triple_span_decomposition": "(generators)",
    "verify": "(system)",
}


def unannotated(fn) -> str:
    """The signature of `fn` as text, without annotations; `inspect.signature`
    follows `__wrapped__`, so an `lru_cache` export shows its own parameters."""
    sig = inspect.signature(fn)
    params = [p.replace(annotation=p.empty) for p in sig.parameters.values()]
    return str(sig.replace(parameters=params, return_annotation=sig.empty))


def test_exported_names():
    assert sorted(cliffsys.__all__) == EXPORTS


def test_public_attributes_of_exported_classes():
    classes = {name: getattr(cliffsys, name) for name in EXPORTS}
    public = {
        name: sorted(attr for attr in dir(value) if not attr.startswith("_"))
        for name, value in classes.items()
        if isinstance(value, type)
    }
    assert public == CLASS_ATTRIBUTES


def test_signatures_of_exported_functions():
    values = {name: getattr(cliffsys, name) for name in EXPORTS}
    signatures = {
        name: unannotated(value)
        for name, value in values.items()
        if inspect.isfunction(inspect.unwrap(value))
    }
    assert signatures == FUNCTION_SIGNATURES


# -- refusals -----------------------------------------------------------------

I2, I4 = SignedPermMatrix.identity(2), SignedPermMatrix.identity(4)
E12 = KForm.monomial(4, (1, 2))
# on R^4 with P_0 = swap(2) and P_1 P_2 = P_2, which swaps e_1 and e_2 and so
# leaves the +1 eigenspace of P_0
NOT_DIAGONAL = CliffordSystem(2, 4, (swap(2), I4, SignedPermMatrix(4, (1, 0, 2, 3), (1,) * 4)),
                              "n/a")
NO_UNIT = {(0, 0): (0, 1), (0, 1): (1, -1), (1, 0): (1, 1), (1, 1): (0, -1)}

# the call, the exception it raises and its message, one row per check
REFUSALS = [
    (lambda: KForm.monomial(4, (0, 1)), ValueError, "index 0 outside 1..4"),
    (lambda: KForm.monomial(4, (2, 1)), ValueError, "indices must be strictly increasing"),
    (lambda: KForm(0, 2), ValueError, "need n >= 1 and k >= 0"),
    (lambda: KForm(4, 2, {1: 1}), ValueError, "term does not match degree/ambient"),
    (lambda: KForm.from_terms(4, 2, [((1,), 1)]), ValueError, "term of wrong degree"),
    (lambda: E12 + KForm.zero(5, 2), ValueError, "ambient dimension mismatch"),
    (lambda: E12 + KForm.zero(4, 3), ValueError, "degree mismatch"),
    (lambda: FormMatrix(0, 4, {}), ValueError, "size must be positive"),
    (lambda: FormMatrix(2, 4, {(1, 0): E12}), ValueError, "upper entries need 0 <= i < j < size"),
    (lambda: FormMatrix(2, 4, {(0, 1): KForm.monomial(5, (1, 2))}), ValueError,
     "entries must be 2-forms on the common ambient"),
    (lambda: FormMatrix(2, 4, {}).entry(0, 2), ValueError, "index out of range"),
    (lambda: kaehler_matrix([]), ValueError, "need at least one generator"),
    (lambda: lie_action(I4.dense(), E12), TypeError, "x must be a SignedPermMatrix"),
    (lambda: lie_action(I2, E12), ValueError, "shape mismatch"),
    (lambda: parse_monomial_token("s1x"), ValueError, "bad monomial token 's1x'"),
    (lambda: MatrixSpan([]), ValueError, "need at least one matrix"),
    (lambda: MatrixSpan([I2, I4]), ValueError, "matrices must share one order"),
    (lambda: commutant_dim([]), ValueError, "need at least one matrix"),
    (lambda: commutant_dim([I2, I4]), ValueError, "matrices must share one order"),
    (lambda: SignedPermMatrix(0, (), ()), ValueError, "order must be positive"),
    (lambda: SignedPermMatrix(2, (0,), (1,)), ValueError, "perm/signs length must equal order"),
    (lambda: SignedPermMatrix.from_dense([[1, 0]]), ValueError, "matrix is not square"),
    (lambda: SignedPermMatrix.from_dense([[2, 0], [0, 1]]), ValueError,
     "not a signed permutation matrix"),
    (lambda: I2.apply_vector([1]), ValueError, "vector length mismatch"),
    (lambda: matrix_from_json({"n": 2, "entries": [[1, 1, 2], [2, 2, 1]]}), ValueError,
     "signs must be +-1"),
    (lambda: matrix_from_json({"n": 2, "entries": [[1, 1, 1], [2, 1, 1]]}), ValueError,
     "targets do not form a permutation"),
    (lambda: AlgebraTable(2, ("1", "i"), NO_UNIT), ValueError, "e_1 must be a two-sided unit"),
    (lambda: to_representation(NOT_DIAGONAL), ValueError,
     "matrix does not preserve the eigenspace"),
]


@pytest.mark.parametrize("call, error, message", REFUSALS, ids=[r[2] for r in REFUSALS])
def test_each_check_refuses_with_its_message(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value) == message
