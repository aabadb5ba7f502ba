"""The public API, pinned: the names `cliffsys` exports, the public
attributes of each exported class and the parameters of each exported
function.  Adding or removing a public name or parameter is a deliberate
change to this file, so it shows in review the way a change to the CLI
output shows in the CLI goldens."""

import inspect

import cliffsys

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
