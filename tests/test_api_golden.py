"""The public API, pinned: the names `cliffsys` exports and the public
attributes of each exported class.  Adding or removing a public name is a
deliberate change to this file, so it shows in review the way a change to
the CLI output shows in the CLI goldens."""

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
    "RationalMatrix": ["from_rows", "identity", "is_symmetric", "mul", "ncols", "nrows", "rows",
                       "transpose"],
    "SignedPermMatrix": ["anticommutes", "apply", "apply_vector", "commutes", "dense", "entries",
                         "from_dense", "identity", "is_complex_structure", "is_involution",
                         "kron", "mul", "n", "perm", "signs", "trace", "transpose"],
}


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
