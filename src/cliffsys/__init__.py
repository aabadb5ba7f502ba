"""Exact engine for Clifford systems, octonionic invariant forms, and
Hurwitz-Radon vector fields on spheres.  All arithmetic is exact
integer/rational; no floating point anywhere.

The public names are resolved on first use (PEP 562), so `import cliffsys`
loads no submodule and each command line loads only the modules it runs."""

from importlib import import_module

__version__ = "0.1.0"

# public name -> "module" or "module.attribute" it is read from
_EXPORTS = {
    "AlgebraTable": "algebras",
    "CliffordRepresentation": "clifford",
    "CliffordSystem": "clifford",
    "FormMatrix": "forms",
    "KForm": "forms",
    "KERNEL_BACKEND": "kernel.BACKEND",
    "MatrixSpan": "liealg",
    "RationalMatrix": "exactmat",
    "SignedPermMatrix": "exactmat",
    "algebra_table": "algebras",
    "build": "clifford",
    "canonical_form": "forms",
    "class_trace": "clifford",
    "classify_essential": "clifford",
    "delta": "clifford",
    "double": "clifford",
    "from_representation": "clifford",
    "hodge_star": "forms",
    "kaehler_form": "forms",
    "kaehler_matrix": "forms",
    "left_mult": "algebras",
    "lie_action": "forms",
    "psi_matrix": "forms",
    "right_mult": "algebras",
    "spin9_symmetric": "algebras",
    "tau": "forms",
    "tilde": "clifford",
    "triple_span_decomposition": "liealg",
    "to_representation": "clifford",
    "verify": "clifford",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    try:
        module, _, attr = _EXPORTS[name].partition(".")
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{module}"), attr or name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
