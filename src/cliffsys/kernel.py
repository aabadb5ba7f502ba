"""The one seam between the exterior algebra and its accumulation loops.

Two backends export the same names: `Accumulator` (with `add_product`,
`add_square` and `items`), `signed_perm_action` and `BACKEND`.  The C
extension `_wedge_c` is used when it was built, the pure-Python
`_wedge_py` otherwise; set CLIFFSYS_PURE=1 to force the pure one.

The C kernel takes integer coefficients with |c| < 2^31, masks below 2^64
and accumulated values with |acc| < 2^62, and raises OverflowError outside
that range.  Callers say whether their coefficients are all ints (`ints`);
only then is the C kernel tried, and an OverflowError from it restarts the
work on the pure kernel here, in `accumulate` and `signed_perm_action`, so
results are exact on both backends.
"""

from __future__ import annotations

import os

from . import _wedge_py

if os.environ.get("CLIFFSYS_PURE"):
    _impl = _wedge_py
else:
    try:
        from . import _wedge_c as _impl  # type: ignore[no-redef]
    except ImportError:
        _impl = _wedge_py

BACKEND: str = _impl.BACKEND
merge_sign = _wedge_py.merge_sign


def _compiled() -> bool:
    return _impl is not _wedge_py


def new_accumulator(ints: bool):
    """Fresh accumulator; compiled when the int fast path applies."""
    if ints and _compiled():
        return _impl.Accumulator()
    return _wedge_py.Accumulator()


def accumulate(fill, ints: bool):
    """The nonzero terms [(mask, coeff), ...] that `fill(acc)` accumulates
    into a fresh accumulator; `fill` runs again on a pure accumulator when
    the compiled one leaves its range."""
    if ints and _compiled():
        acc = new_accumulator(True)
        try:
            fill(acc)
            return acc.items()
        except OverflowError:
            pass
    acc = new_accumulator(False)
    fill(acc)
    return acc.items()


def signed_perm_action(terms, perm, signs, ints: bool):
    if ints and _compiled():
        try:
            return _impl.signed_perm_action(terms, perm, signs)
        except OverflowError:
            pass
    return _wedge_py.signed_perm_action(terms, perm, signs)
