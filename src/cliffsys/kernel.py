"""Wedge-kernel selection: the C extension `_wedge_c` when built, pure
Python (`_wedge_py`) otherwise.

Set CLIFFSYS_PURE=1 to force the pure backend.  The C kernel takes integer
coefficients with |c| < 2^31, masks below 2^64 and accumulated values with
|acc| < 2^62; outside that range it raises OverflowError.
Callers pass an `ints` flag, and every OverflowError restarts the call on
the pure twin, so results are exact on both backends.
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


def wedge_terms(ta, tb, ints: bool):
    if ints and _compiled():
        try:
            return _impl.wedge_terms(ta, tb)
        except OverflowError:
            pass
    return _wedge_py.wedge_terms(ta, tb)


def square_terms(ta, ints: bool):
    if ints and _compiled():
        try:
            return _impl.square_terms(ta)
        except OverflowError:
            pass
    return _wedge_py.square_terms(ta)


def new_accumulator(ints: bool):
    """Fresh accumulator; compiled when the int fast path applies.

    Accumulator methods may raise OverflowError, in which case the caller
    restarts the whole computation with `new_accumulator(False)`.
    """
    if ints and _compiled():
        return _impl.Accumulator()
    return _wedge_py.Accumulator()


def signed_perm_action(terms, perm, signs, ints: bool):
    if ints and _compiled() and len(perm) <= 64:
        try:
            return _impl.signed_perm_action(terms, perm, signs)
        except OverflowError:
            pass
    return _wedge_py.signed_perm_action(terms, perm, signs)
