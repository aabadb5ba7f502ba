"""The one seam between the exterior algebra and its compiled loops.

Both backends export `Accumulator` (with `add_product`, `add_square` and
`items`), `signed_perm_action` and `BACKEND`.  The C extension `_wedge_c`
also exports `MASK_BITS`, the width of its masks, `BATCH`, the number of
(key, value) pairs its product, square and derivation-action loops queue,
with each key's table slot prefetched, before adding them to the table in
order, and the wire format of integral forms: `form_json_text`, the text
`forms.form_to_json_text` writes, `form_json_dict`, the dict
`forms.form_to_json` returns, and `form_json_terms`, the terms of a parsed
form document's `terms`.  The pure side of the wire format stays in
`forms`, which passes it here as `pure`.  `_wedge_c` is used when it was
built, the pure-Python `_wedge_py` otherwise; set CLIFFSYS_PURE=1 to force
the pure one (an empty value or 0 leaves the choice as it is).

Terms travel as sequences of (mask, coeff) pairs.  The pure kernel returns
lists of tuples.  The C kernel returns a `Terms`, also exported: an
immutable block of (uint64 mask, int64 coeff) pairs in wire order (the
lexicographic order of index tuples), whose `len` is the term count and
whose items are (mask, coeff) tuples.  It is a plain sequence with no
equality of its own, so compare `list(terms)`.  `items()`,
`signed_perm_action` and `form_json_terms` return one, and only they make
one, so a `Terms` never leaves the process; every C entry point reads a
`Terms` without converting it and copies any other sequence of pairs.  A
`forms.KForm` keeps the sequence it is made from as its terms, so a form
read, acted on, counted and written on the C kernel stays a `Terms`.

The C kernel accumulates integer coefficients with |c| < 2^31 into values
with |acc| < 2^62; it writes and reads coefficients with |c| < 2^63 and
reads only canonical integer documents.  It declines anything else, a
coefficient that is not an exact int (a Fraction, even Fraction(4, 1), or a
bool) included, by raising OverflowError when it loads the terms.  Callers
pass only the terms and the dimension n of their R^n: the C kernel is tried
for all work on R^n with n <= MASK_BITS, and a decline restarts the work
on the pure side, both in `_run`, so results are exact and equal on both
backends.
"""

from __future__ import annotations

import os

from . import _wedge_py

if os.environ.get("CLIFFSYS_PURE", "") not in ("", "0"):
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


def _run(compiled, pure, n: int):
    """compiled() when the C kernel may take work on R^n and does not
    decline, pure() otherwise."""
    if _compiled() and n <= _impl.MASK_BITS:
        try:
            return compiled()
        except OverflowError:
            pass
    return pure()


def new_accumulator(compiled: bool):
    """Fresh accumulator: the C kernel's when `compiled`, the pure one's otherwise."""
    return _impl.Accumulator() if compiled else _wedge_py.Accumulator()


def accumulate(fill, n: int):
    """The nonzero (mask, coeff) terms on R^n that `fill(acc)` accumulates
    into a fresh accumulator; `fill` runs again on a pure accumulator when
    the compiled one declines."""

    def run(acc):
        fill(acc)
        return acc.items()

    return _run(lambda: run(new_accumulator(True)), lambda: run(new_accumulator(False)), n)


def signed_perm_action(terms, perm, signs):
    return _run(
        lambda: _impl.signed_perm_action(terms, perm, signs),
        lambda: _wedge_py.signed_perm_action(terms, perm, signs),
        len(perm),
    )


def form_json_text(n: int, k: int, terms, pure):
    """The JSON text of the k-form on R^n with the (mask, coeff) `terms`."""
    return _run(lambda: _impl.form_json_text(n, k, terms), pure, n)


def form_json_dict(n: int, k: int, terms, pure):
    """The JSON document of the k-form on R^n with the (mask, coeff) `terms`,
    as the dict that `json.loads` would give for its text."""
    return _run(lambda: _impl.form_json_dict(n, k, terms), pure, n)


def form_json_terms(n: int, k: int, items: list, pure):
    """The nonzero (mask, coeff) terms of the `terms` list of a form document
    on R^n of degree k: a `Terms` from the C kernel, the list of `pure()`,
    which reads the documents the C kernel declines and owns the input
    contract."""
    return _run(lambda: _impl.form_json_terms(n, k, items), pure, n)
