"""One benchmark operation, run in a fresh interpreter.

    python3 child.py cli <cliffsys arguments...>
    python3 child.py readback <tau4.json> <actions.json> <result.json>

`cli` runs the command line exactly as the console script does.
`readback` loads an emitted form with forms.form_from_json and applies
forms.lie_action for the generators listed in actions.json: indices into
the 45 span generators of the rank-10 structure, the complex structure I,
and one extra signed permutation in the matrix wire format.  It writes
the term count of every result, and the full extra result, to
result.json.

The process writes its peak RSS in kB to the path in PERFBENCH_RSS.  With
PERFBENCH_TRACE set to a path, the module boundaries of cliffsys are
traced and the spans are written to that path; stdout is untouched.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter

START = perf_counter()


def readback(form_path: str, actions_path: str, result_path: str) -> int:
    import cliffsys
    from cliffsys.evencliff import build_e10
    from cliffsys.exactmat import matrix_from_json
    from cliffsys.forms import form_from_json, form_to_json, lie_action

    with open(form_path) as fh:
        form = form_from_json(json.load(fh))
    with open(actions_path) as fh:
        actions = json.load(fh)
    e10 = build_e10()
    products = e10.pairwise_products()
    invariant = [products[i] for i in actions["generators"]]
    if actions["complex"]:
        invariant.append(e10.complex_generators[0])
    extra = lie_action(matrix_from_json(actions["extra"]), form)
    result = {
        "backend": cliffsys.KERNEL_BACKEND,
        "terms": form.num_terms(),
        "invariant": [lie_action(x, form).num_terms() for x in invariant],
        "extra": form_to_json(extra),
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh, separators=(",", ":"))
    return 0


def peak_rss_kb() -> int:
    """High-water RSS of this process since exec.  getrusage and wait4 would
    also count the parent's pages that the child held before exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    try:
        return run(sys.argv[1], sys.argv[2:])
    finally:
        if os.environ.get("PERFBENCH_RSS"):
            with open(os.environ["PERFBENCH_RSS"], "w") as fh:
                fh.write(f"{peak_rss_kb()}\n")


def run(mode: str, args: list[str]) -> int:
    trace_path = os.environ.get("PERFBENCH_TRACE")
    if not trace_path:
        import cliffsys.cli

        if mode == "cli":
            return cliffsys.cli.main(args)
        return readback(*args)

    from tracer import Tracer, install

    tracer = Tracer()

    def load():
        import cliffsys.cli  # noqa: F401

    tracer.wrap("process.import", load)()
    install(tracer)
    import cliffsys.cli

    if mode == "cli":
        run = tracer.wrap("cli.main", cliffsys.cli.main)
    else:
        run = tracer.wrap("io.readback", readback)
    try:
        return run(args) if mode == "cli" else run(*args)
    finally:
        tracer.dump(trace_path, launcher_s=perf_counter() - START)


if __name__ == "__main__":
    sys.exit(main())
