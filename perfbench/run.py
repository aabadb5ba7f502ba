#!/usr/bin/env python3
"""End-to-end benchmark of cliffsys with checked outputs.

    python3 perfbench/run.py --workload rank10|cli-mix \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The package is built the way `setup.py`
builds it (any optional extension included) into a fresh copy of the
source tree under .bench_build/, keyed by a hash of the sources, and every
operation runs in its own interpreter against that copy, one at a time.
A pass is one run of every operation of the workload; passes repeat until
the next one would end after --seconds, and there is always one.  Outputs
are checked after each pass, outside the timed region, by checks.py.
wall_s is the median pass time over the passes that check.  setup_s is
sampled before the passes and again after them.

--trace 0 reports the end-to-end metrics and records the pass times.
--trace 1 traces every pass, writes the spans to .bench_build/trace/ and
reports the per-layer metrics; the tracing overhead is taken against the
recorded untraced pass times of the same build, or against one untraced
pass made first when there are none.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from checks import CheckError, require  # noqa: E402

ROOT = Path.cwd()
BUILD = ROOT / ".bench_build"
SETUP_SAMPLES = 7
RANK10_TERMS = 234364  # terms of tau_4(psi^D), from the paper


# -- build ------------------------------------------------------------------------


def source_files() -> list[Path]:
    files = [ROOT / "setup.py", ROOT / "pyproject.toml"]
    if not all(f.is_file() for f in files) or not (ROOT / "src" / "cliffsys").is_dir():
        raise SystemExit("perfbench: run from a cliffsys checkout (setup.py, pyproject.toml, src/)")
    return files + sorted(
        p for p in (ROOT / "src").rglob("*")
        if p.is_file() and "__pycache__" not in p.parts and p.suffix not in (".so", ".pyc")
    )


def build_package() -> Path:
    """Copy the sources to .bench_build/pkg-<hash>/ and run the project's
    build there; the pure kernel is used when no extension builds."""
    files = source_files()
    digest = hashlib.sha256()
    for f in files:
        digest.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes())
    dest = BUILD / f"pkg-{digest.hexdigest()[:16]}"
    if (dest / "built").exists():
        return dest
    tmp = BUILD / f"tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    for f in files:
        target = tmp / f.relative_to(ROOT)
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(f, target)
    with open(tmp / "build.log", "wb") as log:
        rc = subprocess.run(
            [sys.executable, "setup.py", "build_ext", "--inplace"],
            cwd=tmp, stdout=log, stderr=subprocess.STDOUT, env=child_env(tmp),
        ).returncode
    # compile the bytecode once, as an installed package has it
    subprocess.run([sys.executable, "-c", "import cliffsys.cli"], env=child_env(tmp), check=True)
    (tmp / "built").write_text(f"setup.py build_ext exit code {rc}\n")
    shutil.rmtree(dest, ignore_errors=True)
    tmp.rename(dest)
    return dest


def child_env(pkg: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(pkg / "src"))
    for key in ("CLIFFSYS_JOBS", "PERFBENCH_TRACE"):
        env.pop(key, None)
    return env


# -- operations ---------------------------------------------------------------------


@dataclass
class Op:
    """One command, run as `python3 child.py <args>` in a fresh process.

    `check(ctx)` raises CheckError when the output is wrong; `ctx` carries
    parsed outputs from earlier operations of the same pass.  A
    `known_fault` operation records a fault of the program that every run
    hits: its failure is counted, but it does not make the run incorrect.
    """

    label: str
    args: list[str]
    check: Callable[[dict], None] | None
    stdout: str | None = None
    expect: tuple[int, ...] = (0,)
    known_fault: str | None = None


def cli(*args) -> list[str]:
    return ["cli", "--jobs", "1", *map(str, args)]


def load(work: Path, name: str):
    with open(work / name) as fh:
        return json.load(fh)


def run_op(op: Op, work: Path, env: dict, trace_file: Path | None) -> dict:
    rss_file = work / "rss.txt"
    env = dict(env, PERFBENCH_RSS=str(rss_file))
    if trace_file:
        env["PERFBENCH_TRACE"] = str(trace_file)
    rss_file.unlink(missing_ok=True)
    out = open(work / op.stdout, "wb") if op.stdout else subprocess.DEVNULL
    with open(work / "stderr.txt", "ab") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), *op.args],
            stdout=out, stderr=err, env=env, cwd=work,
        )
        try:
            proc.wait()
        except BaseException:  # interrupted: leave no process behind
            proc.kill()
            proc.wait()
            raise
        wall = perf_counter() - t0
    if out is not subprocess.DEVNULL:
        out.close()
    rss_kb = int(rss_file.read_text()) if rss_file.exists() else 0
    return {"label": op.label, "wall_s": wall, "rc": proc.returncode, "rss_kb": rss_kb}


# -- workloads ----------------------------------------------------------------------


def rank10(work: Path, seed: int) -> list[Op]:
    """evencliff --emit tau4 to a file, then a fresh process reads it back
    and applies derivation actions."""
    rng = random.Random(seed)
    sampled = [rng.randrange(45)]
    # A complex structure outside the stabilizer: the adjacent pairing
    # e_{2t-1} <-> e_{2t}, which preserves tau_4, with the first pair's sign
    # flipped.
    pairs = [(1, 2, -1)] + [(a, a + 1, 1) for a in range(3, 32, 2)]
    extra = {"n": 32, "entries": sorted([[b, a, s] for a, b, s in pairs] + [[a, b, -s] for a, b, s in pairs])}
    with open(work / "actions.json", "w") as fh:
        json.dump({"generators": sampled, "complex": True, "extra": extra}, fh)

    def check_psi(ctx):
        ctx["psi"] = checks.parse_form_matrix(load(work, "psid.json"), 10, 32)

    def check_tau4(ctx):
        ctx["tau4"] = checks.check_tau_form(
            load(work, "tau4.json"), ctx["psi"], 10, 4, 32, RANK10_TERMS, random.Random(seed), 16)

    def check_readback(ctx):
        result = load(work, "readback.json")
        checks.check_actions(result, ctx["tau4"], checks.signed_perm(extra, 32), len(sampled) + 1)

    return [
        Op("evencliff psiD", cli("--out", "psid.json", "evencliff", "--rank", 10, "--emit", "psiD"), check_psi),
        Op("evencliff tau4", cli("--out", "tau4.json", "evencliff", "--rank", 10, "--emit", "tau4"), check_tau4),
        Op("readback", ["readback", "tau4.json", "actions.json", "readback.json"], check_readback),
    ]


def cli_mix(work: Path, seed: int) -> list[Op]:
    """Short commands, then liealg span/bracket/commutant/normalizer for
    C9 and C10 and the 36 + 84 decomposition on R^16; each a fresh
    interpreter."""
    with open(work / "col0.json", "w") as fh:
        json.dump({"m": 1, "n": 2, "class": "n/a", "generators": [
            {"n": 2, "entries": [[1, 0, 1], [2, 1, 1]]},
            {"n": 2, "entries": [[1, 1, 1], [2, 2, -1]]},
        ]}, fh)

    def text(name):
        return (work / name).read_text()

    ops = [Op("selftest", cli("selftest"), lambda ctx: checks.check_selftest(text("selftest.txt")),
              stdout="selftest.txt")]
    for m in range(1, 17):
        def check_gen(ctx, m=m):
            ctx[m] = checks.check_clifford_system(load(work, f"c{m}.json"), m)

        ops.append(Op(f"gen {m}", cli("--out", f"c{m}.json", "gen", "--m", m), check_gen))
        ops.append(Op(f"verify {m}", cli("verify", "--in", f"c{m}.json"),
                      lambda ctx, m=m: checks.check_verify_report(load(work, f"verify{m}.json")),
                      stdout=f"verify{m}.json"))
    ops.append(Op("verify column 0", cli("verify", "--in", "col0.json"), None, stdout="col0-report.json",
                  expect=(1, 2), known_fault="matrix_from_json reads column 0 as column n"))

    def check_spin9(ctx):
        ctx["spin9"] = checks.check_invariant_form(load(work, "spin9.json"), 16, 8, 702, ctx[8])

    def check_spin8(ctx):
        checks.check_invariant_form(load(work, "spin8.json"), 16, 4, 112, ctx[8][:8])

    def check_tau4c(ctx):
        terms = checks.parse_form(load(work, "tau4c.json"), 16, 8)
        require(terms == {k: 360 * v for k, v in ctx["spin9"].items()}, "tau4(psi^C) != 360 Spin9")

    def check_rep(ctx):
        data = load(work, "rep9.json")
        require(data["m"] == 9 and data["delta"] == checks.DELTA[9], "rep --m 9 has the wrong shape")
        mats = [checks.signed_perm(e, 16) for e in data["matrices"]]
        checks.check_complex_structures(mats, 16, 8, "rep --m 9")

    def check_classify(ctx):
        data = load(work, "classify12.json")
        require(data["rank"] == 12 and data["verdict"] == "Essential", f"rank 12 verdict {data['verdict']}")

    ops += [
        Op("form spin9", cli("form", "--name", "spin9"), check_spin9, stdout="spin9.json"),
        Op("form spin8", cli("form", "--name", "spin8"), check_spin8, stdout="spin8.json"),
        Op("form spin7", cli("form", "--name", "spin7"),
           lambda ctx: require(checks.parse_form(load(work, "spin7.json"), 16, 4), "Spin7 is zero"),
           stdout="spin7.json"),
        Op("form omegaL", cli("form", "--name", "omegaL"),
           lambda ctx: require(checks.parse_form(load(work, "omegaL.json"), 8, 4), "OmegaL is zero"),
           stdout="omegaL.json"),
        Op("form tau4 psiC", cli("form", "--tau", 4, "--psi", "C"), check_tau4c, stdout="tau4c.json"),
        Op("sphere-fields 128", cli("sphere-fields", "--n", 128),
           lambda ctx: checks.check_sphere_fields(load(work, "fields128.json"), 128),
           stdout="fields128.json"),
        Op("rep 9", cli("rep", "--m", 9), check_rep, stdout="rep9.json"),
        Op("octonion table", cli("octonion", "--table"),
           lambda ctx: checks.check_octonion_table(text("octonion.txt")), stdout="octonion.txt"),
        Op("evencliff classify 12", cli("evencliff", "--classify", 12), check_classify,
           stdout="classify12.json"),
    ]
    for m in (9, 10):
        def check_liealg(ctx, m=m):
            commutant = checks.commutant_by_characters(ctx[m])
            checks.check_liealg_report(load(work, f"liealg{m}.json"), m, commutant)

        ops.append(Op(f"liealg C{m}", cli("liealg", "--system", f"C{m}", "--check",
                                          "span,bracket,commutant,normalizer"),
                      check_liealg, stdout=f"liealg{m}.json"))
    ops.append(Op("liealg decomposition", cli("liealg", "--system", "C8", "--check", "decomposition"),
                  lambda ctx: checks.check_decomposition(load(work, "decomposition.json")),
                  stdout="decomposition.json"))
    return ops


WORKLOADS = {"rank10": rank10, "cli-mix": cli_mix}


# -- passes ---------------------------------------------------------------------------


def run_pass(ops: list[Op], work: Path, env: dict, trace_dir: Path | None) -> dict:
    """Run every operation once (timed), then check the outputs (untimed)."""
    results = []
    t0 = perf_counter()
    for i, op in enumerate(ops):
        trace_file = trace_dir / f"op{i:02d}.json" if trace_dir else None
        results.append(run_op(op, work, env, trace_file))
    wall = perf_counter() - t0
    ctx: dict = {}
    failed = 0
    ok = True
    for op, res in zip(ops, results):
        problem = None
        if res["rc"] not in op.expect:
            problem = f"exit code {res['rc']}, want {' or '.join(map(str, op.expect))}"
        elif op.check is not None:
            try:
                op.check(ctx)
            except (CheckError, OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                problem = f"{type(exc).__name__}: {exc}"
        if problem:
            failed += 1
            tag = "known fault, " + op.known_fault if op.known_fault else "check failed"
            ok = ok and op.known_fault is not None
            print(f"perfbench: {op.label}: {problem} ({tag})", file=sys.stderr)
    return {"wall_s": wall, "ok": ok, "failed": failed, "ops": results,
            "peak_rss_mb": max(r["rss_kb"] for r in results) / 1024}


def measure(ops, work, env, seconds, trace_root: Path | None) -> list[dict]:
    """Passes until the next would end after `seconds`; at least one.  With
    `trace_root` every pass is traced, into trace_root/pass<i>/."""
    passes = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        trace_dir = None
        if trace_root is not None:
            trace_dir = trace_root / f"pass{len(passes)}"
            trace_dir.mkdir(parents=True)
        passes.append(run_pass(ops, work, env, trace_dir))
        passes[-1]["trace_dir"] = trace_dir
        if perf_counter() - start + (perf_counter() - t0) > seconds:
            return passes


def setup_seconds(env: dict) -> list[float]:
    """Fresh interpreters importing the package, as every command does."""
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import cliffsys, cliffsys.cli"], env=env, check=True)
        times.append(perf_counter() - t0)
    return times


# -- per-layer metrics from spans ------------------------------------------------------

LAYERS = ("kernel", "forms", "liealg", "exactmat", "clifford", "evencliff", "spheres",
          "algebras", "acceptance", "cli", "io", "process")


def layer_metrics(traced: dict, plain_wall: float) -> dict:
    records = []  # (names along the path, calls, total_s, self_s)
    counts: dict[str, int] = {}
    other = 0.0  # interpreter start-up and tear-down outside the launcher
    side = []
    for i, res in enumerate(traced["ops"]):
        path = traced["trace_dir"] / f"op{i:02d}.json"
        data = json.loads(path.read_text())
        side.append({"op": res["label"], "wall_s": res["wall_s"], **data})
        other += res["wall_s"] - data["launcher_s"]
        for span in data["spans"]:
            records.append((span["path"].split("/"), span["calls"], span["total_s"], span["self_s"]))
        for key, value in data["counts"].items():
            counts[key] = counts.get(key, 0) + value
    (traced["trace_dir"] / "spans.json").write_text(json.dumps(side, indent=1))

    def outer(name):
        return [r for r in records if r[0][-1] == name and name not in r[0][:-1]]

    def calls(name):
        return sum(r[1] for r in outer(name))

    def busy(name):
        return sum(r[2] for r in outer(name))

    def self_s(name):
        return sum(r[3] for r in records if r[0][-1] == name)

    def ratio(a, b):
        return a / b if b else 0.0

    c = counts.get
    m = {
        "kernel.square.calls": calls("kernel.square"),
        "kernel.square.pairs": c("kernel.square.pairs", 0),
        "kernel.square.busy_s": busy("kernel.square"),
        "kernel.square.pairs_per_s": ratio(c("kernel.square.pairs", 0), busy("kernel.square")),
        "kernel.product.calls": calls("kernel.product"),
        "kernel.product.pairs": c("kernel.product.pairs", 0),
        "kernel.product.busy_s": busy("kernel.product"),
        "kernel.perm_action.calls": calls("kernel.perm_action"),
        "kernel.perm_action.letters": c("kernel.perm_action.letters", 0),
        "kernel.perm_action.busy_s": busy("kernel.perm_action"),
        "kernel.perm_action.terms_out": c("kernel.perm_action.terms_out", 0),
        "kernel.accum.keys": c("kernel.accum.keys", 0),
        "kernel.accum.useful_ratio": ratio(
            c("kernel.accum.keys", 0), c("kernel.square.pairs", 0) + c("kernel.product.pairs", 0)),
        "kernel.overflow_retries": c("kernel.overflow_retries", 0),
        "forms.pfaffian.calls": calls("forms.pfaffian"),
        "forms.pfaffian.self_s": self_s("forms.pfaffian"),
        "forms.tau.self_s": self_s("forms.tau"),
        "forms.kform.calls": calls("forms.kform"),
        "forms.kform.terms": c("forms.kform.terms", 0),
        "forms.kform.busy_s": busy("forms.kform"),
        "forms.lie_action.self_s": self_s("forms.lie_action"),
        "forms.to_json.busy_s": busy("forms.to_json"),
        "forms.from_json.busy_s": busy("forms.from_json"),
        "cli.encode_s": busy("cli.encode"),
        "cli.write_s": busy("cli.write"),
        "cli.output_bytes": c("cli.output_bytes", 0),
        "liealg.echelon.rows": c("liealg.echelon.rows", 0),
        "liealg.echelon.pivots": c("liealg.echelon.pivots", 0),
        "liealg.echelon.useful_ratio": ratio(c("liealg.echelon.pivots", 0), c("liealg.echelon.rows", 0)),
        "liealg.echelon.busy_s": busy("liealg.echelon"),
        "liealg.span.self_s": self_s("liealg.span"),
        "liealg.commutant.self_s": self_s("liealg.commutant"),
        "liealg.normalizer.self_s": self_s("liealg.normalizer"),
        "exactmat.mul.calls": calls("exactmat.mul"),
        "exactmat.mul.busy_s": busy("exactmat.mul"),
        "exactmat.apply_vector.busy_s": busy("exactmat.apply_vector"),
        "spheres.verify.points": c("spheres.verify.points", 0),
        "spheres.verify.busy_s": busy("spheres.verify"),
        "clifford.build.busy_s": busy("clifford.build"),
        "clifford.verify.busy_s": busy("clifford.verify"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(r[3] for r in records if r[0][-1].startswith(layer + "."))
    m["process.self_s"] += other
    m["trace.self_sum_s"] = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    m["trace.unaccounted_s"] = traced["wall_s"] - m["trace.self_sum_s"]
    m["trace.overhead_s"] = traced["wall_s"] - plain_wall
    return m


def unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_mb"):
        return "MB"
    return "count"


# -- main -------------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds, so the running operation is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    pkg = build_package()
    env = child_env(pkg)
    backend = subprocess.run(
        [sys.executable, "-c", "import cliffsys; print(cliffsys.KERNEL_BACKEND)"],
        env=env, check=True, capture_output=True, text=True,
    ).stdout.strip()
    work = BUILD / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # Untraced pass times of this build, the reference for trace.overhead_s.
    history = pkg / f"untraced-{args.workload}.json"
    reference = json.loads(history.read_text()) if history.exists() else []
    trace_root = None
    if args.trace:
        trace_root = BUILD / "trace" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
        shutil.rmtree(trace_root, ignore_errors=True)
    try:
        ops = WORKLOADS[args.workload](work, args.seed)
        plain = []
        if args.trace and not reference:
            plain = [run_pass(ops, work, env, None)]
        # Import times are sampled at both ends of the run, so that their
        # median spans the host's slow and fast stretches as the passes do.
        setup = [] if args.trace else setup_seconds(env)
        measured = measure(ops, work, env, args.seconds, trace_root)
        if not args.trace:
            setup += setup_seconds(env)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = plain + measured
    correct = all(p["ok"] for p in passes)
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    good = [p for p in measured if p["ok"]] or measured
    if args.trace:
        untraced = statistics.median(reference or [p["wall_s"] for p in plain])
        per_pass = [layer_metrics(p, untraced) for p in measured]
        metrics = {k: statistics.median(r[k] for r in per_pass) for k in per_pass[0]}
    else:
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in good),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in good),
        }
        if correct:
            reference = (reference + [p["wall_s"] for p in good])[-32:]
            history.write_text(json.dumps(reference))
    print(f"workload {args.workload} seed {args.seed} backend {backend} "
          f"passes {len(passes)} attempted {attempted} failed {failed}"
          + (f" spans {trace_root}" if trace_root else ""))
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {unit(name)}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit(name)}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
