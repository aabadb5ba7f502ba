import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import cliffsys
from cliffsys import cli
from cliffsys.cli import EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main

from test_exactmat import ILL_FORMED_MATRIX_JSON


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_emits_system_json(capsys):
    code, out, _ = run_cli(["gen", "--m", "8"], capsys)
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["m"] == 8 and data["n"] == 16
    assert len(data["generators"]) == 9
    assert abs(data["classTrace"]) == 16
    for gen in data["generators"]:
        assert all(v in (1, -1) for _, _, v in gen["entries"])


def test_gen_verify_round_trip(tmp_path, capsys):
    path = tmp_path / "c8.json"
    code = main(["--out", str(path), "gen", "--m", "8"])
    assert code == EXIT_OK
    code, out, _ = run_cli(["verify", "--in", str(path)], capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report == {
        "symmetric": True,
        "involutions": True,
        "anticommuting": True,
        "irreducibleDimension": True,
        "firstFailure": None,
    }


def test_verify_detects_corruption(tmp_path, capsys):
    path = tmp_path / "bad.json"
    main(["--out", str(path), "gen", "--m", "4"])
    data = json.loads(path.read_text())
    data["generators"][1] = data["generators"][2]
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(["verify", "--in", str(path)], capsys)
    assert code == EXIT_VERIFY
    assert json.loads(out)["anticommuting"] is False


@pytest.mark.parametrize("bad", ILL_FORMED_MATRIX_JSON)
def test_verify_rejects_ill_formed_system(tmp_path, capsys, bad):
    path = tmp_path / "c1.json"
    main(["--out", str(path), "gen", "--m", "1"])
    data = json.loads(path.read_text())
    data["generators"][0] = bad
    path.write_text(json.dumps(data))
    code, out, err = run_cli(["verify", "--in", str(path)], capsys)
    assert code == EXIT_VERIFY
    assert out == ""
    assert "ill-formed system" in err


C1_GENERATORS = [
    {"n": 2, "entries": [[1, 2, 1], [2, 1, 1]]},
    {"n": 2, "entries": [[1, 1, 1], [2, 2, -1]]},
]


@pytest.mark.parametrize("data", [
    pytest.param([], id="list"),
    pytest.param({}, id="empty-dict"),
    pytest.param("C1", id="string"),
    pytest.param(None, id="null"),
    pytest.param({"m": "x", "generators": []}, id="string-m"),
    pytest.param({"m": 1, "generators": [{"n": 2}]}, id="missing-n"),
    pytest.param({"m": 1, "generators": 5}, id="int-generators"),
    pytest.param({"m": 1, "n": 2}, id="missing-generators"),
    pytest.param({"n": 2, "generators": C1_GENERATORS}, id="missing-m"),
    pytest.param({"m": True, "n": 2, "generators": C1_GENERATORS}, id="bool-m"),
    pytest.param({"m": 1, "n": 2.0, "generators": C1_GENERATORS}, id="float-n"),
    pytest.param({"m": 1, "n": 2, "generators": {"0": C1_GENERATORS[0]}}, id="dict-generators"),
])
def test_verify_rejects_ill_shaped_system_file(tmp_path, capsys, data):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(["verify", "--in", str(path)], capsys)
    assert code == EXIT_VERIFY, err
    assert out == ""
    assert "ill-formed system" in err


def test_gen_tilde_and_minus(capsys):
    code, out, _ = run_cli(["gen", "--m", "4", "--tilde"], capsys)
    plus = json.loads(run_cli(["gen", "--m", "4"], capsys)[1])
    assert code == EXIT_OK
    assert json.loads(out)["classTrace"] == -plus["classTrace"]
    code, out, _ = run_cli(["gen", "--m", "12", "--class", "minus"], capsys)
    assert json.loads(out)["classTrace"] == -128 or json.loads(out)["classTrace"] == 128


def test_rep_subcommand(capsys):
    code, out, _ = run_cli(["rep", "--m", "9"], capsys)
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["delta"] == 16
    assert len(data["matrices"]) == 8


def test_form_by_name_and_formats(capsys):
    code, out, _ = run_cli(["form", "--name", "spin9"], capsys)
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["N"] == 16 and data["k"] == 8
    assert len(data["terms"]) == 702
    idxs = [tuple(t["idx"]) for t in data["terms"]]
    assert idxs == sorted(idxs)
    code, out, _ = run_cli(["--format", "text", "form", "--name", "omegaL"], capsys)
    assert code == EXIT_OK
    assert "s1234" in out


def test_form_tau_zero(capsys):
    code, out, _ = run_cli(["form", "--tau", "2", "--psi", "C"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["terms"] == []


def test_form_tau_0_is_the_constant_one(capsys):
    code, out, _ = run_cli(["form", "--tau", "0", "--psi", "C"], capsys)
    assert code == EXIT_OK
    assert json.loads(out) == {"N": 16, "k": 0, "terms": [{"idx": [], "c": "1"}]}


def test_form_tau_negative_k_is_a_usage_error(capsys):
    code, out, err = run_cli(["form", "--tau", "-2", "--psi", "C"], capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "usage error: k must be >= 0\n"


def test_usage_errors_exit_one(capsys):
    assert run_cli(["gen", "--m", "40"], capsys)[0] == EXIT_USAGE
    assert run_cli(["form"], capsys)[0] == EXIT_USAGE
    assert run_cli(["nonsense"], capsys)[0] == EXIT_USAGE
    assert run_cli(["liealg", "--system", "Q8"], capsys)[0] == EXIT_USAGE
    assert run_cli(["gen", "--m", "5", "--class", "minus"], capsys)[0] == EXIT_USAGE


def _broken_handler(config):
    raise RuntimeError("broken handler")


# one row per documented exit path: argv ({tmp} is a directory holding
# bad.json, which is not JSON, and corrupt.json, a system failing verify),
# environment, a handler put in place of the subcommand's, expected code
EXIT_PATHS = [
    pytest.param(["octonion", "--table"], {}, None, EXIT_OK, id="ok"),
    pytest.param(["verify", "--in", "{tmp}/bad.json"], {}, None, EXIT_USAGE,
                 id="malformed-json"),
    pytest.param(["verify", "--in", "{tmp}/missing.json"], {}, None, EXIT_USAGE,
                 id="missing-file"),
    pytest.param(["octonion", "--table"], {"CLIFFSYS_JOBS": "two"}, None, EXIT_USAGE,
                 id="non-integer-jobs"),
    pytest.param(["sphere-fields", "--n", "16", "--points", "-1"], {}, None, EXIT_USAGE,
                 id="negative-points"),
    pytest.param(["--out", "{tmp}/missing/c2.json", "gen", "--m", "2"], {}, None, EXIT_USAGE,
                 id="missing-dir"),
    pytest.param(["--out", "{tmp}", "gen", "--m", "2"], {}, None, EXIT_USAGE,
                 id="is-a-directory"),
    pytest.param(["verify", "--in", "{tmp}/corrupt.json"], {}, None, EXIT_VERIFY,
                 id="failed-verification"),
    pytest.param(["octonion", "--table"], {}, _broken_handler, EXIT_INTERNAL,
                 id="internal-error"),
]


@pytest.mark.parametrize("argv, env, handler, expected", EXIT_PATHS)
def test_exit_codes(tmp_path, capsys, monkeypatch, argv, env, handler, expected):
    (tmp_path / "bad.json").write_text("{bad")
    main(["--out", str(tmp_path / "corrupt.json"), "gen", "--m", "4"])
    data = json.loads((tmp_path / "corrupt.json").read_text())
    data["generators"][1] = data["generators"][2]
    (tmp_path / "corrupt.json").write_text(json.dumps(data))
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    if handler is not None:
        monkeypatch.setitem(cli._HANDLERS, argv[0], handler)
    code, out, err = run_cli([a.format(tmp=tmp_path) for a in argv], capsys)
    assert code == expected, err
    if expected in (EXIT_OK, EXIT_VERIFY):
        assert out and err == ""
    elif expected == EXIT_USAGE:
        assert out == "" and err.startswith("usage error: ")
    else:
        assert out == ""
        assert json.loads(err) == {"error": "RuntimeError: broken handler"}


def test_sphere_fields_with_no_points(capsys):
    code, out, _ = run_cli(["sphere-fields", "--n", "16", "--points", "0"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["verification"] == {
        "algebraic": True, "pointwise": True, "points": 0,
    }


def test_liealg_report(capsys):
    code, out, _ = run_cli(
        ["liealg", "--system", "C8", "--check", "span,bracket,commutant,normalizer"],
        capsys,
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["spanDim"] == 36
    assert report["bracketClosed"] is True
    assert report["commutantDim"] == 0
    assert report["normalizerDim"] == 36


def test_liealg_decomposition(capsys):
    code, out, _ = run_cli(["liealg", "--system", "C8", "--check", "decomposition"], capsys)
    assert json.loads(out)["decomposition"] == {
        "pairSpan": 36,
        "tripleSpan": 84,
        "orthogonal": True,
        "totalRank": 120,
    }


def test_evencliff_classify(capsys):
    code, out, _ = run_cli(["evencliff", "--classify", "10"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["verdict"] == "Essential"


def test_evencliff_psi_d(capsys):
    code, out, _ = run_cli(["evencliff", "--rank", "10", "--emit", "psiD"], capsys)
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["size"] == 10 and data["N"] == 32
    assert len(data["entries"]) == 45


def test_sphere_fields(capsys):
    code, out, _ = run_cli(["sphere-fields", "--n", "32", "--points", "5"], capsys)
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["sigma"] == 9
    assert len(data["fields"]) == 9
    assert data["verification"]["pointwise"] is True


def test_classify_essential(capsys):
    code, out, _ = run_cli(["classify-essential", "--m", "7"], capsys)
    assert json.loads(out)["verdict"] == "Essential"


def test_octonion_table_and_operators(capsys):
    code, out, _ = run_cli(["octonion", "--table"], capsys)
    assert code == EXIT_OK
    assert out.count("\n") == 10
    code, out, _ = run_cli(["octonion", "--right", "e"], capsys)
    data = json.loads(out)
    assert data["n"] == 8


def test_selftest_fast(capsys):
    code, out, _ = run_cli(["selftest"], capsys)
    assert code == EXIT_OK
    assert out.count("PASS") >= 12
    assert "XFAIL" in out


def test_selftest_stdout_is_identical_across_runs():
    cmd = [sys.executable, "-m", "cliffsys.cli", "selftest"]
    runs = [subprocess.run(cmd, capture_output=True, text=True) for _ in range(2)]
    assert [r.returncode for r in runs] == [0, 0], runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    # the per-check wall times go to stderr, one line per stdout line
    assert len(runs[0].stderr.splitlines()) == len(runs[0].stdout.splitlines())


@pytest.mark.slow
def test_selftest_slow_subprocess():
    out = subprocess.run(
        [sys.executable, "-m", "cliffsys.cli", "selftest", "--slow"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    assert "criterion 10" in out.stdout


def test_output_is_byte_identical_across_runs_and_jobs():
    env = dict(os.environ)
    cmd = [sys.executable, "-m", "cliffsys.cli", "form", "--tau", "4", "--psi", "C"]
    runs = []
    for jobs in ("1", "2", "1"):
        env["CLIFFSYS_JOBS"] = jobs
        out = subprocess.run(cmd, capture_output=True, env=env, check=True)
        runs.append(out.stdout)
    assert runs[0] == runs[1] == runs[2]


def test_installed_entry_point(tmp_path):
    """Install a copy of this checkout with its own setup.py into tmp_path
    and run the `cliffsys` console script that the install generates."""
    pytest.importorskip("setuptools")
    repo = Path(__file__).resolve().parents[1]
    copy = tmp_path / "copy"
    shutil.copytree(
        repo / "src" / "cliffsys",
        copy / "src" / "cliffsys",
        ignore=shutil.ignore_patterns("__pycache__", "*.so"),
    )
    for name in ("setup.py", "pyproject.toml", "README.md"):
        shutil.copyfile(repo / name, copy / name)
    root, record = tmp_path / "root", tmp_path / "rec.txt"
    build = subprocess.run(
        [sys.executable, "setup.py", "-q", "install",
         "--single-version-externally-managed",
         "--root", str(root), "--prefix", "/p", "--record", str(record)],
        cwd=copy, capture_output=True, text=True,
    )
    assert build.returncode == 0, build.stdout + build.stderr
    installed = [root / line.lstrip("/") for line in record.read_text().splitlines()]
    script = next(p for p in installed if p.parent.name == "bin" and p.name == "cliffsys")
    site = next(p for p in installed if p.parts[-2:] == ("cliffsys", "cli.py")).parents[1]
    # only the fresh install on PYTHONPATH, so the wrapper's
    # importlib.metadata lookup resolves the entry point built above
    path = os.pathsep.join([str(script.parent), os.environ.get("PATH", "")])
    env = dict(os.environ, PATH=path, PYTHONPATH=str(site))
    out = subprocess.run(
        ["cliffsys", "classify-essential", "--m", "3"],
        capture_output=True, text=True, env=env,
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["verdict"] == "Essential"


def traced_and_plain(tmp_path, *args):
    """stdout of `perfbench/child.py cli ARGS` run untraced and traced (both
    must exit 0), and the trace the traced run wrote."""
    repo = Path(__file__).resolve().parents[1]
    argv = [sys.executable, str(repo / "perfbench" / "child.py"), "cli", *args]
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    env.pop("PERFBENCH_TRACE", None)
    env.pop("PERFBENCH_RSS", None)
    plain = subprocess.run(argv, capture_output=True, text=True, env=env)
    trace = tmp_path / "trace.json"
    traced = subprocess.run(argv, capture_output=True, text=True,
                            env=dict(env, PERFBENCH_TRACE=str(trace)))
    assert plain.returncode == traced.returncode == 0, plain.stderr + traced.stderr
    return plain.stdout, traced.stdout, json.loads(trace.read_text())


def test_traced_benchmark_run_matches_untraced(tmp_path):
    """`perfbench/child.py` with PERFBENCH_TRACE set installs the span tracer,
    which reaches package internals by name; a traced run must still work
    and print the same bytes.  Also every public name must resolve."""
    plain, traced, trace = traced_and_plain(
        tmp_path, "liealg", "--system", "C4", "--check", "span,bracket,commutant,normalizer")
    assert traced == plain
    assert json.loads(plain)["spanDim"] == 10
    layers = {name for span in trace["spans"] for name in span["path"].split("/")}
    assert {"liealg.span", "liealg.echelon"} <= layers
    namespace = {}
    exec("from cliffsys import *", namespace)
    assert set(cliffsys.__all__) <= namespace.keys()


def test_traced_tau4_counts_every_kernel_pair(tmp_path):
    """The tracer hooks `kernel.new_accumulator`, so a traced run counts
    every product, square and key that goes through the kernel seam."""
    plain, traced, trace = traced_and_plain(tmp_path, "form", "--tau", "4", "--psi", "C")
    assert traced == plain
    counts = trace["counts"]
    assert counts["kernel.product.pairs"] == 24192
    assert counts["kernel.square.pairs"] == 701484
    assert counts["kernel.accum.keys"] == 17334


SRC = Path(__file__).resolve().parents[1] / "src"
# prints the sorted cliffsys submodules loaded after running the given code,
# leaving out the kernel backends, which depend on what was built
LOADED = """
import contextlib, io, json, sys
{code}
print(json.dumps(sorted(
    name[len("cliffsys."):] for name in sys.modules
    if name.startswith("cliffsys.") and name not in ("cliffsys._wedge_py", "cliffsys._wedge_c")
)))
"""
RUN_CLI = """
import cliffsys.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cliffsys.cli.main(sys.argv[1:])
assert code == 0, code
"""


def loaded_modules(code, *argv):
    out = subprocess.run(
        [sys.executable, "-c", LOADED.format(code=code), *argv],
        capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    return set(json.loads(out.stdout.splitlines()[-1]))


SYSTEMS = {"cli", "clifford", "exactmat", "algebras"}
FORMS = SYSTEMS | {"forms", "kernel"}
ALL_MODULES = {p.stem for p in SRC.joinpath("cliffsys").glob("*.py")} - {
    "__init__", "_wedge_py"}


@pytest.mark.parametrize("argv, expected", [
    pytest.param(["gen", "--m", "3"], SYSTEMS, id="gen"),
    pytest.param(["verify", "--in", "{tmp}/c3.json"], SYSTEMS, id="verify"),
    pytest.param(["rep", "--m", "3"], SYSTEMS, id="rep"),
    pytest.param(["classify-essential", "--m", "3"], SYSTEMS, id="classify-essential"),
    pytest.param(["octonion", "--table"], {"cli", "algebras", "exactmat"}, id="octonion"),
    pytest.param(["form", "--name", "spin9"], FORMS, id="form-name"),
    pytest.param(["form", "--tau", "2", "--psi", "A"], FORMS, id="form-tau"),
    pytest.param(["evencliff", "--rank", "10", "--emit", "psiD"], FORMS | {"evencliff"},
                 id="evencliff-emit"),
    pytest.param(["evencliff", "--classify", "10"], SYSTEMS | {"evencliff"},
                 id="evencliff-classify"),
    pytest.param(["liealg", "--system", "C4"], SYSTEMS | {"liealg"}, id="liealg"),
    pytest.param(["sphere-fields", "--n", "16", "--points", "2"], SYSTEMS | {"spheres"},
                 id="sphere-fields"),
    pytest.param(["selftest"], ALL_MODULES, id="selftest"),
])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, expected):
    assert main(["--out", str(tmp_path / "c3.json"), "gen", "--m", "3"]) == EXIT_OK
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert loaded_modules(RUN_CLI, *argv) == expected


def test_import_cliffsys_loads_no_submodule():
    assert loaded_modules("import cliffsys") == set()


def test_public_names_resolve_on_first_use_and_are_listed():
    assert set(cliffsys.__all__) <= set(dir(cliffsys))
    assert cliffsys.tau is vars(cliffsys)["tau"]  # cached after the first lookup
    with pytest.raises(AttributeError,
                       match=r"^module 'cliffsys' has no attribute 'no_such_name'$"):
        cliffsys.no_such_name


@pytest.mark.parametrize("pure", [False, True], ids=["default", "pure"])
def test_kernel_backend_name_is_the_kernel_module_backend(pure):
    env = {k: v for k, v in os.environ.items() if k != "CLIFFSYS_PURE"}
    if pure:
        env["CLIFFSYS_PURE"] = "1"
    code = "import cliffsys, cliffsys.kernel; print(cliffsys.KERNEL_BACKEND, cliffsys.kernel.BACKEND)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(env, PYTHONPATH=str(SRC)))
    public, kernel = out.stdout.split()
    assert public == kernel
    if pure:
        assert public == "pure-python"
