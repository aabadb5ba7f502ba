import argparse
import concurrent.futures
import errno
import hashlib
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import cliffsys
from cliffsys import cli
from cliffsys.cli import (
    EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main,
)

from backends import dispatch_to, why_no_c_build
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
    pytest.param({"m": 1, "n": 2, "generators": C1_GENERATORS, "class": "odd"}, id="unknown-class"),
    pytest.param({"m": 1, "n": 2,
                  "generators": [C1_GENERATORS[0], {"n": 1, "entries": [[1, 1, 1]]}]},
                 id="generator-of-another-order"),
    pytest.param({"m": 0, "n": 2, "generators": C1_GENERATORS[:1]}, id="m-0"),
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


def _broken_handler(args):
    raise RuntimeError("broken handler")


NEEDS_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                    reason="needs /dev/full, a device that is always full")


LONG_NUMBER = "9" * 5000  # past the 4,300 digits int() converts by default


def _long_number_argvs():
    """(name, argv) for each int-typed option of the parser set to
    LONG_NUMBER, and for a C<m> label that carries it."""
    parser = cli._build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    for action in parser._actions:
        if action.type is int:
            option = action.option_strings[0]
            yield option, [option, LONG_NUMBER, "octonion", "--table"]
    for name, command in commands.items():
        for action in command._actions:
            if action.type is int:
                option = action.option_strings[0]
                yield name + option, [name, option, LONG_NUMBER]
    yield "liealg--system", ["liealg", "--system", "C" + LONG_NUMBER]


# one row per documented exit path: argv ({tmp} is a directory holding
# bad.json, which is not JSON, deep.json, 100,000 nested lists, corrupt.json,
# a system failing verify, and huge-m.json, m = 9000 with 9,001 copies of one
# 2x2 generator),
# environment, a handler put in place of the subcommand's, expected code
EXIT_PATHS = [
    pytest.param(["octonion", "--table"], {}, None, EXIT_OK, id="ok"),
    pytest.param(["verify", "--in", "{tmp}/bad.json"], {}, None, EXIT_USAGE,
                 id="malformed-json"),
    pytest.param(["verify", "--in", "{tmp}/missing.json"], {}, None, EXIT_USAGE,
                 id="missing-file"),
    pytest.param(["verify", "--in", "{tmp}/deep.json"], {}, None, EXIT_USAGE,
                 id="deep-nesting"),
    pytest.param(["--jobs", "two", "octonion", "--table"], {}, None, EXIT_USAGE,
                 id="non-integer-jobs"),
    pytest.param(["--jobs", "0", "octonion", "--table"], {}, None, EXIT_USAGE,
                 id="zero-jobs"),
    # no environment variable stands in for --jobs, which is itself ignored
    pytest.param(["octonion", "--table"], {"CLIFFSYS_JOBS": "two"}, None, EXIT_OK,
                 id="jobs-environment-ignored"),
    pytest.param(["--format", "xml", "octonion", "--table"], {}, None, EXIT_USAGE,
                 id="unknown-format"),
    pytest.param(["sphere-fields", "--n", "16", "--points", "-1"], {}, None, EXIT_USAGE,
                 id="negative-points"),
    pytest.param(["sphere-fields", "--n", "16", "--points", str(cli.SPHERE_MAX_POINTS)], {}, None,
                 EXIT_OK, id="points-at-cap"),
    pytest.param(["sphere-fields", "--n", "16", "--points", str(cli.SPHERE_MAX_POINTS + 1)], {},
                 None, EXIT_USAGE, id="points-past-cap"),
    # even, so that only the cap refuses it
    pytest.param(["sphere-fields", "--n", str(cli.SPHERE_MAX_N + 2)], {}, None, EXIT_USAGE,
                 id="n-past-cap"),
    pytest.param(["--out", "{tmp}/missing/c2.json", "gen", "--m", "2"], {}, None, EXIT_USAGE,
                 id="missing-dir"),
    pytest.param(["--out", "{tmp}", "gen", "--m", "2"], {}, None, EXIT_USAGE,
                 id="is-a-directory"),
    pytest.param(["--out", "", "gen", "--m", "1"], {}, None, EXIT_USAGE, id="empty-out"),
    pytest.param(["--out", "/dev/full", "gen", "--m", "1"], {}, None, EXIT_USAGE,
                 id="out-device-full", marks=NEEDS_DEV_FULL),
    pytest.param(["verify", "--in", "{tmp}/corrupt.json"], {}, None, EXIT_VERIFY,
                 id="failed-verification"),
    pytest.param(["verify", "--in", "{tmp}/huge-m.json"], {}, None, EXIT_VERIFY,
                 id="huge-m"),
    pytest.param(["octonion", "--right", "i", "--left", "j"], {}, None, EXIT_USAGE,
                 id="right-and-left"),
    pytest.param(["octonion", "--table", "--left", "j"], {}, None, EXIT_USAGE,
                 id="table-and-left"),
    pytest.param(["octonion"], {}, None, EXIT_USAGE, id="octonion-without-operator"),
    pytest.param(["form", "--tau", "2"], {}, None, EXIT_USAGE, id="tau-without-psi"),
    pytest.param(["evencliff", "--emit", "psiD"], {}, None, EXIT_USAGE, id="emit-without-rank"),
    pytest.param(["sphere-fields", "--n", "3"], {}, None, EXIT_USAGE, id="odd-n"),
    pytest.param(["evencliff", "--classify", "10", "--emit", "psiD"], {}, None, EXIT_USAGE,
                 id="classify-and-emit"),
    pytest.param(["evencliff", "--rank", "9", "--classify", "12"], {}, None, EXIT_USAGE,
                 id="rank-and-classify"),
    pytest.param(["liealg", "--system", "C8", "--check", ""], {}, None, EXIT_USAGE,
                 id="empty-check-list"),
    pytest.param(["liealg", "--system", "C8", "--check", ","], {}, None, EXIT_USAGE,
                 id="check-list-without-a-name"),
    pytest.param(["liealg", "--system", "C8", "--check", "span,,bracket"], {}, None, EXIT_OK,
                 id="check-list-with-an-empty-name"),
    # a flag the command would ignore
    pytest.param(["gen", "--m", "4", "--tilde", "--class", "plus"], {}, None, EXIT_USAGE,
                 id="tilde-and-class"),
    pytest.param(["form", "--name", "spin9", "--psi", "A"], {}, None, EXIT_USAGE,
                 id="name-and-psi"),
    pytest.param(["liealg", "--system", "C08", "--check", "span"], {}, None, EXIT_USAGE,
                 id="system-with-leading-zero"),
    pytest.param(["liealg", "--system", "C\uff18", "--check", "span"], {}, None, EXIT_USAGE,
                 id="system-with-fullwidth-digit"),
    # --format text only where a command has text output
    *[pytest.param(["--format", "text", *argv], {}, None, EXIT_USAGE, id=f"text-{name}")
      for name, argv in [
          ("gen", ["gen", "--m", "2"]),
          ("verify", ["verify", "--in", "{tmp}/corrupt.json"]),
          ("rep", ["rep", "--m", "2"]),
          ("liealg", ["liealg", "--system", "C2"]),
          ("sphere-fields", ["sphere-fields", "--n", "4"]),
          ("classify-essential", ["classify-essential", "--m", "2"]),
          ("evencliff-classify", ["evencliff", "--classify", "10"]),
          ("evencliff-psiD", ["evencliff", "--rank", "10", "--emit", "psiD"]),
          ("octonion-right", ["octonion", "--right", "i"]),
          ("octonion-left", ["octonion", "--left", "i"]),
      ]],
    pytest.param(["--format", "text", "form", "--name", "omegaL"], {}, None, EXIT_OK,
                 id="text-form"),
    pytest.param(["--format", "text", "octonion", "--table"], {}, None, EXIT_OK,
                 id="text-octonion-table"),
    *[pytest.param(argv, {}, None, EXIT_USAGE, id=f"long-number-{name}")
      for name, argv in _long_number_argvs()],
    pytest.param(["octonion", "--table"], {}, _broken_handler, EXIT_INTERNAL,
                 id="internal-error"),
]


@pytest.mark.parametrize("argv, env, handler, expected", EXIT_PATHS)
def test_exit_codes(tmp_path, capsys, monkeypatch, argv, env, handler, expected):
    (tmp_path / "bad.json").write_text("{bad")
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    main(["--out", str(tmp_path / "corrupt.json"), "gen", "--m", "4"])
    data = json.loads((tmp_path / "corrupt.json").read_text())
    data["generators"][1] = data["generators"][2]
    (tmp_path / "corrupt.json").write_text(json.dumps(data))
    swap = {"n": 2, "entries": [[1, 2, 1], [2, 1, 1]]}
    huge = {"m": 9000, "n": 2, "generators": [swap] * 9001}
    (tmp_path / "huge-m.json").write_text(json.dumps(huge))
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    if handler is not None:
        monkeypatch.setattr(cli, "_cmd_" + argv[0].replace("-", "_"), handler)
    code, out, err = run_cli([a.format(tmp=tmp_path) for a in argv], capsys)
    assert code == expected, err
    if expected in (EXIT_OK, EXIT_VERIFY):
        assert out and err == ""
    elif expected == EXIT_USAGE:
        assert out == "" and err.startswith("usage error: ")
    else:
        assert out == ""
        assert json.loads(err) == {"error": "RuntimeError: broken handler"}


@NEEDS_DEV_FULL
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("m", [1, 3, 16])
def test_full_stdout_is_a_usage_error(m, unbuffered):
    """A full stdout is a usage error like a failed --out, with nothing
    more on stderr. Buffered, a small payload stays in stdout's buffer
    after the failed flush, and the flush at interpreter exit must not
    fail again (that prints "Exception ignored" and exits 120)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "cliffsys.cli", "gen", "--m", str(m)],
                              stdout=full, stderr=subprocess.PIPE, env=env)
    assert done.returncode == EXIT_USAGE
    assert done.stderr == b"usage error: cannot write stdout: [Errno 28] No space left on device\n"


class _FullStream:
    """A stream whose every write fails as a full device's does."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


SELFTEST_LINE = re.compile(r"(PASS|XFAIL) {1,2}criterion \S+ .*")

# argv ({tmp} holds ill.json, a system file without generators), a handler
# put in place of the subcommand's, expected code
STREAM_COMMANDS = [
    pytest.param(["gen", "--m", "0"], None, EXIT_USAGE, id="usage-error"),
    pytest.param(["verify", "--in", "{tmp}/ill.json"], None, EXIT_VERIFY, id="ill-formed-system"),
    pytest.param(["octonion", "--table"], _broken_handler, EXIT_INTERNAL, id="internal-error"),
    pytest.param(["selftest"], None, EXIT_OK, id="selftest"),
]


@pytest.mark.parametrize("stderr", [None, _FullStream()], ids=["stderr-none", "stderr-full"])
@pytest.mark.parametrize("argv, handler, expected", STREAM_COMMANDS)
def test_a_lost_stderr_keeps_the_exit_code_and_stdout(tmp_path, capsys, monkeypatch, stderr,
                                                      argv, handler, expected):
    """With no stderr (Python sets sys.stderr to None when fd 2 is invalid at
    start-up) or an unwritable one, the run exits as it would with stderr,
    and no line meant for stderr reaches stdout."""
    (tmp_path / "ill.json").write_text(json.dumps({"m": 1, "n": 2}))
    if handler is not None:
        monkeypatch.setattr(cli, "_cmd_" + argv[0], handler)
    with monkeypatch.context() as streams:
        streams.setattr(sys, "stderr", stderr)
        code = main([a.format(tmp=tmp_path) for a in argv])
    out = capsys.readouterr().out
    assert code == expected
    if argv[0] == "selftest":
        assert all(map(SELFTEST_LINE.fullmatch, out.splitlines())), out
    else:
        assert out == ""


@pytest.mark.parametrize("argv", [["gen", "--m", "1"], ["selftest"]], ids=["gen", "selftest"])
def test_a_closed_stdout_is_a_usage_error(capsys, monkeypatch, argv):
    """Python sets sys.stdout to None when fd 1 is closed at start-up."""
    monkeypatch.setattr(sys, "stdout", None)
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == "usage error: cannot write stdout: [Errno 9] Bad file descriptor\n"


@NEEDS_DEV_FULL
def test_selftest_with_a_full_stderr_exits_with_its_verdict():
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "cliffsys.cli", "selftest"],
                              stdout=subprocess.PIPE, stderr=full, text=True)
    assert done.returncode == EXIT_OK
    lines = done.stdout.splitlines()
    assert len(lines) == 14 and all(map(SELFTEST_LINE.fullmatch, lines)), done.stdout


def test_a_failed_selftest_check_exits_with_a_verification_failure(capsys, monkeypatch):
    from cliffsys import acceptance

    failed = acceptance.CheckResult("criterion 1 construction", acceptance.FAIL,
                                    "m=3: wrong order", 0.0)
    monkeypatch.setattr(acceptance, "run_all", lambda slow: [failed])
    code, out, err = run_cli(["selftest"], capsys)
    assert code == EXIT_VERIFY
    assert out == "FAIL  criterion 1 construction: m=3: wrong order\n"
    assert err == "criterion 1 construction: 0.00s\n"


def test_help_goes_to_stdout(capsys):
    with pytest.raises(SystemExit) as done:
        main(["--help"])
    assert done.value.code == EXIT_OK
    assert capsys.readouterr() == (cli._build_parser().format_help(), "")


class _FullStdout(_FullStream):
    """A full stdout on a descriptor of its own, which `_emit` points at
    devnull after the failed write."""

    def __init__(self, fd):
        self.fd = fd

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("argv", [["--help"], ["gen", "--help"]], ids=["help", "gen-help"])
@pytest.mark.parametrize("full", [False, True], ids=["stdout-none", "stdout-full"])
def test_help_to_a_lost_stdout_is_a_usage_error(capsys, monkeypatch, argv, full):
    """argparse would write the help to stderr, or swallow the OSError, and
    exit 0."""
    fd = os.open(os.devnull, os.O_WRONLY)
    try:
        with monkeypatch.context() as streams:
            streams.setattr(sys, "stdout", _FullStdout(fd) if full else None)
            code = main(argv)
    finally:
        os.close(fd)
    reason = "[Errno 28] No space left on device" if full else "[Errno 9] Bad file descriptor"
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"usage error: cannot write stdout: {reason}\n"


@NEEDS_DEV_FULL
def test_help_to_a_full_stdout_is_a_usage_error():
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "cliffsys.cli", "--help"],
                              stdout=full, stderr=subprocess.PIPE)
    assert done.returncode == EXIT_USAGE
    assert done.stderr == b"usage error: cannot write stdout: [Errno 28] No space left on device\n"


def test_each_subcommand_runs_its_handler():
    """The parser is the one registry: each subcommand runs its own
    _cmd_* function, and every _cmd_* function is some subcommand's."""
    commands = next(a for a in cli._build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    handlers = {name: parser.get_default("run") for name, parser in commands.items()}
    assert handlers == {name: getattr(cli, "_cmd_" + name.replace("-", "_")) for name in commands}
    assert set(handlers.values()) == {f for n, f in vars(cli).items() if n.startswith("_cmd_")}


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


def test_liealg_checks_names_before_running_any(capsys, monkeypatch):
    import cliffsys.liealg

    monkeypatch.setattr(cliffsys.liealg, "normalizer_dim", lambda gens: pytest.fail("ran a check"))
    code, out, err = run_cli(["liealg", "--system", "C12", "--check", "normalizer,nope"], capsys)
    assert (code, out, err) == (EXIT_USAGE, "", "usage error: unknown check 'nope'\n")
    # the system is built first, so a bad m is reported before a bad name
    code, _, err = run_cli(["liealg", "--system", "C17", "--check", "normalizer,nope"], capsys)
    assert (code, err) == (EXIT_USAGE, "usage error: m must be in 1..16\n")


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
    runs = [
        subprocess.run(
            [sys.executable, "-m", "cliffsys.cli", "--jobs", jobs,
             "form", "--tau", "4", "--psi", "C"],
            capture_output=True, check=True,
        ).stdout
        for jobs in ("1", "2", "1")
    ]
    assert runs[0] == runs[1] == runs[2]


def test_jobs_starts_no_worker_on_either_kernel(kernel_backends, monkeypatch, capsys):
    def no_pool(*args, **kwargs):
        pytest.fail("--jobs 2 started worker processes")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    argv = ["form", "--tau", "4", "--psi", "C"]
    for module in kernel_backends:
        with dispatch_to(module):
            two, one = (run_cli(["--jobs", jobs, *argv], capsys) for jobs in ("2", "1"))
        assert two == one
        assert two[0] == EXIT_OK


def test_installed_entry_point(tmp_path):
    """Install a copy of this checkout with its own setup.py into tmp_path
    and run the `cliffsys` console script that the install generates.  On a
    machine that can build the C kernel, the install must have built it:
    setup.py skips an extension that fails to compile, silently."""
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
    if why_no_c_build() is None:
        env.pop("CLIFFSYS_PURE", None)
        backend = subprocess.run(
            [sys.executable, "-c", "import cliffsys; print(cliffsys.KERNEL_BACKEND)"],
            capture_output=True, text=True, env=env, cwd=tmp_path,
        )
        assert backend.stdout == "c\n", backend.stdout + backend.stderr


REPO = Path(__file__).resolve().parents[1]


def run_child(*args, trace=None):
    """`perfbench/child.py ARGS`, traced into the file `trace` when given;
    it must exit 0."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    env.pop("PERFBENCH_TRACE", None)
    env.pop("PERFBENCH_RSS", None)
    if trace is not None:
        env["PERFBENCH_TRACE"] = str(trace)
    argv = [sys.executable, str(REPO / "perfbench" / "child.py"), *map(str, args)]
    done = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    return done.stdout


def traced_and_plain(tmp_path, *args):
    """stdout of `perfbench/child.py cli ARGS` run untraced and traced, and
    the trace the traced run wrote."""
    trace = tmp_path / "trace.json"
    plain = run_child("cli", *args)
    traced = run_child("cli", *args, trace=trace)
    return plain, traced, json.loads(trace.read_text())


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
    assert counts["kernel.accum.keys"] == 13638
    # one KForm per Kaehler form of psi^C; FormMatrix.entry builds no zero
    # form for an entry it holds
    kform_calls = sum(span["calls"] for span in trace["spans"]
                      if span["path"].split("/")[-1] == "forms.kform"
                      and "forms.kform" not in span["path"].split("/")[:-1])
    assert kform_calls == 36


# argv: the expected backend, the directory of the C kernel compiled for the
# test run ("" for none; the package searches it after src/) and perfbench/
INSTALL_TRACER = """
import sys
import cliffsys
if sys.argv[2]:
    cliffsys.__path__.append(sys.argv[2])
import cliffsys.acceptance, cliffsys.cli, cliffsys.kernel
assert cliffsys.kernel.BACKEND == sys.argv[1], cliffsys.kernel.BACKEND
sys.path.insert(0, sys.argv[3])
from tracer import Tracer, install
install(Tracer())
"""


@pytest.mark.parametrize("backend", ["pure-python", "c"])
def test_tracer_installs_on_each_backend(request, backend):
    """`perfbench/tracer.install` reaches package internals by name (classes
    of exactmat, liealg, forms and algebras among them): with every module
    loaded, it must run on each backend."""
    env = {k: v for k, v in os.environ.items() if k != "CLIFFSYS_PURE"}
    env["PYTHONPATH"] = str(REPO / "src")
    kernel_dir = ""
    if backend == "c":
        kernel_dir = str(Path(request.getfixturevalue("wc").__file__).parent)
    else:
        env["CLIFFSYS_PURE"] = "1"
    done = subprocess.run(
        [sys.executable, "-c", INSTALL_TRACER, backend, kernel_dir, str(REPO / "perfbench")],
        capture_output=True, text=True, env=env,
    )
    assert done.returncode == 0, done.stderr


# argv: the expected backend, the directory of the C kernel compiled for the
# test run ("" for none; the package searches it after src/), the CLI's argv
RUN_ON_BACKEND = """
import sys
import cliffsys
if sys.argv[2]:
    cliffsys.__path__.append(sys.argv[2])
import cliffsys.cli, cliffsys.kernel
assert cliffsys.kernel.BACKEND == sys.argv[1], cliffsys.kernel.BACKEND
sys.exit(cliffsys.cli.main(sys.argv[3:]))
"""


@pytest.mark.parametrize("backend", [
    "c", pytest.param("pure-python", marks=pytest.mark.slow),  # 11-12 s a format pure
])
@pytest.mark.parametrize("fmt, digest", [
    ("json", "8d76c240af34dfe9bab8185e2a771dd6638cdbf47aecf0cf03a7f4381db9836c"),
    ("text", "e9680f7825759916c63dbc9be3846437997497575d124006fbf59d0d9ae3e61d"),
])
def test_rank10_tau4_output_is_pinned(request, backend, fmt, digest):
    """`evencliff --rank 10 --emit tau4`, the flagship result: the 234,364
    terms of tau_4(psi^D) on R^32, with coefficient gcd 24."""
    env = {k: v for k, v in os.environ.items() if k != "CLIFFSYS_PURE"}
    env["PYTHONPATH"] = str(REPO / "src")
    kernel_dir = ""
    if backend == "c":
        kernel_dir = str(Path(request.getfixturevalue("wc").__file__).parent)
    else:
        env["CLIFFSYS_PURE"] = "1"
    argv = ["--format", fmt, "evencliff", "--rank", "10", "--emit", "tau4"]
    done = subprocess.run([sys.executable, "-c", RUN_ON_BACKEND, backend, kernel_dir, *argv],
                          capture_output=True, env=env)
    assert done.returncode == EXIT_OK, done.stderr
    assert hashlib.sha256(done.stdout).hexdigest() == digest
    if fmt == "json":
        coeffs = [int(t["c"]) for t in json.loads(done.stdout)["terms"]]
        assert len(coeffs) == 234_364 and math.gcd(*coeffs) == 24
    else:  # one "s" per monomial
        assert done.stdout.count(b"s") == 234_364


def test_traced_readback_counts_every_letter(tmp_path):
    """The read-back operation of the benchmark, traced and untraced, on a
    seeded integral 8-form on R^32 and an actions file built as
    `perfbench/run.py` builds it: one span generator, the complex structure
    and one extra signed permutation."""
    from cliffsys.forms import KForm, form_to_json_text

    rng = random.Random(11)
    terms = {}
    while len(terms) < 300:
        terms[tuple(sorted(rng.sample(range(1, 33), 8)))] = rng.choice((-3, -2, -1, 1, 2, 3))
    form = KForm.from_terms(32, 8, terms.items())
    (tmp_path / "form.json").write_text(form_to_json_text(form))
    pairs = [(1, 2, -1)] + [(a, a + 1, 1) for a in range(3, 32, 2)]
    entries = sorted([[b, a, s] for a, b, s in pairs] + [[a, b, -s] for a, b, s in pairs])
    actions = {"generators": [rng.randrange(45)], "complex": True,
               "extra": {"n": 32, "entries": entries}}
    (tmp_path / "actions.json").write_text(json.dumps(actions))
    trace = tmp_path / "trace.json"
    run_child("readback", tmp_path / "form.json", tmp_path / "actions.json", tmp_path / "plain.json")
    run_child("readback", tmp_path / "form.json", tmp_path / "actions.json", tmp_path / "traced.json",
              trace=trace)
    plain = (tmp_path / "plain.json").read_bytes()
    assert (tmp_path / "traced.json").read_bytes() == plain
    result = json.loads(plain)
    counts = json.loads(trace.read_text())["counts"]
    assert result["terms"] == 300
    # three actions, each on every letter of every term
    assert counts["kernel.perm_action.letters"] == 3 * 8 * 300
    # the terms of every action's result, the extra action's among them
    assert counts["kernel.perm_action.terms_out"] == sum(result["invariant"]) + len(
        result["extra"]["terms"])


SRC = Path(__file__).resolve().parents[1] / "src"
# prints the sorted cliffsys submodules loaded after running the given code,
# leaving out the kernel backends, which depend on what was built, and which
# of dataclasses, inspect and fractions are loaded (importing dataclasses,
# which loads inspect, adds about 16 ms to a fresh interpreter on a 2-CPU
# host; fractions, which loads decimal, about 11 ms without bytecode)
LOADED = """
import contextlib, io, json, sys
{code}
print(json.dumps([sorted(
    name[len("cliffsys."):] for name in sys.modules
    if name.startswith("cliffsys.") and name not in ("cliffsys._wedge_py", "cliffsys._wedge_c")
), [name for name in ("dataclasses", "inspect", "fractions") if name in sys.modules]]))
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
    package, stdlib = json.loads(out.stdout.splitlines()[-1])
    return set(package), stdlib


SYSTEMS = {"cli", "clifford", "exactmat", "algebras"}
FORMS = SYSTEMS | {"forms", "kernel"}
ALL_MODULES = {p.stem for p in SRC.joinpath("cliffsys").glob("*.py")} - {
    "__init__", "_wedge_py"}


# the commands on signed permutations load no fractions: only the rational
# matrices, forms and sphere points use it
@pytest.mark.parametrize("argv, expected, fractions", [
    pytest.param(["gen", "--m", "3"], SYSTEMS, False, id="gen"),
    pytest.param(["verify", "--in", "{tmp}/c3.json"], SYSTEMS, False, id="verify"),
    pytest.param(["rep", "--m", "3"], SYSTEMS, False, id="rep"),
    pytest.param(["classify-essential", "--m", "3"], SYSTEMS, False, id="classify-essential"),
    pytest.param(["octonion", "--table"], {"cli", "algebras", "exactmat"}, False, id="octonion"),
    pytest.param(["form", "--name", "spin9"], FORMS, True, id="form-name"),
    pytest.param(["form", "--tau", "2", "--psi", "A"], FORMS, True, id="form-tau"),
    pytest.param(["evencliff", "--rank", "10", "--emit", "psiD"], FORMS | {"evencliff"}, True,
                 id="evencliff-emit"),
    pytest.param(["evencliff", "--classify", "10"], SYSTEMS | {"evencliff"}, False,
                 id="evencliff-classify"),
    pytest.param(["liealg", "--system", "C4"], SYSTEMS | {"liealg"}, False, id="liealg"),
    pytest.param(["sphere-fields", "--n", "16", "--points", "2"], SYSTEMS | {"spheres"}, True,
                 id="sphere-fields"),
    pytest.param(["selftest"], ALL_MODULES, True, id="selftest"),
])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, expected, fractions):
    assert main(["--out", str(tmp_path / "c3.json"), "gen", "--m", "3"]) == EXIT_OK
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert loaded_modules(RUN_CLI, *argv) == (expected, ["fractions"] if fractions else [])


def test_import_cliffsys_loads_no_submodule():
    assert loaded_modules("import cliffsys") == (set(), [])


def test_import_of_the_cli_loads_neither_dataclasses_nor_inspect():
    assert loaded_modules("import cliffsys, cliffsys.cli") == ({"cli"}, [])


def test_public_names_resolve_on_first_use_and_are_listed():
    assert set(cliffsys.__all__) <= set(dir(cliffsys))
    assert cliffsys.tau is vars(cliffsys)["tau"]  # cached after the first lookup
    with pytest.raises(AttributeError,
                       match=r"^module 'cliffsys' has no attribute 'no_such_name'$"):
        cliffsys.no_such_name


def kernel_backend_names(pure):
    """(cliffsys.KERNEL_BACKEND, cliffsys.kernel.BACKEND) in a fresh
    interpreter with CLIFFSYS_PURE set to `pure`, or unset for None."""
    env = {k: v for k, v in os.environ.items() if k != "CLIFFSYS_PURE"}
    if pure is not None:
        env["CLIFFSYS_PURE"] = pure
    code = "import cliffsys, cliffsys.kernel; print(cliffsys.KERNEL_BACKEND, cliffsys.kernel.BACKEND)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(env, PYTHONPATH=str(SRC)))
    return tuple(out.stdout.split())


@pytest.mark.parametrize("pure", [None, "1", "0"], ids=["default", "pure", "zero"])
def test_kernel_backend_name_is_the_kernel_module_backend(pure):
    public, kernel = kernel_backend_names(pure)
    assert public == kernel
    if pure == "1":
        assert public == "pure-python"
    if pure == "0":  # as if unset: the C kernel wherever it is built
        assert public == kernel_backend_names(None)[0]
