"""Golden table of CLI output.

Each row is a command line, run in a fresh interpreter on the default
kernel and with CLIFFSYS_PURE=1, and pins the sha256 of its stdout, its
exact stderr and its exit code.  In stderr, the scratch directory reads
`{tmp}` and each selftest timing reads `N.NNs`.  The table guards the
argument handling of `cliffsys.cli`: a refactor must leave every byte and
every usage message as it is.  After an intended output change, print the
new table with `PYTHONPATH=src python tests/test_cli_golden.py` and
review the difference before pasting it.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
TIMING = re.compile(r": \d+\.\d\ds$", re.M)

# id, argv; {tmp} holds c3.json (gen --m 3) and corrupt.json (gen --m 4 with
# generator 1 replaced by generator 2)
COMMANDS = [
    ("gen", ["gen", "--m", "3"]),
    ("gen-minus", ["gen", "--m", "12", "--class", "minus"]),
    ("gen-tilde", ["gen", "--m", "8", "--tilde"]),
    ("verify", ["verify", "--in", "{tmp}/c3.json"]),
    ("verify-corrupt", ["verify", "--in", "{tmp}/corrupt.json"]),
    ("rep", ["rep", "--m", "9"]),
    ("form-name", ["form", "--name", "spin9"]),
    ("form-text", ["--format", "text", "form", "--name", "omegaL"]),
    ("form-tau", ["--jobs", "2", "form", "--tau", "2", "--psi", "B"]),
    ("liealg", ["liealg", "--system", "C8", "--check", "span,bracket,commutant,normalizer"]),
    ("liealg-decomposition", ["liealg", "--system", "C8", "--check", "decomposition"]),
    ("liealg-decomposition-C2", ["liealg", "--system", "C2", "--check", "decomposition"]),
    ("liealg-decomposition-C4", ["liealg", "--system", "C4", "--check", "decomposition"]),
    ("evencliff-classify", ["evencliff", "--classify", "12"]),
    ("evencliff-psiD", ["evencliff", "--rank", "10", "--emit", "psiD"]),
    ("sphere-fields", ["sphere-fields", "--n", "32", "--points", "5"]),
    ("classify-essential", ["classify-essential", "--m", "7"]),
    ("octonion-table", ["--format", "text", "octonion", "--table"]),
    ("octonion-right", ["octonion", "--right", "e"]),
    ("octonion-left", ["--jobs", "1", "octonion", "--left", "h"]),
    ("selftest", ["selftest"]),
    # usage errors
    ("nonsense", ["nonsense"]),
    ("jobs-0", ["--jobs", "0", "gen", "--m", "2"]),
    ("jobs-two", ["--jobs", "two", "gen", "--m", "2"]),
    ("format-xml", ["--format", "xml", "gen", "--m", "2"]),
    ("format-text-gen", ["--format", "text", "gen", "--m", "2"]),
    ("gen-m-17", ["gen", "--m", "17"]),
    ("tilde-m-5", ["gen", "--m", "5", "--tilde"]),
    ("tilde-and-class", ["gen", "--m", "4", "--tilde", "--class", "plus"]),
    ("form-neither", ["form"]),
    ("name-and-psi", ["form", "--name", "spin9", "--psi", "A"]),
    ("form-tau-negative", ["form", "--tau", "-2", "--psi", "C"]),
    ("liealg-C08", ["liealg", "--system", "C08"]),
    ("liealg-empty-check", ["liealg", "--system", "C8", "--check", ""]),
    ("liealg-unknown-check", ["liealg", "--system", "C2", "--check", "span,nope"]),
    ("rank-and-classify", ["evencliff", "--rank", "9", "--classify", "12"]),
    ("sphere-fields-n-5000", ["sphere-fields", "--n", "5000"]),
    ("sphere-fields-n-256", ["sphere-fields", "--n", "256"]),
    ("octonion-bad-unit", ["octonion", "--right", "q"]),
    ("octonion-left-bad-unit", ["octonion", "--left", "q"]),
    ("verify-missing", ["verify", "--in", "{tmp}/missing.json"]),
    ("out-missing-dir", ["--out", "{tmp}/missing/c2.json", "gen", "--m", "2"]),
]

EMPTY = hashlib.sha256(b"").hexdigest()
# id: (sha256 of stdout, stderr, exit code)
GOLDEN = {
    'gen': ('4c17cc8272d964d621d2c44491f1b03a017f1112466fedb3aafcf92ce3af2051', '', 0),
    'gen-minus': ('94eeb9103b422b1eaf9902f76e99a30fa7b9ed133edfc40118b2a17794a1162e', '', 0),
    'gen-tilde': ('c8e165ddf73c9d16617aa59718e02eb11424a5d18a3a9397142d264487147fcc', '', 0),
    'verify': ('fd9384a366c070343613230226dcf2f669144d8e0430abda7fa1b0a0ba45e8da', '', 0),
    'verify-corrupt': ('df873f88584a58e66f3acfc201bcecf4f97e735b735a00b6028f7058c920c69a', '', 2),
    'rep': ('568b1dfbaffddea927d80092384f147eda60cdd7a476124d56fc5e28be33c12f', '', 0),
    'form-name': ('c92d7ce02fb7503bd8ab3123af700791b0dd19faf8661970dd081cf95e5e4245', '', 0),
    'form-text': ('d2305609b7984bc0056a909075836dd7dea0e460308647558371de991f7e198b', '', 0),
    'form-tau': ('b826f582e44a470274927ed28632cc8bee2bff93bdeb2cd84ec8c91309b77ea5', '', 0),
    'liealg': ('ada6f1edecaa4bfb688f56e1d240fabb83f8cd1c37ec21d0b74642be4e0a1329', '', 0),
    'liealg-decomposition': ('90623dfd7933d527961bcfc7b572aae52d2fdeca07e00a9ce25001df43992831',
        '', 0),
    'liealg-decomposition-C2': ('4fb4235c40f161e7831ba1684de6c936f1872933909ba36ccea62ab09ff7a0b6',
        '', 0),
    'liealg-decomposition-C4': ('62148a769afd1ad1a2c8474048246b482049596abab805d512dd1b096ca2a1e0',
        '', 0),
    'evencliff-classify': ('ccda3e4e641bf9eac0341c0429da5431f5b15ed2f29a35fc5b3f3477728991a3',
        '', 0),
    'evencliff-psiD': ('8f32d8842bc6cea7ae86fb70ff17936f0d4eed13744cb3adc42d2e08945db10a', '', 0),
    'sphere-fields': ('a9fab4d841bf75b4e50f9a53e1a07ca3523798d518f483fc2ad92f7530f13de2', '', 0),
    'classify-essential': ('3351ccd616ac72ea60bf9fe4e50f720d31f024ab488bcab3342caa65b818c6a0',
        '', 0),
    'octonion-table': ('faae2251ef25c8ccb00121e04041520b0ad5e0f246d9eb0d3a8e136855bbce3e', '', 0),
    'octonion-right': ('11c940c177a4b9e362f20ed5db6455e01e36530b91b3e17868ae091a287f000e', '', 0),
    'octonion-left': ('dafa23c0ba4beaebd07bb415a844c31777be9819b30430227ff3f9cc32170d20', '', 0),
    'selftest': ('115df21db0efeb55b4b5cc4cb2a320f9d53fbaede5f6523815114145c382e098',
        'criterion 1 construction: N.NNs\n'
        'criterion 2 trace classes: N.NNs\n'
        'criterion 3a theta table: N.NNs\n'
        'criterion 3b tau2(theta) = -2 Omega_L: N.NNs\n'
        'criterion 3c psi^B expansion (112 terms): N.NNs\n'
        'criterion 3d psi^A printed identity: N.NNs\n'
        'criterion 3e psi^A identity, pure part: N.NNs\n'
        'criterion 4 Spin(9) invariants: N.NNs\n'
        'criterion 4b Spin(7) restriction: N.NNs\n'
        'criterion 5 Lie-algebra dimensions: N.NNs\n'
        'criterion 6 stabilizer dimensions: N.NNs\n'
        'criterion 7 representation round trip: N.NNs\n'
        'criterion 8 sphere fields: N.NNs\n'
        'criterion 9 essentiality classifier: N.NNs\n', 0),
    'nonsense': (EMPTY,
        "usage error: argument subcommand: invalid choice: 'nonsense' (choose "
        "from 'gen', 'verify', 'rep', 'form', 'liealg', 'evencliff', 'sphere-"
        "fields', 'classify-essential', 'octonion', 'selftest')\n", 1),
    'jobs-0': (EMPTY, 'usage error: parallelism degree must be >= 1\n', 1),
    'jobs-two': (EMPTY, "usage error: argument --jobs: invalid int value: 'two'\n", 1),
    'format-xml': (EMPTY,
        "usage error: argument --format: invalid choice: 'xml' (choose from "
        "'json', 'text')\n", 1),
    'format-text-gen': (EMPTY,
        'usage error: --format text applies only to form, evencliff --emit tau4, '
        'octonion --table and selftest\n', 1),
    'gen-m-17': (EMPTY, 'usage error: m must be in 1..16\n', 1),
    'tilde-m-5': (EMPTY, 'usage error: tilde systems exist for m in {4, 8}\n', 1),
    'tilde-and-class': (EMPTY,
        'usage error: argument --class: not allowed with argument --tilde\n', 1),
    'form-neither': (EMPTY,
        'usage error: form needs exactly one of --name or --tau K --psi F\n', 1),
    'name-and-psi': (EMPTY, 'usage error: --psi goes with --tau, not with --name\n', 1),
    'form-tau-negative': (EMPTY, 'usage error: k must be >= 0\n', 1),
    'liealg-C08': (EMPTY, 'usage error: --system expects C<m>, e.g. C8\n', 1),
    'liealg-empty-check': (EMPTY, 'usage error: --check needs at least one check name\n', 1),
    'liealg-unknown-check': (EMPTY, "usage error: unknown check 'nope'\n", 1),
    'rank-and-classify': (EMPTY, 'usage error: --rank goes with --emit, not with --classify\n', 1),
    'sphere-fields-n-5000': (EMPTY, 'usage error: --n must be <= 4096\n', 1),
    'sphere-fields-n-256': (EMPTY,
        'usage error: power-of-two part 256 needs C_17: m must be in 1..16\n', 1),
    'octonion-bad-unit': (EMPTY, "usage error: unknown basis label 'q'\n", 1),
    'octonion-left-bad-unit': (EMPTY, "usage error: unknown basis label 'q'\n", 1),
    'verify-missing': (EMPTY,
        'usage error: cannot read {tmp}/missing.json: [Errno 2] No such file or '
        "directory: '{tmp}/missing.json'\n", 1),
    'out-missing-dir': (EMPTY,
        'usage error: cannot write {tmp}/missing/c2.json: [Errno 2] No such file '
        "or directory: '{tmp}/missing/c2.json'\n", 1),
}


def make_inputs(tmp):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cli = [sys.executable, "-m", "cliffsys.cli"]
    for m, name in ((3, "c3.json"), (4, "corrupt.json")):
        subprocess.run([*cli, "--out", f"{tmp}/{name}", "gen", "--m", str(m)], env=env, check=True)
    corrupt = Path(tmp, "corrupt.json")
    data = json.loads(corrupt.read_text())
    data["generators"][1] = data["generators"][2]
    corrupt.write_text(json.dumps(data))


def run(argv, tmp, pure):
    env = {k: v for k, v in os.environ.items() if k != "CLIFFSYS_PURE"}
    env["PYTHONPATH"] = str(SRC)
    if pure:
        env["CLIFFSYS_PURE"] = "1"
    done = subprocess.run(
        [sys.executable, "-m", "cliffsys.cli", *[a.format(tmp=tmp) for a in argv]],
        capture_output=True, env=env,
    )
    err = TIMING.sub(": N.NNs", done.stderr.decode().replace(str(tmp), "{tmp}"))
    return hashlib.sha256(done.stdout).hexdigest(), err, done.returncode


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    make_inputs(tmp)
    return tmp


@pytest.mark.parametrize("pure", [False, True], ids=["default", "pure"])
@pytest.mark.parametrize("name, argv", [pytest.param(*row, id=row[0]) for row in COMMANDS])
def test_cli_output_matches_the_golden_table(inputs, name, argv, pure):
    assert run(argv, inputs, pure) == GOLDEN[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        make_inputs(tmp)
        print("GOLDEN = {")
        for name, argv in COMMANDS:
            digest, err, code = row = run(argv, tmp, pure=False)
            assert run(argv, tmp, pure=True) == row, name
            digest = "EMPTY" if digest == EMPTY else repr(digest)
            line = f"    {name!r}: ({digest}, {err!r}, {code}),"
            if len(line) > 99:
                chunks = [c for part in err.splitlines(keepends=True) for c in textwrap.wrap(
                    part, 72, drop_whitespace=False, replace_whitespace=False)] or [""]
                assert "".join(chunks) == err
                line = "\n".join([f"    {name!r}: ({digest},", *(f"        {c!r}" for c in chunks)])
                line += f", {code}),"
            print(line)
        print("}")
