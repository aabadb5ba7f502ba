"""The kernel backends under test.

The C kernel is compiled from `src/cliffsys/_wedge_c.c` with the system
`cc`, so the compiled-against-pure checks run on every machine with a C
compiler and the Python headers, whether or not the package was built.
Where `cc` accepts it, the build traps undefined behaviour
(`-fsanitize=undefined -fno-sanitize-recover=all`): a signed overflow or a
bad shift in the kernel's loops aborts the test run.
"""

import importlib.machinery
import importlib.util
import shutil
import subprocess
import sysconfig
from contextlib import contextmanager
from pathlib import Path

from cliffsys import kernel

SOURCE = Path(__file__).resolve().parents[1] / "src" / "cliffsys" / "_wedge_c.c"


def why_no_c_build():
    """Why this machine cannot build the C kernel, or None when it can."""
    if shutil.which("cc") is None:
        return "no C compiler: `cc` is not on PATH"
    include = sysconfig.get_paths()["include"]
    if not (Path(include) / "Python.h").is_file():
        return f"no Python.h in {include}"
    return None


def compile_c_kernel(directory: Path):
    """(module, None) with the C kernel built in `directory`, or (None, why)
    when this machine cannot build it."""
    why = why_no_c_build()
    if why is not None:
        return None, why
    cc = shutil.which("cc")
    include = sysconfig.get_paths()["include"]
    out = directory / ("_wedge_c" + sysconfig.get_config_var("EXT_SUFFIX"))
    flags = ["-O2", "-Wall", "-Wextra", "-Wno-unused-parameter", "-Werror", "-shared", "-fPIC",
             f"-I{include}", str(SOURCE), "-o", str(out)]
    sanitize = ["-fsanitize=undefined", "-fno-sanitize-recover=all"]
    build = subprocess.run([cc, *sanitize, *flags], capture_output=True, text=True)
    if build.returncode != 0:  # a compiler without the sanitizer
        build = subprocess.run([cc, *flags], capture_output=True, text=True)
    assert build.returncode == 0, build.stderr
    name = "cliffsys._wedge_c"
    loader = importlib.machinery.ExtensionFileLoader(name, str(out))
    spec = importlib.util.spec_from_file_location(name, out, loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module, None


@contextmanager
def dispatch_to(module):
    """Route `kernel` through `module` as if it had been imported as _impl."""
    saved = kernel._impl
    kernel._impl = module
    try:
        yield
    finally:
        kernel._impl = saved
