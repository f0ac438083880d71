"""The compiled kernels, built from the tracked ``_ckernels.c``, pass the
kernel tests that need them, whichever backend this interpreter loaded.

The build goes to a temporary directory with the compiler and flags that
``perfbench/run.py`` uses.  A child pytest then runs the compiled-only and
parity tests of ``tests/test_kernels.py``; a ``sitecustomize`` module on
its ``PYTHONPATH`` loads that build as ``cechstrat._kernels._ckernels``,
in the child and in every interpreter it starts.  Nothing is written into
the checkout.
"""

import os
import re
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: installs the finder before anything imports the package
_SITECUSTOMIZE = """
import importlib.abc
import importlib.util
import sys


class _TrackedBuild(importlib.abc.MetaPathFinder):
    def find_spec(self, fullname, path, target=None):
        if fullname == "cechstrat._kernels._ckernels":
            return importlib.util.spec_from_file_location(fullname, {path!r})
        return None


sys.meta_path.insert(0, _TrackedBuild())
"""


def _build(out_dir: Path) -> Path:
    cmd = shlex.split(sysconfig.get_config_var("CC") or "cc") + [
        "-shared", "-fPIC", "-O3", "-fwrapv", "-DNDEBUG",
        "-I", sysconfig.get_paths()["include"],
    ]
    if shutil.which(cmd[0]) is None:
        pytest.skip(f"no C compiler: {cmd[0]} not found")
    target = out_dir / f"_ckernels{sysconfig.get_config_var('EXT_SUFFIX')}"
    source = ROOT / "src" / "cechstrat" / "_kernels" / "_ckernels.c"
    proc = subprocess.run(cmd + [str(source), "-o", str(target)], capture_output=True,
                          text=True, timeout=600, env={**os.environ, "TMPDIR": str(out_dir)})
    assert proc.returncode == 0, proc.stderr[-2000:]
    return target


def test_the_tracked_c_passes_the_kernel_tests(tmp_path):
    extension = _build(tmp_path)
    (tmp_path / "sitecustomize.py").write_text(_SITECUSTOMIZE.format(path=str(extension)))
    env = dict(os.environ, CECHSTRAT_KERNELS="compiled", PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(tmp_path), str(ROOT / "src"), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(ROOT),
         str(ROOT / "tests" / "test_kernels.py"), "-k", "compiled or Parity"],
        capture_output=True, text=True, timeout=900, cwd=tmp_path, env=env)
    summary = proc.stdout.strip().splitlines()
    assert proc.returncode == 0, "\n".join(summary[-40:])
    # the build was the one loaded, so no compiled-only test skipped
    assert "cechstrat kernels: compiled (importable: compiled, pure)" in summary
    counts = dict((word, int(n)) for n, word in re.findall(r"(\d+) (\w+)", summary[-1]))
    assert counts.get("passed", 0) > 0 and "skipped" not in counts, summary[-1]
