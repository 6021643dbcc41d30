"""Build, cache and load the compiled RK4 kernel, `_rk4.c`.

The library has one RK4 step body and two entry points that run it:
`rk4_lanes`, the lane RK4 stepper behind `integrator._lanes`, and
`rk4_sensitivities`, the one-lane pass with forward sensitivities behind
`fitting._outputs_and_sensitivities`, the fit's one forward path. It is
compiled with the interpreter's C compiler (sysconfig's CC, else
``cc``) and fixed flags, on the first lane run of a process, never at
import. The library is cached as
``${XDG_CACHE_HOME:-~/.cache}/lettucesim/rk4-<sha256>.so``, keyed by
the source, the compiler command and the flags, so later processes load
it without compiling; a cache directory that cannot be written gives way
to a temporary directory of this process. After a build, every other
``rk4-*.so`` in the cache directory (a library of an older source,
compiler or flags) is removed. A failed build raises a RuntimeError
naming the command, with the tail of its stderr.
"""

from __future__ import annotations

import atexit
import ctypes
import functools
import hashlib
import os
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
from pathlib import Path

SOURCE = Path(__file__).with_name("_rk4.c")

# Fixed flags. -ffp-contract=off keeps every multiply and add separately
# rounded, as in Python and numpy: a fused multiply-add would change last
# bits. -O3 and the kernel's `restrict` pointers vectorize the lane loop
# (without them it ran 2x slower). Never -ffast-math, -Ofast or
# -march=native: each changes results or ties them to one CPU.
CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")

_double, _int64, _ptr = ctypes.c_double, ctypes.c_int64, ctypes.c_void_p


def compiler() -> list:
    """The compiler command as an argument list: sysconfig's CC, else ``cc``."""
    return shlex.split(sysconfig.get_config_var("CC") or "cc")


@functools.cache
def load():
    """The kernel library, `rk4_lanes` and `rk4_sensitivities` typed, built or read from the cache once per process."""
    cc = compiler()
    key = hashlib.sha256("\0".join([SOURCE.read_text(), *cc, *CFLAGS]).encode()).hexdigest()
    name = f"rk4-{key}.so"
    cache = Path(os.environ.get("XDG_CACHE_HOME") or "~/.cache").expanduser() / "lettucesim"
    path = cache / name
    if not path.exists():
        try:
            cache.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
            os.close(fd)
        except OSError:  # an unwritable cache: build for this process only
            cache = Path(tempfile.mkdtemp(prefix="lettucesim-rk4-"))
            atexit.register(shutil.rmtree, cache, ignore_errors=True)
            tmp = str(cache / "build.so")
            path = cache / name
        _build(cc, tmp, path)
        for stale in cache.glob("rk4-*.so"):
            if stale != path:
                stale.unlink(missing_ok=True)  # another process may have removed it first
    lib = ctypes.CDLL(str(path))
    lib.rk4_lanes.restype = lib.rk4_sensitivities.restype = None
    lib.rk4_lanes.argtypes = [
        _int64, _int64, _int64, _double, _double, _ptr, _ptr, _ptr, _ptr, _ptr, _ptr, _ptr, _int64]
    lib.rk4_sensitivities.argtypes = [
        _int64, _ptr, _int64, _ptr, _double, _double, _ptr, _ptr, _ptr, _ptr, _double, _ptr, _ptr, _ptr]
    return lib


def _build(cc, tmp, path) -> None:
    """Compile the kernel into the file `tmp`, then move it to `path`; a RuntimeError if the compiler fails."""
    cmd = [*cc, *CFLAGS, "-o", str(tmp), str(SOURCE)]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True)
        error = done.stderr if done.returncode else None
    except OSError as exc:  # no such compiler
        error = str(exc)
    if error is not None:
        Path(tmp).unlink(missing_ok=True)
        tail = "\n".join(error.strip().splitlines()[-20:])
        raise RuntimeError(f"building the lane RK4 kernel failed: {shlex.join(cmd)}\n{tail}")
    os.replace(tmp, path)
