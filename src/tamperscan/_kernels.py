"""The compiled kernels of `_kernels.c`, built on first use and loaded
through ctypes.

`library()` is the one place that knows how: the build, the cache, the
check of a cached file and the ctypes declarations. Each caller keeps a
Python reference with the same IEEE operations and runs it where
`library()` is None, so no output depends on which one ran.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import tempfile
import time
from pathlib import Path

SOURCE = Path(__file__).with_name("_kernels.c")
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
# a build deletes every other cached library last written longer ago than this
STALE_AFTER_S = 30 * 24 * 3600


def compiler() -> list[str]:
    """The C compiler this Python was built with, as the head of an argv."""
    import shlex
    import sysconfig

    return shlex.split(sysconfig.get_config_var("CC") or "cc")


@functools.cache
def library():
    """`_kernels.c` as a ctypes library, built on first use; None if it cannot
    be built or loaded, so each caller runs its Python reference.

    The shared library lives in $XDG_CACHE_HOME/tamperscan (when that is an
    absolute path; otherwise ~/.cache/tamperscan), so later processes load
    it without compiling; with no home directory either, there is no cache
    and the result is None. `_kernels.c` is plain C, so the build needs no
    Python headers and one library serves every Python version. Its name
    holds the sha256 of the source and the compiler flags, then the sha256
    of its own bytes: it is written under a temporary name and moved into
    place, and a file whose bytes do not match its name (truncated, say,
    which would crash the loader) is never loaded but rebuilt. Nothing is
    compiled or loaded at import time, and a load deletes nothing.
    """
    try:
        key = hashlib.sha256(SOURCE.read_bytes())
        key.update("\0".join(FLAGS).encode())
        xdg = os.environ.get("XDG_CACHE_HOME", "")  # relative: not valid, so ignored
        try:
            cache = Path(xdg if os.path.isabs(xdg) else Path.home() / ".cache") / "tamperscan"
        except RuntimeError:  # no $HOME, and the uid has no passwd entry
            return None
        stem = f"_kernels-{key.hexdigest()[:16]}"
        for path in cache.glob(f"{stem}-*.so"):
            if path.name == f"{stem}-{_digest(path)}.so":
                return _load(path)
        return _load(_build(cache, stem))
    except OSError:
        return None


def _build(cache: Path, stem: str) -> Path:
    """Compile SOURCE into `cache` as `<stem>-<digest>.so`; OSError if that fails.

    A new build then deletes every other cached library, of this version or
    another, last written more than 30 days ago, including those of the
    earlier `_sweep.c`. One in use by another version is at worst rebuilt
    once a month: its fresh copy survives this version's next build.
    """
    # imported here: loading a cached library does not pay for it
    import subprocess

    cache.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
    os.close(fd)
    try:
        try:
            subprocess.run(
                [*compiler(), *FLAGS, str(SOURCE), "-o", tmp],
                check=True, capture_output=True, timeout=120,
            )
        except subprocess.SubprocessError as err:
            raise OSError(f"cannot compile {SOURCE.name}: {err}") from None
        path = cache / f"{stem}-{_digest(tmp)}.so"
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    _prune(cache, keep=path)
    return path


def _prune(cache: Path, keep: Path) -> None:
    cutoff = time.time() - STALE_AFTER_S
    for old in [*cache.glob("_kernels-*.so"), *cache.glob("_sweep-*.so")]:
        try:
            if old != keep and old.stat().st_mtime < cutoff:
                old.unlink()
        except OSError:
            pass  # another process removed or replaced it first


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def _load(path):
    lib = ctypes.CDLL(str(path))
    lib.descend.argtypes = (
        *(ctypes.c_void_p,) * 5, ctypes.c_ssize_t, ctypes.c_ssize_t, *(ctypes.c_double,) * 3,
        ctypes.c_ssize_t, ctypes.c_void_p,
    )
    lib.descend.restype = ctypes.c_int
    lib.descend_work.argtypes = (ctypes.c_ssize_t, ctypes.c_ssize_t)
    lib.descend_work.restype = ctypes.c_ssize_t
    for elementwise in (lib.normal_quantile, lib.erfc_array):
        elementwise.argtypes = (ctypes.c_void_p, ctypes.c_void_p, ctypes.c_ssize_t)
        elementwise.restype = None
    lib.format_values.argtypes = (
        ctypes.c_char_p, ctypes.c_ssize_t, ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_void_p,
        ctypes.c_ssize_t,
    )
    lib.format_values.restype = ctypes.c_ssize_t
    lib.count_lines.argtypes = (ctypes.c_void_p, ctypes.c_ssize_t)
    lib.count_lines.restype = ctypes.c_ssize_t
    lib.read_csv.argtypes = (
        ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_char_p, *(ctypes.c_ssize_t,) * 3,
        *(ctypes.c_void_p,) * 3, ctypes.c_ssize_t,
    )
    lib.read_csv.restype = ctypes.c_ssize_t
    return lib
