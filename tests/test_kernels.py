"""How `_kernels.library()` finds, loads and declares the compiled kernels."""

import ctypes
import json
import re
from pathlib import Path

from tamperscan import _kernels
from tamperscan.cli import main

# the parameter and return types ctypes is given for each C type
C_TYPES = {"void": None, "int": ctypes.c_int, "ptrdiff_t": ctypes.c_ssize_t, "double": ctypes.c_double}


def _exports():
    """{name: (return type, [parameter types])} of every function that
    `_kernels.c` defines without `static`, a pointer parameter as "*"."""
    source = _kernels.SOURCE.read_text()
    exports = {}
    for ret, name, params in re.findall(r"^([^\n]*)\n(\w+)\(([^)]*)\)\s*\{", source, re.M):
        if not ret.startswith("static"):
            exports[name] = (ret, ["*" if "*" in p else p.split()[-2] for p in params.split(",")])
    return exports


def test_the_ctypes_declarations_match_the_c_definitions(kernels):
    """A stale argtypes tuple would pass wrong values with no error, so
    `_load` declares every exported function, each with its C signature,
    and nothing else."""
    exports = _exports()
    assert {"descend", "read_csv", "format_values"} <= exports.keys()
    lib = _kernels._load(kernels._name)
    declared = {name for name, value in vars(lib).items() if isinstance(value, ctypes._CFuncPtr)}
    assert declared == exports.keys()
    for name, (ret, params) in exports.items():
        fn = getattr(lib, name)
        assert fn.restype is C_TYPES[ret], name
        assert len(fn.argtypes) == len(params), name
        for param, argtype in zip(params, fn.argtypes):
            if param == "*":
                assert argtype in (ctypes.c_void_p, ctypes.c_char_p), name
            else:
                assert argtype is C_TYPES[param], name


def test_commands_run_the_python_references_without_a_home_directory(tmp_path, monkeypatch):
    """Without an absolute $XDG_CACHE_HOME there is no cache unless a home
    directory is found, which Path.home() cannot do with no $HOME and no
    passwd entry for the uid: the Python references then run."""

    def no_home():
        raise RuntimeError("Could not determine home directory.")

    monkeypatch.setattr(Path, "home", no_home)
    monkeypatch.delenv("XDG_CACHE_HOME")
    _kernels.library.cache_clear()
    try:
        assert _kernels.library() is None
        manifest = tmp_path / "run.ini"
        manifest.write_text(
            "[run]\nout_dir = out\n\n[synth]\nn_counties = 60\nn_features = 4\nn_active = 2\n\n"
            "[cv]\nl1_grid = 1.0\nn_alphas = 5\n\n[mc]\ntrials = 1000\n"
        )
        assert main(["synth", "--manifest", str(manifest)]) == 0
        assert main(["fit", "--manifest", str(manifest)]) == 0
        model = json.loads((tmp_path / "out" / "model.json").read_text())
        assert model["training_meta"]["sweep"] == "python"
    finally:
        _kernels.library.cache_clear()
