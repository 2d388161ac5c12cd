"""Start-up: `import ncdomain` and each subcommand load only the layers they run.

The package namespace is lazy: a public name imports its module on first
access and is then bound in the package, as the same object the module
holds.  The subprocess checks run in a fresh interpreter, where nothing
the test session imported is loaded yet.
"""

import importlib
import json
import subprocess
import sys

import pytest

import ncdomain

HEAVY = {"berezin", "cp_maps", "rigidity", "selftest"}


def _loaded_after(code: str) -> set[str]:
    """The `ncdomain` submodules a fresh interpreter holds after running ``code``."""
    script = (
        f"{code}\nimport sys\n"
        "print(' '.join(m.split('.', 1)[1] for m in sys.modules"
        " if m.startswith('ncdomain.')))"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_import_loads_no_heavy_layer():
    loaded = _loaded_after("import ncdomain, ncdomain.cli")
    assert "cli" in loaded
    assert loaded & HEAVY == set()


@pytest.mark.parametrize("command,layer", [
    ("weights", "weights"), ("model", "fock_model"), ("member", "cp_maps"),
])
def test_subcommand_loads_only_its_layers(tmp_path, command, layer):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {"n": 1, "m": 1, "N": 3, "symbol": {"n": 1, "coeffs": {"1": 1.0}}}
    ))
    point = tmp_path / "tuple.json"
    point.write_text(json.dumps({"matrices": [[[0.5]]]}))
    argv = [command, "--config", str(config), "--out", str(tmp_path / "r.txt")]
    if command == "member":
        argv += ["--tuple", str(point)]
    loaded = _loaded_after(
        f"from ncdomain.cli import main\nassert main({argv!r}) == 0"
    )
    allowed = {"cp_maps"} if command == "member" else set()
    assert layer in loaded
    assert loaded & HEAVY <= allowed


def test_every_export_is_its_modules_object():
    for module, names in ncdomain._EXPORTS.items():
        owner = importlib.import_module(f"ncdomain.{module}")
        for name in names:
            assert getattr(ncdomain, name) is getattr(owner, name)
            assert vars(ncdomain)[name] is getattr(owner, name)  # bound on first use


def test_dir_lists_every_export():
    assert set(dir(ncdomain)) >= set(ncdomain.__all__)


@pytest.mark.parametrize("name", ["no_such_name", "spectral_radius_estimate"])
def test_unknown_attribute_raises(name):
    with pytest.raises(AttributeError, match=name):
        getattr(ncdomain, name)


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from ncdomain import *", namespace)
    for name in ncdomain.__all__:
        assert namespace[name] is getattr(ncdomain, name)
