"""Import contract: the package and the parser load numpy only when something computes.

Each case runs in a fresh interpreter, because this one has numpy loaded.
"""

import importlib
import pkgutil

import pytest

import orbiform

from test_entrypoint import run_child


def loaded_after(code: str) -> set[str]:
    """Module names loaded by a fresh interpreter after running code."""
    out = run_child(["-c", f"{code}\nimport sys\nprint(' '.join(sys.modules))"],
                    capture_output=True, text=True, check=True).stdout
    return set(out.split("\n")[-2].split())


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["optimize", "--help"],
        ["optimize", "--width", "-1"],
        ["optimize", "--restarts", "0"],
        ["reuleaux", "--sides", "4"],
        ["table", "--max", "2"],
        ["optimize", "--grid", "7"],
        ["optimize", "--modes", "-1"],
        ["optimize", "--modes", "2"],
        ["optimize", "--grid", "64", "--modes", "40"],
        ["reuleaux", "--sides", "3", "--modes", "5"],
        ["table", "--max", "99"],  # the closed form is computed with math
        ["optimize", "--seed", "-1"],
        ["optimize", "--grid", "8196", "--modes", "4097"],  # above the file's degree limit
    ],
)
def test_parsing_leaves_numpy_unloaded(argv):
    loaded = loaded_after(f"from orbiform import cli\ncli.main({argv!r})")
    assert "numpy" not in loaded
    assert "orbiform.harmonic_core" not in loaded


def test_import_orbiform_loads_no_submodule():
    loaded = loaded_after("import orbiform")
    assert "numpy" not in loaded
    assert not {m for m in loaded if m.startswith("orbiform.")}


REULEAUX = ["reuleaux", "--sides", "3", "--modes", "64", "--out", "{tmp}/r.json"]
# the argument lists each case runs in one process; validate reads a dim-2 file
CLOSED_FORM_RUNS = {
    "reuleaux": [[*REULEAUX, "--svg", "{tmp}/r.svg"]],
    "validate": [REULEAUX, ["validate", "{tmp}/r.json"]],
}


@pytest.mark.parametrize("command", sorted(CLOSED_FORM_RUNS))
def test_closed_form_commands_skip_the_optimizer(command, tmp_path):
    code = "from orbiform import cli"
    for argv in CLOSED_FORM_RUNS[command]:
        code += f"\nassert cli.main({[a.format(tmp=tmp_path) for a in argv]!r}) == 0"
    loaded = loaded_after(code)
    assert "orbiform.body2d" in loaded
    assert "orbiform.variational" not in loaded
    assert "orbiform.spheroform3d" not in loaded


STANDARD_LIBRARY_RUNS = {
    "reuleaux": [*REULEAUX, "--svg", "{tmp}/r.svg"],
    "table": ["table", "--max", "99", "--out", "{tmp}/t.csv"],
}


@pytest.mark.parametrize("command", sorted(STANDARD_LIBRARY_RUNS))
def test_reuleaux_and_table_compute_with_the_standard_library(command, tmp_path):
    # shapeio writes its files without json; only its reader imports it
    argv = [a.format(tmp=tmp_path) for a in STANDARD_LIBRARY_RUNS[command]]
    loaded = loaded_after(f"from orbiform import cli\nassert cli.main({argv!r}) == 0")
    assert not {"numpy", "orbiform.harmonic_core", "dataclasses", "json"} & loaded


def test_validate_of_a_switch_file_loads_no_numpy(tmp_path):
    # the file is written in this process; validate runs alone in a fresh one
    from orbiform import cli

    assert cli.main([a.format(tmp=tmp_path) for a in REULEAUX]) == 0
    loaded = loaded_after(f"from orbiform import cli\nassert cli.main(['validate', '{tmp_path}/r.json']) == 0")
    assert "orbiform.body2d" in loaded
    assert "numpy" not in loaded
    assert "orbiform.harmonic_core" not in loaded


def test_validate_of_an_optimize_file_with_switches_loads_no_numpy(tmp_path):
    # optimize writes the polished switches in this process; validate
    # certifies them in a fresh one with math alone
    from orbiform import cli

    path = tmp_path / "r.json"
    assert cli.main(["optimize", "--grid", "16", "--modes", "7", "--restarts", "2",
                     "--out", str(path)]) == 0
    assert '"switches"' in path.read_text()
    loaded = loaded_after(f"from orbiform import cli\nassert cli.main(['validate', '{path}']) == 0")
    assert "orbiform.body2d" in loaded
    assert not {"numpy", "orbiform.harmonic_core", "orbiform.variational"} & loaded


def test_the_switch_polish_system_loads_no_numpy():
    # switch space is math up to the polish's Newton step, so a certificate
    # can reuse its window, checks, Green form, residuals and Jacobian
    loaded = loaded_after("from orbiform import switches\n"
                          "theta = [0.5, 1.5, 2.5]\n"
                          "window, closure = switches.switch_window(theta, 1.0, 7)\n"
                          "assert len(switches.switch_checks(theta, 1.0, window)) == 5\n"
                          "assert switches.switch_phi(theta, 1.0) < 0.0\n"
                          "resid, jac = switches.switch_system(theta, [0.1, -0.2])\n"
                          "assert len(resid) == 5 and len(jac) == 5")
    assert "orbiform.switches" in loaded
    assert not {"numpy", "orbiform.harmonic_core", "orbiform.variational"} & loaded


def test_the_switch_polish_imports_numpy_linalg_when_it_runs():
    loaded = loaded_after("from orbiform import switches\n"
                          "p = switches.polish([0.5, 1.5, 2.5], 1.0, 7)\n"
                          "assert p.declined is None and len(p.switches) == 3")
    assert "numpy.linalg" in loaded
    assert not {"orbiform.harmonic_core", "orbiform.variational"} & loaded


def test_validate_of_a_dim2_file_without_switches_samples_with_numpy(tmp_path):
    path = tmp_path / "disk.json"
    path.write_text('{"dim": 2, "width": 1.0, "coeffs": [{"degree": 0, "part": "cos", '
                    '"value": 1.2533141373155001}]}')
    loaded = loaded_after(f"from orbiform import cli\nassert cli.main(['validate', '{path}']) == 0")
    assert "numpy" in loaded
    assert "orbiform.variational" not in loaded


@pytest.mark.parametrize("name", orbiform.__all__)
def test_lazy_names_resolve_to_their_module(name):
    module = importlib.import_module(f"orbiform.{orbiform._MODULE_OF[name]}")
    assert getattr(orbiform, name) is getattr(module, name)


SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(orbiform.__path__) if m.name != "__main__")


@pytest.mark.parametrize("module", SUBMODULES)
def test_all_lists_names_the_module_has_and_the_package_exports(module):
    # perfbench's traced worker reads every name in each module's __all__
    mod = importlib.import_module(f"orbiform.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert set(orbiform._EXPORTS.get(module, ())) - set(mod.__all__) == set()


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        orbiform.no_such_name
    assert not hasattr(orbiform, "no_such_name")


def test_dir_and_star_import_list_every_lazy_name():
    assert set(orbiform._MODULE_OF) <= set(dir(orbiform))
    names = {}
    exec("from orbiform import *", names)
    assert set(names) - {"__builtins__"} == set(orbiform._MODULE_OF)
