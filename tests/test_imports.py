"""The package and each CLI command load only the modules they use.

Each check runs in a fresh interpreter, since the test process has long
imported every module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from p3ap import io as p3ap_io

PACKAGE_ROOT = str(Path(p3ap_io.__file__).resolve().parents[1])

LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'p3ap')"


def run_python(code, cwd=None):
    """The JSON that code prints last, run by a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_p3ap_loads_no_solver_structure_or_generator():
    loaded = run_python(f"import json, sys, p3ap; print(json.dumps({LOADED}))")
    assert loaded == ["p3ap"]


def test_public_names_are_their_modules_objects():
    got = run_python(
        "import importlib, json, p3ap\n"
        "names = {}\n"
        "for name in p3ap.__all__:\n"
        "    obj = getattr(p3ap, name)\n"
        "    owner = importlib.import_module(obj.__module__)\n"
        "    names[name] = [obj.__module__, getattr(owner, name) is obj]\n"
        "print(json.dumps(names))\n"
    )
    import p3ap

    assert list(got) == p3ap.__all__ and len(got) == 29
    assert {module for module, _ in got.values()} == {
        f"p3ap.{m}" for m in ("core", "monge", "solvers", "structure", "instances")
    }
    assert all(same for _, same in got.values())


def test_star_import_dir_and_unknown_names():
    got = run_python(
        "import json, sys, p3ap\n"
        "listed = dir(p3ap)\n"
        "scope = {}\n"
        "exec('from p3ap import *', scope)\n"
        "try:\n"
        "    p3ap.solve_nothing\n"
        "    unknown = None\n"
        "except AttributeError as e:\n"
        "    unknown = str(e)\n"
        "bound = [n for n in p3ap.__all__ if scope.get(n) is getattr(p3ap, n)]\n"
        "print(json.dumps([listed, bound, unknown, p3ap.__all__]))\n"
    )
    listed, bound, unknown, names = got
    assert set(names) <= set(listed) and "__version__" in listed
    assert bound == names
    assert unknown == "module 'p3ap' has no attribute 'solve_nothing'"


def test_size_limit_error_is_one_class():
    same = run_python(
        "import json\n"
        "from p3ap import core, solvers\n"
        "print(json.dumps([solvers.OracleSizeLimitError is core.OracleSizeLimitError,\n"
        "                  issubclass(solvers.OptimaLimitError, core.OracleSizeLimitError)]))\n"
    )
    assert same == [True, True]


def cli_modules(args, cwd):
    return run_python(
        "import json, sys\n"
        "from p3ap.cli import main\n"
        f"code = main({args!r})\n"
        f"print(json.dumps([code, {LOADED}]))\n",
        cwd,
    )


BASE = ["p3ap", "p3ap.cli", "p3ap.core", "p3ap.io", "p3ap.monge"]


def test_each_cli_command_loads_only_its_modules(tmp_path):
    code, gen = cli_modules(["gen", "random-monge", "--n", "6", "--p", "2", "--output",
                             "inst.txt"], tmp_path)
    assert code == 0 and gen == sorted([*BASE, "p3ap.instances"])
    code, solve = cli_modules(["solve", "--input", "inst.txt", "--format", "json",
                               "--output", "sol.json"], tmp_path)
    assert code == 0 and solve == sorted([*BASE, "p3ap.solvers"])
    code, check = cli_modules(["check", "--input", "inst.txt", "--solution", "sol.json"],
                              tmp_path)
    assert code == 0 and check == sorted([*BASE, "p3ap.structure"])
