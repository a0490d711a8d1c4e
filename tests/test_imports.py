"""The package and the numpy-free commands import no numpy.

Each check runs in a fresh interpreter, since this test process has
long since imported numpy; none of them measures time.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import stringcalc

SRC = Path(stringcalc.__file__).resolve().parent.parent
DATA = SRC / "stringcalc" / "data"


@pytest.mark.parametrize("code", [
    "import stringcalc",
    "import stringcalc.resources, stringcalc.rewrite",
    "from stringcalc import cli\n"
    f"assert cli.main(['rate', {str(DATA / 'doubler.json')!r}, 'A', 'B']) == 0",
    "from stringcalc import cli\n"
    f"assert cli.main(['normalize', {str(DATA / 'snake.json')!r}]) == 0",
], ids=["package", "resources-rewrite", "cli-rate", "cli-normalize"])
def test_runs_without_numpy(code):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    check = "import sys\nprint('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", f"{code}\n{check}"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("name", stringcalc.__all__)
def test_exported_name_is_its_submodules(name):
    obj = getattr(stringcalc, name)
    assert obj.__module__.startswith("stringcalc.")
    assert obj is getattr(importlib.import_module(obj.__module__), name)
    assert name in dir(stringcalc)


@pytest.mark.parametrize("module", sorted(
    m.name for m in pkgutil.iter_modules(stringcalc.__path__)))
def test_submodule_star_import_gives_its_all(module):
    names = getattr(importlib.import_module(f"stringcalc.{module}"),
                    "__all__", [])
    namespace: dict = {}
    exec(f"from stringcalc.{module} import *", namespace)
    assert set(names) <= set(namespace)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        stringcalc.no_such_name
    assert not hasattr(stringcalc, "no_such_name")
