"""The package's public names, and what importing it loads."""

import os
import pathlib
import subprocess
import sys

import ifslab


def test_every_public_name_resolves_once_and_star_imports():
    # a name left in __all__ after its object is removed breaks
    # `from ifslab import *` with an AttributeError
    names = ifslab.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(ifslab, name)] == []
    namespace = {}
    exec("from ifslab import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(names)


def test_importing_the_cli_loads_no_code_generation_modules():
    # records are built without exec, so neither dataclasses nor inspect
    # (which dataclasses pulls in) is loaded; pytest imports both itself,
    # hence a fresh interpreter
    src = str(pathlib.Path(ifslab.__file__).resolve().parent.parent)
    code = "import sys, ifslab.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    run = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"
