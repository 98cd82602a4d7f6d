"""The package surface: one list of public names, and checks that survive -O."""

import ast
import os
import pathlib
import subprocess
import sys

import bbope
from bbope import bench, envs, estimators, kernels, mdp, mmd, oracle, rng, weights

SRC = pathlib.Path(bbope.__file__).parent
MODULES = (mdp, envs, oracle, kernels, mmd, weights, estimators, rng, bench)


def test_public_names_are_the_modules_lists():
    assert bbope.__all__ == ["__version__"] + [name for m in MODULES for name in m.__all__]
    assert len(set(bbope.__all__)) == len(bbope.__all__)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(bbope, name) is getattr(module, name), (module.__name__, name)


def test_library_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_inconsistent_dataset_fails_under_optimize():
    script = (
        "import numpy as np\n"
        "from bbope.mdp import TransitionDataset\n"
        "try:\n"
        "    TransitionDataset(states=np.zeros(3, int), actions=np.zeros(2, int),\n"
        "                      rewards=np.zeros(5), next_states=np.zeros(1, int))\n"
        "except ValueError as exc:\n"
        "    print('ValueError:', exc)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.startswith("ValueError:") and "got 3, 2, 5 and 1" in out.stdout
