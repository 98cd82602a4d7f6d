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


# what `import bbope` may load beyond numpy's own imports: a new module-level
# import lands on the start-up time of every benchmark and CLI run
IMPORT_ALLOWLIST = {
    "__future__", "_blake2", "_hashlib", "_json", "copy", "dataclasses", "hashlib", "json",
    "json.decoder", "json.encoder", "json.scanner",
}


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          check=True, timeout=120).stdout


def test_import_adds_no_module_beyond_the_allowlist():
    script = (
        "import sys, numpy\n"
        "before = set(sys.modules)\n"
        "import bbope\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    added = set(run_python("-c", script).split())
    foreign = {m for m in added if m != "bbope" and not m.startswith("bbope.")}
    assert foreign <= IMPORT_ALLOWLIST, sorted(foreign - IMPORT_ALLOWLIST)


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
    out = run_python("-O", "-c", script)
    assert out.startswith("ValueError:") and "got 3, 2, 5 and 1" in out
