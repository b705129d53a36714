"""The package keeps only what the engine runs.

Every public top-level function, class and constant of `src/mvsweep`, and
every public method and property of those classes, must be used by name
outside its own definition: from the package, the bench (`perfbench/`) or
`scripts/`.  A name only tests use belongs under `tests/`.  ALLOWED lists
the few that stay in the package for a test, with the test that needs each.

The engine needs numpy alone at run time: scipy is a test-only oracle, and a
run must not import it.
"""

from __future__ import annotations

import ast
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mvsweep"
USERS = ("src", "perfbench", "scripts")

ALLOWED = {
    "harness.formats.load_volume": (
        "test_acceptance.py::test_criterion_12_determinism_and_round_trips (MVSV round trip)"
    ),
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _definitions():
    """(path, dotted name, node, is_member) of each public top-level function,
    class and constant of the package and each public method and property of
    those classes; the dotted name is relative to `mvsweep`.  A constant is a
    name a module-level assignment binds."""
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                for t in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    if isinstance(t, ast.Name) and not t.id.startswith("_"):
                        yield path, f"{module}.{t.id}", node, False
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path, f"{module}.{node.name}", node, False
                for sub in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield path, f"{module}.{node.name}.{sub.name}", sub, True


def _uses(tree, skip=None) -> tuple[set, set]:
    """(names, attributes) that `tree` uses outside the node `skip`.  Names
    include imported ones; a string constant that is a dotted name counts
    for both, as a getattr by name spells it.  Docstrings do not count."""
    names, attrs = set(), set()
    lines = range(skip.lineno, skip.end_lineno + 1) if skip is not None else range(0)
    prose = {id(n.value) for n in ast.walk(tree)
             if isinstance(n, ast.Expr) and isinstance(n.value, ast.Constant)}
    for n in ast.walk(tree):
        if getattr(n, "lineno", None) in lines or id(n) in prose:
            continue
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            attrs.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.name.split(".")[-1])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and _DOTTED.fullmatch(n.value):
            names.update(n.value.split("."))
            attrs.update(n.value.split("."))
    return names, attrs


def _unused() -> list[str]:
    trees = {p: ast.parse(p.read_text()) for d in USERS for p in sorted((ROOT / d).rglob("*.py"))}
    uses = {p: _uses(tree) for p, tree in trees.items()}
    unused = []
    for path, name, node, is_member in _definitions():
        short = name.rsplit(".", 1)[-1]
        for p, tree in trees.items():
            names, attrs = _uses(tree, node) if p == path else uses[p]
            if short in attrs or (not is_member and short in names):
                break
        else:
            unused.append(name)
    return unused


def test_every_public_name_is_used_outside_the_tests():
    assert [name for name in _unused() if name not in ALLOWED] == []


def test_allowlist_names_only_unused_names():
    defined = {name for _, name, _, _ in _definitions()}
    assert sorted(set(ALLOWED) - defined) == []
    assert sorted(set(ALLOWED) - set(_unused())) == []


# Generates a small scene, then runs `refine` on it through the CLI module's
# imports, and prints the scipy modules loaded by then.
_RUN_WITHOUT_SCIPY = """
import sys
import mvsweep.harness.cli
from mvsweep.harness import pipeline
from mvsweep.harness.config import PipelineConfig
from mvsweep.scenegen import generate_scene, make_trajectory

scene_dir, out_dir = sys.argv[1:]
scene = generate_scene(seed=5, n_boxes=1)
pipeline.write_scene(scene_dir, scene, make_trajectory(scene, 5, seed=5, image_size=(64, 48)))
config = PipelineConfig(grid_dims=(16, 16, 8), grid_pitch=(0.4, 0.4, 0.4),
                        grid_origin=(-3.2, -3.2, 0.0), min_component=2, refine_steps=1)
result = pipeline.run_pipeline(scene_dir, config, out_dir=out_dir, refine=True)
assert result.boxes and result.refined_views
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_a_refine_run_imports_no_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_WITHOUT_SCIPY, str(tmp_path / "scene"), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert proc.stdout.splitlines()[-1] == "[]"
    assert [p.name for p in PACKAGE.rglob("*.py") if "scipy" in p.read_text()] == []
