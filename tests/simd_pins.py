"""Pinned values keyed by numpy's SIMD class.

numpy's float64 `exp`, `log` and `log1p` kernels give other last bits on
AVX-512 than on AVX2 or baseline x86-64, so a value that passes through them
is pinned once per class.  The class is the one `scripts/golden_hash.py`
names from numpy's `found` list.  A class with no row fails and names the
value to add; it never skips.
"""

from __future__ import annotations

import importlib.util
import os

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "golden_hash.py")


def _load_golden_hash():
    spec = importlib.util.spec_from_file_location("golden_hash", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden_hash = _load_golden_hash()
SIMD_CLASS = golden_hash.simd_class(golden_hash.simd_found())

# The x86-64 classes, from the most capable down.
X86_CLASSES = ("AVX-512", "AVX2", "baseline")


def emulation_env(cls: str) -> dict[str, str] | None:
    """The environment under which numpy on this host dispatches as `cls`,
    or None when this host cannot: NPY_DISABLE_CPU_FEATURES names every found
    extension the class lacks, on top of any it already names."""
    if SIMD_CLASS not in X86_CLASSES or X86_CLASSES.index(cls) < X86_CLASSES.index(SIMD_CLASS):
        return None
    found = golden_hash.simd_found()
    keep = {"AVX-512": found, "AVX2": ["X86_V3"], "baseline": []}[cls]
    env = dict(os.environ)
    off = [env.get("NPY_DISABLE_CPU_FEATURES", "")] + [f for f in found if f not in keep]
    env["NPY_DISABLE_CPU_FEATURES"] = " ".join(off).strip()
    return env


def assert_pinned(name: str, actual: str, rows: dict[str, str], cls: str = SIMD_CLASS) -> None:
    assert cls in rows, f"{name} has no row for SIMD class {cls!r}: add {cls!r}: {actual!r}"
    assert actual == rows[cls], f"{name} on SIMD class {cls!r}"
