"""Public surface: the exported names and the README library example."""

import os
import re
import subprocess
import sys
from pathlib import Path

import quiverdias

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    missing = [name for name in quiverdias.__all__ if not hasattr(quiverdias, name)]
    assert missing == []
    assert len(set(quiverdias.__all__)) == len(quiverdias.__all__)


def test_field_config_is_one_class_wherever_it_is_imported():
    # it lives in quiverdias.fields; the package and the oracle re-export it
    from quiverdias import fields, oracle
    from quiverdias.oracle import FieldConfig, is_prime

    assert quiverdias.FieldConfig is oracle.FieldConfig is FieldConfig is fields.FieldConfig
    assert is_prime is fields.is_prime


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from quiverdias import *", namespace)
    assert set(quiverdias.__all__) <= set(namespace)


def readme_library_example() -> str:
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README has no python block under 'Library example'"
    return match.group(1)


def test_readme_library_example_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", readme_library_example()],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    # both identities the example checks hold
    assert proc.stdout.splitlines()[:2] == ["True", "True"]
