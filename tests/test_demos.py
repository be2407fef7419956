"""The demos print exactly what they printed before: each one runs in its own
interpreter, and the SHA-256 of its stdout must match the recorded digest."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

EXPECTED = {
    "01_forms_and_class_numbers.py": "7b794bbf397b03736533a38b4d2a8e6a410ea49a9ce959c16b8f1e0aa50bb555",
    "02_local_global.py": "fc91ce0f4a62d783937baa62c906319acf6ba35ef80d47bfc29bdf3133495c9b",
    "03_level_points.py": "e6fd27480199f013c9d7f9aecf9ac1bae6f761a91610f4e1be37f6ca6f90392a",
    "04_galois_shadows.py": "3006ca92e27ed7fa748a83b6da61fe2100ef45a77664ee9767727b8c607e6734",
    "05_relation_and_lift.py": "478c4a83cc1d95fbfc4e09872d36391803f44a81264f057dd8f1ec70a88dcac7",
    "06_lattices_and_goursat.py": "859a75c8db44b62562aeab74a7548f640901482f2eb53b5515a42a6573a466dc",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(EXPECTED)


@pytest.mark.parametrize("name", list(EXPECTED))
def test_demo_output(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == EXPECTED[name]
