"""Each demo prints the same bytes: sha256 pins of its stdout.

A change that moves a pin changes what a demo shows; re-pin only with the
reason recorded in CHANGES.md.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMO_SHA256 = {
    "demo_experiments.py": "ae488cc73cb73fdc0452e7a4141fea64f9b9ac1b05814c19dd4c88b3fd5ba3ce",
    "demo_hash_families.py": "28fe0f5ba274d72de10b622e9fe2b7618d0d0e9757db5be16cb1230b43f9848e",
    "demo_moment_bounds.py": "279ab7589c18f0426b8a1189104fc6096dcbdaeafe99c11880affef7226f929f",
    "demo_probing_runs.py": "36093eac3173b6d6d18e25ce7699a909dc3e5b3ef9855ac9b54d92a77acb2ce8",
    "demo_signature_filter.py": "b8026887fd095adfcf40d2cb2f47320370df2e2fa641cbacbeb12efc73fcfa0e",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_SHA256)


@pytest.mark.parametrize("demo", sorted(DEMO_SHA256))
def test_demo_output_pinned(demo):
    src = str(ROOT / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], capture_output=True,
                         check=True, env={**os.environ, "PYTHONPATH": path}).stdout
    assert hashlib.sha256(out).hexdigest() == DEMO_SHA256[demo]
