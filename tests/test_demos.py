"""The four demo scripts, run as a user would, with their stdout pinned.

Each script runs in a fresh interpreter from a copy of ``demos/`` in a
temporary directory, so the file ``lattice_gallery.py`` writes lands
there.  A change that alters any printed verdict, flag or count changes
a digest.
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import modmax

DEMOS = Path(__file__).resolve().parents[1] / "demos"

STDOUT_SHA256 = {
    "bound_sharpness.py":
        "6de0dc99770a7e8964a0161e04239d7e86fdfae82748c201790454868ddf4f6e",
    "classification_tour.py":
        "af830d497c4a130778701a45194d205d826341bdd9b36f43637cd89442cdba5c",
    "lattice_gallery.py":
        "3b00074e4bf98c1c4fdf6cfbdd7beec59a363a9bf956bab971518c7c9df1ceef",
    "theorem_harness.py":
        "e30fe2e12e8993c79b28faea5881a5477429888dad5d2e1eab3144c826fb8d33",
}

QUATERNION_DOT_SHA256 = (
    "40f17f9efdefaf3399d1bef600653780842a51347e0fc989709ca13bdfacdaf6")


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("script", sorted(STDOUT_SHA256))
def test_demo_stdout_is_pinned(tmp_path, script):
    shutil.copytree(DEMOS, tmp_path / "demos")
    env = dict(os.environ,
               PYTHONPATH=str(Path(modmax.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, str(tmp_path / "demos" / script)],
                          capture_output=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[script]
    if script == "lattice_gallery.py":
        dot = (tmp_path / "demos" / "quaternion_lattice.dot").read_bytes()
        assert hashlib.sha256(dot).hexdigest() == QUATERNION_DOT_SHA256
