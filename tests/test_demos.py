"""The demos run end to end and print what they printed when recorded."""

import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

# sha256 of each demo's stdout, recorded before codeword enumeration became
# one packed stream; demo 03 re-recorded when lattice points became tuples
# of ints, which changed only its two "surviving points" lines
DEMO_SHA256 = {
    "01_five_qubit_distillation.py": "a5dada623bf1b7ea85ee063cf605161efe89c22a40930513dc00426f9e14b60c",
    "02_extremal_enumerators.py": "232f40d9b913ad7301c43d9c3de390abee71ae19025b093c123f7382898a2709",
    "03_bounds_and_lattice.py": "6398fd46863520433e373347ea92507daeb7c5485f5de33da11b44d4e28dd2b9",
    "04_oracle_crosscheck.py": "e8acf981c88cc3f5aa72cec811d45040063dc4402da0bd734c238fe2aa90b997",
}


def test_demo_outputs():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_SHA256)
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    for name, digest in DEMO_SHA256.items():
        proc = subprocess.run(
            [sys.executable, str(ROOT / "demos" / name)],
            env=env, cwd=str(ROOT), capture_output=True, check=True,
        )
        assert hashlib.sha256(proc.stdout).hexdigest() == digest, name
