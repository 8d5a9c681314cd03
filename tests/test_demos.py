"""The demos run to completion and print the same bytes."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# SHA-256 of each demo's stdout. The demos are seeded, so a new hash means
# new output.
PINNED_STDOUT_SHA256 = {
    "codec_walkthrough": "361193fb95910273a77e062375c106a0faffabfc612236c6caf4fd24d416cc08",
    "forest_sampling": "6e20aefbc7577fe7f7dab137e504d123589bae272467e9e4e262401618afdeb8",
    "limit_objects": "f46026f83572f238688d1d206be40d1d790c8daf32762a145654b0c15fdf2c40",
}


# Every script in demos/, so a new demo without a pin fails.
@pytest.mark.parametrize("demo", sorted(p.stem for p in (ROOT / "demos").glob("*.py")))
def test_demo_stdout_is_pinned(demo):
    out = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                         capture_output=True, check=True).stdout
    assert hashlib.sha256(out).hexdigest() == PINNED_STDOUT_SHA256[demo]
