"""Each demo runs and prints what the manifest recorded (see test_golden)."""

import json

import pytest

from test_golden import DEMOS, MANIFEST, demo_stdout, environment, kernel, sha256


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    manifest = json.loads(MANIFEST.read_text())
    assert sha256(demo_stdout(demo)) == manifest["demos"][demo], (
        f"{MANIFEST}: stdout of {demo} differs from the digest recorded on "
        f"the kernels {[kernel(k['environment']) for k in manifest['kernels']]}"
        f"; this build is {environment()}")
