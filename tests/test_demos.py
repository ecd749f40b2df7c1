"""Each demo runs and prints what the manifest recorded (see test_golden),
and the README's library tour runs as written."""

import json
import re

import pytest

from test_golden import DEMOS, MANIFEST, ROOT, demo_stdout, environment, kernel, sha256


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    manifest = json.loads(MANIFEST.read_text())
    assert sha256(demo_stdout(demo)) == manifest["demos"][demo], (
        f"{MANIFEST}: stdout of {demo} differs from the digest recorded on "
        f"the kernels {[kernel(k['environment']) for k in manifest['kernels']]}"
        f"; this build is {environment()}")


def test_readme_tour_runs(capsys):
    # the README's one fenced python block; a name it shows must still exist
    blocks = re.findall(r"^```python\n(.*?)^```$",
                        (ROOT / "README.md").read_text(), re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    map_, oa = map(float, capsys.readouterr().out.split())
    assert map_ >= 0.95 and oa >= 0.95
