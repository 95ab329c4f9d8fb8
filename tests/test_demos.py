import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo, src_env):
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=src_env
    )
    assert proc.returncode == 0, proc.stderr
