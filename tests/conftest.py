import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, settings

import kirchlab

settings.register_profile(
    "kirchlab",
    deadline=None,
    max_examples=80,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("kirchlab")


def _run_fresh(code: str) -> tuple:
    # the peak of a fresh process is its VmHWM, which exec resets, while
    # ru_maxrss keeps the peak of the test process that spawned it
    src = os.path.dirname(os.path.dirname(kirchlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    probe = (
        f"{code}\n"
        "status = open('/proc/self/status').read()\n"
        "print(int(status.split('VmHWM:')[1].split()[0]) / 1024)\n"
    )
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120)
    assert r.returncode == 0, r.stderr
    *fields, mb = r.stdout.split()
    return fields, float(mb)


@pytest.fixture
def fresh_process():
    """run(code) -> (the fields code prints, peak RSS in MB), from a fresh
    interpreter that imports this checkout's kirchlab."""
    return _run_fresh
