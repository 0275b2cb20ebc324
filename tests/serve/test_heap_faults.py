"""A server built once must not fault its heap pages back in per batch.

Every FULL_HEAD micro-batch allocates and frees temporaries of 128 KiB
and more.  Unless the package pins glibc's heap top pad, glibc trims
them back to the kernel after each call, and the next call faults them
in again (about 224 minor faults per 16-graph call).
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

WARM_UP_CALLS = 5
CALLS = 50

SCRIPT = textwrap.dedent(f"""
    import resource

    import numpy as np

    from repro.core.config import HEADConfig
    from repro.core.head import HEAD
    from repro.serve import BatchInferenceEngine, ServiceLevel, make_graph_pool

    head = HEAD(HEADConfig().scaled(), rng=np.random.default_rng(0))
    engine = BatchInferenceEngine.from_head(head)
    graphs = make_graph_pool(16, seed=1,
                             history_steps=head.config.history_steps)
    for _ in range({WARM_UP_CALLS}):
        engine.infer(graphs, ServiceLevel.FULL_HEAD)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range({CALLS}):
        engine.infer(graphs, ServiceLevel.FULL_HEAD)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    print((after - before) / {CALLS})
""")


def _glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _glibc(), reason="the heap top pad is glibc's mallopt")
def test_set_up_once_engine_does_not_fault_per_call():
    # a fresh process: this one's allocation history would decide the count
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SCRIPT],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    faults_per_call = float(done.stdout.split()[-1])
    assert faults_per_call < 1.0
