"""repro: a full reproduction of HEAD (ICDE 2023).

"Impact-aware Maneuver Decision with Enhanced Perception for Autonomous
Vehicle" -- an enhanced perception module (LST-GAT with phantom vehicle
construction) feeding a maneuver decision module (BP-DQN over a
parameterized-action MDP with a hybrid safety/efficiency/comfort/impact
reward), evaluated in a microscopic traffic simulator.

Quickstart::

    import numpy as np
    from repro import HEAD, HEADConfig
    from repro.data import generate_real_dataset

    head = HEAD(HEADConfig().scaled(), rng=np.random.default_rng(0))
    head.train_perception(generate_real_dataset(seed=0, steps=150))
    head.train_decision(episodes=40)
    print(head.evaluate(seeds=range(10)))

Subpackages: :mod:`repro.nn` (numpy autograd substrate),
:mod:`repro.sim` (traffic simulator), :mod:`repro.perception`,
:mod:`repro.decision`, :mod:`repro.data`, :mod:`repro.core`,
:mod:`repro.eval`.
"""

import ctypes as _ctypes
import os as _os

#: glibc's ``M_TOP_PAD`` parameter number (``malloc.h``).
_M_TOP_PAD = -2
#: Free bytes glibc keeps above the heap top.
_HEAP_TOP_PAD = 16 * 1024 * 1024


def _pin_heap_top_pad() -> None:
    """Pin glibc's heap policy so hot paths stop faulting their pages in.

    A served micro-batch, an LST-GAT forward and a learner update free
    temporaries of 128 KiB and more on every call.  By default glibc
    returns free memory at the heap top to the kernel and serves large
    blocks from ``mmap`` below a threshold that rises with each large
    free, so those pages fault back in on the next call, as often as the
    process's earlier frees decide.  A fixed top pad keeps 16 MiB of
    touched pages above the heap top, and setting it turns the dynamic
    threshold off (mallopt(3)).  It is a constant so that memory and
    speed figures do not depend on a setting.
    """
    try:
        libc = _os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):
        return
    if libc.startswith("glibc"):
        _ctypes.CDLL(None).mallopt(_M_TOP_PAD, _HEAP_TOP_PAD)


_pin_heap_top_pad()

from .core import HEAD, HEADConfig  # noqa: E402

__version__ = "1.0.0"
__all__ = ["HEAD", "HEADConfig", "__version__"]

# Opt-in runtime sanitizer: REPRO_SANITIZE=1 instruments the autograd
# tape and the sim engine for every entry point (tests, CLI, scripts).
# The guard keeps the default import free of the analysis machinery.
if _os.environ.get("REPRO_SANITIZE", "") not in ("", "0"):
    from .analysis.sanitize import install as _install_sanitizer
    _install_sanitizer()
del _ctypes, _os
