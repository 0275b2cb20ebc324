"""Checkpointing: save/load module parameters as ``.npz`` archives.

Writes are atomic (temp file in the target directory + ``os.replace``)
so a crash mid-write can never leave a truncated archive where a
checkpoint used to be -- the previous checkpoint survives intact.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import numpy as np

from .module import Module

__all__ = ["save_module", "load_module", "atomic_savez"]


def atomic_savez(path: str | os.PathLike, arrays: dict[str, np.ndarray]) -> Path:
    """Write ``arrays`` to ``path`` as one ``.npz``, atomically.

    The archive is first written to a temporary file in the same
    directory (so the final ``os.replace`` stays on one filesystem) and
    only moved into place once fully flushed.  Readers therefore see
    either the complete old file or the complete new file, never a
    partial write.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".",
                                    suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez(handle, **arrays)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def save_module(module: Module, path: str | os.PathLike) -> Path:
    """Write ``module``'s state dict to ``path`` (``.npz`` appended if absent)."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    return atomic_savez(path, module.state_dict())


def load_module(module: Module, path: str | os.PathLike) -> Module:
    """Load parameters saved by :func:`save_module` into ``module`` in place.

    Raises ``ValueError`` with the offending file and parameter names
    when the archive does not match the module (missing/unexpected keys
    or shape mismatches) -- a wrong-architecture checkpoint must fail
    loudly, never broadcast into the wrong weights.
    """
    path = Path(path)
    with np.load(path) as archive:
        state = {name: archive[name] for name in archive.files}
    try:
        module.load_state_dict(state)
    except (KeyError, ValueError) as error:
        raise ValueError(
            f"checkpoint {path} does not match {type(module).__name__}: {error}"
        ) from error
    return module
