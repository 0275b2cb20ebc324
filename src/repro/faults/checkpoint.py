"""Atomic training checkpoints: agent + optimizers + replay + RNG state.

A crash-safe RL run must be able to resume to *the same learning
curve*, which means a checkpoint has to capture every piece of mutable
training state, not just network weights:

* all :class:`~repro.nn.module.Module` attributes (online and target
  networks), parameter by parameter;
* all optimizer moments (Adam ``m``/``v``/step count);
* the full replay buffer contents, size and cursor;
* every ``numpy`` Generator attribute, by bit-generator state (restored
  *in place* so objects sharing the Generator -- the replay buffer
  samples from the agent's stream -- keep sharing it);
* plain scalar/array bookkeeping attributes (``total_steps``,
  phase counters, cached action payloads).

The structure is discovered by introspection, so every
:class:`~repro.decision.agents.PamdpAgent` subclass checkpoints without
per-class code.  Files are single ``.npz`` archives written through
:func:`repro.nn.serialization.atomic_savez`, so a kill mid-save leaves
the previous checkpoint intact.  Loads are strict: key or shape
mismatches raise :class:`CheckpointError` instead of silently loading a
different architecture.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from ..nn.module import Module
from ..nn.optim import Adam
from ..nn.serialization import atomic_savez


def _replay_buffer_type():
    # deferred: decision.trainer imports this module at load time, and
    # importing repro.decision.replay here at the top would close an
    # import cycle through repro.decision.__init__
    from ..decision.replay import ReplayBuffer
    return ReplayBuffer

__all__ = ["CheckpointError", "ScheduleMismatchError", "save_checkpoint",
           "load_checkpoint", "check_schedule", "latest_checkpoint",
           "CHECKPOINT_VERSION"]

CHECKPOINT_VERSION = 3

_META_KEY = "__meta__"


class CheckpointError(RuntimeError):
    """A checkpoint file does not match the object it is loaded into."""


class ScheduleMismatchError(CheckpointError):
    """A checkpoint was produced under a different training schedule."""


def check_schedule(extra: dict, expected: dict, path=None) -> None:
    """Validate a checkpoint's recorded training schedule against ours.

    A resumed run is only bit-reproducible when the *schedule
    constants* -- trainer kind, seeds, learn cadence, episode cap, sync
    interval -- match the run that wrote the checkpoint (the parallel
    worker *count* is deliberately absent: it is the one thing the
    contract says may change).  Resuming under different constants
    would silently produce a third learning curve that is neither the
    old run nor a fresh one, so it fails loudly instead.
    """
    recorded = extra.get("schedule")
    if recorded is None:
        raise ScheduleMismatchError(
            f"{path or 'checkpoint'} records no training schedule -- it was "
            f"not written by a training run")
    mismatched = {key: (recorded.get(key), value)
                  for key, value in expected.items()
                  if recorded.get(key) != value}
    if mismatched:
        detail = ", ".join(f"{key}: checkpoint={old!r} run={new!r}"
                           for key, (old, new) in sorted(mismatched.items()))
        raise ScheduleMismatchError(
            f"{path or 'checkpoint'} was written under a different "
            f"schedule ({detail}); resuming would not reproduce either run")


# ----------------------------------------------------------------------
# snapshot
# ----------------------------------------------------------------------
def _snapshot(agent) -> tuple[dict[str, np.ndarray], dict[str, dict]]:
    """Introspect ``agent`` into flat arrays plus RNG states."""
    arrays: dict[str, np.ndarray] = {}
    rng_states: dict[str, dict] = {}
    ReplayBuffer = _replay_buffer_type()
    for name in sorted(vars(agent)):
        value = getattr(agent, name)
        if isinstance(value, Module):
            for pname, parameter in value.named_parameters():
                arrays[f"module.{name}.{pname}"] = parameter.data.copy()
        elif isinstance(value, Adam):
            arrays[f"opt.{name}.step"] = np.array(value._step_count)
            arrays[f"opt.{name}.m"] = value._m.copy()
            arrays[f"opt.{name}.v"] = value._v.copy()
        elif isinstance(value, ReplayBuffer):
            # "._" keeps the archive keys of format 3
            for key, array in value.state().items():
                arrays[f"buffer.{name}._{key}"] = array
        elif isinstance(value, np.random.Generator):
            rng_states[name] = value.bit_generator.state
        elif isinstance(value, np.ndarray):
            arrays[f"array.{name}"] = value.copy()
        elif isinstance(value, (bool, np.bool_)):
            arrays[f"scalar.{name}"] = np.array(bool(value))
        elif isinstance(value, (int, np.integer, float, np.floating)):
            arrays[f"scalar.{name}"] = np.array(value)
        # other attributes (schedules, config objects) are construction-
        # time constants and are recreated by building the agent anew
    return arrays, rng_states


def save_checkpoint(path: str | os.PathLike, agent,
                    extra: dict | None = None) -> Path:
    """Atomically write a full training checkpoint for ``agent``.

    ``extra`` is any JSON-serializable metadata (episode counters,
    reward history) returned verbatim by :func:`load_checkpoint`.
    """
    arrays, rng_states = _snapshot(agent)
    meta = {
        "version": CHECKPOINT_VERSION,
        "agent": type(agent).__name__,
        "rng": rng_states,
        "extra": extra or {},
    }
    arrays[_META_KEY] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    return atomic_savez(path, arrays)


# ----------------------------------------------------------------------
# restore
# ----------------------------------------------------------------------
def load_checkpoint(path: str | os.PathLike, agent) -> dict:
    """Restore ``agent`` in place from ``path``; returns the ``extra`` dict.

    The agent must be structurally identical to the one that was saved
    (same class, same network architecture, same buffer capacity); any
    deviation raises :class:`CheckpointError`.
    """
    path = Path(path)
    with np.load(path) as archive:
        stored = {name: archive[name] for name in archive.files}
    if _META_KEY not in stored:
        raise CheckpointError(f"{path} is not a training checkpoint (no metadata)")
    meta = json.loads(stored.pop(_META_KEY).tobytes().decode("utf-8"))
    if meta.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path} has checkpoint version {meta.get('version')}, "
            f"expected {CHECKPOINT_VERSION}")
    if meta.get("agent") != type(agent).__name__:
        raise CheckpointError(
            f"{path} was saved from a {meta.get('agent')}, cannot load into "
            f"a {type(agent).__name__}")

    expected, rng_names = _snapshot(agent)
    missing = sorted(set(expected) - set(stored))
    # agents create some bookkeeping attributes lazily (e.g. the cached
    # action payload appears on the first act()), so extra array/scalar
    # keys are restored via setattr rather than rejected; structural
    # keys (modules, optimizers, buffers) stay strict
    unexpected = sorted(key for key in set(stored) - set(expected)
                        if not key.startswith(("array.", "scalar.")))
    if missing or unexpected:
        raise CheckpointError(
            f"{path} does not match the agent: missing={missing} "
            f"unexpected={unexpected}")
    for key, template in expected.items():
        if stored[key].shape != template.shape:
            raise CheckpointError(
                f"{path}: shape mismatch for {key}: "
                f"{stored[key].shape} vs {template.shape}")
    saved_rng = meta.get("rng", {})
    if sorted(saved_rng) != sorted(rng_names):
        raise CheckpointError(
            f"{path}: RNG streams {sorted(saved_rng)} do not match the "
            f"agent's {sorted(rng_names)}")

    _apply(agent, stored, saved_rng)
    return meta.get("extra", {})


def _apply(agent, stored: dict[str, np.ndarray], rng_states: dict) -> None:
    """Write checkpoint contents back into the live agent."""
    ReplayBuffer = _replay_buffer_type()
    known = set(vars(agent))
    for key, value in stored.items():
        # lazily-created bookkeeping the fresh agent does not have yet
        prefix, _, name = key.partition(".")
        if name in known or prefix not in ("array", "scalar"):
            continue
        if prefix == "array":
            setattr(agent, name, value.copy())
        elif value.dtype == np.bool_:
            setattr(agent, name, bool(value))
        elif np.issubdtype(value.dtype, np.integer):
            setattr(agent, name, int(value))
        else:
            setattr(agent, name, float(value))
    for name in sorted(vars(agent)):
        value = getattr(agent, name)
        if isinstance(value, Module):
            state = {pname: stored[f"module.{name}.{pname}"]
                     for pname, _ in value.named_parameters()}
            value.load_state_dict(state)
        elif isinstance(value, Adam):
            value._step_count = int(stored[f"opt.{name}.step"])
            value._m[...] = stored[f"opt.{name}.m"]
            value._v[...] = stored[f"opt.{name}.v"]
        elif isinstance(value, ReplayBuffer):
            prefix = f"buffer.{name}._"
            value.load_state({key[len(prefix):]: array
                              for key, array in stored.items()
                              if key.startswith(prefix)})
        elif isinstance(value, np.random.Generator):
            # in place, so objects sharing this Generator keep sharing it
            value.bit_generator.state = rng_states[name]
        elif isinstance(value, np.ndarray):
            setattr(agent, name, stored[f"array.{name}"].copy())
        elif isinstance(value, (bool, np.bool_)):
            setattr(agent, name, bool(stored[f"scalar.{name}"]))
        elif isinstance(value, (int, np.integer)):
            setattr(agent, name, int(stored[f"scalar.{name}"]))
        elif isinstance(value, (float, np.floating)):
            setattr(agent, name, float(stored[f"scalar.{name}"]))


def latest_checkpoint(directory: str | os.PathLike,
                      pattern: str = "*.ckpt.npz") -> Path | None:
    """The most recently modified checkpoint under ``directory``, if any."""
    directory = Path(directory)
    if not directory.is_dir():
        return None
    candidates = sorted(directory.glob(pattern),
                        key=lambda p: (p.stat().st_mtime, p.name))
    return candidates[-1] if candidates else None
