"""Fault executors: turn activated :class:`FaultSpec` decisions into harm.

Two families, matching the two hook points in the runner:

* :func:`fire_compute_faults` runs in the shard compute path (a pool
  task or the shared attempt loop) and raises, sleeps, hangs, or kills
  the worker process;
* :func:`fire_artifact_faults` runs in the parent after a shard
  persists and tears/corrupts run-directory files or SIGKILLs the
  whole process — the disk-rot and power-loss half of the plan.

File corruption is deterministic: the offset and XOR mask derive from
the plan seed and the file's role, so a chaos scenario replays exactly.
Corruption bypasses the atomic write path on purpose — it simulates
damage *after* a successful write (disk rot, torn sectors), which is
precisely what checksum verification must catch.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path

from repro.chaos.plan import (
    SITE_ARTIFACT,
    SITE_COMPUTE,
    ChaosError,
    FaultPlan,
    FaultSpec,
    _unit_draw,
)

#: Corruption mode per artifact fault kind.
_CORRUPT_MODE = {
    "torn-shard": "truncate",
    "shard-byte": "byte",
    "shard-bit": "bit",
    "manifest-byte": "byte",
    "manifest-truncate": "truncate",
}


def fire_compute_faults(plan: FaultPlan, bit: int, attempt: int = 0) -> None:
    """Execute any compute-site faults active for this shard attempt.

    Called at the top of shard execution, before any trial runs, so a
    crashed or hung attempt never produces partial records.
    """
    for spec in plan.active(SITE_COMPUTE, bit=bit, attempt=attempt):
        if spec.kind == "worker-raise":
            raise ChaosError(
                f"chaos: injected failure in shard bit={bit} attempt={attempt}"
            )
        if spec.kind == "worker-delay":
            time.sleep(spec.delay)
        elif spec.kind == "worker-hang":
            time.sleep(spec.hang)
        elif spec.kind == "worker-crash":
            os._exit(spec.exit_code)


def corrupt_file(path: str | os.PathLike, *, mode: str, seed: int = 0,
                 token: str = "") -> dict:
    """Deterministically damage one file in place.

    ``mode`` is ``"truncate"`` (keep roughly the first half — a torn
    write), ``"byte"`` (XOR one byte with a nonzero mask), or ``"bit"``
    (flip a single bit).  Returns a description of the damage for the
    event log.  The write is a plain overwrite, not an atomic replace:
    chaos models the disk failing, not the writer.
    """
    path = Path(path)
    data = bytearray(path.read_bytes())
    if not data:
        raise ChaosError(f"cannot corrupt empty file {path}")
    info: dict = {"path": str(path), "mode": mode, "size": len(data)}
    if mode == "truncate":
        keep = max(1, len(data) // 2)
        data = data[:keep]
        info["kept_bytes"] = keep
    elif mode == "byte":
        offset = int(_unit_draw(seed, "offset", token) * len(data))
        mask = 1 + int(_unit_draw(seed, "mask", token) * 255)
        data[offset] ^= mask
        info.update(offset=offset, xor=mask)
    elif mode == "bit":
        offset = int(_unit_draw(seed, "offset", token) * len(data))
        bitpos = int(_unit_draw(seed, "bitpos", token) * 8)
        data[offset] ^= 1 << bitpos
        info.update(offset=offset, bit=bitpos)
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")
    path.write_bytes(bytes(data))
    return info


def fire_artifact_faults(
    plan: FaultPlan,
    run_dir: str | os.PathLike,
    bit: int,
    *,
    shards_done: int = 0,
    on_fault=None,
) -> list[dict]:
    """Execute any artifact-site faults active after this shard persisted.

    ``on_fault(spec, info)`` is invoked *before* each fault acts so the
    event log records the injection even when the fault is ``kill-run``
    (the event line flushes, then the process dies — exactly the trace
    an operator of a real power loss would wish they had).  Kill faults
    are applied after every file fault so a single plan can corrupt and
    then kill in one shard.
    """
    from repro.runner.manifest import MANIFEST_NAME, RunManifest

    run_dir = Path(run_dir)
    active = plan.active(SITE_ARTIFACT, bit=bit, shards_done=shards_done)
    fired: list[dict] = []
    kills: list[FaultSpec] = []
    for spec in active:
        if spec.kind == "kill-run":
            kills.append(spec)
            continue
        if spec.kind.startswith("manifest"):
            target = run_dir / MANIFEST_NAME
        else:
            target = RunManifest.shard_path(run_dir, bit)
        if not target.is_file():
            continue
        info = {"kind": spec.kind, "bit": bit}
        if on_fault is not None:
            on_fault(spec, dict(info, path=str(target)))
        info.update(
            corrupt_file(
                target,
                mode=_CORRUPT_MODE[spec.kind],
                seed=plan.seed,
                token=f"{spec.kind}:{bit}",
            )
        )
        fired.append(info)
    for spec in kills:
        if on_fault is not None:
            on_fault(spec, {"kind": spec.kind, "bit": bit, "pid": os.getpid()})
        os.kill(os.getpid(), signal.SIGKILL)
    return fired
