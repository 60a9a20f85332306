"""The one durable replace: a reader never observes a torn file.

Checkpoints, the cluster supervisor's state and the ``--flow-out`` /
``--metrics-out`` artifacts are all published by :func:`write_atomic`:
the bytes go to ``<name>.tmp`` beside the target, are fsynced, and the
temp file is renamed over the target in one ``os.replace``.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Union


def write_atomic(path: Union[str, Path], data: bytes) -> Path:
    """Durably publish ``data`` at ``path`` (tmp + fsync + replace)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(path.name + ".tmp")
    with temp.open("wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, path)
    return path
