"""In-memory simulated HDFS with metered IO.

The paper uses HDFS for three things, and so does the reproduction: the
input edge lists live there, the parameter servers checkpoint their model
partitions there (Sec. III-A), and failure recovery reads both back
(Sec. III-B, Table II).

Files are stored as block lists under a namenode-style metadata map.  Every
read/write charges simulated disk seconds to the caller's
:class:`repro.common.simclock.TaskCost` (when one is supplied) and increments
cluster metrics.  Objects are deep-copied through :mod:`pickle` on write so a
checkpoint is a true snapshot, not an alias of live server state.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List

from repro.common.costs import DEFAULT_COST_MODEL, CostModel
from repro.common.errors import (
    FileAlreadyExistsError,
    FileNotFoundOnHdfsError,
    HdfsError,
)
from repro.common.metrics import (
    HDFS_BYTES_READ,
    HDFS_BYTES_WRITTEN,
    MetricsRegistry,
)
from repro.common.simclock import TaskCost
from repro.common.sizeof import sizeof


def _task_span(name: str, cost: TaskCost, tags: dict):
    """In-task trace scope; imported lazily to avoid an import cycle with
    the dataflow package (which itself imports this module)."""
    from repro.dataflow.taskctx import task_span

    return task_span(name, cost, tags)


def _normalize(path: str) -> str:
    """Normalize an HDFS path: single leading slash, no trailing slash."""
    if not path:
        raise HdfsError("empty HDFS path")
    path = "/" + path.strip("/")
    return path


@dataclass
class HdfsFile:
    """Namenode metadata plus payload for one file."""

    path: str
    payload: bytes
    logical_bytes: int
    replication: int


@dataclass
class Hdfs:
    """The simulated filesystem: a namenode map of path -> :class:`HdfsFile`.

    Attributes:
        cost_model: hardware constants used to charge IO time.
        metrics: cluster metrics registry (optional).
    """

    cost_model: CostModel = DEFAULT_COST_MODEL
    metrics: MetricsRegistry | None = None
    _files: Dict[str, HdfsFile] = field(default_factory=dict, init=False)

    #: Replication factor: writes charge the disk pipeline this many
    #: times, reads charge it once.
    replication = 3

    # -- write ------------------------------------------------------------

    def write_bytes(self, path: str, data: bytes, *,
                    overwrite: bool = False) -> HdfsFile:
        """Write raw bytes to ``path`` from outside any task (staging an
        input); the bytes are metered, no task is charged."""
        return self._store(path, bytes(data), len(data), overwrite, None)

    def write_text(self, path: str, text: str | Iterable[str], *,
                   overwrite: bool,
                   cost: TaskCost | None = None) -> HdfsFile:
        """Write a text file; an iterable of lines is joined with newlines."""
        if not isinstance(text, str):
            text = "\n".join(text)
            if text:
                text += "\n"
        data = text.encode("utf-8")
        return self._store(path, data, len(data), overwrite, cost)

    def write_pickle(self, path: str, obj: Any, *, overwrite: bool,
                     cost: TaskCost | None = None) -> HdfsFile:
        """Snapshot ``obj`` (deep copy via pickle); charges its logical size."""
        data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        return self._store(path, data, max(len(data), sizeof(obj)),
                           overwrite, cost)

    def _store(self, path: str, payload: bytes, logical: int,
               overwrite: bool, cost: TaskCost | None) -> HdfsFile:
        path = _normalize(path)
        if not overwrite and path in self._files:
            raise FileAlreadyExistsError(path)
        f = HdfsFile(path, payload, logical, self.replication)
        self._files[path] = f
        written = logical * self.replication
        if cost is not None:
            # In-task writes land on the running task's trace row; writes
            # from clock-owning callers (PS checkpoints) are traced there.
            with _task_span("hdfs.write", cost,
                            {"path": path, "bytes": written}):
                cost.disk_s += self.cost_model.disk_write_time(written)
                cost.cpu_s += self.cost_model.serialization_time(logical)
        if self.metrics is not None:
            self.metrics.inc(HDFS_BYTES_WRITTEN, written)
        return f

    # -- read -------------------------------------------------------------

    def read_bytes(self, path: str, *, cost: TaskCost | None = None) -> bytes:
        """Read raw bytes from ``path``."""
        f = self._lookup(path)
        self._charge_read(f, cost)
        return f.payload

    def read_lines(self, path: str, *,
                   cost: TaskCost | None) -> List[str]:
        """Read a UTF-8 text file's non-empty lines, split at newlines."""
        text = self.read_bytes(path, cost=cost).decode("utf-8")
        return [line for line in text.split("\n") if line]

    def read_pickle(self, path: str, *, cost: TaskCost | None) -> Any:
        """Load a pickled snapshot written by :meth:`write_pickle`."""
        f = self._lookup(path)
        self._charge_read(f, cost)
        return pickle.loads(f.payload)

    def _charge_read(self, f: HdfsFile, cost: TaskCost | None) -> None:
        if cost is not None:
            with _task_span("hdfs.read", cost,
                            {"path": f.path, "bytes": f.logical_bytes}):
                cost.disk_s += self.cost_model.disk_read_time(f.logical_bytes)
                cost.cpu_s += self.cost_model.serialization_time(
                    f.logical_bytes
                )
        if self.metrics is not None:
            self.metrics.inc(HDFS_BYTES_READ, f.logical_bytes)

    def _lookup(self, path: str) -> HdfsFile:
        path = _normalize(path)
        f = self._files.get(path)
        if f is None:
            raise FileNotFoundOnHdfsError(path)
        return f

    # -- namespace --------------------------------------------------------

    def exists(self, path: str) -> bool:
        """True if ``path`` names an existing file."""
        return _normalize(path) in self._files

    def delete(self, path: str) -> None:
        """Delete one file."""
        path = _normalize(path)
        if self._files.pop(path, None) is None:
            raise FileNotFoundOnHdfsError(path)

    def listdir(self, path: str) -> List[str]:
        """List files under directory ``path``, sorted."""
        prefix = _normalize(path) + "/"
        return sorted(p for p in self._files if p.startswith(prefix))

    def input_files(self, path: str) -> List[str]:
        """The files an input path names: the path itself if it is a
        file, else the files under it (sorted).

        Raises:
            FileNotFoundOnHdfsError: if it names neither.
        """
        files = [path] if self.exists(path) else self.listdir(path)
        if not files:
            raise FileNotFoundOnHdfsError(f"no HDFS files at {path}")
        return files
