"""Fork-join over the CPUs in this process's affinity mask.

``fork_map(fn, chunks)`` returns ``[fn(chunk) for chunk in chunks]``.  The
first chunk runs in the caller; every other chunk runs in an ``os.fork``
child, which sends ``marshal.dumps(fn(chunk))`` back through a pipe.  Its
one user, delta's triangle loop, merges the results in chunk order, so the
outcome does not depend on the chunk count.  A child that fails has its
chunk re-run in the caller, which then raises the child's exception
itself.  No child outlives the call: on any exception in the caller,
interrupts included, every child is killed and reaped.
"""

from __future__ import annotations

import marshal
import os

SIGKILL = 9  # signal.SIGKILL, without importing signal (and enum) on every run


def cpu_count() -> int:
    """CPUs this process may run on (``taskset -c 0`` makes it 1)."""
    return len(os.sched_getaffinity(0))


def split(items: list | tuple) -> list:
    """``items`` cut into one contiguous chunk per CPU, capped at the item
    count (at least one chunk), with lengths differing by at most one."""
    n = max(1, min(cpu_count(), len(items)))
    q, r = divmod(len(items), n)
    bounds = [i * q + min(i, r) for i in range(n + 1)]
    return [items[bounds[i] : bounds[i + 1]] for i in range(n)]


def _child(fn, chunk, r: int, w: int) -> None:
    status = 1
    try:
        os.close(r)
        data = marshal.dumps(fn(chunk))
        with open(w, "wb") as fh:
            fh.write(data)
        status = 0
    finally:
        os._exit(status)


def fork_map(fn, chunks: list) -> list:
    """``[fn(chunk) for chunk in chunks]``, the chunks after the first in
    forked children (module docstring)."""
    children = {}  # pid -> read end of its pipe, until the child is reaped
    try:
        for chunk in chunks[1:]:
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child(fn, chunk, r, w)
            children[pid] = open(r, "rb")
            os.close(w)
        results = [fn(chunks[0])]
        for chunk, (pid, pipe) in zip(chunks[1:], list(children.items())):
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            results.append(marshal.loads(data) if status == 0 else fn(chunk))
        return results
    finally:
        for pid, pipe in children.items():
            pipe.close()
            try:
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):  # already reaped
                pass
