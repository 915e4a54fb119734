"""Forked children and the BLAS thread count, shared by the commands.

``cli.main`` runs every command inside ``_blas_children``, the one process
context: BLAS on one thread, and the only place a ``_Child`` forks. A child
is forked once its items exist, so it inherits them and the pin, and writes
each result to a pipe; the caller reads them in item order, computes any the
child did not send, and reaps it however it leaves. Outside the context a
``_Child`` computes its items in the caller, so a library call starts no
process. Both helpers yield ``fn(item)`` for each item, in item order:
``_fork_join`` gives one child the odd items (``verify``'s reports, the
second half of a large matrix file); ``_in_batches`` forks one child per
batch (``iterate``'s step rows).
"""

from __future__ import annotations

import collections
import contextlib
import os
import pickle

# OpenBLAS's (set, get) thread-count entry points, under the names its builds
# export: scipy-openblas (numpy 2 wheels) with and without the ILP64 suffix,
# then OpenBLAS itself (numpy 1 wheels, system builds).
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot tell."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _openblas_threads():
    """The (set, get) thread-count functions of the OpenBLAS this process
    loaded (numpy's), as ctypes functions; None if no loaded library exports a
    known pair (another BLAS) or the loaded libraries cannot be listed (no
    /proc/self/maps)."""
    import ctypes

    try:
        with open("/proc/self/maps", "rb") as fh:
            # Fields: address, perms, offset, dev, inode, then the path, which may hold spaces.
            paths = sorted({os.fsdecode(line.split(maxsplit=5)[5].rstrip(b"\n")) for line in fh if b"openblas" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                return getattr(lib, set_name), getattr(lib, get_name)
    return None


# Whether a ``_Child`` may fork: set by ``_blas_children`` for its block and
# restored on its way out. It is process-wide, as the BLAS thread count is.
_may_fork = False


@contextlib.contextmanager
def _blas_children():
    """Run the block with this process's BLAS on one thread, and let a
    ``_Child`` fork in it where two CPUs are usable and the thread count can
    be set, so that every process runs BLAS on one thread and no result
    depends on the CPU count. With another BLAS, BLAS is left alone and no
    child starts: children that kept its threads would oversubscribe the
    CPUs. The count and the rule found are restored however the block exits."""
    global _may_fork
    blas_threads, allowed = _openblas_threads(), _may_fork
    if blas_threads is not None:
        set_threads, get_threads = blas_threads
        found = get_threads()
        set_threads(1)
    _may_fork = blas_threads is not None and _usable_cpus() > 1
    try:
        yield
    finally:
        _may_fork = allowed
        if blas_threads is not None:
            set_threads(found)


class _Child:
    """``fn`` of each of ``items``, computed by a child forked at
    construction inside ``_blas_children``, once the items exist, so that
    nothing is sent to it. The child writes each result to a pipe as soon as
    it has it, as a length and a pickle, and leaves through ``os._exit`` on
    every path, so it never unwinds into the caller or flushes inherited
    buffers. Iterating gives the results in item order; from the first one
    the child did not send (no child may start, the pipe or the fork failed,
    or the child was killed, ran out of memory or raised), the items are
    computed here, so an error is raised here as it would be without a child.
    ``close`` reaps the child."""

    def __init__(self, fn, items: list):
        self.fn, self.items, self.pipe = fn, items, None
        if not _may_fork:
            return
        fds = ()
        # OpenBLAS stops its threads before a fork (its atfork handler) and the
        # commands start no other thread, so a child holds no lock another took.
        try:
            fds = read_fd, write_fd = os.pipe()
            self.pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            return
        if self.pid == 0:
            try:
                os.close(read_fd)
                with open(write_fd, "wb") as pipe:
                    for item in items:
                        sent = pickle.dumps(fn(item), pickle.HIGHEST_PROTOCOL)
                        pipe.write(len(sent).to_bytes(8, "little"))
                        pipe.write(sent)
                        pipe.flush()
                os._exit(0)
            finally:
                os._exit(1)
        os.close(write_fd)
        self.pipe = open(read_fd, "rb")

    def __iter__(self):
        for item in self.items:
            sent = self._receive()
            yield self.fn(item) if sent is None else pickle.loads(sent)

    def _receive(self) -> bytes | None:
        """The next result the child sends, pickled; None, once the child is
        reaped, if it sends no more."""
        if self.pipe is not None:
            head = self.pipe.read(8)
            size = int.from_bytes(head, "little")
            sent = self.pipe.read(size) if len(head) == 8 else b""
            if len(head) == 8 and len(sent) == size:
                return sent
            self.close()
        return None

    def close(self) -> None:
        """Reap the child, if that is not done yet. The read end is closed
        first, so a child still writing gets EPIPE and exits."""
        if self.pipe is not None:
            self.pipe.close()
            self.pipe = None
            os.waitpid(self.pid, 0)


def _fork_join(fn, items: list):
    """``fn(item)`` for each of ``items`` in order: those at odd positions
    computed by one ``_Child``, forked when the first result is asked for,
    the others here as their turn comes. The child is reaped when the
    generator finishes, raises or is closed."""
    if len(items) < 2:
        yield from map(fn, items)
        return
    child = _Child(fn, items[1::2])
    try:
        theirs = iter(child)
        for k, item in enumerate(items):
            yield next(theirs) if k % 2 else fn(item)
    finally:
        child.close()


def _in_batches(fn, items, size: int, most: int):
    """``fn(item)`` for each of ``items`` in order, as ``_fork_join`` gives
    it, pulling ``items`` lazily. Each run of ``size`` items, and a shorter
    last one, is computed by a ``_Child`` forked once the run exists; while
    ``most`` children run, this process takes the oldest one's results before
    it pulls another run, so it holds at most ``most`` runs. With ``most`` 0,
    or where no child may start, each item is computed here as it is pulled,
    so no run is held. An error raised by ``items`` surfaces after the results
    of the items before it, as it does without children, and every child is
    reaped when the generator finishes, raises or is closed."""
    if most == 0 or not _may_fork:
        yield from map(fn, items)
        return
    children, items, error, more = collections.deque(), iter(items), None, True

    def oldest():
        yield from children[0]
        children.popleft().close()

    try:
        while more:
            if len(children) == most:
                yield from oldest()
            batch = []
            try:
                for item in items:
                    batch.append(item)
                    if len(batch) == size:
                        break
                else:
                    more = False
            except Exception as exc:
                error, more = exc, False
            if batch:
                children.append(_Child(fn, batch))
        while children:
            yield from oldest()
        if error is not None:
            raise error
    finally:
        for child in children:
            child.close()
