"""Forked children and the BLAS thread count, shared by the commands.

``cli.main`` runs every command inside ``_blas_children``, the one process
context: BLAS on one thread, and the only place a child forks. Outside the
context every item is computed in the caller, so a library call starts no
process. Every child is a ``_Forked``: one body that writes each result
to a pipe and leaves through ``os._exit``, and one reader, which takes the
results in order, lets the caller compute any the child did not send, and
reaps it however it leaves. A ``_Child`` is forked once its items exist, so
it inherits them; ``_fork_join`` gives one the odd items (``verify``'s
reports, the second half of a large matrix file). A ``_Ring`` is forked
before its items exist and is handed each through a shared-memory slot;
``_in_ring`` keeps one busy with ``iterate``'s steps while the caller
computes the chain, and measures a step itself while every slot is taken.
"""

from __future__ import annotations

import collections
import contextlib
import math
import os
import pickle

import numpy as np

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


# Whether a ``_Child`` or a ``_Ring`` may fork: set by ``_blas_children`` for
# its block and restored on its way out. It is process-wide, as the BLAS
# thread count is.
_may_fork = False


@contextlib.contextmanager
def _blas_children():
    """Run the block with this process's BLAS on one thread, and let a
    ``_Child`` or a ``_Ring`` fork in it where two CPUs are usable and the
    thread count can be set, so that every process runs BLAS on one thread
    and no result depends on the CPU count. With another BLAS, BLAS is left
    alone and no child starts: children that kept its threads would
    oversubscribe the CPUs. The count and the rule found are restored however
    the block exits."""
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


class _Forked:
    """A child forked inside ``_blas_children`` that writes ``fn(x)`` for each
    ``x`` of ``source``, iterated in the child, to a result pipe as an 8-byte
    length and a pickle as soon as it has it, and leaves through ``os._exit``
    on every path, so it never unwinds into the caller or flushes inherited
    buffers. ``pid`` is 0 where none started (no child may start, or the pipe
    or the fork failed) and once it is reaped. ``_receive`` reads its results
    in order; ``close`` reaps it."""

    pid = 0

    def _start(self, fn, source) -> None:
        if not _may_fork:
            return
        fds = ()
        # OpenBLAS stops its threads before a fork (its atfork handler) and the
        # commands start no other thread, so a child holds no lock another took.
        try:
            fds = self.results, write_fd = os.pipe()
            self.pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            return
        if self.pid == 0:
            try:
                os.close(self.results)
                with open(write_fd, "wb") as pipe:
                    for x in source:
                        sent = pickle.dumps(fn(x), pickle.HIGHEST_PROTOCOL)
                        pipe.write(len(sent).to_bytes(8, "little"))
                        pipe.write(sent)
                        pipe.flush()
                os._exit(0)
            finally:
                os._exit(1)
        os.close(write_fd)

    def _receive(self) -> bytearray | None:
        """The next result the child sends, pickled, waited for; None, once
        the child is reaped, if it sends no more."""
        if self.pid:
            head = self._read(8)
            sent = None if head is None else self._read(int.from_bytes(head, "little"))
            if sent is not None:
                return sent
            self.close()
        return None

    def _read(self, size: int) -> bytearray | None:
        """The next ``size`` bytes of the result pipe; None if it ends first."""
        buf, got = bytearray(size), 0
        with memoryview(buf) as view:
            while got < size:
                n = os.readv(self.results, [view[got:]])
                if n == 0:
                    return None
                got += n
        return buf

    def close(self) -> None:
        """Reap the child, if that is not done yet. The result pipe is closed
        first, so a child still writing gets EPIPE and exits."""
        if self.pid:
            os.close(self.results)
            os.waitpid(self.pid, 0)
            self.pid = 0


class _Child(_Forked):
    """``fn`` of each of ``items``, computed by a ``_Forked`` child forked at
    construction, once the items exist, so that nothing is sent to it.
    Iterating gives the results in item order; from the first one the child
    did not send (none started, or it was killed, ran out of memory or
    raised), the items are computed here, so an error is raised here as it
    would be without a child."""

    def __init__(self, fn, items: list):
        self.fn, self.items = fn, items
        self._start(fn, items)

    def __iter__(self):
        for item in self.items:
            sent = self._receive()
            yield self.fn(item) if sent is None else pickle.loads(sent)


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


def _outcome(fn, x) -> tuple:
    """(True, ``fn(x)``), or (False, the exception it raised)."""
    try:
        return True, fn(x)
    except Exception as exc:
        return False, exc


class _Ring(_Forked):
    """A ``_Forked`` child, forked at construction before its arrays exist,
    that computes ``fn`` of each array it is handed, in the order handed.
    ``send`` copies an entry's array, complex128 of ``shape``, into the next
    of ``slots`` slots of an anonymous shared mmap and writes the slot's
    4-byte number to a token pipe. An entry is a list ``[array, outcome]``;
    ``take`` sets the outcome of each entry the child answers to (True,
    result), in the order sent. Once the child is gone (none started, the
    mmap or the token pipe failed, or it was killed, ran out of memory or
    raised), it is reaped and every entry it held is computed here, from the
    entry's own array."""

    def __init__(self, fn, shape: tuple, slots: int):
        self.fn, self.shape, self.slots, self.held, self.sent = fn, shape, slots, collections.deque(), 0
        self.size, self.ring = 16 * math.prod(shape), None
        if not _may_fork:
            return
        # Imported here: loading them at import would cost every command about 0.2 MiB.
        import mmap
        import select

        try:
            self.ring = mmap.mmap(-1, slots * self.size)
            read_tokens, self.tokens = os.pipe()
        except OSError:
            return
        self._start(fn, self._handed(read_tokens))
        os.close(read_tokens)
        if not self.pid:
            os.close(self.tokens)
            return
        self.answers = select.poll()
        self.answers.register(self.results, select.POLLIN)

    def _handed(self, read_tokens: int):
        """In the child: the array in each slot whose number the token pipe
        brings, until the pipe ends."""
        os.close(self.tokens)
        with open(read_tokens, "rb") as tokens:
            while len(token := tokens.read(4)) == 4:
                at = int.from_bytes(token, "little") * self.size
                yield np.frombuffer(self.ring, np.complex128, self.size // 16, at).reshape(self.shape)

    def send(self, entry: list) -> bool:
        """Whether ``entry``'s array was handed to the child: not while it
        holds ``slots`` of them, nor once it is gone."""
        if not self.pid or len(self.held) == self.slots:
            return False
        at = self.sent % self.slots
        self.ring[at * self.size : (at + 1) * self.size] = np.ascontiguousarray(entry[0])
        try:
            os.write(self.tokens, at.to_bytes(4, "little"))
        except BrokenPipeError:
            # The child is gone: take what it sent, then compute the rest here.
            self.take(keep=0)
            return False
        self.sent += 1
        self.held.append(entry)
        return True

    def take(self, keep: int) -> None:
        """Set the outcome of each entry the child has answered, waiting
        until it holds at most ``keep``."""
        while self.pid and self.held and (len(self.held) > keep or self.answers.poll(0)):
            sent = self._receive()
            if sent is not None:
                self.held.popleft()[1] = True, pickle.loads(sent)
        if not self.pid:
            for entry in self.held:
                entry[1] = _outcome(self.fn, entry[0])
            self.held.clear()

    def close(self) -> None:
        """Reap the child, if that is not done yet, closing the token pipe
        first, so that a child waiting for a slot reads its end; then release
        the ring."""
        if self.pid:
            os.close(self.tokens)
        super().close()
        if self.ring is not None:
            self.ring.close()
            self.ring = None


def _known(rows: collections.deque):
    """The leading results of ``rows`` whose outcome is set, popped; a failed
    one raises its exception."""
    while rows and rows[0][1] is not None:
        ok, value = rows.popleft()[1]
        if not ok:
            raise value
        yield value


def _in_ring(fn, arrays, shape: tuple, slots: int):
    """``fn(array)`` for each of ``arrays`` in order, each complex128 of
    ``shape``, pulling ``arrays`` lazily. With ``slots`` > 0 and where a
    child may start, one ``_Ring`` child, forked before the first array is
    pulled, computes ``fn`` of each array it is handed while this process
    pulls the next; an array is handed to it while it holds fewer than
    ``slots``, else computed here, and at most ``2 * slots`` arrays are
    pulled ahead of the results yielded. Otherwise each array is computed
    here as it is pulled. An error raised by ``arrays`` or by ``fn`` surfaces
    after the results before it, as it does without a child, and the child is
    reaped when the generator finishes, raises or is closed."""
    if slots == 0 or not _may_fork:
        yield from map(fn, arrays)
        return
    ring, arrays, rows, failed = _Ring(fn, shape, slots), iter(arrays), collections.deque(), False
    try:
        while not failed:
            # The oldest row is the child's to answer: wait for it before pulling more.
            while len(rows) >= 2 * slots:
                ring.take(keep=len(ring.held) - 1)
                yield from _known(rows)
            try:
                array = next(arrays)
            except StopIteration:
                break
            except Exception as exc:
                rows.append([None, (False, exc)])
                break
            entry = [array, None]
            rows.append(entry)
            if not ring.send(entry):
                entry[1] = _outcome(fn, array)
                failed = not entry[1][0]
            ring.take(keep=slots)
            yield from _known(rows)
        ring.take(keep=0)
        yield from _known(rows)
    finally:
        ring.close()
