"""Forked children and the BLAS thread count, shared by the commands.

``cli.main`` runs every command inside ``_blas_children``, the one process
context: BLAS on one thread, and the only place a child forks; only ``cli``
calls ``_shared``, and every command shares whole items. Outside the
context every item is computed in the caller, so a library call starts no
process. Inside it ``_shared`` computes a run's items with one ``_Forked``
child by one rule: for each item it hands out, the caller writes a 4-byte
number to a token pipe, and the caller and the child each claim the next
number written and compute that item, so neither sits idle while the other
holds work. The rule relies on Linux serializing reads on a pipe, so that
each read of 4 bytes takes one whole token, which one process alone gets.
A list's items (``verify``'s reports, ``transform``'s output matrices) are
inherited by the child. A stream (``iterate``'s iterates) forks it once the
first item is pulled, with a shared-memory ring shaped like that item, and
copies each item into a slot before its number is written. The caller
yields the results in item order, computes every item the child did not
answer, and reaps the child however it leaves.
"""

from __future__ import annotations

import contextlib
import itertools
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


# Whether a ``_Forked`` child may start: set by ``_blas_children`` for its
# block and restored on its way out. It is process-wide, as the BLAS thread
# count is.
_may_fork = False


@contextlib.contextmanager
def _blas_children():
    """Run the block with this process's BLAS on one thread, and let a
    ``_Forked`` child start in it where two CPUs are usable and the
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


# Numbers a list has out at once, written and not yet yielded: 1,024 tokens
# fill one 4,096-byte page, and a Linux pipe has at least two pages, so a
# token write never waits, although a page is freed only once read out.
_TOKENS_OUT = 4096 // 4

# Slots of a stream's ring, at most this many items pulled ahead of the
# results yielded. For iterate at n = 128, 100 steps (2 CPUs, 8 alternating
# pairs of `main` calls), 4 and 8 slots took medians of 1.597 and 1.501 s (8
# faster in 7 of 8), and the command peaked at 39.4 and 40.4 MiB (4 runs each).
_RING_SLOTS = 8


class _Forked:
    """The child of one ``_shared`` call, forked inside ``_blas_children``:
    the only process a command starts. ``hand`` writes an item's number to a
    token pipe, and the caller and the child each ``claim`` the next number
    written. A list's items are inherited; given ``shape``, a stream's item
    is copied, before its number is written, into slot ``k % _RING_SLOTS``
    of ``ring``, an anonymous shared mmap of complex128 arrays of that
    shape. The child sends the number and ``fn`` of each item it claims on a
    result pipe, as an 8-byte length and a pickle, and leaves through
    ``os._exit`` on every path, so it never unwinds into the caller or
    flushes inherited buffers. ``pid`` is 0 where none started (no child may
    start, or the mmap, a pipe or the fork failed) and once reaped.
    ``receive`` reads results; ``close`` reaps."""

    pid = 0

    def __init__(self, fn, items, shape: tuple | None = None):
        self.items, self.ring = items, None
        if not _may_fork:
            return
        # Imported here: loading them at import would cost every command about 0.2 MiB.
        import mmap
        import select

        fds = ()
        # OpenBLAS stops its threads before a fork (its atfork handler) and the
        # commands start no other thread, so a child holds no lock another took.
        try:
            if shape is not None:
                self.ring = np.frombuffer(mmap.mmap(-1, _RING_SLOTS * 16 * math.prod(shape)), np.complex128)
                self.ring = self.ring.reshape(_RING_SLOTS, *shape)
            fds = os.pipe()
            fds += os.pipe()
            # Both token-pipe ends, shared with the child: a claim never waits.
            os.set_blocking(fds[0], False)
            os.set_blocking(fds[1], False)
            self.pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            self.ring = None
            return
        self.tokens, self.handed, self.results, answers = fds
        if self.pid == 0:
            try:
                os.close(self.handed)
                os.close(self.results)
                waiting = select.poll()
                waiting.register(self.tokens, select.POLLIN)
                with open(answers, "wb") as pipe:
                    while waiting.poll():
                        try:
                            token = os.read(self.tokens, 4)
                        except BlockingIOError:
                            continue  # the caller claimed it first
                        if not token:
                            break
                        k = int.from_bytes(token, "little")
                        sent = pickle.dumps((k, fn(self.item(k))), pickle.HIGHEST_PROTOCOL)
                        pipe.write(len(sent).to_bytes(8, "little"))
                        pipe.write(sent)
                        pipe.flush()
                os._exit(0)
            finally:
                os._exit(1)
        os.close(answers)
        self.answers = select.poll()
        self.answers.register(self.results, select.POLLIN)

    def item(self, k: int):
        """Item ``k``: from the list, or from its slot of the ring."""
        return self.items[k] if self.ring is None else self.ring[k % _RING_SLOTS]

    def hand(self, k: int) -> None:
        """Write number ``k`` to the token pipe, while the child runs."""
        if self.pid:
            os.write(self.handed, k.to_bytes(4, "little"))

    def claim(self) -> int | None:
        """The next number written that no process has claimed; None while
        there is none and once the child is gone."""
        if self.pid:
            try:
                return int.from_bytes(os.read(self.tokens, 4), "little")
            except BlockingIOError:
                pass
        return None

    def receive(self, known: dict) -> None:
        """Wait for the child's next answer and put it in ``known`` as
        number: (True, result); once the child sends no more, reap it."""
        head = self._read(8)
        sent = None if head is None else self._read(int.from_bytes(head, "little"))
        if sent is None:
            self.close()
        else:
            k, value = pickle.loads(sent)
            known[k] = True, value

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
        """Reap the child, if that is not done yet. The pipes are closed
        first, so that a child waiting for a number reads the token pipe's
        end once it is empty, and a child still writing gets EPIPE: either
        exits."""
        if self.pid:
            for fd in (self.handed, self.tokens, self.results):
                os.close(fd)
            os.waitpid(self.pid, 0)
            self.pid = 0


def _outcome(fn, x) -> tuple:
    """(True, ``fn(x)``), or (False, the exception it raised)."""
    try:
        return True, fn(x)
    except Exception as exc:
        return False, exc


def _shared(fn, items):
    """``fn(item)`` for each of ``items`` in order, shared with one
    ``_Forked`` child where one may start: a sized ``items`` (a list or a
    range) of two or more, inherited by the child (``verify``'s reports,
    ``transform``'s output matrices), or a stream (any other iterable) of
    complex128 arrays (``iterate``'s iterates), pulled lazily, whose child
    is forked once the first is pulled, with a ring shaped like it. An empty
    stream, or one whose first pull raises, forks none; where none starts,
    each item is computed here as it comes. Items are handed out in order,
    up to ``_TOKENS_OUT`` of a list or ``_RING_SLOTS`` of a stream ahead of
    the results yielded, so a ring slot is reused only once its result is
    yielded: a result must not keep a view of its array. Between results
    this process hands out the next item, else takes an answer the child
    sent, else claims and computes the next number, else waits for the
    child; once the child is gone, it computes every item left. An error
    raised by ``items`` or ``fn`` surfaces after the results before it, as
    without a child, and the child is reaped however the generator ends."""
    if hasattr(items, "__len__"):
        stream, ahead, end = None, _TOKENS_OUT, len(items)
        child = _Forked(fn, items) if end > 1 else None
    else:
        stream = iter(items)
        if (first := next(stream, None)) is None:
            return
        items = stream = itertools.chain((first,), stream)
        ahead, end, child = _RING_SLOTS, math.inf, _Forked(fn, None, first.shape)
    if child is None or not child.pid:
        yield from map(fn, items)
        return
    known, sent, done = {}, 0, 0
    try:
        while done < end:
            if done in known:
                ok, value = known.pop(done)
                if not ok:
                    raise value
                yield value
                done += 1
            elif sent < end and sent - done < ahead:
                try:
                    if stream is not None:
                        child.ring[sent % _RING_SLOTS] = next(stream)
                except StopIteration:
                    end = sent
                except Exception as exc:
                    known[sent], end = (False, exc), sent + 1
                else:
                    child.hand(sent)
                sent += 1
            elif child.pid and child.answers.poll(0):
                child.receive(known)
            elif (k := child.claim()) is not None:
                # An item past a failed one is never yielded: claimed, not computed.
                if k < end:
                    known[k] = _outcome(fn, child.item(k))
                    if not known[k][0]:
                        end = k + 1
            elif child.pid:
                child.receive(known)
            else:
                known[done] = _outcome(fn, child.item(done))
    finally:
        child.close()
