"""The native kernels: `_walk.c`, compiled on first use and loaded with ctypes.

`LOADER` compiles the shipped source with the system C compiler into
``${XDG_CACHE_HOME:-~/.cache}/netbrain/``, under a name keyed by the hash of
the source and the compile command, and loads it. One library holds seven
entry points, and one routine here calls each:

- `discover`: the walks of `dynamics.run_discovery`;
- `betweenness`: exact Brandes for `graph.betweenness`, in blocks of
  sources that run in threads on every CPU the process may use, their
  per-source rows added in source order;
- `shuffle`: `random.Random.shuffle` for the stubs of `generators.gen_cm`;
- `parse_edges`: the edge lines of `fileio.ingest_edge_list`;
- `build_csr`: the arrays and drop counts of `graph.build_graph_reported`;
- `components`: the component labels of `graph`'s component queries;
- `format_edges`: the edge lines of `fileio.write_edge_list`.

Each routine decides alone whether it can serve a call. It declines, with
None (`shuffle`: False), when the library did not load or the input lies
outside what its kernel reproduces bit for bit, and its caller then runs
its Python code, with the same result. No routine raises to decline.
`available` tells whether the library loaded.

Importing this module compiles nothing. Any failure (no compiler, an
unwritable cache, a library that does not load) leaves the kernels
unavailable.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import random
import subprocess
import tempfile
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

import numpy as np

if TYPE_CHECKING:  # `graph` imports this module
    from .graph import Graph

logger = logging.getLogger(__name__)

SOURCE = Path(__file__).with_name("_walk.c")
CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
# The bytes of one block of betweenness rows (n doubles per source). Each
# thread has at most two blocks in flight, so the rows in memory stay near
# 512 KiB per thread whatever n is, where all n rows would take 8n^2 bytes.
_BLOCK_BYTES = 2**18

_i32, _i64, _u8, _u32, _f64 = map(np.dtype, (np.int32, np.int64, np.uint8, np.uint32, np.float64))
# The argument types of each entry point, which returns an int; a dtype marks an array (`_call`).
_ENTRY_POINTS = {
    "netbrain_discover": (
        _i32, _i32,  # indptr, indices
        ctypes.c_int32, ctypes.c_int32, ctypes.c_int64, ctypes.c_int64,  # brain, policy, cap, stop_count
        _i64, ctypes.c_int64, _i64,  # targets, ntargets, crossed_steps
        _u8, _u8, _u8,  # known, reported, state
        _i32, _i32,  # touched, elig
        _u32, _i64, ctypes.c_int64,  # mt, ctr, stall_limit
    ),
    "netbrain_betweenness": (
        _i32, _i32, ctypes.c_int32,  # indptr, indices, n
        ctypes.c_int32, ctypes.c_int32, _f64,  # s0, s1, rows
        _i32, _i32, _i64,  # order: n + 1; dist, sigma: one per node
        _i32, _i32,  # pred: one per arc; npred: one per node
    ),
    "netbrain_shuffle": (_i32, ctypes.c_int64, _u32),  # x, len, mt
    "netbrain_parse_edges": (
        ctypes.c_char_p, ctypes.c_int64,  # buf, len
        _i64, ctypes.c_int64, _i64,  # labels, cap, nedges
    ),
    "netbrain_build_csr": (
        _i32, ctypes.c_int64, ctypes.c_int32,  # edges, k, n
        _i32, _i32, _i32, _i32, _i64,  # indptr, indices, bucket, next, counts
    ),
    "netbrain_components": (_i32, _i32, ctypes.c_int32, _i32, _i32),  # indptr, indices, n, labels, queue
    "netbrain_format_edges": (_i32, _i32, ctypes.c_int32, _u8, _i64),  # indptr, indices, n, buf, len
}


class Loader:
    """Builds and loads the kernel once per process; threads share the result."""

    def __init__(self, cc: str = "cc", cache_dir: Path | None = None):
        self.cc = cc
        self.cache_dir = cache_dir  # None: the user cache directory, read at first use
        self._lock = threading.Lock()
        self._tried = False
        self._kernels = {}  # entry point name -> function; empty when unavailable

    def _library(self) -> Path:
        command = (self.cc, *CFLAGS)
        source = SOURCE.read_bytes()
        key = hashlib.blake2b(source + "\0".join(command).encode(), digest_size=8).hexdigest()
        root = self.cache_dir
        if root is None:
            root = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "netbrain"
        lib = root / f"_walk-{key}.so"
        if lib.exists():
            return lib
        root.mkdir(parents=True, exist_ok=True)
        # Separate processes (two CLI runs, say) may build at once, while
        # threads share this loader and its lock: each process writes its
        # own file, and the rename makes the finished library appear whole.
        fd, tmp = tempfile.mkstemp(prefix=lib.stem + "-", suffix=".tmp", dir=root)
        os.close(fd)
        try:
            subprocess.run(
                [*command, "-o", tmp, str(SOURCE)], check=True, capture_output=True, timeout=300
            )
            os.replace(tmp, lib)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        return lib

    def kernel(self, name: str):
        """The loaded entry point `name`, or None when the library cannot be built or loaded."""
        with self._lock:
            if not self._tried:
                self._tried = True
                try:
                    lib = ctypes.CDLL(str(self._library()))
                    kernels = {}
                    for entry, argtypes in _ENTRY_POINTS.items():
                        fn = getattr(lib, entry)
                        fn.argtypes = [ctypes.c_void_p if isinstance(t, np.dtype) else t for t in argtypes]
                        fn.restype = ctypes.c_int
                        kernels[entry] = partial(_call, fn, argtypes)
                    self._kernels = kernels
                except Exception as exc:  # any failure selects the Python code
                    logger.info("native kernels unavailable, using the Python engine: %s", exc)
            return self._kernels.get(name)


def _call(fn, argtypes: tuple, *args) -> int:
    """`fn(*args)`, each array that `argtypes` declares passed as its address once its dtype and
    C order are checked, so that ctypes converts every argument in C: an interrupt in numpy's
    `ndpointer` became an `ArgumentError`. `args` holds the arrays until `fn` returns."""
    for a, t in zip(args, argtypes):
        if isinstance(t, np.dtype) and not (isinstance(a, np.ndarray) and a.dtype == t and a.flags["C"]):
            raise TypeError(f"{fn.__name__} takes a C-contiguous {t} array")
    return fn(*[a.ctypes.data if isinstance(t, np.dtype) else a for a, t in zip(args, argtypes)])


LOADER = Loader()

# The policy numbers of `_walk.c`, by `WalkPolicy` value.
_POLICY_CODES = {"standard": 0, "extended": 1, "look_ahead": 2}
# The slots of `netbrain_discover`'s `ctr`, in the order of `_walk.c`'s
# `enum { KNOWN, ... }`, by the `dynamics._Walker` attribute each one
# carries; the last, CROSSED, carries the length of `_Walker.crossed`.
_CTR_SLOTS = ("count", "cumulative_steps", "walk_count", "moves", "cap_hits", "stalled", "crossed")


def available() -> bool:
    """Whether the library loaded, so that discoveries with a plain
    `random.Random` run natively ("native" in the `run` manifest)."""
    return LOADER.kernel("netbrain_discover") is not None


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def _in_order(fn: Callable, items: Iterable, threads: int) -> Iterator:
    """`fn` of each item in the order of `items`: here, or on `threads`
    threads with at most two calls a thread submitted and not yet yielded
    (`Executor.map` submits them all at once). Closing the stream cancels
    the calls not yet started, so the pool's shutdown waits only for those
    running. It runs the cells of `harness._stream` and the blocks of `betweenness`."""
    if threads <= 1:
        yield from map(fn, items)
        return
    window: deque = deque()
    with ThreadPoolExecutor(threads) as pool:
        try:
            for item in items:
                window.append(pool.submit(fn, item))
                if len(window) >= 2 * threads:
                    yield window.popleft().result()
            while window:
                yield window.popleft().result()
        finally:
            for future in window:
                future.cancel()


def _block_rows(n: int) -> int:
    """Sources per betweenness block: their rows of n doubles fill about
    `_BLOCK_BYTES`."""
    return max(1, _BLOCK_BYTES // (8 * n))


def betweenness(g: Graph) -> list[float] | None:
    """Exact betweenness of `g` by `netbrain_betweenness`, bit-identical to
    `graph._betweenness_python`; None when the library did not load or a
    path count exceeds 2**53, which Python counts exactly and a double does
    not.

    Blocks of sources run in threads, one per CPU the process may use, and
    the rows of each block are added in block order, so that every node's
    score sums its per-source scores in ascending source order whatever the
    thread count. At most two blocks per thread are in flight (`_in_order`)."""
    kernel = LOADER.kernel("netbrain_betweenness")
    if kernel is None:
        return None
    n = g.n
    if n == 0:
        return []
    rows = _block_rows(n)
    threads = min(_cpu_count(), -(-n // rows))
    centrality = np.zeros(n)

    def block(s0: int) -> np.ndarray | None:
        s1 = min(s0 + rows, n)
        delta = np.empty((s1 - s0, n))
        overflow = kernel(
            g.indptr, g.indices, n, s0, s1, delta,
            np.empty(n + 1, dtype=np.int32), np.empty(n, dtype=np.int32), np.empty(n, dtype=np.int64),
            np.empty(len(g.indices), dtype=np.int32), np.empty(n, dtype=np.int32),
        )
        return None if overflow else delta

    with closing(_in_order(block, range(0, n, rows), threads)) as deltas:
        for delta in deltas:
            if delta is None:
                return None  # closing cancels the blocks not yet started
            for row in delta:
                centrality += row
    # Each unordered pair was counted from both endpoints.
    return (centrality / 2.0).tolist()


def discover(walker, stall_limit: int) -> bool | None:
    """`dynamics._Walker.discover` run by `netbrain_discover` on the walker's
    own `known` and `reported` buffers; the counters, the crossed targets and
    the generator's state go back into the walker and its `rng`.

    None when the library did not load or `walker.rng` is not exactly a
    `random.Random`: the kernel replays the Mersenne Twister from its
    state, and a subclass may override `random()`."""
    kernel = LOADER.kernel("netbrain_discover")
    if kernel is None or type(walker.rng) is not random.Random:
        return None
    g = walker.g
    version, words, gauss_next = walker.rng.getstate()
    mt = np.array(words, dtype=np.uint32)
    targets = np.array(walker.targets, dtype=np.int64)
    crossed_steps = np.empty(len(targets), dtype=np.int64)
    crossed = len(walker.crossed)
    ctr = np.array([getattr(walker, name) for name in _CTR_SLOTS[:-1]] + [crossed], dtype=np.int64)
    stalled = kernel(
        g.indptr, g.indices,
        walker.brain, _POLICY_CODES[walker.policy.value], walker.cap, walker.stop_count,
        targets, len(targets), crossed_steps,
        np.frombuffer(walker.known, dtype=np.uint8), np.frombuffer(walker.reported, dtype=np.uint8),
        np.zeros(g.n, dtype=np.uint8),  # state
        np.empty(g.n, dtype=np.int32), np.empty(g.n, dtype=np.int32),  # touched, elig
        mt, ctr, stall_limit,
    )
    walker.rng.setstate((version, tuple(mt.tolist()), gauss_next))
    *counts, now = ctr.tolist()
    for name, value in zip(_CTR_SLOTS, counts):
        setattr(walker, name, value)
    walker.crossed += crossed_steps[crossed:now].tolist()
    return bool(stalled)


def shuffle(rng, x: np.ndarray) -> bool:
    """`rng.shuffle(x)` on the C-contiguous int32 array `x` by
    `netbrain_shuffle`: the same permutation, and the generator's state goes
    back into `rng`. False, with `x` and `rng` untouched, when the library
    did not load or `x` holds 2**32 items or more, as the kernel draws at
    most 32 bits per index."""
    kernel = LOADER.kernel("netbrain_shuffle")
    if kernel is None or len(x) >= 2**32:
        return False
    version, words, gauss_next = rng.getstate()
    mt = np.array(words, dtype=np.uint32)
    kernel(x, len(x), mt)
    rng.setstate((version, tuple(mt.tolist()), gauss_next))
    return True


def parse_edges(path: Path) -> np.ndarray | None:
    """The (k, 2) int64 labels of the edge lines of the file `path` by
    `netbrain_parse_edges`; None, without reading the file, when the library
    did not load, and None when some line falls outside the kernel's
    grammar (ASCII only, blanks and tabs, "#" comments, two labels of at
    most 18 digits a line)."""
    kernel = LOADER.kernel("netbrain_parse_edges")
    if kernel is None:
        return None
    data = path.read_bytes()
    cap = data.count(b"\n") + 1  # no more edges than lines
    labels = np.empty((cap, 2), dtype=np.int64)
    nedges = np.zeros(1, dtype=np.int64)
    if kernel(data, len(data), labels, cap, nedges):
        return None
    return labels[: nedges[0]]


def build_csr(n: int, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, int] | None:
    """The int32 `indptr` and `indices` of the simple graph on `n` nodes with
    the (k, 2) integer `edges`, all in [0, n), by `netbrain_build_csr`, and
    the self-loops and repeated pairs it dropped: what the numpy build of
    `graph.build_graph_reported` gives. C-contiguous int32 `edges` are read
    as they are; any other array is cast to them. None when the library did
    not load or the 2k arcs reach 2**31, which its int32 scratch cannot
    index."""
    kernel = LOADER.kernel("netbrain_build_csr")
    k = len(edges)
    if kernel is None or 2 * k >= 2**31:
        return None
    edges = np.ascontiguousarray(edges, dtype=np.int32)
    indptr = np.empty(n + 1, dtype=np.int32)
    indices = np.empty(2 * k, dtype=np.int32)
    counts = np.empty(3, dtype=np.int64)
    kernel(
        edges, k, n, indptr, indices,
        np.empty(2 * k, dtype=np.int32), np.empty(n, dtype=np.int32),  # bucket, next
        counts,
    )
    arcs, loops, duplicates = counts.tolist()
    return indptr, indices[:arcs], loops, duplicates


def components(g: Graph) -> np.ndarray | None:
    """Each node's component label, the smallest node id in its component,
    by `netbrain_components`; None when the library did not load."""
    kernel = LOADER.kernel("netbrain_components")
    if kernel is None:
        return None
    labels = np.empty(g.n, dtype=np.int32)
    kernel(g.indptr, g.indices, g.n, labels, np.empty(g.n, dtype=np.int32))
    return labels


def format_edges(g: Graph) -> memoryview | None:
    """The ASCII bytes of the "u v" lines of the edges of `g`, u < v,
    ascending, by `netbrain_format_edges`: a view of the kernel's buffer,
    not a copy. None when the library did not load."""
    kernel = LOADER.kernel("netbrain_format_edges")
    if kernel is None:
        return None
    buf = np.empty(22 * g.m, dtype=np.uint8)  # at most 22 bytes a line
    length = np.empty(1, dtype=np.int64)
    kernel(g.indptr, g.indices, g.n, buf, length)
    return buf[: length[0]].data
