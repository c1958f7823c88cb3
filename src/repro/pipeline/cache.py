"""Compilation caching for the measurement harness and the service.

Two pipeline stages are memoized, both through one
:class:`ArtifactStore`:

* :class:`FrontendCache` — the frontend prefix (parse -> lower ->
  [inline] -> [rotate] -> SSA) does not depend on the optimizer
  configuration, yet the table runs evaluate ~19 configurations per
  benchmark.  The store keeps the pickled post-SSA module per ``(source
  hash, frontend options)`` key and hands out a fresh unpickled copy
  per request, so one table run pays the frontend exactly once per
  program and callers may mutate their module freely.
* :class:`BackendCache` — the *translated* Python back-end module per
  ``(module fingerprint, engine)`` key, so service workers and
  ``--jobs`` pools skip SSA destruction and re-translation when they
  execute the same optimized module twice.  Compiled modules hold no
  run state, so the memory tier shares one instance per key.

The store is an LRU-bounded memory tier (``max_entries``; unbounded
when not given) over an optional disk tier (``disk_dir``, or the
``REPRO_CACHE_DIR`` environment variable for the shared stores) that
survives across processes.  Every counter is updated under the store's
lock, so the service's thread-mode workers can share one store.

Every key starts with the **build fingerprint** — a sha256 over the
``repro`` package's own ``.py`` sources — so a store can never serve an
artifact built by a different version of the code: after any source
change every old entry is simply a miss by key.

The disk tier is safe under concurrent writers — the compile service
runs many workers against one cache directory — because entries are
written to a temp file *in the same directory* and atomically renamed
into place (readers never observe a partial entry).  Entries are
framed with a sha256 integrity digest, so any corrupt, truncated, or
otherwise unreadable entry — including a single flipped byte that a raw
pickle would silently decode into a different module — is treated as a
miss and rebuilt.  Reads and writes pass the ``diskcache.read`` /
``diskcache.write`` fault points (:mod:`repro.faults`); the resilience
suite asserts the miss-never-corruption contract by arming them.

With a disk tier configured, fills are additionally **cluster-wide
single-flight**: before building a missed key the store takes a
per-key advisory file lock (``fcntl.flock`` on a ``<entry>.lock``
sidecar), re-checks once the lock is held (another filler may have
published the entry while we waited), and only then builds and
publishes.  A cold key hammered by every shard of a :mod:`repro.cluster`
deployment therefore builds exactly once cluster-wide.  The lock is
strictly an optimization gate: any failure to take it — missing
``fcntl`` (non-POSIX), an unwritable or corrupt lock path, a holder
that outlives ``REPRO_CACHE_LOCK_TIMEOUT`` seconds, or an armed
``cache.lock`` fault — degrades to lock-less duplicate work, never to a
failed or wrong compile.  Lock files are never unlinked (an unlink
racing a fresh open would split the lock across two inodes and readmit
the double-build).
"""

from __future__ import annotations

import functools
import hashlib
import os
import pickle
import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, Optional, Tuple, Type, TypeVar

from .. import faults
from ..ir.function import Module
from .driver import module_size, run_frontend
from .trace import PipelineTrace

try:  # POSIX only; the lock degrades to duplicate work without it
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

#: Environment variable enabling the disk tier of the shared stores.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable bounding how long a fill waits on another
#: process's in-progress build before degrading to duplicate work.
CACHE_LOCK_TIMEOUT_ENV = "REPRO_CACHE_LOCK_TIMEOUT"

#: Default cross-process fill-lock wait (seconds); compiles on this
#: workload are sub-second, so 30s only triggers on a wedged holder.
CACHE_LOCK_TIMEOUT_DEFAULT = 30.0

_LOCK_POLL_SECONDS = 0.01

#: Environment variable bounding the memory tier of both shared stores
#: (non-positive = unbounded).
CACHE_MAX_ENTRIES_ENV = "REPRO_CACHE_MAX_ENTRIES"

#: LRU bound of the shared stores when the variable is unset.
CACHE_DEFAULT_MAX_ENTRIES = 512

_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: Everything a disk-cache read can legitimately die of: I/O errors,
#: truncated or garbage pickles, entries that fail to rebuild, and
#: injected faults.  All of them mean "miss", never a failed compile.
_DISK_READ_ERRORS = (OSError, faults.FaultError, pickle.PickleError,
                     EOFError, ValueError, AttributeError, ImportError,
                     IndexError, KeyError, MemoryError,
                     UnicodeDecodeError, SyntaxError, TypeError)

#: Everything encoding an artifact for the disk tier can die of; the
#: entry is then simply not published.
_ENCODE_ERRORS = (pickle.PickleError, TypeError, AttributeError,
                  RecursionError)

#: On-disk entries are framed ``MAGIC + sha256(payload) + payload``.
#: Unpickling raw bytes would happily decode a flipped byte into a
#: *different* module — silent wrong results.  The digest makes every
#: truncation or corruption detectable, so it degrades to a miss.
_DISK_MAGIC = b"RPRC1\n"
_DISK_DIGEST_BYTES = 32


def _seal_entry(blob: bytes) -> bytes:
    return _DISK_MAGIC + hashlib.sha256(blob).digest() + blob


def _unseal_entry(data: bytes) -> Optional[bytes]:
    header = len(_DISK_MAGIC) + _DISK_DIGEST_BYTES
    if len(data) < header or not data.startswith(_DISK_MAGIC):
        return None
    blob = data[header:]
    if hashlib.sha256(blob).digest() != data[len(_DISK_MAGIC):header]:
        return None
    return blob


@functools.lru_cache(maxsize=None)
def build_fingerprint() -> str:
    """The key prefix naming this build of the code (16 hex digits).

    A sha256 over the relative path and bytes of every ``.py`` file of
    the ``repro`` package, computed once per process.  Any source
    change yields new keys, so artifacts pickled by another version of
    the code are never read back.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths = []
    for directory, subdirs, files in os.walk(root):
        subdirs[:] = [name for name in subdirs if name != "__pycache__"]
        paths.extend(os.path.join(directory, name) for name in files
                     if name.endswith(".py"))
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(os.path.relpath(path, root).encode("utf-8") + b"\0")
        with open(path, "rb") as handle:
            digest.update(handle.read() + b"\0")
    return digest.hexdigest()[:16]


def _lock_timeout() -> float:
    try:
        timeout = float(os.environ.get(CACHE_LOCK_TIMEOUT_ENV, ""))
    except ValueError:
        return CACHE_LOCK_TIMEOUT_DEFAULT
    return timeout if timeout > 0 else CACHE_LOCK_TIMEOUT_DEFAULT


class _FillLock:
    """Cross-process single-flight gate for one disk-cache key.

    Advisory ``flock`` on a ``<entry path>.lock`` sidecar: the first
    filler to reach a cold key holds the exclusive lock for the
    duration of build+publish; concurrent fillers of the same key
    block in :meth:`acquire` and, once through, re-read the freshly
    published entry instead of rebuilding.  ``held`` reports whether
    the lock was actually taken — *every* failure mode (no ``fcntl``,
    unwritable directory, a directory squatting on the lock path, an
    injected ``cache.lock`` fault, a holder that outlives the timeout)
    leaves ``held`` False and the caller simply builds redundantly.
    The kernel drops ``flock`` locks when the holder dies, so a
    crashed builder never wedges the cluster; the sidecar file itself
    is never unlinked (see the module docstring for why).
    """

    __slots__ = ("path", "held", "waited", "_fd")

    def __init__(self, path: str) -> None:
        self.path = path
        self.held = False
        #: True when another filler held the lock when we arrived —
        #: after acquiring, the caller should expect a published entry.
        self.waited = False
        self._fd: Optional[int] = None

    def acquire(self) -> bool:
        if fcntl is None:
            return False
        try:
            faults.fire("cache.lock")
            parent = os.path.dirname(self.path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            self._fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
            deadline = time.monotonic() + _lock_timeout()
            while True:
                try:
                    fcntl.flock(self._fd,
                                fcntl.LOCK_EX | fcntl.LOCK_NB)
                    self.held = True
                    return True
                except OSError:
                    self.waited = True
                    if time.monotonic() >= deadline:
                        break
                    time.sleep(_LOCK_POLL_SECONDS)
        except (OSError, ValueError, faults.FaultError):
            pass  # degrade: build without the lock
        if not self.held and self._fd is not None:
            try:
                os.close(self._fd)
            except OSError:
                pass
            self._fd = None
        return False

    def release(self) -> None:
        if self._fd is None:
            return
        try:
            if self.held:
                fcntl.flock(self._fd, fcntl.LOCK_UN)
        except OSError:
            pass
        try:
            os.close(self._fd)
        except OSError:
            pass
        self._fd = None
        self.held = False


class ArtifactStore:
    """A memory LRU over an optional sealed, single-flight disk tier.

    Subclasses choose the artifact: :attr:`suffix` names its disk
    files, :meth:`_encode` turns a stored value into the bytes the disk
    tier seals, and :meth:`_decode` turns those bytes back into a value
    (raising any of the disk-read errors, or returning None, for an
    entry it cannot use).  Their public lookup methods pass a key and a
    build function to :meth:`_lookup`.
    """

    #: File-name suffix of this store's disk entries.
    suffix: str

    def __init__(self, disk_dir: Optional[str] = None,
                 max_entries: Optional[int] = None) -> None:
        self.disk_dir = disk_dir
        self.max_entries = max_entries if max_entries and max_entries > 0 \
            else None
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.evictions = 0
        #: Fills that found another filler's build in progress and
        #: waited on the cross-process lock instead of duplicating it.
        self.lock_waits = 0
        #: Fills that could not take the lock (timeout, I/O failure,
        #: armed ``cache.lock`` fault) and built redundantly.
        self.lock_degraded = 0
        #: Number of times the build function actually ran.
        self.builds = 0
        self._lock = threading.Lock()
        self._memory: "OrderedDict[str, object]" = OrderedDict()

    # -- artifact format (subclasses) -----------------------------------

    def _encode(self, value: object) -> bytes:
        raise NotImplementedError

    def _decode(self, blob: bytes) -> Optional[object]:
        raise NotImplementedError

    # -- the memory tier -------------------------------------------------

    def _count(self, *names: str) -> None:
        with self._lock:
            for name in names:
                setattr(self, name, getattr(self, name) + 1)

    def _memory_get(self, key: str) -> Optional[object]:
        with self._lock:
            value = self._memory.get(key)
            if value is not None:
                self._memory.move_to_end(key)  # LRU refresh
                self.hits += 1
            return value

    def _memory_put(self, key: str, value: object) -> None:
        with self._lock:
            self._memory[key] = value
            self._memory.move_to_end(key)
            if self.max_entries is not None:
                while len(self._memory) > self.max_entries:
                    self._memory.popitem(last=False)
                    self.evictions += 1

    # -- the disk tier ---------------------------------------------------

    def _disk_path(self, key: str) -> str:
        return os.path.join(self.disk_dir or "", key + self.suffix)

    def _load_disk(self, key: str) -> Optional[object]:
        if not self.disk_dir:
            return None
        try:
            faults.fire("diskcache.read")
            with open(self._disk_path(key), "rb") as handle:
                data = handle.read()
            blob = _unseal_entry(faults.corrupt_bytes("diskcache.read",
                                                      data))
            value = self._decode(blob) if blob is not None else None
        except _DISK_READ_ERRORS:
            return None  # corrupt/truncated/unreadable entry == miss
        if value is None:
            return None
        self._memory_put(key, value)
        self._count("disk_hits", "hits")
        return value

    def _store_disk(self, key: str, value: object) -> None:
        """Publish one entry atomically.

        The temp file lives in the cache directory itself so the final
        ``os.replace`` is a same-filesystem rename — concurrent
        readers see either the old entry or the new one, never a
        partial write; concurrent writers of the same key each rename
        their own temp file (pid + thread id disambiguated) and the
        last one wins with identical content.
        """
        if not self.disk_dir:
            return
        try:
            blob = self._encode(value)
        except _ENCODE_ERRORS:
            return
        path = self._disk_path(key)
        tmp = "%s.tmp.%d.%d" % (path, os.getpid(), threading.get_ident())
        try:
            os.makedirs(self.disk_dir, exist_ok=True)
            faults.fire("diskcache.write")
            data = faults.corrupt_bytes("diskcache.write",
                                        _seal_entry(blob))
            with open(tmp, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except (OSError, faults.FaultError):
            # caching is best-effort; never fail a compile.  Don't
            # leave the temp file behind if the rename failed.
            try:
                os.unlink(tmp)
            except OSError:
                pass

    # -- lookup ----------------------------------------------------------

    def _lookup(self, key: str,
                build: Callable[[], object]) -> Tuple[object, bool]:
        """The value for ``key`` and whether this call built it.

        Memory, then disk, then — holding the key's fill lock when a
        disk tier is configured — ``build()``, published to both tiers.
        """
        value = self._memory_get(key)
        if value is None:
            value = self._load_disk(key)
        if value is not None:
            return value, False
        lock = _FillLock(self._disk_path(key) + ".lock") \
            if self.disk_dir else None
        try:
            if lock is not None:
                if not lock.acquire():
                    self._count("lock_degraded")
                else:
                    if lock.waited:
                        self._count("lock_waits")
                    # another filler may have published the entry
                    # since we looked, or while we waited for it
                    value = self._memory_get(key)
                    if value is None and lock.waited:
                        value = self._load_disk(key)
                    if value is not None:
                        return value, False
            value = build()
            self._count("misses", "builds")
            self._memory_put(key, value)
            self._store_disk(key, value)
            return value, True
        finally:
            if lock is not None:
                lock.release()

    # -- maintenance and counters -----------------------------------------

    def clear(self) -> None:
        """Drop the memory tier (the disk tier is left alone)."""
        with self._lock:
            self._memory.clear()

    def counters(self) -> Dict[str, int]:
        """One consistent snapshot of every counter and the entry count."""
        with self._lock:
            return {"builds": self.builds, "hits": self.hits,
                    "misses": self.misses, "disk_hits": self.disk_hits,
                    "evictions": self.evictions,
                    "lock_waits": self.lock_waits,
                    "lock_degraded": self.lock_degraded,
                    "entries": len(self._memory)}

    def __repr__(self) -> str:
        counters = self.counters()
        return "%s(%d entries, %d hits, %d builds)" % (
            type(self).__name__, counters["entries"], counters["hits"],
            counters["builds"])


class CacheStats:
    """An immutable counter snapshot of one :class:`FrontendCache`.

    Consumed by the service metrics registry and printed by
    ``repro tables --timings``; ``as_dict()`` feeds the ``--json``
    document (field set locked by the golden-file test).
    """

    __slots__ = ("frontend_compiles", "hits", "misses", "disk_hits",
                 "evictions", "entries")

    def __init__(self, frontend_compiles: int = 0, hits: int = 0,
                 misses: int = 0, disk_hits: int = 0, evictions: int = 0,
                 entries: int = 0) -> None:
        self.frontend_compiles = frontend_compiles
        self.hits = hits
        self.misses = misses
        self.disk_hits = disk_hits
        self.evictions = evictions
        self.entries = entries

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def as_dict(self) -> Dict[str, int]:
        return {
            "frontend_compiles": self.frontend_compiles,
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "evictions": self.evictions,
            "entries": self.entries,
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CacheStats):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:
        return ("CacheStats(compiles=%d, hits=%d, misses=%d, "
                "disk_hits=%d, evictions=%d, entries=%d)"
                % (self.frontend_compiles, self.hits, self.misses,
                   self.disk_hits, self.evictions, self.entries))


class FrontendCache(ArtifactStore):
    """Shares one parsed+lowered+SSA module across configurations.

    The stored artifact is the module's pickle — unpickling clones this
    IR ~5x faster than ``copy.deepcopy`` — and ``frontend()`` returns a
    private copy on every call, so callers may mutate (optimize,
    destruct) their module freely.
    """

    suffix = ".frontend.pickle"

    @staticmethod
    def key(source: str, insert_checks: bool = True,
            rotate_loops: bool = False, inline: bool = False) -> str:
        digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
        return "%s-%s-%d%d%d" % (build_fingerprint(), digest,
                                 insert_checks, rotate_loops, inline)

    def _encode(self, value: object) -> bytes:
        return value  # the stored value already is the pickle

    def _decode(self, blob: bytes) -> Optional[bytes]:
        return blob if isinstance(pickle.loads(blob), Module) else None

    @property
    def frontend_compiles(self) -> int:
        """Times the frontend passes actually ran — the counter the
        "at most once per program per table run" test asserts on."""
        return self.builds

    def frontend(self, source: str, insert_checks: bool = True,
                 rotate_loops: bool = False,
                 trace: Optional[PipelineTrace] = None,
                 inline: bool = False) -> Module:
        """A fresh copy of the cached frontend module for ``source``,
        compiling (and caching) it on first request.

        A miss records the fresh pass events into ``trace``; a hit
        records a ``frontend`` event with ``cached=True``.  Either way
        a ``clone`` event follows.
        """
        def build() -> bytes:
            compile_trace = PipelineTrace()
            module = run_frontend(source, insert_checks=insert_checks,
                                  rotate_loops=rotate_loops, ssa=True,
                                  trace=compile_trace, inline=inline)
            blob = pickle.dumps(module, _PICKLE_PROTOCOL)
            if trace is not None:
                trace.extend(compile_trace)
            return blob

        blob, fresh = self._lookup(
            self.key(source, insert_checks, rotate_loops, inline), build)
        start = time.perf_counter()
        module = pickle.loads(blob)
        seconds = time.perf_counter() - start
        if trace is not None:
            size = module_size(module)
            if not fresh:
                trace.record("frontend", 0.0, size_after=size, cached=True)
            trace.record("clone", seconds, size_before=size,
                         size_after=size)
        return module

    def stats_object(self) -> CacheStats:
        """The queryable counter snapshot (metrics registry, tests)."""
        counters = self.counters()
        return CacheStats(counters["builds"], counters["hits"],
                          counters["misses"], counters["disk_hits"],
                          counters["evictions"], counters["entries"])

    def stats(self) -> Dict[str, int]:
        """Counter snapshot as a plain dict (JSON reporting)."""
        return self.stats_object().as_dict()


def _module_fingerprint(module: Module) -> str:
    """A canonical text form of everything the back-end consumes.

    The printed IR covers blocks, instructions, checks, and array
    declarations; the appended sections cover what the printer omits
    but codegen depends on: parameter and scalar types, and input
    defaults.  Hashing this is sound — two modules with equal
    fingerprints translate to identical Python source.
    """
    from ..ir.printer import format_module

    parts = [format_module(module)]
    for name in sorted(module.functions):
        function = module.functions[name]
        parts.append("=func %s" % name)
        parts.append("params " + ",".join(
            "%s:%s" % (p.name, p.type.value if p.type else "?")
            for p in function.params))
        parts.append("scalars " + ",".join(
            "%s:%s" % (sname, stype.value if stype else "?")
            for sname, stype in sorted(function.scalar_types.items())))
        parts.append("defaults " + ",".join(
            "%s=%r" % item for item in
            sorted(function.input_defaults.items())))
    return "\n".join(parts)


class BackendCache(ArtifactStore):
    """Shares translated back-end modules across executions.

    ``compiled(module)`` returns a ready-to-run
    :class:`~repro.backend.pybackend.CompiledPythonModule` for the
    given (SSA or non-SSA) module, destructing and translating a
    private copy on first request.  Compiled modules hold no run state,
    so the same instance is handed to every caller; the disk tier
    pickles the (class, destructed module, generated source) triple and
    re-``exec``\\ s on load.  Keys end in the engine name, so the
    threaded and specialized tiers never collide on a key.
    """

    suffix = ".pybackend.pickle"

    @staticmethod
    def key(module: Module, engine: str = "compiled",
            profile_fingerprint: Optional[str] = None) -> str:
        digest = hashlib.sha256(
            _module_fingerprint(module).encode("utf-8")).hexdigest()
        key = "%s-%s-%s" % (build_fingerprint(), digest, engine)
        if profile_fingerprint:
            # Profile-guided modules carry the training profile's
            # fingerprint: the module fingerprint already reflects the
            # placement the profile produced, but the explicit suffix
            # keeps artifacts from different training runs separable
            # (and auditable) on disk.
            key = "%s-p%s" % (key, profile_fingerprint[:16])
        return key

    def _encode(self, value) -> bytes:
        return pickle.dumps((type(value), value.module, value.source),
                            _PICKLE_PROTOCOL)

    def _decode(self, blob: bytes):
        from ..backend.pybackend import CompiledPythonModule

        cls, module, source = pickle.loads(blob)
        if not (issubclass(cls, CompiledPythonModule)
                and isinstance(module, Module) and isinstance(source, str)):
            return None  # a non-class ``cls`` raises TypeError: a miss too
        return cls(module, source=source)

    @property
    def translations(self) -> int:
        """Times the destruct+translate pass actually ran."""
        return self.builds

    def compiled(self, module: Module,
                 trace: Optional[PipelineTrace] = None,
                 engine: str = "compiled",
                 profile_fingerprint: Optional[str] = None):
        """The translated back-end module for ``module``.

        ``engine`` selects the tier: ``"compiled"`` (direct-threaded)
        or ``"specialized"`` (flat source + vectorized affine loops).
        The input module is never mutated: destruction runs on a
        private clone.  Records one ``backend`` trace event per call —
        ``cached=True`` on a hit, wall time of the
        clone+destruct+translate pipeline on a miss.
        ``profile_fingerprint`` (for profile-guided modules) becomes
        part of the key so training runs never share artifacts.
        """
        key = self.key(module, engine, profile_fingerprint)

        def build():
            start = time.perf_counter()
            compiled = self.translate(module, engine)
            if trace is not None:
                trace.record("backend", time.perf_counter() - start,
                             size_after=module_size(compiled.module),
                             counters={"key": key})
            return compiled

        compiled, fresh = self._lookup(key, build)
        if not fresh and trace is not None:
            trace.record("backend", 0.0, cached=True)
        return compiled

    @staticmethod
    def translate(module: Module, engine: str = "compiled",
                  collect_edges: bool = False):
        """Destruct and translate a private clone of ``module``,
        uncached.  ``collect_edges`` instruments every branch with an
        edge-profile bump."""
        from ..backend.pybackend import compile_to_python
        from ..backend.specialized import compile_to_specialized
        from ..ssa.destruct import destruct_ssa

        # a pickle round-trip clones this IR ~5x faster than deepcopy
        clone = pickle.loads(pickle.dumps(module, _PICKLE_PROTOCOL))
        if engine == "specialized":
            # Plans loops on the SSA form, then destructs in place.
            return compile_to_specialized(clone, collect_edges)
        for function in clone:
            if any(block.phis() for block in function.blocks):
                destruct_ssa(function)
        return compile_to_python(clone, collect_edges)

    def stats(self) -> Dict[str, int]:
        """Counter snapshot as a plain dict."""
        counters = self.counters()
        counters["translations"] = counters.pop("builds")
        return counters


_Store = TypeVar("_Store", bound=ArtifactStore)
_shared: Dict[type, ArtifactStore] = {}
_shared_lock = threading.Lock()


def _shared_store(cls: Type[_Store]) -> _Store:
    """The process-wide ``cls`` store, created on first use.

    Honors ``REPRO_CACHE_DIR`` for the disk tier (both stores share the
    directory; their file suffixes cannot collide) and
    ``REPRO_CACHE_MAX_ENTRIES`` for the memory-tier LRU bound (default
    :data:`CACHE_DEFAULT_MAX_ENTRIES`; non-positive = unbounded).
    """
    with _shared_lock:
        store = _shared.get(cls)
        if store is None:
            try:
                max_entries = int(os.environ.get(
                    CACHE_MAX_ENTRIES_ENV, CACHE_DEFAULT_MAX_ENTRIES))
            except ValueError:
                max_entries = CACHE_DEFAULT_MAX_ENTRIES
            store = _shared[cls] = cls(os.environ.get(CACHE_DIR_ENV) or None,
                                       max_entries=max_entries)
        return store


def shared_cache() -> FrontendCache:
    """The process-wide frontend cache the table runners and service
    workers default to."""
    return _shared_store(FrontendCache)


def shared_backend_cache() -> BackendCache:
    """The process-wide backend cache ``run_compiled`` defaults to."""
    return _shared_store(BackendCache)


def reset_shared_cache() -> None:
    """Forget the process-wide frontend cache (tests, servers)."""
    with _shared_lock:
        _shared.pop(FrontendCache, None)


def reset_shared_backend_cache() -> None:
    """Forget the process-wide backend cache (tests, servers)."""
    with _shared_lock:
        _shared.pop(BackendCache, None)
