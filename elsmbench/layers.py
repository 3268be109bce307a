"""Per-layer tracing from outside the program.

``LayerTracer.install()`` wraps the public functions of every layer
module (module functions and the public methods of the classes each
module defines) so that a call into a layer pushes that layer onto a
stack and its return pops it.  Host time between two stack changes is
credited to the layer on top, which gives each layer its *self* time;
``SimClock.charge`` is wrapped the same way, and each simulated charge is
credited to the layer that asked for it.  Functions imported by name
into other modules (``from repro.cryptoprim.hashing import tagged_hash``)
are replaced wherever the original object is referenced, so those calls
are seen too.

Only the time inside store calls is accounted: the harness brackets each
operation with ``begin_op``/``end_op``, and wrappers pass straight
through outside that window.  Every host nanosecond of an operation is
credited to exactly one layer or to ``unwrapped`` (integer arithmetic, so
the per-layer sums equal the total exactly), and every simulated charge
is kept as an exact (layer, category, amount) count.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import sys
import time
from fractions import Fraction

UNWRAPPED = "unwrapped"

#: Layer name -> modules it covers.  A layer is named after its module;
#: ``mht`` and ``telemetry`` are packages, and ``sgx.env`` is the
#: execution-environment facade together with the boundary, enclave and
#: EPC modules behind it.
LAYERS: dict[str, tuple[str, ...]] = {
    "core.store_p2": ("repro.core.store_p2",),
    "core.prover": ("repro.core.prover",),
    "core.verifier": ("repro.core.verifier",),
    "core.auth_compaction": ("repro.core.auth_compaction",),
    "lsm.db": ("repro.lsm.db",),
    "lsm.compaction": ("repro.lsm.compaction",),
    "lsm.memtable": ("repro.lsm.memtable",),
    "lsm.version": ("repro.lsm.version",),
    "lsm.sstable": ("repro.lsm.sstable",),
    "lsm.wal": ("repro.lsm.wal",),
    "mht": (
        "repro.mht.chain",
        "repro.mht.incremental",
        "repro.mht.merkle",
        "repro.mht.range_proof",
    ),
    "cryptoprim.hashing": ("repro.cryptoprim.hashing",),
    "sgx.env": (
        "repro.sgx.env",
        "repro.sgx.boundary",
        "repro.sgx.enclave",
        "repro.sgx.memory",
    ),
    "sim.disk": ("repro.sim.disk",),
    "telemetry": (
        "repro.telemetry",
        "repro.telemetry.metrics",
        "repro.telemetry.tracing",
        "repro.telemetry.events",
        "repro.telemetry.ledger",
    ),
    "sim.clock": ("repro.sim.clock",),
}

#: Functions whose calls are counted as one hash computation each.
HASH_FUNCTIONS = ("repro.cryptoprim.hashing.tagged_hash", "repro.cryptoprim.hashing.sha256")
#: Layers for which hash calls made while they are on the stack are counted.
HASH_WATCH = ("core.verifier", "core.auth_compaction", "mht", "cryptoprim.hashing")
#: Functions whose inclusive host time is kept (compaction stalls).
INCLUSIVE = ("repro.lsm.db.LSMStore.flush",)


class LayerTracer:
    def __init__(self) -> None:
        self.layers = [UNWRAPPED, *LAYERS]
        self.layer_id = {name: i for i, name in enumerate(self.layers)}
        n = len(self.layers)
        self.host_ns = [0] * n
        self.depth = [0] * n
        self.stack = [0]
        self.active = False
        #: Host time of the last stack change (a list, so wrappers share it).
        self.last = [0]
        self.op_start = 0
        self.total_ns = 0
        self.ops = 0
        self.unbalanced = 0
        self.names: list[str] = []
        self.fn_layer: list[int] = []
        self.calls: list[int] = []
        self.inclusive_ns: dict[str, int] = {name: 0 for name in INCLUSIVE}
        #: (layer id, category, micros) -> number of charges.
        self.charges: dict[tuple[int, str, float], int] = {}
        #: Per-category float sums replaying the clock's own accumulation.
        self.replay: dict[str, float] = {}
        self.counts: dict[str, float] = {
            "hash_calls": 0,
            "disk_append_bytes": 0,
            "wal_append_bytes": 0,
            "wal_fsyncs": 0,
            "compaction_append_bytes": 0,
            "copy_in_bytes": 0,
            "epc_faults": 0,
            "memtable_gets": 0,
            "memtable_hits": 0,
        }
        self.hash_under = {name: 0 for name in HASH_WATCH}
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Operation window
    # ------------------------------------------------------------------
    def begin_op(self) -> None:
        self.active = True
        self.last[0] = self.op_start = time.perf_counter_ns()

    def end_op(self) -> None:
        now = time.perf_counter_ns()
        self.host_ns[self.stack[-1]] += now - self.last[0]
        self.total_ns += now - self.op_start
        self.ops += 1
        self.active = False
        if self.stack != [0]:
            self.unbalanced += 1
            self.stack[:] = [0]

    def start_replay(self, breakdown: dict[str, float]) -> None:
        self.replay.clear()
        self.replay.update(breakdown)

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer's public functions (before building a store,
        so callbacks the store captures are the wrapped ones)."""
        originals: dict[int, tuple[object, object]] = {}
        for layer, modules in LAYERS.items():
            lid = self.layer_id[layer]
            for modname in modules:
                module = importlib.import_module(modname)
                for name, obj in list(vars(module).items()):
                    if name.startswith("_"):
                        continue
                    if inspect.isfunction(obj) and obj.__module__ == modname:
                        wrapped = self._wrap(obj, lid, f"{modname}.{name}")
                        originals[id(obj)] = (obj, wrapped)
                    elif inspect.isclass(obj) and obj.__module__ == modname:
                        self._wrap_class(obj, lid, modname)
        # Replace module-level functions wherever they were imported.
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            space = vars(module)
            for name, value in list(space.items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, name, hit[1], namespace=space)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._patched.clear()

    def _set(self, owner, name, value, namespace=None) -> None:
        if namespace is not None:
            self._patched.append((namespace, name, namespace[name]))
            namespace[name] = value
        else:
            self._patched.append((owner, name, vars(owner)[name]))
            setattr(owner, name, value)

    def _wrap_class(self, cls, lid: int, modname: str) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name != "__init__":
                continue
            qual = f"{modname}.{cls.__name__}.{name}"
            if isinstance(attr, (staticmethod, classmethod)):
                wrapped = type(attr)(self._wrap(attr.__func__, lid, qual))
            elif inspect.isfunction(attr):
                # Dataclass-generated __init__ has no source file of its own.
                if name == "__init__" and not attr.__code__.co_filename.endswith(".py"):
                    continue
                wrapped = self._wrap(attr, lid, qual)
            else:
                continue
            self._set(cls, name, wrapped)

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _wrap(self, fn, lid: int, qual: str):
        fid = len(self.names)
        self.names.append(qual)
        self.fn_layer.append(lid)
        self.calls.append(0)
        if qual == "repro.sim.clock.SimClock.charge":
            return self._wrap_charge(fn, lid, fid)
        after = self._after_hook(qual)
        inclusive = qual in INCLUSIVE
        if inspect.isgeneratorfunction(fn):
            shape = "generator"
        elif inspect.isgeneratorfunction(getattr(fn, "__wrapped__", None)):
            shape = "context"
        else:
            shape = "plain"
        t = self
        host, depth, stack, calls = self.host_ns, self.depth, self.stack, self.calls
        last, clock = self.last, time.perf_counter_ns

        if after is None and not inclusive and shape == "plain":
            # The common case, kept as short as possible: the wrapper's
            # own cost is credited to the layers and shows as overhead.
            def wrapper(*args, **kwargs):
                if not t.active:
                    return fn(*args, **kwargs)
                calls[fid] += 1
                if stack[-1] == lid:
                    # A call within the layer changes no attribution.
                    return fn(*args, **kwargs)
                now = clock()
                host[stack[-1]] += now - last[0]
                last[0] = now
                stack.append(lid)
                depth[lid] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    now = clock()
                    host[stack.pop()] += now - last[0]
                    last[0] = now
                    depth[lid] -= 1

        else:

            def enter() -> None:
                now = clock()
                host[stack[-1]] += now - last[0]
                last[0] = now
                stack.append(lid)
                depth[lid] += 1

            def leave() -> None:
                now = clock()
                host[stack.pop()] += now - last[0]
                last[0] = now
                depth[lid] -= 1

            def wrapper(*args, **kwargs):
                if not t.active:
                    return fn(*args, **kwargs)
                calls[fid] += 1
                start = clock() if inclusive else 0
                enter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave()
                if inclusive:
                    t.inclusive_ns[qual] += clock() - start
                if after is not None:
                    after(args, result)
                if shape == "generator":
                    return _traced_generator(t, result, enter, leave)
                if shape == "context":
                    return _TracedContext(result, enter, leave)
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _wrap_charge(self, fn, lid: int, fid: int):
        t = self
        host, depth, stack, calls = self.host_ns, self.depth, self.stack, self.calls
        charges, replay, last = self.charges, self.replay, self.last
        clock = time.perf_counter_ns

        def charge(clock_self, category, micros):
            if not t.active:
                return fn(clock_self, category, micros)
            calls[fid] += 1
            key = (stack[-1], category, micros)
            charges[key] = charges.get(key, 0) + 1
            replay[category] = replay.get(category, 0) + micros
            now = clock()
            host[stack[-1]] += now - last[0]
            last[0] = now
            stack.append(lid)
            depth[lid] += 1
            try:
                return fn(clock_self, category, micros)
            finally:
                now = clock()
                host[stack.pop()] += now - last[0]
                last[0] = now
                depth[lid] -= 1

        charge.__wrapped__ = fn
        return charge

    def _after_hook(self, qual: str):
        """Counters taken at a layer boundary from a call's arguments or
        result (run after the call, outside its self time)."""
        counts, depth, lid = self.counts, self.depth, self.layer_id
        under = self.hash_under
        watch = [(name, lid[name]) for name in HASH_WATCH]
        wal, compaction = lid["lsm.wal"], lid["lsm.compaction"]

        if qual in HASH_FUNCTIONS:
            def after(args, result):
                counts["hash_calls"] += 1
                for name, i in watch:
                    if depth[i]:
                        under[name] += 1
            return after
        if qual in ("repro.sim.disk.SimDisk.append", "repro.sim.disk.SimDisk.write_at"):
            index = 2 if qual.endswith("append") else 3

            def after(args, result):
                nbytes = len(args[index])
                counts["disk_append_bytes"] += nbytes
                if depth[wal]:
                    counts["wal_append_bytes"] += nbytes
                if depth[compaction]:
                    counts["compaction_append_bytes"] += nbytes
            return after
        if qual == "repro.sim.disk.SimDisk.fsync":
            def after(args, result):
                if depth[wal]:
                    counts["wal_fsyncs"] += 1
            return after
        if qual == "repro.sgx.env.ExecutionEnv.copy_in":
            def after(args, result):
                counts["copy_in_bytes"] += args[1]
            return after
        if qual == "repro.sgx.memory.EpcPager.touch":
            def after(args, result):
                counts["epc_faults"] += result
            return after
        if qual == "repro.lsm.memtable.SkipListMemTable.get":
            def after(args, result):
                counts["memtable_gets"] += 1
                if result is not None:
                    counts["memtable_hits"] += 1
            return after
        return None

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def calls_of(self, qual: str) -> int:
        return sum(c for n, c in zip(self.names, self.calls) if n == qual)

    def layer_calls(self, layer: str) -> int:
        lid = self.layer_id[layer]
        return sum(c for l, c in zip(self.fn_layer, self.calls) if l == lid)

    def sim_self_us(self) -> dict[str, Fraction]:
        """Exact simulated microseconds credited to each layer."""
        exact = {name: Fraction(0) for name in self.layers}
        for (lid, _category, micros), count in self.charges.items():
            exact[self.layers[lid]] += Fraction(micros) * count
        return exact

    def check(self, breakdown_after: dict[str, float]) -> list[str]:
        """Exactness problems of the traced run (empty when exact).

        Host: the layers' self times, ``unwrapped`` included, must add up
        to the operations' total.  Simulated: replaying every recorded
        charge on top of the clock's breakdown at the start must give its
        breakdown at the end bit for bit, so the recorded charges are
        exactly the clock's; each is recorded under one layer, so the
        layers' exact self times partition them.
        """
        problems = []
        if sum(self.host_ns) != self.total_ns:
            problems.append(
                f"host: layer self times sum to {sum(self.host_ns)} ns, "
                f"operations took {self.total_ns} ns"
            )
        if self.unbalanced:
            problems.append(f"{self.unbalanced} operations left the layer stack unbalanced")
        for category, value in breakdown_after.items():
            if self.replay.get(category, 0.0) != value:
                problems.append(
                    f"sim: traced charges replay to {self.replay[category]!r} us of "
                    f"{category}, SimClock.breakdown() has {value!r}"
                )
        missing = set(self.replay) - set(breakdown_after)
        if missing:
            problems.append(f"sim: traced categories unknown to the clock: {sorted(missing)}")
        return problems


def _traced_generator(tracer: LayerTracer, gen, enter, leave):
    """Credit the work done inside each ``next()`` of a layer's generator
    to that layer (while an operation is being traced)."""
    try:
        while True:
            if not tracer.active:
                item = next(gen, _DONE)
            else:
                enter()
                try:
                    item = next(gen, _DONE)
                finally:
                    leave()
            if item is _DONE:
                return
            yield item
    finally:
        if tracer.active:
            enter()
            try:
                gen.close()
            finally:
                leave()
        else:
            gen.close()


_DONE = object()


class _TracedContext(contextlib.AbstractContextManager):
    """Credit a layer's context manager's enter and exit to the layer."""

    __slots__ = ("_cm", "_enter", "_leave")

    def __init__(self, cm, enter, leave) -> None:
        self._cm, self._enter, self._leave = cm, enter, leave

    def __enter__(self):
        self._enter()
        try:
            return self._cm.__enter__()
        finally:
            self._leave()

    def __exit__(self, *exc):
        self._enter()
        try:
            return self._cm.__exit__(*exc)
        finally:
            self._leave()

