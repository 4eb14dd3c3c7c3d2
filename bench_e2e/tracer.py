"""Per-layer tracing by wrapping chromarank's layer boundaries from outside.

Nothing under src/ is edited: `Tracer.install` replaces each boundary
function named in HOOKS with a wrapper and `Tracer.uninstall` puts the
original back.  Every wrapped call opens a span (metric name, start, end,
parent span); when the span closes it is folded into running totals:

- `<metric>.calls`: calls at the boundary.  At `_cache`-backed methods only
  cache misses open a span, so their counts are misses.
- `<metric>.s`: inclusive time, counted once for nested or recursive calls
  of the same metric (only the outermost span adds its duration).
- `<layer>.self_s`: span duration minus the time covered by its direct
  child spans, summed per module.

Spans are folded as they close rather than kept: a tuple-rank pass opens
over ten million kernel spans, which would not fit in memory and would
swamp peak_rss_mb.

A hook whose target no longer exists (a later change removed or renamed
it) is listed in `Tracer.missing`; its metrics read 0 and the run goes on.
"""

from __future__ import annotations

import importlib
import os
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


def _cached(obj, key) -> bool:
    # dict.get, not cache.get: this probe is not a lookup of the program's.
    cache = getattr(obj, "_cache", None)
    return isinstance(cache, dict) and dict.get(cache, key) is not None


def _cache_miss(key):
    """Miss test for a PermGroup method whose result lives at _cache[key]."""

    def miss(args, kwargs):
        return not _cached(args[0], key)

    return miss


def _tuple_classes_miss(args, kwargs):
    group, p, h = (list(args) + [None, None, None])[:3]
    return not _cached(group, ("tuple_classes", p, h))


@dataclass(frozen=True)
class Hook:
    """One wrapped boundary.

    target is "module:attr" or "module:Class.attr".  miss, when given,
    decides from the call's arguments whether the call is a cache miss;
    hits run unwrapped.  extra(tracer, args, result, top) adds counters
    after a successful call; top is true when no span encloses the call.
    The call count is reported as calls_as, by default "<metric>.calls",
    and the inclusive time as "<metric>.s".
    """

    metric: str
    target: str
    miss: Callable | None = None
    extra: Callable | None = None
    calls_as: str | None = None

    @property
    def layer(self) -> str:
        return self.metric.split(".", 1)[0]


def _count_scanned(tr, args, result, top):
    tr.add("kernels.centralizer_filter.scanned", len(args[0]))


def _count_orbit_tuples(tr, args, result, top):
    tr.add("kernels.tuple_orbit.tuples", len(result))


def _count_raw_tuples(tr, args, result, top):
    tr.add("chromatic.raw_tuples", sum(c.orbit_size for c in result.components))


def _count_rank(tr, args, result, top):
    if top:
        tr.add("chromatic.classes", result)


def _count_identity(tr, args, result, top):
    if top:
        tr.add("chromatic.classes", result.lhs)


def _count_added(tr, args, result, top):
    if result is not None:
        tr.add("registry.entries_added", 1)


def _count_file_bytes(tr, args, result, top):
    tr.add("registry.file_bytes", os.path.getsize(args[1]))


_CONSTRUCTORS = (
    "atomic_group",
    "cyclic",
    "symmetric",
    "dihedral",
    "quaternion8",
    "abelian",
    "direct_product",
    "wreath_cyclic",
    "general_linear",
    "unitriangular4",
)

HOOKS = (
    *(
        Hook(f"kernels.{name}", f"chromarank.kernels:{name}")
        for name in ("commutes", "conjugate", "compose", "inverse", "element_order", "close_group")
    ),
    Hook("kernels.centralizer_filter", "chromarank.kernels:centralizer_filter", extra=_count_scanned),
    Hook("kernels.normalizer_filter", "chromarank.kernels:normalizer_filter"),
    Hook("kernels.conjugacy_orbit", "chromarank.kernels:conjugacy_orbit"),
    Hook("kernels.tuple_orbit", "chromarank.kernels:tuple_orbit", extra=_count_orbit_tuples),
    Hook("group.chain", "chromarank.group:_Chain.__init__", calls_as="group.chain.builds"),
    Hook("group.chain.sift", "chromarank.group:_Chain.sift", calls_as="group.chain.sifts"),
    Hook("group.subgroup_from_elements", "chromarank.group:_subgroup_from_elements"),
    Hook("group.enumerate", "chromarank.group:PermGroup._raw_elements", miss=_cache_miss("elements_raw")),
    Hook("group.classes", "chromarank.group:PermGroup.conjugacy_classes", miss=_cache_miss("classes")),
    Hook("group.centralizer", "chromarank.group:PermGroup._centralizer_raw"),
    Hook("group.center", "chromarank.group:PermGroup.center"),
    Hook("group.sylow", "chromarank.group:PermGroup.sylow_subgroup"),
    Hook("group.derived", "chromarank.group:PermGroup.derived_subgroup", miss=_cache_miss("derived")),
    Hook("group.fingerprint", "chromarank.group:PermGroup.fingerprint", miss=_cache_miss("fingerprint")),
    Hook(
        "chromatic.tuple_classes",
        "chromarank.chromatic:commuting_tuple_classes",
        miss=_tuple_classes_miss,
        extra=_count_raw_tuples,
    ),
    Hook("chromatic.rank", "chromarank.chromatic:hkr_rank", extra=_count_rank),
    Hook("chromatic.identity", "chromarank.chromatic:verify_rank_identity", extra=_count_identity),
    Hook("dsl.parse", "chromarank.dsl:parse"),
    Hook("dsl.evaluate", "chromarank.dsl:evaluate"),
    Hook("dsl.select_centralizer", "chromarank.dsl:_select_centralizer"),
    *(Hook("constructors", f"chromarank.constructors:{name}") for name in _CONSTRUCTORS),
    Hook("registry.search", "chromarank.registry:_search", calls_as="registry.search.nodes"),
    Hook("registry.certify", "chromarank.registry:certify"),
    Hook("registry.replay", "chromarank.registry:replay"),
    Hook("registry.register", "chromarank.registry:register_derivation"),
    Hook("registry.explore", "chromarank.registry:explore"),
    Hook("registry.centralizer_children", "chromarank.registry:_centralizer_children"),
    Hook(
        "registry.candidates",
        "chromarank.registry:_register_candidate",
        extra=_count_added,
        calls_as="registry.candidates",
    ),
    Hook("registry.save", "chromarank.registry:Registry.save", extra=_count_file_bytes),
    Hook("registry.load", "chromarank.registry:Registry.load"),
)

# The PermGroup._cache lookups are counted by swapping each new group's
# cache for a counting dict; this pseudo-hook names that boundary.
CACHE_TARGET = "chromarank.group:PermGroup.__init__"

LAYERS = ("kernels", "group", "chromatic", "dsl", "constructors", "registry")

# Per-layer metrics reported for every workload, as (name, unit, better).
PER_LAYER = (
    *(
        (f"kernels.{k}.calls", "count", "lower")
        for k in ("commutes", "conjugate", "compose", "inverse", "element_order")
    ),
    ("kernels.close_group.calls", "count", "lower"),
    ("kernels.close_group.s", "s", "lower"),
    ("kernels.centralizer_filter.calls", "count", "lower"),
    ("kernels.centralizer_filter.s", "s", "lower"),
    ("kernels.centralizer_filter.scanned", "count", "lower"),
    ("kernels.normalizer_filter.calls", "count", "lower"),
    ("kernels.normalizer_filter.s", "s", "lower"),
    ("kernels.conjugacy_orbit.calls", "count", "lower"),
    ("kernels.conjugacy_orbit.s", "s", "lower"),
    ("kernels.tuple_orbit.calls", "count", "lower"),
    ("kernels.tuple_orbit.s", "s", "lower"),
    ("kernels.tuple_orbit.tuples", "count", "lower"),
    ("group.chain.builds", "count", "lower"),
    ("group.chain.s", "s", "lower"),
    ("group.chain.sifts", "count", "lower"),
    *(
        (f"group.{k}.{m}", unit, "lower")
        for k in (
            "subgroup_from_elements",
            "enumerate",
            "classes",
            "centralizer",
            "center",
            "sylow",
            "derived",
            "fingerprint",
        )
        for m, unit in (("calls", "count"), ("s", "s"))
    ),
    ("group.cache.lookups", "count", "lower"),
    ("group.cache.hit_ratio", "ratio", "higher"),
    ("chromatic.tuple_classes.calls", "count", "lower"),
    ("chromatic.tuple_classes.s", "s", "lower"),
    ("chromatic.raw_tuples", "count", "lower"),
    ("chromatic.classes", "count", "higher"),
    ("chromatic.identity.calls", "count", "lower"),
    ("chromatic.identity.s", "s", "lower"),
    ("dsl.parse.calls", "count", "lower"),
    ("dsl.evaluate.calls", "count", "lower"),
    ("dsl.evaluate.s", "s", "lower"),
    ("dsl.select_centralizer.calls", "count", "lower"),
    ("constructors.calls", "count", "lower"),
    ("constructors.s", "s", "lower"),
    ("registry.search.nodes", "count", "lower"),
    ("registry.certify.s", "s", "lower"),
    ("registry.replay.s", "s", "lower"),
    ("registry.register.s", "s", "lower"),
    ("registry.explore.s", "s", "lower"),
    ("registry.centralizer_children.calls", "count", "lower"),
    ("registry.centralizer_children.s", "s", "lower"),
    ("registry.candidates", "count", "lower"),
    ("registry.entries_added", "count", "higher"),
    ("registry.added_per_candidate", "ratio", "higher"),
    ("registry.fingerprints_per_entry", "ratio", "lower"),
    ("registry.save.s", "s", "lower"),
    ("registry.load.s", "s", "lower"),
    ("registry.file_bytes", "bytes", "lower"),
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("trace.pass_s", "s", "lower"),
    ("trace.untraced_pass_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.missing_hooks", "count", "lower"),
)

def _resolve(target: str):
    """(owner, attribute name, current value) for "module:dotted.path"."""
    module_name, path = target.split(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


class _CountingDict(dict):
    """PermGroup._cache stand-in that counts get() lookups and hits."""

    __slots__ = ("tracer",)

    def get(self, key, default=None):
        value = dict.get(self, key, default)
        tr = self.tracer
        if tr.active_cache:
            tr.cache_lookups += 1
            if value is not None:
                tr.cache_hits += 1
        return value


class Tracer:
    """Wraps the HOOKS while installed and accumulates span totals."""

    def __init__(self, hooks=HOOKS, cache_target: str = CACHE_TARGET):
        self.hooks = tuple(hooks)
        self.cache_target = cache_target
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        self.active_cache = False
        self.calls: dict[str, int] = {}
        self.inclusive: dict[str, float] = {}
        self.self_time: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.counters: dict[str, float] = {}
        self.cache_lookups = 0
        self.cache_hits = 0
        self._stack: list[list[float]] = []
        self._depth: dict[str, int] = {}

    def add(self, name: str, value) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        self.missing = []
        for hook in self.hooks:
            try:
                owner, attr, original = _resolve(hook.target)
            except (ImportError, AttributeError):
                self.missing.append(hook.target)
                continue
            self._patch(owner, attr, self._wrap(original, hook))
        try:
            owner, attr, original = _resolve(self.cache_target)
        except (ImportError, AttributeError):
            self.missing.append(self.cache_target)
        else:
            self._patch(owner, attr, self._wrap_init(original))
        self.active_cache = True

    def uninstall(self) -> None:
        self.active_cache = False
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, attr, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, fn, hook: Hook):
        metric, layer, miss, extra = hook.metric, hook.layer, hook.miss, hook.extra
        calls, inclusive, self_time, depth = self.calls, self.inclusive, self.self_time, self._depth
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            if miss is not None and not miss(args, kwargs):
                return fn(*args, **kwargs)
            top = not stack
            level = depth.get(metric, 0)
            depth[metric] = level + 1
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                depth[metric] = level
                calls[metric] = calls.get(metric, 0) + 1
                if level == 0:
                    inclusive[metric] = inclusive.get(metric, 0.0) + duration
                self_time[layer] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
            if extra is not None:
                extra(tracer, args, result, top)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_init(self, init):
        tracer = self

        def traced_init(group, *args, **kwargs):
            init(group, *args, **kwargs)
            cache = getattr(group, "_cache", None)
            if isinstance(cache, dict):
                group._cache = _CountingDict(cache)
                group._cache.tracer = tracer

        traced_init.__wrapped__ = init
        return traced_init

    # -- report --------------------------------------------------------------

    def metrics(self, passes: int) -> dict[str, float]:
        """Every PER_LAYER metric except trace.*, as a per-pass figure."""
        calls_as = {h.metric: h.calls_as or f"{h.metric}.calls" for h in self.hooks}
        out: dict[str, float] = {}
        for name, count in self.calls.items():
            out[calls_as[name]] = count
        for name, seconds in self.inclusive.items():
            out[f"{name}.s"] = seconds
        out.update(self.counters)
        for layer, seconds in self.self_time.items():
            out[f"{layer}.self_s"] = seconds
        out["group.cache.lookups"] = self.cache_lookups
        per_pass = {k: v / passes for k, v in out.items()}
        # Ratios are taken over the totals, not divided by the pass count.
        per_pass["group.cache.hit_ratio"] = _ratio(self.cache_hits, self.cache_lookups)
        added = self.counters.get("registry.entries_added", 0)
        per_pass["registry.added_per_candidate"] = _ratio(
            added, self.calls.get("registry.candidates", 0)
        )
        per_pass["registry.fingerprints_per_entry"] = _ratio(
            self.calls.get("group.fingerprint", 0), added
        )
        return {
            name: per_pass.get(name, 0)
            for name, _unit, _better in PER_LAYER
            if not name.startswith("trace.")
        }


def _ratio(num, den) -> float:
    return num / den if den else 0.0
