"""Which program functions own each layer, and the per-layer metrics.

:func:`install` wraps the public functions (and the optimizer steps,
where ``repro.checks.optimizer`` looks them up) so every call records a
span named after its layer.  :func:`layer_metrics` turns the spans of
a traced run into the ``<module>.<what>`` figures listed in the README.
Nothing in the program changes; the wrappers live only in the
benchmark process and :class:`~spans.Patcher` removes them again.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional

from spans import Patcher, Span, Tracer, op_trees, self_times

#: Root span of one timed op; its ``attrs["key"]`` names the op.
OP = "op"
#: Root span of the benchmark's set-up work.
SETUP = "setup"

#: Span names whose summed self time per op is reported as ``<name>_ms``.
TIMED_LAYERS = (
    "frontend.parse", "ir.lower", "ssa.construct",
    "pipeline.frontend_lookup",
    "checks.optimize", "analysis.refresh", "checks.inx", "checks.cig",
    "checks.preheader", "checks.spec", "checks.lcm", "checks.lospre",
    "checks.eliminate", "ir.verify",
    "checks.inline", "symbolic.prover",
    "ssa.destruct", "backend.threaded_translate",
    "backend.specialized_translate", "backend.py_compile",
    "pipeline.backend_lookup",
    "interp.run", "backend.threaded_run", "backend.specialized_run",
    "service.worker", "service.serialize", "service.transport",
)

#: Counters that must repeat exactly for the same op key.
DETERMINISTIC = ("ir.instrs_ssa", "checks.static_before",
                 "checks.static_after", "checks.inserted",
                 "symbolic.prover_queries", "backend.py_compile_calls",
                 "backend.source_bytes", "interp.instructions",
                 "interp.dyn_checks")


def _count_instructions(function: Any) -> int:
    return sum(1 for _ in function.instructions())


def install(tracer: Tracer) -> Patcher:
    """Wrap every layer boundary; returns the patcher that undoes it."""
    import builtins

    import repro.backend.pybackend as pybackend
    import repro.backend.specialized as specialized
    import repro.checks.eliminate
    import repro.checks.inline
    import repro.checks.inx
    import repro.checks.lospre
    import repro.checks.optimizer as optimizer
    import repro.checks.spec
    import repro.frontend.parser
    import repro.interp.machine as machine
    import repro.ir.lowering
    import repro.ir.verify
    import repro.pipeline.cache as cache
    import repro.pipeline.profile
    import repro.reporting.jsonout
    import repro.service.client as client
    import repro.service.jobs as jobs
    import repro.service.server as server
    import repro.service.workers as workers
    import repro.ssa.construct
    import repro.ssa.destruct
    import repro.symbolic.prover

    patcher = Patcher("repro")

    def spanned(name: str, after: Optional[Callable] = None):
        """A wrapper factory: span ``name`` around the call, with
        ``after(span, args, result, error)`` filling its attrs."""
        def make(original: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                span = tracer.open(name)
                result = error = None
                try:
                    result = original(*args, **kwargs)
                    return result
                except BaseException as exc:
                    error = exc
                    raise
                finally:
                    tracer.close(span)
                    if after is not None:
                        after(span, args, result, error)
            return wrapper
        return make

    def wrap(owner: Any, attr: str, name: str, **hooks) -> None:
        patcher.replace(owner, attr, spanned(name, **hooks))

    # -- frontend ----------------------------------------------------
    wrap(repro.frontend.parser, "parse_source", "frontend.parse")
    wrap(repro.ir.lowering, "lower_source_file", "ir.lower")
    wrap(repro.checks.inline, "inline_module", "checks.inline")

    def ssa_size(span, args, result, error):
        span.attrs["instrs"] = _count_instructions(args[0])
    wrap(repro.ssa.construct, "construct_ssa", "ssa.construct",
         after=ssa_size)

    # -- check optimizer ---------------------------------------------
    def optimize_stats(span, args, result, error):
        if result:
            stats = result.values()
            span.attrs["static_before"] = sum(s.checks_before
                                              for s in stats)
            span.attrs["static_after"] = sum(s.checks_after for s in stats)
            span.attrs["inserted"] = sum(s.inserted for s in stats)
    wrap(optimizer, "optimize_module", "checks.optimize",
         after=optimize_stats)
    steps = optimizer.RangeCheckOptimizer
    wrap(steps, "_refresh_analyses", "analysis.refresh")
    wrap(steps, "_make_analysis", "checks.cig")
    wrap(steps, "_run_preheader", "checks.preheader")
    wrap(steps, "_run_spec", "checks.spec")
    wrap(steps, "_run_lcm", "checks.lcm")
    wrap(steps, "_run_lospre", "checks.lospre")
    wrap(repro.checks.inx, "rewrite_checks_to_inx", "checks.inx")
    wrap(repro.checks.eliminate, "eliminate_redundant", "checks.eliminate")
    wrap(repro.ir.verify, "verify_function", "ir.verify")

    def proved(span, args, result, error):
        span.attrs["proved"] = 1 if result else 0
    wrap(repro.symbolic.prover, "entails", "symbolic.prover", after=proved)
    wrap(repro.pipeline.profile, "train_profile", "pipeline.profile_train")

    # -- back-ends ---------------------------------------------------
    wrap(repro.ssa.destruct, "destruct_ssa", "ssa.destruct")
    wrap(pybackend, "compile_to_python", "backend.threaded_translate")
    wrap(specialized, "compile_to_specialized",
         "backend.specialized_translate")

    def source_bytes(span, args, result, error):
        text = args[0]
        span.attrs["bytes"] = len(text) if isinstance(text, (str, bytes)) \
            else 0
    py_compile = spanned("backend.py_compile", after=source_bytes)(
        builtins.compile)
    patcher.shadow(pybackend, "compile", py_compile)
    patcher.shadow(specialized, "compile", py_compile)

    def machine_counts(span, args, result, error):
        counters = args[0].counters
        span.attrs["instructions"] = counters.instructions
        span.attrs["checks"] = counters.checks
    wrap(machine.Machine, "run", "interp.run", after=machine_counts)

    def engine_run(original: Callable) -> Callable:
        def wrapper(self, *args, **kwargs):
            name = ("backend.specialized_run"
                    if isinstance(self, specialized.CompiledSpecializedModule)
                    else "backend.threaded_run")
            span = tracer.open(name)
            runtime = None
            try:
                runtime = original(self, *args, **kwargs)
                return runtime
            except BaseException as exc:
                runtime = getattr(exc, "runtime", None)
                raise
            finally:
                tracer.close(span)
                if runtime is not None:
                    span.attrs["spec_guards"] = runtime.counters.spec_guards
                    span.attrs["spec_misses"] = runtime.counters.spec_misses
        return wrapper
    patcher.replace(pybackend.CompiledPythonModule, "run", engine_run)

    # -- caches ------------------------------------------------------
    wrap(cache.FrontendCache, "frontend", "pipeline.frontend_lookup")
    wrap(cache.BackendCache, "compiled", "pipeline.backend_lookup")

    # -- service -----------------------------------------------------
    def submit(original: Callable) -> Callable:
        def wrapper(self, payload, key=None):
            # a coalesced submit is never adopted: keep its payload so
            # that no later payload can reuse the id
            tracer.hand_off(id(payload), keep=payload)
            return original(self, payload, key)
        return wrapper
    patcher.replace(workers.WorkerPool, "submit", submit)

    def adopting(name: str, token: Callable) -> Callable:
        """Span ``name`` under the span that handed off ``token(args)``,
        with the wait since the hand-off in ``attrs["wait"]``."""
        def make(original: Callable) -> Callable:
            def wrapper(*args):
                handed = tracer.adopt(token(args))
                span = tracer.open(name, handed[0] if handed else None)
                if handed:
                    span.attrs["wait"] = span.start - handed[1]
                try:
                    return original(*args)
                finally:
                    tracer.close(span)
            return wrapper
        return make
    patcher.replace(jobs, "execute_request",
                    adopting("service.worker", lambda args: id(args[0])))
    patcher.replace(server.CompileService, "handle_compile",
                    adopting("service.handle", lambda args: bytes(args[1])))
    wrap(repro.reporting.jsonout, "run_to_dict", "service.serialize")

    def transport(original: Callable) -> Callable:
        def wrapper(self, path, payload):
            span = tracer.open("service.transport")
            tracer.hand_off(client_body(payload))
            try:
                return original(self, path, payload)
            finally:
                tracer.close(span)
        return wrapper
    patcher.replace(client.ServiceClient, "post", transport)
    return patcher


def client_body(payload: Dict[str, Any]) -> bytes:
    """The bytes :class:`repro.service.client.ServiceClient` puts on
    the wire for ``payload`` (the token linking a request's client and
    server spans)."""
    import json

    return json.dumps(payload).encode("utf-8")


# -- metrics -----------------------------------------------------------


def _descendants(spans: List[Span]) -> Dict[int, List[Span]]:
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    return children


def _has_below(span: Span, names: Iterable[str],
               children: Dict[int, List[Span]]) -> bool:
    names = set(names)
    todo = list(children.get(span.sid, ()))
    while todo:
        child = todo.pop()
        if child.name in names:
            return True
        todo.extend(children.get(child.sid, ()))
    return False


def counts(spans: Iterable[Span]) -> Dict[str, float]:
    """The deterministic counters over a set of spans."""
    result = dict.fromkeys(DETERMINISTIC, 0)
    for span in spans:
        attrs = span.attrs
        if span.name == "ssa.construct":
            result["ir.instrs_ssa"] += attrs.get("instrs", 0)
        elif span.name == "checks.optimize":
            result["checks.static_before"] += attrs.get("static_before", 0)
            result["checks.static_after"] += attrs.get("static_after", 0)
            result["checks.inserted"] += attrs.get("inserted", 0)
        elif span.name == "symbolic.prover":
            result["symbolic.prover_queries"] += 1
        elif span.name == "backend.py_compile":
            result["backend.py_compile_calls"] += 1
            result["backend.source_bytes"] += attrs.get("bytes", 0)
        elif span.name == "interp.run":
            result["interp.instructions"] += attrs.get("instructions", 0)
            result["interp.dyn_checks"] += attrs.get("checks", 0)
    return result


def drifted_keys(spans: List[Span]) -> List[object]:
    """Op keys whose deterministic counters differ between runs."""
    by_id = {span.sid: span for span in spans}
    first: Dict[object, Dict[str, float]] = {}
    drifted: List[object] = []
    for root, members in op_trees(spans, OP).items():
        key = by_id[root].attrs.get("key")
        seen = first.setdefault(key, counts(members))
        if seen != counts(members) and key not in drifted:
            drifted.append(key)
    return drifted


def layer_metrics(spans: List[Span], canonical: bool
                  ) -> Dict[str, float]:
    """Per-layer figures from the spans of the traced segments.

    ``*_ms`` values are the layer's self time per op.  Counters are
    set-up counts plus one count per distinct op key when
    ``canonical`` (every key ran at least once, so the total repeats
    exactly), else a mean per op.
    """
    selfs = self_times(spans)
    trees = op_trees(spans, OP)
    by_id = {span.sid: span for span in spans}
    ops = max(1, len(trees))
    children = _descendants(spans)
    in_ops = [span for members in trees.values() for span in members]

    metrics: Dict[str, float] = {}
    for layer in TIMED_LAYERS:
        total = sum(selfs[span.sid] for span in in_ops
                    if span.name == layer)
        metrics[layer + "_ms"] = 1e3 * total / ops

    setup = [span for root, members in op_trees(spans, SETUP).items()
             for span in members]
    metrics["pipeline.profile_train_ms"] = 1e3 * sum(
        span.seconds for span in setup
        if span.name == "pipeline.profile_train")

    setup_counts = counts(setup)
    if canonical:
        first: Dict[object, Dict[str, float]] = {}
        for root, members in trees.items():
            first.setdefault(by_id[root].attrs.get("key"), counts(members))
        for name in DETERMINISTIC:
            metrics[name] = setup_counts[name] + sum(
                values[name] for values in first.values())
    else:
        per_op = counts(in_ops)
        for name in DETERMINISTIC:
            metrics[name] = per_op[name] / ops

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    prover = [span for span in in_ops if span.name == "symbolic.prover"]
    metrics["symbolic.prover_proved_ratio"] = ratio(
        sum(span.attrs.get("proved", 0) for span in prover), len(prover))
    spec_runs = [span for span in in_ops
                 if span.name == "backend.specialized_run"]
    metrics["backend.spec_miss_ratio"] = ratio(
        sum(span.attrs.get("spec_misses", 0) for span in spec_runs),
        sum(span.attrs.get("spec_guards", 0) for span in spec_runs))
    frontends = [span for span in in_ops
                 if span.name == "pipeline.frontend_lookup"]
    metrics["pipeline.frontend_hit_ratio"] = ratio(
        sum(1 for span in frontends
            if not _has_below(span, ("frontend.parse",), children)),
        len(frontends))
    backends = [span for span in in_ops
                if span.name == "pipeline.backend_lookup"]
    metrics["pipeline.backend_hit_ratio"] = ratio(
        sum(1 for span in backends
            if not _has_below(span, ("backend.threaded_translate",
                                     "backend.specialized_translate"),
                              children)),
        len(backends))

    metrics["service.rtt_ms"] = 1e3 * sum(
        span.seconds for span in in_ops
        if span.name == "service.transport") / ops
    metrics["service.queue_wait_ms"] = 1e3 * sum(
        span.attrs.get("wait", 0.0) for span in in_ops
        if span.name == "service.worker") / ops
    return metrics
