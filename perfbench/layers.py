"""Timers around the public entry points of each ``repro`` layer.

:func:`install` replaces module and class attributes with
:class:`spans.Tracer` wrappers, from outside the program: nothing
under ``src/`` changes, and a run without ``install`` executes the
program untouched.  Functions imported by name into a consumer module
are wrapped in that module's namespace (the simulator's
``average_conferencing_delay``), so only the calls the benchmark means
to time are counted.
"""

from __future__ import annotations


def _patch(owner, attr: str, wrapper_factory) -> None:
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(wrapper_factory(raw.__func__)))
    else:
        setattr(owner, attr, wrapper_factory(raw))


def install(tracer, worker: bool = False) -> None:
    """Wrap every layer entry point with ``tracer``.

    ``worker`` adds the unit-level spans of a fleet worker
    (``unit.compile`` and ``unit.simulate``).
    """
    import repro.core.bootstrap as bootstrap_mod
    import repro.fleet.compile as compile_mod
    import repro.fleet.orchestrator as orchestrator_mod
    import repro.runtime.live as live_mod
    import repro.runtime.simulation as simulation_mod
    from repro.core.search import SearchContext
    from repro.fleet.backends.pool import PoolBackend
    from repro.fleet.scheduler import FleetScheduler
    from repro.runtime.events import EventHandle, EventQueue
    from repro.runtime.live import LiveConference
    from repro.runtime.migration import MigrationModel
    from repro.runtime.traces import SessionProcess
    from repro.service.service import PlacementService

    wrap = tracer.wrap
    count = tracer.count

    def span(name, after=None):
        return lambda fn: wrap(name, fn, after)

    # fleet.compile: spec -> engine objects.
    compile_name = "unit.compile" if worker else "compile"
    _patch(compile_mod, "compile_spec", span(compile_name))
    _patch(compile_mod, "schedule_from_trace", span("traces:lower"))
    _patch(SessionProcess, "trace", span("traces:generate"))
    if worker:
        _patch(compile_mod, "run_record", span("unit.simulate"))

    # runtime.simulation: the event loop's own bookkeeping.
    _patch(simulation_mod.ConferencingSimulator, "run", span("sim"))
    _patch(
        simulation_mod,
        "average_conferencing_delay",
        span("sample.delay"),
    )
    _patch(MigrationModel, "price", span("migration.price"))

    # runtime.events: heap pushes, lazy cancellation, pops.
    def pushed(_result, _args):
        count("events.pushes")

    _patch(EventQueue, "schedule", span("events:schedule", pushed))
    _patch(EventQueue, "reschedule", span("events:reschedule"))
    _patch(EventQueue, "pop", span("events:pop"))
    cancel = EventHandle.cancel

    def counted_cancel(self):
        if not self.cancelled:
            count("events.cancels")
        cancel(self)

    EventHandle.cancel = counted_cancel

    # runtime.live: the placement engine behind both frontends.
    def hopped(result, _args):
        count("live.hop.moved", bool(result.moved))

    _patch(LiveConference, "bootstrap", span("live.bootstrap"))
    _patch(LiveConference, "hop", span("live.hop", hopped))
    _patch(LiveConference, "arrive", span("live.arrive"))
    _patch(LiveConference, "depart", span("live.depart"))
    _patch(LiveConference, "resize", span("live.resize"))
    _patch(LiveConference, "refine", span("live.refine"))
    _patch(LiveConference, "resolve_from_scratch", span("live.fallback"))

    # core.search / core.arrays: candidate evaluation kernel.
    def batched(result, _args):
        count("kernel.batches")
        count("kernel.candidates", int(result.evaluation.size))

    _patch(SearchContext, "candidate_batch", span("kernel:batch", batched))
    _patch(SearchContext, "best_candidate", span("kernel:best"))
    _patch(SearchContext, "greedy_refine", span("kernel:refine"))

    # core.agrank: arrival and bootstrap placement.
    _patch(live_mod, "agrank_assignment", span("agrank"))
    _patch(bootstrap_mod, "agrank_assignment", span("agrank"))

    # service: request validation, dispatch and the decision log.
    _patch(PlacementService, "request", span("service"))

    # fleet: matrix expansion, scheduling/dispatch, pool teardown, report.
    _patch(orchestrator_mod, "expand_matrix", span("fleet.expand"))
    _patch(orchestrator_mod, "aggregate_records", span("fleet.summary"))
    _patch(FleetScheduler, "run", span("fleet.scheduler"))
    _patch(PoolBackend, "close", span("pool.close"))
    stream = PoolBackend.execute_stream

    def counted_stream(self, source, timeout_s=None):
        for record in stream(self, source, timeout_s):
            tracer.mark_once("pool.first_record_s")
            if record.get("status") == "crashed":
                count("pool.retries")
            yield record

    PoolBackend.execute_stream = counted_stream
