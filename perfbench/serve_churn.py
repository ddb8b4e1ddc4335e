"""``serve_churn``: an in-process placement service under open-loop churn.

A ``PlacementService`` built by ``service_from_spec`` on the
``huge_conference`` spec as shipped (decision log on) is fed a request
schedule generated from the workload seed: a Poisson ``SessionProcess``
over the 143-session pool holding ~60 sessions live, plus a resize of a
random live session and a snapshot read each after ~1 in 8 churn events
(~10% of requests each).  Payload ``time_s`` stays the trace's own, so
decisions do not depend on the offered rate.

One thread sends every request at its due wall time, open loop at a
constant rate: request ``i`` is due ``i / rate`` after the pass starts.
Constant spacing keeps the figures about the service rather than about
the bursts of one seed's send times (Poisson sends left the nominal p99
spread over 40% between seeds on a 2-CPU VM).  A request's latency runs
from its due time to its response, so a stall delays every later
request; how late the generator sent each request is recorded too.

A timed run replays the whole schedule at the nominal rate
:data:`NOMINAL_PASSES` times, each pass from a fresh service, and every
pass's decision log must be identical.  Figures are taken request by
request as the median over the passes; the capacity is the number of
requests over the seconds their service times add up to (requests per
busy second).

The traced run adds the ladder: rates ``NOMINAL_RPS * STEP**k`` from a
fixed geometric ladder, searched by galloping and bisection from the
nominal rung, each rung replaying the schedule against a fresh
service.  A rung is sustainable when every request succeeds, the
arrival p99 is within the service's own 50 ms budget, and the
generator's lateness does not grow over the pass;
``serve.sustained_rps`` is the achieved rate at the highest sustainable
rung, and each rung's decision log must equal the nominal one.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import time
from pathlib import Path

from common import Checks, median, percentile, same_counts, tail

SPEC = "huge_conference"
#: Sessions live at t = 0 (sids 0..INITIAL-1) and mean holding time:
#: the Poisson arrival rate INITIAL / HOLD_S keeps ~INITIAL live.
INITIAL = 60
HOLD_S = 60.0
#: Arrivals and departures one pass holds at least: the p90 of the
#: timed run's ~250 per-arrival latencies keeps 25 beyond it.
CHURN_EVENTS = 250
#: Chance, after each churn event, of a resize and of a snapshot.
SIDE_SHARE = 0.125
#: Schedule stream tag ("serv"), so the request rng never aliases the
#: session process of the same seed.
_TAG = 0x73657276

#: Nominal offered rate (~1/5 of capacity on a 2-CPU VM, so a slow spell
#: of the host inflates latencies without tipping them into queueing)
#: and the ladder above and below it.
NOMINAL_RPS = 150.0
STEP = 1.05
GALLOP = 8
LADDER_MIN_K = -40
LADDER_MAX_K = 120
#: The service's own ``ServiceConfig.budget_ms`` default.
BUDGET_MS = 50.0
#: Lead time between building the schedule clock and the first send.
LEAD_S = 0.02
#: Nominal passes per timed run; each request's figure is its median
#: over these passes, so a stall that hits one pass does not count.
NOMINAL_PASSES = 5
#: Traced nominal passes (two, so their counts can be compared).
TRACED_PASSES = 2


def load(seed: int):
    """The spec as shipped: the seed only drives the request schedule, so
    every seed places sessions of the same conference."""
    from repro.fleet.library import load_library_spec

    del seed
    return load_library_spec(SPEC)


def service(spec, log: Path):
    from repro.service import ServiceConfig, service_from_spec

    config = ServiceConfig(decision_log=str(log))
    return service_from_spec(spec, initial_sids=list(range(INITIAL)), config=config)


def setup(seed: int, work: Path) -> tuple[dict, object]:
    """Fresh-interpreter set-up: import, spec load, warm service (decision
    log on).  Returns the phase times and the service."""
    started = time.perf_counter()
    import repro  # noqa: F401

    imported = time.perf_counter()
    spec = load(seed)
    loaded = time.perf_counter()
    svc = service(spec, work / "decisions.jsonl")
    phases = {
        "import_s": imported - started,
        "load_s": loaded - imported,
        "build_s": time.perf_counter() - loaded,
    }
    return phases, svc


def probe_op(seed: int, svc, work: Path) -> None:
    """One saturated pass on the set-up's service (the probe's peak
    memory): the decisions, and so the state, of any pass."""
    del work
    replay(svc, schedule(seed, pool_size(svc)), math.inf)


def pool_size(svc) -> int:
    """Sessions in the service's conference: the schedule's pool."""
    return svc.live.conference.num_sessions


def schedule(seed: int, pool: int) -> list[dict]:
    """The request payloads, in send order."""
    import numpy as np

    from repro.runtime.traces import SessionProcess

    process = SessionProcess(
        kind="poisson",
        rate_per_s=INITIAL / HOLD_S,
        mean_holding_s=HOLD_S,
        initial=INITIAL,
        max_sessions=pool,
        seed=seed,
    )
    rng = np.random.default_rng([seed, _TAG])
    requests: list[dict] = []
    live: set[int] = set()
    done = {"arrive": 0, "depart": 0}
    for event in process.stream():
        if event.time_s == 0.0 and event.kind == "arrive":
            live.add(event.sid)
            continue
        requests.append({"op": event.kind, "sid": event.sid, "time_s": event.time_s})
        done[event.kind] += 1
        if event.kind == "arrive":
            live.add(event.sid)
        else:
            live.discard(event.sid)
        if rng.random() < SIDE_SHARE:
            sid = int(rng.choice(sorted(live)))
            requests.append({"op": "resize", "sid": sid, "time_s": event.time_s})
        if rng.random() < SIDE_SHARE:
            requests.append({"op": "snapshot", "time_s": event.time_s})
        if min(done.values()) >= CHURN_EVENTS:
            break
    return requests


def _wait_until(target: float) -> None:
    # Spin rather than sleep: a sleeping generator lets the core idle,
    # and each request then pays a wake-up set by the host, not the
    # program (service time rose ~30% with sleeps on a 2-CPU VM).
    while time.perf_counter() < target:
        pass


def replay(svc, requests, rate: float, tracer=None) -> list[tuple]:
    """Send request ``i`` at ``i / rate`` (all at once for an infinite
    rate) from this thread; return ``(op, due, sent, done, ok, overrun)``
    per request."""
    out = []
    start = time.perf_counter() + LEAD_S
    for index, payload in enumerate(requests):
        due = start + index / rate
        if time.perf_counter() < due:
            if tracer is not None:
                frame = tracer.enter("generator.wait")
                _wait_until(due)
                tracer.exit(frame)
            else:
                _wait_until(due)
        sent = time.perf_counter()
        response = svc.request(payload)
        finished = time.perf_counter()
        out.append(
            (
                payload["op"],
                due,
                sent,
                finished,
                response["status"] == "ok",
                bool(response["budget_overrun"]),
            )
        )
    return out


def latencies_ms(sends, op: str) -> list[float]:
    return [(done - due) * 1000.0 for kind, due, _s, done, _ok, _o in sends if kind == op]


def rung_summary(sends, rate: float) -> dict:
    """Arrival p99, lateness growth and achieved rate of one pass."""
    lateness = [(sent - due) * 1000.0 for _k, due, sent, _d, _ok, _o in sends]
    fifth = max(1, len(lateness) // 5)
    growth = median(lateness[-fifth:]) - median(lateness[:fifth])
    arrive_p99 = percentile(latencies_ms(sends, "arrive"), 0.99)
    errors = sum(1 for send in sends if not send[4])
    span = sends[-1][3] - sends[0][1]
    return {
        "rate": rate,
        "requests": len(sends),
        "errors": errors,
        "arrive_p99_ms": arrive_p99,
        "lateness_growth_ms": growth,
        "achieved_rps": len(sends) / span,
        "sustainable": errors == 0
        and arrive_p99 <= BUDGET_MS
        and growth <= BUDGET_MS / 2,
    }


def _log_lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def _digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _pass(svc, requests, rate, checks: Checks, label: str, tracer=None):
    """One replay on a fresh service and its final-snapshot checks; the
    service does not outlive the pass.  Returns the sends."""
    gc.collect()  # earlier garbage is not this pass's cost
    sends = replay(svc, requests, rate, tracer)
    _final_checks(checks, svc, label)
    return sends


def _final_checks(checks: Checks, svc, label: str) -> None:
    """The final snapshot is feasible."""
    from repro.core.feasibility import check_assignment

    live = svc.live
    snap = svc.request({"op": "snapshot"})
    checks.check(f"{label}: final snapshot ok", snap["status"] == "ok")
    report = check_assignment(live.conference, live.assignment, snap["active_sids"])
    checks.check(f"{label}: final snapshot feasible", report.ok, report.summary())


def _pass_counts(log: Path) -> dict:
    """Decisions, refine hops and fallbacks in one pass's decision log."""
    records = [json.loads(line) for line in _log_lines(log)]
    return {
        "decisions": sum(1 for r in records if r["status"] == "ok"),
        "hops": sum(r.get("refined", 0) for r in records),
        "fallbacks": sum(1 for r in records if r.get("fallback")),
    }


def op_tails(sends) -> dict:
    """Per-op latency percentiles of the given sends, with sample counts."""
    out = {}
    for op in ("arrive", "depart", "resize", "snapshot"):
        values = latencies_ms(sends, op)
        out[op] = {"n": len(values), "p50_ms": median(values)}
        out[op].update(
            {f"p{round(q * 100)}_ms": percentile(values, q) for q in (0.90, 0.99)}
        )
    lateness = [(sent - due) * 1000.0 for _k, due, sent, _d, _ok, _o in sends]
    out["generator"] = {
        "queue_wait_p99_ms": percentile(lateness, 0.99),
        "lateness_max_ms": max(lateness),
        "budget_overruns": sum(1 for send in sends if send[5]),
        "busy_s": sum(done - sent for _k, _d, sent, done, _ok, _o in sends),
    }
    return out


def ladder(spec, requests, nominal, work: Path, checks: Checks):
    """The highest sustainable ladder rate: gallop from the nominal rung
    (``nominal``: its sends and decision-log lines), then bisect.
    Returns the achieved rate there (0 if none) and every rung tried."""
    sends, lines = nominal
    tested = {0: rung_summary(sends, NOMINAL_RPS)}
    expected = _digest(lines)

    def passes(k: int) -> bool:
        if k not in tested:
            rate = NOMINAL_RPS * STEP**k
            log = work / f"decisions-k{k}.jsonl"
            rung = _pass(service(spec, log), requests, rate, checks, f"rung k={k}")
            tested[k] = rung_summary(rung, rate)
            checks.check(
                f"rung k={k}: decision log equals nominal",
                _digest(_log_lines(log)) == expected,
            )
            log.unlink()
        return tested[k]["sustainable"]

    if passes(0):
        lo, hi = 0, GALLOP
        while hi <= LADDER_MAX_K and passes(hi):
            lo, hi = hi, hi + GALLOP
    else:
        lo, hi = -GALLOP, 0
        while lo >= LADDER_MIN_K and not passes(lo):
            lo, hi = lo - GALLOP, lo
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if passes(mid):
            lo = mid
        else:
            hi = mid
    found = lo in tested and tested[lo]["sustainable"]
    checks.check("ladder: a rate is sustainable", found)
    rungs = [tested[k] | {"k": k} for k in sorted(tested)]
    return (tested[lo]["achieved_rps"] if found else 0.0), rungs


def _per_request(passes) -> list[float]:
    """Request by request, the median over passes of one figure.  Every
    pass replays the same schedule, so a request's figure differs
    between passes only by what the host did meanwhile: a stall that
    hits one pass does not reach the result."""
    return [median(column) for column in zip(*passes)]


def measure(seed: int, seconds: float, work: Path, ref) -> dict:
    """:data:`NOMINAL_PASSES` nominal passes, each on a fresh service,
    with a host reference sample (``ref``) before the first pass and
    after every pass.

    Figures are taken request by request as the median over the passes
    (:func:`_per_request`): the arrival latencies give ``p50_ms`` and
    the tail; the service times (sent to response) summed give the
    seconds the schedule keeps the service busy, and so the capacity."""
    del seconds  # the schedule fixes the run length
    spec = load(seed)
    checks = Checks()
    log = work / "decisions.jsonl"
    svc = service(spec, log)
    requests = schedule(seed, pool_size(svc))
    nominal, counts, digests, errors = [], [], [], 0
    arrivals, busy = [], []
    ref.sample()
    for index in range(NOMINAL_PASSES):
        label = f"pass {index + 1}"
        if index:
            svc = service(spec, log)
        sends = _pass(svc, requests, NOMINAL_RPS, checks, label)
        ref.sample()
        bad = sum(1 for send in sends if not send[4])
        errors += bad
        checks.check(f"{label}: zero errors", bad == 0, f"{bad} errors")
        counts.append(_pass_counts(log))
        digests.append(_digest(_log_lines(log)))
        checks.check(f"{label}: decision log equals pass 1", digests[-1] == digests[0])
        nominal.extend(sends)
        arrivals.append(latencies_ms(sends, "arrive"))
        busy.append([done - sent for _k, _d, sent, done, _ok, _o in sends])
    typical = _per_request(arrivals)
    label, arrive_tail = tail(typical)
    return {
        "checks": checks,
        "attempted": len(requests) * NOMINAL_PASSES,
        "failed": errors,
        "p50_ms": median(typical),
        "tail_ms": arrive_tail,
        "tail_label": label,
        "tail_n": len(typical),
        "throughput_per_s": len(requests) / sum(_per_request(busy)),
        "samples": {},
        "figures": op_tails(nominal),
        "counts": same_counts(checks, "pass", counts),
        "digests": {"decision_log_sha256": digests[0]},
    }


def traced(seed: int, seconds: float, work: Path, tracer) -> dict:
    """One untraced nominal pass, then :data:`TRACED_PASSES` traced ones
    (service bootstrap + replay each); per-layer totals are per pass."""
    import layers
    import spans

    del seconds
    spec = load(seed)
    checks = Checks()
    log = work / "decisions.jsonl"
    svc = service(spec, log)
    requests = schedule(seed, pool_size(svc))
    sends = _pass(svc, requests, NOMINAL_RPS, checks, "untraced pass")
    figures = op_tails(sends)
    untraced = figures["generator"]["busy_s"]
    lines = _log_lines(log)
    digest = _digest(lines)
    figures["sustained_rps"], figures["ladder"] = ladder(
        spec, requests, (sends, lines), work, checks
    )

    layers.install(tracer)
    per_op, busy, counts = [], [], []
    for index in range(TRACED_PASSES):
        before = tracer.snapshot()
        with tracer.op(f"pass{index}"):
            traced_sends = _pass(
                service(spec, log),
                requests,
                NOMINAL_RPS,
                checks,
                f"traced pass {index + 1}",
                tracer,
            )
        totals = spans.diff(tracer.snapshot(), before)
        per_op.append(totals)
        busy.append(op_tails(traced_sends)["generator"]["busy_s"])
        checks.check(
            f"traced pass {index + 1}: decision log equals untraced",
            _digest(_log_lines(log)) == digest,
        )
        counts.append(
            {
                **_pass_counts(log),
                "events.pushes": totals["counts"]["events.pushes"],
                "kernel.candidates": totals["counts"]["kernel.candidates"],
            }
        )
    return {
        "checks": checks,
        "per_op": per_op,
        "counts": same_counts(checks, "traced pass", counts),
        "overhead_s": median(busy) - untraced,
        "untraced_s": untraced,
        "extra": figures,
        "digests": {"decision_log_sha256": digest},
    }
