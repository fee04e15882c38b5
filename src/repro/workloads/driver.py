"""Request drivers: replay workloads against a platform through a router.

The driver is the simulation counterpart of the paper's request-issuing
node.  It feeds arrival streams (open loop) and interactive sessions
(closed loop, next query after the previous response) through a
:class:`~repro.routing.Router` into the serverless controller, and
collects :class:`~repro.serverless.action.InvocationResult` records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.routing import Router
from repro.serverless.action import Request
from repro.serverless.controller import Controller
from repro.sim.core import Simulation
from repro.workloads.arrival import Arrival, Session


@dataclass
class DriverReport:
    """Everything a driver run produced."""

    results: List = field(default_factory=list)
    #: results of session queries, keyed by (session_index, model_id)
    session_results: Dict = field(default_factory=dict)


class WorkloadDriver:
    """Issues requests and observes completions."""

    def __init__(
        self,
        sim: Simulation,
        controller: Controller,
        router: Router,
        tracer=None,
    ) -> None:
        self.sim = sim
        self.controller = controller
        self.router = router
        self.report = DriverReport()
        #: tracer for request root spans (falls back to the controller's)
        self.tracer = tracer if tracer is not None else controller.tracer

    def _start_request(self, model_id: str, user_id: str, endpoint: str) -> Request:
        """Build a request, opening its root span when tracing is on.

        The driver owns the root span (rather than the controller) so the
        trace also covers routing: the chosen endpoint is recorded as an
        attribute before the request enters the platform.
        """
        request = Request(model_id=model_id, user_id=user_id)
        if self.tracer is not None:
            request.span = self.tracer.start_span(
                "request",
                request_id=request.request_id,
                model_id=model_id,
                user_id=user_id,
                endpoint=endpoint,
            )
        return request

    # -- open-loop arrivals -------------------------------------------------------

    def submit_arrivals(self, arrivals: Sequence[Arrival]) -> None:
        """Schedule an open-loop stream (requests fire at their timestamps)."""
        self.sim.process(self._arrival_loop(list(arrivals)), name="driver:arrivals")

    def _arrival_loop(self, arrivals: List[Arrival]):
        arrivals.sort(key=lambda a: a.time)
        for arrival in arrivals:
            delay = arrival.time - self.sim.now
            if delay > 0:
                yield self.sim.timeout(delay)
            self._fire(arrival.model_id, arrival.user_id)

    def _fire(self, model_id: str, user_id: str, sink: Optional[dict] = None,
              sink_key=None):
        endpoint = self.router.route(model_id, self.sim.now)
        request = self._start_request(model_id, user_id, endpoint)
        done = self.controller.invoke(endpoint, request)
        self.router.on_dispatch(endpoint, model_id, self.sim.now)
        self.sim.process(
            self._collect(done, endpoint, model_id, sink, sink_key),
            name=f"collect:{request.request_id}",
        )
        return done

    def _collect(self, done, endpoint: str, model_id: str, sink, sink_key):
        result = yield done
        self.router.on_complete(endpoint, model_id, self.sim.now)
        self.report.results.append(result)
        if sink is not None:
            sink[sink_key] = result

    # -- closed-loop sessions ----------------------------------------------------------

    def submit_session(self, session: Session, index: int = 0) -> None:
        """Schedule an interactive session (sequential queries)."""
        self.sim.process(
            self._session_loop(session, index), name=f"driver:session{index}"
        )

    def _session_loop(self, session: Session, index: int):
        if session.start_time > self.sim.now:
            yield self.sim.timeout(session.start_time - self.sim.now)
        for model_id in session.models:
            endpoint = self.router.route(model_id, self.sim.now)
            request = self._start_request(model_id, session.user_id, endpoint)
            done = self.controller.invoke(endpoint, request)
            self.router.on_dispatch(endpoint, model_id, self.sim.now)
            result = yield done
            self.router.on_complete(endpoint, model_id, self.sim.now)
            self.report.results.append(result)
            self.report.session_results[(index, model_id)] = result

    # -- running --------------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> DriverReport:
        """Run the simulation and return the collected report."""
        self.sim.run(until=until)
        return self.report
