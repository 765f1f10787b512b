"""The naming protocol ``Nn`` and the knowledge-of-``n`` simulator (Section 4.3, Theorem 4.6).

When the agents do not have IDs but know the population size ``n``, unique
IDs can be bootstrapped with the naming protocol ``Nn`` (similar to the
threshold protocol for IO of reference [4]): every agent starts with
``my_id = 1``; a reactor that observes a starter holding the *same* id
increments its own id, and everyone tracks the maximum id seen in
``max_id``.  Ids only increase and a new maximum appears exactly when two
agents collide, so when ``max_id`` reaches ``n`` all ids are distinct and
stable (Lemma 3).  At that point the agent hands its (now unique) id to the
``SID`` simulator of Theorem 4.5 and starts simulating.

Documented deviation from the paper's prose (see "Documented deviations
from the paper" in ``docs/architecture.md``): the paper writes
``start_sim(max_id)``; the simulator must receive the agent's own unique
id, so we pass ``my_id`` (``max_id`` would give every agent the id ``n``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from repro.core.base import SimulatorError, TwoWaySimulator
from repro.core.events import Matching, SimulationEvent
from repro.core.sid import AVAILABLE, SIDSimulator, SIDState
from repro.engine.trace import Trace
from repro.protocols.protocol import PopulationProtocol
from repro.protocols.state import Configuration, State

#: Phases of the composite protocol.
NAMING = "naming"
SIMULATING = "simulating"


@dataclass(frozen=True)
class NamingState:
    """State of the naming protocol ``Nn`` for one agent."""

    my_id: int = 1
    max_id: int = 1


@dataclass(frozen=True)
class KnownSizeState:
    """Composite state: naming phase bookkeeping plus, once named, the ``SID`` state.

    ``p_initial`` is kept around during the naming phase so the agent can
    initialise its simulated state when it starts simulating (its simulated
    state never changes before that point).
    """

    phase: str
    p_initial: State
    naming: Optional[NamingState] = None
    sid: Optional[SIDState] = None


class KnownSizeSimulator(TwoWaySimulator):
    """Simulator for ``IO`` given knowledge of the population size ``n`` (Theorem 4.6).

    Internally this is the naming protocol ``Nn`` composed with
    :class:`~repro.core.sid.SIDSimulator`: agents first acquire unique ids,
    then run ``SID`` with those ids.
    """

    compatible_models = ("IO", "IT", "I1", "I2", "I3")

    def __init__(self, protocol: PopulationProtocol, population_size: int, name: Optional[str] = None) -> None:
        if population_size < 1:
            raise SimulatorError("population_size must be at least 1")
        super().__init__(protocol, name=name or f"Nn+SID(n={population_size})")
        self.population_size = population_size
        self._sid = SIDSimulator(protocol)

    # -- initial states ---------------------------------------------------------------------------

    @property
    def sid(self) -> SIDSimulator:
        """The embedded ``SID`` simulator used once ids are assigned."""
        return self._sid

    def initial_state(self, p_state: State, **knowledge) -> KnownSizeState:
        self.protocol.validate_initial_state(p_state)
        if self.population_size == 1:
            # A singleton population has nothing to name (and nothing to
            # interact with); start directly in the simulating phase.
            return KnownSizeState(
                phase=SIMULATING,
                p_initial=p_state,
                sid=SIDState(my_id=1, sim=p_state),
            )
        return KnownSizeState(phase=NAMING, p_initial=p_state, naming=NamingState())

    def initial_configuration(self, p_configuration: Configuration, **knowledge) -> Configuration:
        if len(p_configuration) != self.population_size:
            raise SimulatorError(
                f"this simulator was built for n={self.population_size} agents, "
                f"got a configuration of {len(p_configuration)}"
            )
        return Configuration(self.initial_state(p) for p in p_configuration)

    def project(self, state: KnownSizeState) -> State:
        if state.phase == SIMULATING:
            return state.sid.sim
        return state.p_initial

    # -- helper: what a starter exposes -------------------------------------------------------------

    @staticmethod
    def _starter_id_and_max(starter: KnownSizeState, n: int) -> Tuple[int, int]:
        """The (id, max_id) information a reactor can read off a starter."""
        if starter.phase == NAMING:
            return starter.naming.my_id, starter.naming.max_id
        return starter.sid.my_id, n

    # -- transition function (IO: g is the identity) -----------------------------------------------------

    def f(self, starter: KnownSizeState, reactor: KnownSizeState) -> KnownSizeState:
        new_state, _ = self._observe(starter, reactor)
        return new_state

    def _observe(
        self, starter: KnownSizeState, reactor: KnownSizeState
    ) -> Tuple[KnownSizeState, List[SimulationEvent]]:
        n = self.population_size

        if reactor.phase == NAMING:
            starter_id, starter_max = self._starter_id_and_max(starter, n)
            my_id = reactor.naming.my_id
            if starter_id == my_id:
                my_id += 1
            max_id = max(reactor.naming.max_id, my_id, starter_id, starter_max)
            if max_id >= n:
                return (
                    replace(
                        reactor,
                        phase=SIMULATING,
                        naming=None,
                        sid=SIDState(my_id=my_id, sim=reactor.p_initial),
                    ),
                    [],
                )
            return (
                replace(reactor, naming=NamingState(my_id=my_id, max_id=max_id)),
                [],
            )

        # Reactor is already simulating: it only makes progress when observing
        # another simulating agent (a still-naming starter has no SID state to
        # observe).
        if starter.phase == SIMULATING:
            new_sid, events = self._sid._observe(starter.sid, reactor.sid)
            if new_sid is reactor.sid:
                return reactor, events
            return replace(reactor, sid=new_sid), events
        return reactor, []

    # -- event extraction and matching ---------------------------------------------------------------------

    def extract_events(self, trace: Trace) -> List[SimulationEvent]:
        events: List[SimulationEvent] = []
        for step in trace.steps:
            if step.interaction.is_omissive:
                continue
            _, step_events = self._observe(step.starter_pre, step.reactor_pre)
            for event in step_events:
                events.append(
                    SimulationEvent(
                        step=step.index,
                        agent=step.interaction.reactor,
                        role=event.role,
                        pre_sim=event.pre_sim,
                        post_sim=event.post_sim,
                        partner_pre_sim=event.partner_pre_sim,
                        partner_agent=step.interaction.starter,
                        key=None,
                    )
                )
        return events

    def extract_matching(self, trace: Trace) -> Matching:
        """Exact matching, identical in structure to ``SID``'s."""
        events = self.extract_events(trace)
        last_unmatched_lock_by_agent = {}
        pairs = []
        for index, event in enumerate(events):
            if event.role == "starter":
                last_unmatched_lock_by_agent[event.agent] = index
            else:
                partner = event.partner_agent
                lock_index = last_unmatched_lock_by_agent.pop(partner, None)
                if lock_index is not None:
                    pairs.append((lock_index, index))
        return Matching.from_explicit_pairs(events, pairs)

    # -- naming diagnostics ------------------------------------------------------------------------------

    @staticmethod
    def naming_complete(configuration: Configuration) -> bool:
        """Whether every agent has finished the naming phase."""
        return all(state.phase == SIMULATING for state in configuration)

    @staticmethod
    def assigned_ids(configuration: Configuration) -> List[int]:
        """The ids currently assigned (naming-phase agents report their provisional id)."""
        ids = []
        for state in configuration:
            if state.phase == SIMULATING:
                ids.append(state.sid.my_id)
            else:
                ids.append(state.naming.my_id)
        return ids
