"""Executable interaction models (Figure 1 of the paper).

Each model owns the transition relation that Figure 1 associates with it and
is the single authority on how an interaction — possibly omissive — maps the
pre-states of the starter and the reactor to their post-states, given a
*program*:

* two-way models run *two-way programs*: objects exposing ``fs(s, r)`` and
  ``fr(s, r)`` (any :class:`repro.protocols.PopulationProtocol`), plus the
  optional omission handlers ``on_starter_omission`` / ``on_reactor_omission``
  (the functions ``o`` and ``h`` of the paper);
* one-way models run *one-way programs*: objects exposing ``g(s)``,
  ``f(s, r)`` and the same optional omission handlers (any
  :class:`repro.protocols.OneWayProtocol`, which includes all simulators of
  :mod:`repro.core`).

The detection capabilities encoded by each model are:

=========  ========  =====================  =====================
model      one-way   starter detection      reactor detection
=========  ========  =====================  =====================
``TW``     no        (no omissions)         (no omissions)
``T3``     no        yes (``o``)            yes (``h``)
``T2``     no        yes (``o``)            no
``T1``     no        no                     no
``IT``     yes       proximity (``g``)      (no omissions)
``IO``     yes       none                   (no omissions)
``I4``     yes       omission (``o``)       proximity (``g``)
``I3``     yes       proximity (``g``)      omission (``h``)
``I2``     yes       proximity (``g``)      proximity (``g``)
``I1``     yes       proximity (``g``)      none
=========  ========  =====================  =====================
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, List, Tuple

from repro.interaction.omissions import (
    FULL_OMISSION,
    NO_OMISSION,
    ONE_WAY_OMISSION,
    REACTOR_OMISSION,
    STARTER_OMISSION,
    Omission,
)
from repro.protocols.state import State


class ModelError(Exception):
    """Raised when a program or an omission is incompatible with a model."""


def _starter_omission_handler(program: Any) -> Callable[[State], State]:
    handler = getattr(program, "on_starter_omission", None)
    if handler is None:
        return lambda state: state
    return handler


def _reactor_omission_handler(program: Any) -> Callable[[State], State]:
    handler = getattr(program, "on_reactor_omission", None)
    if handler is None:
        return lambda state: state
    return handler


class InteractionModel:
    """Base class for the interaction models of Figure 1."""

    #: Short model name as used in the paper ("TW", "T1", ..., "I4").
    name: str = "model"
    #: Whether the model is one-way (information flows starter -> reactor only).
    one_way: bool = False
    #: Whether omissive interactions are part of the model's transition relation.
    allows_omissions: bool = False
    #: Whether the starter can detect an omission (apply ``o``).
    starter_detects_omission: bool = False
    #: Whether the reactor can detect an omission (apply ``h``).
    reactor_detects_omission: bool = False
    #: Whether the starter detects the interaction at all (applies ``g`` / ``fs``).
    starter_detects_proximity: bool = True

    # -- core semantics -----------------------------------------------------------------

    def apply(
        self,
        program: Any,
        starter_state: State,
        reactor_state: State,
        omission: Omission = NO_OMISSION,
    ) -> Tuple[State, State]:
        """Apply one interaction and return ``(new_starter, new_reactor)``."""
        raise NotImplementedError

    def validate_omission(self, omission: Omission) -> None:
        """Raise :class:`ModelError` when ``omission`` is not expressible in this model."""
        if omission.is_omissive and not self.allows_omissions:
            raise ModelError(f"model {self.name} does not admit omissive interactions")
        if self.one_way and omission.starter_lost:
            raise ModelError(
                f"model {self.name} is one-way: the starter never receives information, "
                "so a starter-side omission is meaningless"
            )

    def admissible_omissions(self) -> List[Omission]:
        """The omission specifications expressible in this model."""
        if not self.allows_omissions:
            return [NO_OMISSION]
        if self.one_way:
            return [NO_OMISSION, ONE_WAY_OMISSION]
        return [NO_OMISSION, STARTER_OMISSION, REACTOR_OMISSION, FULL_OMISSION]

    def transition_relation(
        self, program: Any, starter_state: State, reactor_state: State
    ) -> FrozenSet[Tuple[State, State]]:
        """The set of possible outcomes of an interaction, per Figure 1."""
        outcomes = set()
        for omission in self.admissible_omissions():
            outcomes.add(self.apply(program, starter_state, reactor_state, omission))
        return frozenset(outcomes)

    def __repr__(self) -> str:
        return f"<InteractionModel {self.name}>"

    def __str__(self) -> str:
        return self.name


class TwoWayModel(InteractionModel):
    """Common machinery of ``TW`` and the omissive two-way models ``T1``-``T3``."""

    one_way = False

    def _require_two_way_program(self, program: Any) -> None:
        if not hasattr(program, "fs") or not hasattr(program, "fr"):
            raise ModelError(
                f"model {self.name} requires a two-way program exposing fs/fr; "
                f"got {type(program).__name__}"
            )

    def apply(
        self,
        program: Any,
        starter_state: State,
        reactor_state: State,
        omission: Omission = NO_OMISSION,
    ) -> Tuple[State, State]:
        self._require_two_way_program(program)
        self.validate_omission(omission)

        if omission.starter_lost:
            if self.starter_detects_omission:
                new_starter = _starter_omission_handler(program)(starter_state)
            else:
                new_starter = starter_state
        else:
            new_starter = program.fs(starter_state, reactor_state)

        if omission.reactor_lost:
            if self.reactor_detects_omission:
                new_reactor = _reactor_omission_handler(program)(reactor_state)
            else:
                new_reactor = reactor_state
        else:
            new_reactor = program.fr(starter_state, reactor_state)

        return new_starter, new_reactor


class OneWayModel(InteractionModel):
    """Common machinery of ``IT``, ``IO`` and the omissive one-way models ``I1``-``I4``."""

    one_way = True
    #: Whether the reactor applies ``g`` (proximity detection) on an omission.
    reactor_detects_proximity_on_omission: bool = False

    def _require_one_way_program(self, program: Any) -> Callable[[State, State], State]:
        f = getattr(program, "f", None)
        if f is None:
            raise ModelError(
                f"model {self.name} requires a one-way program exposing f (and g); "
                f"got {type(program).__name__}"
            )
        return f

    def _apply_g(self, program: Any, state: State) -> State:
        if not self.starter_detects_proximity:
            return state
        g = getattr(program, "g", None)
        if g is None:
            return state
        return g(state)

    def apply(
        self,
        program: Any,
        starter_state: State,
        reactor_state: State,
        omission: Omission = NO_OMISSION,
    ) -> Tuple[State, State]:
        f = self._require_one_way_program(program)
        if not omission.is_omissive:
            return self._apply_g(program, starter_state), f(starter_state, reactor_state)

        # Omissive interaction: the reactor did not receive the starter's state.
        self.validate_omission(omission)
        if self.starter_detects_omission:
            new_starter = _starter_omission_handler(program)(starter_state)
        else:
            new_starter = self._apply_g(program, starter_state)

        if self.reactor_detects_omission:
            new_reactor = _reactor_omission_handler(program)(reactor_state)
        elif self.reactor_detects_proximity_on_omission:
            new_reactor = self._apply_g(program, reactor_state)
        else:
            new_reactor = reactor_state

        return new_starter, new_reactor


# -- concrete two-way models -----------------------------------------------------------------


class _TW(TwoWayModel):
    """The standard two-way model: ``delta(as, ar) = (fs(as, ar), fr(as, ar))``."""

    name = "TW"
    allows_omissions = False


class _T3(TwoWayModel):
    """Two-way with omissions, detection on both sides (strongest omissive TW model)."""

    name = "T3"
    allows_omissions = True
    starter_detects_omission = True
    reactor_detects_omission = True


class _T2(TwoWayModel):
    """Two-way with omissions, detection on the starter side only (``h`` forced to identity)."""

    name = "T2"
    allows_omissions = True
    starter_detects_omission = True
    reactor_detects_omission = False


class _T1(TwoWayModel):
    """Two-way with omissions and no detection at all (``o`` and ``h`` identities)."""

    name = "T1"
    allows_omissions = True
    starter_detects_omission = False
    reactor_detects_omission = False


# -- concrete one-way models -----------------------------------------------------------------


class _IT(OneWayModel):
    """Immediate Transmission: ``delta(as, ar) = (g(as), f(as, ar))``, no omissions."""

    name = "IT"
    allows_omissions = False
    starter_detects_proximity = True


class _IO(OneWayModel):
    """Immediate Observation: ``delta(as, ar) = (as, f(as, ar))``, no omissions.

    The starter is oblivious to the interaction, so ``g`` is forced to the
    identity regardless of what the program defines.
    """

    name = "IO"
    allows_omissions = False
    starter_detects_proximity = False


class _I1(OneWayModel):
    """One-way omissive, no detection reactor-side: omission outcome ``(g(as), ar)``."""

    name = "I1"
    allows_omissions = True
    starter_detects_proximity = True
    reactor_detects_proximity_on_omission = False


class _I2(OneWayModel):
    """One-way omissive, proximity (but not omission) detection on both sides.

    Omission outcome ``(g(as), g(ar))``.
    """

    name = "I2"
    allows_omissions = True
    starter_detects_proximity = True
    reactor_detects_proximity_on_omission = True


class _I3(OneWayModel):
    """One-way omissive with reactor-side omission detection: ``(g(as), h(ar))``."""

    name = "I3"
    allows_omissions = True
    starter_detects_proximity = True
    reactor_detects_omission = True


class _I4(OneWayModel):
    """One-way omissive with starter-side omission detection: ``(o(as), g(ar))``."""

    name = "I4"
    allows_omissions = True
    starter_detects_proximity = True
    starter_detects_omission = True
    reactor_detects_proximity_on_omission = True


#: Singleton instances, used throughout the library.
TW = _TW()
T1 = _T1()
T2 = _T2()
T3 = _T3()
IT = _IT()
IO = _IO()
I1 = _I1()
I2 = _I2()
I3 = _I3()
I4 = _I4()

#: All ten models of Figure 1.
ALL_MODELS: Tuple[InteractionModel, ...] = (TW, T1, T2, T3, IT, IO, I1, I2, I3, I4)

#: Lookup table by model name.
MODELS_BY_NAME: Dict[str, InteractionModel] = {model.name: model for model in ALL_MODELS}


def get_model(name: str) -> InteractionModel:
    """Look up a model by its Figure 1 name (case-insensitive)."""
    try:
        return MODELS_BY_NAME[name.upper()]
    except KeyError:
        known = ", ".join(sorted(MODELS_BY_NAME))
        raise KeyError(f"unknown interaction model {name!r}; known models: {known}") from None
