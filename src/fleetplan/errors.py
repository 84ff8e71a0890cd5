"""Exception types shared across the planner."""


class FleetplanError(Exception):
    """Base class for all planner errors."""


class ParseError(FleetplanError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NextOperatorForbidden(ParseError):
    """The next operator is excluded from the supported temporal fragment."""


class StateLimitExceeded(FleetplanError):
    """Automaton construction passed the configured state cap."""


class NoPositiveWitness(FleetplanError):
    """No staffable label set leads along a run step."""


class EmptyLanguage(FleetplanError):
    """An automaton accepts no sequence (typically after pruning)."""


class MissionError(FleetplanError):
    """The selected task sequence cannot be turned into a mission."""


class Unreachable(FleetplanError):
    """No path between the requested states."""


class NoAcceptingPath(FleetplanError):
    """A robot's product automaton has no reachable accepting state."""


class LevelDisconnected(FleetplanError):
    """A level of the layered automaton has no incoming edges."""


class DeadlockDetected(FleetplanError):
    """All robots are blocked and no task can fire."""


class NegativeObligationViolated(FleetplanError):
    def __init__(self, prop: str, time, element):
        super().__init__(
            f"proposition {prop!r} fired at t={time} while forbidden by element {element}"
        )
        self.prop = prop
        self.time = time
        self.element = element


class ProtocolStuck(FleetplanError):
    """The adjusting protocol cannot make progress (internal assertion)."""


class BudgetExceeded(FleetplanError):
    """A configured cap or the time budget is exhausted (oracle or allocation)."""


class InfeasibleMission(FleetplanError):
    """No feasible assignment exists for the mission."""


class ScenarioError(FleetplanError):
    """Scenario file is malformed or internally inconsistent."""
