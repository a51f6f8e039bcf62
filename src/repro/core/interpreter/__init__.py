"""Rule interpreter stack: software model of the ARON hardware.

* :mod:`.registers` — the register file ("Variables", Figure 5)
* :mod:`.evaluator` — shared expression evaluation
* :mod:`.execution` — parallel conclusion execution
* :mod:`.astinterp` — reference semantics straight from the AST
* :mod:`.rbr` — RBR-kernel table-lookup execution
* :mod:`.event_manager` — event-triggered coordination + step counting
* :mod:`.timing` — the wiring + 2xFCFB + RAM delay model
"""

from .astinterp import AstInterpreter
from .evaluator import Env, eval_expr, iteration_values, make_input_reader, to_bool
from .event_manager import EventManager, StepCounter
from .execution import Emission, InvocationResult
from .rbr import RbrInterpreter
from .registers import RegisterFile
from .timing import DEFAULT_DELAYS, DelayModel

__all__ = [
    "AstInterpreter", "Env", "eval_expr", "iteration_values",
    "make_input_reader", "to_bool", "EventManager", "StepCounter",
    "Emission", "InvocationResult", "RbrInterpreter",
    "RegisterFile", "DEFAULT_DELAYS", "DelayModel",
]
