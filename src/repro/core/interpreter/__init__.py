"""Rule interpreter stack: software model of the ARON hardware.

* :mod:`.registers` — the register file ("Variables", Figure 5)
* :mod:`.evaluator` — shared expression evaluation
* :mod:`.execution` — parallel conclusion execution
* :mod:`.astinterp` — reference semantics straight from the AST
* :mod:`.event_manager` — event-triggered coordination + step counting
* :mod:`.timing` — the wiring + 2xFCFB + RAM delay model

Table-lookup execution (the RBR kernel) is
:class:`repro.core.compiler.fastpath.DecisionKernel`, which
:class:`repro.core.engine.RuleEngine` drives directly.
"""

from .astinterp import AstInterpreter
from .evaluator import Env, eval_expr, iteration_values, make_input_reader, to_bool
from .event_manager import EventManager
from .execution import Emission, InvocationResult
from .registers import RegisterFile
from .timing import DEFAULT_DELAYS, DelayModel

__all__ = [
    "AstInterpreter", "Env", "eval_expr", "iteration_values",
    "make_input_reader", "to_bool", "EventManager", "Emission",
    "InvocationResult", "RegisterFile", "DEFAULT_DELAYS", "DelayModel",
]
