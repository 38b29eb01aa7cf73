"""Names of the former vectorized trial engine.

Every algorithm now has one implementation, in ``algorithms`` and
``sorting``, and a session answers its batches in one call where the
adversary allows it (``adversary.comparator_for``). These names remain only
because the benchmark's tracer (``advbench/tracer.py``) wraps them and
refuses to run when one is missing; they go when the tracer stops asking.
"""

from .adversary import comparator_for
from .algorithms import (combined_select, complete_tournament, modified_knockout,
                         quick_select)
from .sorting import complete_sort, quick_sort

__all__ = ["comparator_for"]

# Aliases of the single implementations, not second copies.
complete_tournament_fast = complete_tournament
modified_knockout_fast = modified_knockout
quick_select_fast = quick_select
combined_select_fast = combined_select
complete_sort_fast = complete_sort
quick_sort_fast = quick_sort
