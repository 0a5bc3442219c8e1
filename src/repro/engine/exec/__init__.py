"""Physical execution layer: pipelined operators, hash joins, CSE and a
semantically-keyed result cache.

See ``docs/EXECUTION.md`` for the operator set, the cache keying and
invalidation rules (including the callable registry that enforces the
predicate-name invariant), deep-plan safety, and how work accounting
maps onto the Section 4.4 cost model.
"""

from .batch import execute_batch
from .cache import CacheEntry, CacheInvariantError, PlanCache, entry_seal
from .compile import CompiledPlan, compile_plan, execute_compiled, plan_depth
from .delta import (
    DeltaError,
    MaintainabilityReport,
    MaintainedView,
    analyze_plan as analyze_maintainability,
    classify as classify_maintainability,
)
from .executor import MAX_PIPELINE_DEPTH, execute_streaming
from .fingerprint import (
    annotate_plan,
    callable_identity,
    relation_fingerprint,
    semantic_cache_key,
)
from .operators import Frame, collect_frame, node_label
from .shard import NotPartitionable, execute_sharded, plan_partitioning

__all__ = [
    "CacheEntry",
    "CacheInvariantError",
    "PlanCache",
    "entry_seal",
    "MAX_PIPELINE_DEPTH",
    "CompiledPlan",
    "compile_plan",
    "execute_batch",
    "execute_compiled",
    "execute_streaming",
    "NotPartitionable",
    "execute_sharded",
    "plan_partitioning",
    "plan_depth",
    "annotate_plan",
    "callable_identity",
    "relation_fingerprint",
    "semantic_cache_key",
    "Frame",
    "collect_frame",
    "node_label",
    "DeltaError",
    "MaintainabilityReport",
    "MaintainedView",
    "analyze_maintainability",
    "classify_maintainability",
]
