"""Rewrite rules justified by genericity / parametricity (Section 4.4).

Each rule records *why* it is sound in the paper's terms:

* ``map(f)`` commutes with fully generic / fully parametric operators
  for **arbitrary** ``f`` — "f could be any user-defined method, in any
  programming language, about which we know nothing";
* projection (``map(pi_1)``) pushes through union by the parametricity
  of ``union : forall X. {X} * {X} -> {X}`` — note the paper stresses
  plain genericity of union does *not* imply this, because ``pi_1``
  changes value structure;
* projection pushes through difference/intersection **only** when it is
  injective on the instances — difference is generic only w.r.t.
  injective mappings; the side condition is discharged from declared
  key constraints (the paper's employees/students SSN example);
* ``map(f)`` pushes through difference only when ``f`` is declared
  injective, for the same reason;
* selection pushes through union/difference/product because
  ``sigma : forall X. (X -> bool) -> {X} -> {X}`` is parametric and the
  same predicate is preserved on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .constraints import Catalog, projection_injective_on
from .plan import (
    Difference,
    Intersect,
    Join,
    MapNode,
    Plan,
    Product,
    Project,
    Scan,
    Select,
    Union,
)

__all__ = [
    "RewriteRule",
    "DEFAULT_RULES",
    "DELTA_MONOTONE",
    "SEMI_MAINTAINABLE",
    "OPAQUE",
    "NODE_MONOTONICITY",
    "HASH_PARTITIONABLE",
    "ROUND_ROBIN_SAFE",
    "NON_PARTITIONABLE",
    "NODE_PARTITIONABILITY",
]

# ----------------------------------------------------------------------
# Maintainability classes (semi-naive delta view maintenance).
#
# The same genericity analysis that justifies the Section 4.4 rewrites
# classifies operators by how they behave under *insertions*: an
# operator that is monotone in an input distributes over unions of that
# input, so ``op(R + dR) = op(R) + op'(dR, R)`` for a cheap delta form
# ``op'`` — the classical licence for semi-naive view maintenance.
# ``engine/exec/delta.py`` consumes this table as its source of truth.

#: Inserted deltas propagate through the node as ``dout = op(din, ...)``
#: (probing existing sibling state for joins/products).
DELTA_MONOTONE = "delta-monotone"
#: Monotone in the *left* input only: a right-side delta can retract
#: previously-derived rows, so it forces a recompute.
SEMI_MAINTAINABLE = "semi-maintainable"
#: No delta form is known; maintenance must fall back to invalidation.
OPAQUE = "opaque"

#: ``plan node type -> (class, justification in the paper's terms)``.
#: Node types absent from the table are treated as :data:`OPAQUE`.
NODE_MONOTONICITY: dict[type, tuple[str, str]] = {
    Scan: (
        DELTA_MONOTONE,
        "a base relation is its own delta: an insert *is* dR",
    ),
    Select: (
        DELTA_MONOTONE,
        "sigma : forall X.(X->bool)->{X}->{X} is parametric, so "
        "sigma_p(R + dR) = sigma_p(R) + sigma_p(dR) (Section 4.3)",
    ),
    Project: (
        DELTA_MONOTONE,
        "pi is fully generic and distributes over union "
        "(new projected rows may duplicate old ones; the delta form "
        "subtracts the existing view)",
    ),
    MapNode: (
        DELTA_MONOTONE,
        "map(f) commutes with union for arbitrary f — 'f could be any "
        "user-defined method ... about which we know nothing' "
        "(Section 4.4)",
    ),
    Union: (
        DELTA_MONOTONE,
        "union is fully generic/parametric and associative-commutative: "
        "(L + dL) U (R + dR) = (L U R) + (dL U dR)",
    ),
    Intersect: (
        DELTA_MONOTONE,
        "intersection is monotone in both inputs: the delta is "
        "(dL & R') U (dR & L'), probing the maintained sibling state",
    ),
    Product: (
        DELTA_MONOTONE,
        "cross product is fully generic and bilinear over union: "
        "dout = dL x R' + L x dR",
    ),
    Join: (
        DELTA_MONOTONE,
        "equi-join is a selection over a product, hence monotone in "
        "both inputs: dout = dL |x| R' + L |x| dR via the hash indexes",
    ),
    Difference: (
        SEMI_MAINTAINABLE,
        "difference is generic only w.r.t. injective mappings and "
        "anti-monotone in its right input: left deltas propagate as "
        "dL - R, right deltas retract derived rows and force recompute",
    ),
}


# ----------------------------------------------------------------------
# Partitionability classes (sharded partition-parallel execution).
#
# The genericity story also licenses *horizontal* decomposition: a
# mapping generic under domain permutations commutes with any disjoint
# repartitioning of its inputs, so shard-by-shard evaluation followed
# by a union merge computes the same query (Section 3; the uniformity
# argument is Reynolds-style parametricity).  The classes below say
# *which* partition function each operator tolerates while keeping the
# per-shard work ledgers summable to the serial ledger — the contract
# ``engine/exec/shard.py`` consumes as its source of truth.

#: The node tolerates hash partitioning when its inputs are
#: co-partitioned on an equality key (a join column, or the whole
#: tuple for set operations); per-shard outputs stay disjoint and
#: aligned, so downstream weights and probe counts sum exactly.
HASH_PARTITIONABLE = "hash-partitionable"
#: Monotone and key-free: the node distributes over *any* disjoint
#: partition of its input (round-robin suffices), but its output
#: partition is unaligned — usable below weight-charging parents only
#: while outputs remain disjoint (e.g. injective maps).
ROUND_ROBIN_SAFE = "round-robin-safe"
#: No partition function preserves the work ledger (cross products
#: replicate a whole side per shard); the plan runs single-shard.
NON_PARTITIONABLE = "non-partitionable"

#: ``plan node type -> (class, justification in the paper's terms)``.
#: Node types absent from the table are :data:`NON_PARTITIONABLE`.
NODE_PARTITIONABILITY: dict[type, tuple[str, str]] = {
    Scan: (
        HASH_PARTITIONABLE,
        "a base relation accepts any disjoint partition; the partition "
        "key is chosen by the equality demands of the operators above",
    ),
    Select: (
        HASH_PARTITIONABLE,
        "sigma : forall X.(X->bool)->{X}->{X} is parametric: it "
        "preserves whatever partition its input carries, key or not",
    ),
    Project: (
        HASH_PARTITIONABLE,
        "pi commutes with union, and a partition on a *surviving* "
        "column keeps projected duplicates in one shard, so dedup per "
        "shard equals serial dedup (key-preserving projections only; "
        "other projections are safe only at the plan root)",
    ),
    MapNode: (
        ROUND_ROBIN_SAFE,
        "map(f) commutes with union for arbitrary f, so any disjoint "
        "split works; only an *injective* f keeps shard outputs "
        "disjoint, and no column key survives an opaque f",
    ),
    Union: (
        HASH_PARTITIONABLE,
        "union is fully generic/parametric: whole-tuple co-partition "
        "gives (L U R) restricted to each shard; unaligned disjoint "
        "inputs are still safe at the plan root",
    ),
    Intersect: (
        HASH_PARTITIONABLE,
        "membership is decided per tuple, so whole-tuple co-partition "
        "localizes every probe: L_i & R_i = (L & R)_i",
    ),
    Difference: (
        HASH_PARTITIONABLE,
        "difference is generic w.r.t. injective mappings, and a "
        "whole-tuple co-partition is injective per shard: "
        "L_i - R_i = (L - R)_i",
    ),
    Join: (
        HASH_PARTITIONABLE,
        "equi-join co-partitioned on the first join pair keeps every "
        "candidate pair in one shard, so cross-shard probes vanish and "
        "probe counts sum to the serial ledger; a key-free join is a "
        "product and falls to single-shard",
    ),
    Product: (
        NON_PARTITIONABLE,
        "|L_i| x weight(R) per shard would replicate R's weight "
        "charge; no disjoint split of both sides preserves the ledger",
    ),
}


@dataclass(frozen=True)
class RewriteRule:
    """A named local rewrite with its paper justification."""

    name: str
    justification: str
    apply: Callable[[Plan, Catalog], Optional[Plan]]

    def __str__(self) -> str:
        return f"{self.name}: {self.justification}"


def _push_map_through_union(plan: Plan, _catalog: Catalog) -> Optional[Plan]:
    if isinstance(plan, MapNode) and isinstance(plan.child, Union):
        union = plan.child
        return Union(
            MapNode(plan.fn_name, plan.fn, union.left, plan.injective),
            MapNode(plan.fn_name, plan.fn, union.right, plan.injective),
        )
    return None


def _push_map_through_diff(plan: Plan, _catalog: Catalog) -> Optional[Plan]:
    if (
        isinstance(plan, MapNode)
        and plan.injective
        and isinstance(plan.child, (Difference, Intersect))
    ):
        node = plan.child
        rebuilt = type(node)(
            MapNode(plan.fn_name, plan.fn, node.left, True),
            MapNode(plan.fn_name, plan.fn, node.right, True),
        )
        return rebuilt
    return None


def _push_project_through_union(plan: Plan, _catalog: Catalog) -> Optional[Plan]:
    if isinstance(plan, Project) and isinstance(plan.child, Union):
        union = plan.child
        return Union(
            Project(plan.columns, union.left),
            Project(plan.columns, union.right),
        )
    return None


def _push_project_through_diff(plan: Plan, catalog: Catalog) -> Optional[Plan]:
    if isinstance(plan, Project) and isinstance(
        plan.child, (Difference, Intersect)
    ):
        node = plan.child
        if projection_injective_on(
            catalog, (node.left, node.right), plan.columns
        ):
            return type(node)(
                Project(plan.columns, node.left),
                Project(plan.columns, node.right),
            )
    return None


def _push_select_through_union(plan: Plan, _catalog: Catalog) -> Optional[Plan]:
    if isinstance(plan, Select) and isinstance(
        plan.child, (Union, Difference, Intersect)
    ):
        node = plan.child
        return type(node)(
            Select(plan.predicate_name, plan.predicate, node.left),
            Select(plan.predicate_name, plan.predicate, node.right),
        )
    return None


def _fuse_projects(plan: Plan, _catalog: Catalog) -> Optional[Plan]:
    if isinstance(plan, Project) and isinstance(plan.child, Project):
        inner = plan.child
        if any(i >= len(inner.columns) for i in plan.columns):
            # Ill-formed plan (outer projects a column the inner one
            # removed); leave it for the executor to report.
            return None
        fused = tuple(inner.columns[i] for i in plan.columns)
        return Project(fused, inner.child)
    return None


def _select_before_product(plan: Plan, _catalog: Catalog) -> Optional[Plan]:
    # sigma_p(A x B) with p touching only A's columns -> sigma_p(A) x B.
    # Column usage is not tracked for opaque predicates, so this rule
    # only fires for predicates registered with a column span.
    if (
        isinstance(plan, Select)
        and isinstance(plan.child, Product)
        and "@left" in plan.predicate_name
    ):
        product = plan.child
        return Product(
            Select(plan.predicate_name, plan.predicate, product.left),
            product.right,
        )
    return None


DEFAULT_RULES: tuple[RewriteRule, ...] = (
    RewriteRule(
        "push-map-through-union",
        "union is fully generic/parametric: commutes with map(f) for "
        "arbitrary f (Section 4.4)",
        _push_map_through_union,
    ),
    RewriteRule(
        "push-project-through-union",
        "parametricity of union at forall X.{X}*{X}->{X} with H = pi_1 "
        "(a structure-changing mapping; Section 4.4)",
        _push_project_through_union,
    ),
    RewriteRule(
        "push-project-through-difference",
        "difference is generic w.r.t. injective mappings; key constraint "
        "makes pi injective on the instances (employees/students example)",
        _push_project_through_diff,
    ),
    RewriteRule(
        "push-map-through-difference",
        "difference at forall X=: valid for f declared injective",
        _push_map_through_diff,
    ),
    RewriteRule(
        "push-select-through-union",
        "sigma : forall X.(X->bool)->{X}->{X} is parametric; the same "
        "predicate is preserved on both branches (Section 4.3)",
        _push_select_through_union,
    ),
    RewriteRule(
        "fuse-projections",
        "composition closure of fully generic queries (Prop 3.1)",
        _fuse_projects,
    ),
    RewriteRule(
        "select-before-product",
        "cross product is fully generic; a predicate over one factor "
        "commutes with forming the product",
        _select_before_product,
    ),
)
