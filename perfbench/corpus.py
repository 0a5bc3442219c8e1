"""Seeded inputs for the three workloads.

Everything here is a pure function of the seed: row lists for the HR
schema, textual queries in the parser's grammar, ``random_plan`` plan
objects and the insert stream.  The harness builds the database from
these inputs; nothing in this module touches a ``Database``.

Query *shapes* and their order come from a fixed per-workload stream,
so every seed runs the same mix of query costs in the same order (a
time-bounded run covers a seed-independent part of the cycle).  The
seed draws the data (contractor ssns, insert rows) and the literals:
each ssn comparison moves by up to ``JITTER`` towards a smaller
selection and each name literal is redrawn, so the seeds' queries and
results differ while their costs stay put.

Every generated query carries an upper bound on the reference
interpreter's ``work`` (same formulas as ``execute_reference``, with
row counts replaced by upper bounds), and candidates above the
workload's cap are redrawn, so no single query dominates a run.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Optional

from repro.engine.workload import random_plan
from repro.optimizer.plan import (
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

#: Lowest ssn of the HR schema (as in ``repro.engine.workload``).
SSN_BASE = 1000
DEPARTMENTS = 4
#: The two E-OPT-COST plans of Section 4.4.
EOPT_QUERIES = ("pi[1](employees - students)", "pi[1](employees U students)")

#: Largest move of a seeded ssn literal.
JITTER = 20

SSN, NAME, DEPT = "ssn", "name", "dept"
HR_TYPES = (SSN, NAME, DEPT)


def person(ssn: int) -> tuple:
    """The HR row for ``ssn``: deterministic per ssn, so a person in
    both relations is the same tuple and ssn stays a key of the union."""
    return (ssn, f"person{ssn}", f"dept{ssn % DEPARTMENTS}")


@dataclass(frozen=True)
class HRSpec:
    employees: int
    students: int
    overlap: int

    @property
    def max_ssn(self) -> int:
        return SSN_BASE + self.employees - self.overlap + self.students

    def rows(self, rng: random.Random) -> dict:
        """``relation -> rows`` for the HR schema, contractors drawn
        from ``rng`` like ``hr_database`` does."""
        e, s, o = self.employees, self.students, self.overlap
        employees = [person(x) for x in range(SSN_BASE, SSN_BASE + e)]
        start = SSN_BASE + e - o
        students = [person(x) for x in range(start, start + s)]
        contractors = [
            (rng.randrange(SSN_BASE, self.max_ssn), f"c{i}", "dept0")
            for i in range(max(1, e // 2))
        ]
        return {
            "employees": employees,
            "students": students,
            "contractors": contractors,
        }

    def sizes(self) -> dict:
        return {
            "employees": self.employees,
            "students": self.students,
            "contractors": max(1, self.employees // 2),
        }


# ----------------------------------------------------------------------
# Upper bounds on reference work.


@dataclass(frozen=True)
class Bound:
    """Upper bounds for one subplan: rows, width, cumulative work."""

    rows: int
    width: int
    work: int

    @property
    def weight(self) -> int:
        return self.rows * self.width


def _unary(child: Bound, rows: int, width: int) -> Bound:
    return Bound(rows, width, child.work + child.weight)


def _binary(kind: str, a: Bound, b: Bound) -> Bound:
    both = a.work + b.work
    if kind == "U":
        return Bound(a.rows + b.rows, a.width, both + a.weight + b.weight)
    if kind == "-":
        return Bound(a.rows, a.width, both + a.weight + b.weight)
    if kind == "&":
        return Bound(
            min(a.rows, b.rows), a.width, both + a.weight + b.weight
        )
    # product, and join as its upper bound
    rows = a.rows * b.rows
    return Bound(
        rows, a.width + b.width, both + a.rows * b.weight + a.weight + rows
    )


def plan_bound(plan: Plan, sizes: dict, windows: dict) -> Bound:
    """Upper bound for a plan object; ``windows`` maps a select's
    predicate name to the row bound it guarantees."""
    if isinstance(plan, Scan):
        return Bound(sizes[plan.relation], 3, 0)
    kids = [plan_bound(c, sizes, windows) for c in plan.children()]
    if isinstance(plan, Project):
        return _unary(kids[0], kids[0].rows, len(plan.columns))
    if isinstance(plan, Select):
        rows = min(kids[0].rows, windows.get(plan.predicate_name, kids[0].rows))
        return _unary(kids[0], rows, kids[0].width)
    if isinstance(plan, MapNode):
        width = {"dup_first": kids[0].width + 1, "first_only": 1}.get(
            plan.fn_name, kids[0].width
        )
        return _unary(kids[0], kids[0].rows, width)
    kind = {Union: "U", Difference: "-", Intersect: "&"}.get(type(plan), "x")
    return _binary(kind, kids[0], kids[1])


# ----------------------------------------------------------------------
# Textual queries in the parser's grammar.


class TextGen:
    """Random plan texts over the HR schema, type-correct (ssn columns
    compare with ints, name/dept columns with strings) and work-capped."""

    def __init__(self, rng: random.Random, spec: HRSpec, cap: int) -> None:
        self.rng = rng
        self.spec = spec
        self.sizes = spec.sizes()
        self.cap = cap

    def _ssn_literal(self) -> int:
        return self.rng.randrange(SSN_BASE, self.spec.max_ssn)

    def _predicate(self, types: tuple, rows: int) -> tuple[str, int]:
        """``(predicate text, row bound)`` over columns of ``types``."""
        rng = self.rng
        col = rng.randrange(len(types))
        kind = types[col]
        if kind == SSN:
            k = self._ssn_literal()
            if rng.random() < 0.5:
                return f"${col + 1}<{k}", min(rows, max(0, k - SSN_BASE))
            return f"${col + 1}>{k}", min(rows, max(0, self.spec.max_ssn - k))
        if kind == DEPT:
            return f"${col + 1}='dept{rng.randrange(DEPARTMENTS)}'", rows
        same = [i for i, t in enumerate(types) if t == NAME and i != col]
        if same and rng.random() < 0.5:
            return f"${col + 1}=${same[0] + 1}", rows
        return f"${col + 1}='person{self._ssn_literal()}'", min(rows, 1)

    def leaf(self) -> tuple[str, tuple, Bound]:
        rng = self.rng
        name = rng.choice(sorted(self.sizes))
        bound = Bound(self.sizes[name], 3, 0)
        if rng.random() < 0.5:
            return name, HR_TYPES, bound
        pred, rows = self._predicate(HR_TYPES, bound.rows)
        return f"sigma[{pred}]({name})", HR_TYPES, _unary(bound, rows, 3)

    def gen(self, levels: int) -> tuple[str, tuple, Bound]:
        rng = self.rng
        if levels <= 0:
            return self.leaf()
        kind = rng.choice(["pi", "pi", "sigma", "U", "-", "&", "x"])
        if kind in ("pi", "sigma"):
            text, types, b = self.gen(levels - 1)
            if kind == "sigma":
                pred, rows = self._predicate(types, b.rows)
                return f"sigma[{pred}]({text})", types, _unary(b, rows, b.width)
            cols = sorted(rng.sample(range(len(types)), rng.randint(1, len(types))))
            return (
                f"pi[{','.join(str(c + 1) for c in cols)}]({text})",
                tuple(types[c] for c in cols),
                _unary(b, b.rows, len(cols)),
            )
        left, lt, lb = self.gen(levels - 1)
        if kind == "x":
            right, rt, rb = self.gen(levels - 1)
            return f"({left}) x ({right})", lt + rt, _binary("x", lb, rb)
        right, rt, rb = self.gen(levels - 1)
        if rt != lt:
            # Make the right side union-compatible with the left.
            cols = self._columns_like(lt, rt)
            if cols is None:
                return left, lt, lb
            right = f"pi[{','.join(str(c + 1) for c in cols)}]({right})"
            rb = _unary(rb, rb.rows, len(cols))
        return f"({left}) {kind} ({right})", lt, _binary(kind, lb, rb)

    def _columns_like(self, want: tuple, have: tuple) -> Optional[list]:
        cols = []
        for t in want:
            options = [i for i, h in enumerate(have) if h == t]
            if not options:
                return None
            cols.append(self.rng.choice(options))
        return cols

    def query(self) -> tuple[str, int]:
        """One capped query text (1-3 operator levels) and its bound."""
        while True:
            text, _, bound = self.gen(self.rng.randint(1, 3))
            if 0 < bound.work <= self.cap and bound.rows > 0:
                return text, bound.work

    def deep_chain(self, depth: int) -> tuple[str, int]:
        """A selection chain deeper than ``MAX_PIPELINE_DEPTH`` over a
        window of one relation (``sigma`` chains are not fused by the
        rewriter, so the depth survives optimization)."""
        rng = self.rng
        name = rng.choice(["employees", "students"])
        lo = SSN_BASE + rng.randrange(self.sizes[name] // 2)
        window = rng.randrange(100, 300)
        text = f"sigma[$1<{lo + window}](sigma[$1>{lo}]({name}))"
        for _ in range(depth - 2):
            k = lo - rng.randrange(1, 50)
            text = f"sigma[$1>{k}]({text})"
        return text, depth * window * 3

    def distinct(self, count: int, taken: set) -> list[tuple[str, int]]:
        """``count`` query shapes not in ``taken`` (which grows)."""
        out = []
        while len(out) < count:
            text, work = self.query()
            if text not in taken:
                taken.add(text)
                out.append((text, work))
        return out


_SSN_LITERAL = re.compile(r"(\$\d+)([<>])(-?\d+)")
_NAME_LITERAL = re.compile(r"'person\d+'")


def jitter(text: str, rng: random.Random, spec: HRSpec) -> str:
    """The seed's variant of a query shape: ``$i<K`` becomes ``$i<K-j``
    and ``$i>K`` becomes ``$i>K+j`` (``0 <= j <= JITTER``, so the
    shape's row bounds still hold) and name literals are redrawn."""

    def ssn(match) -> str:
        col, op, k = match.groups()
        j = rng.randrange(JITTER + 1)
        return f"{col}{op}{int(k) - j if op == '<' else int(k) + j}"

    def name(_match) -> str:
        return f"'person{rng.randrange(SSN_BASE, spec.max_ssn)}'"

    return _NAME_LITERAL.sub(name, _SSN_LITERAL.sub(ssn, text))


def seeded_texts(shapes: list, rng: random.Random, spec: HRSpec) -> list:
    """Jitter every shape, redrawing until the texts are distinct."""
    out, seen = [], set()
    for shape, work in shapes:
        text = jitter(shape, rng, spec)
        while text in seen:
            text = jitter(shape, rng, spec)
        seen.add(text)
        out.append((text, work))
    return out


# ----------------------------------------------------------------------
# random_plan objects with joins and maps, for Database.run.


def _window_scans(
    plan: Plan, rng: random.Random, seeded: random.Random, windows: dict
) -> Plan:
    """Replace every scan with a select over an ssn window (width from
    the shape stream, position moved by the seed), so products and
    joins of random plans stay within the work cap."""
    if isinstance(plan, Scan):
        lo = SSN_BASE + rng.randrange(2000) + seeded.randrange(JITTER + 1)
        hi = lo + rng.randrange(20, 80)
        name = f"ssn_in_{lo}_{hi}"
        windows[name] = hi - lo
        return Select(name, lambda t, lo=lo, hi=hi: lo <= t[0] < hi, plan)
    return plan.with_children(
        tuple(_window_scans(c, rng, seeded, windows) for c in plan.children())
    )


def plan_objects(
    rng: random.Random, seeded: random.Random, spec: HRSpec, count: int,
    cap: int,
) -> list[tuple[Plan, int]]:
    """``count`` capped ``random_plan(..., base_arity=3)`` plans that
    contain a join or a map (the nodes the text grammar lacks)."""
    names = ["employees", "students", "contractors"]
    sizes = spec.sizes()
    out = []
    while len(out) < count:
        windows: dict = {}
        plan = _window_scans(
            random_plan(rng, names, base_arity=3, depth=rng.randint(2, 3)),
            rng,
            seeded,
            windows,
        )
        kinds = set()
        stack = [plan]
        while stack:
            node = stack.pop()
            kinds.add(type(node))
            stack.extend(node.children())
        if not kinds & {Join, MapNode}:
            continue
        bound = plan_bound(plan, sizes, windows)
        if 0 < bound.work <= cap:
            out.append((plan, bound.work))
    return out


# ----------------------------------------------------------------------
# Workload inputs.

#: Workload sizes (rows) and per-query work caps.
WARM_SPEC = HRSpec(employees=1600, students=800, overlap=200)
COLD_SPEC = HRSpec(employees=8000, students=4000, overlap=1000)
WARM_QUERIES = 64
WARM_CAP = 60_000
COLD_TEXT = 240
COLD_PLANS = 48
COLD_DEEP = 12
COLD_DEEP_RANGE = (136, 160)
COLD_CAP = 200_000
WAL_HOT = 16
WAL_CAP = 30_000
#: One insert per ``WAL_BLOCK`` operations (1:4 inserts to queries).
WAL_BLOCK = 5
WAL_CHECKPOINT_EVERY = 64


@dataclass
class Op:
    """One operation: ``kind`` is ``"query"`` (text through
    ``Database.query``), ``"plan"`` (object through ``Database.run``) or
    ``"insert"`` (one row into ``relation``)."""

    kind: str
    item: object
    relation: str = ""
    index: int = 0  # position in the workload's distinct-item corpus


@dataclass
class Inputs:
    workload: str
    seed: int
    spec: HRSpec
    rows: dict
    corpus: list  # distinct Ops, in cycle order (queries and plans)
    warmup: list
    max_work_bound: int
    next_ssn: int


def insert_ops(inputs: "Inputs"):
    """Single-row inserts of fresh ssns in ``person(ssn)`` form, three
    in four into ``employees``, the rest into ``students``, so declared
    keys hold and the section-4.4 rewrites stay licensed."""
    rng = random.Random(f"perfbench/{inputs.workload}/{inputs.seed}/inserts")
    ssn = inputs.next_ssn
    while True:
        relation = "students" if rng.random() < 0.25 else "employees"
        yield Op("insert", person(ssn), relation)
        ssn += 1 + rng.randrange(3)


def make_inputs(workload: str, seed: int) -> Inputs:
    shapes = random.Random(f"perfbench/{workload}/shapes")
    rng = random.Random(f"perfbench/{workload}/{seed}")
    if workload == "warm_text":
        spec = WARM_SPEC
        gen = TextGen(shapes, spec, WARM_CAP)
        texts = [(q, 0) for q in EOPT_QUERIES] + seeded_texts(
            gen.distinct(WARM_QUERIES - 2, set(EOPT_QUERIES)), rng, spec
        )
        items = [("query", t, w) for t, w in texts]
        passes = 2  # of warm-up: every timed query is then a cache hit
    elif workload == "cold_corpus":
        spec = COLD_SPEC
        gen = TextGen(shapes, spec, COLD_CAP)
        texts = gen.distinct(COLD_TEXT - 2, set(EOPT_QUERIES))
        texts += [
            gen.deep_chain(shapes.randint(*COLD_DEEP_RANGE))
            for _ in range(COLD_DEEP)
        ]
        items = [("query", q, 0) for q in EOPT_QUERIES]
        items += [("query", t, w) for t, w in seeded_texts(texts, rng, spec)]
        items += [
            ("plan", p, w)
            for p, w in plan_objects(shapes, rng, spec, COLD_PLANS, COLD_CAP)
        ]
        shapes.shuffle(items)
        passes = 0  # warm up on the E-OPT-COST pair only (same every seed)
    elif workload == "wal_mix":
        spec = WARM_SPEC
        gen = TextGen(shapes, spec, WAL_CAP)
        texts = [(q, 0) for q in EOPT_QUERIES] + seeded_texts(
            gen.distinct(WAL_HOT - 2, set(EOPT_QUERIES)), rng, spec
        )
        items = [("query", t, w) for t, w in texts]
        passes = 1
    else:
        raise ValueError(f"unknown workload {workload!r}")
    corpus = [Op(k, x, index=i) for i, (k, x, _) in enumerate(items)]
    if passes:
        warmup = corpus * passes
    else:
        warmup = [op for op in corpus if op.item in EOPT_QUERIES]
    return Inputs(
        workload=workload,
        seed=seed,
        spec=spec,
        rows=spec.rows(rng),
        corpus=corpus,
        warmup=warmup,
        max_work_bound=max(w for _, _, w in items),
        next_ssn=spec.max_ssn + 1 + rng.randrange(1000),
    )


def op_stream(inputs: Inputs):
    """The workload's operations, in order, without end.

    Read workloads cycle their corpus.  ``wal_mix`` draws a query from
    the hot set for each slot and puts one insert at a seeded position
    in every block of ``WAL_BLOCK`` operations."""
    if inputs.workload != "wal_mix":
        while True:
            yield from inputs.corpus
    rng = random.Random(f"perfbench/{inputs.workload}/{inputs.seed}/mix")
    inserts = insert_ops(inputs)
    while True:
        slot = rng.randrange(WAL_BLOCK)
        for i in range(WAL_BLOCK):
            yield next(inserts) if i == slot else rng.choice(inputs.corpus)
