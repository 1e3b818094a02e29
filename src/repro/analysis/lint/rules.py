"""The initial PLMR lint rule catalogue.

Five rules, mirroring the invariants the mesh machine, the paper's PLMR
model and the placement planner rely on:

* ``raw-trace-record`` — kernels must not call ``Trace.record_*``
  directly, and only the trace, machine and program modules may mutate
  a trace in place;
* ``unseeded-rng`` — no unseeded ``random`` / ``np.random`` use inside
  ``src/repro`` (traces and fault schedules must replay byte-identically);
* ``non-neighbour-shift`` — literal coordinates in kernel communication
  calls must stay within the 2-hop INTERLEAVE bound;
* ``region-carveout-outside-planner`` — region carve-outs come from
  ``repro.placement``, where they are searched and validated;
* ``bare-advance-step`` — stepping belongs to ``machine.phase()`` scopes,
  not loose ``advance_step()`` calls that leave events unscoped.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from repro.analysis.findings import Finding
from repro.analysis.lint.engine import (
    LintRule,
    ModuleRecord,
    call_name,
    register_rule,
)

Coord = Tuple[int, int]

#: Path fragments (repo-relative, ``/``-separated) of kernel modules —
#: the code that builds flows and drives the machine.
KERNEL_PATH_FRAGMENTS = (
    "src/repro/gemm/",
    "src/repro/gemv/",
    "src/repro/collectives/",
    "src/repro/ops/",
    "src/repro/llm/",
)


def _literal_coord(node: ast.AST) -> Optional[Coord]:
    """``(x, y)`` when the node is a literal pair of non-negative ints."""
    if not isinstance(node, ast.Tuple) or len(node.elts) != 2:
        return None
    values: List[int] = []
    for elt in node.elts:
        if isinstance(elt, ast.Constant) and isinstance(elt.value, int):
            values.append(elt.value)
        else:
            return None
    return (values[0], values[1])


def _manhattan(a: Coord, b: Coord) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


#: The containers of a :class:`~repro.mesh.trace.Trace`.  A sealed launch
#: record is shared by every warm launch of its program, so mutating one
#: in place would rewrite every launch that listed it.
TRACE_CONTAINERS = frozenset({
    "comms", "computes", "barriers", "_scopes", "core_peak_bytes",
    "_colours_per_core",
})
#: In-place mutators of the list, dict and set containers above.
CONTAINER_MUTATORS = frozenset({
    "append", "extend", "insert", "pop", "remove", "clear", "sort",
    "reverse", "update", "setdefault", "popitem", "add", "discard",
    "difference_update", "intersection_update",
    "symmetric_difference_update",
})


def _foreign_attr(node: ast.AST, names: frozenset) -> Optional[str]:
    """The attribute name when ``node`` is ``<expr>.<name>`` with ``name``
    in ``names`` and ``<expr>`` not bare ``self`` (a class mutating its
    own same-named field is not touching a trace's)."""
    if (
        isinstance(node, ast.Attribute)
        and node.attr in names
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
    ):
        return node.attr
    return None


def _trace_container(node: ast.AST) -> Optional[str]:
    """The container name when ``node`` is a trace container or one of
    its items (``t.comms``, ``t._colours_per_core[c]``)."""
    if isinstance(node, ast.Subscript):
        node = node.value
    return _foreign_attr(node, TRACE_CONTAINERS)


def _flat_targets(targets) -> Iterator[ast.AST]:
    """Assignment targets with tuple/list unpacking flattened."""
    for target in targets:
        if isinstance(target, (ast.Tuple, ast.List)):
            yield from _flat_targets(target.elts)
        else:
            yield target


@register_rule
class RawTraceRecordRule(LintRule):
    """No raw ``Trace.record_*`` calls outside the machine, and no trace
    mutation outside the modules that own traces.

    The replayable phase stream depends on every event carrying its
    phase scope, per-flow detail, and per-core MAC list — which only the
    ``MeshMachine`` wrappers fill in.  Only the machine (and the trace
    module that defines the API) may record directly.  A captured
    program's sealed launch record is one trace shared by every warm
    launch of it, so only the trace, machine and program modules may
    change a trace's containers in place, or assign its
    ``peak_memory_bytes``; everyone else reads.
    """

    rule_id = "raw-trace-record"
    description = (
        "Trace.record_* called outside repro/mesh/machine.py, or a trace "
        "mutated outside repro/mesh/{trace,machine,program}.py"
    )

    ALLOWED_SUFFIXES = ("src/repro/mesh/machine.py", "src/repro/mesh/trace.py")
    MUTATION_ALLOWED_SUFFIXES = ALLOWED_SUFFIXES + ("src/repro/mesh/program.py",)
    PEAK = frozenset({"peak_memory_bytes"})
    RECORD_METHODS = frozenset({"record_comm", "record_compute", "record_barrier"})

    def applies_to(self, rel_path: str) -> bool:
        return not rel_path.endswith(self.ALLOWED_SUFFIXES)

    def check(self, module: ModuleRecord) -> Iterator[Finding]:
        for node in module.nodes(ast.Call):
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in self.RECORD_METHODS
            ):
                yield self.finding(
                    module,
                    node,
                    f"direct trace recording ({node.func.attr}); route it "
                    "through machine.communicate / compute / barrier so the "
                    "phase stream stays replayable",
                )
        if not module.rel_path.endswith(self.MUTATION_ALLOWED_SUFFIXES):
            yield from self._mutations(module)

    def _mutations(self, module: ModuleRecord) -> Iterator[Finding]:
        for node in module.nodes(
            (ast.Call, ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)
        ):
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in CONTAINER_MUTATORS
                ):
                    name = _trace_container(func.value)
                    if name is not None:
                        yield self._mutation(
                            module, node, f"{name}.{func.attr}()"
                        )
                continue
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = node.targets
            else:
                targets = [node.target]
            for target in _flat_targets(targets):
                name = _trace_container(target) or _foreign_attr(
                    target, self.PEAK
                )
                if name is not None:
                    yield self._mutation(module, target, name)

    def _mutation(
        self, module: ModuleRecord, node: ast.AST, what: str
    ) -> Finding:
        return self.finding(
            module,
            node,
            f"trace mutated in place ({what}); a sealed launch record is "
            "shared by every warm launch of its program — build a new "
            "Trace instead",
        )


@register_rule
class UnseededRngRule(LintRule):
    """No unseeded randomness in ``src/repro``.

    Traces, defect maps, and fault schedules must replay byte-identically
    from their seeds; module-level ``random.*`` / legacy ``np.random.*``
    state (or a no-argument ``Random()`` / ``default_rng()``) breaks that.
    """

    rule_id = "unseeded-rng"
    description = "unseeded random/np.random use in src/repro"

    #: ``numpy.random`` names that build explicit generators.
    NP_EXPLICIT = frozenset({"Generator", "SeedSequence", "PCG64", "Philox"})

    def applies_to(self, rel_path: str) -> bool:
        return "src/repro/" in rel_path or rel_path.startswith("src/repro")

    def check(self, module: ModuleRecord) -> Iterator[Finding]:
        for node in module.nodes(ast.Call):
            func = node.func
            parts = (module.qualified(func) or "").split(".")
            unseeded = not node.args and not node.keywords
            if len(parts) == 2 and parts[0] == "random":
                attr = parts[1]
                if attr == "Random":
                    if unseeded:
                        yield self.finding(
                            module, node,
                            "random.Random() without a seed — pass an "
                            "explicit seed so runs replay deterministically",
                        )
                elif isinstance(func, ast.Attribute):
                    yield self.finding(
                        module, node,
                        f"random.{attr}() uses the global (unseeded) RNG "
                        "— use a seeded random.Random instance",
                    )
                elif attr != "SystemRandom":
                    # from random import shuffle; shuffle(...)
                    yield self.finding(
                        module, node,
                        f"{func.id}() from the random module uses global RNG "
                        "state — use a seeded random.Random instance",
                    )
            elif len(parts) == 3 and parts[:2] == ["numpy", "random"]:
                attr = parts[2]
                if attr == "default_rng":
                    if unseeded:
                        yield self.finding(
                            module, node,
                            "np.random.default_rng() without a seed — pass an "
                            "explicit seed so runs replay deterministically",
                        )
                elif attr not in self.NP_EXPLICIT:
                    yield self.finding(
                        module, node,
                        f"np.random.{attr}() uses numpy's legacy global RNG — "
                        "use a seeded np.random.default_rng generator",
                    )


@register_rule
class NonNeighbourShiftRule(LintRule):
    """Literal coordinates in kernel flows must respect the 2-hop bound.

    Under INTERLEAVE placement every cyclic shift is at most 2 physical
    hops; a kernel hard-coding a farther literal pair is either not a
    shift (and should say so) or an L violation waiting for the
    sanitizer.  Only literal ``(x, y)`` pairs are checked — computed
    coordinates are the sanitizer's job at runtime.
    """

    rule_id = "non-neighbour-shift"
    description = "literal flow coordinates farther than 2 hops in kernel code"

    HOP_BOUND = 2

    def applies_to(self, rel_path: str) -> bool:
        return any(fragment in rel_path for fragment in KERNEL_PATH_FRAGMENTS)

    def check(self, module: ModuleRecord) -> Iterator[Finding]:
        for node in module.nodes(ast.Call):
            name = call_name(node.func)
            if name in ("unicast", "point_to_point"):
                coords = [c for c in map(_literal_coord, node.args) if c]
                if len(coords) >= 2:
                    yield from self._check_pair(
                        module, node, name, coords[0], coords[1]
                    )
            elif name == "multicast":
                src = _literal_coord(node.args[0]) if node.args else None
                dsts_node = node.args[1] if len(node.args) > 1 else None
                if src and isinstance(dsts_node, (ast.List, ast.Tuple)):
                    for elt in dsts_node.elts:
                        dst = _literal_coord(elt)
                        if dst:
                            yield from self._check_pair(
                                module, node, name, src, dst
                            )
            elif name == "shift_named":
                for arg in node.args:
                    if isinstance(arg, ast.Dict):
                        for key, value in zip(arg.keys, arg.values):
                            src = _literal_coord(key) if key else None
                            dst = _literal_coord(value)
                            if src and dst:
                                yield from self._check_pair(
                                    module, node, name, src, dst
                                )

    def _check_pair(
        self, module: ModuleRecord, node: ast.AST, via: str, src: Coord,
        dst: Coord,
    ) -> Iterator[Finding]:
        hops = _manhattan(src, dst)
        if hops > self.HOP_BOUND:
            yield self.finding(
                module, node,
                f"{via} from {src} to {dst} is {hops} hops — kernel flows "
                f"must stay within the {self.HOP_BOUND}-hop INTERLEAVE bound",
            )


@register_rule
class RegionCarveOutOutsidePlannerRule(LintRule):
    """Region carve-outs are planner output, not ad-hoc layout decisions.

    The placement subsystem searches, scores, and *validates* every
    region it emits; a ``RegionCarveOut(...)`` constructed elsewhere in
    ``src/repro`` bypasses that pipeline — it is exactly the fragmented
    placement logic the planner refactor removed.  Other layers obtain
    regions from a :class:`~repro.placement.plan.PlacementPlan` or the
    helpers in :mod:`repro.placement.plan`.  No construction outside the
    subsystem is allowed inline or baselined.
    """

    rule_id = "region-carveout-outside-planner"
    description = "RegionCarveOut constructed outside src/repro/placement/"

    def applies_to(self, rel_path: str) -> bool:
        return "src/repro/" in rel_path and "src/repro/placement/" not in rel_path

    def check(self, module: ModuleRecord) -> Iterator[Finding]:
        for node in module.nodes(ast.Call):
            if call_name(node.func) == "RegionCarveOut":
                yield self.finding(
                    module, node,
                    "direct RegionCarveOut construction outside the "
                    "placement subsystem; obtain regions from a "
                    "PlacementPlan (or repro.placement.plan helpers) so "
                    "they are searched and validated, not hand-chosen",
                )


@register_rule
class BareAdvanceStepRule(LintRule):
    """No bare ``advance_step()`` outside the machine.

    The step counter advances when a ``machine.phase()`` scope exits;
    loose ``advance_step()`` calls leave the events around them unscoped,
    which the reconciler lowers as degenerate singleton phases.
    """

    rule_id = "bare-advance-step"
    description = "bare advance_step() outside machine.phase() scopes"

    ALLOWED_SUFFIXES = ("src/repro/mesh/machine.py",)

    def applies_to(self, rel_path: str) -> bool:
        return not rel_path.endswith(self.ALLOWED_SUFFIXES)

    def check(self, module: ModuleRecord) -> Iterator[Finding]:
        for node in module.nodes(ast.Call):
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "advance_step"
            ):
                yield self.finding(
                    module, node,
                    "bare advance_step(); wrap the phase's events in a "
                    "machine.phase(...) scope, which advances the step on exit",
                )
