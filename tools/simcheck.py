#!/usr/bin/env python3
"""simcheck: dimensional analysis + request-lifecycle exhaustiveness.

A whole-program static pass over the simulator, complementing
``tools/repro_lint.py`` (which catches *nondeterminism*) with two checks
that catch *meaning* bugs the type checker cannot see:

**Pass U — dimensional analysis.**  Every priced quantity in the
simulator is a bare ``float``/``int``; what keeps seconds from being
added to tokens is a naming convention (``_s``, ``_tokens``, ``_blocks``,
``_bytes``, ``_ms``, …) plus the typed aliases in :mod:`repro.units`
annotating the hot-path surfaces.  simcheck seeds a per-function dataflow
from both sources and propagates units through assignments, arithmetic
and calls (a whole-program signature map covers cross-function flow):

======  ==========================  ==========================================
ID      name                        catches
======  ==========================  ==========================================
U001    unit-mixing                 ``+``/``-``/comparison (or assignment)
                                    between quantities of different units —
                                    the classic seconds-vs-milliseconds and
                                    tokens-vs-blocks confusions
U002    unit-mismatched-call        an argument or return value whose unit
                                    disagrees with the callee's declared
                                    parameter/return unit
U003    unannotated-quantity        a public, unit-suffixed function, param
                                    or attribute on an annotated-surface
                                    module that does not carry its
                                    :mod:`repro.units` alias
======  ==========================  ==========================================

**Pass L — lifecycle exhaustiveness.**  The request state machine is
declared once, as data, in :mod:`repro.serving.lifecycle`; the engine
mutates phases only through ``lifecycle.transition(state, "<edge>")``.
simcheck parses the declaration *and* every mutation site and proves the
two agree:

======  ==========================  ==========================================
ID      name                        catches
======  ==========================  ==========================================
L001    undeclared-transition       a ``transition()`` call naming an edge
                                    the spec does not declare, a non-literal
                                    edge argument (unverifiable), or a bare
                                    ``.phase = ...`` write outside the spec
L002    dead-edge                   a declared edge no ``transition()`` call
                                    ever takes (anchored at its declaration
                                    line in ``lifecycle.py``)
L003    missing-hook                a transition site whose enclosing
                                    function never touches the edge's
                                    declared accounting hook (the phase
                                    changed but the books did not)
======  ==========================  ==========================================

Both passes share one AST parse per file (the module cache below), one
suppression syntax (``# repro-lint: disable=U001``) and one findings
model with repro_lint — see :mod:`repro.lintkit`.

Usage
-----

.. code-block:: bash

    python tools/simcheck.py src/            # check a tree, exit 1 on findings
    python tools/simcheck.py --list-rules    # print the rule catalogue
    python tools/simcheck.py --format github src/   # CI annotations
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

# Shared findings model / unit vocabulary live in the package; resolve
# src/ from the repo layout so `python tools/simcheck.py` works without
# an installed package or PYTHONPATH.
_SRC = str(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.lintkit import (  # noqa: E402  (path bootstrap above)
    OUTPUT_FORMATS, Finding, emit_findings, filter_suppressed,
)
from repro.units import UNIT_ALIASES, suffix_unit  # noqa: E402

__all__ = ["RULES", "ParsedModule", "parse_module", "check_modules",
           "check_paths", "main"]


def _fixture(rule_id: str) -> str:
    return f"tests/test_simcheck.py::TRIGGERS[{rule_id!r}]"


#: Rule catalogue: ID -> (name, one-line description, fixture reference).
RULES: Dict[str, tuple] = {
    "U001": (
        "unit-mixing",
        "quantities of different units meet in +/-/comparison/assignment; "
        "convert explicitly (the conversion factor carries the proof)",
        _fixture("U001"),
    ),
    "U002": (
        "unit-mismatched-call",
        "argument or return value unit disagrees with the callee's "
        "declared parameter/return unit",
        _fixture("U002"),
    ),
    "U003": (
        "unannotated-quantity",
        "public unit-suffixed quantity on an annotated-surface module "
        "lacks its repro.units alias annotation",
        _fixture("U003"),
    ),
    "L001": (
        "undeclared-transition",
        "lifecycle mutation outside the declared state machine: unknown "
        "edge name, non-literal edge argument, or a bare .phase write",
        _fixture("L001"),
    ),
    "L002": (
        "dead-edge",
        "declared lifecycle edge is never taken by any transition() call "
        "in the checked tree",
        _fixture("L002"),
    ),
    "L003": (
        "missing-hook",
        "transition site's enclosing function never touches the edge's "
        "declared accounting hook",
        _fixture("L003"),
    ),
}

#: Module-path suffixes held to the U003 annotation bar: the hot-path
#: pricing surfaces whose public quantities must carry unit aliases.
STRICT_UNIT_MODULES: Tuple[str, ...] = (
    "repro/serving/engine.py",
    "repro/serving/instance.py",
    "repro/serving/cluster.py",
    "repro/serving/metrics.py",
    "repro/serving/events.py",
    "repro/serving/sweep.py",
    "repro/serving/lifecycle.py",
    "repro/memory/paged_kv.py",
    "repro/memory/kv_cache.py",
    "repro/memory/hbm.py",
    "repro/core/multi_node.py",
    "repro/workloads/traces.py",
)

#: Unit pairs treated as interchangeable everywhere: a ``BlockId`` is an
#: index into a pool of ``Blocks``, so id-vs-count bounds checks
#: (``block < total_blocks``) are idiomatic, not bugs.
_UNIFIABLE: Tuple[Set[str], ...] = ({"Blocks", "BlockId"},)

#: Builtins through which a unit passes unchanged (sum of seconds is
#: seconds; min of two timestamps is a timestamp).
_UNIT_PRESERVING_BUILTINS = {"min", "max", "abs", "round", "sum", "float",
                             "int", "sorted"}


def _compatible(a: Optional[str], b: Optional[str]) -> bool:
    """Units that may legally meet: either unknown, equal, or unifiable."""
    if a is None or b is None or a == b:
        return True
    return any(a in group and b in group for group in _UNIFIABLE)


def _name_unit(name: str) -> Optional[str]:
    """Unit a bare identifier implies: suffix convention, plus ``now``
    (the event loop's clock variable, by project-wide convention)."""
    if name == "now":
        return "Seconds"
    return suffix_unit(name)


def _annotation_unit(node: Optional[ast.AST]) -> Optional[str]:
    """Unit an annotation expression pins: a bare alias name, possibly
    wrapped in ``Optional[...]``.  Containers yield ``None`` — a
    ``List[Seconds]`` is not itself a Seconds."""
    if node is None:
        return None
    if isinstance(node, ast.Name) and node.id in UNIT_ALIASES:
        return node.id
    if isinstance(node, ast.Attribute) and node.attr in UNIT_ALIASES:
        return node.attr
    if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "Optional"):
        return _annotation_unit(node.slice)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:  # string annotation ("Seconds")
            return _annotation_unit(ast.parse(node.value, mode="eval").body)
        except SyntaxError:
            return None
    return None


def _mentions_any(node: Optional[ast.AST], names: Set[str]) -> bool:
    """Does the annotation expression reference any of ``names`` anywhere
    (``Seconds``, ``Optional[Seconds]``, ``Dict[str, Seconds]``, …)?"""
    if node is None:
        return False
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return False
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in names:
            return True
        if isinstance(sub, ast.Attribute) and sub.attr in names:
            return True
    return False


def _accepted_aliases(unit: str) -> Set[str]:
    accepted = {unit}
    for group in _UNIFIABLE:
        if unit in group:
            accepted |= group
    return accepted


def _terminal_name(node: ast.AST) -> str:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


# ---------------------------------------------------------------------------
# shared parse cache (one ast.parse per file, reused by both passes)
# ---------------------------------------------------------------------------
@dataclass
class ParsedModule:
    """One parsed source file, shared between the U- and L-passes."""

    path: str
    source: str
    tree: ast.Module

    @property
    def norm_path(self) -> str:
        return self.path.replace(os.sep, "/")

    def is_strict(self) -> bool:
        return self.norm_path.endswith(STRICT_UNIT_MODULES)

    def is_lifecycle_spec(self) -> bool:
        return os.path.basename(self.path) == "lifecycle.py"


def parse_module(source: str, path: str = "<string>") -> ParsedModule:
    return ParsedModule(path=path, source=source,
                        tree=ast.parse(source, filename=path))


# ---------------------------------------------------------------------------
# pass U: whole-program signature map
# ---------------------------------------------------------------------------
@dataclass
class _Signature:
    """Declared units of one function's params and return."""

    params: List[Tuple[str, Optional[str]]]  # (name, unit), self/cls dropped
    ret: Optional[str]


def _signature_of(func: ast.AST) -> _Signature:
    params: List[Tuple[str, Optional[str]]] = []
    args = func.args
    positional = list(args.posonlyargs) + list(args.args)
    if positional and positional[0].arg in ("self", "cls"):
        positional = positional[1:]
    for arg in positional:
        unit = _annotation_unit(arg.annotation) or _name_unit(arg.arg)
        params.append((arg.arg, unit))
    ret = _annotation_unit(func.returns) or _name_unit(func.name)
    return _Signature(params=params, ret=ret)


def _build_signatures(modules: Sequence[ParsedModule]) -> Dict[str, _Signature]:
    """Map simple function name -> declared signature, whole program.
    Names declared more than once with *conflicting* unit shapes are
    dropped (ambiguous resolution must not produce findings)."""
    out: Dict[str, Optional[_Signature]] = {}
    for module in modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("__"):
                continue
            sig = _signature_of(node)
            if node.name in out:
                prior = out[node.name]
                if prior is not None and (prior.params != sig.params
                                          or prior.ret != sig.ret):
                    out[node.name] = None
            else:
                out[node.name] = sig
    return {name: sig for name, sig in out.items() if sig is not None}


# ---------------------------------------------------------------------------
# pass U: per-module checker
# ---------------------------------------------------------------------------
class _UnitChecker(ast.NodeVisitor):
    """Seed units from annotations + the suffix convention, propagate
    through local dataflow, and flag mixes/mismatches."""

    def __init__(self, module: ParsedModule,
                 signatures: Dict[str, _Signature]) -> None:
        self.module = module
        self.signatures = signatures
        self.findings: List[Finding] = []
        self._env_stack: List[Dict[str, Optional[str]]] = [{}]
        self._ret_stack: List[Optional[str]] = [None]
        self._class_depth = 0

    # -- plumbing --------------------------------------------------------

    def _emit(self, node: ast.AST, rule: str, message: str) -> None:
        name = RULES[rule][0]
        self.findings.append(Finding(
            path=self.module.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            rule=rule,
            message=f"[{name}] {message}",
        ))

    @property
    def _env(self) -> Dict[str, Optional[str]]:
        return self._env_stack[-1]

    # -- unit inference (pure; never emits) ------------------------------

    def _unit(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name):
            if node.id in self._env:
                return self._env[node.id]
            return _name_unit(node.id)
        if isinstance(node, ast.Attribute):
            return _name_unit(node.attr)
        if isinstance(node, ast.Subscript):
            # element of a suffixed container carries the element unit
            return self._unit(node.value)
        if isinstance(node, ast.Call):
            name = _terminal_name(node.func)
            if name in _UNIT_PRESERVING_BUILTINS and name not in self.signatures:
                for arg in node.args:
                    if isinstance(arg, ast.Starred):
                        continue
                    unit = self._unit(arg)
                    if unit is not None:
                        return unit
                return None
            sig = self.signatures.get(name)
            if sig is not None and sig.ret is not None:
                return sig.ret
            return _name_unit(name)
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, (ast.Add, ast.Sub)):
                return self._unit(node.left) or self._unit(node.right)
            return None  # *, /, … change the dimension
        if isinstance(node, ast.UnaryOp):
            return self._unit(node.operand)
        if isinstance(node, ast.IfExp):
            return self._unit(node.body) or self._unit(node.orelse)
        return None

    # -- scopes ----------------------------------------------------------

    def _visit_function(self, node: ast.AST) -> None:
        if self.module.is_strict() and self._class_depth <= 1:
            self._check_annotated_surface(node)
        env: Dict[str, Optional[str]] = {}
        args = node.args
        for arg in (list(args.posonlyargs) + list(args.args)
                    + list(args.kwonlyargs)):
            unit = _annotation_unit(arg.annotation) or _name_unit(arg.arg)
            if unit is not None:
                env[arg.arg] = unit
        self._env_stack.append(env)
        self._ret_stack.append(_annotation_unit(node.returns)
                               or _name_unit(node.name))
        outer_class_depth, self._class_depth = self._class_depth, 0
        self.generic_visit(node)
        self._class_depth = outer_class_depth
        self._ret_stack.pop()
        self._env_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self.module.is_strict() and self._class_depth == 0:
            self._check_class_attributes(node)
        self._class_depth += 1
        self.generic_visit(node)
        self._class_depth -= 1

    # -- U003: the annotation bar on strict modules ----------------------

    def _check_annotated_surface(self, func: ast.AST) -> None:
        if func.name.startswith("_"):
            return
        unit = suffix_unit(func.name)
        if unit is not None and not _mentions_any(func.returns,
                                                 _accepted_aliases(unit)):
            self._emit(func, "U003",
                       f"public function '{func.name}' is suffixed as "
                       f"{unit} but its return annotation does not carry "
                       f"the repro.units.{unit} alias")
        args = func.args
        for arg in (list(args.posonlyargs) + list(args.args)
                    + list(args.kwonlyargs)):
            if arg.arg.startswith("_"):
                continue
            unit = suffix_unit(arg.arg)
            if unit is not None and not _mentions_any(
                    arg.annotation, _accepted_aliases(unit)):
                self._emit(arg, "U003",
                           f"parameter '{arg.arg}' of public function "
                           f"'{func.name}' is suffixed as {unit} but not "
                           f"annotated with the repro.units.{unit} alias")

    def _check_class_attributes(self, cls: ast.ClassDef) -> None:
        if cls.name.startswith("_"):
            return
        for stmt in cls.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name):
                name = stmt.target.id
                if name.startswith("_"):
                    continue
                unit = suffix_unit(name)
                if unit is not None and not _mentions_any(
                        stmt.annotation, _accepted_aliases(unit)):
                    self._emit(stmt, "U003",
                               f"attribute '{cls.name}.{name}' is suffixed "
                               f"as {unit} but not annotated with the "
                               f"repro.units.{unit} alias")

    # -- U001: mixing in arithmetic / comparison / assignment ------------

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, (ast.Add, ast.Sub)):
            left, right = self._unit(node.left), self._unit(node.right)
            if not _compatible(left, right):
                op = "+" if isinstance(node.op, ast.Add) else "-"
                self._emit(node, "U001",
                           f"'{op}' mixes {left} and {right}")
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if isinstance(op, (ast.Is, ast.IsNot, ast.In, ast.NotIn)):
                continue
            lu, ru = self._unit(left), self._unit(right)
            if not _compatible(lu, ru):
                self._emit(node, "U001",
                           f"comparison mixes {lu} and {ru}")
                break
        self.generic_visit(node)

    def _check_store(self, node: ast.AST, target: ast.AST,
                     value: ast.AST) -> Optional[str]:
        """Shared Assign/AugAssign mix check; returns the value's unit."""
        value_unit = self._unit(value)
        target_unit = (self._env.get(target.id, _name_unit(target.id))
                       if isinstance(target, ast.Name)
                       else self._unit(target))
        if isinstance(target, ast.Name) and _name_unit(target.id) is not None:
            target_unit = _name_unit(target.id)  # suffix is the contract
        if not _compatible(target_unit, value_unit):
            self._emit(node, "U001",
                       f"assignment stores {value_unit} into a "
                       f"{target_unit} quantity")
        return value_unit

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                continue  # unpacking: element units unknowable here
            unit = self._check_store(node, target, node.value)
            if isinstance(target, ast.Name):
                self._env[target.id] = _name_unit(target.id) or unit
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.op, (ast.Add, ast.Sub)):
            self._check_store(node, node.target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name):
            declared = _annotation_unit(node.annotation)
            if declared is not None:
                self._env[node.target.id] = declared
                if node.value is not None and not _compatible(
                        declared, self._unit(node.value)):
                    self._emit(node, "U001",
                               f"assignment stores {self._unit(node.value)} "
                               f"into a {declared} quantity")
        self.generic_visit(node)

    # -- U002: call arguments and returns --------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        name = _terminal_name(node.func)
        sig = self.signatures.get(name)
        if sig is not None and name not in _UNIT_PRESERVING_BUILTINS:
            self._check_call(node, name, sig)
        self.generic_visit(node)

    def _check_call(self, node: ast.Call, name: str,
                    sig: _Signature) -> None:
        # positional args align with declared params only for attribute
        # calls (bound methods) or plain-name calls; a *args spread ends
        # the alignment
        for index, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred) or index >= len(sig.params):
                break
            param_name, param_unit = sig.params[index]
            arg_unit = self._unit(arg)
            if not _compatible(param_unit, arg_unit):
                self._emit(arg, "U002",
                           f"argument {index + 1} of {name}() is "
                           f"{arg_unit} but parameter '{param_name}' is "
                           f"declared {param_unit}")
        declared = dict(sig.params)
        for keyword in node.keywords:
            if keyword.arg is None or keyword.arg not in declared:
                continue
            param_unit = declared[keyword.arg]
            arg_unit = self._unit(keyword.value)
            if not _compatible(param_unit, arg_unit):
                self._emit(keyword.value, "U002",
                           f"keyword '{keyword.arg}' of {name}() is "
                           f"{arg_unit} but declared {param_unit}")

    def visit_Return(self, node: ast.Return) -> None:
        declared = self._ret_stack[-1]
        if node.value is not None and declared is not None:
            actual = self._unit(node.value)
            if not _compatible(declared, actual):
                self._emit(node, "U002",
                           f"returns {actual} from a function declared "
                           f"to return {declared}")
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# pass L: lifecycle spec extraction + exhaustiveness
# ---------------------------------------------------------------------------
@dataclass
class _DeclaredEdge:
    name: str
    src: str
    dst: str
    hook: Optional[str]
    line: int


@dataclass
class LifecycleSpec:
    """The state machine as parsed from ``lifecycle.py``'s source."""

    path: str
    edges: Dict[str, _DeclaredEdge] = field(default_factory=dict)


def _literal_str(node: ast.AST,
                 constants: Dict[str, str]) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    name = _terminal_name(node)
    return constants.get(name) if name else None


def extract_lifecycle_spec(module: ParsedModule) -> Optional[LifecycleSpec]:
    """Parse the ``EDGES`` literal out of the spec module's AST.  The
    declaration is *data* precisely so this extraction stays trivial —
    findings against an edge anchor at its declaration line."""
    constants: Dict[str, str] = {}
    edges_node: Optional[ast.AST] = None
    for stmt in module.tree.body:
        targets: List[ast.AST] = []
        value: Optional[ast.AST] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            if (isinstance(value, ast.Constant)
                    and isinstance(value.value, str)):
                constants[target.id] = value.value
            elif target.id == "EDGES":
                edges_node = value
    if edges_node is None or not isinstance(edges_node, (ast.Tuple, ast.List)):
        return None
    constants.setdefault("INITIAL_PHASE", constants.get("QUEUED", "queued"))
    spec = LifecycleSpec(path=module.path)
    for elt in edges_node.elts:
        if not (isinstance(elt, ast.Call)
                and _terminal_name(elt.func) == "LifecycleEdge"):
            continue
        parts = [_literal_str(arg, constants) for arg in elt.args[:3]]
        keywords = {kw.arg: kw.value for kw in elt.keywords if kw.arg}
        hook = None
        if "hook" in keywords:
            hook = _literal_str(keywords["hook"], constants)
        if len(parts) == 3 and all(parts):
            spec.edges[parts[0]] = _DeclaredEdge(
                name=parts[0], src=parts[1], dst=parts[2], hook=hook,
                line=elt.lineno)
    return spec


def _edge_literals(node: ast.AST) -> Optional[List[str]]:
    """Literal edge names an expression can evaluate to (a string, or a
    conditional expression over strings); None when unverifiable."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.IfExp):
        body = _edge_literals(node.body)
        orelse = _edge_literals(node.orelse)
        if body is not None and orelse is not None:
            return body + orelse
    return None


def _function_touches(func: Optional[ast.AST], hook: str) -> bool:
    if func is None:
        return False
    for node in ast.walk(func):
        if isinstance(node, ast.Attribute) and node.attr == hook:
            return True
        if isinstance(node, ast.Name) and node.id == hook:
            return True
    return False


class _LifecycleChecker(ast.NodeVisitor):
    """Extract transition call sites and stray ``.phase`` writes."""

    def __init__(self, module: ParsedModule, spec: LifecycleSpec) -> None:
        self.module = module
        self.spec = spec
        self.findings: List[Finding] = []
        self.taken_edges: Set[str] = set()
        self._func_stack: List[ast.AST] = []

    def _emit(self, node: ast.AST, rule: str, message: str) -> None:
        name = RULES[rule][0]
        self.findings.append(Finding(
            path=self.module.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            rule=rule,
            message=f"[{name}] {message}",
        ))

    def _visit_function(self, node: ast.AST) -> None:
        self._func_stack.append(node)
        self.generic_visit(node)
        self._func_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Call(self, node: ast.Call) -> None:
        if _terminal_name(node.func) == "transition" and len(node.args) >= 2:
            self._check_transition(node)
        self.generic_visit(node)

    def _check_transition(self, node: ast.Call) -> None:
        edge_names = _edge_literals(node.args[1])
        if edge_names is None:
            self._emit(node, "L001",
                       "transition() edge must be a string literal (or a "
                       "conditional over literals) so exhaustiveness is "
                       "statically checkable")
            return
        enclosing = self._func_stack[-1] if self._func_stack else None
        for edge_name in edge_names:
            edge = self.spec.edges.get(edge_name)
            if edge is None:
                self._emit(node, "L001",
                           f"transition takes undeclared edge "
                           f"{edge_name!r}; declared edges: "
                           f"{', '.join(sorted(self.spec.edges))}")
                continue
            self.taken_edges.add(edge_name)
            if edge.hook and not _function_touches(enclosing, edge.hook):
                where = (f"function '{enclosing.name}'" if enclosing
                         else "module scope")
                self._emit(node, "L003",
                           f"edge {edge_name!r} declares accounting hook "
                           f"'{edge.hook}' but {where} never touches it")

    def _check_phase_write(self, node: ast.AST, target: ast.AST,
                           value: Optional[ast.AST]) -> None:
        if not (isinstance(target, ast.Attribute) and target.attr == "phase"):
            return
        if self.module.is_lifecycle_spec():
            return  # transition() itself lives here
        if value is not None and _terminal_name(value) == "INITIAL_PHASE":
            return  # the constructor's sanctioned seed
        self._emit(node, "L001",
                   ".phase is written directly; all transitions must go "
                   "through lifecycle.transition() (constructors may "
                   "assign lifecycle.INITIAL_PHASE)")

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_phase_write(node, target, node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_phase_write(node, node.target, None)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_phase_write(node, node.target, node.value)
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------
def check_modules(modules: Sequence[ParsedModule]) -> List[Finding]:
    """Run both passes over pre-parsed modules (the parse is shared)."""
    findings: List[Finding] = []

    # pass U
    signatures = _build_signatures(modules)
    for module in modules:
        checker = _UnitChecker(module, signatures)
        checker.visit(module.tree)
        findings.extend(checker.findings)

    # pass L (skipped when the spec module is not in the checked set)
    spec: Optional[LifecycleSpec] = None
    for module in modules:
        if module.is_lifecycle_spec():
            spec = extract_lifecycle_spec(module)
            break
    if spec is not None:
        taken: Set[str] = set()
        for module in modules:
            checker = _LifecycleChecker(module, spec)
            checker.visit(module.tree)
            findings.extend(checker.findings)
            taken |= checker.taken_edges
        for edge in spec.edges.values():
            if edge.name not in taken:
                name = RULES["L002"][0]
                findings.append(Finding(
                    path=spec.path, line=edge.line, col=0, rule="L002",
                    message=f"[{name}] edge {edge.name!r} "
                            f"({edge.src} -> {edge.dst}) is declared but "
                            f"no transition() call ever takes it"))

    # per-module suppression filtering (one pass per file's source)
    sources = {module.path: module.source for module in modules}
    kept: List[Finding] = []
    by_path: Dict[str, List[Finding]] = {}
    for finding in findings:
        by_path.setdefault(finding.path, []).append(finding)
    for path, group in by_path.items():
        kept.extend(filter_suppressed(group, sources.get(path, "")))
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return kept


def _iter_py_files(paths: Sequence[str]) -> Iterator[str]:
    for raw in paths:
        if os.path.isdir(raw):
            found = []
            for dirpath, _, filenames in os.walk(raw):
                for filename in filenames:
                    if filename.endswith(".py"):
                        found.append(os.path.join(dirpath, filename))
            yield from sorted(found)
        else:
            yield raw


def check_paths(paths: Sequence[str]) -> List[Finding]:
    """Check every ``.py`` file under ``paths`` (files or directories)."""
    modules = []
    for file in _iter_py_files(paths):
        with open(file, "r", encoding="utf-8") as handle:
            modules.append(parse_module(handle.read(), file))
    return check_modules(modules)


def _print_rules() -> None:
    for rule_id, (name, message, fixture) in sorted(RULES.items()):
        print(f"{rule_id}  {name}")
        print(f"      {message}")
        print(f"      fixtures: {fixture}")


def main(argv: Iterable[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="simcheck", description=__doc__.splitlines()[0]
    )
    parser.add_argument("paths", nargs="*", help="files or directories to check")
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    parser.add_argument(
        "--format", choices=OUTPUT_FORMATS, default="text",
        help="output mode: human text, GitHub workflow-command "
             "annotations, or a JSON findings document",
    )
    args = parser.parse_args(list(argv) if argv is not None else None)
    if args.list_rules:
        _print_rules()
        return 0
    if not args.paths:
        parser.error("no paths given (try: python tools/simcheck.py src/)")
    findings = check_paths(args.paths)
    emit_findings(findings, fmt=args.format, rules=RULES,
                  tool="simcheck", stream=sys.stdout)
    return 1 if findings else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
