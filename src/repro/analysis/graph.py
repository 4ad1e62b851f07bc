"""Whole-program model: per-module summaries, import graph, call graph.

The per-file checkers of PR 1 see one AST at a time, so anything routed
through a helper in another module — an unseeded generator, an ad-hoc
seed derivation, a ``Table`` with the wrong columns — escapes them.
This module turns the tree into data the flow-sensitive rules (REP102
rng-provenance, REP202 cross-module schema flow) can reason over:

* a :class:`ModuleSummary` per file — imports, module-level function
  signatures, RNG constructions with their entropy provenance, every
  call site with *symbolic* argument values, per-function *effect*
  sites (module-global writes, mutable-default mutation, env/fs/
  process effects, unordered-collection iteration) and every
  process-boundary ship site (pool submissions, ``Process`` targets,
  result pipes, disk-cache payloads);
* a :class:`ProjectGraph` over all summaries — the package-internal
  import graph (and its transitive closure, which keys the incremental
  cache), a qualified-name function index resolved through package
  ``__init__`` re-exports, entropy-parameter propagation, per-function
  input-schema inference from call sites, and the worker-reachability
  fixpoint the parallel-safety rules (REP103/REP203/REP303, DESIGN
  §11) consult.

Summaries hold no AST nodes; they are small, picklable and cached on
disk keyed by the file's content hash, so a warm run rebuilds the whole
graph without parsing a single file.

The RNG taint lattice (see DESIGN §10)::

    GOOD < UNKNOWN < LITERAL ~ ADHOC < UNSEEDED

``GOOD`` means provably derived from a caller-supplied value or a
``SeedSequence``/``spawn`` chain; ``LITERAL`` is a hard-coded seed,
``ADHOC`` arithmetic seed derivation (``seed + 10`` — use
``SeedSequence.spawn`` instead), ``UNSEEDED`` OS entropy. ``UNKNOWN``
(an expression the analysis cannot classify) is deliberately *not*
reported: the rules only flag provable taint, never uncertainty.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = [
    "GOOD",
    "UNKNOWN",
    "LITERAL",
    "ADHOC",
    "UNSEEDED",
    "SymVal",
    "RngConstruction",
    "CallSite",
    "EffectSite",
    "ShippedValue",
    "BoundarySite",
    "FunctionSummary",
    "ImportMap",
    "ImportSite",
    "ModuleSummary",
    "ProjectGraph",
    "resolve_from_module",
    "summarize_module",
    "build_project_graph",
]

# -- effect lattice -----------------------------------------------------------

#: Per-function effect kinds (powerset lattice, join = union). The
#: first two are what REP103 reports for worker-reachable functions;
#: ``env``/``fs``/``process`` are tracked for completeness (and tests)
#: but never fire on their own; ``unordered-iter`` feeds REP203.
GLOBAL_WRITE = "global-write"  # assignment/mutation of module-level state
DEFAULT_MUTATION = "default-mutation"  # mutation of a mutable default
ENV_EFFECT = "env"  # os.environ / putenv writes
FS_EFFECT = "fs"  # file writes, deletes, mkdir
PROC_EFFECT = "process"  # subprocess / fork / exec
UNORDERED_ITER = "unordered-iter"  # set iteration into an ordered sink
UNORDERED_ITER_REF = "unordered-iter-ref"  # same, via a call result

#: Container-mutating method names; a call ``X.append(...)`` where
#: ``X`` is module-level (or a mutable default) is a write to it.
_MUTATORS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
        "appendleft",
        "cache_clear",
    }
)

# -- RNG provenance lattice ---------------------------------------------------

GOOD = "good"  # caller-supplied value or SeedSequence/spawn chain
UNKNOWN = "unknown"  # unclassifiable; never reported
LITERAL = "literal"  # hard-coded seed constant
ADHOC = "adhoc"  # arithmetic seed derivation (seed + 10, 2 * seed, ...)
UNSEEDED = "unseeded"  # OS entropy (default_rng() / SeedSequence())

#: Join order: the worst provenance of any contributing operand wins.
_SEVERITY = {GOOD: 0, UNKNOWN: 1, LITERAL: 2, ADHOC: 3, UNSEEDED: 4}


def join(*provs: str) -> str:
    return max(provs, key=_SEVERITY.__getitem__) if provs else UNKNOWN


#: numpy.random callables that construct a generator/bit generator from
#: an entropy argument (first positional or ``seed=``).
_RNG_FACTORIES = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.Generator",
        "numpy.random.PCG64",
        "numpy.random.PCG64DXSM",
        "numpy.random.Philox",
        "numpy.random.MT19937",
        "numpy.random.SFC64",
    }
)

_SEEDSEQUENCE = "numpy.random.SeedSequence"

#: Table methods that return a (possibly extended) view of their
#: receiver; mirrors REP201's tracking.
_TABLE_METHODS = frozenset({"select", "sort_by", "with_columns", "drop", "head"})

#: Set methods whose result is still an unordered set.
_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)

#: Executor/pool methods that ship their arguments to worker processes.
_POOL_SHIP = frozenset(
    {"submit", "apply_async", "map", "starmap", "imap", "imap_unordered"}
)


# -- symbolic values ----------------------------------------------------------


@dataclass(frozen=True)
class SymVal:
    """Symbolic value of an expression, as far as one file can tell.

    ``kind`` is one of ``table`` (a Table; ``columns`` lists its known
    column set, or None), ``rng`` (generator/seed material; ``prov`` is
    its lattice point), ``ref`` (result of calling ``ref``, resolved
    against the graph later), ``param`` (an enclosing-function
    parameter), ``uset`` (a set/frozenset or anything inheriting its
    iteration order), ``funcref`` (a module-level function used as a
    value; ``ref`` is its qualname), ``localfn``/``localcls`` (a
    lambda, nested def or local class — unpicklable by construction),
    ``handle`` (an open file object), ``pool`` (an executor/
    multiprocessing context), ``cache`` (a disk cache) or ``other``.
    """

    kind: str
    columns: tuple[str, ...] | None = None
    prov: str | None = None
    ref: str | None = None
    param: str | None = None


_OTHER = SymVal(kind="other")


@dataclass(frozen=True)
class RngConstruction:
    """One generator/SeedSequence construction site and its provenance."""

    factory: str  # "default_rng", "SeedSequence", ...
    prov: str
    line: int
    col: int
    in_function: str | None  # enclosing function name, for messages


@dataclass(frozen=True)
class CallSite:
    """A resolved call with symbolic arguments."""

    callee: str  # best-effort dotted name ("repro.synth.x.f" or "f")
    line: int
    col: int
    args: tuple[SymVal, ...]
    kwargs: tuple[tuple[str, SymVal], ...]
    #: Enclosing *top-level* function name (None at module level or in
    #: methods); the worker-reachability call graph hangs off this.
    in_function: str | None = None


@dataclass(frozen=True)
class EffectSite:
    """One side effect observed in a function (or module) body.

    ``kind`` is one of the effect-lattice points (:data:`GLOBAL_WRITE`,
    :data:`DEFAULT_MUTATION`, :data:`ENV_EFFECT`, :data:`FS_EFFECT`,
    :data:`PROC_EFFECT`, :data:`UNORDERED_ITER`,
    :data:`UNORDERED_ITER_REF`); ``detail`` names the written global /
    mutated param / iterated expression (for ``unordered-iter-ref``, the
    qualname of the call whose result is iterated, resolved against the
    graph).
    """

    kind: str
    detail: str
    line: int
    col: int
    #: What consumed the value, for unordered-iter messages ("join",
    #: "list", "for-loop", ...); empty for write effects.
    sink: str = ""


@dataclass(frozen=True)
class ShippedValue:
    """One value crossing a process boundary at a :class:`BoundarySite`.

    ``kind`` mirrors :class:`SymVal` kinds; REP303 flags ``lambda``/
    ``localfn``/``localcls``/``handle`` (statically unpicklable), and
    ``funcref`` values become worker-reachability roots.
    """

    label: str  # "callable", "arg 2", "target=", "args[0]", ...
    kind: str
    detail: str  # qualname / lambda marker / short source text
    line: int
    col: int


@dataclass(frozen=True)
class BoundarySite:
    """One call that ships values into another process.

    ``kind``: ``pool-submit`` | ``pool-map`` | ``process`` |
    ``pipe-send`` | ``cache-put`` | ``pool-init``.
    """

    kind: str
    desc: str  # rendered call ("pool.submit", "ctx.Process", ...)
    values: tuple[ShippedValue, ...]
    line: int
    col: int
    in_function: str | None = None


@dataclass
class FunctionSummary:
    """What the graph needs to know about one module-level function."""

    qualname: str  # "repro.synth.google_model.generate"
    name: str
    params: tuple[str, ...] = ()
    defaults: int = 0  # number of trailing params with defaults
    #: Params annotated ``Table`` plus params whose only observed uses
    #: are Table-shaped (string subscripts / Table methods).
    table_params: tuple[str, ...] = ()
    annotated_table_params: tuple[str, ...] = ()
    #: Param -> ((column, line, col), ...) string-subscript reads.
    param_accesses: dict[str, tuple[tuple[str, int, int], ...]] = field(
        default_factory=dict
    )
    #: Param -> columns the function itself adds via with_columns.
    param_added: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: Params annotated ``np.random.Generator`` or flowing into an
    #: entropy position (directly; the graph closes this over calls).
    entropy_params: tuple[str, ...] = ()
    #: Params passed onward as entropy args: param -> callee qualnames.
    entropy_forwards: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: Provenance of a returned generator (lattice point, or a param
    #: name prefixed "param:", or a call ref prefixed "ref:"), if the
    #: function can return one.
    rng_return: str | None = None
    #: Known column set of a returned Table literal, if derivable.
    returns_columns: tuple[str, ...] | None = None
    #: Return is the result of calling another function ("ref:<name>").
    returns_ref: str | None = None
    #: Side effects observed in the body (effect-lattice join over all
    #: statements; nested defs/lambdas fold into their encloser).
    effects: tuple[EffectSite, ...] = ()
    #: Params whose default is a mutable literal (dict/list/set).
    mutable_default_params: tuple[str, ...] = ()
    #: Params the body *calls* — higher-order edges: a funcref bound to
    #: one of these at a call site becomes a callee of this function.
    called_params: tuple[str, ...] = ()
    #: The function can return a set/unordered value (REP203 follows
    #: ``returns_ref`` chains through this).
    returns_unordered: bool = False


@dataclass(frozen=True)
class ImportSite:
    """One imported module: an ``import`` alias or a ``from`` statement.

    ``module`` is absolute: a relative ``from`` is resolved against the
    importing file's module (or keeps its leading dots when that module
    is unknown). ``names`` are what a ``from`` statement imports, ``*``
    included; a plain ``import module`` has none. ``level`` is the
    statement's relative level, 0 for an absolute import.
    """

    module: str
    names: tuple[str, ...]
    level: int
    line: int
    col: int


@dataclass
class ModuleSummary:
    """Per-file facts; picklable, cached by content hash."""

    module: str | None  # dotted name; None outside the src roots
    relpath: str
    #: Absolute package-internal modules this file imports.
    imports: tuple[str, ...] = ()
    #: Local name -> qualified name, from import statements (for
    #: ``__init__`` files this is the re-export map).
    exports: dict[str, str] = field(default_factory=dict)
    #: One site per imported module (each alias of an ``import``, each
    #: ``from`` statement), in ``ast.walk`` order; the rules read these
    #: instead of the file's import statements.
    import_sites: tuple[ImportSite, ...] = ()
    functions: dict[str, FunctionSummary] = field(default_factory=dict)
    constructions: tuple[RngConstruction, ...] = ()
    calls: tuple[CallSite, ...] = ()
    #: Process-boundary ship sites anywhere in the file.
    boundaries: tuple[BoundarySite, ...] = ()
    #: Effects of module-level statements (outside any function).
    module_effects: tuple[EffectSite, ...] = ()
    #: Resource-lifecycle facts from the CFG layer (REP801-REP803):
    #: per-function param actions and call-site resource states.
    lifecycle: object | None = None
    parse_error: str | None = None
    parse_error_line: int = 1


# -- imports ------------------------------------------------------------------


class ImportMap:
    """Maps local names to the fully-qualified names they were imported as.

    Only names introduced by imports resolve; plain local variables do
    not, which keeps resolution conservative (no false positives from a
    local variable that happens to be called ``time``).
    """

    def __init__(self, aliases: dict[str, str]) -> None:
        self.aliases = aliases

    def resolve(self, node: ast.expr) -> str | None:
        """Fully-qualified dotted name of an expression, if import-rooted."""
        if isinstance(node, ast.Name):
            return self.aliases.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value)
            if base is None:
                return None
            return f"{base}.{node.attr}"
        return None


def resolve_from_module(
    level: int, name: str | None, module: str | None, is_package: bool
) -> str:
    """Absolute module of ``from <level dots><name> import ...`` in ``module``."""
    if level == 0:
        return name or ""
    if module is None:
        return "." * level + (name or "")
    # Level 1 anchors at the containing package; each further level goes
    # one package up. A package's ``__init__`` is its own anchor.
    parts = module.split(".") if is_package else module.split(".")[:-1]
    ascend = level - 1
    anchor = parts[: len(parts) - ascend] if ascend else parts
    if name:
        anchor = anchor + [name]
    return ".".join(anchor)


def _read_imports(
    tree: ast.Module, module: str | None, is_package: bool
) -> tuple[dict[str, str], tuple[ImportSite, ...]]:
    """The one read of a file's import statements: its alias map and
    one :class:`ImportSite` per imported module."""
    aliases: dict[str, str] = {}
    sites: list[ImportSite] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    # ``import a.b.c`` binds the top-level name ``a``.
                    top = alias.name.split(".")[0]
                    aliases[top] = top
                sites.append(
                    ImportSite(alias.name, (), 0, node.lineno, node.col_offset)
                )
        elif isinstance(node, ast.ImportFrom):
            base = resolve_from_module(
                node.level, node.module, module, is_package
            )
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{base}.{alias.name}" if base else alias.name
            sites.append(
                ImportSite(
                    base,
                    tuple(alias.name for alias in node.names),
                    node.level,
                    node.lineno,
                    node.col_offset,
                )
            )
    return aliases, tuple(sites)


def _package_imports(
    sites: tuple[ImportSite, ...], package: str
) -> tuple[str, ...]:
    """Absolute package-internal modules imported at ``sites``, in order."""
    prefix = package + "."
    internal: list[str] = []
    for site in sites:
        if site.module == package or site.module.startswith(prefix):
            internal.append(site.module)
            # ``from repro.x import y`` may import module y itself.
            internal.extend(f"{site.module}.{name}" for name in site.names)
    return tuple(dict.fromkeys(internal))


# -- per-file summarization ---------------------------------------------------


def _annotation_mentions(annotation: ast.expr | None, name: str) -> bool:
    if annotation is None:
        return False
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name) and node.id == name:
            return True
        if isinstance(node, ast.Attribute) and node.attr == name:
            return True
        if isinstance(node, ast.Constant) and node.value == name:
            return True
    return False


class _Scope:
    """Flow-sensitive-enough symbolic environment for one function body.

    A single forward pass over the statements; the last binding of a
    name wins, loops and branches are visited in source order. That is
    deliberately coarse — provenance only has to be *provable*, and
    re-binding a seeded generator to something worse is caught at the
    new binding's own construction site.
    """

    def __init__(
        self,
        summarizer: "_ModuleSummarizer",
        params: tuple[str, ...],
        fn_name: str | None,
    ) -> None:
        self.s = summarizer
        self.params = set(params)
        self.fn_name = fn_name
        self.env: dict[str, SymVal] = {}

    # -- expression evaluation ------------------------------------------

    def eval(self, node: ast.expr | None) -> SymVal:
        if node is None:
            return _OTHER
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id]
            if node.id in self.params:
                return SymVal(kind="param", param=node.id)
            if self.s.is_module_uset(node.id):
                return SymVal(kind="uset")
            qual = self.s.resolve_name_ref(node.id)
            if qual is not None:
                return SymVal(kind="funcref", ref=qual)
            return _OTHER
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or node.value is None:
                return _OTHER
            if isinstance(node.value, (int, float)):
                return SymVal(kind="rng", prov=LITERAL)
            return _OTHER
        if isinstance(node, ast.Set):
            for elt in node.elts:
                self.eval(elt)
            return SymVal(kind="uset")
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            return self._eval_comprehension(node)
        if isinstance(node, ast.Lambda):
            # The body is evaluated in the enclosing scope so its calls
            # join the call graph (conservative: a lambda built here is
            # assumed to run here or downstream of here).
            self.eval(node.body)
            return SymVal(kind="localfn", ref="<lambda>")
        if isinstance(node, ast.BinOp):
            # Set arithmetic (difference/union/...) stays unordered.
            left = self.eval(node.left)
            right = self.eval(node.right)
            if left.kind == "uset" or right.kind == "uset":
                return SymVal(kind="uset")
        if isinstance(node, (ast.BinOp, ast.UnaryOp)):
            # Arithmetic over seeds is ad-hoc stream derivation unless
            # every operand is already unclassifiable.
            operands = [
                self.eval(sub)
                for sub in ast.walk(node)
                if isinstance(sub, (ast.Name, ast.Constant))
            ]
            touched = [
                v for v in operands if v.kind in ("param", "rng")
            ]
            if touched:
                return SymVal(kind="rng", prov=ADHOC)
            return _OTHER
        if isinstance(node, ast.IfExp):
            return _join_vals(self.eval(node.body), self.eval(node.orelse))
        if isinstance(node, ast.Subscript):
            # children[i] of a spawn list keeps the list's provenance.
            base = self.eval(node.value)
            if base.kind == "rng":
                return base
            return _OTHER
        if isinstance(node, ast.Tuple):
            vals = [self.eval(elt) for elt in node.elts]
            if vals and all(v.kind == "rng" for v in vals):
                return _join_vals(*vals)
            return _OTHER
        if isinstance(node, ast.Dict):
            return _OTHER
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        return _OTHER

    def _eval_comprehension(self, node: ast.expr) -> SymVal:
        """A comprehension's output order inherits its first iterable's."""
        generators = node.generators  # type: ignore[attr-defined]
        first = self.eval(generators[0].iter) if generators else _OTHER
        for gen in generators[1:]:
            self.eval(gen.iter)
        if isinstance(node, ast.DictComp):
            self.eval(node.key)
            self.eval(node.value)
        else:
            self.eval(node.elt)  # type: ignore[attr-defined]
        if isinstance(node, ast.SetComp):
            return SymVal(kind="uset")
        if first.kind in ("uset", "ref"):
            # uset: the produced list/dict/stream is in set order;
            # ref: defer to the graph (flags only if the callee provably
            # returns a set).
            return first
        return _OTHER

    def _entropy_arg(self, node: ast.Call) -> ast.expr | None:
        """The entropy operand of a generator/SeedSequence construction."""
        if node.args:
            return node.args[0]
        for kw in node.keywords:
            if kw.arg in ("seed", "entropy"):
                return kw.value
        return None

    def _entropy_prov(self, node: ast.Call) -> str:
        arg = self._entropy_arg(node)
        if arg is None:
            return UNSEEDED
        return self.rng_prov(self.eval(arg), arg)

    def rng_prov(self, val: SymVal, arg: ast.expr | None = None) -> str:
        """Project a symbolic value onto the RNG lattice."""
        if val.kind == "param":
            # Caller-supplied: provenance is enforced at the call site.
            self.s.note_entropy_param(self.fn_name, val.param)
            return GOOD
        if val.kind == "rng":
            return val.prov or UNKNOWN
        if val.kind == "ref":
            resolved = self.s.graph_placeholder_rng(val.ref)
            return resolved
        return UNKNOWN

    def _eval_call(self, node: ast.Call) -> SymVal:
        callee = self.s.resolve_callee(node.func)
        # SeedSequence(...)/default_rng(...)-family: provenance of the
        # entropy argument, recorded as a construction site.
        if callee in _RNG_FACTORIES or callee == _SEEDSEQUENCE:
            prov = self._entropy_prov(node)
            self.s.record_construction(
                factory=callee.rsplit(".", 1)[-1],
                prov=prov,
                line=node.lineno,
                col=node.col_offset,
                in_function=self.fn_name,
            )
            return SymVal(kind="rng", prov=prov)
        builtin = self._eval_builtin(node, callee)
        if builtin is not None:
            return builtin
        basename = callee.rsplit(".", 1)[-1] if callee else ""
        if basename in ("ProcessPoolExecutor", "Pool"):
            values = self._executor_init_values(node)
            if values:
                self.s.record_boundary("pool-init", basename, values, node)
            return SymVal(kind="pool")
        if callee == "multiprocessing.get_context":
            return SymVal(kind="pool")  # its .Process/.Pipe ship values
        if basename in ("DiskCache", "LintCache"):
            for arg in node.args:
                self.eval(arg)
            return SymVal(kind="cache")
        if basename == "Process" and any(
            kw.arg == "target" for kw in node.keywords
        ):
            self.s.record_boundary(
                "process", basename, self._process_values(node), node
            )
            return _OTHER
        # spawn()/attribute calls on seed material keep its provenance.
        if isinstance(node.func, ast.Attribute):
            recv = self.eval(node.func.value)
            if recv.kind == "rng" and node.func.attr in ("spawn", "jumped"):
                return recv
            if recv.kind in ("table", "param") and (
                node.func.attr in _TABLE_METHODS
            ):
                return self._table_method(recv, node)
            if recv.kind == "uset" and node.func.attr in _SET_METHODS:
                return SymVal(kind="uset")
            if node.func.attr == "join" and node.args:
                self.s.note_unordered(
                    self.eval(node.args[0]), node.args[0], sink="join"
                )
                return _OTHER
            shipped = self._maybe_boundary(node, recv)
            if shipped is not None:
                return shipped
        if callee == "Table" or (callee or "").endswith(".Table"):
            return SymVal(kind="table", columns=_dict_literal_keys(node))
        if callee is not None:
            self.s.record_call(node, callee, self)
            return SymVal(kind="ref", ref=callee)
        return _OTHER

    def _eval_builtin(self, node: ast.Call, callee: str | None) -> SymVal | None:
        """Builtins the ordered-sink rule models; None = not one."""
        if not isinstance(node.func, ast.Name) or callee != node.func.id:
            return None
        name = node.func.id
        if name not in ("sorted", "set", "frozenset", "list", "tuple", "enumerate", "open"):
            return None
        vals = [self.eval(arg) for arg in node.args]
        for kw in node.keywords:
            self.eval(kw.value)
        if name == "sorted":
            return _OTHER  # the sanctioner: order is now defined
        if name in ("set", "frozenset"):
            return SymVal(kind="uset")
        if name == "open":
            return SymVal(kind="handle")
        # list()/tuple()/enumerate(): an ordered artifact of its input.
        if vals:
            self.s.note_unordered(vals[0], node.args[0], sink=name)
        return _OTHER

    # -- process boundaries ----------------------------------------------

    def _ship(self, expr: ast.expr, label: str) -> ShippedValue:
        """Symbolic description of one value crossing a boundary."""
        val = self.eval(expr)
        kind = val.kind
        if isinstance(expr, ast.Lambda):
            kind = "lambda"
        detail = val.ref or val.param or _src(expr)
        return ShippedValue(
            label=label,
            kind=kind,
            detail=detail,
            line=expr.lineno,
            col=expr.col_offset,
        )

    def _shipped_args(self, node: ast.Call, first_label: str) -> list[ShippedValue]:
        values: list[ShippedValue] = []
        for i, arg in enumerate(node.args):
            label = first_label if i == 0 else f"arg {i}"
            values.append(self._ship(arg, label))
        for kw in node.keywords:
            if kw.arg is not None:
                values.append(self._ship(kw.value, f"{kw.arg}="))
            else:
                self.eval(kw.value)
        return values

    def _process_values(self, node: ast.Call) -> list[ShippedValue]:
        """``Process(target=..., args=(...), kwargs=...)`` payloads."""
        values: list[ShippedValue] = []
        for arg in node.args:
            values.append(self._ship(arg, "arg"))
        for kw in node.keywords:
            if kw.arg == "target":
                values.append(self._ship(kw.value, "target="))
            elif kw.arg in ("args", "initargs") and isinstance(
                kw.value, ast.Tuple
            ):
                for i, elt in enumerate(kw.value.elts):
                    values.append(self._ship(elt, f"{kw.arg}[{i}]"))
            elif kw.arg is not None:
                values.append(self._ship(kw.value, f"{kw.arg}="))
            else:
                self.eval(kw.value)
        return values

    def _executor_init_values(self, node: ast.Call) -> list[ShippedValue]:
        """``initializer=``/``initargs=`` payloads of a pool constructor.

        The initializer runs once per worker to set up process-local
        state — a sanctioned pattern — so it is *not* a purity root,
        but it still has to pickle.
        """
        values: list[ShippedValue] = []
        for arg in node.args:
            self.eval(arg)
        for kw in node.keywords:
            if kw.arg == "initializer":
                values.append(self._ship(kw.value, "initializer="))
            elif kw.arg == "initargs" and isinstance(kw.value, ast.Tuple):
                for i, elt in enumerate(kw.value.elts):
                    values.append(self._ship(elt, f"initargs[{i}]"))
            else:
                self.eval(kw.value)
        return values

    def _maybe_boundary(self, node: ast.Call, recv: SymVal) -> SymVal | None:
        """Record a boundary site for pool/pipe/cache attribute calls."""
        func = node.func
        assert isinstance(func, ast.Attribute)
        attr = func.attr
        recv_name = func.value.id if isinstance(func.value, ast.Name) else None
        desc = f"{recv_name or '<expr>'}.{attr}"
        if attr in _POOL_SHIP and (
            recv.kind == "pool" or recv_name in ("pool", "executor")
        ):
            kind = "pool-submit" if attr in ("submit", "apply_async") else "pool-map"
            self.s.record_boundary(
                kind, desc, self._shipped_args(node, "callable"), node
            )
            return _OTHER
        if attr == "Process" and (
            recv.kind == "pool" or recv_name in ("ctx", "mp", "multiprocessing")
        ):
            self.s.record_boundary(
                "process", desc, self._process_values(node), node
            )
            return _OTHER
        if (
            attr == "send"
            and recv_name is not None
            and ("conn" in recv_name or "pipe" in recv_name)
        ):
            self.s.record_boundary(
                "pipe-send", desc, self._shipped_args(node, "payload"), node
            )
            return _OTHER
        if attr == "put" and (
            recv.kind == "cache"
            or (recv_name is not None and "cache" in recv_name)
        ):
            self.s.record_boundary(
                "cache-put", desc, self._shipped_args(node, "key"), node
            )
            return _OTHER
        return None

    def _table_method(self, recv: SymVal, node: ast.Call) -> SymVal:
        added = tuple(kw.arg for kw in node.keywords if kw.arg)
        if recv.kind == "param":
            if node.func.attr == "with_columns" and added:
                self.s.note_param_added(self.fn_name, recv.param, added)
            return recv  # still schema-compatible with the param
        columns = recv.columns
        if columns is not None and node.func.attr == "with_columns":
            columns = tuple(dict.fromkeys((*columns, *added)))
        return SymVal(kind="table", columns=columns)

    # -- statement walk --------------------------------------------------

    def assign(self, target: ast.expr, value: SymVal) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = value
        elif isinstance(target, ast.Tuple) and value.kind == "rng":
            for elt in target.elts:
                self.assign(elt, value)


def _join_vals(*vals: SymVal) -> SymVal:
    rngs = [v for v in vals if v.kind == "rng"]
    if rngs and len(rngs) + sum(v.kind == "param" for v in vals) == len(vals):
        provs = [v.prov or UNKNOWN for v in rngs]
        # params join as GOOD (caller-checked)
        provs += [GOOD] * sum(v.kind == "param" for v in vals)
        return SymVal(kind="rng", prov=join(*provs))
    if len(vals) == 1:
        return vals[0]
    return _OTHER


def _dict_literal_keys(node: ast.Call) -> tuple[str, ...] | None:
    """Column names of a ``Table({...})``/``Table(dict literal)`` call."""
    candidates: list[ast.expr] = list(node.args[:1])
    keys: list[str] = []
    for arg in candidates:
        if not isinstance(arg, ast.Dict):
            return None
        for key in arg.keys:
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                keys.append(key.value)
            else:
                return None
    if node.keywords:
        for kw in node.keywords:
            if kw.arg is None:
                return None
            keys.append(kw.arg)
    return tuple(dict.fromkeys(keys)) if keys else None


class _ModuleSummarizer:
    """One pass over a module AST producing its :class:`ModuleSummary`."""

    def __init__(
        self, tree: ast.Module, module: str | None, relpath: str, package: str,
        is_package: bool,
    ) -> None:
        self.tree = tree
        self.module = module
        self.relpath = relpath
        self.package = package
        aliases, sites = _read_imports(tree, module, is_package)
        self.import_map = ImportMap(aliases)
        self.summary = ModuleSummary(
            module=module, relpath=relpath, exports=aliases, import_sites=sites
        )
        self._constructions: list[RngConstruction] = []
        self._calls: list[CallSite] = []
        self._boundaries: list[BoundarySite] = []
        self._module_effects: list[EffectSite] = []
        self._local_funcs: set[str] = {
            n.name
            for n in tree.body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        #: Module-level bindings a function body can mutate: assigned
        #: names plus top-level functions (lru_cache memos) and classes.
        self._module_names: frozenset[str] = frozenset(
            self._local_funcs
            | {n.name for n in tree.body if isinstance(n, ast.ClassDef)}
            | _assigned_names(tree.body)
        )
        #: Module-level names bound to set/frozenset values, so function
        #: bodies iterating them see an unordered collection.
        self._module_usets: frozenset[str] = _module_set_bindings(tree.body)
        self._current: FunctionSummary | None = None
        #: Innermost enclosing *top-level* function, for call-graph
        #: attribution (nested defs/lambdas fold into their encloser).
        self._top: str | None = None

    # -- callbacks from _Scope -------------------------------------------

    def resolve_callee(self, func: ast.expr) -> str | None:
        qual = self.import_map.resolve(func)
        if qual is not None:
            return qual
        if isinstance(func, ast.Name):
            if func.id in self._local_funcs and self.module:
                return f"{self.module}.{func.id}"
            return func.id
        return None

    def resolve_name_ref(self, name: str) -> str | None:
        """Qualname a bare name *used as a value* refers to, if any."""
        if name in self._local_funcs and self.module:
            return f"{self.module}.{name}"
        return self.import_map.aliases.get(name)

    def is_module_uset(self, name: str) -> bool:
        return name in self._module_usets

    def graph_placeholder_rng(self, ref: str) -> str:
        # Call results are resolved against the graph later; locally
        # they are unknown (never reported).
        return UNKNOWN

    def note_entropy_param(self, fn_name: str | None, param: str | None) -> None:
        fn = self._current
        if fn is None or param is None or param not in fn.params:
            return
        if param not in fn.entropy_params:
            fn.entropy_params = (*fn.entropy_params, param)

    def note_param_added(
        self, fn_name: str | None, param: str | None, added: tuple[str, ...]
    ) -> None:
        fn = self._current
        if fn is None or param is None:
            return
        merged = dict.fromkeys((*fn.param_added.get(param, ()), *added))
        fn.param_added[param] = tuple(merged)

    def record_construction(self, **kwargs: object) -> None:
        self._constructions.append(RngConstruction(**kwargs))

    def record_effect(
        self, kind: str, detail: str, line: int, col: int, sink: str = ""
    ) -> None:
        site = EffectSite(kind=kind, detail=detail, line=line, col=col, sink=sink)
        fn = self._current
        if fn is not None:
            fn.effects = (*fn.effects, site)
        else:
            self._module_effects.append(site)

    def note_unordered(self, val: SymVal, expr: ast.expr, sink: str) -> None:
        """An unordered value reached an ordered sink (or might, via a
        call result the graph resolves later)."""
        if val.kind == "uset":
            self.record_effect(
                UNORDERED_ITER, _src(expr), expr.lineno, expr.col_offset, sink
            )
        elif val.kind == "ref" and val.ref:
            self.record_effect(
                UNORDERED_ITER_REF, val.ref, expr.lineno, expr.col_offset, sink
            )

    def record_boundary(
        self,
        kind: str,
        desc: str,
        values: list[ShippedValue],
        node: ast.Call,
    ) -> None:
        self._boundaries.append(
            BoundarySite(
                kind=kind,
                desc=desc,
                values=tuple(values),
                line=node.lineno,
                col=node.col_offset,
                in_function=self._top,
            )
        )

    def record_call(self, node: ast.Call, callee: str, scope: _Scope) -> None:
        args = tuple(scope.eval(a) for a in node.args)
        kwargs = tuple(
            (kw.arg, scope.eval(kw.value))
            for kw in node.keywords
            if kw.arg is not None
        )
        self._calls.append(
            CallSite(
                callee=callee,
                line=node.lineno,
                col=node.col_offset,
                args=args,
                kwargs=kwargs,
                in_function=self._top,
            )
        )
        # Params forwarded into another call may be entropy params of
        # *that* callee; the graph closes this after indexing.
        fn = self._current
        if fn is not None:
            for val in (*args, *(v for _, v in kwargs)):
                if val.kind == "param" and val.param in fn.params:
                    fwd = dict.fromkeys(
                        (*fn.entropy_forwards.get(val.param, ()), callee)
                    )
                    fn.entropy_forwards[val.param] = tuple(fwd)

    # -- the walk ---------------------------------------------------------

    def run(self) -> ModuleSummary:
        summary = self.summary
        summary.imports = _package_imports(summary.import_sites, self.package)

        # Module-level statements run in an anonymous scope.
        top = _Scope(self, params=(), fn_name=None)
        self._walk_body(self.tree.body, top, qual_prefix=self.module)

        summary.constructions = tuple(self._constructions)
        summary.calls = tuple(self._calls)
        summary.boundaries = tuple(self._boundaries)
        summary.module_effects = tuple(self._module_effects)
        return summary

    def _walk_body(
        self,
        body: list[ast.stmt],
        scope: _Scope,
        qual_prefix: str | None,
        depth: int = 0,
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if depth > 0:
                    # A nested def is a local value: unpicklable if it
                    # ever crosses a process boundary.
                    scope.env[stmt.name] = SymVal(kind="localfn", ref=stmt.name)
                self._function(stmt, qual_prefix, top_level=depth == 0)
            elif isinstance(stmt, ast.ClassDef):
                if depth > 0:
                    scope.env[stmt.name] = SymVal(kind="localcls", ref=stmt.name)
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._function(sub, None, top_level=False)
            else:
                self._statement(stmt, scope)

    def _statement(self, stmt: ast.stmt, scope: _Scope) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Conditionally-defined function (inside if/try): summarize
            # it in its own scope, never in the enclosing environment.
            # Inside a function it is additionally a local (unpicklable)
            # value; at module level its qualname still pickles.
            if scope.fn_name is not None:
                scope.env[stmt.name] = SymVal(kind="localfn", ref=stmt.name)
            self._function(stmt, None, top_level=False)
            return
        if isinstance(stmt, ast.ClassDef):
            if scope.fn_name is not None:
                scope.env[stmt.name] = SymVal(kind="localcls", ref=stmt.name)
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._function(sub, None, top_level=False)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                val = scope.eval(item.context_expr)
                if item.optional_vars is not None:
                    scope.assign(item.optional_vars, val)
            for sub in stmt.body:
                self._statement(sub, scope)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_val = scope.eval(stmt.iter)
            if iter_val.kind in ("uset", "ref") and _ordered_loop_body(stmt.body):
                self.note_unordered(iter_val, stmt.iter, sink="for-loop")
            if isinstance(stmt.target, ast.Name):
                scope.env[stmt.target.id] = _OTHER
            for sub in (*stmt.body, *stmt.orelse):
                self._statement(sub, scope)
            return
        if isinstance(stmt, ast.Assign):
            value = scope.eval(stmt.value)
            for target in stmt.targets:
                scope.assign(target, value)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            scope.assign(stmt.target, scope.eval(stmt.value))
        elif isinstance(stmt, ast.Return):
            self._note_return(stmt, scope)
        elif isinstance(stmt, ast.Expr):
            scope.eval(stmt.value)
        else:
            # Visit nested expressions/statements (if/for/while/with/try
            # bodies) in source order with the same environment.
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    scope.eval(child)
                elif isinstance(child, ast.stmt):
                    self._statement(child, scope)
                elif isinstance(child, (ast.excepthandler, ast.withitem)):
                    for sub in ast.iter_child_nodes(child):
                        if isinstance(sub, ast.stmt):
                            self._statement(sub, scope)
                        elif isinstance(sub, ast.expr):
                            scope.eval(sub)

    def _note_return(self, stmt: ast.Return, scope: _Scope) -> None:
        fn = self._current
        value = scope.eval(stmt.value)
        if fn is None:
            return
        if value.kind == "rng":
            fn.rng_return = _join_rng_return(fn.rng_return, value.prov or UNKNOWN)
        elif value.kind == "param":
            fn.rng_return = _join_rng_return(fn.rng_return, f"param:{value.param}")
        elif value.kind == "ref":
            fn.rng_return = _join_rng_return(fn.rng_return, f"ref:{value.ref}")
            fn.returns_ref = value.ref
        elif value.kind == "uset":
            fn.returns_unordered = True
        if value.kind == "table" and value.columns is not None:
            merged = dict.fromkeys((*(fn.returns_columns or ()), *value.columns))
            fn.returns_columns = tuple(merged)

    def _function(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        qual_prefix: str | None,
        top_level: bool,
    ) -> None:
        args = node.args
        all_args = (
            *args.posonlyargs,
            *args.args,
            *args.kwonlyargs,
        )
        params = tuple(a.arg for a in all_args)
        annotated_tables = tuple(
            a.arg for a in all_args if _annotation_mentions(a.annotation, "Table")
        )
        entropy = tuple(
            a.arg
            for a in all_args
            if _annotation_mentions(a.annotation, "Generator")
            or _annotation_mentions(a.annotation, "SeedSequence")
        )
        qualname = (
            f"{qual_prefix}.{node.name}" if qual_prefix else node.name
        )
        fn = FunctionSummary(
            qualname=qualname,
            name=node.name,
            params=params,
            defaults=len(args.defaults),
            annotated_table_params=annotated_tables,
            entropy_params=entropy,
        )
        outer = self._current
        outer_top = self._top
        self._current = fn
        if top_level:
            self._top = node.name
        scope = _Scope(self, params=params, fn_name=node.name)
        subtree = list(ast.walk(node))
        self._collect_param_accesses(subtree, fn)
        if top_level:
            # Effects read the full subtree, so nested defs' writes
            # fold into their (top-level) encloser conservatively.
            self._collect_effects(node, subtree, fn)
        self._walk_body(node.body, scope, qual_prefix=None, depth=1)
        self._current = outer
        self._top = outer_top
        if top_level and self.module is not None:
            self.summary.functions[node.name] = fn
        elif outer is not None:
            # Scope-recorded effects (unordered-iter consumption) of a
            # nested def surface on the enclosing function.
            outer.effects = (*outer.effects, *fn.effects)

    def _collect_param_accesses(
        self, subtree: list[ast.AST], fn: FunctionSummary
    ) -> None:
        """Record ``param["col"]`` reads and Table-shaped param usage
        over a def's ``subtree`` (its nodes in ``ast.walk`` order)."""
        subscripted: dict[str, list[tuple[str, int, int]]] = {}
        non_table_use: set[str] = set()
        for sub in subtree:
            if (
                isinstance(sub, ast.Subscript)
                and isinstance(sub.value, ast.Name)
                and sub.value.id in fn.params
                and isinstance(sub.ctx, ast.Load)
            ):
                if isinstance(sub.slice, ast.Constant) and isinstance(
                    sub.slice.value, str
                ):
                    subscripted.setdefault(sub.value.id, []).append(
                        (sub.slice.value, sub.lineno, sub.col_offset)
                    )
                else:
                    non_table_use.add(sub.value.id)
            elif (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id in ("len", "iter", "sorted")
            ):
                continue
        fn.param_accesses = {
            p: tuple(reads) for p, reads in subscripted.items()
        }
        table_like = [
            p
            for p in fn.params
            if p in subscripted and p not in non_table_use
        ]
        fn.table_params = tuple(
            dict.fromkeys((*fn.annotated_table_params, *table_like))
        )

    def _collect_effects(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        subtree: list[ast.AST],
        fn: FunctionSummary,
    ) -> None:
        """Syntactic effect sites of one top-level function's
        ``subtree`` (its nodes in ``ast.walk`` order)."""
        args = node.args
        positional = (*args.posonlyargs, *args.args)
        mutable: list[str] = []
        for arg_node, default in zip(
            positional[len(positional) - len(args.defaults) :], args.defaults
        ):
            if _is_mutable_literal(default):
                mutable.append(arg_node.arg)
        for arg_node, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None and _is_mutable_literal(default):
                mutable.append(arg_node.arg)
        fn.mutable_default_params = tuple(mutable)

        global_names: set[str] = set()
        stored: set[str] = set()
        for sub in subtree:
            if isinstance(sub, ast.Global):
                global_names.update(sub.names)
            elif isinstance(sub, ast.Name) and isinstance(
                sub.ctx, (ast.Store, ast.Del)
            ):
                stored.add(sub.id)
        shadowed = (stored | set(fn.params)) - global_names

        effects: list[EffectSite] = []
        called_params: set[str] = set()
        mutable_set = set(mutable)
        for sub in subtree:
            if isinstance(sub, ast.Name) and isinstance(
                sub.ctx, (ast.Store, ast.Del)
            ):
                if sub.id in global_names:
                    effects.append(
                        EffectSite(
                            GLOBAL_WRITE, sub.id, sub.lineno, sub.col_offset
                        )
                    )
            elif isinstance(sub, (ast.Subscript, ast.Attribute)) and isinstance(
                sub.ctx, (ast.Store, ast.Del)
            ):
                if self.import_map.resolve(sub.value) == "os.environ":
                    effects.append(
                        EffectSite(
                            ENV_EFFECT, "os.environ", sub.lineno, sub.col_offset
                        )
                    )
                    continue
                base = _base_name(sub.value)
                if base is None:
                    continue
                if base in mutable_set:
                    effects.append(
                        EffectSite(
                            DEFAULT_MUTATION, base, sub.lineno, sub.col_offset
                        )
                    )
                elif base in self._module_names and base not in shadowed:
                    effects.append(
                        EffectSite(
                            GLOBAL_WRITE, base, sub.lineno, sub.col_offset
                        )
                    )
            elif isinstance(sub, ast.Call):
                func = sub.func
                if isinstance(func, ast.Name) and func.id in fn.params:
                    called_params.add(func.id)
                if isinstance(func, ast.Attribute) and func.attr in _MUTATORS:
                    base = _base_name(func.value)
                    if base is not None:
                        if base in mutable_set:
                            effects.append(
                                EffectSite(
                                    DEFAULT_MUTATION,
                                    base,
                                    sub.lineno,
                                    sub.col_offset,
                                )
                            )
                        elif base in self._module_names and base not in shadowed:
                            effects.append(
                                EffectSite(
                                    GLOBAL_WRITE,
                                    base,
                                    sub.lineno,
                                    sub.col_offset,
                                )
                            )
                callee = self.resolve_callee(func)
                kind = _callee_effect(callee, sub)
                if kind is not None:
                    detail = callee or (
                        func.attr if isinstance(func, ast.Attribute) else ""
                    )
                    effects.append(
                        EffectSite(kind, detail, sub.lineno, sub.col_offset)
                    )
        fn.effects = (*fn.effects, *effects)
        fn.called_params = tuple(sorted(called_params))


def _assigned_names(body: list[ast.stmt]) -> set[str]:
    """Names bound by module-level assignment statements."""
    names: set[str] = set()
    for stmt in body:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
            elif isinstance(target, ast.Tuple):
                names.update(
                    elt.id for elt in target.elts if isinstance(elt, ast.Name)
                )
    return names


def _module_set_bindings(body: list[ast.stmt]) -> frozenset[str]:
    """Module-level names assigned set/frozenset literals or calls."""
    names: set[str] = set()
    for stmt in body:
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            continue
        value = stmt.value
        if value is None:
            continue
        is_set = isinstance(value, (ast.Set, ast.SetComp)) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("set", "frozenset")
        )
        if not is_set:
            continue
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return frozenset(names)


def _src(expr: ast.expr) -> str:
    """Short source rendering of an expression, for messages."""
    try:
        text = ast.unparse(expr)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        return "<expr>"
    return text if len(text) <= 48 else text[:45] + "..."


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(
        node, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    ):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("dict", "list", "set", "defaultdict", "deque")
    )


def _base_name(node: ast.expr) -> str | None:
    """Innermost Name of a Subscript/Attribute chain (``a`` of ``a.b[c]``)."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _ordered_loop_body(body: list[ast.stmt]) -> bool:
    """Does the loop body produce order-sensitive output?

    Appends/writes/prints/yields make iteration order observable; pure
    accumulation (sums, max, membership) does not.
    """
    for stmt in body:
        for sub in ast.walk(stmt):
            if isinstance(sub, (ast.Yield, ast.YieldFrom)):
                return True
            if isinstance(sub, ast.Call):
                func = sub.func
                if isinstance(func, ast.Name) and func.id == "print":
                    return True
                if isinstance(func, ast.Attribute) and func.attr in (
                    "append",
                    "extend",
                    "insert",
                    "write",
                    "writelines",
                    "add_row",
                ):
                    return True
    return False


_ENV_CALLS = frozenset({"os.putenv", "os.unsetenv", "os.environ.update"})
_FS_CALLS = frozenset(
    {
        "os.remove",
        "os.unlink",
        "os.rename",
        "os.replace",
        "os.makedirs",
        "os.mkdir",
        "os.rmdir",
    }
)
_FS_ATTRS = frozenset(
    {"write_text", "write_bytes", "unlink", "mkdir", "rmdir", "touch"}
)
_PROC_CALLS = frozenset({"os.system", "os.fork", "os.kill", "os.execv"})


def _callee_effect(callee: str | None, node: ast.Call) -> str | None:
    """Env/fs/process effect of a call, by callee name (never reported
    on their own; they complete the lattice for propagation/tests)."""
    if callee in _ENV_CALLS:
        return ENV_EFFECT
    if callee in _PROC_CALLS or (callee or "").startswith("subprocess."):
        return PROC_EFFECT
    if callee in _FS_CALLS:
        return FS_EFFECT
    if callee == "open":
        mode = None
        if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant):
            mode = node.args[1].value
        for kw in node.keywords:
            if kw.arg == "mode" and isinstance(kw.value, ast.Constant):
                mode = kw.value.value
        if isinstance(mode, str) and any(c in mode for c in "wax+"):
            return FS_EFFECT
        return None
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr in _FS_ATTRS:
        return FS_EFFECT
    return None


def _join_rng_return(current: str | None, new: str) -> str:
    """Join return provenances; concrete taint dominates param/ref."""
    if current is None or current == new:
        return new
    order = {UNSEEDED: 4, ADHOC: 3, LITERAL: 2}
    cur_rank = order.get(current, 0)
    new_rank = order.get(new, 0)
    if new_rank or cur_rank:
        return new if new_rank >= cur_rank else current
    return current  # first of several param/ref returns wins


def summarize_module(
    source: str,
    module: str | None,
    relpath: str,
    package: str,
) -> ModuleSummary:
    """Parse-free entry point used by the engine (and its worker pool)."""
    try:
        tree = ast.parse(source, filename=relpath)
    except SyntaxError as exc:
        return ModuleSummary(
            module=module,
            relpath=relpath,
            parse_error=exc.msg or str(exc),
            parse_error_line=exc.lineno or 1,
        )
    is_package = relpath.endswith("__init__.py")
    if module is None:
        # Outside the package the rules read a file's imports and
        # nothing else: the graph indexes package modules only, and
        # every rule that reads functions, calls, boundaries, RNG
        # constructions, module effects or lifecycles skips such files.
        aliases, sites = _read_imports(tree, None, is_package)
        return ModuleSummary(
            module=None,
            relpath=relpath,
            imports=_package_imports(sites, package),
            exports=aliases,
            import_sites=sites,
        )
    summarizer = _ModuleSummarizer(tree, module, relpath, package, is_package)
    summary = summarizer.run()
    from .cfg import summarize_lifecycle

    summary.lifecycle = summarize_lifecycle(tree, module, summarizer.import_map)
    return summary


# -- the whole-program graph --------------------------------------------------


@dataclass
class InferredSchema:
    """Input-schema inference for one (function, table-param)."""

    columns: tuple[str, ...]
    call_sites: int
    complete: bool  # every resolved call site had a known column set


class ProjectGraph:
    """Import graph + call graph + resolved dataflow facts."""

    def __init__(self, package: str, summaries: dict[str, ModuleSummary]):
        self.package = package
        #: relpath -> summary (every linted file).
        self.files = summaries
        #: dotted module name -> summary (package files only).
        self.modules: dict[str, ModuleSummary] = {
            s.module: s for s in summaries.values() if s.module
        }
        self.functions: dict[str, FunctionSummary] = {}
        for s in self.modules.values():
            for fn in s.functions.values():
                self.functions[fn.qualname] = fn
        self._closure_cache: dict[str, frozenset[str]] = {}
        self._resolve_cache: dict[str, str | None] = {}
        self._edges: dict[str, tuple[str, ...]] | None = None
        self._reach_cache: dict[
            tuple[str, ...], dict[str, tuple[str, str]]
        ] = {}
        self._close_entropy_params()
        self._schemas = self._infer_schemas()
        #: qualname -> FunctionLifecycle for every summarized function.
        self._lifecycles: dict[str, object] = {}
        for s in self.modules.values():
            if s.lifecycle is not None:
                for fl in s.lifecycle.functions:
                    self._lifecycles[f"{s.module}.{fl.name}"] = fl
        self._lifecycle_action_cache: dict[str, tuple] = {}
        self._lifecycle_incoming: dict[str, dict[str, str]] | None = None

    # -- import graph ----------------------------------------------------

    def imports_of(self, module: str) -> frozenset[str]:
        """Package-internal modules ``module`` imports (direct)."""
        summary = self.modules.get(module)
        if summary is None:
            return frozenset()
        out = set()
        for target in summary.imports:
            node = target
            # ``from repro.x import y``: record the deepest prefix that
            # is a real module (y may be a function).
            while node and node not in self.modules and "." in node:
                node = node.rsplit(".", 1)[0]
            if node in self.modules and node != module:
                out.add(node)
        return frozenset(out)

    def import_closure(self, module: str) -> frozenset[str]:
        """Transitive package-internal imports, excluding ``module``."""
        cached = self._closure_cache.get(module)
        if cached is not None:
            return cached
        seen: set[str] = set()
        stack = list(self.imports_of(module))
        while stack:
            nxt = stack.pop()
            if nxt in seen:
                continue
            seen.add(nxt)
            stack.extend(self.imports_of(nxt) - seen)
        seen.discard(module)
        result = frozenset(seen)
        self._closure_cache[module] = result
        return result

    def dependents(self, module: str) -> frozenset[str]:
        """Modules whose import closure contains ``module``."""
        return frozenset(
            m for m in self.modules if m != module and module in self.import_closure(m)
        )

    # -- name resolution --------------------------------------------------

    def resolve_function(self, qualname: str | None) -> FunctionSummary | None:
        """Follow package ``__init__`` re-export chains to a function."""
        if qualname is None:
            return None
        if qualname in self._resolve_cache:
            resolved = self._resolve_cache[qualname]
            return self.functions.get(resolved) if resolved else None
        seen: set[str] = set()
        node: str | None = qualname
        while node is not None and node not in seen:
            seen.add(node)
            if node in self.functions:
                self._resolve_cache[qualname] = node
                return self.functions[node]
            if "." not in node:
                break
            mod, name = node.rsplit(".", 1)
            summary = self.modules.get(mod)
            node = summary.exports.get(name) if summary else None
        self._resolve_cache[qualname] = None
        return None

    # -- RNG dataflow ------------------------------------------------------

    def _close_entropy_params(self, rounds: int = 4) -> None:
        """Propagate entropy-param status through forwarding calls."""
        for _ in range(rounds):
            changed = False
            for fn in self.functions.values():
                for param, callees in fn.entropy_forwards.items():
                    if param in fn.entropy_params:
                        continue
                    for callee in callees:
                        target = self.resolve_function(callee)
                        if target is None:
                            continue
                        site = self._forward_position(fn, param, target)
                        if site and site in target.entropy_params:
                            fn.entropy_params = (*fn.entropy_params, param)
                            changed = True
                            break
            if not changed:
                return

    def _forward_position(
        self, fn: FunctionSummary, param: str, target: FunctionSummary
    ) -> str | None:
        """Which of ``target``'s params receives ``fn``'s ``param``."""
        module = self.modules.get(fn.qualname.rsplit(".", 1)[0])
        if module is None:
            return None
        for call in module.calls:
            resolved = self.resolve_function(call.callee)
            if resolved is not target:
                continue
            for i, val in enumerate(call.args):
                if val.kind == "param" and val.param == param:
                    if i < len(target.params):
                        return target.params[i]
            for name, val in call.kwargs:
                if val.kind == "param" and val.param == param:
                    return name
        return None

    def rng_return_prov(self, fn: FunctionSummary, depth: int = 0) -> str | None:
        """Concrete provenance of ``fn``'s returned generator, if any.

        ``param:`` returns resolve to GOOD (call-site args are checked
        separately); ``ref:`` chains are followed to a fixed depth.
        """
        ret = fn.rng_return
        if ret is None:
            return None
        if ret.startswith("param:"):
            return GOOD
        if ret.startswith("ref:"):
            if depth >= 8:
                return UNKNOWN
            target = self.resolve_function(ret[4:])
            if target is None:
                return UNKNOWN
            return self.rng_return_prov(target, depth + 1) or UNKNOWN
        return ret

    def arg_rng_prov(self, val: SymVal, depth: int = 0) -> str:
        """RNG provenance of a call-site argument value."""
        if val.kind == "param":
            return GOOD
        if val.kind == "rng":
            return val.prov or UNKNOWN
        if val.kind == "ref" and depth < 8:
            target = self.resolve_function(val.ref)
            if target is not None:
                prov = self.rng_return_prov(target, depth + 1)
                if prov is not None:
                    return prov
        return UNKNOWN

    # -- schema dataflow ---------------------------------------------------

    def arg_columns(
        self, val: SymVal, depth: int = 0
    ) -> tuple[str, ...] | None:
        """Known column set carried by a call-site argument, if any."""
        if val.kind == "table":
            return val.columns
        if val.kind == "ref" and depth < 8:
            target = self.resolve_function(val.ref)
            if target is not None:
                if target.returns_columns is not None:
                    return target.returns_columns
                if target.returns_ref is not None:
                    return self.arg_columns(
                        SymVal(kind="ref", ref=target.returns_ref), depth + 1
                    )
        return None

    def _infer_schemas(self) -> dict[tuple[str, str], InferredSchema]:
        """Union of call-site column sets per (function, table-param)."""
        acc: dict[tuple[str, str], dict[str, object]] = {}
        for summary in self.modules.values():
            for call in summary.calls:
                target = self.resolve_function(call.callee)
                if target is None or not target.table_params:
                    continue
                bound = self._bind(call, target)
                for param in target.table_params:
                    if param not in bound:
                        continue
                    key = (target.qualname, param)
                    slot = acc.setdefault(
                        key, {"columns": set(), "sites": 0, "complete": True}
                    )
                    slot["sites"] += 1
                    columns = None
                    val = bound[param]
                    if val.kind in ("table", "ref"):
                        columns = self.arg_columns(val)
                    if columns is None:
                        slot["complete"] = False
                    else:
                        slot["columns"].update(columns)
        return {
            key: InferredSchema(
                columns=tuple(sorted(slot["columns"])),
                call_sites=slot["sites"],
                complete=bool(slot["complete"]),
            )
            for key, slot in acc.items()
        }

    def _bind(
        self, call: CallSite, target: FunctionSummary
    ) -> dict[str, SymVal]:
        bound: dict[str, SymVal] = {}
        params = list(target.params)
        if params and params[0] == "self":
            params = params[1:]
        for i, val in enumerate(call.args):
            if i < len(params):
                bound[params[i]] = val
        for name, val in call.kwargs:
            if name in params:
                bound[name] = val
        return bound

    def inferred_schema(
        self, qualname: str, param: str
    ) -> InferredSchema | None:
        return self._schemas.get((qualname, param))

    def schemas_for_module(
        self, module: str
    ) -> dict[tuple[str, str], InferredSchema]:
        """Inference results for functions defined in ``module`` — the
        cross-module fact set a file's diagnostics depend on, used to
        key the incremental cache."""
        prefix = module + "."
        return {
            key: schema
            for key, schema in self._schemas.items()
            if key[0].startswith(prefix)
            and "." not in key[0][len(prefix):]
        }

    # -- effect dataflow ---------------------------------------------------

    def _call_edges(self) -> dict[str, tuple[str, ...]]:
        """Caller qualname -> sorted callee qualnames, with higher-order
        edges: when ``f`` passes function ``g`` into a param that
        ``target`` calls, ``target -> g`` is an edge too."""
        if self._edges is not None:
            return self._edges
        edges: dict[str, set[str]] = {}
        for module in sorted(self.modules):
            summary = self.modules[module]
            for call in summary.calls:
                target = self.resolve_function(call.callee)
                if target is None:
                    continue
                if call.in_function is not None:
                    caller = f"{module}.{call.in_function}"
                    if caller in self.functions:
                        edges.setdefault(caller, set()).add(target.qualname)
                if target.called_params:
                    bound = self._bind(call, target)
                    for param in target.called_params:
                        val = bound.get(param)
                        if val is None or val.kind != "funcref":
                            continue
                        hof = self.resolve_function(val.ref)
                        if hof is not None:
                            edges.setdefault(target.qualname, set()).add(
                                hof.qualname
                            )
        self._edges = {
            caller: tuple(sorted(callees))
            for caller, callees in edges.items()
        }
        return self._edges

    def worker_roots(
        self, extra_roots: tuple[str, ...] = ()
    ) -> list[tuple[str, str]]:
        """(qualname, where-shipped) for every function shipped across a
        process boundary, plus configured extras."""
        roots: list[tuple[str, str]] = []
        for module in sorted(self.modules):
            summary = self.modules[module]
            for site in summary.boundaries:
                if site.kind not in ("pool-submit", "pool-map", "process"):
                    continue
                for val in site.values:
                    if val.kind != "funcref":
                        continue
                    target = self.resolve_function(val.detail)
                    if target is not None:
                        roots.append(
                            (
                                target.qualname,
                                f"{summary.relpath}:{site.line}",
                            )
                        )
        for name in extra_roots:
            target = self.resolve_function(name)
            if target is not None:
                roots.append((target.qualname, "configured worker root"))
        return sorted(set(roots))

    def worker_reachability(
        self, extra_roots: tuple[str, ...] = ()
    ) -> dict[str, tuple[str, str]]:
        """qualname -> (root qualname, shipped-at/caller description) for
        every function reachable from a worker entry point.

        Deterministic: roots and edges are visited in sorted order and
        the first (lexicographically smallest) path wins.
        """
        key = tuple(sorted(extra_roots))
        cached = self._reach_cache.get(key)
        if cached is not None:
            return cached
        edges = self._call_edges()
        reach: dict[str, tuple[str, str]] = {}
        queue: list[str] = []
        for qualname, where in self.worker_roots(key):
            if qualname not in reach:
                reach[qualname] = (qualname, where)
                queue.append(qualname)
        while queue:
            caller = queue.pop(0)
            root, _ = reach[caller]
            for callee in edges.get(caller, ()):
                if callee not in reach:
                    reach[callee] = (root, f"called from {caller}")
                    queue.append(callee)
        self._reach_cache[key] = reach
        return reach

    def returns_unordered(self, qualname: str | None, depth: int = 0) -> bool:
        """Does the function (transitively) return a set-like value?"""
        target = self.resolve_function(qualname)
        if target is None:
            return False
        if target.returns_unordered:
            return True
        if target.returns_ref is not None and depth < 8:
            return self.returns_unordered(target.returns_ref, depth + 1)
        return False

    def effect_facts_for_module(
        self, module: str, extra_roots: tuple[str, ...] = ()
    ) -> tuple[tuple[str, str, str], ...]:
        """Worker-reachability verdicts for ``module``'s own functions —
        the against-import-direction fact set REP103 diagnostics depend
        on (a caller edit elsewhere can make a function here reachable),
        folded into the incremental cache key."""
        prefix = module + "."
        reach = self.worker_reachability(extra_roots)
        return tuple(
            sorted(
                (qualname, root, via)
                for qualname, (root, via) in reach.items()
                if qualname.startswith(prefix)
                and "." not in qualname[len(prefix):]
            )
        )

    # -- resource-lifecycle facts (CFG layer, REP801-REP803) --------------

    def _lifecycle_qualname(self, dotted: str) -> str | None:
        """Resolve a recorded callee name to a lifecycle qualname."""
        fn = self.resolve_function(dotted)
        if fn is not None and fn.qualname in self._lifecycles:
            return fn.qualname
        if dotted in self._lifecycles:
            return dotted
        return None

    def lifecycle_actions(self, qualname: str, _stack=None):
        """Per-param lifecycle actions for ``qualname``, closed over the
        helper calls it makes (``publish_atomically`` -> ``fsync_tree``
        -> ``os.fsync``). Returns ``(params, {param: actions})``."""
        cached = self._lifecycle_action_cache.get(qualname)
        if cached is not None:
            return cached
        fl = self._lifecycles.get(qualname)
        if fl is None:
            return None
        top = _stack is None
        if _stack is None:
            _stack = set()
        if qualname in _stack:
            return (fl.params, fl.action_map())
        _stack.add(qualname)
        actions = {p: set(a) for p, a in fl.action_map().items()}
        for call in fl.calls:
            target = self._lifecycle_qualname(call.callee)
            if target is None:
                continue
            info = self.lifecycle_actions(target, _stack)
            if info is None:
                continue
            cparams, cactions = info
            for i, arg in enumerate(call.args):
                if arg.param is None or i >= len(cparams):
                    continue
                acts = cactions.get(cparams[i], frozenset())
                if not acts:
                    continue
                mine = actions.setdefault(arg.param, set())
                if arg.shape == "param":
                    mine |= acts
                elif arg.shape == "dir-of-param" and "fsyncs" in acts:
                    # callee fsyncs dirname(our param): a parent-dir sync.
                    mine.add("dirsyncs_parent")
        result = (fl.params, {p: frozenset(a) for p, a in actions.items()})
        if top:
            self._lifecycle_action_cache[qualname] = result
        return result

    def lifecycle_callee_info(self, dotted: str):
        """CFG-interpreter callee hook: ``(params, actions)`` or None."""
        target = self._lifecycle_qualname(dotted)
        if target is None:
            return None
        return self.lifecycle_actions(target)

    def _compute_lifecycle_incoming(self) -> dict[str, dict[str, str]]:
        from .cfg import meet_states

        calls_by_target: dict[str, list] = {}
        for s in self.modules.values():
            if s.lifecycle is None:
                continue
            for fl in s.lifecycle.functions:
                for call in fl.calls:
                    target = self._lifecycle_qualname(call.callee)
                    if target is not None:
                        calls_by_target.setdefault(target, []).append(call)
        incoming: dict[str, dict[str, str]] = {}
        for target, calls in calls_by_target.items():
            fl = self._lifecycles[target]
            per: dict[str, str] = {}
            for idx, pname in enumerate(fl.params):
                fact = meet_states(
                    call.args[idx].state if idx < len(call.args) else "unknown"
                    for call in calls
                )
                if fact != "unknown":
                    per[pname] = fact
            if per:
                incoming[target] = per
        return incoming

    def lifecycle_incoming_for_module(self, module: str) -> dict[str, dict[str, str]]:
        """Incoming per-param resource states (the meet over every
        resolved call site) for ``module``'s own functions."""
        if self._lifecycle_incoming is None:
            self._lifecycle_incoming = self._compute_lifecycle_incoming()
        prefix = module + "."
        out: dict[str, dict[str, str]] = {}
        for qualname, per in self._lifecycle_incoming.items():
            if qualname.startswith(prefix) and "." not in qualname[len(prefix):]:
                out[qualname[len(prefix):]] = per
        return out

    def lifecycle_facts_for_module(self, module: str) -> tuple:
        """Against-import-direction lifecycle facts for the flow
        fingerprint: a caller edit elsewhere that changes what reaches a
        function here re-keys this file's cached verdicts."""
        incoming = self.lifecycle_incoming_for_module(module)
        return tuple(
            sorted(
                (name, tuple(sorted(per.items())))
                for name, per in incoming.items()
            )
        )


def build_project_graph(
    summaries: dict[str, ModuleSummary], package: str
) -> ProjectGraph:
    """Assemble the whole-program graph from per-file summaries."""
    return ProjectGraph(package, summaries)
