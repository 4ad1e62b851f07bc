"""Control-flow analysis for the durability and lifecycle rules.

This module gives repro-lint control-flow sensitivity: a structured
abstract interpreter over each function body (branches, loops,
``try/except/finally``, ``with``, early returns and raises) tracking a
resource-state lattice::

    fresh -> written -> fsynced -> published -> closed

Two products come out of one interpretation machine:

* **Summaries** (:func:`summarize_lifecycle`) — picklable per-function
  facts stored on ``ModuleSummary.lifecycle``: which params a function
  fsyncs/renames/closes (*actions*), and the resource state of every
  argument at every resolvable call site (*call states*).  The project
  graph resolves actions through local helper calls with a small
  fixpoint and meets call states into per-param *incoming* facts, which
  feed the flow fingerprint so a caller edit re-keys callee verdicts.
* **Findings** (:func:`file_report`) — the check-time interpretation
  with graph-resolved callee actions and incoming facts, producing
  REP801/REP802/REP803 events with related-location chains.

Approximations (deliberate, documented in DESIGN.md §15):

* Loops are interpreted as executing exactly once; the after-loop state
  joins the zero-iteration entry state.  This keeps walk-and-fsync
  loops from producing false "never fsynced" verdicts.
* Any statement containing a call, ``raise``, or ``assert`` may raise;
  the state *before* its effect is a potential exceptional exit.
* Joins are pessimistic for the rules: a path state is "written" if any
  branch leaves an unsynced write; a handle is open if any branch
  leaves it open; dir-fsync obligations survive a join if either side
  still owes one.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .graph import ImportMap

# Content states for path-like values.
UNKNOWN = "unknown"
WRITTEN = "written"
FSYNCED = "fsynced"
PUBLISHED = "published"
GONE = "gone"
TEMP = "temp"  # only used as an incoming-fact value, never a state

# Handle states.
OPEN = "open"
CLOSED = "closed"
ESCAPED = "escaped"

# Callee actions (per-param).
A_FSYNCS = "fsyncs"
A_DIRSYNCS_PARENT = "dirsyncs_parent"
A_RENAMES_FROM = "renames_from"
A_RENAMES_TO = "renames_to"
A_CLOSES = "closes"

_RENAME_FNS = {"os.rename", "os.replace", "shutil.move"}
_UNLINK_FNS = {"os.unlink", "os.remove", "os.rmdir", "shutil.rmtree"}
_COPY_DST_FNS = {"shutil.copy", "shutil.copy2", "shutil.copyfile", "shutil.copytree"}
_WRITE_DST_FNS = {"numpy.save", "numpy.savez", "numpy.savez_compressed"}
_TEMP_FNS = {
    "tempfile.mkdtemp",
    "tempfile.mkstemp",
    "tempfile.mktemp",
    "tempfile.NamedTemporaryFile",
    "tempfile.TemporaryDirectory",
}
_PASSTHROUGH_FNS = {"os.fspath", "pathlib.Path", "os.path.abspath", "os.path.realpath"}
_POOL_FNS = {
    "concurrent.futures.ProcessPoolExecutor",
    "concurrent.futures.ThreadPoolExecutor",
    "multiprocessing.Pool",
    "multiprocessing.pool.Pool",
}
_MMAP_FNS = {"mmap.mmap"}
_SUPPRESS_FNS = {"contextlib.suppress"}
_CLOSE_METHODS = {"close", "shutdown", "terminate", "release"}
_PATH_WRITE_METHODS = {"write_text", "write_bytes", "touch"}
_WRITE_OS_FLAGS = {"O_WRONLY", "O_RDWR", "O_APPEND", "O_TRUNC", "O_CREAT"}
_TEMP_NAME_HINTS = ("tmp", "temp", "partial", "scratch")


def _looks_temp_name(name: str) -> bool:
    low = name.lower()
    return any(h in low for h in _TEMP_NAME_HINTS)


def _literal_tail_is_temp(tail: str) -> bool:
    base = tail.rsplit("/", 1)[-1]
    return base.startswith(".") or ".tmp" in base or ".partial" in base


# ---------------------------------------------------------------------------
# Picklable summaries (stored on ModuleSummary.lifecycle)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LifecycleArg:
    """One argument at a recorded call site."""

    shape: str  # "param" | "dir-of-param" | "other"
    param: str | None
    state: str  # written | fsynced | temp | unknown


@dataclass(frozen=True)
class LifecycleCall:
    callee: str  # best-effort dotted name
    line: int
    args: tuple[LifecycleArg, ...] = ()


@dataclass(frozen=True)
class FunctionLifecycle:
    name: str  # "publish" or "Cls.method"
    params: tuple[str, ...] = ()
    actions: tuple[tuple[str, tuple[str, ...]], ...] = ()  # (param, actions)
    calls: tuple[LifecycleCall, ...] = ()

    def action_map(self) -> dict[str, frozenset[str]]:
        return {p: frozenset(a) for p, a in self.actions}


@dataclass(frozen=True)
class ModuleLifecycle:
    functions: tuple[FunctionLifecycle, ...] = ()


@dataclass(frozen=True)
class Finding:
    rule: str
    line: int
    col: int
    message: str
    hint: str = ""
    related: tuple[tuple[int, str], ...] = ()


def meet_states(states) -> str:
    """Meet call-site arg states into one incoming fact per param."""
    states = list(states)
    if not states or any(s == UNKNOWN for s in states):
        return UNKNOWN
    if all(s == TEMP for s in states):
        return TEMP
    if any(s == TEMP for s in states):
        return UNKNOWN
    if any(s == WRITTEN for s in states):
        return WRITTEN
    if all(s == FSYNCED for s in states):
        return FSYNCED
    return UNKNOWN


# ---------------------------------------------------------------------------
# Abstract state
# ---------------------------------------------------------------------------


class _State:
    """One abstract program state: bindings, path states, handles, debts."""

    __slots__ = ("env", "paths", "handles", "pending")

    def __init__(self, env=None, paths=None, handles=None, pending=None):
        self.env = env if env is not None else {}
        self.paths = paths if paths is not None else {}
        self.handles = handles if handles is not None else {}
        self.pending = pending if pending is not None else {}

    def copy(self) -> "_State":
        return _State(
            dict(self.env), dict(self.paths), dict(self.handles), dict(self.pending)
        )


def _join_content(a: str, b: str) -> str:
    for s in (WRITTEN, FSYNCED, PUBLISHED, GONE):
        if a == s or b == s:
            return s
    return UNKNOWN


def _join_env_value(a, b):
    if a == b:
        return a
    if a is None or b is None:
        # Bound on only one branch: keep the binding. Missing is not a
        # conflict, and dropping it would orphan handle tracking across
        # try/except acquisition patterns.
        return a if a is not None else b
    if (
        isinstance(a, tuple)
        and isinstance(b, tuple)
        and a[0] == "handle"
        and b[0] == "handle"
    ):
        return ("handle", a[1] | b[1])
    return None


def _join(a: "_State | None", b: "_State | None") -> "_State | None":
    if a is None:
        return b
    if b is None:
        return a
    env = {}
    for k in a.env.keys() | b.env.keys():
        v = _join_env_value(a.env.get(k), b.env.get(k))
        if v is not None:
            env[k] = v
    paths = {}
    for k in a.paths.keys() | b.paths.keys():
        sa = a.paths.get(k, (UNKNOWN, 0))
        sb = b.paths.get(k, (UNKNOWN, 0))
        state = _join_content(sa[0], sb[0])
        paths[k] = (state, sa[1] if sa[0] == state else sb[1])
    handles = {}
    for k in a.handles.keys() | b.handles.keys():
        ha = a.handles.get(k)
        hb = b.handles.get(k)
        if ha == ESCAPED or hb == ESCAPED:
            handles[k] = ESCAPED
        elif ha == OPEN or hb == OPEN:
            handles[k] = OPEN
        else:
            handles[k] = CLOSED
    pending = dict(a.pending)
    pending.update(b.pending)
    return _State(env, paths, handles, pending)


def _join_all(states):
    out = None
    for s in states:
        out = _join(out, s)
    return out


@dataclass
class _Resource:
    rid: int
    kind: str  # "file" | "fd" | "pool" | "mmap"
    desc: str
    line: int
    col: int
    path_key: tuple | None = None
    guarded: bool = False  # acquired directly by a with-item


# ---------------------------------------------------------------------------
# The interpreter
# ---------------------------------------------------------------------------


class _FunctionInterp:
    """Abstractly interpret one function body."""

    def __init__(
        self,
        node,
        *,
        fn_name: str,
        module: str | None,
        import_map,
        local_defs: set[str],
        callee_info=None,
        incoming=None,
        mode: str = "summary",
    ):
        self.node = node
        self.fn_name = fn_name
        self.module = module
        self.import_map = import_map
        self.local_defs = local_defs
        self.callee_info = callee_info
        self.incoming = incoming or {}
        self.mode = mode
        self.params = tuple(
            a.arg for a in (node.args.posonlyargs + node.args.args)
        )
        self.kwonly = tuple(a.arg for a in node.args.kwonlyargs)
        self.resources: dict[int, _Resource] = {}
        self._next_rid = 0
        self.exc_frames: list[list[tuple[_State, int]]] = [[]]
        self.ret_frames: list[list[tuple[_State, int]]] = [[]]
        self.events: list[tuple[str, tuple, int]] = []  # (kind, key, line)
        self.calls_out: list[LifecycleCall] = []
        self.findings: dict[tuple, Finding] = {}
        self.renamed_srcs: set[tuple] = set()
        self.forced_temp: set[tuple] = set()
        self.writes_801: dict[tuple, tuple[int, int, str]] = {}

    # -- setup ------------------------------------------------------------

    def run(self) -> None:
        st = _State()
        skip_first = self.params[:1] in (("self",), ("cls",))
        for p in self.params + self.kwonly:
            key = ("param", p)
            st.env[p] = key
            fact = self.incoming.get(p)
            if fact == TEMP:
                self.forced_temp.add(key)
            elif fact in (WRITTEN, FSYNCED):
                st.paths[key] = (fact, self.node.lineno)
        self._skip_self = skip_first
        out = self.exec_block(self.node.body, st)
        end_line = getattr(self.node.body[-1], "end_lineno", None) or self.node.lineno
        if out is not None:
            self.ret_frames[0].append((out, end_line))
        if self.mode == "check":
            self._check_exits()
            self._finalize_801()

    # -- statement dispatch ------------------------------------------------

    def exec_block(self, stmts, st: "_State | None") -> "_State | None":
        for stmt in stmts:
            if st is None:
                break
            st = self.exec_stmt(stmt, st)
        return st

    def _may_raise(self, stmt) -> bool:
        if self._is_release_stmt(stmt):
            # ``os.close(fd)`` / ``fh.close()`` release the resource even
            # when the call itself raises (POSIX close semantics), so the
            # pre-release state is not a real exceptional exit.
            return False
        for sub in ast.walk(stmt):
            if isinstance(sub, (ast.Call, ast.Raise, ast.Assert)):
                return True
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
        return False

    def _is_release_stmt(self, stmt) -> bool:
        if not isinstance(stmt, ast.Expr) or not isinstance(stmt.value, ast.Call):
            return False
        call = stmt.value
        if isinstance(call.func, ast.Attribute) and call.func.attr in _CLOSE_METHODS:
            return True
        return self._resolve(call.func) == "os.close"

    def _snapshot_exc(self, st: _State, line: int) -> None:
        self.exc_frames[-1].append((st.copy(), line))

    def exec_stmt(self, stmt, st: _State) -> "_State | None":
        simple_may_raise = isinstance(
            stmt,
            (
                ast.Expr,
                ast.Assign,
                ast.AnnAssign,
                ast.AugAssign,
                ast.Assert,
                ast.Delete,
            ),
        )
        if simple_may_raise and self._may_raise(stmt):
            self._snapshot_exc(st, stmt.lineno)

        if isinstance(stmt, ast.Expr):
            self.eval(stmt.value, st)
            return st
        if isinstance(stmt, ast.Assign):
            value = self.eval(stmt.value, st)
            for target in stmt.targets:
                self._bind(target, value, st)
            return st
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                value = self.eval(stmt.value, st)
                self._bind(stmt.target, value, st)
            return st
        if isinstance(stmt, ast.AugAssign):
            self.eval(stmt.value, st)
            return st
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                value = self.eval(stmt.value, st)
                self._escape_value(value, st)
                self._escape_names(stmt.value, st)
            self.ret_frames[-1].append((st.copy(), stmt.lineno))
            return None
        if isinstance(stmt, ast.Raise):
            self._snapshot_exc(st, stmt.lineno)
            return None
        if isinstance(stmt, ast.If):
            self.eval(stmt.test, st)
            a = self.exec_block(stmt.body, st.copy())
            b = self.exec_block(stmt.orelse, st.copy())
            return _join(a, b)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            if isinstance(stmt, ast.While):
                self.eval(stmt.test, st)
            else:
                self.eval(stmt.iter, st)
                self._bind(stmt.target, None, st)
            body = self.exec_block(stmt.body, st.copy())
            out = _join(st, body)
            if stmt.orelse:
                out = self.exec_block(stmt.orelse, out)
            return out
        if isinstance(stmt, ast.Try):
            return self._exec_try(stmt, st)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._exec_with(stmt, st)
        if isinstance(stmt, ast.Match):
            self.eval(stmt.subject, st)
            outs = [self.exec_block(case.body, st.copy()) for case in stmt.cases]
            outs.append(st)  # no case may match
            return _join_all(o for o in outs if o is not None)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            self._escape_names(stmt, st)
            return st
        # Pass, Break, Continue, Import, Global, Nonlocal, Assert, Delete, ...
        return st

    # -- structured statements --------------------------------------------

    def _exec_try(self, stmt: ast.Try, st: _State) -> "_State | None":
        has_finally = bool(stmt.finalbody)
        if has_finally:
            self.exc_frames.append([])
            self.ret_frames.append([])
        self.exc_frames.append([])
        entry = st.copy()
        body_out = self.exec_block(stmt.body, st)
        body_exc = self.exc_frames.pop()

        handler_entry = _join_all([entry] + [s for s, _ in body_exc])
        handler_outs = []
        catches_all = False
        for handler in stmt.handlers:
            if handler.type is None or self._is_broad_except(handler.type):
                catches_all = True
            if handler_entry is not None:
                h_st = handler_entry.copy()
                if handler.name:
                    h_st.env.pop(handler.name, None)
                handler_outs.append(self.exec_block(handler.body, h_st))
        if body_exc and not (stmt.handlers and catches_all):
            if not stmt.handlers:
                self.exc_frames[-1].extend((s.copy(), l) for s, l in body_exc)
            else:
                joined = _join_all(s for s, _ in body_exc)
                if joined is not None:
                    self.exc_frames[-1].append((joined, body_exc[0][1]))
        if body_out is not None and stmt.orelse:
            body_out = self.exec_block(stmt.orelse, body_out)
        out = _join_all([body_out] + handler_outs)

        if has_finally:
            inner_exc = self.exc_frames.pop()
            inner_ret = self.ret_frames.pop()
            for s, line in inner_exc:
                fin = self.exec_block(stmt.finalbody, s)
                if fin is not None:
                    self.exc_frames[-1].append((fin, line))
            for s, line in inner_ret:
                fin = self.exec_block(stmt.finalbody, s)
                if fin is not None:
                    self.ret_frames[-1].append((fin, line))
            if out is not None:
                out = self.exec_block(stmt.finalbody, out)
            elif not inner_exc and not inner_ret:
                self.exec_block(stmt.finalbody, entry.copy())
        return out

    def _is_broad_except(self, type_node) -> bool:
        names = []
        if isinstance(type_node, ast.Tuple):
            names = [n for n in type_node.elts]
        else:
            names = [type_node]
        for n in names:
            if isinstance(n, ast.Name) and n.id in ("Exception", "BaseException"):
                return True
        return False

    def _exec_with(self, stmt, st: _State) -> "_State | None":
        guarded_rids: set[int] = set()
        suppresses = False
        for item in stmt.items:
            value = self.eval(item.context_expr, st, in_with=True)
            dotted = self._resolve(item.context_expr.func) if isinstance(
                item.context_expr, ast.Call
            ) else None
            if dotted in _SUPPRESS_FNS:
                suppresses = True
            if isinstance(value, tuple) and value and value[0] == "handle":
                guarded_rids |= value[1]
                for rid in value[1]:
                    self.resources[rid].guarded = True
            if item.optional_vars is not None:
                self._bind(item.optional_vars, value, st)

        def release(state: _State) -> _State:
            for rid in guarded_rids:
                if state.handles.get(rid) == OPEN:
                    state.handles[rid] = CLOSED
            return state

        self.exc_frames.append([])
        self.ret_frames.append([])
        out = self.exec_block(stmt.body, st)
        body_exc = self.exc_frames.pop()
        body_ret = self.ret_frames.pop()
        for s, line in body_ret:
            self.ret_frames[-1].append((release(s), line))
        exc_outs = []
        for s, line in body_exc:
            s = release(s)
            if suppresses:
                exc_outs.append(s)
            else:
                self.exc_frames[-1].append((s, line))
        if out is not None:
            out = release(out)
        return _join_all([out] + exc_outs)

    # -- bindings and escapes ----------------------------------------------

    def _bind(self, target, value, st: _State) -> None:
        if isinstance(target, ast.Name):
            if value is None:
                value = ("local", target.id, target.lineno)
            st.env[target.id] = value
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, None, st)
            return
        # self.x = h / container[i] = h: ownership escapes
        self._escape_value(value, st)

    def _escape_value(self, value, st: _State) -> None:
        if isinstance(value, tuple) and value and value[0] == "handle":
            for rid in value[1]:
                st.handles[rid] = ESCAPED

    def _escape_names(self, node, st: _State) -> None:
        """Escape every handle referenced anywhere under ``node``."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                self._escape_value(st.env.get(sub.id), st)

    # -- expression evaluation ---------------------------------------------

    def _resolve(self, func) -> str | None:
        dotted = self.import_map.resolve(func)
        if dotted:
            return dotted
        if isinstance(func, ast.Name):
            if func.id in self.local_defs and self.module:
                return f"{self.module}.{func.id}"
            if func.id in ("open", "str"):
                return func.id
        return None

    def _new_resource(self, kind, desc, node, path_key=None):
        rid = self._next_rid
        self._next_rid += 1
        self.resources[rid] = _Resource(
            rid, kind, desc, node.lineno, node.col_offset, path_key
        )
        return rid

    def eval(self, node, st: _State, in_with: bool = False):
        if node is None:
            return None
        if isinstance(node, ast.Name):
            return st.env.get(node.id)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, str) and ("/" in node.value or "." in node.value or node.value):
                return ("lit", node.value)
            return None
        if isinstance(node, ast.Attribute):
            if node.attr == "parent":
                base = self.eval(node.value, st)
                if self._is_path(base):
                    return ("dir", base)
            dotted = self._dotted_text(node)
            if dotted and (dotted.startswith("self.") or dotted.startswith("cls.")):
                return ("attr", dotted)
            return None
        if isinstance(node, ast.Await):
            return self.eval(node.value, st)
        if isinstance(node, ast.Starred):
            return self.eval(node.value, st)
        if isinstance(node, ast.IfExp):
            self.eval(node.test, st)
            a = self.eval(node.body, st)
            return a if a is not None else self.eval(node.orelse, st)
        if isinstance(node, ast.BoolOp):
            for v in node.values:
                out = self.eval(v, st)
                if out is not None:
                    return out
            return None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            left = self.eval(node.left, st)
            if self._is_path(left):
                return self._join_key(left, node.right, st)
            return None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            left = self.eval(node.left, st)
            if self._is_path(left):
                return self._join_key(left, node.right, st)
            return None
        if isinstance(node, ast.JoinedStr):
            first = node.values[0] if node.values else None
            if (
                isinstance(first, ast.Constant)
                and isinstance(first.value, str)
                and _literal_tail_is_temp(first.value or ".")
                and first.value.startswith(".")
            ):
                return ("temp", node.lineno)
            return None
        if isinstance(node, ast.Call):
            return self._eval_call(node, st, in_with=in_with)
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            if getattr(node, "value", None) is not None:
                self._escape_value(self.eval(node.value, st), st)
                self._escape_names(node.value, st)
            return None
        if isinstance(node, ast.Compare):
            self.eval(node.left, st)
            for c in node.comparators:
                self.eval(c, st)
            return None
        if isinstance(node, (ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            self._escape_names(node, st)
            return None
        return None

    def _is_path(self, value) -> bool:
        return isinstance(value, tuple) and value and value[0] in (
            "param",
            "attr",
            "lit",
            "temp",
            "join",
            "dir",
            "local",
        )

    def _join_key(self, base, tail_node, st: _State):
        tail = "*"
        if isinstance(tail_node, ast.Constant) and isinstance(tail_node.value, str):
            tail = tail_node.value
        elif isinstance(tail_node, ast.JoinedStr):
            first = tail_node.values[0] if tail_node.values else None
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                tail = first.value + "*"
        return ("join", base, tail)

    def _dotted_text(self, node) -> str | None:
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
            return ".".join(reversed(parts))
        return None

    # -- temp-ness ---------------------------------------------------------

    def is_temp(self, key) -> bool:
        if not isinstance(key, tuple):
            return False
        if key in self.forced_temp:
            return True
        kind = key[0]
        if kind == "temp":
            return True
        if kind == "join":
            tail = key[2]
            if tail != "*" and _literal_tail_is_temp(tail):
                return True
            return self.is_temp(key[1])
        if kind == "dir":
            return self.is_temp(key[1])
        if kind in ("param", "local"):
            return _looks_temp_name(key[1])
        if kind == "attr":
            return _looks_temp_name(key[1].rsplit(".", 1)[-1])
        if kind == "lit":
            return _literal_tail_is_temp(key[1])
        return False

    def _root(self, key):
        while isinstance(key, tuple) and key[0] in ("join", "dir"):
            key = key[1]
        return key

    def _within(self, key, ancestor) -> bool:
        while isinstance(key, tuple):
            if key == ancestor:
                return True
            if key[0] in ("join", "dir"):
                key = key[1]
            else:
                return False
        return False

    def _render(self, key) -> str:
        if not isinstance(key, tuple):
            return "<?>"
        kind = key[0]
        if kind == "param":
            return key[1]
        if kind == "local":
            return key[1]
        if kind == "attr":
            return key[1]
        if kind == "lit":
            return repr(key[1])
        if kind == "temp":
            return f"<temp@{key[1]}>"
        if kind == "dir":
            return f"dirname({self._render(key[1])})"
        if kind == "join":
            tail = key[2] if key[2] != "*" else "..."
            return f"{self._render(key[1])}/{tail}"
        return "<?>"

    # -- effects -----------------------------------------------------------

    def _parent_keys(self, key):
        """Keys whose dir-fsync discharges an obligation on ``key``."""
        parents = [("dir", key)]
        if isinstance(key, tuple) and key[0] == "join":
            parents.append(key[1])
            parents.append(("dir", key[1]))
        return parents

    def _fsync_effect(self, st: _State, key, line: int) -> None:
        if not self._is_path(key):
            return
        self.events.append((A_FSYNCS, key, line))
        if key[0] == "dir":
            self.events.append((A_DIRSYNCS_PARENT, key[1], line))
        cur = st.paths.get(key)
        if cur is None or cur[0] in (UNKNOWN, WRITTEN, FSYNCED):
            st.paths[key] = (FSYNCED, line)
        for k, (state, _l) in list(st.paths.items()):
            if state == WRITTEN and self._within(k, key):
                st.paths[k] = (FSYNCED, line)
        # dir-fsync discharges rename/unlink debts inside that directory
        for dst in list(st.pending):
            if key in self._parent_keys(dst):
                del st.pending[dst]

    def _write_effect(self, st: _State, key, node, desc: str) -> None:
        if not self._is_path(key):
            return
        st.paths[key] = (WRITTEN, node.lineno)
        if (
            self.mode == "check"
            and not self.is_temp(key)
            and isinstance(self._root(key), tuple)
            and self._root(key)[0] in ("param", "attr", "lit")
            and key[0] != "dir"
        ):
            self.writes_801.setdefault(key, (node.lineno, node.col_offset, desc))

    def _rename_effect(self, st: _State, src_key, dst_key, node, via: str) -> None:
        line, col = node.lineno, node.col_offset
        if self._is_path(src_key):
            self.events.append((A_RENAMES_FROM, src_key, line))
            unsynced = [
                (k, lw)
                for k, (state, lw) in st.paths.items()
                if state == WRITTEN and self._within(k, src_key)
            ]
            if unsynced and self.mode == "check":
                related = tuple(
                    sorted((lw, f"{self._render(k)} written here, never fsynced") for k, lw in unsynced)
                )
                self._emit(
                    "REP802",
                    line,
                    col,
                    f"{via} publishes {self._render(src_key)} while its payload is "
                    "written but not fsynced on this path; a crash can publish "
                    "empty or torn content",
                    hint="fsync every payload file before the rename "
                    "(core.fsutil.publish_atomically does this)",
                    related=related,
                )
            self.renamed_srcs.add(src_key)
            for k in list(st.paths):
                if self._within(k, src_key):
                    st.paths[k] = (GONE, line)
        if self._is_path(dst_key):
            self.events.append((A_RENAMES_TO, dst_key, line))
            st.paths[dst_key] = (PUBLISHED, line)
            if not self.is_temp(dst_key):
                st.pending[dst_key] = (line, col, via)

    def _unlink_effect(self, st: _State, key, node, via: str) -> None:
        if not self._is_path(key):
            return
        st.paths[key] = (GONE, node.lineno)
        if not self.is_temp(key):
            st.pending[key] = (node.lineno, node.col_offset, via)

    def _close_rids(self, st: _State, value) -> bool:
        if isinstance(value, tuple) and value and value[0] == "handle":
            for rid in value[1]:
                if st.handles.get(rid) != ESCAPED:
                    st.handles[rid] = CLOSED
            return True
        return False

    def _emit(self, rule, line, col, message, hint="", related=()) -> None:
        key = (rule, line, col, message)
        if key not in self.findings:
            self.findings[key] = Finding(rule, line, col, message, hint, tuple(related))

    # -- calls -------------------------------------------------------------

    def _open_mode_writes(self, node) -> bool:
        mode = "r"
        if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant):
            mode = str(node.args[1].value)
        for kw in node.keywords:
            if kw.arg == "mode" and isinstance(kw.value, ast.Constant):
                mode = str(kw.value.value)
        return any(c in mode for c in "wax+")

    def _os_open_writes(self, node) -> bool:
        if len(node.args) < 2:
            return False
        for sub in ast.walk(node.args[1]):
            if isinstance(sub, ast.Attribute) and sub.attr in _WRITE_OS_FLAGS:
                return True
            if isinstance(sub, ast.Name) and sub.id in _WRITE_OS_FLAGS:
                return True
        return False

    def _eval_call(self, node: ast.Call, st: _State, in_with: bool = False):
        args = [self.eval(a, st) for a in node.args]
        for kw in node.keywords:
            self._escape_value(self.eval(kw.value, st), st)
        dotted = self._resolve(node.func)

        # --- stdlib recognizers ------------------------------------------
        if dotted == "open" or dotted == "io.open":
            key = args[0] if args else None
            writes = self._open_mode_writes(node)
            if writes and self._is_path(key):
                self._write_effect(st, key, node, "open() for writing")
            rid = self._new_resource(
                "file", f"file handle for {self._render(key)}", node, key if self._is_path(key) else None
            )
            st.handles[rid] = OPEN
            return ("handle", frozenset([rid]))
        if dotted == "os.open":
            key = args[0] if args else None
            if self._os_open_writes(node) and self._is_path(key):
                self._write_effect(st, key, node, "os.open() for writing")
            rid = self._new_resource(
                "fd", f"file descriptor for {self._render(key)}", node, key if self._is_path(key) else None
            )
            st.handles[rid] = OPEN
            return ("handle", frozenset([rid]))
        if dotted == "os.fdopen":
            fd = args[0] if args else None
            path_key = None
            if isinstance(fd, tuple) and fd and fd[0] == "handle":
                for rid in fd[1]:
                    path_key = path_key or self.resources[rid].path_key
                    st.handles[rid] = CLOSED  # ownership moves into the new object
            rid = self._new_resource(
                "file", f"file handle for {self._render(path_key)}", node, path_key
            )
            st.handles[rid] = OPEN
            return ("handle", frozenset([rid]))
        if dotted == "os.close":
            self._close_rids(st, args[0] if args else None)
            return None
        if dotted == "os.fsync":
            target = None
            if args:
                arg0 = node.args[0]
                if (
                    isinstance(arg0, ast.Call)
                    and isinstance(arg0.func, ast.Attribute)
                    and arg0.func.attr == "fileno"
                ):
                    inner = self.eval(arg0.func.value, st)
                    if isinstance(inner, tuple) and inner and inner[0] == "handle":
                        for rid in inner[1]:
                            target = target or self.resources[rid].path_key
                elif isinstance(args[0], tuple) and args[0] and args[0][0] == "handle":
                    for rid in args[0][1]:
                        target = target or self.resources[rid].path_key
                elif self._is_path(args[0]):
                    target = args[0]
            if target is not None:
                self._fsync_effect(st, target, node.lineno)
            return None
        if dotted in _RENAME_FNS and len(args) >= 2:
            self._rename_effect(st, args[0], args[1], node, dotted)
            return None
        if dotted in _UNLINK_FNS and args:
            self._unlink_effect(st, args[0], node, dotted)
            return None
        if dotted in _COPY_DST_FNS and len(args) >= 2:
            if self._is_path(args[1]):
                self._write_effect(st, args[1], node, dotted)
            return None
        if dotted in _WRITE_DST_FNS and args:
            if self._is_path(args[0]):
                self._write_effect(st, args[0], node, dotted)
            return None
        if dotted in _TEMP_FNS:
            return ("temp", node.lineno)
        if dotted in _PASSTHROUGH_FNS or dotted == "str":
            return args[0] if args and self._is_path(args[0]) else None
        if dotted == "os.path.join" and args:
            key = args[0]
            if not self._is_path(key):
                return None
            for part in node.args[1:]:
                key = self._join_key(key, part, st)
            return key
        if dotted == "os.path.dirname" and args:
            if self._is_path(args[0]):
                return ("dir", args[0])
            return None
        if dotted in _POOL_FNS:
            kind = "process pool" if "Process" in dotted or dotted.endswith("Pool") else "thread pool"
            rid = self._new_resource("pool", kind, node)
            st.handles[rid] = OPEN
            return ("handle", frozenset([rid]))
        if dotted in _MMAP_FNS:
            rid = self._new_resource("mmap", "memory map", node)
            st.handles[rid] = OPEN
            return ("handle", frozenset([rid]))

        # --- method calls on tracked values ------------------------------
        if isinstance(node.func, ast.Attribute):
            base = self.eval(node.func.value, st)
            meth = node.func.attr
            if isinstance(base, tuple) and base and base[0] == "handle":
                if meth in _CLOSE_METHODS:
                    self._close_rids(st, base)
                    for rid in base[1]:
                        pk = self.resources[rid].path_key
                        if pk is not None:
                            self.events.append((A_CLOSES, pk, node.lineno))
                return None
            if self._is_path(base):
                if meth in _PATH_WRITE_METHODS:
                    self._write_effect(st, base, node, f".{meth}()")
                    return None
                if meth in ("rename", "replace") and len(node.args) == 1:
                    self._rename_effect(st, base, args[0], node, f"Path.{meth}")
                    return None
                if meth == "unlink" or meth == "rmdir":
                    self._unlink_effect(st, base, node, f"Path.{meth}")
                    return None
                if meth == "open":
                    writes = self._open_mode_writes(
                        ast.Call(func=node.func, args=[node.func.value] + node.args, keywords=node.keywords)
                    )
                    if writes:
                        self._write_effect(st, base, node, "Path.open() for writing")
                    rid = self._new_resource(
                        "file", f"file handle for {self._render(base)}", node, base
                    )
                    st.handles[rid] = OPEN
                    return ("handle", frozenset([rid]))
                if meth in ("with_name", "with_suffix") and node.args:
                    tail_node = node.args[0]
                    tail_val = self.eval(tail_node, st)
                    if isinstance(tail_val, tuple) and tail_val[0] == "temp":
                        return tail_val
                    if isinstance(tail_node, ast.Constant) and isinstance(
                        tail_node.value, str
                    ) and _literal_tail_is_temp(tail_node.value):
                        return ("temp", node.lineno)
                    return ("join", ("dir", base), "*")
                if meth == "joinpath":
                    key = base
                    for part in node.args:
                        key = self._join_key(key, part, st)
                    return key
                if meth == "absolute" or meth == "resolve" or meth == "expanduser":
                    return base

        # --- project calls ------------------------------------------------
        return self._project_call(node, dotted, args, st)

    def _project_call(self, node: ast.Call, dotted, args, st: _State):
        arg_records = []
        for value in args:
            if self._is_path(value):
                if self.is_temp(value):
                    state = TEMP
                elif value in st.paths and st.paths[value][0] in (WRITTEN, FSYNCED):
                    state = st.paths[value][0]
                else:
                    state = UNKNOWN
                shape, param = "other", None
                if value[0] == "param":
                    shape, param = "param", value[1]
                elif value[0] == "dir" and isinstance(value[1], tuple) and value[1][0] == "param":
                    shape, param = "dir-of-param", value[1][1]
                arg_records.append(LifecycleArg(shape, param, state))
            else:
                arg_records.append(LifecycleArg("other", None, UNKNOWN))

        if self.mode == "summary":
            if dotted:
                self.calls_out.append(
                    LifecycleCall(dotted, node.lineno, tuple(arg_records))
                )
            for value in args:
                self._escape_value(value, st)
            return None

        info = self.callee_info(dotted) if (dotted and self.callee_info) else None
        if info is None:
            # Unknown callee: handles escape (conservative silence), path
            # states are left untouched.
            for value in args:
                self._escape_value(value, st)
            return None

        params, actions = info
        bound = list(zip(params, args))
        # 1. fsyncs / dirsyncs first — a well-formed publish helper fsyncs
        #    before it renames, so order the discharge the same way.
        for pname, value in bound:
            acts = actions.get(pname, frozenset())
            if A_FSYNCS in acts and self._is_path(value):
                self._fsync_effect(st, value, node.lineno)
            if A_DIRSYNCS_PARENT in acts and self._is_path(value):
                st.pending.pop(value, None)
        # 2. renames: check the caller-side protocol, then apply.
        for pname, value in bound:
            acts = actions.get(pname, frozenset())
            if A_RENAMES_FROM in acts and self._is_path(value):
                self.renamed_srcs.add(value)
                unsynced = [
                    (k, lw)
                    for k, (state, lw) in st.paths.items()
                    if state == WRITTEN and self._within(k, value)
                ]
                if unsynced and A_FSYNCS not in acts and self.mode == "check":
                    related = tuple(
                        sorted((lw, f"{self._render(k)} written here, never fsynced") for k, lw in unsynced)
                    )
                    self._emit(
                        "REP802",
                        node.lineno,
                        node.col_offset,
                        f"{dotted.rsplit('.', 1)[-1]}() renames {self._render(value)} "
                        "into place but neither this function nor the callee fsyncs "
                        "the written payload first",
                        hint="fsync the payload before publishing, or use "
                        "core.fsutil.publish_atomically",
                        related=related,
                    )
                for k in list(st.paths):
                    if self._within(k, value):
                        st.paths[k] = (GONE, node.lineno)
            if A_RENAMES_TO in acts and self._is_path(value):
                st.paths[value] = (PUBLISHED, node.lineno)
                if A_DIRSYNCS_PARENT not in acts and not self.is_temp(value):
                    st.pending[value] = (node.lineno, node.col_offset, dotted)
        # 3. closes: the callee consumes the handle.
        for pname, value in bound:
            acts = actions.get(pname, frozenset())
            if isinstance(value, tuple) and value and value[0] == "handle":
                if A_CLOSES in acts:
                    self._close_rids(st, value)
                # resolved callee without "closes": ownership stays here.
        return None

    # -- end-of-function checks (check mode) -------------------------------

    def _check_exits(self) -> None:
        normal = self.ret_frames[0]
        exceptional = self.exc_frames[0]
        pending_seen: dict[tuple, tuple] = {}
        for st, _line in normal:
            for dst, (line, col, via) in st.pending.items():
                pending_seen.setdefault((line, col), (dst, via))
        for (line, col), (dst, via) in sorted(pending_seen.items()):
            self._emit(
                "REP802",
                line,
                col,
                f"{via} changes the directory entry for {self._render(dst)} but no "
                "path to return fsyncs the parent directory, so the change can "
                "vanish after a crash",
                hint="fsync the parent directory (core.fsutil.fsync_dir / "
                "publish_atomically) before returning",
            )
        for rid in sorted(self.resources):
            res = self.resources[rid]
            if res.guarded:
                continue
            leak_line = None
            on_exc = False
            for st, line in normal:
                if st.handles.get(rid) == OPEN:
                    leak_line = line
                    break
            if leak_line is None:
                for st, line in exceptional:
                    if st.handles.get(rid) == OPEN:
                        leak_line, on_exc = line, True
                        break
            if leak_line is None:
                continue
            if on_exc:
                msg = (
                    f"{res.desc} acquired here is not released if an exception "
                    f"is raised around line {leak_line}"
                )
                hint = "wrap the resource in `with`, or release it in a finally block"
            else:
                msg = (
                    f"{res.desc} acquired here is not released on the path "
                    f"reaching line {leak_line}"
                )
                hint = "use a `with` block, or close/shutdown the resource on every exit"
            self._emit(
                "REP803",
                res.line,
                res.col,
                msg,
                hint=hint,
                related=((leak_line, "execution can leave the function here"),),
            )

    def _finalize_801(self) -> None:
        for key, (line, col, desc) in sorted(self.writes_801.items(), key=lambda i: i[1]):
            if any(self._within(key, src) or self._within(src, key) for src in self.renamed_srcs):
                continue
            self._emit(
                "REP801",
                line,
                col,
                f"{desc} writes directly to durable path {self._render(key)} "
                "without the temp+fsync+rename publish protocol",
                hint="write to a dot-prefixed temp sibling, then "
                "core.fsutil.publish_atomically(temp, dest)",
            )

    # -- summary extraction ------------------------------------------------

    def summary(self) -> FunctionLifecycle:
        actions: dict[str, set[str]] = {}
        param_keys = {("param", p): p for p in self.params + self.kwonly}
        for kind, key, _line in self.events:
            if key in param_keys:
                actions.setdefault(param_keys[key], set()).add(kind)
            elif (
                kind == A_FSYNCS
                and isinstance(key, tuple)
                and key[0] == "dir"
                and key[1] in param_keys
            ):
                actions.setdefault(param_keys[key[1]], set()).add(A_DIRSYNCS_PARENT)
        return FunctionLifecycle(
            name=self.fn_name,
            params=self.params + self.kwonly,
            actions=tuple(
                sorted((p, tuple(sorted(a))) for p, a in actions.items())
            ),
            calls=tuple(self.calls_out),
        )


# ---------------------------------------------------------------------------
# Module-level drivers
# ---------------------------------------------------------------------------


def _iter_functions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{sub.name}", sub


def _local_defs(tree) -> set[str]:
    return {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def summarize_lifecycle(
    tree, module: str | None, import_map: ImportMap
) -> ModuleLifecycle:
    """Build the picklable lifecycle summary for one module."""
    local = _local_defs(tree)
    functions = []
    for name, node in _iter_functions(tree):
        interp = _FunctionInterp(
            node,
            fn_name=name,
            module=module,
            import_map=import_map,
            local_defs=local,
            mode="summary",
        )
        try:
            interp.run()
        except RecursionError:  # pragma: no cover - pathological nesting
            continue
        functions.append(interp.summary())
    return ModuleLifecycle(functions=tuple(functions))


def analyze_module(
    tree,
    module: str | None,
    import_map: ImportMap,
    *,
    callee_info,
    incoming,
) -> tuple[Finding, ...]:
    """Check-time interpretation of every function in a module.

    ``callee_info(dotted)`` returns ``(params, {param: actions})`` for a
    project-resolvable callee or ``None``; ``incoming`` maps local
    function names to per-param incoming resource states.
    """
    local = _local_defs(tree)
    findings: list[Finding] = []
    for name, node in _iter_functions(tree):
        interp = _FunctionInterp(
            node,
            fn_name=name,
            module=module,
            import_map=import_map,
            local_defs=local,
            callee_info=callee_info,
            incoming=incoming.get(name, {}),
            mode="check",
        )
        try:
            interp.run()
        except RecursionError:  # pragma: no cover - pathological nesting
            continue
        findings.extend(interp.findings.values())
    findings.sort(key=lambda f: (f.line, f.col, f.rule, f.message))
    return tuple(findings)


def file_report(ctx) -> tuple[Finding, ...]:
    """Cached per-file driver shared by the REP801/802/803 checkers."""
    report = getattr(ctx, "_lifecycle_report", None)
    if report is None:
        report = ctx._lifecycle_report = analyze_module(
            ctx.tree,
            ctx.module,
            ImportMap(ctx.summary.exports),
            callee_info=ctx.graph.lifecycle_callee_info,
            incoming=ctx.graph.lifecycle_incoming_for_module(ctx.module),
        )
    return report


def in_durable_scope(module: str | None, durable_roots) -> bool:
    if not module:
        return False
    for root in durable_roots:
        if module == root or module.startswith(root + "."):
            return True
    return False
