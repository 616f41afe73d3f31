"""Static checks on the package source."""

import ast
import importlib
import inspect
import re
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "suffixbeam"
# __init__.py is exempt: its imports are the package's re-exports
MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names a module imports and never reads (``__future__`` imports aside)."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_unused_import_check_finds_a_leftover():
    source = "import os\nimport numpy as np\nfrom .x import a, b\nnp.zeros(a)\n"
    assert unused_imports(source) == ["os", "b"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def unread_private_names(sources: dict) -> list:
    """``(module, name)`` of each private module-level name that no module reads.

    Private means one leading underscore, not a dunder. A read is a loaded
    name, an attribute of that name or an import of it, in any module.
    """
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(module, name) for name in names if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return [(module, name) for module, name in defined if name not in read]


def test_unread_private_name_check_finds_a_leftover():
    sources = {
        "a.py": "_used = 1\n_left, _also = 2, 3\n__dunder__ = 4\ndef _f():\n    return _used\nclass _C: pass\n",
        "b.py": "from .a import _f\nfrom . import a\na._also\n",
    }
    assert unread_private_names(sources) == [("a.py", "_left"), ("a.py", "_C")]


def test_no_unread_private_names():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unread_private_names(sources) == []


def export_mismatches(source: str) -> list:
    """What is wrong with a package ``__init__``'s ``__all__``, as ``(problem, name)`` pairs.

    A name is ``repeated`` in ``__all__``, ``unbound`` when the module neither
    imports, defines nor assigns it, or ``not exported`` when the module
    imports it (``__future__`` aside) and ``__all__`` leaves it out.
    """
    tree = ast.parse(source)
    imported, bound, exported = [], set(), []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            names = [t.id for target in node.targets for t in ast.walk(target) if isinstance(t, ast.Name)]
            bound.update(names)
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
    bound.update(imported)
    return ([("repeated", name) for name, n in Counter(exported).items() if n > 1]
            + [("unbound", name) for name in dict.fromkeys(exported) if name not in bound]
            + [("not exported", name) for name in imported if name not in exported])


def test_export_check_finds_a_planted_mismatch():
    source = (
        "from .a import f, g as h, k\nimport numpy\n\ndef local(): pass\n\n"
        "__version__ = '1'\n__all__ = ['f', 'h', 'f', 'local', 'gone', 'numpy']\n"
    )
    assert export_mismatches(source) == [("repeated", "f"), ("unbound", "gone"), ("not exported", "k")]


def test_package_exports_each_import_once():
    assert export_mismatches((SRC / "__init__.py").read_text()) == []


def replay_lifetime_breaches(source: str) -> list:
    """``(line, what)`` of each place a module starts a replay or touches the graph's lifetime.

    That is a ``ReplayState(...)`` call, a ``.clear()`` on a compiled net
    (a receiver named or ending in ``compiled``) and a read of
    ``REPLAY_MEMO_CAP``; only :mod:`suffixbeam.petri` may hold them.
    """
    def name(node):
        return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and name(node.func) == "ReplayState":
            found.append((node.lineno, "ReplayState(...)"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "clear":
            if name(node.func.value) in ("compiled", "CompiledNet"):
                found.append((node.lineno, "compiled.clear()"))
        elif name(node) == "REPLAY_MEMO_CAP":
            found.append((node.lineno, "REPLAY_MEMO_CAP"))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, "REPLAY_MEMO_CAP") for alias in node.names if alias.name == "REPLAY_MEMO_CAP"]
    return sorted(found)


def test_replay_lifetime_check_finds_a_leftover():
    source = (
        "from .petri import REPLAY_MEMO_CAP, ReplayState\n"
        "state = ReplayState(net.compiled)\n"
        "if len(net.compiled.codes) > petri.REPLAY_MEMO_CAP:\n"
        "    net.compiled.clear()\n"
        "compiled.clear()\n"
        "memo.clear()\n"
    )
    assert replay_lifetime_breaches(source) == [
        (1, "REPLAY_MEMO_CAP"), (2, "ReplayState(...)"), (3, "REPLAY_MEMO_CAP"),
        (4, "compiled.clear()"), (5, "compiled.clear()"),
    ]


@pytest.mark.parametrize("module", [m for m in MODULES if m != "petri.py"])
def test_only_petri_starts_a_replay_or_clears_a_graph(module):
    assert replay_lifetime_breaches((SRC / module).read_text()) == []


def trace_makers(source: str) -> list:
    """``(line, what)`` of each place a module makes a ``Trace``.

    That is a ``Trace(...)`` call, a ``_trusted_trace(...)`` call and a
    ``__new__`` call handed ``Trace``; only :mod:`suffixbeam.eventlog` may
    hold them, so it alone decides when a log makes its traces.
    """
    def name(node):
        return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and name(node.func) in ("Trace", "_trusted_trace"):
            found.append((node.lineno, f"{name(node.func)}(...)"))
        elif isinstance(node, ast.Call) and name(node.func) == "__new__":
            if any(name(arg) == "Trace" for arg in node.args):
                found.append((node.lineno, "__new__(Trace)"))
    return sorted(found)


def test_trace_maker_check_finds_a_leftover():
    source = (
        "from .eventlog import Trace, _trusted_trace\n"
        "a = Trace('c', ('A',), stamps)\n"
        "b = eventlog.Trace('c', ('A',), stamps)\n"
        "c = _trusted_trace('c', ('A',), stamps)\n"
        "d = object.__new__(Trace)\n"
        "e = isinstance(a, Trace) and TraceLike('c')\n"
    )
    assert trace_makers(source) == [
        (2, "Trace(...)"), (3, "Trace(...)"), (4, "_trusted_trace(...)"), (5, "__new__(Trace)"),
    ]


@pytest.mark.parametrize("module", [m for m in MODULES if m != "eventlog.py"])
def test_only_eventlog_makes_a_trace(module):
    assert trace_makers((SRC / module).read_text()) == []


def planned_column_names(source: str) -> list:
    """Lines where a module names ``_Planned``: a call, an attribute, an import or any other read.

    A ``_Planned`` is a column a log or a prefix log makes on its first read;
    only :mod:`suffixbeam.eventlog` may name it, so it alone decides when a
    log is planned and what its plan makes.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id == "_Planned" or \
                isinstance(node, ast.Attribute) and node.attr == "_Planned" or \
                isinstance(node, ast.ImportFrom) and any(alias.name == "_Planned" for alias in node.names):
            found.append(node.lineno)
    return sorted(found)


def test_planned_column_check_finds_a_leftover():
    source = (
        "from .eventlog import EventLog, _Planned\n"
        "a = EventLog(_Planned(column, make))\n"
        "b = eventlog._Planned._make((column, make, None))\n"
        "c = _planned_log(column, counts, None) and Planned(column)\n"
    )
    assert planned_column_names(source) == [1, 2, 3]


@pytest.mark.parametrize("module", [m for m in MODULES if m != "eventlog.py"])
def test_only_eventlog_plans_a_column(module):
    assert planned_column_names((SRC / module).read_text()) == []


HAND_WRITTEN = ("__setattr__", "__delattr__", "__eq__", "__hash__")


def hand_written_dunders(source: str) -> list:
    """``(line, "Class.name")`` of each ``__setattr__``, ``__delattr__``, ``__eq__`` or ``__hash__`` a class defines.

    A method or an assignment in the class body counts. A frozen dataclass
    writes these four, so a class that writes them itself imitates one.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [item.name]
            elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [(item.lineno, f"{node.name}.{name}") for name in names if name in HAND_WRITTEN]
    return found


def test_hand_written_dunder_check_finds_a_leftover():
    source = (
        "class Log:\n"
        "    def __eq__(self, other): return True\n"
        "    def __hash__(self): return 0\n"
        "    def __repr__(self): return 'Log'\n"
        "class Net:\n"
        "    __hash__ = None\n"
        "    def __setattr__(self, name, value): raise TypeError\n"
        "    def __delattr__(self, name): raise TypeError\n"
        "def __eq__(a, b): return a is b\n"
    )
    assert hand_written_dunders(source) == [
        (2, "Log.__eq__"), (3, "Log.__hash__"), (6, "Net.__hash__"), (7, "Net.__setattr__"), (8, "Net.__delattr__"),
    ]


@pytest.mark.parametrize("module", MODULES)
def test_no_class_writes_what_a_frozen_dataclass_writes(module):
    assert hand_written_dunders((SRC / module).read_text()) == []


def private_init_fields(source: str) -> list:
    """``(line, "Class.name")`` of each dataclass field named with a leading ``_`` that ``__init__`` takes.

    ``__init__`` skips a field declared ``field(init=False, ...)``, and a
    ``ClassVar`` is no field. A private field that ``__init__`` takes lets a
    caller hand in what the class means to keep to itself, such as a cache.
    """
    def name(node):
        return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)

    def skipped_by_init(value):
        return isinstance(value, ast.Call) and name(value.func) == "field" and any(
            kw.arg == "init" and isinstance(kw.value, ast.Constant) and kw.value.value is False
            for kw in value.keywords
        )

    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        if not any(name(d.func if isinstance(d, ast.Call) else d) == "dataclass" for d in node.decorator_list):
            continue
        for item in node.body:
            if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
                continue
            if item.target.id.startswith("_") and "ClassVar" not in ast.unparse(item.annotation):
                if not skipped_by_init(item.value):
                    found.append((item.lineno, f"{node.name}.{item.target.id}"))
    return found


def test_private_init_field_check_finds_a_leftover():
    source = (
        "@dataclass\n"
        "class Net:\n"
        "    name: str\n"
        "    _compiled: object = field(default=None, repr=False, compare=False)\n"
        "    _seen: dict = field(default_factory=dict, init=False)\n"
        "    _cap: ClassVar[int] = 4\n"
        "    _flag: InitVar[bool] = False\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class Log:\n"
        "    _traces: tuple\n"
        "class Plain:\n"
        "    _hidden: int = 0\n"
    )
    assert private_init_fields(source) == [(4, "Net._compiled"), (7, "Net._flag"), (10, "Log._traces")]


@pytest.mark.parametrize("module", MODULES)
def test_no_private_dataclass_field_is_an_init_parameter(module):
    assert private_init_fields((SRC / module).read_text()) == []


INLINE_FITNESS = re.compile(r"0\.5 \* \(1\.0 - \w+ / \w+\) \+ 0\.5 \* \(1\.0 - \w+ / \w+\)")


def compliance_computations(source: str, entry: str) -> list:
    """``(line, what)`` of each compliance computation that ``entry`` reaches.

    It looks in ``entry`` and in the module's functions it calls, directly or
    not. A computation is the inline fitness ``0.5 * (1.0 - m / c) + 0.5 *
    (1.0 - r / p)`` or a ``fitness_counts(...)`` call.
    """
    functions = {node.name: node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}
    reached, todo = set(), [entry]
    while todo:
        name = todo.pop()
        if name in functions and name not in reached:
            reached.add(name)
            calls = [n for n in ast.walk(functions[name]) if isinstance(n, ast.Call)]
            todo += [call.func.id for call in calls if isinstance(call.func, ast.Name)]
    found = []
    for name in reached:
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.BinOp) and INLINE_FITNESS.fullmatch(ast.unparse(node)):
                found.append((node.lineno, "inline"))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "fitness_counts":
                found.append((node.lineno, "fitness_counts(...)"))
    return sorted(found)


def test_compliance_computation_check_finds_a_second_copy():
    source = (
        "def _expand(pool, records):\n"
        "    if records:\n"
        "        return _recorded(pool)\n"
        "    fit = 0.5 * (1.0 - m / c) + 0.5 * (1.0 - r / p) if c > 0 and p > 0 else fitness_counts(p, c, m, r)\n"
        "def _recorded(pool):\n"
        "    return 0.5 * (1.0 - missing / consumed) + 0.5 * (1.0 - rest / produced)\n"
        "def _run_beam(pool):\n"
        "    return _expand(pool, None) + fitness_counts(p, c, m, r)\n"
    )
    assert compliance_computations(source, "_expand") == [
        (4, "fitness_counts(...)"), (4, "inline"), (6, "inline"),
    ]
    assert compliance_computations(source, "_run_beam") == [
        (4, "fitness_counts(...)"), (4, "inline"), (6, "inline"), (8, "fitness_counts(...)"),
    ]


def test_a_beam_step_computes_compliance_in_one_place():
    # every beam scores every child, the forced closure's END child included,
    # by one copy of the arithmetic: a second copy could drift from the first
    # and break the sweep's bit-for-bit equality with one beam per w
    source = (SRC / "beam.py").read_text()
    for entry in ("_run_beam", "checked_beam"):
        found = compliance_computations(source, entry)
        assert [what for _, what in found] == ["inline", "fitness_counts(...)"], entry


def method_callers(source: str, method: str) -> list:
    """``(function, line)`` of each call ``<anything>.method(...)`` in a module-level function."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            found += [(node.name, call.lineno) for call in ast.walk(node) if isinstance(call, ast.Call)
                      and isinstance(call.func, ast.Attribute) and call.func.attr == method]
    return sorted(found)


def test_method_caller_check_finds_a_second_caller():
    source = (
        "def _expand(pool, predictor):\n"
        "    return predictor.ranked_batch(pool, 3)\n"
        "def _children(pool, predictor):\n"
        "    ranked = iter(predictor.ranked_batch(pool, 3) or model.ranked_batch(pool, 2))\n"
        "ranked_batch(pool, 3)\n"
    )
    assert method_callers(source, "ranked_batch") == [("_children", 4), ("_children", 4), ("_expand", 2)]


def test_only_the_beam_step_asks_the_predictor_to_rank():
    # _expand ranks, once per step; _children only scores the records it is handed
    callers = method_callers((SRC / "beam.py").read_text(), "ranked_batch")
    assert {name for name, _ in callers} == {"_expand"}


def numbers_imports(source: str) -> list:
    """Lines where a module imports the ``numbers`` ABCs, to write a numeric type rule of its own.

    Only :mod:`suffixbeam._numbers` may: every numeric setting is checked by
    its ``as_int`` or ``as_real``, so the rule is written once.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [node.lineno for alias in node.names if alias.name.split(".")[0] == "numbers"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "numbers":
            found.append(node.lineno)
    return found


def test_numbers_import_check_finds_a_leftover():
    source = (
        "from numbers import Integral, Real\n"
        "import numbers\n"
        "import numbers as nb, math\n"
        "from ._numbers import as_int\n"
        "from . import _numbers\n"
        "def f(v):\n"
        "    from numbers import Real\n"
        "    return isinstance(v, Real)\n"
    )
    assert numbers_imports(source) == [1, 2, 3, 7]


@pytest.mark.parametrize("module", [m for m in MODULES if m != "_numbers.py"])
def test_only_the_number_rule_imports_numbers(module):
    assert numbers_imports((SRC / module).read_text()) == []


# The parameters each public settings class and log or net builder takes. A setting
# that no caller in the package, the benchmark or the CLI sets is code to
# delete, so adding one back is a change to this record, made on purpose.
INIT_PARAMETERS = {
    "eventlog.EventLog": ("traces",),
    "eventlog.Trace": ("case_id", "activities", "timestamps"),
    "eventlog.PrefixLog": ("entries", "runs"),
    "eventlog.log_from_variants": ("variants", "case_ids"),
    "synthgen.SynthConfig": ("seed", "n_train_normal", "n_train_exceptional", "branch_probability"),
    "synthgen.exceptional_process_net": (),
    "synthgen.generate": ("config",),
    "beam.BeamConfig": ("b_size", "max_iter", "w", "max_size", "partial_mode"),
    "attention.AttentionConfig": (
        "l_max", "d_model", "n_heads", "n_layers", "d_ff", "dropout", "positional_encoding", "seed", "ln_eps",
    ),
    "petri.PetriNet": ("name", "places", "transitions", "arcs", "initial_marking", "final_marking"),
    "petri.Arc": ("source", "target", "weight"),
    "petri.Transition": ("tid", "label"),
    "encoding.Vocabulary": ("labels",),
}


@pytest.mark.parametrize("name", INIT_PARAMETERS)
def test_a_settings_class_takes_the_recorded_parameters(name):
    module, attr = name.split(".")
    built = getattr(importlib.import_module(f"suffixbeam.{module}"), attr)
    assert tuple(inspect.signature(built).parameters) == INIT_PARAMETERS[name]
