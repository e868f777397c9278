"""The record classes keep the value semantics they had as dataclasses.

Each record class is checked against its @dataclass twin (`conftest.TWINS`):
the parameters of its constructor and, on instances built from real inputs,
the same ==/!= outcomes, hash (or TypeError) and repr as the twin gives, and
AttributeError on assignment to a frozen record. `Compound` keeps its own
==, hash and repr (`test_expr.py` pins them), so only its constructor and
immutability are compared here; `Source` is a private record that nothing
compares, so only its starting state is.
"""

import inspect
import pickle
import subprocess
import sys
from dataclasses import fields
from functools import cached_property

import pytest

from dcbound.abstraction import abstract_program, abstract_transition, guess_norms
from dcbound.dcp import Dcp, DcpError, Source, Transition, parse_dcp, validate
from dcbound.engine import Analysis, AnalysisMode
from dcbound.expr import UNDEFINED, Compound, IntConst, SymConst, Undefined
from dcbound.oracle import check_soundness, explore
from dcbound.program import HAVOC, parse_program
from dcbound.record import Record
from dcbound.resetgraph import ResetGraph, ResetPath

from conftest import DATA, ROOT, TWINS
from test_oracle import _INVALID

# a comment line on top reads the same program one line lower
SHIFT = "# one line lower\n"


def _twin(x):
    twin = TWINS[type(x)]
    return twin(**{f.name: getattr(x, f.name) for f in fields(twin)})


def _nodes(e, out):
    stack = [e]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(getattr(node, "args", ()))


def _add_dcp(pool, d):
    pool.append(d)
    for t in d.transitions:
        pool.append(t)
        pool.extend(t.updates)
        pool.extend(u.rhs for u in t.updates if not isinstance(u.rhs, str))


def _add_analyses(pool, d):
    for mode in AnalysisMode:
        a = Analysis(d, mode)
        report = a.report()
        pool.append(report)
        for b in [*report.tb.values(), *report.vb.values(), report.complexity]:
            _nodes(b, pool)
        pool += [a._reset, a._reset.graph, *a._reset.graph.edges]
        pool += [p for paths in a._paths.values() for p in paths or ()]


def _instances():
    """Instances of every record class, from the inputs under tests/data,
    then, last of their classes, a few look-alikes: records with the field
    values of a record of another class."""
    pool = []
    for path in sorted(DATA.iterdir()):
        text = path.read_text()
        if path.suffix == ".dcp":
            for t in (text, SHIFT + text):
                _add_dcp(pool, parse_dcp(t))
            # malformed: the last transition twice, and a line that is none
            lines = text.splitlines()
            last = [ln for ln in lines if ln.startswith("trans")][-1]
            for bad in (text + last + "\n", text + "trans\n"):
                with pytest.raises(DcpError) as ei:
                    parse_dcp(bad)
                pool += ei.value.diagnostics
            _add_analyses(pool, parse_dcp(text))
        else:
            for t in (text, SHIFT + text):
                prog = parse_program(t)
                pool.append(prog)
                for ct in prog.transitions:
                    pool.append(ct)
                    pool.extend(ct.guard)
                    pool += [r for rel in ct.guard for r in (rel.lhs, rel.rhs)]
                    pool += [u for _, u in ct.updates if u is not HAVOC]
                result = abstract_program(prog)
                pool.append(result)
                norms = [*guess_norms(prog), *result.norm_vars.values()]
                pool += norms
                index = {e.coeffs: e for e in reversed(norms)}
                pool += [s for e in norms for ct in prog.transitions
                         if (s := abstract_transition(e, ct, index)) is not None]
                _add_dcp(pool, result.dcp)
            _add_analyses(pool, result.dcp)
    for build, _ in _INVALID.values():
        pool += validate(build())
    d = parse_dcp((DATA / "exampleB.dcp").read_text())
    for mode in AnalysisMode:
        report = Analysis(d, mode).report()
        for n in range(3):
            pool.append(explore(d, {"n": n}))
            result = check_soundness(d, report, {"n": n})
            pool += [result, *result.rows]
    pool += [IntConst(k) for k in range(-2, 3)] + [SymConst(s) for s in ("n", "m", "n")]
    pool += [UNDEFINED, Undefined()]
    edges = next(x for x in pool if isinstance(x, ResetGraph)).edges
    pool += [ResetPath(edges), ResetGraph(edges), IntConst(2), SymConst("2"),
             Transition("t", "a", "b", (), ())]
    return pool


@pytest.fixture(scope="module")
def pool():
    by_class = {}
    for x in _instances():
        by_class.setdefault(type(x), []).append(x)
    return by_class


def _hash(x):
    try:
        return hash(x)
    except TypeError:
        return TypeError


def _fields(x):
    return tuple(getattr(x, f.name) for f in fields(TWINS[type(x)]))


COMPARED = [c for c in TWINS if c not in (Compound, Source)]


def test_every_record_class_is_built(pool):
    assert set(pool) == set(TWINS) - {Source}
    assert all(len(pool[c]) >= 2 for c in COMPARED)


@pytest.mark.parametrize("cls", list(TWINS), ids=lambda c: c.__name__)
def test_constructor_parameters(cls):
    def shape(c):
        return [(p.name, p.kind, p.default is p.empty)
                for p in inspect.signature(c).parameters.values()]
    if cls is Source:  # nothing passes it arguments
        assert shape(cls) == []
        assert vars(Source()) == vars(TWINS[Source]())
        return
    assert shape(cls) == shape(TWINS[cls])
    required = [name for name, _, no_default in shape(cls) if no_default]
    if len(required) < len(shape(cls)):  # the defaults, with names as values
        x, y, tx = cls(*required), cls(*required), TWINS[cls](*required)
        assert _fields(x) == tuple(vars(tx).values())
        for a, b in zip(_fields(x), _fields(y)):
            assert a is not b or not isinstance(a, list)  # no shared list


@pytest.mark.parametrize("cls", COMPARED, ids=lambda c: c.__name__)
def test_same_equality_hash_and_repr_as_the_dataclass(cls, pool):
    xs = pool[cls][:60]
    twins = [_twin(x) for x in xs]
    for x, tx in zip(xs, twins):
        assert repr(x) == repr(tx)
        assert _hash(x) == _hash(tx)
    for x, tx in zip(xs, twins):
        for y, ty in zip(xs, twins):
            assert (x == y) is (tx == ty) and (x != y) is (tx != ty)
    # against the first and the last (a look-alike) record of each other
    # class, and against a tuple of its own fields
    others = [(y, _twin(y)) for c, ys in pool.items() if c is not cls
              for y in (ys[0], ys[-1])]
    for x, tx in zip(xs, twins):
        for y, ty in [*others, (_fields(x), _fields(x))]:
            assert (x == y) is (tx == ty) and (y == x) is (ty == tx)
            assert (x != y) is (tx != ty)


@pytest.mark.parametrize("cls", list(TWINS), ids=lambda c: c.__name__)
def test_frozen_records_refuse_assignment(cls, pool):
    twin = TWINS[cls]
    frozen = twin.__dataclass_params__.frozen
    for x in pool.get(cls, [Source()])[:10]:
        for name in [f.name for f in fields(twin)] or ["_str"]:
            if frozen:
                with pytest.raises(AttributeError):
                    setattr(x, name, getattr(x, name))
                with pytest.raises(AttributeError):
                    delattr(x, name)
            else:
                setattr(x, name, getattr(x, name))


@pytest.mark.parametrize("cls, names", [
    pytest.param(Dcp, ["_outgoing", "_defined_at"], id="Dcp"),
    pytest.param(ResetGraph, ["_into"], id="ResetGraph"),
    pytest.param(ResetPath, ["transitions", "atoms"], id="ResetPath"),
])
def test_cached_properties_are_cached_per_instance(cls, names, pool):
    x = pool[cls][0]
    for name in names:
        assert isinstance(vars(cls)[name], cached_property)
        assert getattr(x, name) is getattr(x, name) is vars(x)[name]


@pytest.mark.parametrize("module", ["dcbound.cli", "dcbound"])
def test_import_loads_no_dataclasses(module):
    # -S leaves site-packages out, so only the import itself can load it
    code = (f"import sys, {module}; "
            "assert 'dataclasses' not in sys.modules, 'dataclasses was imported'")
    subprocess.run([sys.executable, "-S", "-c", code], check=True,
                   env={"PYTHONPATH": str(ROOT / "src")})


def test_a_program_with_havoc_hashes_alike_in_every_process():
    code = ("import sys; from dcbound.program import parse_program; "
            "print(hash(parse_program(sys.stdin.read())))")
    text = (DATA / "example3.prog").read_text()
    assert ":= ?" in text
    hashes = {subprocess.run([sys.executable, "-S", "-c", code], input=text,
                             capture_output=True, text=True, check=True,
                             env={"PYTHONPATH": str(ROOT / "src"),
                                  "PYTHONHASHSEED": "0"}).stdout
              for _ in range(2)}
    assert len(hashes) == 1


# a pickle of expressions, norms and programs, loaded by _LOAD and checked
# against the same values built in the loading process
_DUMP = """
import pickle, sys
from pathlib import Path
from dcbound.abstraction import guess_norms
from dcbound.dcp import parse_dcp
from dcbound.expr import SymConst, parse_expr
from dcbound.program import parse_program
data = Path(sys.argv[1])
prog = parse_program((data / "example3.prog").read_text())
sys.stdout.buffer.write(pickle.dumps((
    SymConst("n"), parse_expr("n*n + n"), guess_norms(prog), prog,
    parse_dcp((data / "exampleB.dcp").read_text()))))
"""
_LOAD = """
import pickle, sys
from pathlib import Path
from dcbound.abstraction import abstract_program, guess_norms
from dcbound.dcp import format_dcp, parse_dcp
from dcbound.engine import Analysis, AnalysisMode
from dcbound.expr import SymConst, parse_expr
from dcbound.program import parse_program
data = Path(sys.argv[1])
n, e, norms, prog, d = pickle.loads(sys.stdin.buffer.read())
fresh_prog = parse_program((data / "example3.prog").read_text())
fresh_d = parse_dcp((data / "exampleB.dcp").read_text())
assert n in {SymConst("n")}
assert e == parse_expr("n*n + n") and e in {parse_expr("n*n + n")}
assert norms == guess_norms(fresh_prog) and set(norms) <= set(guess_norms(fresh_prog))
assert prog == fresh_prog and prog in {fresh_prog}
def atoms(d):
    return [u.rhs for t in d.transitions for u in t.updates if not isinstance(u.rhs, str)]
assert atoms(d) and all(a in set(atoms(fresh_d)) for a in atoms(d))
assert d == fresh_d and d in {fresh_d}
assert format_dcp(abstract_program(prog).dcp) == format_dcp(abstract_program(fresh_prog).dcp)
for mode in AnalysisMode:
    assert Analysis(d, mode).report() == Analysis(fresh_d, mode).report()
"""


def test_a_pickle_loads_under_another_hash_seed():
    """Records that store their hash are rebuilt from their fields when
    unpickled, so the hash is that of the loading process."""
    def run(code, seed, **kwargs):
        return subprocess.run([sys.executable, "-S", "-c", code, str(DATA)],
                              capture_output=True, check=True, **kwargs,
                              env={"PYTHONPATH": str(ROOT / "src"),
                                   "PYTHONHASHSEED": seed}).stdout
    data = run(_DUMP, "0")
    assert run(_LOAD, "0", input=data) == b""
    assert run(_LOAD, "1", input=data) == b""


@pytest.mark.parametrize("cls", COMPARED, ids=lambda c: c.__name__)
def test_a_record_pickles_by_value(cls, pool):
    for x in pool[cls]:
        y = pickle.loads(pickle.dumps(x))
        assert type(y) is cls and y == x and _hash(y) == _hash(x)


def test_havoc_unpickles_as_itself():
    assert pickle.loads(pickle.dumps(HAVOC)) is HAVOC


# the only places a record class writes its own key or repr: the repr of a
# Compound's args would recurse, HAVOC keeps its short repr, and a
# transition's key leaves out `line`
OVERRIDES = {(Compound, "__repr__"), (type(HAVOC), "__repr__"), (Transition, "_key")}


def _record_classes():
    found, stack = [], [Record]
    while stack:
        for cls in stack.pop().__subclasses__():
            if cls.__module__.startswith("dcbound."):
                found.append(cls)
                stack.append(cls)
    return found


def _written_by(cls, name):
    attr = cls.__dict__.get(name)
    func = attr.fget if isinstance(attr, property) else attr
    return getattr(func, "__qualname__", "").startswith(cls.__qualname__ + ".")


def test_records_list_their_fields_once():
    classes = _record_classes()
    assert set(TWINS) - {Source} <= set(classes)
    assert {(cls, name) for cls in classes for name in ("_key", "__repr__")
            if _written_by(cls, name)} == OVERRIDES
    for cls in classes:
        params = tuple(inspect.signature(cls).parameters)
        assert not set(inspect.get_annotations(cls)) & set(params), cls
        assert cls._fields == params
