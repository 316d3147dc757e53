"""Value semantics of flextri's value classes.

Each class keeps the behaviour it had as a dataclass: the constructor's
parameters are its fields in order, with the same defaults; equality holds
field by field between instances of one class only; the repr is
``Name(field=value, ...)``; frozen classes are hashed by their fields and
refuse assignment and deletion; mutable classes are unhashable.
"""

import inspect
import re
from fractions import Fraction

import pytest

from flextri.enumeration import Catalog, EnumerationTask
from flextri.geometry import Point, RealizationParams
from flextri.numeric import FieldContext, LinearSolution
from flextri.surfaces import LabeledGraph, SurfaceClass, Triangulation, build_graph
from flextri.verify import EmbeddingReport, PairVerdict

# a graph whose repr does not depend on string hashing: no edges
GRAPH = LabeledGraph("g", ("A", "B", "C"), frozenset())
GRAPH_REPR = "LabeledGraph(name='g', vertices=('A', 'B', 'C'), edges=frozenset())"
TASK = EnumerationTask(GRAPH, "with_boundary")
TASK_REPR = f"EnumerationTask(graph={GRAPH_REPR}, mode='with_boundary', target=None)"

# (class, constructor arguments, other arguments, repr, frozen, defaults)
CASES = [
    (FieldContext, (2, 3), (5, 1), "FieldContext(d1=2, d2=3)", True, {}),
    (LinearSolution, ("inconsistent", 1), ("unique", 2, [1], []),
     "LinearSolution(kind='inconsistent', rank=1, particular=None, nullspace=None)", False,
     {"particular": None, "nullspace": None}),
    (Point, ((1, 2),), ((2, 1),), "Point(coords=(1, 2))", True, {}),
    (RealizationParams, (Fraction(14, 5),), (Fraction(4),),
     "RealizationParams(k=Fraction(14, 5))", True, {}),
    (LabeledGraph, ("g", ("A", "B", "C"), frozenset()), ("h", ("A",), frozenset()),
     GRAPH_REPR, True, {}),
    (Triangulation, (GRAPH, (("A", "B", "C"),)), (GRAPH, ()),
     f"Triangulation(graph={GRAPH_REPR}, faces=(('A', 'B', 'C'),))", True, {}),
    (SurfaceClass, (0, True, 0, True, "torus"), (1, False, 0, True, "projective plane"),
     "SurfaceClass(euler=0, orientable=True, boundary_components=0, is_manifold=True, "
     "name='torus')", True, {}),
    (EnumerationTask, (GRAPH, "with_boundary"), (GRAPH, "closed"), TASK_REPR, True,
     {"target": None}),
    (Catalog, (TASK, [], []), (TASK, [None], []),
     f"Catalog(task={TASK_REPR}, triangulations=[], rejected=[])", False, {}),
    (PairVerdict, ((1, 2), 0, "admissible"), ((1, 2), 0, "violation", "containment"),
     "PairVerdict(faces=(1, 2), shared=0, verdict='admissible', kind=None, witness=())",
     False, {"kind": None, "witness": ()}),
    (EmbeddingReport, ([],), ([None],), "EmbeddingReport(violations=[])", False, {}),
]
IDS = [case[0].__name__ for case in CASES]
FROZEN = [case for case in CASES if case[4]]
MUTABLE = [case for case in CASES if not case[4]]


def names(cls) -> list:
    """The constructor's parameter names, which are the field names."""
    return list(inspect.signature(cls).parameters)


def fields(x) -> tuple:
    return tuple(getattr(x, f) for f in names(type(x)))


@pytest.mark.parametrize("cls, args, other, text, frozen, defaults", CASES, ids=IDS)
def test_constructor_repr_and_equality(cls, args, other, text, frozen, defaults):
    x = cls(*args)
    fields_of_x = dict(zip(names(cls), fields(x)))
    # the keyword form of the same call, and the defaults it filled in
    assert cls(**dict(zip(names(cls), args))) == x
    assert fields(x)[:len(args)] == args
    assert {f: fields_of_x[f] for f in names(cls)[len(args):]} == defaults
    assert repr(x) == str(x) == text
    assert x == cls(*args) and not x != cls(*args)
    assert x != cls(*other)
    assert x != fields(x)
    for c, a, *_ in CASES:
        if c is not cls:
            assert x != c(*a) and c(*a) != x


@pytest.mark.parametrize("cls, args", [case[:2] for case in CASES], ids=IDS)
def test_instances_have_slots_only(cls, args):
    assert list(cls.__slots__) == names(cls)
    assert not hasattr(cls(*args), "__dict__")


def test_equality_needs_the_same_class():
    assert Point((1, 2)) != RealizationParams((1, 2))
    assert Point((1, 2)).__eq__(RealizationParams((1, 2))) is NotImplemented


@pytest.mark.parametrize("cls, args, other, text, frozen, defaults", FROZEN,
                         ids=[c[0].__name__ for c in FROZEN])
def test_frozen_classes_hash_and_refuse_assignment(cls, args, other, text, frozen, defaults):
    x = cls(*args)
    assert hash(x) == hash(cls(*args)) == hash(fields(x))
    assert len({x, cls(*args), cls(*other)}) == 2
    for name in (*names(cls), "extra"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
    for name in names(cls):
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x == cls(*args) and repr(x) == text


@pytest.mark.parametrize("cls, args, other, text, frozen, defaults", MUTABLE,
                         ids=[c[0].__name__ for c in MUTABLE])
def test_mutable_classes_are_unhashable_and_assignable(cls, args, other, text, frozen,
                                                       defaults):
    x = cls(*args)
    assert cls.__hash__ is None
    with pytest.raises(TypeError, match="unhashable"):
        hash(x)
    for name, value in zip(names(cls), fields(cls(*other))):
        setattr(x, name, value)
    assert x == cls(*other)


@pytest.mark.parametrize("make, message", [
    (lambda: FieldContext(4, 3),
     "context radicands must be square-free positive: FieldContext(d1=4, d2=3)"),
    (lambda: FieldContext(0, 1),
     "context radicands must be square-free positive: FieldContext(d1=0, d2=1)"),
    (lambda: FieldContext(2, 2), "context radicands must differ: FieldContext(d1=2, d2=2)"),
    (lambda: EnumerationTask(build_graph("k5"), "open"), "unknown mode 'open'"),
    (lambda: EnumerationTask(build_graph("k5"), "closed"),
     "closed mode needs 3 | 2E so that F = 2E/3 is integral"),
], ids=["not-square-free", "not-positive", "equal", "mode", "closed-k5"])
def test_constructor_checks_keep_their_messages(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


@pytest.mark.parametrize("edge, text", [
    ("AD", r"'[AD]', '[AD]'"),
    ("A", r"'A'"),
    ("ABC", r"'[ABC]', '[ABC]', '[ABC]'"),
], ids=["off-vertices", "loop", "three-labels"])
def test_labeled_graph_refuses_an_edge_off_its_vertices(edge, text):
    with pytest.raises(ValueError, match=rf"^bad edge \{{{text}\}} in graph g$"):
        LabeledGraph("g", ("A", "B", "C"), frozenset({frozenset(edge)}))
