import math
import operator
import random
from fractions import Fraction
from itertools import combinations

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flextri.geometry import make_point
from flextri.numeric import (
    CTX_SQRT2_SQRT3,
    CTX_SQRT5,
    QQ,
    ContextMismatchError,
    FieldContext,
    QuadExt,
    _on_axes,
    _reduced,
    parse_rational,
    solve_linear,
)

CTX = CTX_SQRT2_SQRT3


def qx(a, b=0, c=0, e=0, ctx=CTX):
    return QuadExt(a, b, c, e, ctx=ctx)


def mp_value(x: QuadExt, dps=60):
    with mpmath.workdps(dps):
        d1, d2 = x.ctx.d1, x.ctx.d2
        return (
            mpmath.mpf(x.a.numerator) / x.a.denominator
            + mpmath.mpf(x.b.numerator) / x.b.denominator * mpmath.sqrt(d1)
            + mpmath.mpf(x.c.numerator) / x.c.denominator * mpmath.sqrt(d2)
            + mpmath.mpf(x.e.numerator) / x.e.denominator * mpmath.sqrt(d1 * d2)
        )


def oracle_sign(x: QuadExt) -> int:
    """High-precision evaluation, refined until it excludes zero (or the
    value is exactly zero by coefficients)."""
    if x.is_zero():
        return 0
    for dps in (30, 60, 120, 240):
        v = mp_value(x, dps)
        if abs(v) > mpmath.mpf(10) ** (-(dps - 10)):
            return 1 if v > 0 else -1
    raise AssertionError(f"oracle could not separate {x!r} from zero")


# -- arithmetic ------------------------------------------------------------

def test_sqrt2_times_sqrt3_is_sqrt6():
    assert qx(0, 1) * qx(0, 0, 1) == qx(0, 0, 0, 1)


def test_sqrt2_squared_is_two():
    assert qx(0, 1) * qx(0, 1) == qx(2)


def test_division_by_self_is_one():
    x = qx(1, 1)
    assert x * x.inverse() == qx(1)
    assert x.inverse() == qx(-1, 1)  # (1 + sqrt2)(sqrt2 - 1) = 1


def test_degenerate_context_folds():
    x = QuadExt(1, 2, 3, 4, ctx=CTX_SQRT5)  # 1 + 2√5 + 3 + 4√5
    assert (x.a, x.b, x.c, x.e) == (4, 6, 0, 0)


def test_immutable():
    x = qx(1, 2)
    for name in ("a", "ctx", "_n"):
        with pytest.raises(AttributeError):
            setattr(x, name, 0)
    assert x == qx(1, 2)


def test_context_mismatch_rejected():
    with pytest.raises(ContextMismatchError):
        qx(1) + qx(1, ctx=CTX_SQRT5)


# -- the constructor -------------------------------------------------------

def reference_n(a, b=0, c=0, e=0, ctx=QQ):
    """The numerators and denominator of QuadExt(a, b, c, e, ctx=ctx) by the
    constructor's earlier body, which converts every coefficient with
    ``Fraction()`` and folds a degenerate context in Fraction arithmetic."""
    a, b, c, e = Fraction(a), Fraction(b), Fraction(c), Fraction(e)
    if ctx.d2 == 1:
        a, c = a + c, 0
        b, e = b + e, 0
    if ctx.d1 == 1:
        a, b = a + b, 0
        c, e = c + e, 0
    d = math.lcm(a.denominator, b.denominator, c.denominator, e.denominator)
    return tuple(q.numerator * (d // q.denominator) for q in (a, b, c, e)) + (d,)


# every context kind: Q, d2 = 1, d1 = 1 and a biquadratic field
CONTEXTS = (QQ, CTX_SQRT5, FieldContext(1, 3), FieldContext(1, 7), CTX_SQRT2_SQRT3)
coefficients = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.builds(Fraction, st.integers(min_value=-99, max_value=99),
              st.integers(min_value=1, max_value=99)),
    st.booleans(),
    st.builds(lambda i, f: f"{i}.{f}", st.integers(min_value=-99, max_value=99),
              st.integers(min_value=0, max_value=999)),
    st.floats(min_value=-1e6, max_value=1e6),
)


@given(st.lists(coefficients, min_size=1, max_size=4), st.sampled_from(CONTEXTS))
@settings(max_examples=500, deadline=None)
@example([3], QQ)
@example([Fraction(-2, 6)], CTX_SQRT5)
@example([Fraction(1, 2), Fraction(1, 2)], QQ)  # the fold leaves 2/2
@example([True, "0.5", 0.25, Fraction(1, 4)], FieldContext(1, 7))
def test_constructor_equals_the_fraction_reference(args, ctx):
    x = QuadExt(*args, ctx=ctx)
    n = reference_n(*args, ctx=ctx)
    ref = _reduced(ctx, *n)
    assert x._n == n == ref._n
    assert x.ctx is ctx
    assert x == ref and hash(x) == hash(ref) and repr(x) == repr(ref)
    assert all(type(v) is int for v in x._n)
    assert x._n[4] > 0 and math.gcd(*x._n) == 1


_AXIS = st.tuples(st.integers(0, 3), st.integers(1, 10**4), st.integers(1, 10**4),
                  st.integers(-10**6, 10**6))


@given(st.lists(_AXIS, min_size=1, max_size=5), st.integers(1, 10**4))
@settings(max_examples=300, deadline=None)
@example([(1, 3, 4, 0)], 7)  # a zero numerator is 0 / 1
@example([(3, 6, 4, -10), (0, 2, 1, 5)], 3)  # negative, and a gcd left for the build
@example([(2, 1, 1, 5)], 1)  # d w = 1: already in lowest terms
@example([(0, 5, 3, 2), (1, 1, 2, -6), (2, 4, 9, 0), (3, 7, 2, 14)], 12)  # every slot
def test_on_axes_equals_the_generic_build(axes, w):
    # each axis's scale is g / d times the basis element of one slot: the
    # build in that slot alone equals the generic build of
    # (a x, b x, c x, e x) / (d w), coordinate by coordinate
    point = _on_axes(CTX, [axis[:3] for axis in axes], [axis[3] for axis in axes], w)
    assert len(point) == len(axes)
    for (slot, g, d, x), v in zip(axes, point):
        a, b, c, e = (g * (s == slot) for s in range(4))
        assert v._n == _reduced(CTX, a * x, b * x, c * x, e * x, d * w)._n
        assert v.ctx is CTX and all(type(n) is int for n in v._n)


@pytest.mark.parametrize(
    "args", [(1, QuadExt(0)), (None,), ("x",), (float("nan"),), (float("inf"),)]
)
def test_constructor_refuses_what_the_reference_refuses(args):
    # QuadExt(0) == 0, so only a type test keeps QuadExt(1, QuadExt(0)) off
    # the rational shortcut
    with pytest.raises(Exception) as expected:
        reference_n(*args)
    with pytest.raises(Exception) as refused:
        QuadExt(*args)
    assert type(refused.value) is type(expected.value)


def test_constructor_does_no_fraction_arithmetic(monkeypatch):
    inputs = [(3,), (-7,), (0,), (Fraction(1, 3),), (Fraction(-5, 2),), (1, 2, 3, 4)]
    third = inputs[3][0]
    made, added = [0], [0]
    new, add = Fraction.__new__, Fraction.__add__

    def counted_new(cls, *args, **kwargs):
        made[0] += 1
        return new(cls, *args, **kwargs)

    def counted_add(x, y):
        added[0] += 1
        return add(x, y)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
    monkeypatch.setattr(Fraction, "__add__", counted_add)
    Fraction(1) + Fraction(1)  # the counters see Fraction arithmetic
    assert made[0] >= 2 and added[0] == 1
    made[0] = added[0] = 0
    values = [QuadExt(*a, ctx=ctx) for a in inputs for ctx in CONTEXTS]
    p = make_point(QQ, 1, third, -2)
    assert (made[0], added[0]) == (0, 0)
    monkeypatch.undo()
    assert [x._n for x in values] == [reference_n(*a, ctx=ctx) for a in inputs for ctx in CONTEXTS]
    assert [x._n for x in p.coords] == [(1, 0, 0, 0, 1), (1, 0, 0, 0, 3), (-2, 0, 0, 0, 1)]


def test_hash_is_the_hash_of_the_fraction_coefficients():
    # an integral value hashes its int numerators, a set's order follows the
    # hash, so the hash must stay that of the Fraction coefficients
    rng = random.Random(24)
    integral = 0
    for ctx in (QQ, CTX_SQRT5, FieldContext(1, 3), CTX_SQRT2_SQRT3):
        for _ in range(300):
            den = rng.choice((1, 1, 2, 3, 12, 10**20 + 7))
            x = QuadExt(*(Fraction(rng.randint(-10**25, 10**25), den) for _ in range(4)), ctx=ctx)
            a, b, c, e, d = x._n
            integral += d == 1
            ref = (Fraction(a, d), Fraction(b, d), Fraction(c, d), Fraction(e, d), ctx)
            assert hash(x) == hash(ref)
    assert 0 < integral < 1200


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        qx(1) * qx(0).inverse()


def test_square_free_context_rejected():
    with pytest.raises(ValueError):
        FieldContext(4, 3)


def test_parse_rational_decimal():
    assert parse_rational("2.8") == Fraction(14, 5)
    assert parse_rational("14/5") == Fraction(14, 5)
    with pytest.raises(ValueError):
        parse_rational("28e-1")


# -- sign ------------------------------------------------------------------

def test_sign_zero():
    assert qx(0).sign() == 0


def test_sign_three_minus_two_sqrt2():
    # 3^2 = 9 > 8 = (2√2)^2, both terms positive
    x = qx(3, -2)
    assert x.sign() == 1
    assert oracle_sign(x) == 1


def test_sign_mixed_radicals():
    x = qx(1, 1, -1, -1)  # 1 + √2 - √3 - √6
    assert x.sign() == -1
    assert oracle_sign(x) == -1


def test_sign_consistency_random():
    rng = random.Random(20240811)
    for _ in range(1000):
        coeffs = [Fraction(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(4)]
        x = qx(*coeffs)
        assert x.sign() == oracle_sign(x)


def test_sign_multiplicative_random():
    rng = random.Random(7)
    for _ in range(1000):
        x = qx(*[Fraction(rng.randint(-9, 9)) for _ in range(4)])
        y = qx(*[Fraction(rng.randint(-9, 9)) for _ in range(4)])
        assert (x * y).sign() == x.sign() * y.sign()


def test_float_roundtrip_error_bound():
    rng = random.Random(99)
    for _ in range(200):
        coeffs = [Fraction(rng.randint(-10**6, 10**6)) for _ in range(4)]
        x = qx(*coeffs)
        exact = mp_value(x, 80)
        if exact == 0:
            continue
        rel = abs((mpmath.mpf(float(x)) - exact) / exact)
        assert rel < mpmath.mpf(2) ** -40


# -- field laws (hypothesis) ----------------------------------------------

rationals = st.builds(
    Fraction, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=4)
)
quadexts = st.builds(lambda a, b, c, e: qx(a, b, c, e), rationals, rationals, rationals, rationals)


def assert_canonical(x: QuadExt):
    """Integer numerators over a positive denominator, in lowest terms."""
    *nums, den = x._n
    assert all(type(n) is int for n in x._n)
    assert den > 0
    assert math.gcd(*nums, den) == 1


def assert_same(x: QuadExt, y: QuadExt):
    assert_canonical(x)
    assert_canonical(y)
    assert x == y
    assert hash(x) == hash(y)


@given(quadexts, quadexts, quadexts)
@settings(max_examples=200, deadline=None)
def test_ring_laws(x, y, z):
    assert_same(x + y, y + x)
    assert_same(x * y, y * x)
    assert_same((x + y) + z, x + (y + z))
    assert_same((x * y) * z, x * (y * z))
    assert_same(x * (y + z), x * y + x * z)
    assert_same((x - y) + y, x)
    assert_same(x - y, -(y - x))


@given(quadexts, rationals)
@settings(max_examples=200, deadline=None)
def test_rational_operands(x, r):
    assert_same(x + r, x + qx(r))
    assert_same(r - x, qx(r) - x)
    assert_same(x * r, qx(r) * x)
    assert qx(r) == r


def test_foreign_operands_are_refused_in_operand_order():
    # every operator returns NotImplemented for a type _coerce refuses, so
    # the TypeError names the operands in the order they were written
    x = QuadExt(1)
    for op in (operator.add, operator.sub, operator.mul):
        for a, b in ((x, 1.5), (1.5, x)):
            with pytest.raises(TypeError, match=f"'{type(a).__name__}' and '{type(b).__name__}'"):
                op(a, b)
    assert x != "x"


@given(quadexts)
@settings(max_examples=200, deadline=None)
def test_multiplicative_inverse(x):
    if not x.is_zero():
        assert_canonical(x.inverse())
        assert_same(x * x.inverse(), qx(1))
        assert_same(x.inverse().inverse(), x)


# QuadExt has no `/`: division is multiplication by the inverse.
@given(quadexts, quadexts)
@settings(max_examples=200, deadline=None)
def test_division(x, y):
    if not y.is_zero():
        assert_same((x * y.inverse()) * y, x)


@given(quadexts, quadexts)
@settings(max_examples=200, deadline=None)
def test_difference_sign_matches_oracle(x, y):
    assert_canonical(x - y)
    assert (x - y).sign() == oracle_sign(x - y)


# -- linear solving --------------------------------------------------------

def test_solve_identity():
    one, zero = qx(1), qx(0)
    rhs = [qx(1), qx(0, 1), qx(0, 0, 1)]
    matrix = [
        [one, zero, zero],
        [zero, one, zero],
        [zero, zero, one],
    ]
    sol = solve_linear(matrix, rhs)
    assert sol.kind == "unique"
    assert sol.particular == rhs


def test_solve_underdetermined():
    sol = solve_linear([[qx(1), qx(1)]], [qx(1)])
    assert sol.kind == "parametric"
    assert sol.rank == 1
    assert len(sol.nullspace) == 1


def test_solve_inconsistent():
    sol = solve_linear([[qx(1)], [qx(1)]], [qx(1), qx(2)])
    assert sol.kind == "inconsistent"


def test_segment_plane_intersection_parameter():
    # segment (0,0,0)-(1,1,1) against the plane z = 1/2: z(t) = t, so t = 1/2
    sol = solve_linear([[qx(1)]], [qx(Fraction(1, 2))])
    assert sol.kind == "unique"
    assert sol.particular[0] == qx(Fraction(1, 2))


def test_back_substitution_random_systems():
    rng = random.Random(5)
    for _ in range(50):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        matrix = [[qx(rng.randint(-4, 4), rng.randint(-2, 2)) for _ in range(n)] for _ in range(m)]
        rhs = [qx(rng.randint(-4, 4)) for _ in range(m)]
        sol = solve_linear(matrix, rhs)
        if sol.kind == "inconsistent":
            continue
        x = sol.particular
        for row, r in zip(matrix, rhs):
            acc = qx(0)
            for a, b in zip(row, x):
                acc = acc + a * b
            assert acc == r
        for vec in sol.nullspace or []:
            for row in matrix:
                acc = qx(0)
                for a, b in zip(row, vec):
                    acc = acc + a * b
                assert acc == qx(0)


@st.composite
def int_systems(draw):
    """An int system A x = rhs of up to 4 equations in up to 5 unknowns with
    entries in [-3, 3]; when drawn, the last equation is a combination of the
    others, with its right-hand side kept (rank-deficient) or moved by one
    (inconsistent)."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    small = st.integers(-3, 3)
    rows = [draw(st.lists(small, min_size=n + 1, max_size=n + 1)) for _ in range(m)]
    if m > 1 and draw(st.booleans()):
        coefs = [draw(small) for _ in range(m - 1)]
        rows[-1] = [sum(c * row[j] for c, row in zip(coefs, rows)) for j in range(n + 1)]
        rows[-1][n] += draw(st.sampled_from((0, 1)))
    return [row[:n] for row in rows], [row[n] for row in rows]


def _rank(rows) -> int:
    """The rank of an int matrix: the largest k with a nonzero k x k minor,
    each minor expanded along its first row."""
    def det(m):
        if not m:
            return 1
        return sum(
            (-1) ** j * x * det([r[:j] + r[j + 1:] for r in m[1:]])
            for j, x in enumerate(m[0]) if x
        )
    m, n = len(rows), len(rows[0])
    return max(
        (
            k
            for k in range(1, min(m, n) + 1)
            for rs in combinations(range(m), k)
            for cs in combinations(range(n), k)
            if det([[rows[r][c] for c in cs] for r in rs])
        ),
        default=0,
    )


@given(int_systems())
@example(([[1, 2, 0], [2, 4, 0]], [3, 6]))            # rank-deficient
@example(([[1, 2, 0], [2, 4, 0]], [3, 7]))            # inconsistent
@example(([[0, 0], [0, 0]], [0, 0]))                  # rank 0
@example(([[2, 1, 0, 3], [0, 3, -1, 2], [1, 0, 2, -3], [3, -2, 1, 1]], [1, -2, 3, 0]))
@settings(max_examples=300, deadline=None)
def test_elimination_over_q_follows_the_rank_rule(system):
    # the system over QuadExt (ctx=QQ): kind and rank follow from the ranks
    # of A and of (A | rhs), found by minors (Rouche-Capelli), the nullspace
    # has one vector per free unknown, and the solution solves the system
    matrix, rhs = system
    n = len(matrix[0])
    rank = _rank(matrix)
    augmented = _rank([row + [r] for row, r in zip(matrix, rhs)])
    kind = "inconsistent" if augmented > rank else "unique" if rank == n else "parametric"
    zero = QuadExt(0, ctx=QQ)
    field = [[QuadExt(x, ctx=QQ) for x in row] for row in matrix]
    sol = solve_linear(field, [QuadExt(r, ctx=QQ) for r in rhs])
    assert (sol.kind, sol.rank) == (kind, rank)
    if kind == "inconsistent":
        assert sol.particular is sol.nullspace is None
        return
    assert len(sol.nullspace) == n - rank
    for row, r in zip(field, rhs):
        assert sum((a * x for a, x in zip(row, sol.particular)), zero) == QuadExt(r, ctx=QQ)
        for v in sol.nullspace:
            assert sum((a * x for a, x in zip(row, v)), zero) == zero
