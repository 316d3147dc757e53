"""Exact arithmetic over Q and real biquadratic extensions Q(sqrt(d1), sqrt(d2)).

Every geometric coordinate in this project lives in one of these fields, so
all downstream predicates (orientation signs, containment, intersection) are
decided exactly, with no floating point on the decision path.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction


class ContextMismatchError(ValueError):
    """Raised when combining values from different field contexts."""


def _mismatch(ctx, other) -> ContextMismatchError:
    return ContextMismatchError(f"cannot combine contexts {ctx} and {other}")


_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+|\.[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or a decimal string like "2.8" as an exact rational.

    Only an optional sign, digits and an optional "/digits" or ".digits" are
    accepted; anything else (exponents such as "1e999999" included) raises
    ValueError.
    """
    text = text.strip()
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(text)


_EXACT = (int, Fraction)


def _ratio(x) -> tuple[int, int]:
    """The numerator and denominator of a rational value, in lowest terms;
    only a value that is neither an int nor a Fraction goes through
    ``Fraction()``, which refuses what is not a rational."""
    if type(x) not in _EXACT:
        x = Fraction(x)
    return x.numerator, x.denominator


def _is_square_free(n: int) -> bool:
    if n < 1:
        return False
    k = 2
    while k * k <= n:
        if n % (k * k) == 0:
            return False
        k += 1
    return True


def _frozen(self, *args):
    raise AttributeError(f"{type(self).__name__} is immutable")


class _Value:
    """A dataclass's value semantics, read off ``__slots__``: field-wise
    equality within one class and the repr ``Name(field=value, ...)``.  A
    subclass declares ``frozen``: frozen ones are hashed by their fields and
    refuse assignment, mutable ones are unhashable."""

    __slots__ = ()

    def __init_subclass__(cls, *, frozen: bool):
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _frozen
        else:
            cls.__hash__ = None
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def _set_slots(self, *values):
        """Set the slots of a frozen instance in order, through their descriptors."""
        for set_slot, value in zip(self._setters, values):
            set_slot(self, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"


class FieldContext(_Value, frozen=True):
    """The field Q(sqrt(d1), sqrt(d2)); d2 = 1 degenerates to Q(sqrt(d1))."""

    __slots__ = ("d1", "d2")

    def __init__(self, d1: int, d2: int):
        self._set_slots(d1, d2)
        if not _is_square_free(d1) or not _is_square_free(d2):
            raise ValueError(f"context radicands must be square-free positive: {self}")
        if d1 == d2 and d1 != 1:
            raise ValueError(f"context radicands must differ: {self}")


QQ = FieldContext(1, 1)
CTX_SQRT2_SQRT3 = FieldContext(2, 3)
CTX_SQRT5 = FieldContext(5, 1)


def _sign_quad(p: int, q: int, d: int) -> int:
    """Exact sign of p + q*sqrt(d) for integers p, q."""
    if not q:
        return (p > 0) - (p < 0)
    sq = 1 if q > 0 else -1
    if not p or (p > 0) == (q > 0):
        return sq
    # opposite signs: compare p^2 against d*q^2
    s = p * p - d * q * q
    return -sq if s > 0 else (sq if s < 0 else 0)


class QuadExt:
    """An element (A + B*sqrt(d1) + C*sqrt(d2) + E*sqrt(d1*d2)) / D of a fixed
    context.

    Immutable.  The numerators A, B, C, E and the denominator D are Python
    ints with D > 0 and gcd(A, B, C, E, D) = 1.  That lowest-terms form is
    canonical, so equality and hashing are structural.  Degenerate contexts
    (d2 = 1, or d1 = 1) fold the redundant basis coefficients at construction
    time, and every operation keeps them zero.  The constructor does no
    ``Fraction`` arithmetic: an int or Fraction value with no radical part
    is already that form, (numerator, 0, 0, 0, denominator); otherwise the
    coefficients' numerators and denominators are put over their lcm and
    folded as ints, and one gcd brings the whole to lowest terms.  Only a
    coefficient that is neither an int nor a Fraction (a string, a float, a
    bool) is converted by ``Fraction()``.  The coefficients a, b, c, e read
    back as ``Fraction``.
    """

    __slots__ = ("_n", "ctx")

    def __init__(self, a, b=0, c=0, e=0, ctx: FieldContext = QQ):
        if not (b or c or e) and type(b) is type(c) is type(e) is int and type(a) in _EXACT:
            # a rational in lowest terms is already canonical
            _set_n(self, (a.numerator, 0, 0, 0, a.denominator))
        else:
            (a, da), (b, db), (c, dc), (e, de) = map(_ratio, (a, b, c, e))
            den = math.lcm(da, db, dc, de)
            a, b, c, e = a * (den // da), b * (den // db), c * (den // dc), e * (den // de)
            if ctx.d2 == 1:
                a, b, c, e = a + c, b + e, 0, 0
            if ctx.d1 == 1:
                a, b, c, e = a + b, 0, c + e, 0
            g = math.gcd(a, b, c, e, den)
            _set_n(self, (a // g, b // g, c // g, e // g, den // g))
        _set_ctx(self, ctx)

    __setattr__ = __delattr__ = _frozen

    @property
    def a(self) -> Fraction:
        return Fraction(self._n[0], self._n[4])

    @property
    def b(self) -> Fraction:
        return Fraction(self._n[1], self._n[4])

    @property
    def c(self) -> Fraction:
        return Fraction(self._n[2], self._n[4])

    @property
    def e(self) -> Fraction:
        return Fraction(self._n[3], self._n[4])

    # -- coercion ---------------------------------------------------------

    def _coerce(self, other) -> "QuadExt":
        if isinstance(other, QuadExt):
            if other.ctx is not self.ctx and other.ctx != self.ctx:
                raise _mismatch(self.ctx, other.ctx)
            return other
        if isinstance(other, (int, Fraction)):
            return _reduced(self.ctx, other.numerator, 0, 0, 0, other.denominator)
        return NotImplemented

    # -- ring / field operations -----------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a1, b1, c1, e1, den1 = self._n
        a2, b2, c2, e2, den2 = o._n
        if den1 == den2:
            return _reduced(self.ctx, a1 + a2, b1 + b2, c1 + c2, e1 + e2, den1)
        return _reduced(
            self.ctx,
            a1 * den2 + a2 * den1, b1 * den2 + b2 * den1,
            c1 * den2 + c2 * den1, e1 * den2 + e2 * den1,
            den1 * den2,
        )

    __radd__ = __add__

    def __neg__(self):
        a, b, c, e, den = self._n
        return _reduced(self.ctx, -a, -b, -c, -e, den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a1, b1, c1, e1, den1 = self._n
        a2, b2, c2, e2, den2 = o._n
        if den1 == den2:
            return _reduced(self.ctx, a1 - a2, b1 - b2, c1 - c2, e1 - e2, den1)
        return _reduced(
            self.ctx,
            a1 * den2 - a2 * den1, b1 * den2 - b2 * den1,
            c1 * den2 - c2 * den1, e1 * den2 - e2 * den1,
            den1 * den2,
        )

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d1, d2 = self.ctx.d1, self.ctx.d2
        a1, b1, c1, e1, den1 = self._n
        a2, b2, c2, e2, den2 = o._n
        return _reduced(
            self.ctx,
            a1 * a2 + d1 * b1 * b2 + d2 * c1 * c2 + d1 * d2 * e1 * e2,
            a1 * b2 + b1 * a2 + d2 * (c1 * e2 + e1 * c2),
            a1 * c2 + c1 * a2 + d1 * (b1 * e2 + e1 * b2),
            a1 * e2 + e1 * a2 + b1 * c2 + c1 * b2,
            den1 * den2,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        a, b, c, e, den = self._n
        d1, d2 = self.ctx.d1, self.ctx.d2
        if c or e:
            # push down the tower: N * conj_d2(N) = p + q*sqrt(d1), and
            # (p + q*sqrt(d1)) * (p - q*sqrt(d1)) = norm, a nonzero integer
            p = a * a + d1 * b * b - d2 * (c * c + d1 * e * e)
            q = 2 * (a * b - d2 * c * e)
            norm = p * p - d1 * q * q
            # conj_d2(N) * (p - q*sqrt(d1))
            num = (a * p - d1 * b * q, b * p - a * q, d1 * e * q - c * p, c * q - e * p)
        elif b:
            norm = a * a - d1 * b * b
            num = (a, -b, 0, 0)
        elif a:
            norm = a
            num = (1, 0, 0, 0)
        else:
            raise ZeroDivisionError("QuadExt inverse of zero")
        if norm < 0:
            norm, den = -norm, -den
        return _reduced(self.ctx, num[0] * den, num[1] * den, num[2] * den, num[3] * den, norm)

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return self._n == _ZERO

    def sign(self) -> int:
        """Exact sign by recursive descent through the field tower; the
        denominator is positive, so only the numerators matter."""
        a, b, c, e, _ = self._n
        d1 = self.ctx.d1
        s_x = _sign_quad(a, b, d1)
        s_y = _sign_quad(c, e, d1)
        if s_y == 0 or s_x == s_y:
            return s_x
        if s_x == 0:
            return s_y
        # X + Y*sqrt(d2) with sign(X) = -sign(Y): compare X^2 vs d2*Y^2
        d2 = self.ctx.d2
        return s_x * _sign_quad(
            a * a + d1 * b * b - d2 * (c * c + d1 * e * e),
            2 * (a * b - d2 * c * e),
            d1,
        )

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            return self._n == other._n and self.ctx == other.ctx
        if isinstance(other, (int, Fraction)):
            return self._n == (other.numerator, 0, 0, 0, other.denominator)
        return NotImplemented

    def __hash__(self):
        # the hash of the Fraction coefficients, which an integral value's ints
        # share, so that a set's order does not depend on the representation
        n = self._n
        key = n[:4] if n[4] == 1 else (self.a, self.b, self.c, self.e)
        return hash((*key, self.ctx))

    def __bool__(self):
        return not self.is_zero()

    # -- conversion -------------------------------------------------------

    def __float__(self):
        # int / int rounds correctly, exactly as float(Fraction) does
        a, b, c, e, den = self._n
        d1, d2 = self.ctx.d1, self.ctx.d2
        return (
            a / den
            + b / den * math.sqrt(d1)
            + c / den * math.sqrt(d2)
            + e / den * math.sqrt(d1 * d2)
        )

    def __repr__(self):
        d1, d2 = self.ctx.d1, self.ctx.d2
        parts = [str(self.a)] if self._n[0] or self.is_zero() else []
        for coef, rad in ((self.b, d1), (self.c, d2), (self.e, d1 * d2)):
            if coef:
                parts.append(f"{coef}√{rad}")
        return " + ".join(parts).replace("+ -", "- ")


_ZERO = (0, 0, 0, 0, 1)
_new = object.__new__
_set_n = QuadExt._n.__set__
_set_ctx = QuadExt.ctx.__set__


def _reduced(ctx: FieldContext, a: int, b: int, c: int, e: int, den: int) -> QuadExt:
    """Internal constructor: integer numerators over den > 0, brought to
    lowest terms, without the public constructor's coercion."""
    if den != 1:
        g = math.gcd(a, b, c, e, den)
        if g != 1:
            a, b, c, e, den = a // g, b // g, c // g, e // g, den // g
    x = _new(QuadExt)
    _set_n(x, (a, b, c, e, den))
    _set_ctx(x, ctx)
    return x


# -- exact linear algebra --------------------------------------------------

class LinearSolution(_Value, frozen=False):
    """Outcome of exact Gaussian elimination on A x = rhs.

    kind is "unique", "parametric" or "inconsistent".  For solvable systems,
    ``particular`` is one solution and ``nullspace`` spans the homogeneous
    solutions (empty for unique solutions).
    """

    __slots__ = ("kind", "rank", "particular", "nullspace")

    def __init__(self, kind: str, rank: int, particular: list | None = None,
                 nullspace: list | None = None):
        self.kind, self.rank, self.particular, self.nullspace = kind, rank, particular, nullspace


def solve_linear(matrix: list[list[QuadExt]], rhs: list[QuadExt]) -> LinearSolution:
    """Exact Gaussian elimination over one QuadExt context."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    aug = [list(row) + [r] for row, r in zip(matrix, rhs)]

    pivot_cols = []
    row = 0
    for col in range(n):
        pivot = next((r for r in range(row, m) if aug[r][col]), None)
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        p = aug[row][col]
        inv = p.inverse()
        aug[row] = [x * inv for x in aug[row]]
        for r in range(m):
            if r != row and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[row])]
        pivot_cols.append(col)
        row += 1
        if row == m:
            break

    rank = len(pivot_cols)
    for r in range(rank, m):
        if aug[r][n]:
            return LinearSolution("inconsistent", rank)

    ctx = aug[0][n].ctx
    zero, one = QuadExt(0, ctx=ctx), QuadExt(1, ctx=ctx)
    particular = [zero] * n
    for i, col in enumerate(pivot_cols):
        particular[col] = aug[i][n]

    free_cols = [c for c in range(n) if c not in pivot_cols]
    if not free_cols:
        return LinearSolution("unique", rank, particular, [])

    nullspace = []
    for fc in free_cols:
        vec = [zero] * n
        vec[fc] = one
        for i, col in enumerate(pivot_cols):
            vec[col] = -aug[i][fc]
        nullspace.append(vec)
    return LinearSolution("parametric", rank, particular, nullspace)
