"""A case-free exact oracle for the pair predicate's verdicts.

Two nondegenerate closed triangles T1 = conv(p_i) and T2 = conv(q_j) of
R^d meet in the hull of their shared vertices, and nothing more, exactly
when every common point has zero weight on T1's non-shared vertices: the
maximum of sum(lambda_i, i non-shared) over lambda, mu >= 0 with
sum(lambda) = sum(mu) = 1 and sum(lambda_i p_i) = sum(mu_j q_j) is 0 (or
the system has no solution).  The feasible set is a bounded polytope, so
the maximum is taken at a basic feasible solution: the d + 2 equations are
row-reduced in Fractions to rank r, and every choice of r of the six
weights whose columns are independent gives one.  There is no case split
on dimension, coplanarity or shared vertices, and no code shared with the
predicate.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

from flextri.geometry import Point
from flextri.verify import pair_intersection_check


def _reduce(rows):
    """Gauss-Jordan, in Fractions, on rows of rationals whose last entry is
    the right-hand side: (the nonzero rows of the reduced form, their pivot
    columns), or None when the system has no solution."""
    rows = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for col in range(len(rows[0]) - 1):
        r = len(pivots)
        k = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        pivot = rows[r][col]
        rows[r] = [x / pivot for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                f = row[col]
                rows[i] = [x - f * y for x, y in zip(row, rows[r])]
        pivots.append(col)
    if any(row[-1] for row in rows[len(pivots):]):
        return None
    return rows[:len(pivots)], pivots


def oracle_admissible(t1, t2) -> bool:
    """True iff the nondegenerate triangles t1 and t2, triples of
    coordinate tuples of ints or Fractions, meet in the hull of their
    shared vertices at most."""
    free = [i for i, p in enumerate(t1) if p not in t2]
    rows = [[1, 1, 1, 0, 0, 0, 1], [0, 0, 0, 1, 1, 1, 1]]
    rows += [[*(p[k] for p in t1), *(-q[k] for q in t2), 0] for k in range(len(t1[0]))]
    reduced = _reduce(rows)
    if reduced is None:
        return True
    rows, pivots = reduced
    best = None
    for basis in combinations(range(6), len(pivots)):
        square = _reduce([[row[c] for c in basis] + [row[-1]] for row in rows])
        if square is None or len(square[1]) < len(basis):
            continue
        weights = dict(zip(basis, (row[-1] for row in square[0])))
        if min(weights.values()) < 0:
            continue
        value = sum(weights.get(i, 0) for i in free)
        best = value if best is None else max(best, value)
    return best is None or best == 0


def is_degenerate(t) -> bool:
    """True iff the three coordinate tuples are affinely dependent: their
    two difference vectors have rank below 2."""
    a, b, c = t
    rows = [[x - y for x, y in zip(p, a)] + [0] for p in (b, c)]
    return len(_reduce(rows)[1]) < 2


def _seeded_pairs(rng, dim, n, r):
    """``n`` pairs of nondegenerate triangles of R^``dim`` with vertices in
    [-r, r]^dim, sharing 0, 1 or 2 vertices, a third of them coplanar: the
    second face drawn from small int combinations of the first face's
    edges."""
    pairs = []
    while len(pairs) < n:
        t1 = [tuple(rng.randint(-r, r) for _ in range(dim)) for _ in range(3)]
        if is_degenerate(t1):
            continue
        if rng.randint(0, 2):
            t2 = [tuple(rng.randint(-r, r) for _ in range(dim)) for _ in range(3)]
        else:
            a, b, c = t1
            t2 = []
            for _ in range(3):
                s, t = rng.randint(-2, 2), rng.randint(-2, 2)
                t2.append(tuple(x + s * (y - x) + t * (z - x) for x, y, z in zip(a, b, c)))
        for k in rng.sample(range(3), rng.randint(0, 2)):
            t2[k] = t1[k]
        if len(set(t2)) < 3 or set(t1) == set(t2) or is_degenerate(t2):
            continue
        pairs.append((tuple(t1), tuple(t2)))
    return pairs


# an int linear map of R^4 into R^5 of rank 4, so injective: an R^3 point
# goes in as (x, y, z, 0)
_INTO_R5 = ((1, 0, 0, 1), (0, 1, 0, -1), (0, 0, 1, 1), (1, 1, 0, 0), (0, 1, 1, 2))


def _into_r5(pair):
    return tuple(
        tuple(tuple(sum(m * x for m, x in zip(row, (*p, 0))) for row in _INTO_R5) for p in t)
        for t in pair
    )


def _k6_clique_pairs(rng, n):
    """Every clique pair of ``n`` seeded placements of K_6 in [-1, 1]^4,
    each with six distinct points and no degenerate 3-clique."""
    pairs = []
    while n:
        points = [tuple(rng.randint(-1, 1) for _ in range(4)) for _ in range(6)]
        faces = [tuple(points[i] for i in f) for f in combinations(range(6), 3)]
        if len(set(points)) < 6 or any(is_degenerate(f) for f in faces):
            continue
        pairs += combinations(faces, 2)
        n -= 1
    return pairs


def test_every_verdict_agrees_with_the_oracle(perfbench):
    # the benchmark's degenerate pool, each case in R^3, lifted into R^4
    # and under a rational affine map, on QuadExt points of Q; then seeded
    # int pairs of R^3, of R^4, of R^3 inside R^4 and of both in R^5, and
    # every clique pair of seeded K_6 placements in R^4, on int Points
    cases = [
        (raw, points)
        for case in perfbench.workloads.degenerate_pool()
        for raw, points in zip((case[f] for f in ("r3", "r4", "affine")),
                               perfbench.worker.case_points(case))
    ]
    assert len(cases) == 840
    rng = random.Random(33)
    # in [-1, 1]^4 a pair in general position touches at a vertex or an
    # edge of a face often enough to test Cramer's closed bounds
    seeded = _seeded_pairs(rng, 3, 400, 2) + _seeded_pairs(rng, 4, 300, 1)
    # R^3 draws mapped into a 3-flat of R^4 that is no coordinate flat
    seeded += [tuple(tuple((*p, p[0] - p[1] + 2 * p[2]) for p in t) for t in pair)
               for pair in _seeded_pairs(rng, 3, 300, 2)]
    # R^3 and R^4 draws under an injective int map into R^5, where the
    # predicate finds each pair's rank by elimination
    seeded += map(_into_r5, _seeded_pairs(rng, 3, 150, 2) + _seeded_pairs(rng, 4, 150, 1))
    seeded += _k6_clique_pairs(rng, 3)
    cases += [(raw, tuple(tuple(map(Point, t)) for t in raw)) for raw in seeded]
    disagreements, verdicts = [], []
    for (t1, t2), points in cases:
        # the oracle's premise: no input has a degenerate face
        assert not is_degenerate(t1) and not is_degenerate(t2), (t1, t2)
        v = pair_intersection_check(*points)
        verdicts.append(v)
        if v.admissible != oracle_admissible(t1, t2):
            disagreements.append((t1, t2, v))
    assert not disagreements, disagreements[:5]
    # the inputs reach both verdicts, every kind, and 0, 1 and 2 shared
    # vertices in number
    for key in ("verdict", "kind", "shared"):
        counts = Counter(getattr(v, key) for v in verdicts)
        assert min(counts.values()) > 20, counts
    # the R^5 draws reach both verdicts on 0, 1 and 2 shared vertices each;
    # the K_6 placements give 30 clique pairs on no vertex, 270 on one and
    # 270 on an edge
    r5 = Counter((v.shared, v.verdict) for v in verdicts[-870:-570])
    assert len(r5) == 6 and min(r5.values()) > 5, r5
    assert Counter(v.shared for v in verdicts[-570:]) == {0: 30, 1: 270, 2: 270}

