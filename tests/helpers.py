"""Shared fixtures and independent oracles for the test suite.

The oracles deliberately use a different strategy than the library
(brute force, fraction-free determinants, minors-gcd) so that agreement
between the two implementations is meaningful evidence of correctness.
"""

from bisect import bisect_left
from collections import Counter, deque
from fractions import Fraction
from itertools import combinations, product

from dighom import (
    DigitalImage,
    ElementaryCube,
    PointMap,
    SingularCube,
    adjacent,
    closed_neighborhood,
    is_continuous,
    is_degenerate,
)
from dighom.chain import _apply
from dighom.errors import BudgetExceeded
from dighom.singular import _counter, _Ladder, _precomposition


# ---------------------------------------------------------------------------
# fixture images


def pt():
    return DigitalImage(2, [(0, 0)])


def isolated(d):
    # d pairwise non-adjacent points on a line, spaced by 3
    return DigitalImage(1, [(3 * i,) for i in range(d)])


def edge():
    return DigitalImage(1, [(0,), (1,)])


def tall_edge():
    # an edge along the second axis; exercises orientation bookkeeping
    # when the varying coordinate is not the first one
    return DigitalImage(2, [(0, 0), (0, 1)])


def high_edge(n):
    # two adjacent points in Z^n: testing every extent of every degree
    # would take about 2^n steps
    return DigitalImage(n, [(0,) * n, (0,) * (n - 1) + (1,)])


def path3():
    return DigitalImage(1, [(0,), (1,), (2,)])


def square():
    return DigitalImage(2, [(x, y) for x in (0, 1) for y in (0, 1)])


def block():
    return DigitalImage(3, list(product((0, 1), repeat=3)))


def ring():
    pts = [(x, y) for x in range(3) for y in range(3) if (x, y) != (1, 1)]
    return DigitalImage(2, pts)


def tailed_ring():
    # the ring moved by (1, 1), with tails (0, 3), (0, 1)-(0, 0) and (3, 0)
    return DigitalImage(2, [(0, 0), (0, 1), (0, 3), (1, 1), (1, 2), (1, 3), (2, 1), (2, 3),
                            (3, 0), (3, 1), (3, 2), (3, 3)])


def ring_with_square():
    # the ring with the unit square on (2, 0), (2, 1), (3, 0) and (3, 1):
    # dimension 2, so its streamed degree 1 is below its c1 top, H_1 = Z
    return DigitalImage(2, list(ring().points) + [(3, 0), (3, 1)])


def tailed_ring_with_square():
    # the tailed ring with the unit square on its tail (3, 0)-(3, 1)
    return DigitalImage(2, list(tailed_ring().points) + [(4, 0), (4, 1)])


def shell():
    pts = [p for p in product(range(3), repeat=3) if p != (1, 1, 1)]
    return DigitalImage(3, pts)


def sphere():
    # the hollow 3^4 box, 80 points: a digital 3-sphere
    pts = [p for p in product(range(3), repeat=4) if p != (1, 1, 1, 1)]
    return DigitalImage(4, pts)


def strip():
    return DigitalImage(2, [(x, y) for x in range(9) for y in (0, 1)])


def big_ring():
    # the 12-point perimeter of [0,3]^2, listed in cycle order
    cycle = [
        (0, 0), (1, 0), (2, 0), (3, 0),
        (3, 1), (3, 2), (3, 3),
        (2, 3), (1, 3), (0, 3),
        (0, 2), (0, 1),
    ]
    return DigitalImage(2, cycle), cycle


def cylinder(image):
    pts = [p + (t,) for p in image.points for t in (0, 1)]
    return DigitalImage(image.ambient_dim + 1, pts)


def random_image(rng, ambient_dim, side, fill):
    pts = [p for p in product(range(side), repeat=ambient_dim)
           if rng.random() < fill]
    return DigitalImage(ambient_dim, pts)


FIXTURES = {
    "pt": pt,
    "edge": edge,
    "tall_edge": tall_edge,
    "path3": path3,
    "square": square,
    "block": block,
    "ring": ring,
}


# ---------------------------------------------------------------------------
# linear-algebra oracles


def bareiss_det(rows):
    """Integer determinant via fraction-free Gaussian elimination."""
    n = len(rows)
    if n == 0:
        return 1
    assert all(len(r) == n for r in rows)
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def rank_oracle(rows):
    """Rank over Q via exact fraction elimination."""
    m = [[Fraction(v) for v in r] for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    row = 0
    for col in range(ncols):
        piv = None
        for i in range(row, len(m)):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        for i in range(row + 1, len(m)):
            if m[i][col]:
                f = m[i][col] / m[row][col]
                for j in range(col, ncols):
                    m[i][j] -= f * m[row][j]
        row += 1
        rank += 1
    return rank


def minors_gcd_factors(rows):
    """Invariant factors via gcds of k-by-k minors. Exponential; tiny input only."""
    import math

    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    dets_prev = 1
    factors = []
    for k in range(1, min(nr, nc) + 1):
        g = 0
        for ri in combinations(range(nr), k):
            for ci in combinations(range(nc), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                g = math.gcd(g, bareiss_det(sub))
        if g == 0:
            break
        factors.append(g // dets_prev)
        dets_prev = g
    return tuple(factors)


def interreduce(pivots):
    """A copy of a column reducer's pivots with every unit pivot zero at
    every other unit pivot row; nonunit pivots are copied as they are.

    From the lowest index up: the entries of p_r at unit rows k < r are
    taken out with the already interreduced p_k, which adds none at the
    other unit rows.  This only subtracts multiples of earlier unit pivots,
    so it is unimodular and keeps the span, the pivot rows and the pivot
    entries."""
    out = {r: dict(p) for r, p in pivots.items()}
    unit = {r for r, p in out.items() if p[r] == 1}
    for r in sorted(unit):
        col = out[r]
        for k, m in [(k, v) for k, v in col.items() if k in unit and k != r]:
            for i, v in out[k].items():
                w = col.get(i, 0) - m * v
                if w:
                    col[i] = w
                else:
                    col.pop(i, None)
    return out


def matmul_oracle(a, b):
    n, k = len(a), len(a[0]) if a else 0
    k2, m = len(b), len(b[0]) if b else 0
    assert k == k2
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


# ---------------------------------------------------------------------------
# image / cube oracles


def components_oracle(image):
    """Connected components by repeated transitive closure over adjacency."""
    from dighom import adjacent

    remaining = set(image.points)
    comps = []
    while remaining:
        seed = min(remaining)
        comp = {seed}
        grew = True
        while grew:
            grew = False
            for p in list(remaining - comp):
                if any(adjacent(p, q) for q in comp):
                    comp.add(p)
                    grew = True
        comps.append(frozenset(comp))
        remaining -= comp
    comps.sort(key=lambda c: min(c))
    return comps


def random_continuous_map_oracle(domain, codomain, rng, tries=100):
    """random_continuous_map written with its own queue: each component, in
    order of its smallest point, is walked breadth-first from a random start,
    neighbors in sorted order, and each point draws from rng as the library
    does, so that one seeded rng gives both the same table."""
    if len(codomain) == 0:
        if len(domain) == 0:
            return PointMap(domain, codomain, {})
        raise ValueError("codomain is empty")
    cod = codomain.sorted_points
    for _ in range(tries):
        table = {}
        dead = False
        for block in components_oracle(domain):
            order = sorted(block)
            start = rng.choice(order)
            seen = {start}
            queue = deque([start])
            seq = [start]
            while queue:
                p = queue.popleft()
                for t in domain.neighbors(p):
                    if t in block and t not in seen:
                        seen.add(t)
                        queue.append(t)
                        seq.append(t)
            for x in seq:
                assigned = [table[nb] for nb in domain.neighbors(x) if nb in table]
                if not assigned:
                    table[x] = rng.choice(cod)
                    continue
                cands = closed_neighborhood(codomain, assigned)
                if not cands:
                    dead = True
                    break
                table[x] = rng.choice(sorted(cands))
            if dead:
                break
        if not dead:
            return PointMap(domain, codomain, table)
    c = rng.choice(cod)
    return PointMap(domain, codomain, {p: c for p in domain})


def homotopy_reference(H, f, g):
    """is_homotopy(H, f, g) read off its definition: H(., 0) = f and
    H(., steps) = g, every track t -> H(x, t) moves by at most one step, and
    every slice x -> H(x, t) is a continuous PointMap."""
    X, k = H.domain, H.steps
    ends = all(H(x, 0) == f(x) and H(x, k) == g(x) for x in X)
    tracks = all(H(x, t) == H(x, t + 1) or adjacent(H(x, t), H(x, t + 1))
                 for x in X for t in range(k))
    slices = all(is_continuous(PointMap(X, H.codomain, {x: H(x, t) for x in X}))
                 for t in range(k + 1))
    return ends and tracks and slices


def elementary_cubes_by_vertex_test(image, q):
    """Every elementary q-cube whose 2^q vertices all lie in the image, by
    testing each point with each of the C(n, q) extents, in (min_corner,
    extent) order."""
    from dighom import ElementaryCube

    out = []
    for p in sorted(image.points):
        for ext in combinations(range(1, image.ambient_dim + 1), q):
            corners = product(*((c, c + 1) if k in ext else (c,)
                                for k, c in enumerate(p, start=1)))
            if all(v in image.points for v in corners):
                out.append(ElementaryCube(p, ext))
    return out


def continuous_tables(image, q):
    """Every continuous corner table of length 2^q, degenerate ones too, in
    lex order, by filtering every table."""
    pairs = [(c, c | 1 << b) for c in range(1 << q) for b in range(q) if not c >> b & 1]
    return [corners for corners in product(image.sorted_points, repeat=1 << q)
            if all(corners[c] == corners[d]
                   or sum(abs(u - v) for u, v in zip(corners[c], corners[d])) == 1
                   for c, d in pairs)]


def brute_singular_cubes(image, q):
    """All nondegenerate singular q-cubes by filtering every corner table."""
    cubes = (SingularCube(q, corners) for corners in continuous_tables(image, q))
    return [cube for cube in cubes if not is_degenerate(cube)]


def precompose_oracle(sigma, op):
    """sigma after the coordinate map of an operator tag ('F', j), ('C', i, j),
    ('S', i, j) or ('R', i, j), evaluated on each t in {0,1}^q as a bit vector
    (t_1, ..., t_q); no corner-index table is built.

    F reflects t_j; C exchanges t_i and t_j; S moves t_i into slot j; R
    exchanges t_i and t_j, then reflects t_j.
    """
    kind, *idx = op
    i, j = idx[0], idx[-1]

    def move(t):
        t = list(t)
        if kind in "CR":
            t[i - 1], t[j - 1] = t[j - 1], t[i - 1]
        if kind == "S":
            t.insert(j - 1, t.pop(i - 1))
        if kind in "FR":
            t[j - 1] = 1 - t[j - 1]
        return tuple(t)

    # t_1 varies fastest, as in the corner table
    points = [t[::-1] for t in product((0, 1), repeat=sigma.q)]
    value = dict(zip(points, sigma.corners))
    return SingularCube(sigma.q, tuple(value[move(t)] for t in points))


def raw_boundary(cube):
    """Unnormalized boundary as a face-multiset, degenerate faces included."""
    from dighom import face

    acc = Counter()
    for i in range(1, cube.q + 1):
        sgn = -1 if i % 2 else 1
        acc[face(cube, "front", i)] += sgn
        acc[face(cube, "back", i)] -= sgn
    return Counter({k: v for k, v in acc.items() if v})


def raw_boundary_chain(counter):
    """Apply raw_boundary linearly to a face-multiset."""
    acc = Counter()
    for cube, coef in counter.items():
        for f, c in raw_boundary(cube).items():
            acc[f] += coef * c
    return Counter({k: v for k, v in acc.items() if v})


def continuous_maps_brute(domain, codomain):
    """Every continuous map domain -> codomain, by exhaustion. Tiny inputs only."""
    from dighom import PointMap

    src = domain.sorted_points
    for values in product(codomain.sorted_points, repeat=len(src)):
        f = PointMap(domain, codomain, dict(zip(src, values)))
        if is_continuous(f):
            yield f


def decode(X, q, key):
    """The cube of a basis key of build_singular_complex (a tuple of point
    indices, one per corner) or of build_c1_complex ((i, extent))."""
    pts = X.sorted_points
    if len(key) == 2 and type(key[1]) is tuple:
        return ElementaryCube(pts[key[0]], key[1])
    return SingularCube(q, tuple(pts[a] for a in key))


def alpha(X, key):
    """The corner table of the canonical embedding of the elementary cube of
    a c1 key (i, ext): corner c is the minimal corner pts[i] moved one step
    up each coordinate ext[b] at a set bit b of c.  The section alpha of
    beta sends the cube to this singular cube, with beta(alpha(Q)) = +Q."""
    i, ext = key
    table = []
    for c in range(1 << len(ext)):
        p = list(X.sorted_points[i])
        for b, j in enumerate(ext):
            p[j - 1] += c >> b & 1
        table.append(tuple(p))
    return tuple(table)


def stream(X, q, budget, ladder=None):
    """(keys, cofaces) of the nondegenerate q-cubes on X, lazily, as keys of
    build_singular_complex.  Degree 0 lists the points, and a degree q >= 1
    the pairs (x, y) of _Ladder.rounds over every table of level q-1 of a
    ladder (a fresh one unless given), each the key of x followed by that of
    y: the order in which singular_homology streams degree q.
    cofaces(fronts) lists those of _Ladder.cofaces for the keys fronts of
    degree q-1.  Both count toward one budget of degree q.  Degree 0 and a
    degree with no cube have no cofaces (None)."""
    counted = _counter(q, budget)
    if not q:
        return counted((a,) for a in range(len(X.sorted_points))), None
    ladder = ladder or _Ladder(X)
    if not ladder.edges:
        return iter(()), None
    try:
        keys = ladder.level(q - 1, budget)[0]  # in lex order
    except BudgetExceeded:  # a level below over budget counts toward degree q too
        raise BudgetExceeded(q, budget) from None

    def keyed(pairs):
        return (keys[x] + keys[y] for x, y in counted(pairs))

    return (keyed(ladder.rounds(q - 1, range(len(keys)))),
            lambda fronts: keyed(ladder.cofaces(q - 1, [bisect_left(keys, f) for f in fronts])))


def cofaces_oracle(ladder, k, fronts):
    """_Ladder.cofaces(k, fronts) in its order, from full keys: each cube a
    of rounds(k, fronts), in turn, precomposed to move t_{k+1} to t_i and
    reflected there if s, for i = 1..k+1 and s = 0, 1 in turn, as the pair
    of its halves, found by bisection in the keys of level k; each listed
    where it first appears."""
    keys, half = ladder.levels[k][0], 1 << k
    moves = [_precomposition(k + 1, i, k + 1, s << k, True)
             for i in range(1, k + 2) for s in (0, 1)]
    found = {}
    for x, y in ladder.rounds(k, fronts):
        for move in moves:
            b = move(keys[x] + keys[y])
            found.setdefault((bisect_left(keys, b[:half]), bisect_left(keys, b[half:])))
    return list(found)


def chain_groups(X, complex_, q):
    """Basis labels of a complex built on X, decoded to cubes, as a list for
    readable assertions."""
    return [decode(X, q, key) for key in complex_.basis(q)]


def chain_map_by_every_product(phi, C, D):
    """verify_chain_map without its support test: both sides of every pair
    of columns composed, every column of C's boundaries read."""
    mats = [M.columns for M in phi]
    return all(_apply(D.boundary_matrix(q).columns, a) == _apply(mats[q - 1], b)
               for q in range(1, len(mats))
               for a, b in zip(mats[q], C.boundary_matrix(q).columns))
