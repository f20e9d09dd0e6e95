"""Shared fixtures and independent oracles for the test suite.

The oracles deliberately use a different strategy than the library
(brute force, fraction-free determinants, minors-gcd) so that agreement
between the two implementations is meaningful evidence of correctness.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations, product

from dighom import DigitalImage, SingularCube, is_continuous, is_degenerate


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


def shell():
    pts = [p for p in product(range(3), repeat=3) if p != (1, 1, 1)]
    return DigitalImage(3, pts)


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


def brute_singular_cubes(image, q):
    """All nondegenerate singular q-cubes by filtering every corner table."""
    pts = image.sorted_points
    out = []
    for corners in product(pts, repeat=1 << q):
        ok = True
        for c in range(1 << q):
            for b in range(q):
                d = c ^ (1 << b)
                if d < c:
                    continue
                x, y = corners[c], corners[d]
                if x != y and sum(abs(u - v) for u, v in zip(x, y)) != 1:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        cube = SingularCube(q, corners)
        if not is_degenerate(cube):
            out.append(cube)
    return out


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


def chain_groups(complex_, q):
    """Basis labels of a complex as a list, for readable assertions."""
    return list(complex_.basis(q))
