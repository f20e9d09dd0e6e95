"""Digital images on the integer grid with c1-adjacency.

A digital image is a finite subset of Z^n.  Two points are c1-adjacent when
they differ by exactly 1 in exactly one coordinate and agree everywhere else.
Continuity, homotopy and both homology theories downstream all reduce to this
single relation, so this module is deliberately small and explicit: maps and
homotopies are finite tables, and every operation is a pure function over
immutable values.

Coordinates are exact Python integers throughout; floats are rejected at
construction and parse time.
"""

from __future__ import annotations

import json
from collections import Counter, deque

from .errors import DimensionMismatch, ParseError, PointNotInImage

__all__ = [
    "DigitalImage",
    "PointMap",
    "HomotopyTable",
    "adjacent",
    "closed_neighborhood",
    "open_neighborhood",
    "components",
    "is_continuous",
    "is_homotopy",
    "interior",
    "identity_map",
    "constant_map",
    "compose",
    "random_continuous_map",
    "parse_image",
    "load_image",
    "load_point_map",
]


def _as_point(p):
    pt = tuple(p)
    if not pt:
        raise ParseError("points need at least one coordinate")
    for c in pt:
        if type(c) is not int:
            raise ParseError(f"non-integer coordinate {c!r}")
    return pt


def _check_ambient_dim(n):
    if type(n) is not int or n < 1:
        raise ParseError(f"ambient dimension must be a positive integer, got {n!r}")
    return n


def _check_length(pt, n):
    if len(pt) != n:
        raise DimensionMismatch(f"point {pt} has {len(pt)} coordinates, image is {n}-dimensional")
    return pt


def adjacent(x, y):
    """True iff x and y differ by exactly 1 in exactly one coordinate."""
    if len(x) != len(y):
        raise DimensionMismatch(f"points of lengths {len(x)} and {len(y)}")
    seen = False
    for a, b in zip(x, y):
        if a != b:
            if seen or b - a not in (-1, 1):
                return False
            seen = True
    return seen


def _grid_neighbors(p):
    # the 2n candidate c1-neighbors of p in Z^n
    for k in range(len(p)):
        for d in (-1, 1):
            yield p[:k] + (p[k] + d,) + p[k + 1:]


class DigitalImage:
    """A finite subset of Z^n, immutable after construction.

    Membership is O(1) via a hashed point set; adjacency is always computed,
    never stored (a point has at most 2n neighbors, cheap to regenerate).
    """

    __slots__ = ("ambient_dim", "points", "sorted_points")

    def __init__(self, ambient_dim, points=()):
        n = _check_ambient_dim(ambient_dim)
        self._set(n, frozenset([_check_length(_as_point(p), n) for p in points]))

    def _set(self, n, points):
        object.__setattr__(self, "ambient_dim", n)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "sorted_points", tuple(sorted(points)))

    @classmethod
    def _trusted(cls, n, points):
        """The image of a frozenset of points already checked to be tuples
        of n ints, n a positive int: the parsers check each point once."""
        X = object.__new__(cls)
        X._set(n, points)
        return X

    def __setattr__(self, name, value):
        raise AttributeError("DigitalImage is immutable")

    def __contains__(self, p):
        return tuple(p) in self.points

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.sorted_points)

    def __eq__(self, other):
        if not isinstance(other, DigitalImage):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.points == other.points

    def __hash__(self):
        return hash((self.ambient_dim, self.points))

    def __repr__(self):
        return f"DigitalImage(dim={self.ambient_dim}, #points={len(self.points)})"

    def neighbors(self, p):
        """The c1-neighbors of p that lie in this image, in sorted order."""
        pt = tuple(p)
        if pt not in self.points:
            raise PointNotInImage(f"{pt} is not a point of the image")
        return [t for t in sorted(_grid_neighbors(pt)) if t in self.points]


def _require_in(X, pts):
    out = []
    for p in pts:
        pt = tuple(p)
        if pt not in X.points:
            raise PointNotInImage(f"{pt} is not a point of the image")
        out.append(pt)
    return out


def closed_neighborhood(X, xs):
    """Common closed neighborhood within X of a nonempty set of its points.

    The closed neighborhood of a single point is the point together with its
    c1-neighbors in X; for several points, the intersection.
    """
    pts = _require_in(X, xs)
    if not pts:
        raise ValueError("xs must be nonempty")
    common = None
    for p in pts:
        nb = set(X.neighbors(p))
        nb.add(p)
        common = nb if common is None else common & nb
    return common


def open_neighborhood(X, xs):
    """Like closed_neighborhood but with the points themselves excluded: y
    lies in every N[p] and equals no p exactly when it lies in every N(p)."""
    pts = _require_in(X, xs)
    return closed_neighborhood(X, pts) - set(pts)


def components(X):
    """The c1-connected components of X, as a list of frozensets.

    Deterministic: components appear in order of their smallest point.
    """
    seen = set()
    out = []
    for start in X.sorted_points:
        if start in seen:
            continue
        block = {start}
        queue = deque([start])
        while queue:
            p = queue.popleft()
            for t in X.neighbors(p):
                if t not in block:
                    block.add(t)
                    queue.append(t)
        seen |= block
        out.append(frozenset(block))
    return out


class PointMap:
    """A total map between digital images, stored as an explicit table."""

    __slots__ = ("domain", "codomain", "table")

    def __init__(self, domain, codomain, table):
        tbl = {}
        for k, v in dict(table).items():
            kp, vp = tuple(k), tuple(v)
            if kp not in domain.points:
                raise PointNotInImage(f"table key {kp} is not in the domain")
            if vp not in codomain.points:
                raise PointNotInImage(f"table value {vp} is not in the codomain")
            tbl[kp] = vp
        if len(tbl) != len(domain):
            missing = next(iter(domain.points - tbl.keys()))
            raise ValueError(f"table is not total on the domain (missing {missing})")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "table", tbl)

    def __setattr__(self, name, value):
        raise AttributeError("PointMap is immutable")

    def __call__(self, p):
        try:
            return self.table[tuple(p)]
        except KeyError:
            raise PointNotInImage(f"{tuple(p)} is not in the domain") from None

    def __eq__(self, other):
        if not isinstance(other, PointMap):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.codomain == other.codomain
            and self.table == other.table
        )

    __hash__ = None

    def __repr__(self):
        return f"PointMap({self.domain!r} -> {self.codomain!r})"


def identity_map(X):
    return PointMap(X, X, {p: p for p in X})


def constant_map(X, Y, y):
    yp = tuple(y)
    return PointMap(X, Y, {p: yp for p in X})


def compose(g, f):
    """The composite g∘f (apply f first)."""
    if f.codomain != g.domain:
        raise ValueError("codomain of f must equal domain of g")
    return PointMap(f.domain, g.codomain, {p: g(f(p)) for p in f.domain})


def is_continuous(f):
    """True iff every adjacent pair of the domain maps to equal or adjacent points."""
    X = f.domain
    for x in X.sorted_points:
        fx = f(x)
        for y in X.neighbors(x):
            if y < x:
                continue  # each unordered pair once
            fy = f(y)
            if fx != fy and not adjacent(fx, fy):
                return False
    return True


class HomotopyTable:
    """A finite table H: X × {0..k} -> Y.

    steps = k may be 0; the table must be total and land in the codomain.
    """

    __slots__ = ("domain", "codomain", "steps", "table")

    def __init__(self, domain, codomain, steps, table):
        if type(steps) is not int or steps < 0:
            raise ValueError("steps must be a nonnegative integer")
        tbl = {}
        for key, v in dict(table).items():
            p, t = key
            pt, vp = tuple(p), tuple(v)
            if pt not in domain.points:
                raise PointNotInImage(f"table key {pt} is not in the domain")
            if type(t) is not int or not 0 <= t <= steps:
                raise ValueError(f"time {t!r} outside 0..{steps}")
            if vp not in codomain.points:
                raise PointNotInImage(f"table value {vp} is not in the codomain")
            tbl[(pt, t)] = vp
        if len(tbl) != len(domain) * (steps + 1):
            raise ValueError("table is not total on domain × {0..steps}")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "table", tbl)

    def __setattr__(self, name, value):
        raise AttributeError("HomotopyTable is immutable")

    def __call__(self, p, t):
        try:
            return self.table[(tuple(p), t)]
        except KeyError:
            raise PointNotInImage(f"({tuple(p)}, {t}) is not in the table") from None


def is_homotopy(H, f, g):
    """True iff H is a homotopy from f to g.

    Three conditions: H(·,0)=f and H(·,steps)=g; each track t ↦ H(x,t) is
    continuous on the integer interval; each slice x ↦ H(x,t) is continuous.
    """
    if H.domain != f.domain or H.domain != g.domain:
        raise ValueError("H, f, g must share a domain")
    if H.codomain != f.codomain or H.codomain != g.codomain:
        raise ValueError("H, f, g must share a codomain")
    X, k = H.domain, H.steps
    for x in X:
        if H(x, 0) != f(x) or H(x, k) != g(x):
            return False
    for x in X:
        for t in range(k):
            a, b = H(x, t), H(x, t + 1)
            if a != b and not adjacent(a, b):
                return False
    for t in range(k + 1):
        for x in X.sorted_points:
            hx = H(x, t)
            for y in X.neighbors(x):
                if y < x:
                    continue
                hy = H(y, t)
                if hx != hy and not adjacent(hx, hy):
                    return False
    return True


def interior(X, A, i=1):
    """The i-fold interior of A within X.

    Int^0(A) = A; Int(A) = points of A whose closed neighborhood in X lies
    inside A; Int^i iterates.
    """
    if type(i) is not int or i < 0:
        raise ValueError(f"i {i!r} must be an int >= 0")
    cur = set(_require_in(X, A))
    for _ in range(i):
        cur = {x for x in cur if all(nb in cur for nb in X.neighbors(x))}
    return cur


# --- random continuous maps (used by the verify suites and property tests) ---

def random_continuous_map(domain, codomain, rng, tries=100):
    """A random continuous PointMap domain -> codomain.

    Greedy per-component assignment in breadth-first order: each point picks a
    random codomain point compatible (equal-or-adjacent image) with its already
    assigned neighbors.  Dead ends retry; the constant map is the fallback, so
    the call always succeeds for a nonempty codomain.
    """
    if len(codomain) == 0:
        if len(domain) == 0:
            return PointMap(domain, codomain, {})
        raise ValueError("codomain is empty")
    cod = codomain.sorted_points
    for _ in range(tries):
        table = {}
        dead = False
        for block in components(domain):
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


# --- file formats ---------------------------------------------------------
#
# JSON image: {"ambient_dim": n, "points": [[int, ...], ...]}
# Text image: one whitespace-separated point per line, dimension from line 1.
# Map file:   {"pairs": [[[x...], [y...]], ...]}
#
# Duplicate points (and duplicate pair keys) are rejected.

def parse_image(text):
    """Parse either image format, sniffing JSON by the leading '{'."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_image_json(text)
    return _parse_image_text(text)


def _distinct(pts):
    """The frozenset of the points; ParseError naming the first point, in
    file order, that occurs twice."""
    out = frozenset(pts)
    if len(out) != len(pts):
        counts = Counter(pts)
        raise ParseError(f"duplicate point {next(p for p in pts if counts[p] > 1)}")
    return out


def _parse_image_json(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ParseError("image document must be a JSON object")
    if "ambient_dim" not in doc or "points" not in doc:
        raise ParseError('image document needs "ambient_dim" and "points"')
    n = doc["ambient_dim"]
    raw = doc["points"]
    if not isinstance(raw, list):
        raise ParseError('"points" must be a list')
    pts = []
    for item in raw:
        if not isinstance(item, list):
            raise ParseError(f"point {item!r} must be a list of integers")
        pts.append(_as_point(item))
    points = _distinct(pts)
    _check_ambient_dim(n)
    try:
        for p in pts:
            _check_length(p, n)
    except DimensionMismatch as e:
        raise ParseError(str(e)) from e
    return DigitalImage._trusted(n, points)


def _parse_image_text(text):
    pts = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            coords = [int(tok) for tok in line.split()]
        except ValueError as e:
            raise ParseError(f"line {lineno}: {e}") from e
        pts.append(_as_point(coords))
    if not pts:
        # no line to infer a dimension from; the empty image in dimension 1
        return DigitalImage(1, [])
    n = len(pts[0])
    for p in pts:
        if len(p) != n:
            raise ParseError(f"point {p} has {len(p)} coordinates, expected {n}")
    return DigitalImage._trusted(n, _distinct(pts))


def load_image(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    return parse_image(text)


def load_point_map(path, domain, codomain):
    """Read a map file and build the PointMap domain -> codomain."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}") from e
    if not isinstance(doc, dict) or not isinstance(doc.get("pairs"), list):
        raise ParseError('map document needs a "pairs" list')
    table = {}
    for item in doc["pairs"]:
        if not (isinstance(item, list) and len(item) == 2
                and all(isinstance(p, list) for p in item)):
            raise ParseError(f"pair {item!r} must be [[x...],[y...]]")
        x, y = _as_point(item[0]), _as_point(item[1])
        if x in table:
            raise ParseError(f"conflicting images for {x}" if table[x] != y
                             else f"duplicate pair for {x}")
        table[x] = y
    return PointMap(domain, codomain, table)
