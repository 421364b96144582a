"""Permutations of {1..d}, stored 0-based as tuples.

A permutation ``p`` maps point ``i`` to ``p[i]``.  Composition is
left-to-right (algebraic order): ``i^(p*q) = (i^p)^q``, matching the
right action of group elements on machine basis points.
"""

from __future__ import annotations

from math import prod

Perm = tuple[int, ...]


def identity(d: int) -> Perm:
    return tuple(range(d))


def is_identity(p: Perm) -> bool:
    return all(p[i] == i for i in range(len(p)))


def compose(p: Perm, q: Perm) -> Perm:
    """Left-to-right composition: apply p, then q."""
    return tuple([q[i] for i in p])


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def from_cycles(cycles: list[list[int]], d: int) -> Perm:
    """Build a permutation from 1-based disjoint cycles."""
    img = list(range(d))
    seen = set()
    for cyc in cycles:
        for a in cyc:
            if not 1 <= a <= d:
                raise ValueError(f"cycle point {a} outside 1..{d}")
            if a in seen:
                raise ValueError(f"point {a} repeated in cycle notation")
            seen.add(a)
        for k, a in enumerate(cyc):
            img[a - 1] = cyc[(k + 1) % len(cyc)] - 1
    return tuple(img)


def cycles(p: Perm, include_fixed: bool = True) -> list[list[int]]:
    """Disjoint cycles as 0-based lists, each starting at its least point."""
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if seen[i]:
            continue
        c = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            c.append(j)
            seen[j] = True
            j = p[j]
        if include_fixed or len(c) > 1:
            out.append(c)
    return out


def cycle_string(p: Perm) -> str:
    """1-based disjoint-cycle notation, fixed points suppressed; '' if identity."""
    return "".join(
        "(" + ",".join(str(a + 1) for a in c) + ")"
        for c in cycles(p, include_fixed=False)
    )


def deficit(p: Perm) -> int:
    """Sum of (cycle length - 1); the branching contribution of p."""
    return len(p) - len(cycles(p))


def orbit_partition(gens: list[Perm], d: int) -> list[list[int]]:
    """Orbits of the group generated by gens on {0..d-1}, sorted by least point."""
    seen = [False] * d
    orbits = []
    for i in range(d):
        if not seen[i]:
            orb = sorted([i] + [q for _, _, q in spanning_tree(gens, i)[0]])
            for q in orb:
                seen[q] = True
            orbits.append(orb)
    return orbits


def is_transitive(gens: list[Perm], d: int) -> bool:
    return len(orbit_partition(gens, d)) <= 1


def group_order(gens: list[Perm], d: int) -> int:
    """Order of <gens> on d points by deterministic Schreier-Sims.

    Level l holds a base point b_l, generators S_l (S_0 = gens), a
    transversal of the orbit of b_l under S_l (point -> (u, u^-1)) and
    the (point, generator) pairs still to check.  A pair extends the
    orbit or gives a Schreier generator, which is sifted through the
    deeper levels; a residue left at level j joins S_{l+1}..S_j and the
    walk resumes at level j.  <S_{l+1}> always lies in the stabiliser of
    b_l in <S_l>, and contains it once no pair is left (Schreier's
    lemma), so |<gens>| is the product of the orbit lengths.
    """
    levels: list[tuple[int, list, dict, list]] = []

    def add(g: Perm, lev: int):
        if lev == len(levels):
            b = next(i for i in range(d) if g[i] != i)
            levels.append((b, [], {b: (identity(d),) * 2}, []))
        _, S, T, todo = levels[lev]
        S.append(g)
        todo.extend((x, g) for x in T)

    for g in gens:
        if not is_identity(g):
            add(g, 0)
    lev = len(levels) - 1
    while lev >= 0:
        _, S, T, todo = levels[lev]
        if not todo:
            lev -= 1
            continue
        x, s = todo.pop()
        u, y = compose(T[x][0], s), s[x]
        if y not in T:
            T[y] = (u, inverse(u))
            todo.extend((y, t) for t in S)
            continue
        h, j = compose(u, T[y][1]), lev + 1
        while j < len(levels) and h[levels[j][0]] in levels[j][2]:
            h = compose(h, levels[j][2][h[levels[j][0]]][1])
            j += 1
        if not is_identity(h):
            for k in range(lev + 1, j + 1):
                add(h, k)
            lev = j
    return prod(len(T) for _, _, T, _ in levels)


def spanning_tree(gens: list[Perm], start: int = 0):
    """Edges (p, r, q), q = gens[r][p], of the breadth-first walk from
    start (points in the order reached, generators in list order), as
    (tree, back) in the order met: a tree edge reaches a new point."""
    order = [start]
    seen = {start}
    tree: list[tuple[int, int, int]] = []
    back: list[tuple[int, int, int]] = []
    for p in order:
        for r, g in enumerate(gens):
            q = g[p]
            if q in seen:
                back.append((p, r, q))
            else:
                seen.add(q)
                tree.append((p, r, q))
                order.append(q)
    return tree, back
