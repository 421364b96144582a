"""Permutations of {1..d}, stored 0-based as tuples.

A permutation ``p`` maps point ``i`` to ``p[i]``.  Composition is
left-to-right (algebraic order): ``i^(p*q) = (i^p)^q``, matching the
right action of group elements on machine basis points.
"""

from __future__ import annotations


Perm = tuple[int, ...]


def identity(d: int) -> Perm:
    return tuple(range(d))


def is_identity(p: Perm) -> bool:
    return all(p[i] == i for i in range(len(p)))


def compose(p: Perm, q: Perm) -> Perm:
    """Left-to-right composition: apply p, then q."""
    return tuple(q[p[i]] for i in range(len(p)))


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
        if seen[i]:
            continue
        orb = [i]
        seen[i] = True
        queue = [i]
        while queue:
            x = queue.pop()
            for g in gens:
                y = g[x]
                if not seen[y]:
                    seen[y] = True
                    orb.append(y)
                    queue.append(y)
        orbits.append(sorted(orb))
    return orbits


def is_transitive(gens: list[Perm], d: int) -> bool:
    return len(orbit_partition(gens, d)) <= 1


def group_closure(gens: list[Perm], limit: int | None = None) -> set[Perm]:
    """All elements of <gens> by breadth-first closure.

    Intended for desk-scale degrees (d <= 8, order <= d!).
    """
    if not gens:
        return {()}
    d = len(gens[0])
    elems = {identity(d)}
    frontier = [identity(d)]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = compose(x, g)
                if y not in elems:
                    elems.add(y)
                    nxt.append(y)
                    if limit is not None and len(elems) > limit:
                        raise ValueError("permutation group larger than limit")
        frontier = nxt
    return elems
