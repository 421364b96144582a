"""Constructive membership in finitely generated subgroups of free groups.

Stallings folding of the petal graph, with every edge decorated by a
word over abstract generator symbols.  Decorations are kept coherent
through folds by gauge corrections at the merged vertex, so that the
decoration product along any loop at the basepoint evaluates (symbols
substituted by the given generators) to the loop's label word.  Tracing
a word therefore decides membership and yields an expression at once,
with no assumption that the generators are a free basis.

Where two parallel edges fold together, the fold also records a relator
among the generators (SubgroupGraph.relators), so it yields a
presentation of the subgroup, as in Kapovich and Myasnikov, "Stallings
foldings and subgroups of free groups", J. Algebra 248 (2002).  The
generators are sent to given words by a homomorphism of the subgroup
exactly when every relator is sent to 1, which checks such a map
without applying it to the generators.

Folding runs off a worklist.  Each vertex maps a signed letter to its
edges there, and every (vertex, letter) that holds two edges is queued.
A fold gauges the endpoint with fewer incident edges (never the base),
rewrites only that endpoint's edges and moves them to the other one,
queueing the clashes this creates.  As in union by size, the moves total
O(E log E) for E petal edges; each multiplies a decoration by the gauge
word.  The folded graph does not depend on the fold order, though the
decorations, and so the expressions found, may.
"""

from __future__ import annotations

from .words import Word, EPSILON, winv, wmul, cyclic_reduce, substitute_all


class SubgroupGraph:
    """Folded core graph of <gens> with expression decorations.

    relators: cyclically reduced words over 1-based positions into gens,
    one for each parallel-edge removal, and never empty.  A homomorphism
    defined on <gens> sends them all to 1; conversely, if the assignment
    gens[k] -> ys[k] (ys[k] = 1 where gens[k] is empty) sends every
    relator to 1, then some homomorphism h on <gens> has h(gens[k]) =
    ys[k] for all k, and h(w) is ys substituted into express(w).

    Proof.  Write D(P) for the decoration product of a path P, a reduced
    word over symbols.  A merge fold with its gauge keeps D(P) of every
    path, as a word: the gauge word and its inverse cancel at the
    gauged vertex, and the base is never gauged.  Removing e2, parallel
    to e1 with decorations d1 and d2 in the same orientation, changes
    D(P) of a path through e2 only by replacing d2 with d1.  The relator
    recorded is d1 * d2^-1.  If each relator goes to 1 under symbols ->
    ys, each such replacement keeps the value of D(P), so the petal of
    gens[k], whose D was symbol k, still has value ys[k] after the last
    fold; it now reads gens[k] from the base, so h := (ys substituted
    into express) sends gens[k] to ys[k], and h is a homomorphism
    because D is multiplicative along loops.  Conversely, each relator
    is D of the loop L = P * e1 * e2^-1 * P^-1 for a path P from the
    base, up to conjugation, and L's label is trivial; so any
    homomorphism with gens[k] -> ys[k] sends it to 1.  The relator is
    not empty: D is injective on loops at the base (it is at the start,
    folds keep it so), and L is a nontrivial loop.  So there are
    exactly (nonempty gens) - (E - V + 1) relators, one per rank lost.
    """

    def __init__(self, gens):
        self.gens = [tuple(w) for w in gens]
        nonzero = [(i, w) for i, w in enumerate(self.gens) if w]
        self._symbol_of = [i for i, _ in nonzero]
        # adj[v][a]: edges at v read along signed letter a.  An edge is
        # [u, x, v, decoration] with x > 0; read from v along -x it carries
        # the inverse decoration.  A loop at v sits under both x and -x.
        adj: list[dict[int, list] | None] = [{}]
        work: list[tuple[int, int]] = []

        def attach(v, a, e):
            bucket = adj[v].setdefault(a, [])
            bucket.append(e)
            if len(bucket) == 2:
                work.append((v, a))

        for k, (_, w) in enumerate(nonzero):
            u = 0
            for pos, x in enumerate(w):
                # only the last edge of a petal carries its symbol, k + 1
                if pos == len(w) - 1:
                    v, dec = 0, ((k + 1,) if x > 0 else (-k - 1,))
                else:
                    v, dec = len(adj), EPSILON
                    adj.append({})
                e = [u, x, v, dec] if x > 0 else [v, -x, u, dec]
                attach(e[0], e[1], e)
                attach(e[2], -e[1], e)
                u = v
        degree = [sum(map(len, a.values())) for a in adj]
        relators: list[Word] = []

        while work:
            p, a = work.pop()
            if adj[p] is None or len(adj[p].get(a, ())) < 2:
                continue
            bucket = adj[p][a]
            e1, e2 = bucket[0], bucket[1]
            if len(bucket) > 2:
                work.append((p, a))
            # other endpoints; read from p along a, the edges carry their
            # decorations when a > 0 and the inverses when a < 0
            t1, t2 = (e1[2], e2[2]) if a > 0 else (e1[0], e2[0])
            # e2 goes: it is parallel to e1 now or once t1 and t2 merge
            _remove(bucket, e2)
            _remove(adj[t2][-a], e2)
            degree[p] -= 1
            degree[t2] -= 1
            if t1 == t2:
                # e1 and e2 share their orientation; see relators
                relators.append(wmul(e1[3], winv(e2[3])))
                continue
            # gauge the endpoint with fewer edges (never the base) so the
            # two decorations agree, then move its edges to the other one:
            # c = (dt read from p)^-1 * (ds read from p), one inversion
            if t2 != 0 and (t1 == 0 or degree[t2] <= degree[t1]):
                t, s, dt, ds = t2, t1, e2[3], e1[3]
            else:
                t, s, dt, ds = t1, t2, e1[3], e2[3]
            c = wmul(winv(dt), ds) if a > 0 else wmul(dt, winv(ds))
            cinv = winv(c)
            moved, adj[t] = adj[t], None
            degree[s] += degree[t]
            for b, edges in moved.items():
                for e in edges:
                    if b > 0:
                        e[0] = s
                        e[3] = wmul(cinv, e[3])
                    else:
                        e[2] = s
                        e[3] = wmul(e[3], c)
                    attach(s, b, e)

        # every edge sits once under a positive letter, at its source
        self._edges = [e for at in adj if at
                       for b, edges in at.items() if b > 0 for e in edges]
        self._trans: dict[tuple[int, int], tuple[int, Word]] = {}
        for u, x, v, dec in self._edges:
            self._trans[(u, x)] = (v, dec)
            self._trans[(v, -x)] = (u, winv(dec))
        self.relators = [cyclic_reduce(self._positions(r))[0]
                         for r in relators]

    def _positions(self, symbols: Word) -> Word:
        """A word over symbols as a word over 1-based positions into gens
        (one-to-one on letters, so it stays reduced)."""
        sym = self._symbol_of
        return tuple(sym[x - 1] + 1 if x > 0 else -sym[-x - 1] - 1
                     for x in symbols)

    def trace(self, w: Word):
        """(end state, decoration product) after reading w from the base,
        or None if w leaves the graph."""
        v, decs = 0, []
        for x in w:
            step = self._trans.get((v, x))
            if step is None:
                return None
            v, d = step
            decs.append(d)
        return v, wmul(*decs)

    def states(self) -> set[int]:
        out = {0}
        for (v, _), (w, _) in self._trans.items():
            out.add(v)
            out.add(w)
        return out

    def index_in(self, letters):
        """Subgroup index in the free group on the given positive letters:
        the number of core graph states when the graph is complete over
        them, None when the index is infinite."""
        sts = self.states()
        for v in sts:
            for x in letters:
                if (v, x) not in self._trans or (v, -x) not in self._trans:
                    return None
        return len(sts)

    def express(self, w) -> Word | None:
        """w as a word over 1-based positions into gens, or None."""
        got = self.trace(tuple(w))
        if got is None or got[0] != 0:
            return None
        return self._positions(got[1])


def _remove(edges: list, e) -> None:
    """Remove e from edges by identity: decorated edges compare by value."""
    for i, f in enumerate(edges):
        if f is e:
            del edges[i]
            return
    raise AssertionError("edge not attached")


def expand_expression(expr: Word, gens) -> Word:
    """Substitute gens (freely reduced words) into an expression word and
    freely reduce: the one-word case of words.substitute_all."""
    return next(substitute_all((expr,), gens))
