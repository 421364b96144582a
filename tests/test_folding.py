import random

from hypothesis import given, settings, strategies as st

from sphmach.folding import SubgroupGraph, expand_expression
from sphmach.words import (
    SphereGroup, Automorphism, dehn_twist, reduce_word, substitute_all,
    winv, wmul, cyclic_reduce,
)


def rand_word(rng, rank, length):
    return reduce_word(
        rng.choice([i for i in range(-rank, rank + 1) if i])
        for _ in range(length))


def test_basis_case():
    expr = SubgroupGraph([(1,), (2,)]).express((1, -2, 1))
    assert expr == (1, -2, 1)


def test_index_reasons():
    squares = SubgroupGraph([(1, 1)])
    assert squares.express((1,)) is None
    assert squares.express((1, 1, 1, 1)) is not None


def test_ab_ba_example():
    gens = [(1, 2), (2, 1)]
    expr = SubgroupGraph(gens).express((1, 2, 2, 1))
    assert expr == (1, 2)
    assert expand_expression(expr, gens) == (1, 2, 2, 1)


def test_expression_round_trips_on_random_subgroups():
    rng = random.Random(0)
    for _ in range(300):
        gens = [rand_word(rng, 3, rng.randint(1, 8))
                for _ in range(rng.randint(1, 4))]
        e = reduce_word(
            rng.choice([i for i in range(-len(gens), len(gens) + 1) if i])
            for _ in range(rng.randint(0, 10)))
        target = expand_expression(e, gens)
        expr = SubgroupGraph(gens).express(target)
        assert expr is not None
        assert expand_expression(expr, gens) == target


def test_non_members_rejected():
    rng = random.Random(1)
    # index-2 subgroup: words of even total exponent
    gens = [(1, 1), (1, 2), (2, 1)]
    graph = SubgroupGraph(gens)
    for _ in range(100):
        w = rand_word(rng, 2, rng.randint(1, 9))
        exponent = sum(1 if x > 0 else -1 for x in w)
        got = graph.express(w)
        assert (got is None) == bool(exponent % 2)
        if got is not None:
            assert expand_expression(got, gens) == w


def test_index_of_core_graph():
    g = SubgroupGraph([(1, 1), (1, 2), (2, 1)])
    assert g.index_in(range(1, 3)) == 2
    assert SubgroupGraph([(1,), (2,)]).index_in(range(1, 3)) == 1
    assert SubgroupGraph([(1, 1)]).index_in(range(1, 3)) is None


def test_generators_need_not_be_free():
    # redundant generating sets still give valid expressions
    gens = [(1,), (2,), (1, 2)]
    target = (2, 2, -1)
    expr = SubgroupGraph(gens).express(target)
    assert expr is not None
    assert expand_expression(expr, gens) == target


# ---------------------------------------------------------------------------
# worklist folding against a plain Stallings fold

def plain_stallings(gens):
    """Undecorated fold: merge two targets of one (vertex, letter) until
    none clash.  Returns the transition map (vertex, signed letter) ->
    vertex of the folded graph."""
    edges, fresh = set(), 1
    for w in gens:
        u = 0
        for pos, x in enumerate(w):
            v = 0 if pos == len(w) - 1 else fresh
            fresh += v != 0
            edges.add((u, x, v) if x > 0 else (v, -x, u))
            u = v
    while True:
        seen, clash = {}, None
        for u, x, v in edges:
            for key, end in (((u, x), v), ((v, -x), u)):
                if seen.setdefault(key, end) != end:
                    clash = sorted((seen[key], end))
        if clash is None:
            break
        keep, gone = clash  # the base 0 always stays
        edges = {(keep if u == gone else u, x, keep if v == gone else v)
                 for u, x, v in edges}
    trans = {}
    for u, x, v in edges:
        trans[(u, x)] = v
        trans[(v, -x)] = u
    return trans


def plain_member(trans, w):
    v = 0
    for x in w:
        v = trans.get((v, x))
        if v is None:
            return False
    return v == 0


LETTERS2 = [1, -1, 2, -2]


def words2(max_size):
    return st.lists(st.sampled_from(LETTERS2), max_size=max_size).map(reduce_word)


@settings(max_examples=200, deadline=None)
@given(st.lists(words2(8), min_size=1, max_size=5),
       st.lists(st.integers(-5, 5).filter(bool), max_size=8),
       st.lists(words2(10), max_size=6))
def test_fold_matches_plain_stallings(gens, expr, probes):
    graph = SubgroupGraph(gens)
    trans = plain_stallings(gens)
    states = {0} | {v for v, _ in trans} | set(trans.values())
    assert len(graph.states()) == len(states)
    complete = all((v, x) in trans for v in states for x in LETTERS2)
    assert graph.index_in(range(1, 3)) == (len(states) if complete else None)
    # no two edges share a (vertex, signed letter)
    assert sum(map(len, graph._steps.values())) == 2 * len(graph._edges)
    expr = tuple(x for x in expr if abs(x) <= len(gens))
    member = expand_expression(reduce_word(expr), gens)
    for w in [member] + probes:
        got = graph.express(w)
        assert (got is not None) == plain_member(trans, w)
        if got is not None:
            assert expand_expression(got, gens) == w


@settings(max_examples=200, deadline=None)
@given(st.lists(words2(40), min_size=1, max_size=4), st.data())
def test_expand_expression_matches_reduce_word(gens, data):
    n = len(gens)
    expr = data.draw(st.lists(st.integers(-n, n).filter(bool), max_size=12))
    letters = []
    for x in expr:
        letters.extend(gens[x - 1] if x > 0 else winv(gens[-x - 1]))
    assert expand_expression(expr, gens) == reduce_word(letters)


# ---------------------------------------------------------------------------
# relators recorded by the fold

@settings(max_examples=300, deadline=None)
@given(st.lists(words2(8), max_size=6))
def test_relators_hold_and_count_the_rank_lost(gens):
    graph = SubgroupGraph(gens)
    assert all(graph.relators)
    assert not any(substitute_all(graph.relators, gens))
    edges, vertices = len(graph._edges), len(graph.states())
    assert len(graph.relators) == \
        sum(1 for w in gens if w) - (edges - vertices + 1)


F2 = SphereGroup(["a", "b", "c"])  # free on a, b: c is eliminated
TWISTS = [dehn_twist(i, j, F2) for i, j in ((1, 2), (2, 3), (1, 3))]


@settings(max_examples=300, deadline=None)
@given(st.lists(words2(8), min_size=1, max_size=6),
       st.lists(st.tuples(st.integers(0, 2), st.booleans()), max_size=4),
       st.one_of(st.none(), st.tuples(st.integers(0, 5),
                                      st.sampled_from(LETTERS2))))
def test_relator_check_matches_the_direct_check(gens, twists, perturb):
    """gens[k] -> ys[k] extends to a homomorphism of <gens> exactly when
    ys is empty wherever gens is and every relator evaluates to 1 on ys.
    The direct check applies h = (ys substituted into express), which is
    the knitting solver's psi0 restricted to <gens>, to each gens[k]."""
    psi = Automorphism.identity(F2)
    for k, inverse in twists:
        psi = psi.compose(TWISTS[k].inverse() if inverse else TWISTS[k])
    ys = list(substitute_all(gens, psi.images))
    if perturb is not None:
        k = perturb[0] % len(gens)
        ys[k] = wmul(ys[k], (perturb[1],))
    graph = SubgroupGraph(gens)
    by_relators = (not any(y for x, y in zip(gens, ys) if not x)
                   and not any(substitute_all(graph.relators, ys)))
    direct = all(expand_expression(graph.express(x), ys) == y
                 for x, y in zip(gens, ys))
    assert by_relators == direct
    if perturb is None:
        assert direct


# ---------------------------------------------------------------------------
# read-then-add insertion against the petal fold

class PetalGraph(SubgroupGraph):
    """The decorated fold that lays out every generator's petal in full
    and then folds them all off one worklist; its folded graph is the one
    SubgroupGraph reaches by reading each word before adding it."""

    def __init__(self, gens):
        self.gens = [tuple(w) for w in gens]
        nonzero = [(i, w) for i, w in enumerate(self.gens) if w]
        self._symbol_of = [i for i, _ in nonzero]
        adj, work = [{}], []

        def attach(v, a, e):
            bucket = adj[v].setdefault(a, [])
            bucket.append(e)
            if len(bucket) == 2:
                work.append((v, a))

        for k, (_, w) in enumerate(nonzero):
            u = 0
            for pos, x in enumerate(w):
                if pos == len(w) - 1:
                    v, dec = 0, ((k + 1,) if x > 0 else (-k - 1,))
                else:
                    v, dec = len(adj), ()
                    adj.append({})
                e = [u, x, v, dec] if x > 0 else [v, -x, u, dec]
                attach(e[0], e[1], e)
                attach(e[2], -e[1], e)
                u = v
        degree = [sum(map(len, a.values())) for a in adj]
        relators = []
        while work:
            p, a = work.pop()
            if adj[p] is None or len(adj[p].get(a, ())) < 2:
                continue
            bucket = adj[p][a]
            e1, e2 = bucket[0], bucket[1]
            if len(bucket) > 2:
                work.append((p, a))
            t1, t2 = (e1[2], e2[2]) if a > 0 else (e1[0], e2[0])
            for at in (bucket, adj[t2][-a]):
                del at[next(i for i, f in enumerate(at) if f is e2)]
            degree[p] -= 1
            degree[t2] -= 1
            if t1 == t2:
                relators.append(wmul(e1[3], winv(e2[3])))
                continue
            if t2 != 0 and (t1 == 0 or degree[t2] <= degree[t1]):
                t, s, dt, ds = t2, t1, e2[3], e1[3]
            else:
                t, s, dt, ds = t1, t2, e1[3], e2[3]
            c = wmul(winv(dt), ds) if a > 0 else wmul(dt, winv(ds))
            moved, adj[t] = adj[t], None
            degree[s] += degree[t]
            for b, edges in moved.items():
                for e in edges:
                    if b > 0:
                        e[0], e[3] = s, wmul(winv(c), e[3])
                    else:
                        e[2], e[3] = s, wmul(e[3], c)
                    attach(s, b, e)
        self._edges = [e for at in adj if at
                       for b, edges in at.items() if b > 0 for e in edges]
        self._steps = {}
        for u, x, v, dec in self._edges:
            self._steps.setdefault(x, {})[u] = (dec, v)
            self._steps.setdefault(-x, {})[v] = (winv(dec), u)
        self.relators = [cyclic_reduce(self._positions(r))[0]
                         for r in relators]


@st.composite
def generator_lists(draw):
    """(rank, 0-6 reduced words over 2 or 3 letters), some of them empty,
    repeated, inverted or products of earlier ones."""
    rank = draw(st.integers(2, 3))
    letters = [x for i in range(1, rank + 1) for x in (i, -i)]
    gens = draw(st.lists(st.lists(st.sampled_from(letters), max_size=8)
                         .map(reduce_word), max_size=6))
    for _ in range(draw(st.integers(0, 6 - len(gens)))):
        if not gens:
            gens.append(())
            continue
        kind = draw(st.sampled_from(["repeat", "inverse", "member"]))
        w = draw(st.sampled_from(gens))
        if kind == "repeat":
            gens.append(w)
        elif kind == "inverse":
            gens.append(winv(w))
        else:
            gens.append(wmul(w, draw(st.sampled_from(gens))))
    return rank, gens


@settings(max_examples=300, deadline=None)
@given(generator_lists(), st.data())
def test_read_then_add_matches_the_petal_fold(drawn, data):
    rank, gens = drawn
    graph, petals = SubgroupGraph(gens), PetalGraph(gens)
    assert len(graph.states()) == len(petals.states())
    letters = range(1, rank + 1)
    assert graph.index_in(letters) == petals.index_in(letters)
    signed = [x for i in letters for x in (i, -i)]
    probes = data.draw(st.lists(st.lists(st.sampled_from(signed), max_size=10)
                                .map(reduce_word), max_size=6))
    if gens:
        expr = data.draw(st.lists(st.integers(-len(gens), len(gens))
                                  .filter(bool), max_size=6))
        probes.append(expand_expression(reduce_word(expr), gens))
    for w in probes:
        got = graph.express(w)
        assert (got is None) == (petals.express(w) is None)
        if got is not None:
            assert expand_expression(got, gens) == w
    assert all(graph.relators)
    assert not any(substitute_all(graph.relators, gens))
    assert len(graph.relators) == sum(1 for w in gens if w) - (
        len(graph._edges) - len(graph.states()) + 1)
