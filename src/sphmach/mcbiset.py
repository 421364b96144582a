"""Mapping class bisets: distillations, orbit enumeration, twist rewriting.

The right action of mapping classes on a sphere machine is explored by
keying machines on their distillation (permutation tuple up to common
relabeling plus cycle labels), a complete invariant of left orbits.
Table edges record the knitting automorphism and the basis change that
witness  Psi_k * m  =  knitting * Psi_next.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from . import perms
from .perms import Perm
from .words import (
    SphereGroup, Automorphism,
    winv, wmul, walk, reduce_word, substitute_all,
    outer_normal_images, inner_conjugator, is_peripheral_preserving,
    dehn_twist, _fingerprint,
)
from .machine import (
    SphereMachine, WreathElement, BasisChange, change_basis, pre_compose,
    normalize_basis, tree_words, validate_sphere, cycle_labels, MachineError,
    _elided, _quoted,
)
from .folding import SubgroupGraph


class ReconstructionError(MachineError):
    """Distillations matched but no knitting automorphism could be built."""


class Distillation:
    """Permutations of a machine together with the conjugacy classes of the
    entry products along each cycle, canonicalized under simultaneous
    relabeling of the basis.

    The key is the least encoding over the breadth-first numberings from
    every start, and numberings holds every numbering that attains it, in
    the order of the starts.  The numberings are built in lockstep and a
    start is dropped, its numbering with it, at the first entry of its
    relabelled first permutation above the least live one (_canonicalize
    says why that is exact)."""

    def __init__(self, machine: SphereMachine):
        self.degree = machine.degree
        self.perm_tuple: tuple[Perm, ...] = tuple(machine.monodromy_perms())
        # (generator, cycle, label), keyed once
        keyed_cycles = [(i, cyc, label)
                        for i, row in enumerate(machine.rows, 1)
                        for cyc, label, _ in cycle_labels(row, machine.target)]
        self.key, self.numberings = self._canonicalize(keyed_cycles)

    def _canonicalize(self, keyed_cycles):
        """The least (relabelled permutations, sorted cycle labels) over
        the breadth-first numberings from every start, with every
        numbering that attains it, in the order of the starts.

        The walks from all d starts advance together, one round per
        point.  A walk numbers the points in the order reached, so its
        i-th point p has number i.  In round i each live walk first takes
        p's first-generator edge, to q = g0[p].  Then q is numbered
        (earlier, or by this edge), so num[q] is final: it is entry i of
        the walk's relabelled first permutation.  The key compares that
        permutation before anything else, entry by entry.

        The pruning is exact.  The live walks are those whose entries
        0..i-1 equal those of the least first permutation over all
        starts, so the least of their entries i is that permutation's
        entry i.  A live walk with a larger entry i can neither attain
        nor tie the least key, and it is dropped with its numbering.
        Only the walks at the least entry stay live and take p's other
        edges.  So each walk goes exactly as far as it ties with the
        least first permutation, whatever the order of the starts.

        After round d - 1 the live walks tie on the whole first
        permutation; they are compared on all permutations, then on the
        cycle labels, in the order of the starts.  The live set is never
        empty, so on an intransitive machine a live walk runs out of
        points before round d.  With no generator there is no first
        permutation: every start stays live and reaches itself alone.
        """
        gens = self.perm_tuple
        d = self.degree
        first = gens[0] if gens else None
        rest = gens[1:]
        # each live start's points in the order reached, and its numbering
        # (-1 where not reached yet)
        live = []
        for start in range(d):
            num = [-1] * d
            num[start] = 0
            live.append(([start], num))
        for i in range(d):
            if any(len(order) == i for order, _ in live):
                raise MachineError("distillation requires a transitive machine")
            if first is not None:
                entries = []
                for order, num in live:
                    q = first[order[i]]
                    if num[q] < 0:
                        num[q] = len(order)
                        order.append(q)
                    entries.append(num[q])
                least = min(entries)
                live = [state for state, e in zip(live, entries)
                        if e == least]
            for order, num in live:
                p = order[i]
                for g in rest:
                    q = g[p]
                    if num[q] < 0:
                        num[q] = len(order)
                        order.append(q)
        best = None
        maps = []
        for order, num in live:
            at = num.__getitem__
            new_perms = tuple(tuple(map(at, map(pi.__getitem__, order)))
                              for pi in gens)
            if best is not None and new_perms > best[0]:
                continue
            enc = (new_perms, tuple(sorted(
                ((i, min(map(at, cyc))), key)
                for i, cyc, key in keyed_cycles)))
            if best is None or enc < best:
                best, maps = enc, [tuple(num)]
            elif enc == best:
                maps.append(tuple(num))
        return best, maps


def distill(M: SphereMachine) -> Distillation:
    return Distillation(M)


def _candidate_relabelings(d1: Distillation, d2: Distillation):
    """Relabelings old1 -> old2 carrying the permutation tuple of d1 to d2,
    derived from the canonical numberings; d1 and d2 must have one key.

    The first numbering of d1 suffices: the canonical numberings of one
    machine differ by its automorphisms, so pairing it with every
    numbering of d2 already meets each relabeling, once.  Each pair
    works: equal keys give num1 . pi1 . num1^-1 = num2 . pi2 . num2^-1
    for every generator, so sigma = num2^-1 . num1 conjugates pi1 to pi2
    exactly, and nothing is left to check.
    """
    num1 = d1.numberings[0]
    return [tuple(inv2[x] for x in num1)
            for inv2 in map(perms.inverse, d2.numberings)]


class _KnitSolver:
    """Solves  M2 = change_basis(post_compose(M1, psi), b)  for psi and b,
    with the M1-dependent part precomputed so one machine can be matched
    against many candidates cheaply.  It serves the biset build
    (compute_mcbiset), same_left_orbit, and machine_isomorphism, which is
    the case of an inner knitting; each passes in both distillations.

    Writing the unknown conjugator at point p as  psi(alpha_p) * beta_p,
    alpha the inverted tree words of M1 and beta those of M2 through the
    relabeling (tree_words, on one spanning tree of M1's action graph),
    turns back edge k into an exact constraint psi(x_k) = y_k on the loop
    words; the x_k depend on M1 alone and generate the target.  Folding the
    x_k pins psi0 := psi (up to the outer normalisation) through the
    expressions of all n target generators, letter k of each standing
    for x_k, and yields relators among the x_k (SubgroupGraph.relators).
    A candidate relabeling gives the y_k; it solves the whole system
    exactly when y_k is empty wherever x_k is, and every relator
    evaluates to 1 on the y_k, which makes psi0 a homomorphism.  So
    psi0 is never applied to the x_k: the relators are far shorter than
    those images.
    """

    def __init__(self, M1: SphereMachine, d1: Distillation):
        self.M1 = M1
        self.d1 = d1
        # edges (point, row, next) of the breadth-first walk
        self.tree, self.back = perms.spanning_tree(M1.monodromy_perms())
        ell, xs = tree_words(self.tree, self.back, M1.degree,
                             lambda r, p: M1.rows[r].entries[p])
        self.alpha = list(map(winv, ell))
        self.empty_backs = [k for k, x in enumerate(xs) if not x]
        graph = SubgroupGraph(xs)
        self.relators = graph.relators
        self.exprs = [graph.express(g) for g in M1.target.gens]
        if None in self.exprs:
            raise ReconstructionError(
                "loop words of the machine do not generate the target group")

    def matches(self, M2: SphereMachine, d2: Distillation):
        """Yield (knit, b) for every candidate relabeling that solves the
        system, in the order of _candidate_relabelings.  d2 is M2's
        distillation and must have the key of M1's."""
        M1 = self.M1
        d = M1.degree
        for sigma in _candidate_relabelings(self.d1, d2):
            beta, ys = tree_words(self.tree, self.back, d,
                                  lambda r, p: M2.rows[r].entries[sigma[p]])
            # psi0(x_k) == y_k for every k, checked exactly on the relators
            if any(ys[k] for k in self.empty_backs) or \
                    any(substitute_all(self.relators, ys)):
                continue
            images, g = outer_normal_images(
                list(substitute_all(self.exprs, ys)))
            knit = Automorphism(M1.target, images)
            rho = perms.inverse(sigma)
            ginv = winv(g)
            lam = [wmul(a, ginv, b)
                   for a, b in zip(substitute_all(self.alpha, images), beta)]
            yield knit, BasisChange(tuple(lam[rho[i]] for i in range(d)), rho)

    def solve(self, M2: SphereMachine, d2: Distillation):
        """The first match of M2, whose distillation d2 has M1's key; a
        ReconstructionError when there is none."""
        for got in self.matches(M2, d2):
            return got
        raise ReconstructionError(
            "matching distillations but no knitting automorphism found")


def _distillations(M1: SphereMachine, M2: SphereMachine):
    """(distill(M1), distill(M2)) when the machines have one source,
    target, degree and distillation key, as a knitting solve needs; else
    None, with nothing distilled where the groups or degrees differ."""
    if (M1.source, M1.target, M1.degree) != (M2.source, M2.target, M2.degree):
        return None
    d1, d2 = distill(M1), distill(M2)
    return (d1, d2) if d1.key == d2.key else None


def same_left_orbit(M1: SphereMachine, M2: SphereMachine):
    """An automorphism m' with M2 isomorphic to m' . M1 (i.e. post_compose
    (M1, m') and M2 differ by a basis change), or None."""
    ds = _distillations(M1, M2)
    if ds is None:
        return None
    psi = _KnitSolver(M1, ds[0]).solve(M2, ds[1])[0]
    if not is_peripheral_preserving(psi):
        raise ReconstructionError(
            "knitting automorphism is not peripheral-preserving")
    return psi


def machine_isomorphism(Ma: SphereMachine, Mb: SphereMachine) -> BasisChange | None:
    """A BasisChange b with change_basis(Ma, b) == Mb, if one exists.

    This is the knitting solve with an inner knitting.  Each relabeling
    pins its knitting up to an inner automorphism, and the knittings
    _KnitSolver yields are outer-normalised, so a match is a basis change
    exactly when its knitting is the identity map (see outer_normal_images).

    Ma must be a sphere machine, whose loop words generate the target;
    otherwise ReconstructionError is raised.
    """
    ds = _distillations(Ma, Mb)
    if ds is None:
        return None
    for knit, b in _KnitSolver(Ma, ds[0]).matches(Mb, ds[1]):
        if not knit.is_identity_map():
            continue
        if change_basis(Ma, b) != Mb:
            raise ReconstructionError(
                "identity knitting found but its basis change does not map "
                "the machines")
        return b
    return None


# ---------------------------------------------------------------------------
# twist words and the mapping class biset table

TwistWord = tuple[int, ...]  # signed 1-based indices into the twist alphabet


@dataclass
class TableEdge:
    gen: str
    source: int
    target: int
    knitting_auto: Automorphism | None = None
    knitting_word: TwistWord | None = None
    basis_change: BasisChange | None = None


@dataclass
class MappingClassBiset:
    """Basis of machines (or bare basis names) with the right-action table
    Psi_k * m = knitting * Psi_next.  Building it checks, once, that the
    table is closed: each generator of the alphabet permutes the basis.

    The same pass builds the step table that rewrite walks (words.walk):
    for each signed letter +-i and basis element k, the twist word of the
    step and the element it leads to.  A backward letter -i at k steps
    back along generator i's edge into k, whose knitting is inverted
    once, here; an edge with no twist-word knitting is left out.  The
    table is read at construction, so the edges are fixed from then on."""

    alphabet: tuple[str, ...]
    basis_names: tuple[str, ...]
    table: dict[tuple[str, int], TableEdge]
    machines: list[SphereMachine] | None = None
    gens: dict[str, Automorphism] = field(default_factory=dict)
    base: int = 0

    def __post_init__(self):
        # by signed letter, then basis element: (step word, next element)
        steps: dict[int, dict[int, tuple[TwistWord, int]]] = {}
        for i, gen in enumerate(self.alphabet, 1):
            forward, back = steps[i], steps[-i] = {}, {}
            into: set[int] = set()
            for k, name in enumerate(self.basis_names):
                edge = self.table.get((gen, k))
                if edge is None:
                    raise MachineError(f"generator {_quoted(gen)} has no edge "
                                       f"from basis element {_quoted(name)}")
                if edge.target not in range(self.size):
                    raise MachineError(
                        f"generator {_quoted(gen)} has an edge from basis "
                        f"element {_quoted(name)} out of the basis")
                if edge.target in into:
                    raise MachineError(
                        f"generator {_quoted(gen)} has two edges into basis "
                        f"element {_quoted(self.basis_names[edge.target])}")
                into.add(edge.target)
                w = edge.knitting_word
                if w is not None:
                    forward[k] = (w, edge.target)
                    back[edge.target] = (winv(w), k)
        self._steps = steps

    @property
    def size(self) -> int:
        return len(self.basis_names)

    def action_perm(self, gen: str) -> Perm:
        if gen not in self.alphabet:
            raise MachineError(f"generator {_quoted(gen)} is not in the alphabet")
        return tuple(self.table[(gen, k)].target for k in range(self.size))


def _shortened(M: SphereMachine, moves) -> SphereMachine | None:
    """post_compose(M, m) for the product m of moves chosen greedily:
    while some move strictly lowers the total entry letters, the one
    that lowers them most (the first of a tie).  Where none does, one
    step further: after the move with the least total (the first of a
    tie), each move but its inverse, and the first pair with the least
    total if that is strictly lower.  None when neither step lowers it.

    moves: (automorphism, table) pairs, in pairs (t, t^-1), so move j's
    inverse is move j ^ 1, and a move followed by it is the identity;
    the table a dict from an entry word to its image under the move,
    which the caller keeps for as long as it likes.  Each candidate is
    scored on the flat entry list alone: post_compose keeps the
    permutations and keeps empty entries empty, so a machine normalised
    by normalize_basis stays normalised, and one machine is built at the
    end.  A candidate's total starts from the images its table holds;
    only the words the table lacks go through the move, in one lazy
    batch, so a word met again, in this machine or in an earlier one, is
    never mapped twice.  A candidate stops at the first word that brings
    its total to the least so far (the stall's, in the lookahead): it
    cannot win, and its words not yet mapped stay out of the table.  The
    batch goes to substitute_all directly: machine entries and
    automorphism images are in normal form, and so is the reduced
    product of normal forms.
    """
    def least(words, js, bound):
        """(letters, j) for the first move j of js whose images of the
        words total the fewest letters, fewer than bound; (bound, None)
        when none does."""
        counts = Counter(words)
        best = None
        for j in js:
            m, table = moves[j]
            letters = sum(len(table[w]) * c for w, c in counts.items()
                          if w in table)
            missing = [w for w in counts if w not in table]
            for w, image in zip(missing, substitute_all(missing, m.images)):
                table[w] = image
                letters += len(image) * counts[w]
                if letters >= bound:
                    break
            if letters < bound:
                bound, best = letters, j
        return bound, best

    if not moves:
        return None
    entries = start = [e for row in M.rows for e in row.entries]
    size = sum(map(len, entries))
    every = range(len(moves))
    while True:
        letters, j = least(entries, every, float("inf"))
        step = list(map(moves[j][1].__getitem__, entries))
        if letters >= size:
            # a stall: one step further from the best move, but not back
            letters, j = least(step, (i for i in every if i != j ^ 1), size)
            if j is None:
                break
            step = list(map(moves[j][1].__getitem__, step))
        size, entries = letters, step
    if entries is start:
        return None
    it = iter(entries)
    return SphereMachine(M.source, M.target,
                         [WreathElement(tuple(next(it) for _ in row.entries),
                                        row.perm)
                          for row in M.rows])


def compute_mcbiset(M: SphereMachine, gens) -> MappingClassBiset:
    """Saturate the basis under the right action of the given peripheral-
    preserving automorphisms, keying left orbits by distillation.

    gens: list of (name, Automorphism) pairs, with distinct names.

    A generator g that is outer-equal to the identity or to an earlier
    generator g0, g(x) = h * g0(x) * h^-1, needs no solve: its edges are
    written down in closed form from g0's (g0 the first such, and h from
    inner_conjugator(g . g0^-1)).  The rows of pre_compose(M_k, g) are
    W * pre_compose(M_k, g0)(x) * W^-1 with W = M_k.evaluate(h), and
    conjugating a row by W is change_basis with the relabel W.perm and
    the conjugators W.entries inverted (point i of the new basis is old
    point W.perm[i] under W.entries[i]^-1).  So g's edge from k keeps the
    target and the knitting of g0's, and its basis change is g0's
    followed by that one (BasisChange.then).  With g0 the identity, whose
    edge goes k -> k with the identity knitting and basis change, g is
    inner and its edge is the solve's own answer: for one relabel, a
    knitting pins the basis change up to the centraliser of the loop
    words, which is trivial as they generate a centreless free group,
    and the solve's knittings are outer-normalised, so an inner one is
    the identity map; the relabel is unique where the distillation has
    one numbering.  Otherwise the knitting is g0's, which is outer-equal
    to the solve's where the relabels agree; outer normalisation may pick
    another member of a tie.  Every other generator goes through
    pre_compose, distill and the knitting solve.

    A new left orbit is stored by a short representative: N =
    pre_compose(M_k, g) goes through normalize_basis, which leaves the
    loop words (tree_words) as its only entries, and then through
    _shortened with the non-inner twists t_ij^+-1 of the target as
    moves.  Every post_compose(N, m), m a mapping class, lies in N's
    left orbit, and the distillation key shows it: post_compose keeps
    the permutations, and a pure mapping class keeps each peripheral
    class, so each cycle label, trivial or peripheral in a sphere
    machine, stays as it is.  So the shortened machine keeps N's key
    and its distillation.  Where no move shortened it, the edge from k
    is the basis change of normalize_basis with the identity knitting;
    otherwise the edge is solved like any other.  The shortening keeps
    the entries, and with them the knittings, from growing with the
    depth of the breadth-first search.  Where no single move shortens,
    the greedy looks one move further, so a local minimum of one move is
    left by a pair.  Each move keeps, for this one build, a table from an
    entry word to its image, read by both steps, so a word met in several
    new orbits, or again after the lookahead, is mapped by each move once.
    """
    gens = list(gens)
    names = [name for name, _ in gens]
    if len(set(names)) < len(names):
        twice = next(name for name in names if names.count(name) > 1)
        raise MachineError(f"generator {_elided(twice, str)} is given twice")
    for name, g in gens:
        if not is_peripheral_preserving(g):
            raise MachineError(f"generator {_elided(name, str)} is not "
                               "peripheral-preserving")
    rep = validate_sphere(M)
    if not rep.is_sphere_biset:
        raise MachineError("input machine is not a sphere machine: "
                           + "; ".join(rep.details))
    identity = Automorphism.identity(M.target)
    # g0 for each generator: the first partner, None the identity, with h
    partners = [(None, Automorphism.identity(M.source))] + gens
    split = []
    for i, (name, g) in enumerate(gens):
        for g0, a in partners[:i + 1]:
            h = inner_conjugator(g.compose(a.inverse()))
            if h is not None:
                break
        split.append((name, g, g0, h))
    # each move with its table of entry images, for this build, in pairs
    # (t, t^-1) as _shortened expects
    moves = [(m, {}) for _, t in full_twist_generators(M.target)
             if inner_conjugator(t) is None for m in (t, t.inverse())]
    basis = [M]
    dists = [distill(M)]
    solvers: list[_KnitSolver | None] = [None]
    index = {dists[0].key: 0}
    table: dict[tuple[str, int], TableEdge] = {}
    k = 0
    while k < len(basis):
        for name, g, g0, h in split:
            if h is not None:
                # g0's edge from k; the identity map's goes k -> k
                e0 = table[(g0, k)] if g0 is not None else TableEdge(
                    "", k, k, knitting_auto=identity,
                    basis_change=BasisChange.identity(M.degree))
                W = basis[k].evaluate(h)
                table[(name, k)] = TableEdge(
                    name, k, e0.target, knitting_auto=e0.knitting_auto,
                    basis_change=e0.basis_change.then(BasisChange(
                        tuple(map(winv, W.entries)), W.perm)))
                continue
            N = pre_compose(basis[k], g)
            dN = distill(N)
            hit = index.get(dN.key)
            if hit is None:
                norm, bc = normalize_basis(N)
                short = _shortened(norm, moves)
                basis.append(short or norm)
                # conjugating the basis and post-composing with a pure
                # mapping class keep the permutations and the cycle
                # labels, so dN serves the stored machine as well
                dists.append(dN)
                solvers.append(None)
                hit = len(basis) - 1
                index[dN.key] = hit
                if short is None:
                    table[(name, k)] = TableEdge(
                        name, k, hit,
                        knitting_auto=identity, basis_change=bc.inv())
                    continue
            if solvers[hit] is None:
                solvers[hit] = _KnitSolver(basis[hit], dists[hit])
            phi, b = solvers[hit].solve(N, dN)
            table[(name, k)] = TableEdge(
                name, k, hit, knitting_auto=phi, basis_change=b)
        k += 1
    return MappingClassBiset(
        alphabet=tuple(names),
        basis_names=tuple(f"b{i}" for i in range(len(basis))),
        table=table,
        machines=basis,
        gens=dict(gens),
    )


def full_twist_generators(G: SphereGroup):
    """All twists t_{i,j}, 1 <= i < j <= n, named by relator positions."""
    return [(f"t{i}_{j}", dehn_twist(i, j, G))
            for i in range(1, G.n + 1) for j in range(i + 1, G.n + 1)]


def _check_basis_index(mcb: MappingClassBiset, k: int) -> None:
    if not 0 <= k < mcb.size:
        raise MachineError(f"basis index {k} is outside 0..{mcb.size - 1}")


def rewrite(mcb: MappingClassBiset, k: int, m: TwistWord):
    """Push a twist word through the recursion: Psi_k * m = m' * Psi_k'.

    Returns (m', k') from one walk of the reduced word through the
    biset's step table (see MappingClassBiset), linear in the letters
    read and written.  Every step met must carry a twist-word knitting.
    """
    _check_basis_index(mcb, k)
    return _rewrite_reduced(mcb, k, reduce_word(m))


def _rewrite_reduced(mcb: MappingClassBiset, k: int, m: TwistWord):
    """rewrite of the reduced word m at the checked basis index k."""
    try:
        (out,), (k,) = walk(mcb._steps, (k,), m)
    except KeyError as exc:
        k, x = exc.args
        if x not in mcb._steps:
            raise MachineError(
                f"twist letter {x} is outside the alphabet of "
                f"{len(mcb.alphabet)} generators") from None
        gen = mcb.alphabet[abs(x) - 1]
        source = k if x > 0 else mcb.action_perm(gen).index(k)
        raise MachineError(
            f"edge ({_elided(gen, str)}, {_elided(mcb.basis_names[source], str)})"
            " has no twist-word knitting") from None
    return out, k


@dataclass
class Terminal:
    kind: str                       # "fixed" | "cycle" | "max-steps"
    states: list[tuple[TwistWord, int]]
    steps: int


def conjugacy_iterate(mcb: MappingClassBiset, start, max_steps: int = 10_000) -> Terminal:
    """Iterate the conjugation move m*b ~ b*m followed by rewriting until
    the twist word empties or a previously seen state recurs.

    A cycle's states are listed from its least state under the key
    (len(word), word, basis index), so every start that ends in the same
    cycle reports it alike.  Each step is one rewrite of the word the
    last one returned, which is reduced, so only the start is reduced; a
    step met without a twist-word knitting raises the MachineError that
    names its edge.  The empty word is fixed at any basis index of the
    biset."""
    w, k = reduce_word(start[0]), start[1]
    _check_basis_index(mcb, k)
    trace = [(w, k)]
    seen = {(w, k): 0}
    step = 0
    while w:
        if step == max_steps:
            return Terminal("max-steps", [trace[-1]], max_steps)
        w, k = _rewrite_reduced(mcb, k, w)
        step += 1
        state = (w, k)
        if state in seen:
            cycle = trace[seen[state]:]
            i = cycle.index(min(cycle, key=lambda s: (len(s[0]), s)))
            return Terminal("cycle", cycle[i:] + cycle[:i], step)
        seen[state] = len(trace)
        trace.append(state)
    return Terminal("fixed", [(w, k)], step)


# ---------------------------------------------------------------------------
# monodromy and correspondence invariants

@dataclass
class PermGroupReport:
    degree: int
    generators: list[Perm]
    order: int
    transitive: bool


def monodromy(M: SphereMachine) -> PermGroupReport:
    gens = M.monodromy_perms()
    return PermGroupReport(
        degree=M.degree,
        generators=gens,
        order=perms.group_order(gens, M.degree),
        transitive=perms.is_transitive(gens, M.degree),
    )


@dataclass
class CorrespondenceInvariants:
    sheets: int
    punctures: int
    euler_characteristic: int  # of the punctured covering surface
    genus: int


def correspondence_invariants(action: list[Perm]) -> CorrespondenceInvariants:
    """Topology of the covering of the thrice-punctured sphere given by
    three permutations with trivial product."""
    if len(action) != 3:
        raise MachineError("expected an action of three permutations")
    n = len(action[0])
    prod = perms.compose(perms.compose(action[0], action[1]), action[2])
    if not perms.is_identity(prod):
        raise MachineError("product of the three permutations is not trivial")
    if not perms.is_transitive(list(action), n):
        raise MachineError("covering surface is not connected")
    punctures = sum(len(perms.cycles(g)) for g in action)
    chi_open = -n
    chi_closed = chi_open + punctures
    # 2 - chi_closed is even: signs multiply to 1, so 3n - punctures is even
    return CorrespondenceInvariants(n, punctures, chi_open, (2 - chi_closed) // 2)


# ---------------------------------------------------------------------------
# lift multisets over the acting group

def twist_fingerprint(psi: Automorphism):
    """A conjugation-invariant additive fingerprint of a peripheral-
    preserving automorphism: exponent sums of the per-generator
    conjugators, with the relator generator's row subtracted to kill
    the inner ambiguity.

    psi(g_i) = g_i^{z_i} composes as z_i(pq) = z_i(p) * p(z_i(q)), and
    peripheral-preserving maps fix exponent sums, so each matrix entry
    is a homomorphism to Z; conjugate automorphisms get canonically
    equal fingerprints.  The matrix is returned flat, row by row, and the
    shift that normalises it is linear, so the fingerprint of p.compose(q)
    is the elementwise sum of those of p and q.  None if psi is not
    peripheral-preserving; () for n <= 2.

    The value is kept on psi by the one peripheral pass (words._fingerprint),
    which is_peripheral_preserving reads too; the edges of a loaded biset
    that share a knitting share its automorphism (machfile.mcb_from_json),
    and with it the fingerprint.
    """
    return _fingerprint(psi)


def twist_power_label(fp, gen_fps):
    """Label a fingerprint as a power of a named generator: ("1", 0) for
    the zero fingerprint, else (name, k) for the first (name, g) of
    gen_fps with fp == k*g for an integer k >= 1, else None."""
    if fp is None:
        return None
    if not any(fp):
        return ("1", 0)
    for name, g in gen_fps:
        j = next((j for j, x in enumerate(g) if x), None)
        if j is None:
            continue
        k, r = divmod(fp[j], g[j])
        if r == 0 and k >= 1 and fp == tuple(k * x for x in g):
            return (name, k)
    return None


@dataclass
class McbLiftEntry:
    degree: int
    label: tuple[str, int] | None   # (generator name, power) when identified


def lift_multiset_in_mcbiset(mcb: MappingClassBiset, gen: str) -> list[McbLiftEntry]:
    """Degrees and knitting classes of the cycles of one generator's right
    action on the basis, like multiset_of_lifts on the recursion itself.

    A cycle's knitting is the composite of its edges' knitting
    automorphisms.  The fingerprint of a composite is the sum of its
    factors' fingerprints (see twist_fingerprint), so each cycle is
    labelled by twist_power_label on that sum against the biset's own
    generators, and nothing is composed; unidentified cycles keep label
    None.  Fingerprints are kept on the automorphisms, so over all its
    calls a biset is fingerprinted once per generator and once per
    distinct knitting automorphism: a loaded biset holds one per
    distinct knitting (machfile.mcb_from_json).
    """
    gen_fps = []
    for name, a in mcb.gens.items():
        fp = twist_fingerprint(a)
        if fp is None:
            raise MachineError(f"generator {_elided(name, str)} is not "
                               "peripheral-preserving")
        gen_fps.append((name, fp))
    out = []
    for cyc in perms.cycles(mcb.action_perm(gen)):
        fps = []
        for p in cyc:
            edge = mcb.table[(gen, p)]
            if edge.knitting_auto is None:
                raise MachineError(
                    f"edge ({_elided(gen, str)}, "
                    f"{_elided(mcb.basis_names[p], str)}) has no knitting "
                    "automorphism")
            fps.append(twist_fingerprint(edge.knitting_auto))
        fp = None if None in fps else tuple(map(sum, zip(*fps)))
        out.append(McbLiftEntry(len(cyc), twist_power_label(fp, gen_fps)))
    return out
