"""Mapping class bisets: distillations, orbit enumeration, twist rewriting.

The right action of mapping classes on a sphere machine is explored by
keying machines on their distillation (permutation tuple up to common
relabeling plus cycle labels), a complete invariant of left orbits.
Table edges record the knitting automorphism and the basis change that
witness  Psi_k * m  =  knitting * Psi_next.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import perms
from .perms import Perm
from .words import (
    Word, EPSILON, SphereGroup, ConjClass, Automorphism,
    winv, wmul, reduce_word, substitute_all, outer_normalize,
    is_conjugate, is_peripheral_preserving, dehn_twist,
)
from .machine import (
    SphereMachine, BasisChange, change_basis, pre_compose,
    normalize_basis, validate_sphere, cycle_classes, MachineError,
)
from .folding import SubgroupGraph


class ReconstructionError(MachineError):
    """Distillations matched but no knitting automorphism could be built."""


def _label_key(cls: ConjClass):
    if cls.is_trivial():
        return (0,)
    p = cls.peripheral_index()
    if p is not None:
        return (1, p)
    return (2, cls.canonical)


class Distillation:
    """Permutations of a machine together with the conjugacy classes of the
    entry products along each cycle, canonicalized under simultaneous
    relabeling of the basis."""

    def __init__(self, machine: SphereMachine):
        self.degree = machine.degree
        self.perm_tuple: tuple[Perm, ...] = tuple(machine.monodromy_perms())
        # (generator, cycle, label key), keyed once
        keyed_cycles = [(i, cyc, _label_key(cls))
                        for i, row in enumerate(machine.rows, 1)
                        for cyc, cls in cycle_classes(row, machine.target)]
        self.key, self.numberings = self._canonicalize(keyed_cycles)

    def _canonicalize(self, keyed_cycles):
        """The least (relabelled permutations, sorted cycle labels) over
        the breadth-first numberings from every start, with every
        numbering that attains it.  Labels only break ties, so a start
        whose permutations already exceed the best builds none.

        A start is dropped as soon as it provably loses.  Its walk numbers
        the points in the order reached, so the i-th point p has number
        i, and the first edge walked out of p is the first generator's,
        to q = g0[p].  Then q is numbered already (earlier, or by this
        edge), so num[q] is final: it is entry i of the relabelled first
        permutation, and the entries come in the order i = 0, 1, ...  The
        key compares that permutation before anything else.  So while
        entries 0..i-1 tie with the best key's, a larger entry i means
        the start can neither win nor tie, and its walk stops; once an
        entry is smaller, no entry is compared again.  A start that ties
        on the whole first permutation is compared in full.  The first
        start walks to the end, so an intransitive machine is caught.
        """
        gens = self.perm_tuple
        d = self.degree
        best = None
        maps = []
        for start in range(d):
            num = [0] * d
            order = [start]
            first = best[0][0] if best is not None else None
            lost = False
            for p, r, q, new in perms.breadth_first(gens, start):
                if new:
                    num[q] = len(order)
                    order.append(q)
                if r == 0 and first is not None:
                    entry, least = num[q], first[num[p]]
                    if entry > least:
                        lost = True
                        break
                    if entry < least:
                        first = None
            if lost:
                continue
            if len(order) < d:
                raise MachineError("distillation requires a transitive machine")
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
    the case of an inner knitting.

    Writing the unknown conjugator at point p as  psi(alpha_p) * beta_p
    along a spanning tree of M1's action graph turns every non-tree edge
    k into an exact constraint  psi(x_k) = y_k, where the back-edge words
    x_k depend on M1 alone and generate the target group.  Folding the
    x_k pins psi0 := psi (up to the outer normalisation) through the
    expressions of the free generators, and yields relators among the
    x_k (SubgroupGraph.relators).  A candidate relabeling gives the y_k;
    it solves the whole system exactly when y_k is empty wherever x_k
    is, and every relator evaluates to 1 on the y_k.  So psi0 is never
    applied to the x_k: the relators are far shorter than those images.
    """

    def __init__(self, M1: SphereMachine, d1: Distillation | None = None):
        self.M1 = M1
        self.d1 = d1 or distill(M1)
        # edges (point, row, next) of the breadth-first walk
        tree, back = perms.spanning_tree(M1.monodromy_perms())
        alpha: list[Word] = [EPSILON] * M1.degree
        for p, r, q in tree:
            alpha[q] = wmul(winv(M1.rows[r].entries[p]), alpha[p])
        self.alpha = alpha
        self.tree = tree
        self.back = back
        xs = [wmul(winv(alpha[p]), M1.rows[r].entries[p], alpha[q])
              for p, r, q in back]
        self.empty_backs = [k for k, x in enumerate(xs) if not x]
        graph = SubgroupGraph(xs)
        self.relators = graph.relators
        self.exprs = []
        for g in M1.target.free_gen_indices():
            expr = graph.express(M1.target.gen(g))
            if expr is None:
                raise ReconstructionError(
                    "loop words of the machine do not generate the target group")
            self.exprs.append(expr)

    def matches(self, M2: SphereMachine, d2: Distillation):
        """Yield (knit, b) for every candidate relabeling that solves the
        system, in the order of _candidate_relabelings.  d2 is M2's
        distillation and must have the key of M1's."""
        M1 = self.M1
        d = M1.degree
        for sigma in _candidate_relabelings(self.d1, d2):
            beta: list[Word | None] = [None] * d
            beta[0] = EPSILON
            for p, r, q in self.tree:
                beta[q] = wmul(beta[p], M2.rows[r].entries[sigma[p]])
            ys = [wmul(beta[p], M2.rows[r].entries[sigma[p]], winv(beta[q]))
                  for p, r, q in self.back]
            # psi0(x_k) == y_k for every k, checked exactly on the relators
            if any(ys[k] for k in self.empty_backs) or \
                    any(substitute_all(self.relators, ys)):
                continue
            images = list(substitute_all(self.exprs, ys))
            psi0 = Automorphism.from_images_of_free_gens(M1.target, images)
            knit, g = outer_normalize(psi0, return_conjugator=True)
            rho = perms.inverse(sigma)
            ginv = winv(g)
            lam = [wmul(a, ginv, b)
                   for a, b in zip(knit.apply_all(self.alpha), beta)]
            yield knit, BasisChange(tuple(lam[rho[i]] for i in range(d)), rho)

    def solve(self, M2: SphereMachine, d2: Distillation | None = None):
        """The first match of M2, or None when the distillations differ."""
        d2 = d2 or distill(M2)
        if self.d1.key != d2.key:
            return None
        for got in self.matches(M2, d2):
            return got
        raise ReconstructionError(
            "matching distillations but no knitting automorphism found")


def _comparable(M1: SphereMachine, M2: SphereMachine) -> bool:
    """One source, target and degree: the machines a knitting solve takes."""
    return (M1.source, M1.target, M1.degree) == (M2.source, M2.target, M2.degree)


def same_left_orbit(M1: SphereMachine, M2: SphereMachine):
    """An automorphism m' with M2 isomorphic to m' . M1 (i.e. post_compose
    (M1, m') and M2 differ by a basis change), or None."""
    if not _comparable(M1, M2):
        return None
    got = _KnitSolver(M1).solve(M2)
    if got is None:
        return None
    psi = got[0]
    if not is_peripheral_preserving(psi):
        raise ReconstructionError(
            "knitting automorphism is not peripheral-preserving")
    return psi


def machine_isomorphism(Ma: SphereMachine, Mb: SphereMachine) -> BasisChange | None:
    """A BasisChange b with change_basis(Ma, b) == Mb, if one exists.

    This is the knitting solve with an inner knitting.  Each relabeling
    pins its knitting up to an inner automorphism, and the knittings
    _KnitSolver yields are outer-normalised, so a match is a basis change
    exactly when its knitting is the identity map (see outer_normalize).

    Ma must be a sphere machine, whose loop words generate the target;
    otherwise ReconstructionError is raised.
    """
    if not _comparable(Ma, Mb):
        return None
    da, db = distill(Ma), distill(Mb)
    if da.key != db.key:
        return None
    for knit, b in _KnitSolver(Ma, da).matches(Mb, db):
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
    Psi_k * m = knitting * Psi_next."""

    alphabet: tuple[str, ...]
    basis_names: tuple[str, ...]
    table: dict[tuple[str, int], TableEdge]
    machines: list[SphereMachine] | None = None
    gens: dict[str, Automorphism] = field(default_factory=dict)
    base: int = 0

    @property
    def size(self) -> int:
        return len(self.basis_names)

    def action_perm(self, gen: str) -> Perm:
        img = [-1] * self.size
        for k in range(self.size):
            edge = self.table.get((gen, k))
            if edge is None:
                raise MachineError(f"table not closed at ({gen}, {k})")
            img[k] = edge.target
        if sorted(img) != list(range(self.size)):
            raise MachineError(f"action of {gen} is not a bijection on the basis")
        return tuple(img)

    def edge_into(self, gen: str, target: int) -> TableEdge:
        for k in range(self.size):
            e = self.table[(gen, k)]
            if e.target == target:
                return e
        raise MachineError(f"no {gen}-edge into basis element {target}")

    def word_knittings(self) -> bool:
        return all(e.knitting_word is not None for e in self.table.values())


def compute_mcbiset(M: SphereMachine, gens) -> MappingClassBiset:
    """Saturate the basis under the right action of the given peripheral-
    preserving automorphisms, keying left orbits by distillation.

    gens: list of (name, Automorphism) pairs.
    """
    for name, g in gens:
        if not is_peripheral_preserving(g):
            raise MachineError(f"generator {name} is not peripheral-preserving")
    rep = validate_sphere(M)
    if not rep.is_sphere_biset:
        raise MachineError("input machine is not a sphere machine: "
                           + "; ".join(rep.details))
    basis = [M]
    dists = [distill(M)]
    solvers: list[_KnitSolver | None] = [None]
    index = {dists[0].key: 0}
    table: dict[tuple[str, int], TableEdge] = {}
    k = 0
    while k < len(basis):
        for name, g in gens:
            N = pre_compose(basis[k], g)
            dN = distill(N)
            hit = index.get(dN.key)
            if hit is None:
                norm, bc = normalize_basis(N)
                basis.append(norm)
                # a conjugated basis keeps the permutations and the
                # cycle classes, so dN serves norm as well
                dists.append(dN)
                solvers.append(None)
                hit = len(basis) - 1
                index[dN.key] = hit
                table[(name, k)] = TableEdge(
                    name, k, hit,
                    knitting_auto=Automorphism.identity(M.target),
                    basis_change=bc.inv())
            else:
                if solvers[hit] is None:
                    solvers[hit] = _KnitSolver(basis[hit], dists[hit])
                phi, b = solvers[hit].solve(N, dN)
                table[(name, k)] = TableEdge(
                    name, k, hit, knitting_auto=phi, basis_change=b)
        k += 1
    return MappingClassBiset(
        alphabet=tuple(name for name, _ in gens),
        basis_names=tuple(f"b{i}" for i in range(len(basis))),
        table=table,
        machines=basis,
        gens=dict(gens),
    )


def full_twist_generators(G: SphereGroup):
    """All twists t_{i,j}, 1 <= i < j <= n, named by relator positions."""
    return [(f"t{i}_{j}", dehn_twist(i, j, G))
            for i in range(1, G.n + 1) for j in range(i + 1, G.n + 1)]


def rewrite(mcb: MappingClassBiset, k: int, m: TwistWord):
    """Push a twist word through the recursion: Psi_k * m = m' * Psi_k'.

    Returns (m', k').  Every edge met must carry a twist-word knitting;
    the step words are multiplied once, so the cost is linear in m.
    """
    steps = []
    for x in reduce_word(m):
        name = mcb.alphabet[abs(x) - 1]
        if x > 0:
            edge = mcb.table.get((name, k))
            if edge is None:
                raise MachineError(f"table not closed at ({name}, {k})")
            k = edge.target
        else:
            edge = mcb.edge_into(name, k)
            k = edge.source
        if edge.knitting_word is None:
            raise MachineError(f"edge ({name}, {edge.source}) has no "
                               "twist-word knitting")
        steps.append(edge.knitting_word if x > 0 else winv(edge.knitting_word))
    return wmul(*steps), k


@dataclass
class Terminal:
    kind: str                       # "fixed" | "cycle" | "max-steps"
    states: list[tuple[TwistWord, int]]
    steps: int


def conjugacy_iterate(mcb: MappingClassBiset, start, max_steps: int = 10_000) -> Terminal:
    """Iterate the conjugation move m*b ~ b*m followed by rewriting until
    the twist word empties or a previously seen state recurs."""
    if not mcb.word_knittings():
        raise MachineError("conjugacy iteration needs twist-word knittings")
    w, k = reduce_word(start[0]), start[1]
    trace = [(w, k)]
    seen = {(w, k): 0}
    step = 0
    while w:
        if step == max_steps:
            return Terminal("max-steps", [trace[-1]], max_steps)
        w, k = rewrite(mcb, k, w)
        step += 1
        state = (w, k)
        if state in seen:
            return Terminal("cycle", trace[seen[state]:], step)
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
    if (2 - chi_closed) % 2:
        raise MachineError("inconsistent Euler characteristic")
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
    equal fingerprints.  None if psi is not peripheral-preserving.
    """
    G = psi.group
    free = G.free_gen_indices()
    ref = G.relator[-1]
    col = {j: c for c, j in enumerate(free)}
    rows = {}
    for i in range(1, G.n + 1):
        got = is_conjugate(G.gen(i), psi.images[i - 1])
        if got is None:
            return None
        counts = [0] * len(free)
        for x in got:
            j = abs(x)
            if j in col and j != i:
                counts[col[j]] += 1 if x > 0 else -1
        rows[i] = counts
    base = rows[ref]
    fp = [
        tuple(rows[i][col[j]] - base[col[j]] for j in free if j != i)
        for i in range(1, G.n + 1) if i != ref
    ]
    # normalize modulo a uniform shift of all cells, the ambiguity left by
    # the relator generator's conjugator
    mu = next((x for row in fp for x in row), 0)
    return tuple(tuple(x - mu for x in row) for row in fp)


def twist_power_label(fp, gen_fps):
    """Label a fingerprint as a power of a named generator: ("1", 0) for
    the zero fingerprint, else (name, k) for the first (name, g) of
    gen_fps with fp == k*g for an integer k >= 1, else None."""
    if fp is None:
        return None
    flat = [x for row in fp for x in row]
    if not any(flat):
        return ("1", 0)
    for name, g in gen_fps:
        gflat = [x for row in g for x in row]
        j = next((j for j, x in enumerate(gflat) if x), None)
        if j is None:
            continue
        k, r = divmod(flat[j], gflat[j])
        if r == 0 and k >= 1 and flat == [k * x for x in gflat]:
            return (name, k)
    return None


@dataclass
class McbLiftEntry:
    degree: int
    knitting: Automorphism
    label: tuple[str, int] | None   # (generator name, power) when identified


def lift_multiset_in_mcbiset(mcb: MappingClassBiset, gen: str) -> list[McbLiftEntry]:
    """Degrees and knitting classes of the cycles of one generator's right
    action on the basis, like multiset_of_lifts on the recursion itself.

    Each cycle's knitting is the composite of its edges' knitting
    automorphisms, labelled by twist_power_label against the biset's own
    generators; unidentified cycles keep label None.
    """
    gen_fps = []
    for name, a in mcb.gens.items():
        fp = twist_fingerprint(a)
        if fp is None:
            raise MachineError(f"generator {name} is not peripheral-preserving")
        gen_fps.append((name, fp))
    out = []
    for cyc in perms.cycles(mcb.action_perm(gen)):
        knit = None
        p = cyc[0]
        for _ in cyc:
            edge = mcb.table[(gen, p)]
            if edge.knitting_auto is None:
                raise MachineError(f"edge ({gen}, {mcb.basis_names[p]}) has "
                                   "no knitting automorphism")
            knit = edge.knitting_auto if knit is None \
                else outer_normalize(knit.compose(edge.knitting_auto))
            p = edge.target
        label = twist_power_label(twist_fingerprint(knit), gen_fps)
        out.append(McbLiftEntry(len(cyc), knit, label))
    return out
