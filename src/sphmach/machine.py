"""Sphere machines: wreath recursions presenting bisets of sphere maps.

A machine over a source group G (whose loops are lifted) and a target
group H (where the lifts live) assigns to every generator of G a
d-tuple of H-words and a permutation of the d basis points.  The right
action of g on basis point s is  s * g = h * t  when the wreath image
of g carries entry h at position s and moves s to t.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import perms
from .perms import Perm
from .words import (
    Word, EPSILON, SphereGroup, ConjClass, Automorphism, cyclic_canonical,
    winv, wmul, walk, substitute_all, is_peripheral_preserving, _append_reduced,
)


class MachineError(ValueError):
    pass


def _elided(text: str, show) -> str:
    """show(text) for a text of up to 60 characters; past that its head,
    its tail and its length, so that no message prints unbounded input."""
    if len(text) <= 60:
        return show(text)
    return f"{show(text[:24])}...{show(text[-24:])} ({len(text)} characters)"


def _quoted(text: str) -> str:
    """The text in quotes, elided past 60 characters (see _elided)."""
    return _elided(text, repr)


class NotSphereBiset(MachineError):
    pass


@dataclass(frozen=True)
class WreathElement:
    entries: tuple[Word, ...]
    perm: Perm

    @property
    def degree(self) -> int:
        return len(self.entries)

    def inv(self) -> "WreathElement":
        pinv = perms.inverse(self.perm)
        return WreathElement(
            tuple(winv(self.entries[pinv[i]]) for i in range(self.degree)),
            pinv,
        )

    def is_identity(self) -> bool:
        return perms.is_identity(self.perm) and all(e == EPSILON for e in self.entries)


class SphereMachine:
    def __init__(self, source: SphereGroup, target: SphereGroup, rows):
        rows = list(rows)
        if len(rows) != source.n:
            raise MachineError(
                f"need one row per source generator ({source.n}), got {len(rows)}")
        degrees = {r.degree for r in rows} or {1}
        if len(degrees) != 1:
            raise MachineError("rows have inconsistent degrees")
        self.source = source
        self.target = target
        self.degree = degrees.pop()
        self.rows: tuple[WreathElement, ...] = tuple(
            WreathElement(tuple(target.normal_form(e) for e in r.entries), r.perm)
            for r in rows)
        self._steps: dict[int, list[tuple[Word, int]]] = {}

    @classmethod
    def identity(cls, G: SphereGroup) -> "SphereMachine":
        return cls(G, G, [WreathElement((g,), (0,)) for g in G.gens])

    def __eq__(self, other):
        return (isinstance(other, SphereMachine)
                and self.source == other.source and self.target == other.target
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.source, self.target, self.rows))

    def __repr__(self):
        return f"SphereMachine({self.source.n}gen/deg{self.degree})"

    def evaluate(self, w) -> WreathElement:
        """Multiplicative extension of the rows to any source word.

        One walk (words.walk) reads w from every basis point: letter x
        at point p steps with its row's entry at p to its row's image of
        p, and -x steps back along the row.  A letter's steps are built
        the first time the machine meets it, so a positive word inverts
        no row.
        """
        n, steps = self.source.n, self._steps
        w = tuple(w)
        for x in w:
            if x not in steps:
                if not 0 < abs(x) <= n:
                    raise MachineError(f"letter {x} outside source group")
                row = self.rows[abs(x) - 1]
                steps[x] = list(zip(row.entries, row.perm)) if x > 0 else [
                    (winv(row.entries[p]), p) for p in perms.inverse(row.perm)]
        return WreathElement(*walk(steps, range(self.degree), w))

    def relator_ok(self) -> bool:
        return self.evaluate(self.source.relator).is_identity()

    def monodromy_perms(self) -> list[Perm]:
        return [r.perm for r in self.rows]

    def text_rows(self) -> list[str]:
        out = []
        for i, row in enumerate(self.rows):
            entries = ",".join(self.target.word_str(e) for e in row.entries)
            out.append(f"{self.source.names[i]}=<{entries}>"
                       f"{perms.cycle_string(row.perm)}")
        return out


@dataclass
class LiftMultiset:
    """Degrees and target conjugacy classes of the lifts of one class."""

    entries: list[tuple[int, ConjClass]]

    def sorted_key(self):
        return sorted((d, c.canonical) for d, c in self.entries)

    def __eq__(self, other):
        return isinstance(other, LiftMultiset) and self.sorted_key() == other.sorted_key()

    def total_degree(self) -> int:
        return sum(d for d, _ in self.entries)


def cycle_labels(w: WreathElement, target: SphereGroup):
    """Yield (cycle, label, product) for each cycle of w's permutation, in
    action order from its least point, with the product of w's entries
    along it and the label of its target class: (0,) when the product is
    empty, (1, i) for the class of gi, else (2, its cyclic_canonical word).

    w's entries must be normal forms, as a machine's rows and evaluations
    are.  The product, each entry appended to one list in place
    (words._append_reduced), is then a normal form, trivial only when
    empty, and is labelled with no normal_form and no ConjClass."""
    entries = w.entries
    for cycle in perms.cycles(w.perm):
        h: list[int] = []
        for p in cycle:
            _append_reduced(h, entries[p])
        if not h:
            yield cycle, (0,), h
            continue
        c = cyclic_canonical(h)
        i = target.peripheral_index(c, False)
        yield cycle, (2, c) if i is None else (1, i), h


def multiset_of_lifts(M: SphereMachine, c) -> LiftMultiset:
    """Lifts of the conjugacy class of the source word c: orbit degrees of
    the right action of c, with the classes of the return words.  Lifts
    of one label share one class, built from the first one's return
    word; so the trivial lifts, most of them at high degree, share one."""
    w = M.evaluate(M.source.normal_form(c))
    classes = {(0,): ConjClass(M.target, EPSILON)}
    entries = []
    for cycle, label, h in cycle_labels(w, M.target):
        if label not in classes:
            classes[label] = ConjClass(M.target, h)
        entries.append((len(cycle), classes[label]))
    return LiftMultiset(entries)


@dataclass
class ValidationReport:
    relator_ok: bool
    transitive: bool            # SB1 (left-freeness is built into the model)
    riemann_hurwitz: bool       # SB2
    lifts_partition: bool       # SB3
    details: list[str]
    # target puncture -> (source puncture, degree) of its lift, for portrait
    _mapping: dict[int, tuple[int, int]] = field(
        default_factory=dict, repr=False, compare=False)

    @property
    def is_sphere_biset(self) -> bool:
        return (self.relator_ok and self.transitive
                and self.riemann_hurwitz and self.lifts_partition)


def validate_sphere(M: SphereMachine) -> ValidationReport:
    details = []
    relator_ok = M.relator_ok()
    if not relator_ok:
        details.append("malformed machine: wreath image of the relator "
                       "is not the identity")
    gens = M.monodromy_perms()
    transitive = perms.is_transitive(gens, M.degree)
    if not transitive:
        details.append("monodromy action is not transitive")
    deficit = sum(perms.deficit(p) for p in gens)
    rh = deficit == 2 * M.degree - 2
    if not rh:
        details.append(f"cycle deficit {deficit} != 2d-2 = {2 * M.degree - 2}")
    found: list[int] = []
    mapping: dict[int, tuple[int, int]] = {}
    ok3 = True
    G = M.source
    for i in range(1, G.n + 1):
        # kept generators' wreath images are their rows; the eliminated
        # one's is the inverse of the image of the relator's other letters,
        # positive letters whose steps relator_ok has built already
        w = M.rows[i - 1] if G.gen(i) == (i,) \
            else M.evaluate(G.relator[:-1]).inv()
        for cycle, label, h in cycle_labels(w, M.target):
            if label[0] == 1:
                found.append(label[1])
                mapping[label[1]] = (i, len(cycle))
            elif label[0] == 2:
                ok3 = False
                details.append(f"lift of class {i} hits non-peripheral "
                               f"class {ConjClass(M.target, h)!r}")
    # the n oriented peripheral classes are distinct: indices stand for them
    if sorted(found) != list(range(1, M.target.n + 1)):
        ok3 = False
        details.append("peripheral classes of the target are not hit exactly once")
    return ValidationReport(relator_ok, transitive, rh, ok3, details, mapping)


@dataclass
class Portrait:
    """Where each target puncture sits over the source punctures."""

    mapping: dict[int, tuple[int, int]]  # target class -> (source class, degree)

    def describe(self, M: SphereMachine) -> list[str]:
        return [
            f"{M.target.names[j - 1]} -> {M.source.names[i - 1]} (deg {d})"
            for j, (i, d) in sorted(self.mapping.items())
        ]


def portrait(M: SphereMachine) -> Portrait:
    report = validate_sphere(M)
    if not report.is_sphere_biset:
        raise NotSphereBiset("; ".join(report.details) or "not a sphere biset")
    return Portrait(report._mapping)


def tensor(M1: SphereMachine, M2: SphereMachine) -> SphereMachine:
    """Thread the entries of M1 through M2; degrees multiply.

    Basis points are pairs (i, j) flattened as i*d2 + j, so the unit laws
    and associativity hold with literal equality of machines.
    """
    if M1.target != M2.source:
        raise MachineError("tensor: M1.target must equal M2.source")
    d2 = M2.degree
    rows = []
    for outer in M1.rows:
        inner = [M2.evaluate(e) for e in outer.entries]
        rows.append(WreathElement(
            tuple(e for w in inner for e in w.entries),
            tuple(p * d2 + q for p, w in zip(outer.perm, inner) for q in w.perm)))
    return SphereMachine(M1.source, M2.target, rows)


@dataclass(frozen=True)
class BasisChange:
    """New basis point i is conjugators[i]^-1 * (old basis point relabel[i]),
    so entries transform as  l_i^-1 * e * l_j.  This matches the tuple
    convention of the usual computer-algebra rebasing commands."""

    conjugators: tuple[Word, ...]
    relabel: Perm

    @classmethod
    def identity(cls, d: int) -> "BasisChange":
        return cls((EPSILON,) * d, perms.identity(d))

    def inv(self) -> "BasisChange":
        rinv = perms.inverse(self.relabel)
        return BasisChange(
            tuple(winv(self.conjugators[rinv[i]]) for i in range(len(self.conjugators))),
            rinv,
        )

    def then(self, other: "BasisChange") -> "BasisChange":
        """The one change that is self followed by other:
        change_basis(change_basis(M, self), other) equals
        change_basis(M, self.then(other)).  New point i is other's point
        i over self's point j = other.relabel[i], so the relabel is
        self.relabel[j] and the conjugator self.conjugators[j] *
        other.conjugators[i]."""
        return BasisChange(
            tuple(wmul(self.conjugators[j], c)
                  for j, c in zip(other.relabel, other.conjugators)),
            tuple(self.relabel[j] for j in other.relabel),
        )


def change_basis(M: SphereMachine, b: BasisChange) -> SphereMachine:
    if len(b.conjugators) != M.degree:
        raise MachineError("basis change length does not match degree")
    rho = b.relabel
    rho_inv = perms.inverse(rho)
    ell = [M.target.normal_form(w) for w in b.conjugators]
    # each conjugator is inverted once, not once per row
    ell_inv = [winv(w) for w in ell]
    rows = []
    for row in M.rows:
        entries: list[Word] = [EPSILON] * M.degree
        img: list[int] = [0] * M.degree
        for i in range(M.degree):
            j = rho_inv[row.perm[rho[i]]]
            entries[i] = wmul(ell_inv[i], row.entries[rho[i]], ell[j])
            img[i] = j
        rows.append(WreathElement(tuple(entries), tuple(img)))
    return SphereMachine(M.source, M.target, rows)


def pre_compose(M: SphereMachine, phi: Automorphism) -> SphereMachine:
    """The machine evaluated on phi's images, one row per generator: the
    recursion of the machine twisted on its source side."""
    if phi.group != M.source:
        raise MachineError("pre_compose needs an automorphism of the source group")
    if not is_peripheral_preserving(phi):
        raise MachineError("automorphism does not preserve peripheral classes")
    return SphereMachine(M.source, M.target, [M.evaluate(w) for w in phi.images])


def post_compose(M: SphereMachine, psi: Automorphism) -> SphereMachine:
    """psi applied to every entry: the machine twisted on its target side."""
    if psi.group != M.target:
        raise MachineError("post_compose needs an automorphism of the target group")
    if not is_peripheral_preserving(psi):
        raise MachineError("automorphism does not preserve peripheral classes")
    # machine entries are normal forms, so they go to the kernel as they are
    images = substitute_all((e for row in M.rows for e in row.entries),
                            psi.images)
    return SphereMachine(M.source, M.target,
                         [WreathElement(tuple(next(images) for _ in row.entries),
                                        row.perm)
                          for row in M.rows])


def tree_words(tree, back, d: int, label) -> tuple[list[Word], list[Word]]:
    """The words along a perms.spanning_tree on d points, edge (p, r, q)
    labelled label(r, p): the tree words ell, 1 at the root and any point
    not reached and ell[q] = ell[p] * label(r, p) on a tree edge, and the
    loop word ell[p] * label(r, p) * ell[q]^-1 of each back edge."""
    ell: list[Word] = [EPSILON] * d
    for p, r, q in tree:
        ell[q] = wmul(ell[p], label(r, p))
    return ell, [wmul(ell[p], label(r, p), winv(ell[q])) for p, r, q in back]


def normalize_basis(M: SphereMachine) -> tuple[SphereMachine, BasisChange]:
    """Conjugate the basis so the entries along a breadth-first spanning
    tree of the action graph become trivial.  Keeps entries short after
    repeated twisting; the result presents the same biset."""
    d = M.degree
    tree = perms.spanning_tree(M.monodromy_perms())[0]
    ell = tree_words(tree, (), d, lambda r, p: M.rows[r].entries[p])[0]
    # new entries are ell_i^-1 * e_i * ell_{pi(i)}, which vanish along tree
    # edges when the conjugators are the inverted tree words
    b = BasisChange(tuple(winv(e) for e in ell), perms.identity(d))
    return change_basis(M, b), b


@dataclass
class PeripheralLift:
    class_index: int          # peripheral class of the source group
    cycle: tuple[int, ...]    # 1-based basis points of the monodromy cycle
    degree: int
    rep: Word                 # element of the stabilizer, conjugate into
                              # the class_index-th class to the degree-th power


@dataclass
class SubgroupPresentation:
    group: SphereGroup
    transversal: tuple[Word, ...]
    generators: tuple[Word, ...]
    peripheral: tuple[PeripheralLift, ...]

    @property
    def index(self) -> int:
        return len(self.transversal)


def stabilizer_subgroup(M: SphereMachine, s: int = 1) -> SubgroupPresentation:
    """Reidemeister-Schreier data for the stabilizer of basis point s under
    the right monodromy action of the source group.

    The transversal and the Schreier generators, unreduced and d*(n-1) -
    d + 1 of them, are the tree and loop words (tree_words) of the walk
    from s over the free generators in declaration order."""
    G = M.source
    d = M.degree
    if not 1 <= s <= d:
        raise MachineError(f"basis point {s} out of range 1..{d}")
    free = G.free_gen_indices()
    action = [M.evaluate(g).perm for g in G.gens]
    tree, back = perms.spanning_tree([action[i - 1] for i in free],
                                     start=s - 1)
    if len(tree) != d - 1:
        raise MachineError("machine is not right-transitive")
    trans, gens = tree_words(tree, back, d, lambda r, p: G.gen(free[r]))
    peripheral = []
    for i, pi in enumerate(action, 1):
        for cycle in perms.cycles(pi):
            p = cycle[0]
            deg = len(cycle)
            rep = wmul(trans[p], wmul(*([G.gen(i)] * deg)), winv(trans[p]))
            peripheral.append(PeripheralLift(
                i, tuple(a + 1 for a in cycle), deg, rep))
    return SubgroupPresentation(G, tuple(trans), tuple(gens), tuple(peripheral))
