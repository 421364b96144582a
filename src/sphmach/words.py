"""Exact word arithmetic in sphere groups.

A sphere group on n generators g1..gn (n = 0 or n >= 2) is the free
group of rank n-1 with the relator g1*g2*...*gn; the class of each gi
is a peripheral conjugacy class.  Elements are kept in *normal form*:
freely reduced words over g1..g_{n-1} only, the last generator having
been eliminated through gn = (g1*...*g_{n-1})^-1.

Words are tuples of signed 1-based generator indices (-i is the
inverse of i), always freely reduced.  Words passed between sphmach
functions are normal-form tuples; SphereGroup.normal_form hands such a
tuple back unchanged after two C-level scans (letters in range and none
eliminated, no letter next to its inverse), so re-normalising costs a
few linear passes at C speed and no rewriting.  reduce_word does the
same for any word (no letter 0, no letter next to its inverse), so
re-reducing a reduced word, such as a twist word that rewrite or
conjugacy iteration is handed, costs no stack walk either.

Products of reduced words cancel only at each junction, so one kernel,
_append_reduced, does all free reduction of products: it walks the
cancellation letter by letter and copies the rest with one extend.
Each letter is cancelled at most once, so wmul, substitution and walk
cost time linear in the letters written.  walk is the one reader of a
step table, (state, signed letter) -> (word, next state), such as a
machine's wreath recursion, a biset's twist recursion and a folded
subgroup graph.  substitute_all is the one substitution kernel: one
loop that maps a batch of words letter by letter and builds the signed
images it needs once per batch.  Automorphism.__call__ and compose,
machine.post_compose, the knitting solver and folding.expand_expression
call it.  cyclic_reduce walks the wings of a conjugate letter by letter
and is linear.  run_length_str prints
a word with no two equal neighbours, such as almost every knitting
image, with one join over a table of letter tokens.
"""

from __future__ import annotations

from functools import cache
from itertools import chain
from operator import add, eq, neg


Word = tuple[int, ...]

EPSILON: Word = ()


def reduce_word(letters) -> Word:
    """Freely reduce a sequence of signed generator indices.

    A sequence that is already reduced comes back as a tuple, unchanged,
    after two C-level scans: no letter is 0 and no letter is followed by
    its inverse.  Any other sequence is reduced on a stack; a letter 0
    raises ValueError.
    """
    w = tuple(letters)
    if 0 not in w and all(map(add, w, w[1:])):
        return w
    out: list[int] = []
    for x in w:
        if x == 0:
            raise ValueError("generator index 0 is not allowed")
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def _append_reduced(out: list[int], w) -> None:
    """Append the reduced word w to the reduced list out, in place.

    Only the junction can cancel: the letters at the end of out that meet
    their inverses at the start of w are walked off letter by letter, and
    the rest of w is copied with one extend.  A letter is cancelled at
    most once, so a product costs time linear in its letters.
    """
    n = len(out)
    lim = n if n < len(w) else len(w)
    k = 0
    while k < lim and out[n - 1 - k] == -w[k]:
        k += 1
    if k:
        del out[n - k:]
        out.extend(w[k:])
    else:
        out.extend(w)


def wmul(*words: Word) -> Word:
    """Product of freely reduced words, freely reduced.

    Linear in the total length: each factor cancels only at its junction
    with the product so far, walked letter by letter (see
    _append_reduced), and no letter is cancelled twice.
    """
    out: list[int] = []
    for w in words:
        # most junctions cancel nothing: skip the kernel's call for them
        if out and w and out[-1] == -w[0]:
            _append_reduced(out, w)
        else:
            out.extend(w)
    return tuple(out)


def walk(steps, starts, letters) -> tuple[tuple[Word, ...], tuple[int, ...]]:
    """(Products, end states): the sequence letters read from each start
    through steps, where steps[x][k] is the (reduced word, next state) of
    the signed letter x at the state k, or missing.  Each product is the
    reduced product of the words met.  The first missing step raises
    KeyError(k, x)."""
    words, ends = [], []
    for k in starts:
        out: list[int] = []
        try:
            for x in letters:
                w, k = steps[x][k]
                if out and w and out[-1] == -w[0]:
                    _append_reduced(out, w)
                else:
                    out.extend(w)
        except KeyError:  # from the lookup, before k moves on
            raise KeyError(k, x) from None
        words.append(tuple(out))
        ends.append(k)
    return tuple(words), tuple(ends)


def winv(w: Word) -> Word:
    return tuple(map(neg, reversed(w)))


def substitute_all(words, images):
    """Yield, for each word in words, the freely reduced product of the
    images it spells: images[i-1] for a letter i > 0, its inverse for -i.

    The images must be freely reduced.  The signed pieces are built once
    per batch, only for the letters met, so every letter costs one
    extend, or one _append_reduced where its piece cancels against the
    product so far.
    """
    pieces: dict[int, Word] = {}
    for w in words:
        out: list[int] = []
        for x in w:
            img = pieces.get(x)
            if img is None:
                img = pieces[x] = images[x - 1] if x > 0 else winv(images[-x - 1])
            # most junctions cancel nothing: skip the kernel's call for them
            if out and img and out[-1] == -img[0]:
                _append_reduced(out, img)
            else:
                out.extend(img)
        yield tuple(out)


def conjugate(w: Word, by: Word) -> Word:
    """w^by = by^-1 * w * by."""
    return wmul(winv(by), w, by)


def _common_prefix(a, b) -> int:
    """The length of the longest common prefix of the sequences a and b."""
    k = 0
    for x, y in zip(a, b):
        if x != y:
            break
        k += 1
    return k


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Return (core, c) with w = c * core * c^-1 and core cyclically reduced.

    The wing c is the common prefix of w and w^-1, capped at half of w,
    walked letter by letter from both ends of w: linear in len(w).
    """
    w = tuple(w)
    m = len(w)
    k = 0
    while m - 2 * k >= 2 and w[k] == -w[m - 1 - k]:
        k += 1
    return w[k:m - k], w[:k]


def rotations(w: Word):
    for k in range(max(1, len(w))):
        yield w[k:] + w[:k]


def cyclic_canonical(w: Word, up_to_inversion: bool = False) -> Word:
    """Least rotation of the cyclically reduced core (optionally over w^-1 too)."""
    core, _ = cyclic_reduce(w)
    best = min(rotations(core))
    if up_to_inversion:
        best = min(best, min(rotations(winv(core))))
    return best


@cache
def _letter_tokens(names: tuple[str, ...]) -> dict[int, str]:
    """The printed token of each signed letter over names."""
    tokens = {}
    for i, name in enumerate(names, 1):
        tokens[i], tokens[-i] = name, f"{name}^-1"
    return tokens


def run_length_str(names, w) -> str:
    """Print a word over the given generator names, runs of one letter
    as name^k ('' for the empty word).

    A word with no two equal neighbours, the common case for knitting
    images and machine entries, is printed with one join over a table
    of letter tokens, built once per tuple of names.
    """
    if not any(map(eq, w, w[1:])):
        return "*".join(map(_letter_tokens(tuple(names)).__getitem__, w))
    parts = []
    i = 0
    while i < len(w):
        x = w[i]
        j = i
        while j < len(w) and w[j] == x:
            j += 1
        k = j - i
        name = names[abs(x) - 1]
        if x > 0 and k == 1:
            parts.append(name)
        else:
            parts.append(f"{name}^{k if x > 0 else -k}")
        i = j
    return "*".join(parts)


class SphereGroup:
    """A sphere group: n named generators of infinite order with relator
    g1*...*gn, or the generators in the order ``relator`` lists them.

    The group builds its n generators in normal form once, as the tuple
    gens (the eliminated one spelt through the relator), and keys its
    peripheral classes once, (sign_insensitive, canonical word) -> least
    i with gi in the class, for peripheral_index; for n = 2,
    g1 and g2 = g1^-1 key to 1.

    Orbisphere groups (generators of finite order) are not modelled.
    """

    def __init__(self, names, relator=None):
        names = list(names)
        if len(names) == 1:
            raise ValueError("sphere groups have n = 0 or n >= 2 generators")
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        self.names: tuple[str, ...] = tuple(names)
        self.n = len(names)
        self._index = {nm: i + 1 for i, nm in enumerate(names)}
        if relator is None:
            self.relator: tuple[int, ...] = tuple(range(1, self.n + 1))
        else:
            rel = tuple(self._index[x] if isinstance(x, str) else int(x)
                        for x in relator)
            if sorted(rel) != list(range(1, self.n + 1)):
                raise ValueError("relator must use every generator exactly once")
            self.relator = rel
        self._eliminated = self.relator[-1] if self.n else None
        self.gens: tuple[Word, ...] = tuple(
            winv(self.relator[:-1]) if i == self._eliminated else (i,)
            for i in range(1, self.n + 1))
        # the letters of normal-form words
        self._letters = frozenset(
            s * i for i in self.free_gen_indices() for s in (1, -1))
        # built from the last generator down, so the least index wins
        self._punctures = {(flag, cyclic_canonical(self.gens[i - 1], flag)): i
                           for i in range(self.n, 0, -1) for flag in (False, True)}

    def __repr__(self):
        return f"SphereGroup({','.join(self.names)})"

    def peripheral_index(self, canonical: Word, sign_insensitive: bool):
        """The least 1-based index i with gi in the class whose
        cyclic_canonical word (over both signs when sign_insensitive) is
        canonical, or None: one lookup in the puncture keys."""
        return self._punctures.get((sign_insensitive, canonical))

    def __eq__(self, other):
        return isinstance(other, SphereGroup) and self.names == other.names \
            and self.relator == other.relator

    def __hash__(self):
        return hash((self.names, self.relator))

    @property
    def rank(self) -> int:
        return max(self.n - 1, 0)

    def free_gen_indices(self) -> list[int]:
        """Indices of the n-1 generators kept in the normal form."""
        return [i for i in range(1, self.n + 1) if i != self._eliminated]

    def gen(self, i: int) -> Word:
        """Generator number i (1-based) in normal form."""
        if not 1 <= i <= self.n:
            raise IndexError(f"generator index {i} out of range 1..{self.n}")
        return self.gens[i - 1]

    def index_of(self, name: str) -> int:
        if name not in self._index:
            raise KeyError(f"unknown generator {name!r}")
        return self._index[name]

    def normal_form(self, w) -> Word:
        """Rewrite w over the free generators by eliminating the last
        relator generator, then freely reduce.

        A word already in normal form comes back as a tuple, unchanged:
        two C-level scans show that every letter is a kept generator or
        its inverse and that no letter is followed by its inverse.  Any
        other word has the eliminated generator expanded and goes through
        reduce_word; a letter outside +-1..n raises IndexError.
        """
        w = tuple(w)
        if self._letters.issuperset(w) and all(map(add, w, w[1:])):
            return w
        bad = next((x for x in w if not 0 < abs(x) <= self.n), None)
        if bad is not None:
            raise IndexError(f"letter {bad} out of range for {self!r}")
        gone, body = self._eliminated, self.relator[:-1]
        expand = {gone: winv(body), -gone: body}
        return reduce_word(chain.from_iterable(
            expand.get(x, (x,)) for x in w))

    def word_str(self, w: Word) -> str:
        """Print a word in the machine text syntax (empty word prints '')."""
        return run_length_str(self.names, w)

    def abelianized(self, w: Word):
        """Image of w in Z^n / (1,..,1), as an n-vector with last entry 0.

        Words in normal form never use gn, so the chosen section sets
        the gn-coordinate to zero.
        """
        v = [0] * self.n
        for x in self.normal_form(w):
            v[abs(x) - 1] += 1 if x > 0 else -1
        return tuple(v)


class ConjClass:
    """A conjugacy class, canonicalized as the least cyclic rotation.

    With ``sign_insensitive`` set, the inverse class is folded in as
    well (classes of unoriented curves, g^{+-G}).
    """

    __slots__ = ("group", "rep", "canonical", "sign_insensitive")

    def __init__(self, group: SphereGroup, rep, sign_insensitive: bool = False):
        self.group = group
        self.rep: Word = group.normal_form(rep)
        self.sign_insensitive = bool(sign_insensitive)
        self.canonical = cyclic_canonical(self.rep, self.sign_insensitive)

    def __eq__(self, other):
        return (
            isinstance(other, ConjClass)
            and self.group.names == other.group.names
            and self.sign_insensitive == other.sign_insensitive
            and self.canonical == other.canonical
        )

    def __hash__(self):
        return hash((self.group.names, self.sign_insensitive, self.canonical))

    def __repr__(self):
        flag = "+-" if self.sign_insensitive else ""
        return f"ConjClass({self.group.word_str(self.canonical) or '1'}{flag})"

    def is_trivial(self) -> bool:
        return not self.canonical

    def peripheral_index(self):
        """The least 1-based index i with this the class of gi (sign folded
        in when sign_insensitive), or None: the group's peripheral_index."""
        return self.group.peripheral_index(self.canonical, self.sign_insensitive)


def is_conjugate(u: Word, v: Word):
    """A word w with u^w = v for reduced words u, v, or None.

    () is a valid answer (u == v), so test the result with `is None`.
    """
    ucore, c = cyclic_reduce(u)
    vcore, e = cyclic_reduce(v)
    if len(ucore) != len(vcore):
        return None
    if not ucore:
        return EPSILON
    for k in range(len(ucore)):
        if ucore[k:] + ucore[:k] == vcore:
            # u^(c * ucore[:k] * e^-1) = v
            return wmul(c, ucore[:k], winv(e))
    return None


# the value of a derived slot not yet computed: distinct from every
# value the slot can hold, None and () included
_NOT_COMPUTED = object()


class Automorphism:
    """An automorphism of a sphere group, given by generator images.

    Images are stored in normal form for all n generators; construction
    checks that their product along the relator reduces to 1.  The
    images are never changed after construction, so values derived from
    them are kept on the automorphism once computed: the inverse, and
    the result of the one peripheral pass (see _fingerprint), which
    serves both is_peripheral_preserving and mcbiset.twist_fingerprint.
    """

    def __init__(self, group: SphereGroup, images):
        self.group = group
        self.images: tuple[Word, ...] = tuple(group.normal_form(w) for w in images)
        if len(self.images) != group.n:
            raise ValueError(f"expected {group.n} images, got {len(self.images)}")
        if wmul(*[self.images[r - 1] for r in group.relator]) != EPSILON:
            raise ValueError("generator images do not satisfy the relator")
        self._inverse: Automorphism | None = None
        self._fingerprint = _NOT_COMPUTED

    @classmethod
    def identity(cls, group: SphereGroup) -> "Automorphism":
        return cls(group, group.gens)

    def __call__(self, w) -> Word:
        """The image of w, brought to normal form first."""
        return next(substitute_all((self.group.normal_form(w),), self.images))

    def __eq__(self, other):
        return (isinstance(other, Automorphism)
                and self.group == other.group and self.images == other.images)

    def __hash__(self):
        return hash((self.group.names, self.images))

    def __repr__(self):
        ims = ", ".join(
            f"{nm}->{self.group.word_str(w) or '1'}"
            for nm, w in zip(self.group.names, self.images))
        return f"Automorphism({ims})"

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self after other: (self.compose(other))(w) = self(other(w))."""
        if self.group != other.group:
            raise ValueError("automorphisms over different groups")
        # other's images are normal forms, and so are their images
        return Automorphism(self.group,
                            list(substitute_all(other.images, self.images)))

    def is_identity_map(self) -> bool:
        return self.images == self.group.gens

    def inverse(self) -> "Automorphism":
        """The inverse, from a fold of all n images: letter j of the
        expression of a generator stands for the image of generator j, so
        the same letters read as generators spell its preimage."""
        if self._inverse is None:
            from .folding import SubgroupGraph

            G = self.group
            graph = SubgroupGraph(self.images)
            exprs = [graph.express(g) for g in G.gens]
            if None in exprs:
                raise ValueError("map is not invertible (images do not "
                                 "generate the group)")
            self._inverse = Automorphism(G, exprs)
            self._inverse._inverse = self
        return self._inverse


def outer_normal_images(images) -> tuple[list[Word], Word]:
    """The reduced images of an automorphism, all n of them, inner-
    adjusted to a least total image length; returns (images, g), where
    every image w becomes g^-1 * w * g.  Closed form: g is the longest
    common prefix of sorted rays i and i + m, as follows.

    In the Cayley tree of the free group, |g^-1 w g| = l(w) +
    2 d(g, Axis(w)) for w != 1, with l(w) the length of the cyclic core;
    so the total image length after conjugating by g, F(g), is a constant
    plus a sum of distances to subtrees, which is convex along every
    geodesic.  A convex function on a tree has no local minimum that is
    not global: on the geodesic from g to a lower point, F already drops
    at the first step.

    Which point.  Write each of the m nonempty images as c * u * c^-1
    with u cyclically reduced (cyclic_reduce); the two ends of its axis
    are the rays c u u ... and c u^-1 u^-1 ..., reduced infinite words.
    The step from g to g*x lowers the distance to an axis when both of
    its ends lie beyond g*x, keeps it when one does and raises it when
    none does, so F changes by 2 * (m - s), s the number of the 2m ends
    beyond g*x.  F drops only when s > m, for at most one x.  So from 1,
    F drops along every step into the longest word g that is a prefix of
    more than m of the rays, and at g no step lowers it: g is a global
    minimum, and the point the letter-by-letter descent reaches.  As F
    drops strictly on the way, g is the minimiser nearest to 1: ties of
    equal total length go to the shortest conjugator, which is unique.
    The result is not canonical on outer classes, since two members of
    one class may reach different points of a tie.  Bound: more than m
    rays include both rays of one image, which part right after its c,
    as u and u^-1 start with different letters; so |g| <= max |c|.
    Truncated to L = max |c| letters and sorted, the rays with a common
    prefix form blocks, and g is the longest common prefix of rays i
    and i + m over i < m (the m + 1 rays from i to i + m share it).

    An automorphism phi is inner exactly when the result is the identity
    map, which makes inner_conjugator(phi) the one exact inner test
    (outer_equal, compute_mcbiset).  For phi = inn_h and
    rank >= 2, the free generators are distinct letters a, b, and h^-1 a h
    conjugated by g is cyclically reduced only when hg lies in <a>; as
    <a> and <b> meet in 1, F attains its least value, the sum of the
    l(w), at the single point g = h^-1, where the images are the
    generators themselves.  For rank <= 1 the group is abelian, every
    inner map is the identity, and its images have no wings, so it stays
    as it is.  Conversely the result is phi followed by an inner map, so
    it is the identity only if phi is inner.
    """
    wings = [(w, len(cyclic_reduce(w)[1])) for w in images if w]
    m = len(wings)
    L = max((k for _, k in wings), default=0)
    if not L:
        return list(images), EPSILON
    rays = []
    for w, k in wings:
        # w = c * u * c^-1 with |c| = k: the rays c u u ... and c u^-1 ...
        u = w[k:len(w) - k]
        reps = (L - k) // len(u) + 1
        rays += ((w[:k] + u * reps)[:L], (w[:k] + winv(u) * reps)[:L])
    rays.sort()
    k, i = max((_common_prefix(rays[i], rays[i + m]), i) for i in range(m))
    g = rays[i][:k]
    del rays  # as long as the images together: gone before the conjugates
    ginv = winv(g)
    # an image g * v * g^-1 becomes the slice v: wmul would invert all of it
    return [w[k:len(w) - k] if len(w) > 2 * k and w[:k] == g
            and w[len(w) - k:] == ginv else wmul(ginv, w, g)
            for w in images], g


def outer_normalize(phi: Automorphism) -> Automorphism:
    """phi inner-adjusted to a least total image length, stripping
    accumulated conjugation bloat (see outer_normal_images)."""
    return Automorphism(phi.group, outer_normal_images(phi.images)[0])


def inner_conjugator(phi: Automorphism) -> Word | None:
    """h with phi(x) = h * x * h^-1 for every x when phi is inner, else
    None: outer_normal_images(phi.images) returns the generators
    themselves exactly when phi is inner, and then also h."""
    images, h = outer_normal_images(phi.images)
    return h if tuple(images) == phi.group.gens else None


def outer_equal(phi: Automorphism, psi: Automorphism) -> bool:
    """Do phi and psi agree as outer automorphisms, that is, is
    psi^-1 . phi inner?  Exact (see inner_conjugator)."""
    if phi.group != psi.group:
        raise ValueError("automorphisms over different groups")
    return inner_conjugator(psi.inverse().compose(phi)) is not None


def dehn_twist(i: int, j: int, G: SphereGroup) -> Automorphism:
    """The twist g_k -> g_k^(g_i...g_j) for k in i..j, fixing the rest.

    Positions i..j refer to the relator order (which is the declaration
    order unless a relator override reordered it).  The inverse comes
    with it in closed form, g_k -> g_k^(w^-1) with w = g_i...g_j: the
    twist fixes w, so each map undoes the other, and no fold is needed.
    """
    if not 1 <= i <= j <= G.n:
        raise IndexError(f"bad twist indices ({i},{j}) for n={G.n}")
    segment = [G.relator[k - 1] for k in range(i, j + 1)]
    w = wmul(*map(G.gen, segment))
    twist, inverse = (Automorphism(G, [conjugate(g, by) if k in segment else g
                                       for k, g in enumerate(G.gens, 1)])
                      for by in (w, winv(w)))
    twist._inverse, inverse._inverse = inverse, twist
    return twist


def _fingerprint(phi: Automorphism):
    """mcbiset.twist_fingerprint(phi), or None when phi is not peripheral-
    preserving: the one peripheral pass, which finds z_i with phi(g_i) =
    g_i^{z_i} for each generator and counts its letters.  The value is
    kept in phi._fingerprint, which is_peripheral_preserving reads too."""
    fp = phi._fingerprint
    if fp is not _NOT_COMPUTED:
        return fp
    G = phi.group
    free = G.free_gen_indices()
    ref = G._eliminated
    rows = {}
    for i, g in enumerate(G.gens, 1):
        # a normal form: every letter is a kept generator
        got = is_conjugate(g, phi.images[i - 1])
        if got is None:
            phi._fingerprint = None
            return None
        counts = [0] * (G.n + 1)
        for x in got:
            j = abs(x)
            if j != i:
                counts[j] += 1 if x > 0 else -1
        rows[i] = counts
    # rows relative to the relator generator's: empty for n = 0
    fp = [rows[i][j] - rows[ref][j]
          for i in range(1, G.n + 1) if i != ref for j in free if j != i]
    # normalize modulo a uniform shift of all cells, the ambiguity left by
    # the relator generator's conjugator
    mu = fp[0] if fp else 0
    fp = phi._fingerprint = tuple(x - mu for x in fp)
    return fp


def is_peripheral_preserving(phi: Automorphism) -> bool:
    """Does phi send each generator into its own peripheral class?  Read
    from the one peripheral pass kept on phi (see _fingerprint)."""
    return _fingerprint(phi) is not None
