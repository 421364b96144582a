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
few linear passes at C speed and no rewriting.

Products of reduced words cancel only at each junction, so one kernel,
_append_reduced, does all free reduction of products: it walks a short
cancellation letter by letter, finds a long one by comparing list
slices in doubling, then halving, chunks, and copies the rest with one
extend.  wmul and substitution thus cost time linear in the letters
written, at C speed, plus O(log k) interpreted steps per junction that
cancels k letters.  substitute_all is the one substitution kernel: it
maps a batch of words and builds the signed images it needs once per
batch; Automorphism.apply_all and folding.expand_expression call it.
It maps a word with a wing, c * u * c^-1, as phi(c) * phi(u) *
phi(c)^-1, so the letters of c are substituted once.  cyclic_reduce is
linear.  run_length_str prints a word with no two equal neighbours,
such as almost every knitting image, with one join over a table of
letter tokens.
"""

from __future__ import annotations

from itertools import chain
from operator import add, eq, neg


Word = tuple[int, ...]

EPSILON: Word = ()


def reduce_word(letters) -> Word:
    """Freely reduce a sequence of signed generator indices."""
    out: list[int] = []
    for x in letters:
        if x == 0:
            raise ValueError("generator index 0 is not allowed")
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


# cancellations, and wings in cyclic_reduce, up to this long are walked
# letter by letter
_WALK = 8


def _append_reduced(out: list[int], w, w_inv: list[int] | None = None) -> None:
    """Append the reduced word w to the reduced list out, in place.

    Only the junction can cancel.  A short cancellation, the common case,
    is walked letter by letter.  A longer one is the longest suffix of
    out equal to a suffix of w_inv, the inverse of w as a list (built
    here when not given): list slices are compared in chunks that double
    while they match, then halve inside the first chunk that does not, so
    k cancelled letters cost O(log k) comparisons of total length O(k).
    The rest of w is copied with one extend.
    """
    n, m = len(out), len(w)
    lim = n if n < m else m
    k = 0
    while k < lim and k < _WALK and out[n - 1 - k] == -w[k]:
        k += 1
    if k == _WALK:
        if w_inv is None:
            w_inv = list(map(neg, reversed(w)))
        step = _WALK
        while k < lim:
            s = step if step < lim - k else lim - k
            if out[n - k - s:n - k] != w_inv[m - k - s:m - k]:
                break
            k += s
            step *= 2
        else:
            step = 1
        step //= 2
        while step:
            if k + step <= lim and \
                    out[n - k - step:n - k] == w_inv[m - k - step:m - k]:
                k += step
            step //= 2
    if k:
        del out[n - k:]
        out.extend(w[k:])
    else:
        out.extend(w)


def wmul(*words: Word) -> Word:
    """Product of freely reduced words, freely reduced.

    Linear in the total length: each factor cancels only at its junction
    with the product so far (see _append_reduced).
    """
    out: list[int] = []
    for w in words:
        # most junctions cancel nothing: skip the kernel's call for them
        if out and w and out[-1] == -w[0]:
            _append_reduced(out, w)
        else:
            out.extend(w)
    return tuple(out)


def winv(w: Word) -> Word:
    return tuple(map(neg, reversed(w)))


def substitute_all(words, images):
    """Yield, for each word in words, the freely reduced product of the
    images it spells: images[i-1] for a letter i > 0, its inverse for -i.

    The images must be freely reduced.  The signed pieces and their
    inverse lists are built once per batch, only for the letters met, so
    every product is one _append_reduced per letter.  A word with a wing,
    c * u * c^-1 with c nonempty, is mapped as phi(c) * phi(u) *
    phi(c)^-1: the letters of c are substituted once, not twice.
    """
    pieces: dict[int, tuple[Word, list[int]]] = {}

    def spell(w, out: list[int]) -> list[int]:
        for x in w:
            piece = pieces.get(x)
            if piece is None:
                img = images[x - 1] if x > 0 else winv(images[-x - 1])
                piece = pieces[x] = (img, list(map(neg, reversed(img))))
            _append_reduced(out, *piece)
        return out

    for w in words:
        if len(w) > 2 and w[0] == -w[-1]:
            core, c = cyclic_reduce(w)
            wing = spell(c, [])
            out = spell(core, wing.copy())
            # the inverse of winv(wing) is wing itself
            _append_reduced(out, winv(wing), wing)
            yield tuple(out)
        else:
            yield tuple(spell(w, []))


def conjugate(w: Word, by: Word) -> Word:
    """w^by = by^-1 * w * by."""
    return wmul(winv(by), w, by)


def _common_prefix(a, b, lim: int, k: int = 0) -> int:
    """The length of the longest common prefix of the sequences a and b
    (of one type), at most lim, given that their first k letters agree:
    slices are compared in chunks that double while they match, then
    halve, so a common prefix of p letters costs O(log p) compares of
    total length O(p)."""
    s = 1
    while k + s <= lim and a[k:k + s] == b[k:k + s]:
        k += s
        s *= 2
    # the prefix ends fewer than s letters after k
    while s > 1:
        s //= 2
        if k + s <= lim and a[k:k + s] == b[k:k + s]:
            k += s
    return k


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Return (core, c) with w = c * core * c^-1 and core cyclically reduced.

    The wing c is the common prefix of w and w^-1, capped at half of w: a
    short one is walked letter by letter, a longer one found by slice
    compares (_common_prefix), so it is linear in len(w), at C speed.
    """
    w = tuple(w)
    m = len(w)
    k = 0
    while m - 2 * k >= 2 and w[k] == -w[m - 1 - k]:
        k += 1
        if k == _WALK:
            half = m // 2
            k = _common_prefix(w, winv(w[m - half:]), half, k)
            break
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


def run_length_str(names, w) -> str:
    """Print a word over the given generator names, runs of one letter
    as name^k ('' for the empty word).

    A word with no two equal neighbours, the common case for knitting
    images, is printed with one join over a table of letter tokens.
    """
    if not any(map(eq, w, w[1:])):
        tokens = {}
        for i, name in enumerate(names, 1):
            tokens[i], tokens[-i] = name, f"{name}^-1"
        return "*".join(map(tokens.__getitem__, w))
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

    The group keys its peripheral classes once, (sign_insensitive,
    canonical word) -> least i with gi in the class, for
    ConjClass.peripheral_index; for n = 2, g1 and g2 = g1^-1 key to 1.

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
        # the letters of normal-form words
        self._letters = frozenset(
            s * i for i in self.free_gen_indices() for s in (1, -1))
        # built from the last generator down, so the least index wins
        self._punctures = {(flag, cyclic_canonical(self.gen(i), flag)): i
                           for i in range(self.n, 0, -1) for flag in (False, True)}

    def __repr__(self):
        return f"SphereGroup({','.join(self.names)})"

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
        if i == self._eliminated:
            return winv(tuple(self.relator[:-1]))
        return (i,)

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

    def complete_images(self, images: list[Word]) -> list[Word]:
        """All n images of a map from the normal-form images of the free
        generators (declaration order, eliminated one skipped); the
        remaining image, if n > 0, is forced by the relator."""
        free = self.free_gen_indices()
        if len(images) != len(free):
            raise ValueError("need one image per free generator")
        by_index = dict(zip(free, images))
        if self.n:
            by_index[self.relator[-1]] = winv(
                wmul(*[by_index[r] for r in self.relator[:-1]]))
        return [by_index[i] for i in range(1, self.n + 1)]

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
        in when sign_insensitive), or None: one lookup in the group's
        puncture keys."""
        return self.group._punctures.get((self.sign_insensitive, self.canonical))


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


class Automorphism:
    """An automorphism of a sphere group, given by generator images.

    Images are stored in normal form for all n generators; the product
    of the images along the relator must reduce to the identity.
    """

    def __init__(self, group: SphereGroup, images, check: bool = True):
        self.group = group
        self.images: tuple[Word, ...] = tuple(group.normal_form(w) for w in images)
        if len(self.images) != group.n:
            raise ValueError(f"expected {group.n} images, got {len(self.images)}")
        if check and wmul(*[self.images[r - 1] for r in group.relator]) != EPSILON:
            raise ValueError("generator images do not satisfy the relator")
        self._inverse: Automorphism | None = None
        self._ppres: bool | None = None

    @classmethod
    def identity(cls, group: SphereGroup) -> "Automorphism":
        return cls(group, [group.gen(i) for i in range(1, group.n + 1)], check=False)

    def __call__(self, w) -> Word:
        return next(self.apply_all((w,)))

    def apply_all(self, words):
        """Yield self(w) for each w in words, in order (see
        substitute_all; nothing is kept on the automorphism)."""
        return substitute_all(map(self.group.normal_form, words), self.images)

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
        return Automorphism(self.group, list(self.apply_all(other.images)),
                            check=False)

    def is_identity_map(self) -> bool:
        return all(self.images[i - 1] == self.group.gen(i)
                   for i in range(1, self.group.n + 1))

    def inverse(self) -> "Automorphism":
        if self._inverse is None:
            from .folding import SubgroupGraph

            G = self.group
            free = G.free_gen_indices()
            graph = SubgroupGraph([self.images[i - 1] for i in free])
            inv_imgs = []
            for i in free:
                expr = graph.express(G.gen(i))
                if expr is None:
                    raise ValueError("map is not invertible (images do not "
                                     "generate the group)")
                # symbol j of the expression stands for the image of the j-th
                # free generator, so the same letters read back as generators
                # give the preimage
                inv_imgs.append(G.normal_form(
                    free[x - 1] if x > 0 else -free[-x - 1] for x in expr))
            self._inverse = Automorphism(G, G.complete_images(inv_imgs),
                                         check=False)
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
    k, i = max((_common_prefix(rays[i], rays[i + m], L), i) for i in range(m))
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
    return Automorphism(phi.group, outer_normal_images(phi.images)[0],
                        check=False)


def inner_conjugator(phi: Automorphism) -> Word | None:
    """h with phi(x) = h * x * h^-1 for every x when phi is inner, else
    None: outer_normal_images(phi.images) returns the generators
    themselves exactly when phi is inner, and then also h."""
    G = phi.group
    images, h = outer_normal_images(phi.images)
    return h if images == [G.gen(i) for i in range(1, G.n + 1)] else None


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
    w = wmul(*[G.gen(k) for k in segment])
    twist, inverse = (Automorphism(G, [conjugate(G.gen(k), by)
                                       if k in segment else G.gen(k)
                                       for k in range(1, G.n + 1)],
                                   check=False)
                      for by in (w, winv(w)))
    twist._inverse, inverse._inverse = inverse, twist
    return twist


def is_peripheral_preserving(phi: Automorphism) -> bool:
    G = phi.group
    cached = getattr(phi, "_ppres", None)
    if cached is None:
        cached = all(
            is_conjugate(G.gen(i), phi.images[i - 1]) is not None
            for i in range(1, G.n + 1)
        )
        phi._ppres = cached
    return cached
