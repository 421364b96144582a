import random

import pytest
from hypothesis import given, settings, strategies as st

from sphmach import words
from sphmach.words import (
    SphereGroup, ConjClass, Automorphism,
    reduce_word, wmul, winv, conjugate, cyclic_reduce, is_conjugate,
    dehn_twist, outer_equal, outer_normalize, is_peripheral_preserving,
)

import zoo


def rand_word(rng, rank, length):
    return reduce_word(
        rng.choice([i for i in range(-rank, rank + 1) if i])
        for _ in range(length))


def test_normal_form_forced_by_relator():
    G = SphereGroup(["a", "b", "c"])
    assert G.normal_form([3]) == (-2, -1)
    assert G.normal_form([]) == ()


def test_normal_form_n4():
    G = SphereGroup(["g1", "g2", "g3", "g4"])
    # substitute g4 = (g1 g2 g3)^-1 in g4*g1 and reduce by hand
    assert G.normal_form([4, 1]) == (-3, -2)


def test_normal_form_is_multiplicative():
    G = SphereGroup(["a", "b", "c", "d"])
    rng = random.Random(0)
    for _ in range(200):
        u = [rng.choice([i for i in range(-4, 5) if i]) for _ in range(rng.randint(0, 12))]
        v = [rng.choice([i for i in range(-4, 5) if i]) for _ in range(rng.randint(0, 12))]
        assert G.normal_form(list(u) + list(v)) == wmul(G.normal_form(u), G.normal_form(v))


def test_relator_override():
    G = SphereGroup(["s", "t", "u"], relator=["u", "t", "s"])
    assert G.normal_form([3, 2, 1]) == ()
    assert G.normal_form([1]) == (-2, -3)


def test_is_conjugate_examples():
    F = SphereGroup(["a", "b", "z"])  # free of rank 2 on a, b
    got = is_conjugate(F.normal_form([1, 2]), F.normal_form([2, 1]))
    assert got is not None
    assert conjugate((1, 2), got) == (2, 1)
    # the empty conjugator is an answer, not a failure
    assert is_conjugate((1, 2), (1, 2)) == ()
    assert is_conjugate((), ()) == ()
    assert is_conjugate((1,), (2,)) is None
    assert is_conjugate((1, 1), (1, 1, 1)) is None


def test_conjugacy_is_an_equivalence_on_random_words():
    rng = random.Random(2)
    for _ in range(300):
        u = rand_word(rng, 3, rng.randint(0, 20))
        c = rand_word(rng, 3, rng.randint(0, 10))
        v = conjugate(u, c)
        got = is_conjugate(u, v)
        assert got is not None
        assert conjugate(u, got) == v
        # symmetry with inverted witness
        back = is_conjugate(v, u)
        assert back is not None
        assert conjugate(v, back) == u


def test_swap_has_no_conjugator_by_brute_force():
    # oracle: check every conjugator of length <= 4 over rank 2
    def words_upto(rank, L):
        out = [()]
        frontier = [()]
        for _ in range(L):
            nxt = []
            for w in frontier:
                for x in [i for i in range(-rank, rank + 1) if i]:
                    if not w or w[-1] != -x:
                        nxt.append(w + (x,))
            out += nxt
            frontier = nxt
        return out

    for w in words_upto(2, 4):
        assert not (conjugate((1,), w) == (2,) and conjugate((2,), w) == (1,))


def _random_twist_product(rng, G, count):
    twists = [dehn_twist(i, j, G) for i in range(1, G.n + 1)
              for j in range(i + 1, G.n + 1)]
    phi = Automorphism.identity(G)
    for _ in range(count):
        t = rng.choice(twists)
        phi = phi.compose(t if rng.random() < 0.5 else t.inverse())
    return phi


def test_outer_normalize_sends_inner_maps_to_identity():
    rng = random.Random(6)
    for n in range(3, 8):
        G = SphereGroup([f"x{i}" for i in range(1, n + 1)])
        for _ in range(40):
            h = rand_word(rng, n - 1, rng.randint(0, 30))
            inn = zoo.inner(G, h)
            out, g = outer_normalize(inn, return_conjugator=True)
            assert out.is_identity_map()
            assert conjugate(G.gen(1), wmul(h, g)) == G.gen(1)
    # rank 1: the identity is the only inner map, and it stays as it is
    G = SphereGroup(["a", "b"])
    assert outer_normalize(zoo.inner(G, (1, 1, 1))).is_identity_map()


def _is_inner(G, chi):
    """Exact oracle: chi is inner when one w has chi(x) = x^w for every
    generator x.  chi(g1) = g1^w0 puts w in <g1> * w0, g1 being a free
    letter; then w = g1^k * w0 needs w0 * chi(g2) * w0^-1 = g1^-k * g2 *
    g1^k, whose letters give k, and the check on every generator
    includes that one."""
    w0 = is_conjugate(G.gen(1), chi.images[0])
    if w0 is None:
        return False
    z = wmul(w0, chi.images[1], winv(w0))
    k = len(z) // 2 if z[:1] != (1,) else -(len(z) // 2)
    w = wmul((1,) * k if k >= 0 else (-1,) * -k, w0)
    return all(conjugate(G.gen(i), w) == img
               for i, img in enumerate(chi.images, 1))


def test_outer_equal_matches_a_common_conjugator_oracle():
    # oracle: psi^-1 . phi is inner when one word conjugates every
    # generator to its image
    rng = random.Random(7)
    seen = {True: 0, False: 0}
    for _ in range(150):
        n = rng.randint(3, 7)
        G = SphereGroup([f"x{i}" for i in range(1, n + 1)])
        phi = _random_twist_product(rng, G, rng.randint(0, 3))
        inn = zoo.inner(G, rand_word(rng, n - 1, rng.randint(0, 12)))
        kind = rng.randrange(3)
        if kind == 0:
            psi = phi.compose(inn)
        elif kind == 1:
            psi = inn.compose(phi)
        else:
            psi = _random_twist_product(rng, G, rng.randint(0, 3)).compose(inn)
        oracle = _is_inner(G, psi.inverse().compose(phi))
        assert outer_equal(phi, psi) == oracle
        assert outer_equal(psi, phi) == oracle
        if kind < 2:
            assert oracle
        seen[oracle] += 1
    assert min(seen.values()) >= 20, seen


def test_dehn_twist_formula():
    G = SphereGroup(["g1", "g2", "g3", "g4"])
    t12 = dehn_twist(1, 2, G)
    assert t12.images[0] == G.normal_form([-2, 1, 2])
    assert t12.images[2] == (3,)
    assert is_peripheral_preserving(t12)


def test_twist_on_all_punctures_is_outer_trivial():
    G = SphereGroup(["g1", "g2", "g3", "g4"])
    assert outer_equal(dehn_twist(1, 4, G), Automorphism.identity(G))
    assert not outer_equal(dehn_twist(1, 2, G), Automorphism.identity(G))


def test_twists_and_inverses():
    G = SphereGroup(["g1", "g2", "g3", "g4"])
    rng = random.Random(4)
    twists = [dehn_twist(i, j, G) for i in range(1, 5) for j in range(i, 5)]
    for _ in range(40):
        phi = Automorphism.identity(G)
        for _ in range(rng.randint(1, 6)):
            phi = phi.compose(rng.choice(twists))
        assert is_peripheral_preserving(phi)
        assert outer_equal(phi.compose(phi.inverse()), Automorphism.identity(G))
        assert phi.compose(phi.inverse()).is_identity_map()


def test_peripheral_detection():
    G = SphereGroup(["a", "b", "c", "d"])
    swap = Automorphism(G, [(2,), (-2, 1, 2), (3,), (4,)], check=False)
    assert not is_peripheral_preserving(swap)
    assert is_peripheral_preserving(Automorphism.identity(G))
    assert is_peripheral_preserving(zoo.inner(G, (1, 2)))


def test_outer_equal_mod_inner():
    G = SphereGroup(["a", "b", "c", "d"])
    phi = dehn_twist(2, 3, G)
    inn = zoo.inner(G, G.normal_form([1, 3, -2]))
    assert outer_equal(phi, inn.compose(phi))
    assert outer_equal(phi, phi)


def test_outer_normalize_shrinks_and_preserves_class():
    G = SphereGroup(["a", "b", "c", "d"])
    rng = random.Random(5)
    for _ in range(50):
        phi = dehn_twist(rng.randint(1, 3), 4, G)
        g = rand_word(rng, 3, rng.randint(0, 15))
        bloated = zoo.inner(G, g).compose(phi).compose(
            zoo.inner(G, winv(g)))
        slim = outer_normalize(bloated)
        assert sum(map(len, slim.images)) <= sum(map(len, bloated.images))
        assert outer_equal(slim, bloated)


def test_outer_normalize_is_a_local_minimum_reached_by_its_conjugator():
    rng = random.Random(9)
    alphabets = {}
    for n in range(3, 8):
        G = SphereGroup([f"g{i}" for i in range(1, n + 1)])
        twists = [dehn_twist(i, j, G)
                  for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        alphabets[n] = G, twists + [t.inverse() for t in twists]
    for _ in range(300):
        n = rng.randint(3, 7)
        G, twists = alphabets[n]
        phi = zoo.inner(G, rand_word(rng, n - 1, rng.randint(0, 6)))
        for _ in range(rng.randint(0, 6)):
            phi = phi.compose(rng.choice(twists))
        out, g = outer_normalize(phi, return_conjugator=True)
        assert list(out.images) == [conjugate(w, g) for w in phi.images]
        letters = [x for x in range(-(n - 1), n) if x]
        total = sum(map(len, out.images))
        for x in letters:
            assert sum(len(conjugate(w, (x,))) for w in out.images) >= total
        # the walk itself: the most shrinking letter, least first, by brute force
        imgs, walk = list(phi.images), []
        while True:
            size = sum(map(len, imgs))
            delta, x = min((sum(len(conjugate(w, (x,))) for w in imgs) - size, x)
                           for x in letters)
            if delta >= 0:
                break
            imgs = [conjugate(w, (x,)) for w in imgs]
            walk.append(x)
        assert (list(out.images), g) == (imgs, reduce_word(walk))


def test_conjclass_equality_and_inversion():
    G = SphereGroup(["a", "b", "c"])
    assert ConjClass(G, (1, 2)) == ConjClass(G, (2, 1))
    assert ConjClass(G, (1,)) != ConjClass(G, (-1,))
    assert ConjClass(G, (1,), sign_insensitive=True) == \
        ConjClass(G, (-1,), sign_insensitive=True)
    assert ConjClass(G, (1,)).peripheral_index() == 1
    assert ConjClass(G, (-2, -1)).peripheral_index() == 3
    assert ConjClass(G, (1, 2, -1)).peripheral_index() == 2
    assert ConjClass(G, (1, 1)).peripheral_index() is None


# ---------------------------------------------------------------------------
# junction cancellation: every product agrees with reducing the plain
# concatenation, also when the cancelled stretch spans several chunks

LETTERS3 = [1, -1, 2, -2, 3, -3]


def reduced_words(max_size=90):
    return st.lists(st.sampled_from(LETTERS3), max_size=max_size).map(reduce_word)


@st.composite
def cancelling_pair(draw):
    """(a, a_tail^-1 * b): the second factor undoes a drawn tail of a."""
    a = draw(reduced_words())
    k = draw(st.integers(0, len(a)))
    b = draw(reduced_words(20))
    return a, reduce_word(winv(a[k:]) + b)


@settings(max_examples=300, deadline=None)
@given(cancelling_pair(), reduced_words(30))
def test_wmul_matches_reduce_word(pair, c):
    a, w = pair
    assert wmul(a, w) == reduce_word(a + w)
    assert wmul(a, w, c, winv(c)) == reduce_word(a + w + c + winv(c))
    assert wmul(w, winv(w)) == ()


@st.composite
def sphere_automorphisms(draw):
    """A product of Dehn twists and their inverses on four punctures:
    long images whose application cancels heavily."""
    G = SphereGroup(["a", "b", "c", "d"])
    phi = Automorphism.identity(G)
    pairs = [(i, j) for i in range(1, 4) for j in range(i + 1, 5)]
    for i, j in draw(st.lists(st.sampled_from(pairs), max_size=8)):
        t = dehn_twist(i, j, G)
        phi = phi.compose(t if draw(st.booleans()) else t.inverse())
    return phi


def _apply_by_concatenation(phi, w):
    letters = []
    for x in phi.group.normal_form(w):
        img = phi.images[abs(x) - 1]
        letters.extend(img if x > 0 else winv(img))
    return reduce_word(letters)


# any letters of the four-puncture group, the eliminated d = 4 included,
# not necessarily reduced
LETTERS4 = [1, -1, 2, -2, 3, -3, 4, -4]


@settings(max_examples=60, deadline=None)
@given(sphere_automorphisms(), sphere_automorphisms(), reduced_words(25),
       st.lists(st.lists(st.sampled_from(LETTERS4), max_size=25), max_size=6))
def test_automorphism_application_matches_reduce_word(phi, psi, w, batch):
    assert phi(w) == _apply_by_concatenation(phi, w)
    batch = [w] + batch + [tuple(v) for v in batch]
    expected = [_apply_by_concatenation(phi, v) for v in batch]
    assert list(phi.apply_all(batch)) == expected
    assert list(phi.apply_all(iter(batch))) == [phi(v) for v in batch]
    both = phi.compose(psi)
    assert both.images == tuple(_apply_by_concatenation(phi, im)
                                for im in psi.images)
    assert both(w) == phi(psi(w))


# normal_form against a letter-by-letter reference, and cyclic_reduce on
# long wings

def _normal_form_reference(G, letters):
    """Substitute the eliminated generator one letter at a time, pushing
    each letter onto a freely reduced stack."""
    gone, body = G.relator[-1], G.relator[:-1]
    out = []
    for x in letters:
        if abs(x) == gone:
            seq = [-i for i in reversed(body)] if x > 0 else list(body)
        else:
            seq = [x]
        for y in seq:
            if out and out[-1] == -y:
                out.pop()
            else:
                out.append(y)
    return tuple(out)


@st.composite
def group_and_letters(draw):
    """A sphere group with a drawn relator order (so any generator may be
    the eliminated one) and a sequence of its letters, unreduced pairs
    and eliminated letters included."""
    n = draw(st.integers(2, 5))
    relator = draw(st.permutations(range(1, n + 1)))
    G = SphereGroup([f"g{i}" for i in range(1, n + 1)], relator=relator)
    letters = draw(st.lists(st.sampled_from(
        [s * i for i in range(1, n + 1) for s in (1, -1)]), max_size=40))
    return G, letters


@settings(max_examples=300, deadline=None)
@given(group_and_letters(), st.booleans())
def test_normal_form_matches_letter_by_letter_reference(drawn, as_list):
    G, letters = drawn
    expected = _normal_form_reference(G, letters)
    got = G.normal_form(letters if as_list else tuple(letters))
    assert type(got) is tuple and got == expected
    # normal-form words come back unchanged, from lists too
    assert G.normal_form(expected) is expected
    assert G.normal_form(list(expected)) == expected


@settings(max_examples=100, deadline=None)
@given(group_and_letters(), st.integers(0, 40),
       st.sampled_from([0, 6, -6, 99, -99]))
def test_normal_form_rejects_out_of_range_letters(drawn, at, bad):
    G, letters = drawn
    letters.insert(min(at, len(letters)), bad)
    with pytest.raises(IndexError):
        G.normal_form(letters)
    with pytest.raises(IndexError):
        G.normal_form(tuple(letters))


@st.composite
def long_reduced_words(draw):
    """A reduced word of 100 to 900 letters, grown from a drawn seed
    (drawing that many letters one by one is slow)."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    size = draw(st.integers(100, 900))
    w = []
    while len(w) < size:
        x = rng.choice(LETTERS3)
        if not w or w[-1] != -x:
            w.append(x)
    return tuple(w)


@settings(max_examples=200, deadline=None)
@given(long_reduced_words(), reduced_words(20))
def test_cyclic_reduce_splits_off_the_wings(c, u):
    w = wmul(c, u, winv(c))
    core, wing = cyclic_reduce(w)
    assert wing + core + winv(wing) == w
    assert len(core) < 2 or core[0] != -core[-1]
    assert core == reduce_word(core)
    # the wing is all of c unless u cancels into it
    if u and u[0] != -u[-1] and (not c or c[-1] not in (-u[0], u[-1])):
        assert wing == c and core == u


# the wing path of substitute_all: a conjugate c * u * c^-1 is mapped as
# phi(c) * phi(u) * phi(c)^-1

@st.composite
def winged_words(draw):
    """A long conjugate c * u * c^-1 of a short word u over the four-puncture
    group, or a word of 0 to 2 letters."""
    if draw(st.booleans()):
        return draw(reduced_words(2))
    c = draw(long_reduced_words())
    return wmul(c, draw(reduced_words(6)), winv(c))


@settings(max_examples=150, deadline=None)
@given(sphere_automorphisms(), st.lists(winged_words(), min_size=1, max_size=4),
       long_reduced_words())
def test_substitution_of_winged_words_matches_concatenation(phi, batch, c):
    assert list(phi.apply_all(batch)) == \
        [_apply_by_concatenation(phi, w) for w in batch]
    # composing with an inner map sends every image to a long conjugate
    inner = zoo.inner(phi.group, c)
    for psi in (inner, inner.compose(phi)):
        assert phi.compose(psi).images == tuple(
            _apply_by_concatenation(phi, im) for im in psi.images)


def test_composed_twist_products_match_concatenation():
    rng = random.Random(11)
    G = SphereGroup(["a", "b", "c", "d", "e"])
    for _ in range(6):
        phi = _random_twist_product(rng, G, 12)
        psi = _random_twist_product(rng, G, 12)
        assert max(map(len, psi.images)) > 2
        assert phi.compose(psi).images == tuple(
            _apply_by_concatenation(phi, im) for im in psi.images)


# run_length_str against the letter-by-letter printer it replaces for
# words without runs

def _run_length_reference(names, w):
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


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(LETTERS3), max_size=40), st.booleans())
def test_run_length_str_matches_letter_by_letter_reference(letters, as_list):
    names = ["a", "b2", "c_x"]
    w = letters if as_list else tuple(letters)
    assert words.run_length_str(names, w) == _run_length_reference(names, w)


@pytest.mark.parametrize("w, text", [
    ((), ""), ((1,), "a"), ((-1,), "a^-1"), ((2, -1, 3), "b*a^-1*c"),
    ((1, 1, -2, -2, -2, 3), "a^2*b^-3*c"), ((-3, -3), "c^-2"),
    ((2, 1, 2), "b*a*b"),
])
def test_run_length_str_examples(w, text):
    assert words.run_length_str(["a", "b", "c"], w) == text
    assert _run_length_reference(["a", "b", "c"], w) == text
