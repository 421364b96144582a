import random
from collections import deque

import pytest
from hypothesis import example, given, settings, strategies as st

from sphmach import mcbiset, words
from sphmach.machine import pre_compose
from sphmach.words import (
    SphereGroup, ConjClass, Automorphism,
    reduce_word, wmul, winv, conjugate, cyclic_reduce, is_conjugate,
    dehn_twist, outer_equal, outer_normalize, inner_conjugator,
    is_peripheral_preserving, substitute_all,
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
            assert outer_normalize(inn).is_identity_map()
            _, g = words.outer_normal_images(inn.images)
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


def test_inner_conjugator_recovers_the_conjugator_of_inner_maps():
    rng = random.Random(23)
    for n in range(2, 8):
        G = SphereGroup([f"x{i}" for i in range(1, n + 1)])
        for _ in range(30):
            phi = zoo.inner(G, rand_word(rng, n - 1, rng.randint(0, 20)))
            h = inner_conjugator(phi)
            assert h is not None
            assert all(wmul(h, G.gen(i), winv(h)) == phi.images[i - 1]
                       for i in range(1, n + 1))


def test_inner_conjugator_rejects_the_non_inner_twists():
    for n in range(3, 8):
        G = SphereGroup([f"x{i}" for i in range(1, n + 1)])
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                t = dehn_twist(i, j, G)
                # t_{1,n}, t_{1,n-1} and t_{2,n} are the inner twists
                inner = (i, j) in {(1, n), (1, n - 1), (2, n)}
                assert _is_inner(G, t) == inner, (n, i, j)
                h = inner_conjugator(t)
                assert (h is not None) == inner, (n, i, j)
                if inner:
                    assert all(wmul(h, G.gen(k), winv(h)) == t.images[k - 1]
                               for k in range(1, n + 1))


def test_dehn_twist_formula():
    G = SphereGroup(["g1", "g2", "g3", "g4"])
    t12 = dehn_twist(1, 2, G)
    assert t12.images[0] == G.normal_form([-2, 1, 2])
    assert t12.images[2] == (3,)
    assert is_peripheral_preserving(t12)
    # the closed-form inverse is the one folding finds
    for H in (G, SphereGroup(["a", "b", "c", "d"], relator="dcba")):
        for i in range(1, 5):
            for j in range(i, 5):
                t = dehn_twist(i, j, H)
                assert t.inverse() == Automorphism(H, t.images).inverse()
                assert t.inverse().inverse() is t


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
    """A local minimum, reached by the letter-by-letter walk.  On ties,
    where some letter keeps the least total length and the minimisers
    are more than one point, both stop at the one nearest to 1."""
    rng = random.Random(9)
    alphabets = {}
    for n in range(3, 8):
        G = SphereGroup([f"g{i}" for i in range(1, n + 1)])
        twists = [dehn_twist(i, j, G)
                  for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        alphabets[n] = G, twists + [t.inverse() for t in twists]
    ties = 0
    for _ in range(300):
        n = rng.randint(3, 7)
        G, twists = alphabets[n]
        phi = zoo.inner(G, rand_word(rng, n - 1, rng.randint(0, 6)))
        for _ in range(rng.randint(0, 6)):
            phi = phi.compose(rng.choice(twists))
        out, g = words.outer_normal_images(phi.images)
        assert out == [conjugate(w, g) for w in phi.images]
        assert list(outer_normalize(phi).images) == out
        letters = [x for x in range(-(n - 1), n) if x]
        total = sum(map(len, out))
        moved = [sum(len(conjugate(w, (x,))) for w in out) for x in letters]
        assert min(moved) >= total
        tied = [x for x, m in zip(letters, moved) if m == total]
        if tied:
            ties += 1
            # the other minimisers lie farther from 1
            assert all(len(wmul(g, (x,))) > len(g) for x in tied)
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
        assert (out, g) == (imgs, reduce_word(walk))
    assert ties >= 40, ties


# the closed-form outer normalisation against the letter-by-letter walk
# it replaces

def _walk_reference(phi):
    """(images, g) of the descent one letter per step: conjugate every
    image by the letter x that more than m of the 2m image ends agree on
    (m the nonempty images), while there is one."""
    imgs = [deque(w) for w in phi.images]
    live = [dq for dq in imgs if dq]
    g = []
    while live:
        score = {}
        for dq in live:
            for x in (dq[0], -dq[-1]):
                score[x] = score.get(x, 0) + 1
        x = max(score, key=score.get)
        if score[x] <= len(live):
            break
        g.append(x)
        for dq in live:
            if dq[0] == x:
                dq.popleft()
            else:
                dq.appendleft(-x)
            if dq and dq[-1] == -x:
                dq.pop()
            else:
                dq.append(x)
    return [tuple(dq) for dq in imgs], reduce_word(g)


def _assert_matches_walk(phi):
    images, g = words.outer_normal_images(phi.images)
    assert (images, g) == _walk_reference(phi)
    out = outer_normalize(phi)
    assert list(out.images) == images
    return out, g


def test_outer_normalize_matches_the_walk_on_pilgrim_knittings(pilgrim_mcb):
    mcb, mf = pilgrim_mcb()
    G = mf.machine.target
    rng = random.Random(17)
    knits = [e.knitting_auto for e in mcb.table.values()]
    assert len(knits) == 360
    moved = 0
    for knit in knits:
        _assert_matches_walk(knit)
        h = rand_word(rng, G.rank, rng.randint(1, 30))
        for phi in (zoo.inner(G, h).compose(knit),
                    knit.compose(zoo.inner(G, h))):
            out, g = _assert_matches_walk(phi)
            moved += bool(g)
            assert outer_equal(out, knit)
    assert moved > 600


def test_the_solve_normalises_its_raw_images_as_the_walk_does(pilgrim_mcb,
                                                              monkeypatch):
    """The knitting solve hands its image list, forced image included, to
    outer_normal_images without building an automorphism: on the edges
    of the pilgrim biset, re-solved, each result is the walk's."""
    mcb, mf = pilgrim_mcb()
    G = mf.machine.target
    seen = []

    def checked(images):
        got = words.outer_normal_images(images)
        expected = _walk_reference(Automorphism(G, images, check=False))
        seen.append((got[0], got[1]) == expected)
        return got

    monkeypatch.setattr(mcbiset, "outer_normal_images", checked)
    edges = sorted(mcb.table.values(), key=lambda e: (e.source, e.gen))
    for e in edges[::9]:
        M = mcb.machines
        knit, _ = mcbiset._KnitSolver(M[e.target]).solve(
            pre_compose(M[e.source], mcb.gens[e.gen]))
        assert knit == e.knitting_auto
    assert len(seen) == len(edges[::9]) and all(seen)


def test_outer_normalize_matches_the_walk_on_identity_inner_and_rank_1():
    rng = random.Random(18)
    for n in (0, 2, 3, 4, 6):
        G = SphereGroup([f"x{i}" for i in range(1, n + 1)])
        out, g = _assert_matches_walk(Automorphism.identity(G))
        assert out.is_identity_map() and g == ()
        for _ in range(30):
            h = rand_word(rng, G.rank, rng.randint(0, 40) if n else 0)
            out, g = _assert_matches_walk(zoo.inner(G, h))
            assert out.is_identity_map()
    # rank 1: powers of one letter have no wings, so nothing moves
    G = SphereGroup(["a", "b"])
    for k in (-3, -1, 2, 5):
        phi = Automorphism(G, [(1,) * k if k > 0 else (-1,) * -k,
                               (-1,) * k if k > 0 else (1,) * -k], check=False)
        out, g = _assert_matches_walk(phi)
        assert out == phi and g == ()


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
# concatenation, also when the letter-by-letter walk cancels a stretch of
# about 10^5 letters

LETTERS3 = [1, -1, 2, -2, 3, -3]


def _random_reduced_word(seed, size):
    """A reduced word of size letters over three generators."""
    rng = random.Random(seed)
    w = [rng.choice(LETTERS3)]
    while len(w) < size:
        x = rng.choice(LETTERS3)
        if x != -w[-1]:
            w.append(x)
    return tuple(w)


LONG = _random_reduced_word(5, 10 ** 5)


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
@example((LONG, reduce_word(winv(LONG[5:]) + (2, 3))), LONG)
def test_wmul_matches_reduce_word(pair, c):
    a, w = pair
    assert wmul(a, w) == reduce_word(a + w)
    assert wmul(a, w, c, winv(c)) == reduce_word(a + w + c + winv(c))
    assert wmul(w, winv(w)) == ()


@st.composite
def step_tables(draw):
    """(states, a letter-major step table over LETTERS3): in about half
    the tables some steps, and some whole letters, are left out."""
    states = draw(st.integers(1, 3))
    holes = draw(st.booleans())
    steps = {}
    for x in LETTERS3:
        if holes and draw(st.integers(0, 5)) == 0:
            continue
        steps[x] = {}
        for k in range(states):
            if holes and draw(st.integers(0, 5)) == 0:
                continue
            steps[x][k] = (draw(reduced_words(6)),
                           draw(st.integers(0, states - 1)))
    return states, steps


def _walk_by_products(steps, k, letters):
    """(product of the step words by wmul, end state) from state k, or
    KeyError(state, letter) at the first missing step."""
    met = []
    for x in letters:
        if k not in steps.get(x, {}):
            raise KeyError(k, x)
        w, k = steps[x][k]
        met.append(w)
    return wmul(*met), k


@settings(max_examples=300, deadline=None)
@given(step_tables(), st.data())
def test_walk_matches_the_products_of_its_steps(table, data):
    states, steps = table
    starts = data.draw(st.lists(st.integers(0, states - 1), max_size=4))
    # not reduced, so that step words cancel against each other too
    letters = tuple(data.draw(st.lists(
        st.sampled_from(LETTERS3 * 3 + [4, -4]), max_size=12)))
    want = []
    for k in starts:
        try:
            want.append(_walk_by_products(steps, k, letters))
        except KeyError as missing:
            with pytest.raises(KeyError) as exc:
                words.walk(steps, starts, letters)
            assert exc.value.args == missing.args
            return
    assert words.walk(steps, starts, letters) == (
        tuple(w for w, _ in want), tuple(k for _, k in want))


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
    assert [phi(v) for v in batch] == expected
    forms = [phi.group.normal_form(v) for v in batch]
    assert list(substitute_all(forms, phi.images)) == expected
    # the kernel reads a one-shot iterator of words as well
    assert list(substitute_all(iter(forms), phi.images)) == expected
    both = phi.compose(psi)
    assert both.images == tuple(_apply_by_concatenation(phi, im)
                                for im in psi.images)
    assert both(w) == phi(psi(w))


def test_automorphism_call_normalises_its_word():
    G = SphereGroup(["a", "b", "c", "d"])
    phi = dehn_twist(1, 2, G).compose(dehn_twist(2, 4, G).inverse())
    # d, the eliminated generator, and words with adjacent inverse letters
    for w in ([4], [-4, 1], [1, 2, -2, 3], [4, -4], [2, -4, 4, -2, 4]):
        assert phi(w) == _apply_by_concatenation(phi, w) == phi(G.normal_form(w))
    # a letter outside the group is refused by the normal form, not read
    # as an image index
    with pytest.raises(IndexError, match="letter 0 out of range"):
        phi([1, 0])
    with pytest.raises(IndexError, match="letter -5 out of range"):
        phi([-5])


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


def _reduce_word_reference(letters):
    """Free reduction on a stack, one letter at a time."""
    out = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(LETTERS3), max_size=40),
       st.sampled_from(["tuple", "list", "generator"]))
def test_reduce_word_matches_a_stack_reference(letters, form):
    expected = _reduce_word_reference(letters)
    for w in (letters, expected):
        seq = {"tuple": tuple, "list": list,
               "generator": lambda w: (x for x in w)}[form](w)
        got = reduce_word(seq)
        assert type(got) is tuple and got == expected
    # a reduced tuple comes back as it is
    assert reduce_word(expected) is expected


@pytest.mark.parametrize("letters", [(0,), (1, 0), (2, 0, -2), [0],
                                     (x for x in (1, 0))])
def test_reduce_word_rejects_the_letter_0(letters):
    with pytest.raises(ValueError, match="index 0"):
        reduce_word(letters)


@st.composite
def long_reduced_words(draw):
    """A reduced word of 100 to 900 letters, grown from a drawn seed
    (drawing that many letters one by one is slow)."""
    seed = draw(st.integers(0, 2 ** 32))
    return _random_reduced_word(seed, draw(st.integers(100, 900)))


def _cyclic_reduce_reference(w):
    """Strip the letter pairs w[k], w[-1-k] that are inverse one by one,
    while two letters or more are left between them."""
    m, k = len(w), 0
    while m - 2 * k >= 2 and w[k] == -w[m - 1 - k]:
        k += 1
    return w[k:m - k], w[:k]


@settings(max_examples=300, deadline=None)
@given(st.one_of(long_reduced_words(), reduced_words(20)),
       st.one_of(reduced_words(2), reduced_words(20)))
# LONG ends in -2, which (1, 3) does not cancel: the wing is all of LONG
@example(LONG, (1, 3))
def test_cyclic_reduce_splits_off_the_wings(c, u):
    w = wmul(c, u, winv(c))
    core, wing = cyclic_reduce(w)
    assert (core, wing) == _cyclic_reduce_reference(w)
    assert wing + core + winv(wing) == w
    assert len(core) < 2 or core[0] != -core[-1]
    assert core == reduce_word(core)
    # the wing is all of c unless u cancels into it
    if u and u[0] != -u[-1] and (not c or c[-1] not in (-u[0], u[-1])):
        assert wing == c and core == u
    # unreduced words: the strip stops with fewer than two letters left
    for v in (c + winv(c), c + u + winv(c)):
        assert cyclic_reduce(v) == _cyclic_reduce_reference(v)


@pytest.mark.parametrize("size", [0, 1, 2, 7, 8, 9, 16, 17, 450, 899, 900,
                                  10 ** 5])
@pytest.mark.parametrize("u", [(1,), (-2,), (1, 2), (3, -1), (2, 2)])
def test_cyclic_reduce_peels_long_wings_off_one_and_two_letter_cores(size, u):
    rng = random.Random(size)
    c = [rng.choice([x for x in LETTERS3 if x not in (-u[0], u[-1])])]
    while len(c) < size:
        c.append(rng.choice([x for x in LETTERS3 if x != -c[-1]]))
    c = tuple(reversed(c))[:size]
    w = c + u + winv(c)
    assert w == reduce_word(w) and len(w) % 2 == len(u) % 2
    assert cyclic_reduce(w) == (u, c) == _cyclic_reduce_reference(w)
    # c * c^-1 unreduced: the strip takes all of c and leaves nothing
    assert cyclic_reduce(c + winv(c)) == ((), c) == \
        _cyclic_reduce_reference(c + winv(c))


# substitute_all on conjugates c * u * c^-1 with long c, whose images
# cancel at both junctions of phi(u)

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
    assert list(substitute_all(batch, phi.images)) == \
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
