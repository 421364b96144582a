import functools
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sphmach import cli
from sphmach.mcbiset import (
    compute_mcbiset, conjugacy_iterate, full_twist_generators,
    lift_multiset_in_mcbiset,
)
from sphmach.words import SphereGroup, conjugate, reduce_word, wmul
from sphmach.machine import tensor
from sphmach.machfile import (
    ParseError, parse_machine_file, print_machine_file, parse_word,
    parse_twist_word, parse_cycles, mcb_to_json, mcb_from_json, save_mcb,
    load_mcb, _WordReader, MAX_WORD_LETTERS,
)
from sphmach.cli import main

import zoo
from zoo import MACHINES


def run_cli(*args, capsys=None):
    code = main(list(args))
    return code


def test_round_trip_on_fixture_corpus():
    for mf in (zoo.z2(), zoo.pilgrim(), zoo.z5_marked(), zoo.centralizer7()):
        text = print_machine_file(mf)
        assert parse_machine_file(text) == mf
        assert parse_machine_file(print_machine_file(parse_machine_file(text))) == mf


def test_round_trip_with_a_target_block():
    # a target group of its own is printed as a target block; the entry p
    # prints in the target's normal form, where p = q^-1
    text = ("group: a,b\nrelator: a*b\ntarget: p,q\ntarget_relator: q*p\n"
            "a=<,p>(1,2)\nb=<q,>(1,2)\n")
    mf = parse_machine_file(text)
    printed = print_machine_file(mf)
    assert printed == text.replace("<,p>", "<,q^-1>")
    assert parse_machine_file(printed) == mf


@pytest.mark.parametrize("line, message", [
    ("auto sigma x1,x2", "automorphism line needs name = images"),
    ("auto sigma = x1,x2,x3,x4,x5,x6",
     "automorphism sigma: expected 7 images, got 6"),
    ("auto sigma = x2,x1,x3,x4,x5,x6,x7",
     "automorphism sigma: generator images do not satisfy the relator"),
])
def test_malformed_auto_lines_raise_parse_error(line, message):
    # the file's own sigma goes, so that the line is not a second sigma
    lines = [ln for ln in (MACHINES / "centralizer7.mach").read_text()
             .splitlines() if not ln.startswith("auto sigma ")] + [line]
    with pytest.raises(ParseError) as exc:
        parse_machine_file("\n".join(lines))
    assert str(exc.value) == f"{message} at line {len(lines)}"


def test_long_automorphism_name_is_elided():
    # images that break the relator, under a 5,000-character name
    name = "m" * 5000
    text = (MACHINES / "fbiset.mach").read_text() + f"auto {name} = d,c,b,a\n"
    with pytest.raises(ParseError) as exc:
        parse_machine_file(text)
    message = str(exc.value)
    assert message.startswith("automorphism " + "m" * 24 + "..." + "m" * 24 +
                              " (5000 characters): ")
    assert len(message) < 200


def test_cli_mcbiset_elides_a_long_generator_that_is_not_peripheral(
        tmp_path, capsys):
    # a -> a*b is a Nielsen move, an automorphism of the free group on
    # a, b, c, that keeps the relator but sends a to no conjugate of a
    name = "w" * 5000
    path = tmp_path / "nielsen.mach"
    path.write_text((MACHINES / "fbiset.mach").read_text() +
                    f"auto {name} = a*b,b,c,b^-1*a^-1*b^-1*c^-1\n")
    assert run_cli("mcbiset", str(path), "--gens", name) == 3
    err = capsys.readouterr().err
    assert err.rstrip().endswith(" (5000 characters) is not "
                                 "peripheral-preserving")
    assert len(err) < 200


def test_cli_iso_on_the_empty_group(tmp_path, capsys):
    # n = 0: no free generator, and no image forced by the relator
    path = str(tmp_path / "empty.mach")
    Path(path).write_text("group:\n")
    assert run_cli("--json", "iso", path, path) == 0
    assert json.loads(capsys.readouterr().out)["result"] == {
        "same_left_orbit": True, "knitting": []}


# a degree-1 machine file with every header line, one curve and one auto
_HEADED = ["group: a,b,c,d", "relator: a*b*c*d", "target: p,q,r,s",
           "target_relator: p*q*r*s", "degree: 1", "a=<p>", "b=<q>",
           "c=<r>", "d=<s>", "curves: a*b", "auto m = a,b,c,d"]


@pytest.mark.parametrize("repeat, first, message", [
    ("group: a,b,c,d", 1, "second 'group:' line"),
    ("relator: a*b*c*d", 2, "second 'relator:' line"),
    ("Target: p,q,r,s", 3, "second 'target:' line"),
    ("target_relator: p*q*r*s", 4, "second 'target_relator:' line"),
    ("degree: 1", 5, "second 'degree:' line"),
    ("curves: b*c", 10, "second 'curves:' line"),
    ("auto m = b^a,a^b*c,c,d", 11, "second automorphism 'm'"),
    ("auto  m= a,b,c,d", 11, "second automorphism 'm'"),
])
def test_repeated_header_and_auto_lines_raise_parse_error(repeat, first,
                                                          message, tmp_path):
    assert set(parse_machine_file("\n".join(_HEADED)).autos) == {"m"}
    # the repeat after every line, or after the first line only: the
    # error is at the later of the two
    for at in (len(_HEADED), 1):
        lines = _HEADED[:at] + [repeat] + _HEADED[at:]
        later = max(at + 1, first + (first > at))
        with pytest.raises(ParseError) as exc:
            parse_machine_file("\n".join(lines))
        assert str(exc.value) == f"{message} at line {later}"
    path = tmp_path / "repeat.mach"
    path.write_text("\n".join(lines) + "\n")
    assert main(["validate", str(path)]) == 3
    # another name is another automorphism
    other = parse_machine_file("\n".join(_HEADED + ["auto M = a,b,c,d"]))
    assert set(other.autos) == {"m", "M"}


@pytest.mark.parametrize("text, factor", [
    ("a^100000000", "a^100000000"),
    ("b*a^-3000000", "a^-3000000"),
    ("a^2000000*b^200000", "b^200000"),
    ("a^2000000*a^2000000", "a^2000000"),
    ("a^2097152*b^c", "b^c"),
    ("a^2097000*b^(c^1000)*c", "b^(c^1000)"),
    ("a^(b^(c^1000000))", "a^(b^(c^1000000))"),
    ("a^(b*c^2000000)", "a^(b*c^2000000)"),
])
def test_word_expansion_is_bounded_before_it_happens(text, factor, tmp_path,
                                                     capsys):
    G = SphereGroup(["a", "b", "c"])
    with pytest.raises(ParseError) as exc:
        parse_word(text, G)
    assert str(exc.value).startswith(
        f"factor {factor!r} makes the word longer than {MAX_WORD_LETTERS} "
        "letters")
    mach = tmp_path / "long.mach"
    mach.write_text(f"group: a,b,c\na=<{text}>\nb=<b>\nc=<c>\n")
    assert run_cli("validate", str(mach)) == 3
    assert repr(factor) in capsys.readouterr().err
    assert run_cli("classify-twist", str(MACHINES / "rabbit.mcb"),
                   text.replace("a", "t").replace("b", "s")
                   .replace("c", "u")) == 3


@pytest.mark.parametrize("depth", [500, 5000])
def test_deeply_nested_words_stop_at_the_bound(depth, tmp_path, capsys):
    # a^(a^(...(b)...)) passes the bound after 21 levels: the parser stops
    # there instead of reading the rest through its own recursion
    text = "a^(" * depth + "b" + ")" * depth
    G = SphereGroup(["a", "b", "c"])
    with pytest.raises(ParseError, match="makes the word longer"):
        parse_word(text, G)
    mach = tmp_path / "deep.mach"
    mach.write_text(f"group: a,b,c\na=<{text}>\nb=<b>\nc=<c>\n")
    assert run_cli("validate", str(mach)) == 3
    assert "makes the word longer" in capsys.readouterr().err
    assert run_cli("classify-twist", str(MACHINES / "rabbit.mcb"),
                   text.replace("a", "t").replace("b", "s")) == 3


@pytest.mark.parametrize("text", [
    "a^(" * 5000 + "b" + ")" * 5000,
    "a^" + "9" * 50000,
])
def test_messages_elide_long_input(text):
    # the factor is named by its head, its tail and its length
    G = SphereGroup(["a", "b", "c"])
    with pytest.raises(ParseError) as exc:
        parse_word(text, G)
    message = str(exc.value)
    assert len(message) < 200
    assert message.startswith(f"factor {text[:20]!r}"[:-1])
    assert f"({len(text)} characters) makes the word longer" in message
    # so are unknown names and lines that do not parse
    name = "z" * 100000
    for row in (f"a=<a*{name}>", f"{name}=<a>", f"a=<a>{name}",
                f"relator: a*{name}"):
        with pytest.raises(ParseError) as exc:
            parse_machine_file(f"group: a,b\n{row}\nb=<b>\n")
        assert len(str(exc.value)) < 200
    with pytest.raises(ParseError) as exc:
        parse_cycles(f"(1,2){name}", 2)
    assert len(str(exc.value)) < 200


def test_cycle_row_and_option_messages_elide_long_input(capsys):
    # 60 characters or fewer print whole (test_parse_errors_carry_positions)
    name = "z" * 100000
    with pytest.raises(ParseError) as exc:
        parse_cycles(f"(1,{'9' * 100000})", 2)
    assert str(exc.value).startswith("bad cycle point in (1,9999")
    assert "(100002 characters)" in str(exc.value)
    assert len(str(exc.value)) < 200
    with pytest.raises(ParseError) as exc:
        parse_machine_file(f"group: a,{name}\na=<a>\n")
    assert str(exc.value).startswith("missing rows for zzz")
    assert len(str(exc.value)) < 200
    with pytest.raises(ParseError, match=r"^missing rows for b$"):
        parse_machine_file("group: a,b\na=<a>\n")
    c7 = str(MACHINES / "centralizer7.mach")
    fb = str(MACHINES / "fbiset.mach")
    long_curve = "c" + "0" * 4000 + "1"  # the label of curve 1
    capsys.readouterr()
    for args in (("solve-twists", c7, f"--theta={'9' * 100000}a,b"),
                 ("promote", c7, c7, "--map", f"{name}:x1"),
                 ("promote", c7, c7, "--map", name),
                 ("promote", c7, c7, "--map",
                  f"{long_curve}:c1,{long_curve}:c0"),
                 ("mcbiset", fb, "--gens", name)):
        assert run_cli(*args) == 3
        err = capsys.readouterr().err
        assert " characters)" in err and len(err) < 400, args


def test_words_up_to_the_bound_parse():
    G = SphereGroup(["a", "b", "c"])
    assert parse_word(f"a^{MAX_WORD_LETTERS}", G) == (1,) * MAX_WORD_LETTERS
    assert len(parse_word(f"b*a^{MAX_WORD_LETTERS - 1}", G)) == \
        MAX_WORD_LETTERS
    with pytest.raises(ParseError):
        parse_word(f"b*a^{MAX_WORD_LETTERS}", G)
    # an exponent of more digits than int() converts
    with pytest.raises(ParseError, match="makes the word longer"):
        parse_word("b*a^" + "9" * 5000, G)
    assert parse_twist_word("t^1000000", ["s", "t", "u"]) == (2,) * 10 ** 6
    assert run_cli("classify-twist", str(MACHINES / "rabbit.mcb"),
                   "t^1000000", "--max-steps", "0") == 2


def test_cli_multicurve_commands_need_a_multicurve(capsys):
    # fbiset.mach has no curves: block
    for command in ("thurston-matrix", "obstructed", "split"):
        assert run_cli(command, str(MACHINES / "fbiset.mach")) == 3
        assert capsys.readouterr().err == \
            "error: no multicurve: pass --curves or add a curves: block\n"


def test_gap_session_strings_parse():
    text = """group: x1,x2,x3,x4,x5,x6,x7
relator: x1*x2*x3*x4*x5*x6*x7
x1=<,x3*x4,x4^-1*x3^-1,x2*x3*x4*x5,x5^-1*x4^-1*x3^-1*x2^-1,x1>(2,3)(4,5)
x2=<,,x4^-1*x3^-1,x2*x3*x4,x5^-1*x4^-1*x3^-1*x2^-1,x2*x3*x4*x5>(1,2)(3,4)(5,6)
x3=<x3,,,,,>
x4=<x4,,,,,>
x5=<,,x5,,,>(1,2)(3,4)(5,6)
x6=<,,,,,x6>(2,3)
x7=<,,,,,x7>(4,5)
"""
    mf = parse_machine_file(text)
    assert mf.machine.degree == 6
    assert mf.machine == zoo.centralizer7().machine


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as exc:
        parse_machine_file("group: a,b\na=<,a>(1,2)\nb=<b>(1,2)\n")
    assert "line 3" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        parse_machine_file("group: a,b\na=<,q>(1,2)\nb=<b,>(1,2)\n")
    assert "unknown generator" in str(exc.value)
    with pytest.raises(ParseError):
        parse_machine_file("group: a,b\na=<,a>(1,3)\nb=<b,>(1,2)\n")
    with pytest.raises(ParseError) as exc:
        parse_machine_file("group: a,b\ndegree: x\na=<,a>(1,2)\nb=<b,>(1,2)\n")
    assert str(exc.value) == "bad degree 'x' at line 2"
    with pytest.raises(ParseError) as exc:
        parse_machine_file("group: a,b\na=<,a>(1,2 2)\nb=<b,>(1,2)\n")
    assert str(exc.value) == "bad cycle point in (1,2 2) at line 2"
    target = ("group: a,b\ntarget: p,q\ntarget_relator: q*zz\n"
              "a=<,p>(1,2)\nb=<q,>(1,2)\n")
    with pytest.raises(ParseError) as exc:
        parse_machine_file(target)
    assert str(exc.value) == "bad target block: 'zz' at line 3"
    with pytest.raises(ParseError, match="bad target block"):
        parse_machine_file(target.replace("target: p,q", "target: p,p"))
    with pytest.raises(ParseError) as exc:
        parse_machine_file((MACHINES / "centralizer7.mach").read_text().replace(
            "curves: x3*x4,", "curves: x3,"))
    assert str(exc.value) == "bad curves: curve x3 is peripheral at line 10"


# the machine files, plus texts with conjugation exponents, a target
# block, a declared degree and (refused) finite orders, as seeds for the
# parser fuzz test
_MACHINE_TEXTS = [p.read_text() for p in sorted(MACHINES.glob("*.mach"))] + [
    "group: a,b,c,d\nrelator: d*c*b*a\na=<a^(b*c),b^-1>(1,2)\nb=<b^-1,b>(1,2)\n"
    "c=<c,>\nd=<,d^(a^-1)>\nauto s = a,b^(c*b),c^(c*b),d\n",
    "group: a,b\ntarget: p,q\ntarget_relator: q*p\ndegree: 2\n"
    "a=<,p>(1,2)\nb=<q,>(1,2)\n",
    "group: a,b,c\norders: a=3\nrelator: c*b*a\na=<a>\nb=<b>\nc=<c>\n",
]
_MACHINE_TOKENS = [
    "a", "b", "q", "x1", "*", "^", "-1", "(", ")", ",", "<", ">", "=", " ",
    "\n", "#", ":", "0", "1", "2", "3", "x", "a=2", "group:", "relator:",
    "target:", "target_relator:", "orders:", "degree:", "curves:", "auto ",
]


@st.composite
def mutated_machine_texts(draw):
    text = draw(st.sampled_from(_MACHINE_TEXTS))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(["insert", "delete", "repeat line"]))
        if kind == "insert":
            text = text[:at] + draw(st.sampled_from(_MACHINE_TOKENS)) + text[at:]
        elif kind == "delete":
            text = text[:at] + text[at + draw(st.integers(1, 4)):]
        else:
            lines = text.splitlines()
            lines.insert(draw(st.integers(0, len(lines))),
                         draw(st.sampled_from(lines)))
            text = "\n".join(lines)
    return text


@settings(max_examples=1000, deadline=None)
@given(mutated_machine_texts())
def test_mutated_machine_files_parse_or_raise_parse_error(text):
    try:
        parse_machine_file(text)
    except ParseError:
        pass


# the word parser: round trips, fuzzing, and its error messages

FUZZ_GROUP = SphereGroup(["x1", "x2", "x10", "y"])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=60))
def test_printed_words_parse_back(letters):
    G = FUZZ_GROUP
    w = G.normal_form(reduce_word(letters))
    assert parse_word(G.word_str(w), G) == w


_TOKENS = ["x1", "x2", "x10", "y", "zz", "*", "^", "-", "(", ")", " ",
           "1", "2", "3"]


def _outcome(read, text):
    try:
        return read(text)
    except ParseError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.sampled_from(_TOKENS), max_size=16).map("".join)
                .filter(lambda t: not re.search(r"\d{3}", t)), max_size=4))
def test_random_text_parses_or_raises_parse_error(texts):
    # at most two digits in a row keep exponents small; one reader kept
    # over several texts, as a .mcb load keeps it, answers as fresh ones do,
    # and parse_word as they do except that it reads "1" as the trivial word
    G = FUZZ_GROUP
    shared = _WordReader(G.names, G.normal_form)
    for text in texts:
        got = _outcome(lambda t: _WordReader(G.names, G.normal_form)(t), text)
        assert got == _outcome(shared, text)
        assert isinstance(got, str) or got == G.normal_form(got)
        assert _outcome(lambda t: parse_word(t, G), text) == (
            () if text.strip() == "1" else got)


def _word_trees(depth=4):
    """Words as lists of (generator, exponent), the exponent None, an
    integer, ("name", generator) or ("word", a word tree), nested up to
    depth deep."""
    names = st.sampled_from(FUZZ_GROUP.names)
    exponents = [st.none(), st.integers(-3, 3),
                 st.tuples(st.just("name"), names)]
    if depth:
        exponents.append(st.tuples(st.just("word"), _word_trees(depth - 1)))
    return st.lists(st.tuples(names, st.one_of(*exponents)), min_size=1,
                    max_size=4)


def _tree_text(tree, star):
    def factor(name, exp):
        if exp is None:
            return name
        if isinstance(exp, int):
            return f"{name}^{exp}"
        return f"{name}^{exp[1]}" if exp[0] == "name" else \
            f"{name}^({_tree_text(exp[1], star)})"
    return star.join(factor(name, exp) for name, exp in tree)


def _tree_value(tree):
    letter = {nm: i + 1 for i, nm in enumerate(FUZZ_GROUP.names)}
    out = ()
    for name, exp in tree:
        x = letter[name]
        if exp is None:
            w = (x,)
        elif isinstance(exp, int):
            w = (x if exp > 0 else -x,) * abs(exp)
        elif exp[0] == "name":
            w = conjugate((x,), (letter[exp[1]],))
        else:
            w = conjugate((x,), _tree_value(exp[1]))
        out = wmul(out, w)
    return out


@settings(max_examples=300, deadline=None)
@given(st.lists(_word_trees(), min_size=1, max_size=4),
       st.sampled_from(["*", " * ", "\t*"]))
def test_readers_read_word_trees_as_their_products(trees, star):
    # readers kept over several words share the letters of nested factors
    # as well as top-level ones, and answer as fresh readers do
    G = FUZZ_GROUP
    shared = _WordReader(G.names, G.normal_form)
    shared_twist = _WordReader(G.names, reduce_word)
    for tree in trees:
        text = _tree_text(tree, star)
        value = _tree_value(tree)
        assert _WordReader(G.names, G.normal_form)(text) == \
            shared(text) == parse_word(text, G) == G.normal_form(value)
        assert parse_twist_word(text, G.names) == shared_twist(text) == value


MALFORMED_WORDS = [
    ("a*", "expected a generator name, found '' at line 4, column 3"),
    ("*a", "expected a generator name, found '*a' at line 4, column 1"),
    ("a**b", "expected a generator name, found '*b' at line 4, column 3"),
    ("a^", "expected a generator name, found '' at line 4, column 3"),
    ("a^(b", "missing ')' in exponent at line 4, column 5"),
    ("a b", "unexpected 'b' at line 4, column 3"),
    ("a^2^3", "unexpected '^3' at line 4, column 4"),
    ("a*zz", "unknown generator 'zz' at line 4, column 3"),
]


@pytest.mark.parametrize("text, message", MALFORMED_WORDS)
def test_malformed_words_keep_their_messages(tmp_path, capsys, text, message):
    G = SphereGroup(["a", "b", "c"])
    with pytest.raises(ParseError) as exc:
        _WordReader(G.names, G.normal_form)(text, 4)
    assert str(exc.value) == message
    short = message.split(" at line")[0]
    with pytest.raises(ParseError) as exc:
        parse_word(text, G)
    assert str(exc.value) == short
    data = {
        "alphabet": ["t"], "basis": ["b0"],
        "group": {"generators": ["a", "b", "c"]},
        "machines": [["a=<a>", "b=<b>", "c=<c>"]],
        "table": [{"gen": "t", "from": "b0", "to": "b0",
                   "knitting_images": [text, "b", "c"]}],
    }
    bad = tmp_path / "bad.mcb"
    bad.write_text(json.dumps(data))
    assert run_cli("classify-twist", str(bad), "t") == 3
    assert short in capsys.readouterr().err
    # the same file with a well-formed image loads
    data["table"][0]["knitting_images"][0] = "a"
    assert mcb_from_json(data).table[("t", 0)].knitting_auto.is_identity_map()


def test_finite_orders_are_a_parse_error(tmp_path, capsys):
    text = "group: a,b\norders: a=3\na=<,a>(1,2)\nb=<b,>(1,2)\n"
    with pytest.raises(ParseError) as exc:
        parse_machine_file(text)
    assert exc.value.line == 2
    assert str(exc.value) == \
        "finite generator orders are not supported at line 2"
    path = tmp_path / "orders.mach"
    path.write_text(text)
    assert run_cli("validate", str(path)) == 3
    assert "finite generator orders" in capsys.readouterr().err


def test_word_syntax():
    G = zoo.centralizer7().machine.source
    assert parse_word("x3*x4", G) == (3, 4)
    assert parse_word("x3^-1", G) == (-3,)
    assert parse_word("x3^2", G) == (3, 3)
    assert parse_word("x3^(x1*x2)", G) == (-2, -1, 3, 1, 2)
    assert parse_word("x3^x1", G) == (-1, 3, 1)
    assert parse_word("", G) == ()
    assert parse_word(" 1 ", G) == ()
    # in a file, "1" is no row entry
    with pytest.raises(ParseError):
        _WordReader(G.names, G.normal_form)("1")


def test_cli_validate(capsys):
    assert run_cli("validate", str(MACHINES / "centralizer7.mach")) == 0
    out = capsys.readouterr().out
    assert "sphere_biset: True" in out


def test_cli_monodromy_json_deterministic(capsys):
    args = ("--json", "monodromy", str(MACHINES / "fbiset.mach"))
    assert run_cli(*args) == 0
    first = capsys.readouterr().out
    assert run_cli(*args) == 0
    second = capsys.readouterr().out
    assert first == second
    data = json.loads(first)
    assert data["result"]["order"] == 120
    assert "timing_ms" not in data


def test_cli_monodromy_counts_a_large_group(tmp_path, capsys):
    # degree 36: far too many elements to list, counted by Schreier-Sims
    c7 = str(MACHINES / "centralizer7.mach")
    out = str(tmp_path / "bb.mach")
    assert run_cli("tensor", c7, c7, "-o", out) == 0
    capsys.readouterr()
    assert run_cli("--json", "monodromy", out) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["result"]["degree"] == 36
    assert data["result"]["order"] == 2507653251072


def test_cli_timing_reads_perf_counter(monkeypatch, capsys):
    ticks = itertools.count(0, 0.125)
    monkeypatch.setattr(cli.time, "perf_counter", lambda: next(ticks))
    assert run_cli("--json", "monodromy", str(MACHINES / "fbiset.mach")) == 0
    plain = json.loads(capsys.readouterr().out)
    assert run_cli("--json", "--timing", "monodromy",
                   str(MACHINES / "fbiset.mach")) == 0
    timed = json.loads(capsys.readouterr().out)
    assert timed.pop("timing_ms") == 125.0
    assert timed == plain


def test_cli_thurston_matrix(capsys):
    assert run_cli("--json", "thurston-matrix",
                   str(MACHINES / "centralizer7.mach")) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["result"]["matrix"] == [["1", "2"], ["0", "3"]]


def test_cli_obstructed_exit_codes(capsys):
    assert run_cli("obstructed", str(MACHINES / "centralizer7.mach")) == 0
    capsys.readouterr()
    # build an unobstructed machine: the z5 machine with its single curve
    assert run_cli("obstructed", str(MACHINES / "z5belyi.mach"),
                   "--curves", "a*b") == 1


def test_cli_obstructed_reports_on_invariant_multicurves_as_before(capsys):
    # the file's own curves, and z5's single curve: both invariant
    for name, curves, code, result in [
            ("centralizer7.mach", [], 0,
             '{"matrix": [["1", "2"], ["0", "3"]], "obstructed": true, '
             '"perron_bracket": [3.0, 3.0000000009313226]}'),
            ("z5belyi.mach", ["--curves", "a*b"], 1,
             '{"matrix": [["1/5"]], "obstructed": false, "perron_bracket": '
             '[0.19999999981373548, 0.20000000037252902]}')]:
        assert run_cli("--json", "obstructed", str(MACHINES / name),
                       *curves) == code
        out = json.loads(capsys.readouterr().out)["result"]
        assert json.dumps(out, sort_keys=True) == result


def test_cli_obstructed_is_inconclusive_on_a_multicurve_that_is_not_invariant(capsys):
    # two degree-1 lifts of x2*x3*x4*x5 are x3*x4, which is not in the
    # multicurve, so its Perron root 3 decides nothing
    c7 = str(MACHINES / "centralizer7.mach")
    assert run_cli("--json", "obstructed", c7, "--curves", "x2*x3*x4*x5") == 2
    assert json.loads(capsys.readouterr().out)["result"] == {
        "invariant": False, "lifts_outside": [
            {"curve": "x2*x3*x4*x5", "lift": "x3*x4", "degree": 1},
            {"curve": "x2*x3*x4*x5", "lift": "x4^-1*x3^-1", "degree": 1}]}
    assert run_cli("obstructed", c7, "--curves", "x2*x3*x4*x5") == 2
    assert capsys.readouterr().out == (
        "invariant: False\nlifts_outside:\n"
        "  curve: x2*x3*x4*x5\n  lift: x3*x4\n  degree: 1\n"
        "  curve: x2*x3*x4*x5\n  lift: x4^-1*x3^-1\n  degree: 1\n")


def test_cli_classify_twist(capsys):
    assert run_cli("classify-twist", str(MACHINES / "rabbit.mcb"), "t^3") == 0
    out = capsys.readouterr().out
    assert "f_R" in out and "fixed" in out


@pytest.mark.parametrize("word", ["1", ""])
def test_cli_lifts_of_the_trivial_word(word, capsys):
    # both spellings read as the trivial word, reported as "1" like the
    # lift classes: every one of the six lifts is trivial of degree 1
    assert run_cli("--json", "lifts", str(MACHINES / "centralizer7.mach"),
                   word) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["class"] == "1"
    assert result["lifts"] == [{"class": "1", "degree": 1}] * 6
    assert result["total_degree"] == 6


def test_cli_lifts_essential_keeps_the_nontrivial_lifts(capsys):
    # x3*x4 has six lifts of degree 1, one of them x3*x4 and five trivial
    args = ("--json", "lifts", str(MACHINES / "centralizer7.mach"), "x3*x4")
    assert run_cli(*args) == 0
    every = json.loads(capsys.readouterr().out)["result"]
    assert run_cli(*args, "--essential") == 0
    essential = json.loads(capsys.readouterr().out)["result"]
    assert every["lifts"] == [{"class": "x3*x4", "degree": 1}] + \
        [{"class": "1", "degree": 1}] * 5
    assert essential["lifts"] == [{"class": "x3*x4", "degree": 1}]
    assert essential["total_degree"] == every["total_degree"] == 6


def test_cli_lifts_and_iso(capsys):
    assert run_cli("lifts", str(MACHINES / "centralizer7.mach"),
                   "x2*x3*x4*x5") == 0
    capsys.readouterr()
    assert run_cli("iso", str(MACHINES / "fbiset.mach"),
                   str(MACHINES / "fbiset.mach")) == 0
    capsys.readouterr()
    assert run_cli("iso", str(MACHINES / "fbiset.mach"),
                   str(MACHINES / "z5belyi.mach")) == 1


def test_cli_split_and_solve(capsys):
    assert run_cli("--json", "split", str(MACHINES / "centralizer7.mach")) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["result"]["tree"]["spheres"]) == 3
    assert run_cli("--json", "solve-twists", str(MACHINES / "centralizer7.mach"),
                   "--theta", "2*a,2*b") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["result"]["constraints"] == ["a - b = 0"]
    assert data["result"]["free_rank"] == 1


@pytest.mark.parametrize("theta, term", [
    ("a,-", "-"), ("2**a,b", "2**a"), ("2*,b", "2*"), ("a-,b", "-"),
    ("2*a,(b)", "(b)"), ("a+,b", ""), ("2a,b", "2a"), ("2*3,b", "2*3"),
    ("a,", ""), ("a--b,b", "-"),
    # names starting with "_" would collide with the free parameters _w<i>
    ("_w2,b", "_w2"), ("a,_x", "_x"),
])
def test_cli_solve_twists_rejects_malformed_theta(theta, term, capsys):
    assert run_cli("solve-twists", str(MACHINES / "centralizer7.mach"),
                   f"--theta={theta}") == 3
    assert f"bad term {term!r}" in capsys.readouterr().err


def test_cli_solve_twists_reads_signed_affine_terms(capsys):
    c7 = str(MACHINES / "centralizer7.mach")
    for theta, constraints, congruences in [
            ("2*a - 1,-b+3", ["2*a + b - 4 = 0"], ["2*a - 1 = 0 mod 2"]),
            ("a+-b,b", ["a - 2*b = 0"], ["a - b = 0 mod 2"]),
            (" 2 * a , 2*b", ["a - b = 0"], [])]:
        assert run_cli("--json", "solve-twists", c7, f"--theta={theta}") == 0
        data = json.loads(capsys.readouterr().out)["result"]
        assert data["constraints"] == constraints
        assert data["congruences"] == congruences


def test_cli_input_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.mach"
    bad.write_text("group: a,b\na=<,a>(1,2)\n")
    assert run_cli("validate", str(bad)) == 3
    assert run_cli("validate", str(tmp_path / "missing.mach")) == 3
    bad.write_text("group: a,b\ntarget: p,q\ntarget_relator: q*zz\n"
                   "a=<,p>(1,2)\nb=<q,>(1,2)\n")
    capsys.readouterr()
    assert run_cli("validate", str(bad)) == 3
    assert "bad target block: 'zz' at line 3" in capsys.readouterr().err


def test_cli_promote_unknown_map_label_exit_code(capsys):
    mach = str(MACHINES / "centralizer7.mach")
    assert run_cli("promote", mach, mach, "--map", "zz:x1") == 3
    assert "unknown generator 'zz'" in capsys.readouterr().err
    assert run_cli("promote", mach, mach, "--map", "x1") == 3
    capsys.readouterr()
    assert run_cli("promote", mach, mach, "--map", "c0:c1,c1:c0") == 3
    assert "leaves puncture 3 unmapped" in capsys.readouterr().err


def test_cli_promote_names_a_curve_label_int_cannot_read(capsys):
    mach = str(MACHINES / "centralizer7.mach")
    # more digits than int() converts: curve 1 with 5,000 leading zeros
    label = "c" + "0" * 5000 + "1"
    assert run_cli("promote", mach, mach, "--map", f"{label}:c1") == 3
    err = capsys.readouterr().err
    assert err.startswith("error: --map: curve label 'c0000")
    assert err.endswith(" (5002 characters) has too many digits\n")
    # a digit that is not a decimal digit makes no curve label
    assert run_cli("promote", mach, mach, "--map", "c\u00b2:c1") == 3
    assert "--map: unknown generator 'c\u00b2'" in capsys.readouterr().err


def test_cli_promote_rejects_a_label_mapped_twice(capsys):
    mach = str(MACHINES / "centralizer7.mach")
    full = ",".join([f"x{i}:x{i}" for i in range(1, 8)] + ["c0:c0", "c1:c1"])
    assert run_cli("promote", mach, mach, "--map", full) == 0
    capsys.readouterr()
    # a later pair would silently overwrite the first image of x1
    assert run_cli("promote", mach, mach, "--map", "x1:x2," + full) == 3
    assert "'x1' is mapped twice" in capsys.readouterr().err


def test_cli_promote_rejects_a_label_that_names_no_curve(capsys):
    # centralizer7's curves are c0 and c1: a map that also names c7, or
    # sends a generator to c9, is an input error, not a promotion
    mach = str(MACHINES / "centralizer7.mach")
    full = [f"x{i}:x{i}" for i in range(1, 8)] + ["c0:c0", "c1:c1"]
    first = "the bijection names curve 7, which is no class of the first tree"
    for extra in ("c7:c0", "c7:c9"):
        assert run_cli("promote", mach, mach, "--map",
                       ",".join(full + [extra])) == 3
        assert capsys.readouterr().err == f"error: {first}\n"
    assert run_cli("promote", mach, mach, "--map",
                   ",".join(["x1:c9"] + full[1:])) == 3
    assert capsys.readouterr().err == (
        "error: the bijection names curve 9, which is no class of the "
        "second tree\n")


def test_cli_promote_reads_a_generator_named_like_a_curve(tmp_path, capsys):
    # z5belyi with its generators a, b, c, d renamed c1, c2, c3, c4
    z5 = MACHINES / "z5belyi.mach"
    renamed = tmp_path / "z5c.mach"
    renamed.write_text(re.sub(r"\b[abcd]\b",
                              lambda m: f"c{'abcd'.index(m.group(0)) + 1}",
                              z5.read_text()))
    reports = []
    for path, names in ((z5, "abcd"), (renamed, ["c1", "c2", "c3", "c4"])):
        curve = f"{names[0]}*{names[1]}"
        pairs = ",".join(f"{x}:{x}" for x in names) + ",c0:c0"
        assert run_cli("--json", "promote", str(path), str(path), "--curves",
                       curve, "--curves-other", curve, "--map", pairs) == 0
        reports.append(json.loads(capsys.readouterr().out)["result"])
    assert reports[0] == reports[1] == {
        "promoted": True, "vertex_map": {"S0": "S0", "S1": "S1"}}


def test_cli_usage_error_exit_code(capsys):
    mach = str(MACHINES / "centralizer7.mach")
    capsys.readouterr()
    assert run_cli("validate", mach, "--json") == 3
    assert "unrecognized arguments: --json" in capsys.readouterr().err
    assert run_cli("validate") == 3
    assert run_cli("no-such-command", mach) == 3
    assert run_cli("--json", "validate", mach) == 0


_C7 = str(MACHINES / "centralizer7.mach")


@pytest.mark.parametrize("argv, option", [
    (["mcbiset", str(MACHINES / "z2.mach"), "-o", ""], "-o/--output"),
    (["tensor", str(MACHINES / "z2.mach"), str(MACHINES / "z2.mach"),
      "-o", ""], "-o/--output"),
    (["mcbiset", str(MACHINES / "fbiset.mach"), "--gens", ""], "--gens"),
    (["thurston-matrix", _C7, "--curves", ""], "--curves"),
    (["split", _C7, "--curves="], "--curves"),
    (["promote", _C7, _C7, "--map", "x1:x1", "--curves-other", ""],
     "--curves-other"),
], ids=["mcbiset-o", "tensor-o", "gens", "thurston-matrix-curves",
        "split-curves", "promote-curves-other"])
def test_cli_rejects_an_empty_option_value(argv, option, capsys):
    # an empty value is an input error, not the option's default (no file
    # written, standard output, all twists or the file's curves: block)
    assert run_cli("--json", *argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: sphmach {argv[0]}: argument {option}: "
                   "expected a non-empty value\n")


def test_cli_parser_is_built_once_and_keeps_no_state(capsys):
    # one parser serves every call in a process: a usage error, --timing,
    # --essential and plain output leave no trace in a later report
    assert cli.build_parser() is cli.build_parser()
    args = ("lifts", _C7, "x3*x4")
    assert run_cli("--json", *args) == 0
    first = capsys.readouterr().out
    assert run_cli("--json", "lifts", _C7) == 3
    assert "required: word" in capsys.readouterr().err
    assert run_cli("--json", "--timing", *args, "--essential") == 0
    timed = json.loads(capsys.readouterr().out)
    assert "timing_ms" in timed and len(timed["result"]["lifts"]) == 1
    assert run_cli(*args) == 0
    assert "total_degree: 6" in capsys.readouterr().out
    assert run_cli("--json", *args) == 0
    assert capsys.readouterr().out == first
    assert "timing_ms" not in json.loads(first)


def test_cli_negative_max_steps_exit_code(capsys):
    mcb = str(MACHINES / "rabbit.mcb")
    capsys.readouterr()
    assert run_cli("classify-twist", mcb, "t^3", "--max-steps", "-1") == 3
    assert "--max-steps" in capsys.readouterr().err
    assert run_cli("classify-twist", mcb, "t^3", "--max-steps", "0") == 2


def _classify_json(capsys, *args):
    capsys.readouterr()
    code = run_cli("--json", "classify-twist", str(MACHINES / "rabbit.mcb"),
                   *args)
    return code, json.loads(capsys.readouterr().out)["result"]


def test_cli_classify_twist_stops_at_an_empty_word(capsys):
    # the empty word is fixed at step 0, with no step to spend
    code, got = _classify_json(capsys, "", "--max-steps", "0")
    assert (code, got["kind"], got["steps"]) == (0, "fixed", 0)
    # t^3 empties in two steps: fixed, not inconclusive, with two allowed
    code, got = _classify_json(capsys, "t^3", "--max-steps", "2")
    assert (code, got["kind"], got["steps"]) == (0, "fixed", 2)
    code, got = _classify_json(capsys, "t^3", "--max-steps", "1")
    assert (code, got["kind"]) == (2, "max-steps")


def test_cli_classify_twist_states_parse_back(capsys):
    mcb = load_mcb(str(MACHINES / "rabbit.mcb"))
    t = mcb.alphabet.index("t") + 1
    printed = set()
    for n in range(-30, 31):
        word = (t,) * n if n >= 0 else (-t,) * -n
        term = conjugacy_iterate(mcb, (word, mcb.base))
        _, got = _classify_json(capsys, f"t^{n}" if n else "1")
        states = [(parse_twist_word(s["twist"], mcb.alphabet),
                   mcb.basis_names.index(s["basis"])) for s in got["terminal"]]
        assert states == term.states, n
        printed.update(s["twist"] for s in got["terminal"])
    assert "1" in printed


def test_cli_relabel_takes_machine_file_cycles(capsys):
    z2 = str(MACHINES / "z2.mach")
    for relabel in ("(1,2", "1,2", "(1,2)(2)", "(1,3)", "(1;2)"):
        capsys.readouterr()
        assert run_cli("rebase", z2, "--conjugators", "a,",
                       "--relabel", relabel) == 3, relabel
        assert "--relabel" in capsys.readouterr().err
    assert run_cli("rebase", z2, "--conjugators", "a,", "--relabel", "(1,2)") == 0
    relabelled = parse_machine_file(capsys.readouterr().out).machine
    assert relabelled.rows[0].perm == (1, 0)


def test_cycle_points_outside_the_degree_name_the_point_and_the_range(capsys):
    z5 = (MACHINES / "z5belyi.mach").read_text()
    with pytest.raises(ParseError) as exc:
        parse_machine_file(z5.replace("(1,2,3,4,5)", "(1,2,3,4,9)"))
    assert str(exc.value) == "cycle point 9 outside 1..5 at line 3"
    assert run_cli("rebase", str(MACHINES / "z5belyi.mach"), "--conjugators",
                   ",,,,", "--relabel", "(1,9)") == 3
    assert capsys.readouterr().err == \
        "error: --relabel: cycle point 9 outside 1..5\n"
    # a point of many digits is elided like any long input
    with pytest.raises(ParseError) as exc:
        parse_cycles(f"(1,{'9' * 1000})", 5)
    assert str(exc.value).startswith("cycle point 9999")
    assert str(exc.value).endswith("9999 outside 1..5 (1025 characters)")
    assert len(str(exc.value)) < 200


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "top level must be an object"),
    ('{"alphabet": ["t"], "basis": ["a"], "table": {}}',
     "field 'table' must be a list of objects"),
    ('{"alphabet": ["t"], "basis": ["a"], '
     '"table": [{"gen": "t", "from": "a", "to": "a", "knitting": 3}]}',
     "field 'knitting' must be a string"),
    ('{"alphabet": ["t"], "basis": ["a"], '
     '"table": [{"gen": "t", "from": "a", "to": "b"}]}',
     "unknown basis element 'b'"),
    ('{"alphabet": ["t"], "basis": [], "table": []}', ".mcb: empty basis"),
    # fields that need a group block, in a file without one
    ('{"alphabet": ["t"], "basis": ["a"], "table": [], "machines": [["a=<a>"]]}',
     ".mcb: 'machines' needs a group block"),
    ('{"alphabet": ["t"], "basis": ["a"], "table": [], '
     '"generators": {"t": ["a"]}}', ".mcb: 'generators' needs a group block"),
    ('{"alphabet": ["t"], "basis": ["a"], "table": [{"gen": "t", "from": "a", '
     '"to": "a", "knitting_images": ["zz^(", "q"]}]}',
     ".mcb: edge 't' from 'a': 'knitting_images' needs a group block"),
    ('{"alphabet": ["t"], "basis": ["a"], "table": [{"gen": "t", "from": "a", '
     '"to": "a", "basis_change": {"conjugators": [], "relabel": [9, 9]}}]}',
     ".mcb: edge 't' from 'a': 'basis_change' needs a group block"),
    # tables whose generator does not permute the basis
    ('{"alphabet": ["t"], "basis": ["a", "b"], "base": "a", "table": '
     '[{"gen": "t", "from": "a", "to": "b", "knitting": ""}]}',
     ".mcb: generator 't' has no edge from basis element 'b'"),
    ('{"alphabet": ["t"], "basis": ["a", "b"], "base": "a", "table": '
     '[{"gen": "t", "from": "a", "to": "a", "knitting": ""}, '
     '{"gen": "t", "from": "b", "to": "a", "knitting": "t"}]}',
     ".mcb: generator 't' has two edges into basis element 'a'"),
    ('{"alphabet": ["t"], "basis": ["a", "a"], "base": "a", "table": '
     '[{"gen": "t", "from": "a", "to": "a", "knitting": ""}]}',
     ".mcb: basis element 'a' appears twice in the basis"),
    (json.dumps({"alphabet": ["t"], "basis": ["b" * 61] * 2, "table": []}),
     ".mcb: basis element 'bbbbbbbbbbbbbbbbbbbbbbbb'...'bbbbbbbbbbbbbbbbbbbbbbbb' "
     "(61 characters) appears twice in the basis"),
])
def test_cli_malformed_mcb_exit_code(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.mcb"
    bad.write_text(text)
    assert run_cli("classify-twist", str(bad), "t") == 3
    assert message in capsys.readouterr().err
    with pytest.raises(ParseError):
        mcb_from_json(json.loads(text))


def test_cli_deeply_nested_mcb_exit_code(tmp_path, capsys):
    # json.loads raises RecursionError, not ValueError, on deep nesting
    bad = tmp_path / "deep.mcb"
    bad.write_text("[" * 200_000 + "]" * 200_000)
    assert run_cli("classify-twist", str(bad), "t") == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and "recursion" in err


def test_cli_mcbiset_and_reload(tmp_path, capsys):
    out = tmp_path / "z5.mcb"
    assert run_cli("mcbiset", str(MACHINES / "z5belyi.mach"),
                   "-o", str(out)) == 0
    capsys.readouterr()
    from sphmach.machfile import load_mcb

    mcb = load_mcb(str(out))
    assert mcb.size == 5
    again = mcb_from_json(mcb_to_json(mcb))
    assert again.basis_names == mcb.basis_names
    assert again.table.keys() == mcb.table.keys()
    for key in mcb.table:
        assert again.table[key].knitting_auto == mcb.table[key].knitting_auto
        assert again.table[key].basis_change == mcb.table[key].basis_change


def test_loaded_biset_shares_one_automorphism_per_knitting(pilgrim_mcb,
                                                            tmp_path):
    # the pinned {s,t,u} file: 360 edges spell 118 distinct knittings,
    # and the lifts read off the shared automorphisms are the built ones
    mcb, _ = pilgrim_mcb()
    path = tmp_path / "stu.mcb"
    save_mcb(mcb, str(path))
    loaded = load_mcb(str(path))
    edges = loaded.table.values()
    assert len(edges) == 360
    assert len({id(e.knitting_auto) for e in edges}) == 118
    for gen in "stu":
        assert lift_multiset_in_mcbiset(loaded, gen) == \
            lift_multiset_in_mcbiset(mcb, gen)


def test_cli_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "sphmach.cli", "portrait",
         str(MACHINES / "z2.mach")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "a -> a (deg 2)" in proc.stdout


def test_cli_tensor_and_rebase(tmp_path, capsys):
    out = tmp_path / "z4.mach"
    assert run_cli("tensor", str(MACHINES / "z2.mach"),
                   str(MACHINES / "z2.mach"), "-o", str(out)) == 0
    capsys.readouterr()
    mf = parse_machine_file(out.read_text())
    assert mf.machine.degree == 4
    assert run_cli("rebase", str(MACHINES / "z2.mach"),
                   "--conjugators", "a,") == 0
    text = capsys.readouterr().out
    assert parse_machine_file(text).machine.degree == 2


def test_cli_invariants(tmp_path, capsys):
    # a degree-2 machine over three punctures: a and c branch, b does not
    path = tmp_path / "three.mach"
    path.write_text("group: a,b,c\nrelator: a*b*c\n"
                    "a=<,b>(1,2)\nb=<a,>\nc=<a^-1*b^-1,>(1,2)\n")
    assert run_cli("--json", "invariants", str(path)) == 0
    assert json.loads(capsys.readouterr().out)["result"] == {
        "sheets": 2, "punctures": 4, "euler_characteristic": -2, "genus": 0}
    assert run_cli("invariants", str(MACHINES / "fbiset.mach")) == 3
    assert "three punctures" in capsys.readouterr().err


def test_cli_mcbiset_named_generators(capsys):
    fb = str(MACHINES / "fbiset.mach")
    assert run_cli("--json", "mcbiset", fb, "--gens", "s,t,u") == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert (result["basis_size"], result["generators"]) == (120, ["s", "t", "u"])
    assert run_cli("mcbiset", fb, "--gens", "s,zz") == 3
    assert "--gens: automorphism 'zz' not defined" in capsys.readouterr().err


def test_cli_mcbiset_gens_twists_is_a_name_like_any_other(capsys, tmp_path):
    # all twists is what an omitted --gens means; "twists" names an
    # automorphism of the file
    fb = MACHINES / "fbiset.mach"
    renamed = tmp_path / "twists.mach"
    renamed.write_text(fb.read_text().replace("auto s =", "auto twists ="))
    assert run_cli("--json", "mcbiset", str(fb), "--gens", "s") == 0
    by_s = json.loads(capsys.readouterr().out)["result"]
    assert run_cli("--json", "mcbiset", str(renamed), "--gens", "twists") == 0
    got = json.loads(capsys.readouterr().out)["result"]
    assert got["generators"] == ["twists"]
    assert got["basis_size"] == by_s["basis_size"]
    assert run_cli("mcbiset", str(fb), "--gens", "twists") == 3
    assert capsys.readouterr().err == \
        "error: --gens: automorphism 'twists' not defined in the file\n"


@pytest.mark.parametrize("names", ["s,,t", ",", "s, "])
def test_cli_mcbiset_rejects_an_empty_generator_name(names, capsys):
    assert run_cli("mcbiset", str(MACHINES / "fbiset.mach"),
                   "--gens", names) == 3
    assert capsys.readouterr().err.strip().endswith(
        "--gens: empty generator name")


def test_cli_mcbiset_rejects_a_repeated_generator(capsys, tmp_path):
    fb = str(MACHINES / "fbiset.mach")
    out = tmp_path / "f.mcb"
    assert run_cli("--json", "mcbiset", fb, "--gens", "s, t,s",
                   "-o", str(out)) == 3
    assert "--gens: 's' is named twice" in capsys.readouterr().err
    assert not out.exists()


def test_cli_tensor_prints_a_machine(capsys):
    z2 = str(MACHINES / "z2.mach")
    assert run_cli("tensor", z2, z2) == 0
    printed = parse_machine_file(capsys.readouterr().out).machine
    assert printed == tensor(zoo.z2().machine, zoo.z2().machine)


def test_cli_split_exit_codes(capsys):
    c7 = str(MACHINES / "centralizer7.mach")
    assert run_cli("--json", "split", c7, "--curves", "x1*x2,x2*x3") == 1
    assert json.loads(capsys.readouterr().out)["result"]["kind"] == "not-disjoint"
    # a*c^b has the homology of a curve around a and c, but no generating
    # realization within one conjugator letter
    assert run_cli("--json", "split", str(MACHINES / "z5belyi.mach"),
                   "--curves", "a*c^b", "--bound", "1") == 2
    assert json.loads(capsys.readouterr().out)["result"]["kind"] == \
        "bound-exhausted"

    # a^2*b winds twice around a: no curve has that homology
    assert run_cli("--json", "split", str(MACHINES / "z5belyi.mach"),
                   "--curves", "a^2*b") == 1
    assert json.loads(capsys.readouterr().out)["result"] == {
        "split": False, "kind": "abelianization-inconsistent",
        "detail": "abelianization-inconsistent: curve a^2*b has homology "
                  "(2, 1, 0, 0) in its piece"}


def test_cli_promote_failure_reports_its_step(capsys):
    mach = str(MACHINES / "centralizer7.mach")
    # x1 and x2 lie on different vertices of the tree
    swap = ",".join(["x1:x2", "x2:x1"] + [f"x{i}:x{i}" for i in range(3, 8)]
                    + ["c0:c0", "c1:c1"])
    assert run_cli("--json", "promote", mach, mach, "--map", swap) == 1
    result = json.loads(capsys.readouterr().out)["result"]
    assert (result["promoted"], result["failed_step"]) == (False, 2)


def test_cli_promote_report_is_the_same_under_every_hash_seed():
    # both curves map to punctures: step 1 names the first in tree order,
    # not the first in a set's order, which moves with the string hashes
    mach = str(MACHINES / "centralizer7.mach")
    pairs = [f"x{i}:x{i}" for i in range(1, 8)] + ["c0:x1", "c1:x2"]
    reports = set()
    for seed in range(8):
        proc = subprocess.run(
            [sys.executable, "-m", "sphmach.cli", "--json", "promote", mach,
             mach, "--map", ",".join(pairs)], capture_output=True, text=True,
            env={**os.environ, "PYTHONHASHSEED": str(seed)})
        assert proc.returncode == 1
        reports.add(json.loads(proc.stdout)["result"]["detail"])
    assert reports == {"failed at step 1: ('curve', 0) does not map to a "
                       "curve class"}


def test_cli_solve_twists_theta_count_and_leading_minus(capsys):
    c7 = str(MACHINES / "centralizer7.mach")
    assert run_cli("solve-twists", c7, "--theta", "a") == 3
    assert "one theta entry per curve" in capsys.readouterr().err
    # a value starting with '-' reads as an option unless written with '='
    assert run_cli("solve-twists", c7, "--theta", "-a,2*b") == 3
    err = capsys.readouterr().err
    assert "expected one argument" in err and "--option=value" in err
    assert run_cli("--json", "solve-twists", c7, "--theta=-a,2*b") == 0
    assert json.loads(capsys.readouterr().out)["result"]["constraints"] == \
        ["a + 2*b = 0"]


def _perfbench_module(name):
    """A perfbench module loaded by path, as the benchmark runs it."""
    import importlib.util

    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_benchmark_trace_targets_resolve():
    # perfbench/run.py --trace wraps each (module, attribute) of
    # tracer.TARGETS by name; a deleted or renamed one breaks traced runs
    import importlib

    tracer = _perfbench_module("tracer")
    assert tracer.TARGETS
    for modname, attr, _ in tracer.TARGETS:
        mod = importlib.import_module(f"sphmach.{modname}")
        if "." in attr:
            cls_name, name = attr.split(".")
            assert name in vars(getattr(mod, cls_name)), (modname, attr)
        else:
            assert callable(getattr(mod, attr)), (modname, attr)


def test_benchmark_tracer_wraps_every_target_and_restores_it():
    # a traced run installs the tracer on the loaded sphmach modules: each
    # target must come back wrapped, and unwrapped after uninstall
    import importlib

    tracer = _perfbench_module("tracer")

    def owner(modname, attr):
        mod = importlib.import_module(f"sphmach.{modname}")
        if "." in attr:
            cls_name, attr = attr.split(".")
            return vars(getattr(mod, cls_name)), attr
        return vars(mod), attr

    before = [(ns, name, ns[name]) for ns, name in
              (owner(m, a) for m, a, _ in tracer.TARGETS)]
    tr = tracer.Tracer()
    tr.install()
    try:
        for ns, name, orig in before:
            assert ns[name] is not orig and ns[name].__wrapped__ is orig, name
    finally:
        tr.uninstall()
    assert all(ns[name] is orig for ns, name, orig in before)


def test_benchmark_reads_both_knitting_forms(tmp_path):
    # perfbench's oracles and tracer read TableEdge.knitting_auto,
    # TableEdge.knitting_word and the .mcb keys: the z5 biset saves
    # automorphism knittings, the rabbit biset twist words
    oracles = _perfbench_module("oracles")
    tracer = _perfbench_module("tracer")
    z5 = zoo.z5_marked().machine
    bisets = {"z5": compute_mcbiset(z5, full_twist_generators(z5.source)),
              "rabbit": zoo.rabbit_mcb()}
    for name, mcb in bisets.items():
        path = tmp_path / f"{name}.mcb"
        save_mcb(mcb, str(path))
        loaded = load_mcb(str(path))
        assert oracles.table_mismatches(json.loads(path.read_text()),
                                        loaded) == [], name
        for edge in loaded.table.values():
            assert (edge.knitting_auto is None) == (name == "rabbit")
            assert (edge.knitting_word is None) == (name == "z5")
            assert tracer.knitting_letters(edge) >= 0


def test_benchmark_rabbit_oracle_passes(tmp_path, monkeypatch):
    # one full-size repetition of perfbench workloads, run as the
    # benchmark's child process runs them (perfbench/ on the path, the
    # repository root as cwd).  rabbit_twists: the powers t^n up to
    # |n| = 2,000 against the base-4 rule and the 1,500-letter conjugate
    # pairs.  mcb_stu and mcb_full: the .mcb table oracle, the exact
    # table-edge identities and, under {s,t,u}, the criterion-4 lift
    # multisets, which read the twist fingerprints.  thurston_tower: the
    # centralizer7 tower to degree 216, the README's commands with their
    # exit codes, and the deferred Perron answers against exact sympy
    # root isolation, as the benchmark's parent process checks them
    root = Path(__file__).resolve().parent.parent
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    monkeypatch.chdir(root)
    workloads = _perfbench_module("workloads")
    oracles = _perfbench_module("oracles")
    for workload_class, n_ops in ((workloads.RabbitTwists, 1 + 48 + 2 * 48),
                                  (workloads.McbStu, 2 + 3 + 120),
                                  (workloads.McbFull, 2 + 240),
                                  (workloads.ThurstonTower, 53)):
        workload = workload_class(11, "full", str(tmp_path))
        ctx = workload.context()
        ops = workload.ops()
        failures = []
        for op in ops:
            err = op.check(ctx, op.run(ctx))
            if err:
                failures.append(f"{op.name}: {err}")
        for i, item in sorted(workload.pending.items()):
            bad = oracles.perron_oracle(item["entries"], item["obstructed"],
                                        item["low"], item["high"])
            if bad:
                failures.append(f"{ops[i].name}: {bad}")
        assert failures == [], workload.name
        assert len(ops) == n_ops, workload.name
    # the tower defers one Perron answer per seeded matrix, 2x2 to 8x8
    assert len(workload.pending) == 14


@functools.cache
def _pilgrim_s_text():
    mf = zoo.pilgrim()
    return json.dumps(mcb_to_json(
        compute_mcbiset(mf.machine, [("s", mf.autos["s"])])))


def _nodes(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["drop", "retype", "shorten", "swap"]),
                          st.integers(0, 10**6), st.integers(0, 10**6),
                          _JSON_VALUES), min_size=1, max_size=3))
def test_mutated_biset_json_loads_or_raises_parse_error(mutations):
    # drop fields, retype them, shorten lists and swap names in the
    # pilgrim biset under s: each result loads or raises ParseError
    data = json.loads(_pilgrim_s_text())
    for op, pick, other, value in mutations:
        paths = list(_nodes(data))[1:]
        if not paths:
            break
        *up, key = paths[pick % len(paths)]
        parent = _at(data, up)
        node = parent[key]
        if op == "drop":
            del parent[key]
        elif op == "retype":
            parent[key] = value
        elif op == "shorten" and isinstance(node, list) and node:
            del node[other % len(node)]
        elif op == "swap" and isinstance(node, (str, int)):
            # another scalar of the same type from the document
            pool = [v for path in paths
                    if type(v := _at(data, path)) is type(node)]
            parent[key] = pool[other % len(pool)]
    try:
        mcb_from_json(data)
    except ParseError:
        pass


def _at(data, path):
    for k in path:
        data = data[k]
    return data


def _edge0(data):
    return data["table"][0]


@pytest.mark.parametrize("spoil, message", [
    (lambda d: _edge0(d)["knitting_images"].pop(),
     "edge 's' from 'b0': knitting_images: expected 4 images, got 3"),
    (lambda d: d["generators"]["s"].pop(),
     "generator 's': expected 4 images, got 3"),
    (lambda d: _edge0(d)["knitting_images"].__setitem__(1, "c"),
     "generator images do not satisfy the relator"),
    (lambda d: _edge0(d)["basis_change"].__setitem__("relabel", [1, 1, 3, 4, 5]),
     "edge 's' from 'b0': basis_change needs 5 conjugators and a relabel "
     "that permutes 1..5"),
    (lambda d: _edge0(d)["basis_change"]["conjugators"].pop(),
     "basis_change needs 5 conjugators"),
    (lambda d: _edge0(d).__setitem__("gen", "t"),
     "edge 't' from 'b0': generator not in the alphabet"),
    (lambda d: d["machines"].pop(), "5 machines for a basis of 6"),
    (lambda d: d["machines"].__setitem__(1, ["a=<a>", "b=<b>", "c=<c>", "d=<d>"]),
     "machines of different degrees"),
    (lambda d: d["table"].append(dict(_edge0(d), to="b5")),
     "edge 's' from 'b0': duplicate table record"),
    (lambda d: d["alphabet"].append("s"),
     ".mcb: generator 's' appears twice in the alphabet"),
])
def test_malformed_biset_fields_raise_parse_error(spoil, message):
    data = json.loads(_pilgrim_s_text())
    mcb_from_json(data)
    spoil(data)
    with pytest.raises(ParseError) as exc:
        mcb_from_json(data)
    assert message in str(exc.value)


def test_cli_promote_reports_a_failed_split_as_split_does(capsys):
    z5 = str(MACHINES / "z5belyi.mach")
    assert run_cli("--json", "split", z5, "--curves", "a*c^b",
                   "--bound", "1") == 2
    split = json.loads(capsys.readouterr().out)["result"]
    assert run_cli("--json", "promote", z5, z5, "--curves", "a*c^b",
                   "--curves-other", "a*c^b", "--bound", "1",
                   "--map", "a:a,b:b,c:c,d:d,c0:c0") == 2
    promote = json.loads(capsys.readouterr().out)["result"]
    assert promote == split
    assert promote["kind"] == "bound-exhausted"
    c7 = str(MACHINES / "centralizer7.mach")
    assert run_cli("--json", "promote", c7, c7, "--curves", "x1*x2,x2*x3",
                   "--map", "x1:x1") == 1
    assert json.loads(capsys.readouterr().out)["result"]["kind"] == \
        "not-disjoint"


def test_cli_negative_bound_exit_code(capsys):
    c7 = str(MACHINES / "centralizer7.mach")
    assert run_cli("split", c7, "--bound", "-1") == 3
    assert "--bound" in capsys.readouterr().err
    assert run_cli("promote", c7, c7, "--map", "x1:x1", "--bound", "-1") == 3
    assert "--bound" in capsys.readouterr().err
    assert run_cli("split", c7, "--bound", "x") == 3
    assert "--bound" in capsys.readouterr().err


@pytest.mark.parametrize("args, option", [
    (("split", "c7", "--bound", "x" * 300), "--bound"),
    (("split", "c7", "--bound", "9" * 5000), "--bound"),
    (("classify-twist", "rabbit.mcb", "t", "--max-steps", "9" * 5000),
     "--max-steps"),
    (("solve-twists", "c7", f"--theta={'9' * 5001},b"), "--theta"),
    (("solve-twists", "c7", f"--theta=a,{'9' * 5001}*b"), "--theta"),
])
def test_cli_long_option_values_are_elided(capsys, args, option):
    paths = {"c7": str(MACHINES / "centralizer7.mach"),
             "rabbit.mcb": str(MACHINES / "rabbit.mcb")}
    assert run_cli(*(paths.get(a, a) for a in args)) == 3
    err = capsys.readouterr().err
    assert option in err and " characters)" in err and len(err) < 200, err


def test_cli_unwritable_output_exit_code(tmp_path, capsys):
    z2 = str(MACHINES / "z2.mach")
    out = tmp_path / "missing" / "x.mach"
    assert run_cli("tensor", z2, z2, "-o", str(out)) == 3
    assert f"cannot write {out}" in capsys.readouterr().err
    out = tmp_path / "missing" / "x.mcb"
    assert run_cli("mcbiset", z2, "-o", str(out)) == 3
    assert f"cannot write {out}" in capsys.readouterr().err


def test_cli_input_digest_is_that_of_the_text_read(capsys):
    for args in (("validate", str(MACHINES / "centralizer7.mach")),
                 ("classify-twist", str(MACHINES / "rabbit.mcb"), "t^3")):
        assert run_cli("--json", *args) == 0
        text = Path(args[1]).read_text()
        assert json.loads(capsys.readouterr().out)["inputs"] == {
            args[1]: hashlib.sha256(text.encode()).hexdigest()[:16]}


def test_malformed_mcb_machine_row_names_its_basis_element(tmp_path, capsys):
    data = json.loads(_pilgrim_s_text())
    data["machines"][2][1] = "b=<a^(b,c)>(1,2)"
    with pytest.raises(ParseError) as exc:
        mcb_from_json(data)
    assert str(exc.value).startswith(".mcb: machine 'b2': ")
    bad = tmp_path / "bad.mcb"
    bad.write_text(json.dumps(data))
    assert run_cli("classify-twist", str(bad), "s") == 3
    assert "machine 'b2'" in capsys.readouterr().err


def test_cli_classify_twist_on_an_automorphism_only_mcb(tmp_path, capsys):
    # a computed biset carries automorphism knittings only: a nonempty word
    # stops at the first edge it meets, named, and the empty word is fixed
    path = tmp_path / "pilgrim_s.mcb"
    path.write_text(_pilgrim_s_text())
    assert run_cli("classify-twist", str(path), "s") == 3
    assert "error: edge (s, b0) has no twist-word knitting" in \
        capsys.readouterr().err
    assert run_cli("--json", "classify-twist", str(path), "1") == 0
    assert json.loads(capsys.readouterr().out)["result"] == {
        "kind": "fixed", "steps": 0,
        "terminal": [{"twist": "1", "basis": "b0"}]}


@pytest.mark.parametrize("line", [
    "a=<a^(b,c)>",
    "curves: a^(b,c)*b^(b,c)",
    "auto f = a^(b,c),b^(b,c),c^(b,c),d^(b,c)",
])
def test_comma_inside_an_exponent_raises_parse_error(line):
    rows = [r for r in ("a=<a>", "b=<b>", "c=<c>", "d=<d>")
            if not line.startswith(r[:2])]
    text = "\n".join(["group: a,b,c,d"] + rows + [line]) + "\n"
    with pytest.raises(ParseError):
        parse_machine_file(text)
    # with a product in the exponent the same line parses
    parse_machine_file(text.replace("(b,c)", "(b*c)"))
