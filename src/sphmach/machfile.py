"""The machine text format and the mapping-class-biset JSON format.

Machine files carry a group block, one row per generator in the GAP
session style  name=<w1,...,wd>(cycles),  and optional multicurve and
automorphism blocks:

    group: x1,x2,x3,x4,x5,x6,x7
    relator: x1*x2*x3*x4*x5*x6*x7
    x1=<,x3*x4,x4^-1*x3^-1,x2*x3*x4*x5,x5^-1*x4^-1*x3^-1*x2^-1,x1>(2,3)(4,5)
    ...
    curves: x3*x4, x2*x3*x4*x5
    auto sigma = x1,x2,x3^(x3*x4),x4^(x3*x4),x5,x6,x7

Generators have infinite order: an ``orders:`` line is a ParseError.
Parsing then printing then parsing is the identity on the canonical
form.
"""

from __future__ import annotations

import json
import re
from functools import reduce
from operator import iadd
from dataclasses import dataclass, field

from . import perms
from .words import (
    Word, EPSILON, SphereGroup, Automorphism, reduce_word, run_length_str,
)
from .machine import (SphereMachine, WreathElement, BasisChange, MachineError,
                      _elided, _quoted)
from .mcbiset import MappingClassBiset, TableEdge
from .multicurve import Multicurve, MulticurveError


class ParseError(ValueError):
    def __init__(self, message, line=None, column=None):
        self.line = line
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {column}"
                                          if column is not None else "")
        super().__init__(message + where)


_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT = re.compile(r"-?\d+")
_WS = re.compile(r"[ \t]*")

# The most letters one word may spell as written, before free reduction:
# x^k spells |k| letters and x^w spells 2|w| + 1.  A longer word raises
# ParseError at the factor that passes the bound, before that factor is
# expanded.  2^21 letters is twice a million-letter twist power; reading
# a word that long takes about 0.2 s and 80 MB of peak memory.
MAX_WORD_LETTERS = 1 << 21


_STAR_OR_PAREN = re.compile(r"[*()]")


def _cut(text: str, start: int, end: int) -> tuple[list[str], int]:
    """The factor texts of the word at start, cut at each '*' outside
    parentheses, and where the word stops: at the first ')' that closes
    no '(' after start, or at end."""
    span = text[start:end]
    if "(" not in span and ")" not in span:
        return span.split("*"), end
    parts, depth, last = [], 0, start
    for m in _STAR_OR_PAREN.finditer(text, start, end):
        c = m.group()
        if c == "*":
            if not depth:
                parts.append(text[last:m.start()])
                last = m.end()
        elif c == "(":
            depth += 1
        elif not depth:
            end = m.start()
            break
        else:
            depth -= 1
    parts.append(text[last:end])
    return parts, end


class _WordReader:
    """word ::= factor ("*" factor)* ; factor ::= name ("^" exponent)? ;
    exponent ::= int | name | "(" word ")", over the alphabet names, with
    finish mapping the letters spelt to the word returned.

    A word is cut at each '*' outside parentheses before anything is
    parsed, and each factor text is looked up in a cache of the letters it
    spells.  Printed words repeat a handful of factor texts (x1, x3^-2,
    ...) many times over, so a reader kept for a whole file, words inside
    parentheses included, parses each distinct factor once.  Whole words
    repeat too (a .mcb spells one knitting image or conjugator on many
    edges), so each finished word is kept by its text and read once; a
    text that fails to parse is not kept, and fails again with its own
    line.
    """

    def __init__(self, names, finish):
        self.index = {nm: i + 1 for i, nm in enumerate(names)}
        self.finish = finish
        self.factors: dict[str, list[int]] = {}
        self.words: dict[str, Word] = {}

    def __call__(self, text: str, line=None) -> Word:
        word = self.words.get(text)
        if word is not None:
            return word
        if not text.strip():
            return EPSILON
        letters, stop = self._word(text, 0, len(text), MAX_WORD_LETTERS, line)
        if stop < len(text):
            raise ParseError(f"unexpected {text[stop:stop + 8]!r}", line,
                             stop + 1)
        word = self.words[text] = self.finish(letters)
        return word

    def _word(self, text, start, end, budget, line, outer=None):
        """The letters that the word at start spells, at most budget of them
        (see MAX_WORD_LETTERS), and where it stops (see _cut).  A word past
        the budget raises ParseError naming the top-level factor it lies
        in: outer, the (start, end) of that factor, or None at top level."""
        parts, end = _cut(text, start, end)
        got = list(map(self.factors.get, parts))
        if None not in got and sum(map(len, got)) <= budget:
            return reduce(iadd, got, []), end
        letters: list[int] = []
        at = start
        for part, known in zip(parts, got):
            stop = at + len(part)
            room = budget - len(letters)
            span = outer or (at, stop)
            if known is None:
                known = self.factors[part] = self._factor(
                    text, at, stop, room, line, span)
            elif len(known) > room:
                raise _past_bound(text, span, line)
            letters += known
            at = stop + 1
        return letters, end

    def _factor(self, text, pos, end, budget, line, outer) -> list[int]:
        """The letters of the factor text[pos:end], at most budget of them.
        The budget halves at each exponent, so factors nest at most about
        log2(MAX_WORD_LETTERS) deep before one passes it."""
        pos = _WS.match(text, pos, end).end()
        m = _NAME.match(text, pos, end)
        if not m:
            raise ParseError(f"expected a generator name, found "
                             f"{text[pos:pos + 8]!r}", line, pos + 1)
        x = self.index.get(m.group())
        if x is None:
            raise ParseError(f"unknown generator {_quoted(m.group())}",
                             line, pos + 1)
        pos = _WS.match(text, m.end(), end).end()
        k, exp = 1, None
        if pos < end and text[pos] == "^":
            pos = _WS.match(text, pos + 1, end).end()
            m = _INT.match(text, pos, end)
            if m:
                pos = m.end()
                try:
                    k = int(m.group())
                except ValueError:  # more digits than int() converts
                    k = budget + 1
            elif budget < 1:  # x^w spells 2|w| + 1 letters
                raise _past_bound(text, outer, line)
            elif pos < end and text[pos] == "(":
                exp, close = self._word(text, pos + 1, end,
                                        (budget - 1) // 2, line, outer)
                if close == end:
                    raise ParseError("missing ')' in exponent", line, end + 1)
                pos = close + 1
            else:
                # a factor exponent runs to the end: x^y^z is x^(y^z)
                exp = self._factor(text, pos, end, (budget - 1) // 2, line,
                                   outer)
                pos = end
        if abs(k) > budget:
            raise _past_bound(text, outer, line)
        pos = _WS.match(text, pos, end).end()
        if pos < end:
            raise ParseError(f"unexpected {text[pos:pos + 8]!r}", line,
                             pos + 1)
        if exp is None:
            return [x if k > 0 else -x] * abs(k)
        return [-y for y in reversed(exp)] + [x] + exp


def _past_bound(text, outer, line) -> ParseError:
    """The error for a word whose top-level factor text[outer] passes
    MAX_WORD_LETTERS."""
    start, end = outer
    factor = text[start:end].lstrip(" \t")
    return ParseError(f"factor {_quoted(factor.rstrip())} makes the word "
                      f"longer than {MAX_WORD_LETTERS} letters", line,
                      end - len(factor) + 1)


def parse_word(text: str, group: SphereGroup) -> Word:
    """A word typed on the command line; '1' is the trivial word, as the
    reports print it.  Row entries in files are read by _WordReader."""
    if text.strip() == "1":
        return EPSILON
    return _WordReader(group.names, group.normal_form)(text)


_CYCLES = re.compile(r"(?:\([0-9,\s]*\))*")
_CYCLE = re.compile(r"\(([0-9,\s]*)\)")
_ROW = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*=\s*<(.*)>\s*("
                  + _CYCLES.pattern + r")\s*$")


def parse_cycles(text: str, degree: int, line=None) -> perms.Perm:
    """A permutation of 1..degree in cycle notation, like (1,3,5)(2,4)."""
    if not _CYCLES.fullmatch(text):
        raise ParseError(f"bad cycle notation {_quoted(text)}", line)
    cycles = []
    for cm in _CYCLE.finditer(text):
        try:
            pts = [int(x) for x in cm.group(1).split(",") if x.strip()]
        except ValueError:
            raise ParseError(
                f"bad cycle point in ({_elided(cm.group(1), str)})", line)
        cycles.append(pts)
    try:
        return perms.from_cycles(cycles, degree)
    except ValueError as exc:  # a point out of range may be long
        raise ParseError(_elided(str(exc), str), line)


@dataclass
class MachineFile:
    machine: SphereMachine
    curves: Multicurve | None = None
    autos: dict[str, Automorphism] = field(default_factory=dict)

    def __eq__(self, other):
        return (isinstance(other, MachineFile)
                and self.machine == other.machine
                and (self.curves.labels() if self.curves else None)
                == (other.curves.labels() if other.curves else None)
                and self.autos == other.autos)


def _group(what: str, names, relator) -> SphereGroup:
    """The sphere group of a group block, its relator given as (generator
    names, line) or None; ParseError "<what>: <reason>" when it is bad."""
    words, line = relator or (None, None)
    try:
        return SphereGroup(names, relator=words)
    except (KeyError, ValueError) as exc:
        # a KeyError carries the relator name that names no generator
        reason = _quoted(exc.args[0]) if isinstance(exc, KeyError) else exc
        raise ParseError(f"{what}: {reason}", line)


def _machine(source: SphereGroup, target: SphereGroup, read: _WordReader,
             rows, degree=None) -> SphereMachine:
    """The machine of its row lines, given as (text, line number), one
    per source generator, with read reading the entries over target.

    The word grammar puts no comma inside parentheses, so the entries
    are the comma-separated pieces; a piece that is not a word raises
    ParseError.
    """
    by_name: dict[str, WreathElement] = {}
    for text, ln in rows:
        m = _ROW.match(text)
        if not m:
            raise ParseError(f"cannot parse line {_quoted(text)}", ln)
        name, entries_text, cycles_text = m.groups()
        if name not in source._index:
            raise ParseError(f"row for unknown generator {_quoted(name)}", ln)
        if name in by_name:
            raise ParseError(f"duplicate row for {_quoted(name)}", ln)
        entries = tuple(read(e, ln) for e in entries_text.split(","))
        if degree is None:
            degree = len(entries)
        if len(entries) != degree:
            raise ParseError(
                f"row has {len(entries)} entries, declared degree {degree}", ln)
        by_name[name] = WreathElement(entries,
                                      parse_cycles(cycles_text, degree, ln))
    missing = [nm for nm in source.names if nm not in by_name]
    if missing:
        raise ParseError(
            f"missing rows for {_elided(', '.join(missing), str)}")
    return SphereMachine(source, target, [by_name[nm] for nm in source.names])


def _automorphism(group: SphereGroup, read: _WordReader, texts, what: str,
                  line=None) -> Automorphism:
    """The automorphism of group with the images read from texts; a wrong
    number of images or images that break the relator raise ParseError
    "<what>: <reason>"."""
    images = [read(w, line) for w in texts]
    try:
        return Automorphism(group, images)
    except ValueError as exc:
        raise ParseError(f"{what}: {exc}", line)


_HEADERS = ("group", "relator", "target", "target_relator", "degree", "curves")


def parse_machine_file(text: str) -> MachineFile:
    """The machine file of text.  A header line (_HEADERS) or an auto line
    whose name was given before raises ParseError at the repeat."""
    heads: dict[str, tuple[str, int]] = {}
    rows_raw: list[tuple[str, int]] = []
    auto_raw: dict[str, tuple[str, int]] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        low = line.lower()
        head, colon, _ = low.partition(":")
        if colon and head in _HEADERS:
            if head in heads:
                raise ParseError(f"second '{head}:' line", ln)
            heads[head] = (line[len(head) + 1:].strip(), ln)
        elif low.startswith("orders:"):
            raise ParseError("finite generator orders are not supported", ln)
        elif low.startswith("auto "):
            body = line[5:]
            if "=" not in body:
                raise ParseError("automorphism line needs name = images", ln)
            name, images = (x.strip() for x in body.split("=", 1))
            if name in auto_raw:
                raise ParseError(f"second automorphism {_quoted(name)}", ln)
            auto_raw[name] = (images, ln)
        else:
            rows_raw.append((line, ln))

    def names(head):
        return [x.strip() for x in heads[head][0].split(",") if x.strip()]

    def relator(head):
        if head not in heads:
            return None
        words, ln = heads[head]
        return [x.strip() for x in words.split("*")], ln

    if "group" not in heads:
        raise ParseError("missing 'group:' line")
    source = _group("bad group block", names("group"), relator("relator"))
    target = source if "target" not in heads else \
        _group("bad target block", names("target"), relator("target_relator"))
    degree = None
    if "degree" in heads:
        degree_text, ln = heads["degree"]
        try:
            degree = int(degree_text)
        except ValueError:
            raise ParseError(f"bad degree {_quoted(degree_text)}", ln)
    read_source = _WordReader(source.names, source.normal_form)
    machine = _machine(source, target,
                       _WordReader(target.names, target.normal_form),
                       rows_raw, degree)
    curves = None
    if "curves" in heads:
        curve_text, ln = heads["curves"]
        reps = [read_source(x.strip(), ln) for x in curve_text.split(",")]
        try:
            curves = Multicurve(source, reps)
        except MulticurveError as exc:
            raise ParseError(f"bad curves: {exc}", ln)
    autos = {name: _automorphism(source, read_source, images_text.split(","),
                                 f"automorphism {_elided(name, str)}", ln)
             for name, (images_text, ln) in auto_raw.items()}
    return MachineFile(machine, curves, autos)


def print_machine_file(mf: MachineFile) -> str:
    M = mf.machine
    lines = [f"group: {','.join(M.source.names)}"]
    lines.append("relator: " + "*".join(
        M.source.names[i - 1] for i in M.source.relator))
    if M.target != M.source:
        lines.append(f"target: {','.join(M.target.names)}")
        lines.append("target_relator: " + "*".join(
            M.target.names[i - 1] for i in M.target.relator))
    lines.extend(M.text_rows())
    if mf.curves is not None:
        lines.append("curves: " + ", ".join(mf.curves.labels()))
    for name, a in mf.autos.items():
        lines.append(f"auto {name} = " + ",".join(
            M.source.word_str(w) for w in a.images))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# mapping class biset JSON

def parse_twist_word(text: str, alphabet) -> tuple[int, ...]:
    """A twist word typed on the command line, freely reduced; '1' is the
    trivial word, as classify-twist prints it."""
    if text.strip() == "1":
        return EPSILON
    return _WordReader(alphabet, reduce_word)(text)


def mcb_to_json(mcb: MappingClassBiset) -> dict:
    printed: dict[tuple[SphereGroup, Word], str] = {}

    def spell(group: SphereGroup, w: Word) -> str:
        """group.word_str(w), each distinct word printed once: one
        knitting image or conjugator repeats on many edges."""
        text = printed.get((group, w))
        if text is None:
            text = printed[group, w] = group.word_str(w)
        return text

    data: dict = {
        "alphabet": list(mcb.alphabet),
        "basis": list(mcb.basis_names),
        "base": mcb.basis_names[mcb.base],
        "table": [],
    }
    for (gen, k) in sorted(mcb.table, key=lambda e: (e[1], e[0])):
        edge = mcb.table[(gen, k)]
        rec = {
            "gen": gen,
            "from": mcb.basis_names[edge.source],
            "to": mcb.basis_names[edge.target],
        }
        if edge.knitting_word is not None:
            rec["knitting"] = run_length_str(mcb.alphabet, edge.knitting_word)
        if edge.knitting_auto is not None:
            G = edge.knitting_auto.group
            rec["knitting_images"] = [spell(G, w)
                                      for w in edge.knitting_auto.images]
        if edge.basis_change is not None:
            H = mcb.machines[0].target if mcb.machines else None
            rec["basis_change"] = {
                "conjugators": [spell(H, w)
                                for w in edge.basis_change.conjugators],
                "relabel": [p + 1 for p in edge.basis_change.relabel],
            }
        data["table"].append(rec)
    if mcb.machines is not None:
        M0 = mcb.machines[0]
        data["group"] = {
            "generators": list(M0.source.names),
            "relator": [M0.source.names[i - 1] for i in M0.source.relator],
        }
        data["machines"] = [m.text_rows() for m in mcb.machines]
        data["generators"] = {
            name: [spell(a.group, w) for w in a.images]
            for name, a in mcb.gens.items()
        }
    return data


_SHAPES = {
    str: "a string",
    dict: "an object",
    (list, str): "a list of strings",
    (list, int): "a list of integers",
    (list, dict): "a list of objects",
    (list, list): "a list of lists",
}


def _check(val, shape, what: str):
    """val, or ParseError unless it has the JSON shape (a type, or
    (list, item type))."""
    if isinstance(shape, tuple):
        ok = isinstance(val, list) and all(
            isinstance(x, shape[1]) and not isinstance(x, bool) for x in val)
    else:
        ok = isinstance(val, shape)
    if not ok:
        raise ParseError(f".mcb: {what} must be {_SHAPES[shape]}")
    return val


def _field(obj: dict, key: str, shape, default=None):
    """obj[key] checked by _check; default when absent, ParseError when
    absent and required (no default)."""
    if key not in obj:
        if default is None:
            raise ParseError(f".mcb: missing field {key!r}")
        return default
    return _check(obj[key], shape, f"field {key!r}")


def _needs_group(data: dict, keys, where):
    """ParseError on the first of keys in data, read without a group."""
    for key in keys:
        if key in data:
            raise ParseError(f"{where}: {key!r} needs a group block")


def _distinct(data: dict, key: str, what: str) -> tuple[str, ...]:
    """The names of field key, ParseError on a name given twice."""
    names = tuple(_field(data, key, (list, str)))
    seen = set()
    for name in names:
        if name in seen:
            raise ParseError(f".mcb: {what} {_quoted(name)} appears "
                             f"twice in the {key}")
        seen.add(name)
    return names


def mcb_from_json(data: dict) -> MappingClassBiset:
    """Rebuild a biset from its JSON form; ParseError on a malformed one.

    A table has few distinct knittings, so edges with the same
    knitting_images list share one Automorphism, built at the first of
    them, and with it the values kept on it (its inverse, and its one
    peripheral pass, which gives its twist_fingerprint).  A list that fails to build is not
    kept and fails at the first edge that carries it.
    """
    if not isinstance(data, dict):
        raise ParseError(".mcb: top level must be an object")
    alphabet = _distinct(data, "alphabet", "generator")
    basis = _distinct(data, "basis", "basis element")
    if not basis:
        raise ParseError(".mcb: empty basis")
    pos = {nm: i for i, nm in enumerate(basis)}

    def basis_index(name):
        if name not in pos:
            raise ParseError(f".mcb: unknown basis element {_quoted(name)}")
        return pos[name]

    machines = None
    gens: dict[str, Automorphism] = {}
    group = None
    if "group" not in data:
        _needs_group(data, ("machines", "generators"), ".mcb")
    else:
        gdata = _field(data, "group", dict)
        names = _field(gdata, "generators", (list, str))
        relator = ((_field(gdata, "relator", (list, str)), None)
                   if "relator" in gdata else None)
        group = _group(".mcb: bad group", names, relator)
        read = _WordReader(group.names, group.normal_form)
        rows_texts = _field(data, "machines", (list, list))
        if len(rows_texts) != len(basis):
            raise ParseError(f".mcb: {len(rows_texts)} machines for a basis "
                             f"of {len(basis)}")
        machines = []
        for k, rows_text in enumerate(rows_texts):
            _check(rows_text, (list, str), "machine rows")
            try:
                machines.append(_machine(group, group, read, [
                    (row, ln) for ln, row in enumerate(rows_text, start=1)]))
            except ParseError as exc:
                raise ParseError(f".mcb: machine {_quoted(basis[k])}: {exc}")
        d = machines[0].degree
        if any(m.degree != d for m in machines):
            raise ParseError(".mcb: machines of different degrees")
        for name, images in _field(data, "generators", dict, {}).items():
            what = f"generator {_quoted(name)}"
            gens[name] = _automorphism(group, read, _check(
                images, (list, str), what), f".mcb: {what}")
    read_twist = _WordReader(alphabet, reduce_word)
    knittings: dict[tuple[str, ...], Automorphism] = {}
    table: dict[tuple[str, int], TableEdge] = {}
    for rec in _field(data, "table", (list, dict)):
        src = basis_index(_field(rec, "from", str))
        dst = basis_index(_field(rec, "to", str))
        edge = TableEdge(_field(rec, "gen", str), src, dst)
        where = f"edge {_quoted(edge.gen)} from {_quoted(basis[src])}"
        if edge.gen not in alphabet:
            raise ParseError(f".mcb: {where}: generator not in the alphabet")
        if "knitting" in rec:
            edge.knitting_word = read_twist(_field(rec, "knitting", str))
        if group is None:
            _needs_group(rec, ("knitting_images", "basis_change"),
                         f".mcb: {where}")
        if "knitting_images" in rec:
            texts = tuple(_field(rec, "knitting_images", (list, str)))
            edge.knitting_auto = knittings.get(texts)
            if edge.knitting_auto is None:
                edge.knitting_auto = knittings[texts] = _automorphism(
                    group, read, texts, f".mcb: {where}: knitting_images")
        if "basis_change" in rec:
            bc = _field(rec, "basis_change", dict)
            conj = tuple(read(w)
                         for w in _field(bc, "conjugators", (list, str)))
            relabel = tuple(p - 1 for p in _field(bc, "relabel", (list, int)))
            if len(conj) != d or sorted(relabel) != list(range(d)):
                raise ParseError(
                    f".mcb: {where}: basis_change needs {d} conjugators "
                    f"and a relabel that permutes 1..{d}")
            edge.basis_change = BasisChange(conj, relabel)
        if (edge.gen, src) in table:
            raise ParseError(f".mcb: {where}: duplicate table record")
        table[(edge.gen, src)] = edge
    base = basis_index(_field(data, "base", str, basis[0]))
    try:
        return MappingClassBiset(alphabet, basis, table, machines, gens, base)
    except MachineError as exc:
        raise ParseError(f".mcb: {exc}")


def load_mcb(path: str) -> MappingClassBiset:
    with open(path) as fh:
        return mcb_from_json(json.load(fh))


def save_mcb(mcb: MappingClassBiset, path: str):
    with open(path, "w") as fh:
        json.dump(mcb_to_json(mcb), fh, indent=1, sort_keys=True)
        fh.write("\n")
