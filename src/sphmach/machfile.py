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
from dataclasses import dataclass, field

from . import perms
from .words import (
    Word, EPSILON, SphereGroup, Automorphism, reduce_word, run_length_str,
)
from .machine import SphereMachine, WreathElement, BasisChange
from .mcbiset import MappingClassBiset, TableEdge
from .multicurve import Multicurve, MulticurveError


class ParseError(ValueError):
    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {column}"
                                          if column is not None else "")
        super().__init__(message + where)


_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT = re.compile(r"-?\d+")


class _WordParser:
    """word ::= factor ("*" factor)* ; factor ::= name ("^" exponent)? ;
    exponent ::= int | name | "(" word ")" """

    def __init__(self, text, index, line=None):
        self.text = text
        self.pos = 0
        self.index = index
        self.line = line

    def error(self, msg):
        raise ParseError(msg, self.line, self.pos + 1)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse_word(self) -> list[int]:
        letters = self.parse_factor()
        while self.peek() == "*":
            self.pos += 1
            letters += self.parse_factor()
        return letters

    def parse_factor(self) -> list[int]:
        self.skip_ws()
        m = _NAME.match(self.text, self.pos)
        if not m:
            self.error(f"expected a generator name, found "
                       f"{self.text[self.pos:self.pos + 8]!r}")
        name = m.group(0)
        if name not in self.index:
            self.error(f"unknown generator {name!r}")
        self.pos = m.end()
        base = [self.index[name]]
        if self.peek() != "^":
            return base
        self.pos += 1
        self.skip_ws()
        m = _INT.match(self.text, self.pos)
        if m:
            self.pos = m.end()
            k = int(m.group(0))
            x = base[0]
            return [x if k > 0 else -x] * abs(k)
        if self.peek() == "(":
            self.pos += 1
            exp = self.parse_word()
            if self.peek() != ")":
                self.error("missing ')' in exponent")
            self.pos += 1
        else:
            exp = self.parse_factor()
        return [-x for x in reversed(exp)] + base + exp

    def expect_end(self):
        self.skip_ws()
        if self.pos < len(self.text):
            self.error(f"unexpected {self.text[self.pos:self.pos + 8]!r}")


class _WordReader:
    """Reads words over one group, remembering the letters of each
    '*'-separated factor text it has read.

    Printed words repeat a handful of factor texts (x1, x3^-2, ...) many
    times over, so a reader kept for a whole file parses each distinct
    factor once.  _WordParser reads every new factor, and reads the
    whole text when it has parentheses or a factor does not parse, so
    the grammar and its error messages stay in one place.
    """

    def __init__(self, group: SphereGroup):
        self.group = group
        self.index = {nm: i + 1 for i, nm in enumerate(group.names)}
        self.factors: dict[str, list[int]] = {}

    def __call__(self, text: str, line=None) -> Word:
        if not text.strip():
            return EPSILON
        if "(" not in text:
            factors = self.factors
            letters: list[int] = []
            for f in text.split("*"):
                got = factors.get(f)
                if got is None:
                    try:
                        got = factors[f] = self._parse(f, line)
                    except ParseError:
                        break
                letters += got
            else:
                return self.group.normal_form(letters)
        return self.group.normal_form(self._parse(text, line))

    def _parse(self, text: str, line) -> list[int]:
        p = _WordParser(text, self.index, line)
        w = p.parse_word()
        p.expect_end()
        return w


def parse_word(text: str, group: SphereGroup, line=None) -> Word:
    """A word typed on the command line; '1' is the trivial word, as the
    reports print it.  Row entries in files are read by _WordReader."""
    if text.strip() == "1":
        return EPSILON
    return _WordReader(group)(text, line)


_CYCLES = re.compile(r"(?:\([0-9,\s]*\))*")
_CYCLE = re.compile(r"\(([0-9,\s]*)\)")
_ROW = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*=\s*<(.*)>\s*("
                  + _CYCLES.pattern + r")\s*$")


def parse_cycles(text: str, degree: int, line=None) -> perms.Perm:
    """A permutation of 1..degree in cycle notation, like (1,3,5)(2,4)."""
    if not _CYCLES.fullmatch(text):
        raise ParseError(f"bad cycle notation {text!r}", line)
    cycles = []
    for cm in _CYCLE.finditer(text):
        try:
            pts = [int(x) for x in cm.group(1).split(",") if x.strip()]
        except ValueError:
            raise ParseError(f"bad cycle point in ({cm.group(1)})", line)
        if any(not 1 <= p <= degree for p in pts):
            raise ParseError("cycle point outside 1..degree", line)
        cycles.append(pts)
    try:
        return perms.from_cycles(cycles, degree)
    except ValueError as exc:
        raise ParseError(str(exc), line)


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
        raise ParseError(f"{what}: {exc}", line)


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
            raise ParseError(f"cannot parse line {text!r}", ln)
        name, entries_text, cycles_text = m.groups()
        if name not in source._index:
            raise ParseError(f"row for unknown generator {name!r}", ln)
        if name in by_name:
            raise ParseError(f"duplicate row for {name!r}", ln)
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
        raise ParseError(f"missing rows for {', '.join(missing)}")
    return SphereMachine(source, target, [by_name[nm] for nm in source.names])


def _automorphism(read: _WordReader, texts, what: str,
                  line=None) -> Automorphism:
    """The automorphism with the images read from texts; a wrong number of
    images or images that break the relator raise ParseError "<what>:
    <reason>"."""
    images = [read(w, line) for w in texts]
    try:
        return Automorphism(read.group, images)
    except ValueError as exc:
        raise ParseError(f"{what}: {exc}", line)


def parse_machine_file(text: str) -> MachineFile:
    source_names = None
    relator = None
    target_names = None
    target_relator = None
    degree = None
    rows_raw: list[tuple[str, int]] = []
    curve_text = None
    auto_raw: list[tuple[str, str, int]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        low = line.lower()
        if low.startswith("group:"):
            source_names = [x.strip() for x in line[6:].split(",") if x.strip()]
        elif low.startswith("relator:"):
            relator = ([x.strip() for x in line[8:].split("*")], ln)
        elif low.startswith("orders:"):
            raise ParseError("finite generator orders are not supported", ln)
        elif low.startswith("target:"):
            target_names = [x.strip() for x in line[7:].split(",") if x.strip()]
        elif low.startswith("target_relator:"):
            target_relator = ([x.strip() for x in line[15:].split("*")], ln)
        elif low.startswith("degree:"):
            try:
                degree = int(line[7:])
            except ValueError:
                raise ParseError(f"bad degree {line[7:].strip()!r}", ln)
        elif low.startswith("curves:"):
            curve_text = (line[7:].strip(), ln)
        elif low.startswith("auto "):
            body = line[5:]
            if "=" not in body:
                raise ParseError("automorphism line needs name = images", ln)
            name, images = body.split("=", 1)
            auto_raw.append((name.strip(), images.strip(), ln))
        else:
            rows_raw.append((line, ln))
    if source_names is None:
        raise ParseError("missing 'group:' line")
    source = _group("bad group block", source_names, relator)
    target = source if target_names is None else \
        _group("bad target block", target_names, target_relator)
    read_source = _WordReader(source)
    machine = _machine(source, target, _WordReader(target), rows_raw, degree)
    curves = None
    if curve_text is not None:
        reps = [read_source(x.strip(), curve_text[1])
                for x in curve_text[0].split(",")]
        try:
            curves = Multicurve(source, reps)
        except MulticurveError as exc:
            raise ParseError(f"bad curves: {exc}", curve_text[1])
    autos = {name: _automorphism(read_source, images_text.split(","),
                                 f"automorphism {name}", ln)
             for name, images_text, ln in auto_raw}
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
    index = {nm: i + 1 for i, nm in enumerate(alphabet)}
    # '1' is the trivial word, as classify-twist prints it
    if text.strip() in ("", "1"):
        return EPSILON
    p = _WordParser(text, index)
    w = p.parse_word()
    p.expect_end()
    return reduce_word(w)


def mcb_to_json(mcb: MappingClassBiset) -> dict:
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
            rec["knitting_images"] = [G.word_str(w)
                                      for w in edge.knitting_auto.images]
        if edge.basis_change is not None:
            H = mcb.machines[0].target if mcb.machines else None
            rec["basis_change"] = {
                "conjugators": [H.word_str(w)
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
            name: [a.group.word_str(w) for w in a.images]
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


def mcb_from_json(data: dict) -> MappingClassBiset:
    """Rebuild a biset from its JSON form; ParseError on a malformed one."""
    if not isinstance(data, dict):
        raise ParseError(".mcb: top level must be an object")
    alphabet = tuple(_field(data, "alphabet", (list, str)))
    basis = tuple(_field(data, "basis", (list, str)))
    if not basis:
        raise ParseError(".mcb: empty basis")
    pos = {nm: i for i, nm in enumerate(basis)}

    def basis_index(name):
        if name not in pos:
            raise ParseError(f".mcb: unknown basis element {name!r}")
        return pos[name]

    machines = None
    gens: dict[str, Automorphism] = {}
    group = None
    if "group" in data:
        gdata = _field(data, "group", dict)
        names = _field(gdata, "generators", (list, str))
        relator = ((_field(gdata, "relator", (list, str)), None)
                   if "relator" in gdata else None)
        group = _group(".mcb: bad group", names, relator)
        read = _WordReader(group)
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
                raise ParseError(f".mcb: machine {basis[k]!r}: {exc}")
        d = machines[0].degree
        if any(m.degree != d for m in machines):
            raise ParseError(".mcb: machines of different degrees")
        for name, images in _field(data, "generators", dict, {}).items():
            what = f"generator {name!r}"
            gens[name] = _automorphism(
                read, _check(images, (list, str), what), f".mcb: {what}")
    table: dict[tuple[str, int], TableEdge] = {}
    for rec in _field(data, "table", (list, dict)):
        src = basis_index(_field(rec, "from", str))
        dst = basis_index(_field(rec, "to", str))
        edge = TableEdge(_field(rec, "gen", str), src, dst)
        where = f"edge {edge.gen!r} from {basis[src]!r}"
        if edge.gen not in alphabet:
            raise ParseError(f".mcb: {where}: generator not in the alphabet")
        if "knitting" in rec:
            edge.knitting_word = parse_twist_word(
                _field(rec, "knitting", str), alphabet)
        if "knitting_images" in rec and group is not None:
            edge.knitting_auto = _automorphism(
                read, _field(rec, "knitting_images", (list, str)),
                f".mcb: {where}: knitting_images")
        if "basis_change" in rec and group is not None:
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
    return MappingClassBiset(alphabet, basis, table, machines, gens, base)


def load_mcb(path: str) -> MappingClassBiset:
    with open(path) as fh:
        return mcb_from_json(json.load(fh))


def save_mcb(mcb: MappingClassBiset, path: str):
    with open(path, "w") as fh:
        json.dump(mcb_to_json(mcb), fh, indent=1, sort_keys=True)
        fh.write("\n")
