"""Labeled imperative core language: syntax, parsing, and small-step semantics.

A program is a sequence of uniquely labeled commands::

    l0: x := 10
    l1: if x <= 0 then l4
    l2: x := x - 1
    l3: goto l1
    l4: halt
    l5: done

Commands are ``skip``, assignment, conditional branch, ``goto``, ``halt``
and ``done``.  Execution starts at the first label and proceeds through
configurations ``(label, state)`` where the state maps variable names to
integers.  A ``halt`` steps to the ``done`` command that must immediately
follow it; execution is complete once it reaches a ``done``.  Evaluating a
variable missing from the state makes the execution stuck.

Integers are 64-bit two's complement with wrap-around on overflow: the
parser rejects a literal above 2**63 - 1 and an execution an initial value
outside that range.  A ``Num`` holds such an int (never a bool) and a
``BoolLit`` a bool; any other value is a ValueError when the node is
built.  All values here are immutable after construction and safe to share.

The parser builds the commonest lines (``skip``, ``halt``, ``done``,
``goto L``, ``x := a``, ``x := a op b`` and ``if a cmp b then L``, each
leaf a word or at most 19 digits) from one regular expression's match.
Every other line, and every error, goes to a recursive descent over the
tokens another regular expression splits it into.  Both read each leaf
token with ``_leaf``, the one rule that makes one node per variable name
and per literal token of a parse and words the errors about a leaf.
Building a ``Program`` fills a per-label table: each label's command, its
``StepObligations`` (read set and assigned variable, one record per
distinct pair), its next label and its successors (as a set and
fall-through first), so ``command_obligations`` and the successor queries
are lookups.  Beside it the program keeps each label's obligations as two
int bit masks, computed once per distinct record, where bit k stands for
the k-th variable name in sorted order (the slot order below):
``obligation_masks`` hands them to the engine and ``mask_names`` turns a
mask back into its set.  The first use of a label compiles its transition
over the slots, a list with one entry per variable, and keeps it in the
table, as a ``Program`` keeps its ``sweep_order`` and last ``label_path``
(neither enters equality or pickling).  An assignment or a branch whose
operator has two leaf operands is one closure; any other expression is a
tree of closures, one per node, leaves included.  An assignment writes its
slot and returns the next label; a branch returns a label.

``run_trace`` and ``label_path`` each loop over the transitions, from
one start and under one ``max_steps`` rule, and build no configuration.
``label_path`` yields only the first position of each distinct step (a
label and what it reached) and the last, and records them once for the
engine and the checkers; ``run_trace`` counts positions and the outcome.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from enum import Enum
from itertools import compress
from typing import Callable, Iterator, Mapping, Union

Label = str
# an initial state as ``label_path`` keys its record: (name, value) pairs sorted by name
StateTuple = tuple[tuple[str, int], ...]

_INT64_MASK = (1 << 64) - 1
_INT64_SIGN = 1 << 63
_DIGIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# parentheses and ``not`` nest at most this deep, well inside Python's recursion limit
_MAX_NESTING = 50
_KEYWORDS = frozenset(
    {"skip", "if", "then", "goto", "halt", "done", "true", "false", "not", "and", "or"}
)


def _fits_int64(value: object) -> bool:
    return type(value) is int and -_INT64_SIGN <= value < _INT64_SIGN


def _wrap64(value: int) -> int:
    value &= _INT64_MASK
    return value - (1 << 64) if value & _INT64_SIGN else value


class CoreLangError(Exception):
    """Base class for parse and execution errors of the core language."""


class ParseError(CoreLangError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class ProgramStructureError(CoreLangError):
    """A syntactically valid command sequence that is not a valid Program."""


class UndefinedVariableError(CoreLangError):
    def __init__(self, name: str):
        super().__init__(f"undefined variable {name!r}")
        self.name = name


class UnknownLabelError(CoreLangError):
    def __init__(self, label: Label):
        super().__init__(f"unknown label {label!r}")
        self.label = label


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: int

    def __post_init__(self) -> None:
        if not _fits_int64(self.value):
            raise ValueError(f"integer literal is not a 64-bit integer: {self.value!r}")


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class ABin:
    op: str  # one of + - *
    left: "AExp"
    right: "AExp"


AExp = Union[Num, Var, ABin]


@dataclass(frozen=True)
class BoolLit:
    value: bool

    def __post_init__(self) -> None:
        if type(self.value) is not bool:
            raise ValueError(f"boolean literal is not a bool: {self.value!r}")


@dataclass(frozen=True)
class Cmp:
    op: str  # one of = <=
    left: AExp
    right: AExp


@dataclass(frozen=True)
class Not:
    operand: "BExp"


@dataclass(frozen=True)
class BBin:
    op: str  # and | or
    left: "BExp"
    right: "BExp"


BExp = Union[BoolLit, Cmp, Not, BBin]
_BINARY = (ABin, Cmp, BBin)


def expr_vars(expr: AExp | BExp) -> frozenset[str]:
    """All variable names read by an expression."""
    # one walk and one set, with isinstance tests: this runs for every label a Program builds
    names, nodes = [], [expr]
    for node in nodes:  # the list grows as the walk visits the children
        if isinstance(node, Var):
            names.append(node.name)
        elif isinstance(node, _BINARY):
            nodes += node.left, node.right
        elif isinstance(node, Not):
            nodes.append(node.operand)
        elif not isinstance(node, (Num, BoolLit)):
            raise TypeError(f"not an expression: {node!r}")
    return frozenset(names)


# --------------------------------------------------------------------------
# Commands and programs
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Skip:
    pass


@dataclass(frozen=True)
class Assign:
    var: str
    expr: AExp


@dataclass(frozen=True)
class If:
    cond: BExp
    target: Label


@dataclass(frozen=True)
class Goto:
    target: Label


@dataclass(frozen=True)
class Halt:
    pass


@dataclass(frozen=True)
class Done:
    pass


Command = Union[Skip, Assign, If, Goto, Halt, Done]


VarSet = frozenset[str]


@dataclass(frozen=True)
class StepObligations:
    """Per-command obligations: what must be predicted, what may be dropped.

    ``precondition`` is the set of variables the command reads (they must be
    predicted live before the command).  ``prediction_extra`` is the set the
    next prediction may add beyond the current one: the assigned variable
    for assignments, empty otherwise.  For the backward dataflow reading,
    precondition is use(l) and prediction_extra is def(l).
    """

    precondition: VarSet
    prediction_extra: VarSet


class _LabelEntry:
    """What the semantics and analyses ask about a label; ``transition`` compiles on first use."""

    __slots__ = ("command", "obligations", "next_label", "ordered_successors", "successors",
                 "transition")

    def __init__(self, command: Command, next_label: Label | None,
                 shared: dict[tuple[VarSet, VarSet], StepObligations]):
        self.command = command
        self.next_label = next_label
        if isinstance(command, Assign):
            key = expr_vars(command.expr), frozenset((command.var,))
        elif isinstance(command, If):
            key = expr_vars(command.cond), frozenset()
        else:
            key = frozenset(), frozenset()
        if (obligations := shared.get(key)) is None:
            obligations = shared[key] = StepObligations(*key)
        self.obligations = obligations
        # fall-through first, then the branch target (next_label is None only at the end)
        if isinstance(command, Goto):
            ordered: tuple[Label, ...] = (command.target,)
        elif isinstance(command, If) and command.target != next_label:
            ordered = (next_label, command.target)
        elif isinstance(command, Done):
            ordered = ()
        elif isinstance(command, (Assign, If, Skip, Halt)):
            ordered = (next_label,)
        else:
            raise TypeError(f"not a command: {command!r}")
        self.ordered_successors = ordered
        self.successors = frozenset(ordered)
        self.transition: Transition | None = None


class Program:
    """An ordered sequence of uniquely labeled commands.

    Validation happens at construction: labels must be unique, every
    ``halt`` must be immediately followed by a ``done``, branch targets
    must exist, and the final command must not fall through (only
    ``done`` or ``goto`` may end the sequence).  Construction also builds
    the per-label table (see the module docstring), so every query below
    is a lookup; a label's transition is compiled on its first use.
    """

    def __init__(self, commands: Iterator[tuple[Label, Command]] | list[tuple[Label, Command]]):
        self.commands: tuple[tuple[Label, Command], ...] = tuple(commands)
        if not self.commands:
            raise ProgramStructureError("a program must contain at least one command")
        self.labels: tuple[Label, ...] = tuple(label for label, _ in self.commands)
        followers = self.commands[1:] + ((None, None),)
        self._table: dict[Label, _LabelEntry] = {}
        shared: dict[tuple[VarSet, VarSet], StepObligations] = {}
        for (label, command), (nxt, _) in zip(self.commands, followers):
            if label in self._table:
                raise ProgramStructureError(f"duplicate label {label!r}")
            self._table[label] = _LabelEntry(command, nxt, shared)
        # None stands for the end, where only a final command that falls through goes
        inverse: dict[Label | None, set[Label]] = {label: set() for label in (*self.labels, None)}
        for (label, command), (_, follower) in zip(self.commands, followers):
            entry = self._table[label]
            if isinstance(command, Halt) and not isinstance(follower, Done):
                raise ProgramStructureError(
                    f"halt at {label!r} is not immediately followed by done"
                )
            if isinstance(command, (If, Goto)) and command.target not in self._table:
                raise ProgramStructureError(
                    f"command at {label!r} targets unknown label {command.target!r}"
                )
            for successor in entry.ordered_successors:
                inverse[successor].add(label)
        if inverse.pop(None):
            raise ProgramStructureError(
                f"last command at {self.labels[-1]!r} may fall through past the end"
            )
        self._predecessors = {label: frozenset(preds) for label, preds in inverse.items()}
        self._variables = frozenset().union(*(o.precondition | o.prediction_extra
                                              for o in shared.values()))
        self._names = tuple(sorted(self._variables))
        self._slot = {name: at for at, name in enumerate(self._names)}
        # each record's read set and assigned variable as bit masks: bit k is slot k
        bit = {name: 1 << at for name, at in self._slot.items()}.__getitem__
        masks = {id(record): (sum(map(bit, record.precondition)), sum(map(bit, record.prediction_extra)))
                 for record in shared.values()}
        self._masks = {label: masks[id(entry.obligations)] for label, entry in self._table.items()}
        self._sweep_order: tuple[Label, ...] | None = None
        self._path: tuple | None = None  # (key, the entries of label_path)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Program) and self.commands == other.commands

    def __hash__(self) -> int:
        return hash(self.commands)

    def __reduce__(self):
        # the table holds closures, which do not pickle; rebuild it from the commands
        return (Program, (self.commands,))

    def __repr__(self) -> str:
        return f"Program({len(self.commands)} commands, first={self.first!r})"

    @property
    def first(self) -> Label:
        return self.labels[0]

    def _entry(self, label: Label) -> _LabelEntry:
        try:
            return self._table[label]
        except KeyError:
            raise UnknownLabelError(label) from None

    def command_at(self, label: Label) -> Command:
        return self._entry(label).command

    def next_label(self, label: Label) -> Label | None:
        """Label of the next command in sequence order, or None at the end."""
        return self._entry(label).next_label

    def successors(self, label: Label) -> frozenset[Label]:
        return self._entry(label).successors

    def ordered_successors(self, label: Label) -> tuple[Label, ...]:
        """Successors in a fixed order: fall-through first, then the branch target."""
        return self._entry(label).ordered_successors

    def predecessors(self, label: Label) -> frozenset[Label]:
        try:
            return self._predecessors[label]
        except KeyError:
            raise UnknownLabelError(label) from None

    def variables(self) -> frozenset[str]:
        """All variable names mentioned anywhere in the program."""
        return self._variables

    def sweep_order(self) -> tuple[Label, ...]:
        """Each reachable label once, depth first, fall-through before branch target (kept)."""
        if self._sweep_order is None:
            visited: dict[Label, None] = {}
            stack = [self.first]
            while stack:
                label = stack.pop()
                if label in visited:
                    continue
                visited[label] = None
                stack += [s for s in reversed(self.ordered_successors(label)) if s not in visited]
            self._sweep_order = tuple(visited)
        return self._sweep_order


def command_obligations(program: Program, label: Label) -> StepObligations:
    """The obligations of the command at ``label``, from the program's table."""
    return program._entry(label).obligations


def obligation_masks(program: Program) -> Mapping[Label, tuple[int, int]]:
    """Each label's obligations as ``(read_mask, def_mask)``, from the program's table.

    Bit k stands for the k-th of the program's variable names in sorted
    order, so ``mask_names`` turns a mask back into its set.  The mapping
    is the program's own: read it, never change it.
    """
    return program._masks


def mask_names(program: Program, mask: int) -> VarSet:
    """The variable names whose bits are set in ``mask``, numbered as ``obligation_masks`` does."""
    # the binary digits, lowest first, as 0 and 1 bytes select the names of their slots
    return frozenset(compress(program._names, bin(mask)[:1:-1].encode().translate(_DIGIT_BYTES)))


# --------------------------------------------------------------------------
# Parsing
# --------------------------------------------------------------------------


# One token per match: an identifier, an integer, ':=' or '<=', or any other
# single character.  Only blanks and tabs separate tokens.
_TOKEN_RE = re.compile(r"[ \t]*([A-Za-z_][A-Za-z0-9_]*|[0-9]+|:=|<=|[^ \t])")
_WORD_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_DIGITS = frozenset("0123456789")
# after a parenthesized boolean, these first characters make it an arithmetic operand
_ARITH_FOLLOW = frozenset("=<+-*")
_BARE_COMMANDS = {"skip": Skip, "halt": Halt, "done": Done}
# The commonest lines, whole, with blanks where tokens would run together (``ifx``, ``1then``)
_WORD = _IDENT_RE.pattern
_LEAF = rf"({_WORD}|[0-9]{{1,19}})"
_COMMAND_RE = re.compile(
    rf"[ \t]*(?:({_WORD})[ \t]*:=[ \t]*{_LEAF}(?:[ \t]*([-+*])[ \t]*{_LEAF})?"
    rf"|if[ \t]+{_LEAF}[ \t]*(<=|=)[ \t]*{_LEAF}[ \t]+then[ \t]+({_WORD})"
    rf"|goto[ \t]+({_WORD})|(skip|halt|done))[ \t]*"
)


class _Parser:
    """Recursive descent over one line's tokens, then an empty end token.

    One parser reads a whole program, ``reset`` for each line, and reads
    each leaf with ``_leaf``, as ``_match_command`` does, so a program holds
    one node per name and per literal token.  Errors point at the next
    token or the end of the text, found only then; a nesting error, or a
    word read in place of ``then``, just past the last token read.
    """

    def __init__(self) -> None:
        self.leaves: dict[str, Num | Var] = {}  # by token: digits make a Num, a word a Var

    def reset(self, text: str, line_no: int, offset: int) -> None:
        self.text = text
        self.line_no = line_no
        self.offset = offset  # column of text[0] within the original line
        self.tokens = _TOKEN_RE.findall(text)
        self.tokens.append("")
        self.i = 0
        self.depth = 0

    def error(self, message: str, after_previous: bool = False) -> ParseError:
        return ParseError(message, self.line_no, self.offset + self.position(after_previous))

    def position(self, after_previous: bool = False) -> int:
        spans = [m.span(1) for m in _TOKEN_RE.finditer(self.text)] + [(len(self.text), 0)]
        return spans[self.i - 1][1] if after_previous else spans[self.i][0]

    def take(self, token: str) -> bool:
        if self.tokens[self.i] == token:
            self.i += 1
            return True
        return False

    def take_word(self) -> str | None:
        token = self.tokens[self.i]
        if token[:1] in _WORD_START:
            self.i += 1
            return token
        return None

    def nested(self, parse: Callable[[], "AExp | BExp"]) -> "AExp | BExp":
        """Parse one level of parentheses or ``not`` with ``parse``, bounding the depth."""
        if self.depth >= _MAX_NESTING:
            raise self.error(f"expression nested more than {_MAX_NESTING} deep", True)
        self.depth += 1
        try:
            return parse()
        finally:
            self.depth -= 1

    def label(self, after: str) -> Label:
        target = self.take_word()
        if target is None:
            raise self.error(f"expected target label after {after!r}")
        return target

    def end(self, command: Command) -> Command:
        if self.i != len(self.tokens) - 1:
            raise self.error(f"unexpected trailing input {self.text[self.position():]!r}")
        return command

    # arithmetic: term ((+|-) term)*, term: factor (* factor)*
    def aexp(self) -> AExp:
        node = self.aterm()
        while (op := self.tokens[self.i]) == "+" or op == "-":
            self.i += 1
            node = ABin(op, node, self.aterm())
        return node

    def aterm(self) -> AExp:
        node = self.afactor()
        while self.take("*"):
            node = ABin("*", node, self.afactor())
        return node

    def afactor(self) -> AExp:
        if self.take("("):
            node = self.nested(self.aexp)
            if not self.take(")"):
                raise self.error("expected ')'")
            return node
        try:
            node = _leaf(self.leaves, self.tokens[self.i])
        except ValueError as exc:
            raise self.error(str(exc)) from None
        self.i += 1
        return node

    # boolean: bor := band ("or" band)*, band := bnot ("and" bnot)*
    def bexp(self) -> BExp:
        node = self.band()
        while self.take("or"):
            node = BBin("or", node, self.band())
        return node

    def band(self) -> BExp:
        node = self.bnot()
        while self.take("and"):
            node = BBin("and", node, self.bnot())
        return node

    def bnot(self) -> BExp:
        if self.take("not"):
            return Not(self.nested(self.bnot))
        return self.batom()

    def batom(self) -> BExp:
        if self.take("true"):
            return BoolLit(True)
        if self.take("false"):
            return BoolLit(False)
        if self.tokens[self.i] == "(":
            # Could be a parenthesized boolean or the left side of a
            # comparison; try boolean first, fall back to comparison.
            saved = self.i
            self.i += 1
            try:
                inner = self.nested(self.bexp)
                if self.take(")") and self.tokens[self.i][:1] not in _ARITH_FOLLOW:
                    return inner
            except ParseError:
                pass
            self.i = saved
        left = self.aexp()
        op = self.tokens[self.i]
        if op == "<=" or op == "=":
            self.i += 1
            return Cmp(op, left, self.aexp())
        raise self.error("expected '=' or '<=' in comparison")


def is_variable_name(text: str) -> bool:
    """Whether ``text`` can name a variable: an identifier that is not a keyword."""
    return _IDENT_RE.fullmatch(text) is not None and text not in _KEYWORDS


def _leaf(leaves: dict[str, Num | Var], token: str) -> Num | Var:
    """The node ``token`` interns to in ``leaves``; a ValueError, worded as the parse error,
    for a keyword, a literal too long or of 2**63 or more, or any other token."""
    if (node := leaves.get(token)) is None:
        if token[:1] in _DIGITS:
            try:
                value = int(token)
            except ValueError:  # longer than int() accepts
                raise ValueError("integer literal too long") from None
            if value >= _INT64_SIGN:
                raise ValueError("integer literal outside the 64-bit range")
            node = leaves[token] = Num(value)
        elif token[:1] in _WORD_START and token not in _KEYWORDS:
            node = leaves[token] = Var(token)
        else:
            raise ValueError("expected integer, identifier, or '('")
    return node


def _match_command(leaves: dict[str, Num | Var], rest: str) -> Command | None:
    """The command of a line ``_COMMAND_RE`` matches, its leaves interned in ``leaves``; None
    for any other line, or a keyword or a literal of 2**63 or more, left to the descent."""
    if (m := _COMMAND_RE.fullmatch(rest)) is None:
        return None
    var, a, op, b, c, cmp, d, then, goto, bare = m.groups()
    if var in _KEYWORDS:  # refused before any leaf is interned
        return None
    try:
        if var is not None:
            left = _leaf(leaves, a)
            return Assign(var, left if op is None else ABin(op, left, _leaf(leaves, b)))
        if c is not None:
            return If(Cmp(cmp, _leaf(leaves, c), _leaf(leaves, d)), then)
    except ValueError:
        return None
    return Goto(goto) if goto is not None else _BARE_COMMANDS[bare]()


def _parse_command(parser: _Parser, rest: str, line_no: int, offset: int) -> Command:
    parser.reset(rest, line_no, offset)
    word = parser.take_word()
    if word in _BARE_COMMANDS:
        return parser.end(_BARE_COMMANDS[word]())
    if word == "goto":
        return parser.end(Goto(parser.label("goto")))
    if word == "if":
        cond = parser.bexp()
        then = parser.take_word()
        if then != "then":
            raise parser.error("expected 'then'", then is not None)
        return parser.end(If(cond, parser.label("then")))
    if word is not None and word not in _KEYWORDS:
        if not parser.take(":="):
            raise parser.error("expected ':=' after variable name")
        return parser.end(Assign(word, parser.aexp()))
    parser.i = 0  # the error points at the first token, not past a keyword read there
    raise parser.error("expected a command")


def parse_program(text: str) -> Program:
    """Parse program text (one ``label: command`` per line, ``#`` comments).

    A line ends at ``\\n``, ``\\r\\n`` or ``\\r``, as in a file read with universal newlines.
    """
    pairs: list[tuple[Label, Command]] = []
    parser = _Parser()
    for line_no, raw in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), 1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        colon = line.find(":")
        if colon < 0:
            raise ParseError("expected 'label: command'", line_no, 1)
        label = line[:colon].strip()
        if not _IDENT_RE.fullmatch(label):
            raise ParseError(f"invalid label {label!r}", line_no, 1)
        rest = line[colon + 1 :]
        if (command := _match_command(parser.leaves, rest)) is None:
            command = _parse_command(parser, rest, line_no, colon + 2)
        pairs.append((label, command))
    if not pairs:
        raise ParseError("empty program", 1, 1)
    return Program(pairs)


# --------------------------------------------------------------------------
# Pretty-printing (inverse of the parser)
# --------------------------------------------------------------------------

_PREC = {"or": 1, "and": 2, "not": 3, "=": 4, "<=": 4, "+": 5, "-": 5, "*": 6}


def _expr_text(expr: AExp | BExp, parent_prec: int = 0, right_side: bool = False) -> str:
    match expr:
        case Num(value) if value < 0:  # the grammar has no negative literal: print 0 - n
            n = ABin("-", Num(0), Num(min(-value, 2**63 - 1)))  # -2**63 is 0 - (2**63 - 1) - 1
            return _expr_text(n if value > -2**63 else ABin("-", n, Num(1)), parent_prec, right_side)
        case Num(value):
            return str(value)
        case Var(name):
            return name
        case BoolLit(value):
            return "true" if value else "false"
        case Not(operand):
            return f"not {_expr_text(operand, _PREC['not'])}"
        case ABin(op, left, right) | Cmp(op, left, right) | BBin(op, left, right):
            prec = _PREC[op]
            text = f"{_expr_text(left, prec)} {op} {_expr_text(right, prec, True)}"
            # left-associative: a right child at equal precedence needs parens
            if prec < parent_prec or (prec == parent_prec and right_side):
                return f"({text})"
            return text


def _command_text(command: Command) -> str:
    match command:
        case Skip():
            return "skip"
        case Assign(var, expr):
            return f"{var} := {_expr_text(expr)}"
        case If(cond, target):
            return f"if {_expr_text(cond)} then {target}"
        case Goto(target):
            return f"goto {target}"
        case Halt():
            return "halt"
        case Done():
            return "done"


def print_program(program: Program) -> str:
    """Canonical text form; parse_program(print_program(p)) == p but for a negative Num.

    A name the parser cannot read is a ValueError naming the first one: the
    labels in program order, then the variables in sorted order.
    """
    for label in program.labels:
        if not _IDENT_RE.fullmatch(label):
            raise ValueError(f"label {label!r} is not an identifier")
    for name in sorted(program.variables()):
        if not is_variable_name(name):
            raise ValueError(f"variable {name!r} is not an identifier, or is a keyword")
    return "\n".join(f"{label}: {_command_text(command)}" for label, command in program.commands)


# --------------------------------------------------------------------------
# Standard operational semantics
# --------------------------------------------------------------------------

State = Mapping[str, int]


@dataclass(frozen=True)
class Stuck:
    """No execution rule applies at the configuration."""

    reason: str


class AtDone:
    """The configuration sits at a ``done`` command; execution is complete."""

    _instance: "AtDone | None" = None

    def __new__(cls) -> "AtDone":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "AtDone()"


AT_DONE = AtDone()

Reached = Union[Label, Stuck, AtDone]  # what a transition reached
Transition = Callable[[list], Reached]


# Compilation of the standard rules into closures over the slots (see ``_start``).
# An ``ABin`` or ``Cmp`` of two leaves is flat, one closure; other shapes are trees
# of closures, each leaf's made where the tree meets it: a read of an empty slot
# raises UndefinedVariableError, returned as ``Stuck``.  Either names the first empty
# slot from the left, as a tree walk does.  The closures carry no
# annotations: an annotation dict for each made compiling about twice as slow.  A
# flat closure binds its values as defaults, not cells: each cell is one more object
# that the garbage collector counts for as long as the program lives.

_APPLY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "=": operator.eq,
          "<=": operator.le, "and": operator.and_, "or": operator.or_}


def _expr(expr: AExp | BExp, slot: dict[str, int]) -> Callable[[list], int | bool]:
    if isinstance(expr, Var):
        at, name = slot[expr.name], expr.name

        def read(slots):
            if (value := slots[at]) is None:
                raise UndefinedVariableError(name)
            return value

        return read
    if isinstance(expr, (Num, BoolLit)):
        constant = expr.value
        return lambda slots: constant
    if isinstance(expr, Not):
        inner = _expr(expr.operand, slot)
        return lambda slots: not inner(slots)
    apply, lhs, rhs = _APPLY[expr.op], _expr(expr.left, slot), _expr(expr.right, slot)
    if isinstance(expr, ABin):

        def arith(slots):
            value = apply(lhs(slots), rhs(slots))
            return value if -_INT64_SIGN <= value < _INT64_SIGN else _wrap64(value)

        return arith
    # a comparison, or and/or as & and | over bools, which evaluate both operands
    return lambda slots: apply(lhs(slots), rhs(slots))


def _flat(command: Assign | If, nxt: Label | None, slot: dict[str, int]) -> Transition | None:
    """The one closure of an assignment of an ``ABin``, or a branch on a ``Cmp``, of two
    leaves (each its slot and name, or None and its literal); None for any other command."""
    expr = command.expr if isinstance(command, Assign) else command.cond
    if not (isinstance(expr, ABin if isinstance(command, Assign) else Cmp)
            and isinstance(expr.left, (Var, Num)) and isinstance(expr.right, (Var, Num))):
        return None
    (left_at, left), (right_at, right) = ((slot[leaf.name], leaf.name) if isinstance(leaf, Var)
                                          else (None, leaf.value) for leaf in (expr.left, expr.right))
    if isinstance(command, Assign):

        def assign_flat(slots, apply=_APPLY[expr.op], left_at=left_at, left=left, right_at=right_at,
                        right=right, at=slot[command.var], nxt=nxt):
            a = left if left_at is None else slots[left_at]
            b = right if right_at is None else slots[right_at]
            if a is None or b is None:  # an empty slot: ``left`` or ``right`` is its name
                return Stuck(str(UndefinedVariableError(left if a is None else right)))
            value = apply(a, b)
            slots[at] = value if -_INT64_SIGN <= value < _INT64_SIGN else _wrap64(value)
            return nxt

        return assign_flat

    def branch_flat(slots, apply=_APPLY[expr.op], left_at=left_at, left=left, right_at=right_at,
                    right=right, target=command.target, nxt=nxt):
        a = left if left_at is None else slots[left_at]
        b = right if right_at is None else slots[right_at]
        if a is None or b is None:
            return Stuck(str(UndefinedVariableError(left if a is None else right)))
        return target if apply(a, b) else nxt

    return branch_flat


def _compile_label(command: Command, nxt: Label | None, slot: dict[str, int]) -> Transition:
    """The standard rule for ``command`` as a function of the slots: it returns what it reached."""
    if isinstance(command, Done):
        return lambda slots: AT_DONE
    if isinstance(command, (Skip, Halt, Goto)):
        target = command.target if isinstance(command, Goto) else nxt
        return lambda slots: target
    if isinstance(command, (Assign, If)) and (flat := _flat(command, nxt, slot)):
        return flat
    if isinstance(command, Assign):
        at, evaluate = slot[command.var], _expr(command.expr, slot)

        def assign(slots):
            try:
                slots[at] = evaluate(slots)
            except UndefinedVariableError as exc:
                return Stuck(str(exc))
            return nxt

        return assign
    holds, target = _expr(command.cond, slot), command.target  # an If: a Program holds no other

    def branch(slots):
        try:
            return target if holds(slots) else nxt
        except UndefinedVariableError as exc:
            return Stuck(str(exc))

    return branch


def _transition(program: Program, label: Label) -> Transition:
    """The compiled rule at ``label``; the first call at a label compiles and keeps it."""
    entry = program._entry(label)
    if entry.transition is None:
        entry.transition = _compile_label(entry.command, entry.next_label, program._slot)
    return entry.transition


def _start(program: Program, initial_state: State | None, max_steps: int) -> tuple[StateTuple, list]:
    """The initial state sorted by name, once every value is checked to be a 64-bit integer,
    and its slots: each variable's value at its sorted index, or None."""
    if max_steps < 0:
        raise ValueError("max_steps must be at least 0")
    state, slot = tuple(sorted((initial_state or {}).items())), program._slot
    slots: list = [None] * len(slot)
    for name, value in state:
        if not _fits_int64(value):
            raise ValueError(f"initial value of {name!r} is not a 64-bit integer: {value!r}")
        if name in slot:
            slots[slot[name]] = value
    return state, slots


class TraceKind(str, Enum):
    COMPLETE = "complete"
    STUCK = "stuck"
    TRUNCATED = "truncated"


@dataclass(frozen=True)
class Trace:
    """How many positions an execution visited, how it ended, and why if it did not complete."""

    length: int
    kind: TraceKind
    reason: str | None = None

    def __len__(self) -> int:
        return self.length


def label_path(
    program: Program, initial_state: State | None = None, max_steps: int = 10_000
) -> Iterator[tuple[int, Label, Reached]]:
    """The new steps of the execution: ``(position, label, reached)`` where a step first occurs.

    A step is a label and what its transition reached: the next label, and
    at the last position how the run ended: ``AtDone``, ``Stuck``, or the
    label past the budget.  The last position is always yielded, after the
    run ends.  The ``Program`` keeps these entries of its latest walk if
    that walk reached the end, keyed by the sorted initial state and
    ``max_steps``, and replays them for the same key without a transition.
    A walk stopped early records nothing.
    """
    state, slots = _start(program, initial_state, max_steps)
    key = state, max_steps
    recorded = program._path
    if recorded is not None and recorded[0] == key:
        yield from recorded[1]
        return
    program._path = None
    seen: set[tuple[Label, Reached]] = set()
    entries: list[tuple[int, Label, Reached]] = []
    table, label = program._table, program.first
    for position in range(max_steps + 1):
        reached = (table[label].transition or _transition(program, label))(slots)
        this_step = label, reached
        if this_step not in seen:
            seen.add(this_step)
            entries.append((position, label, reached))
            yield entries[-1]
        if not isinstance(reached, str):
            break
        label = reached
    if entries[-1][0] != position:
        entries.append((position, *this_step))  # after the whole budget, ``label`` is past it
        yield entries[-1]
    program._path = (key, tuple(entries))


def run_trace(program: Program, initial_state: State | None = None, max_steps: int = 10_000) -> Trace:
    """The standard execution from the first label: how many positions it visited and how it ended.

    Runs one transition per position, for positions 0 through ``max_steps``,
    and stops after the first outcome that is not a label: ``AtDone``
    (complete), ``Stuck``, or a label past the budget (truncated).  So
    ``max_steps`` transitions are allowed, and an execution stuck after
    exactly that many is stuck, not truncated.  Unlike ``label_path`` it
    replays nothing: every call runs every transition.
    """
    _, slots = _start(program, initial_state, max_steps)
    table, label = program._table, program.first
    for position in range(max_steps + 1):
        reached = (table[label].transition or _transition(program, label))(slots)
        if not isinstance(reached, str):
            break
        label = reached
    if isinstance(reached, AtDone):
        return Trace(position + 1, TraceKind.COMPLETE)
    if isinstance(reached, Stuck):
        return Trace(position + 1, TraceKind.STUCK, reached.reason)
    return Trace(position + 1, TraceKind.TRUNCATED, f"no done within {max_steps} steps")
