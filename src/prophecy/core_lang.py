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
Every node, and each ``StepObligations``, is a frozen dataclass with slots
and no ``__dict__``, as ``second_stage``'s expressions are: its
``__init__`` (``_node.frozen_node``) writes each field through its slot,
past the frozen ``__setattr__``, then runs the class's field check.

The parser builds the commonest lines whole (a label, then ``skip``,
``halt``, ``done``, ``goto L``, ``x := a``, ``x := a op b`` or
``if a cmp b then L``, each leaf a word or at most 19 digits, then perhaps
a ``#`` comment) from one regular expression's match.  Every other line,
and every error, is cut at its ``#`` and its colon and goes to a recursive
descent over the tokens another regular expression splits the command
into.  Both read each leaf token with ``_leaf``, the one rule that makes
one node per variable name and per literal token of a parse and words the
errors about a leaf.
Building a ``Program`` fills a per-label table in one pass: each label's
command, its ``StepObligations`` (read set and assigned variable, one
record per distinct pair, found by a key of the sorted names), its next
label and its successors, fall-through first, so ``command_obligations``
and ``ordered_successors`` are lookups.  A second pass checks the targets
and collects each label's predecessors in a list, in program order; the
analyses read these tuples and lists from the table, and ``successors`` and
``predecessors`` build their sets only when called.  Beside the table
the program keeps each label's obligations as two int bit masks, computed
once per distinct record, where bit k stands for the k-th variable name in
sorted order (the slot order below): ``obligation_masks`` hands them to
the engine and ``mask_names`` turns a mask back into its set, once per
distinct mask of a program.  The first use of a label compiles its
transition over the slots, a list with one entry per variable, and keeps
it, as a ``Program`` keeps its ``sweep_order``, decoded masks and last
``label_path`` (none enters equality or pickling).  An assignment or a
branch whose operator has two leaf operands is one closure; any other
expression is a tree of closures, one per node, leaves included.  An assignment writes its slot and returns the next
label; a branch returns a label.

Building a ``Program``, compiling a transition and ``expr_vars`` dispatch
on each node's exact type, as ``second_stage`` does: a subclass of a node
is no node, and a ``Program`` that holds one is a TypeError when it is
built.

``run_trace`` and ``label_path`` each loop over the transitions, from
one start and under one ``max_steps`` rule, and build no configuration.
``label_path`` yields only the first position of each distinct step (a
label and what it reached) and the last, and records them once for the
engine and the checkers, hashing a ``(label, reached)`` pair only where a
label reaches something other than its first outcome; ``run_trace``
counts positions and the outcome.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from enum import Enum
from itertools import chain, compress
from typing import Callable, Iterator, Mapping, Union

from ._node import frozen_node

Label = str
# an initial state as ``label_path`` keys its record: (name, value) pairs sorted by name
StateTuple = tuple[tuple[str, int], ...]

_INT64_MASK = (1 << 64) - 1
_INT64_SIGN = 1 << 63
_DIGIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# parentheses and ``not`` nest at most this deep, and an expression holds at most this many
# binary operators, so that every walk of its tree stays well inside Python's recursion limit
_MAX_NESTING, _MAX_OPERATORS = 50, 100
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


@frozen_node
class Num:
    value: int

    def __post_init__(self) -> None:
        if not _fits_int64(self.value):
            raise ValueError(f"integer literal is not a 64-bit integer: {self.value!r}")


@frozen_node
class Var:
    name: str


@frozen_node
class ABin:
    op: str  # one of + - *
    left: "AExp"
    right: "AExp"


AExp = Union[Num, Var, ABin]


@frozen_node
class BoolLit:
    value: bool

    def __post_init__(self) -> None:
        if type(self.value) is not bool:
            raise ValueError(f"boolean literal is not a bool: {self.value!r}")


@frozen_node
class Cmp:
    op: str  # one of = <=
    left: AExp
    right: AExp


@frozen_node
class Not:
    operand: "BExp"


@frozen_node
class BBin:
    op: str  # and | or
    left: "BExp"
    right: "BExp"


BExp = Union[BoolLit, Cmp, Not, BBin]


def expr_vars(expr: AExp | BExp) -> frozenset[str]:
    """All variable names read by an expression."""
    # one walk and one set, with exact-type tests: a subclass of a node is no node
    names, nodes = [], [expr]
    for node in nodes:  # the list grows as the walk visits the children
        kind = type(node)
        if kind is Var:
            names.append(node.name)
        elif kind is ABin or kind is Cmp or kind is BBin:
            nodes += node.left, node.right
        elif kind is Not:
            nodes.append(node.operand)
        elif kind is not Num and kind is not BoolLit:
            raise TypeError(f"not an expression: {node!r}")
    return frozenset(names)


# --------------------------------------------------------------------------
# Commands and programs
# --------------------------------------------------------------------------


@frozen_node
class Skip:
    pass


@frozen_node
class Assign:
    var: str
    expr: AExp


@frozen_node
class If:
    cond: BExp
    target: Label


@frozen_node
class Goto:
    target: Label


@frozen_node
class Halt:
    pass


@frozen_node
class Done:
    pass


Command = Union[Skip, Assign, If, Goto, Halt, Done]


VarSet = frozenset[str]


@frozen_node
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


# the key of a record with nothing to read or assign: see ``_obligation_key``
_NO_KEY = (None,)


def _obligation_key(expr: AExp | BExp, assigned: str | None) -> tuple:
    """The names ``expr`` reads, sorted, then ``assigned`` (None for a branch): one key per
    distinct ``StepObligations``.  A leaf's and an operator's over two leaves are read directly."""
    kind = type(expr)
    if kind is Var:
        return expr.name, assigned
    if kind is ABin or kind is Cmp:
        left, right = type(expr.left), type(expr.right)
        if left is Var and right is Var:
            a, b = expr.left.name, expr.right.name
            return (a, assigned) if a == b else (a, b, assigned) if a < b else (b, a, assigned)
        if left is Var and right is Num:
            return expr.left.name, assigned
        if left is Num and right is Var:
            return expr.right.name, assigned
        if left is Num and right is Num:
            return (assigned,)
    elif kind is Num:
        return (assigned,)
    return (*sorted(expr_vars(expr)), assigned)


class Program:
    """An ordered sequence of uniquely labeled commands.

    Validation happens at construction: labels must be unique, every
    ``halt`` must be immediately followed by a ``done``, branch targets
    must exist, and the final command must not fall through (only
    ``done`` or ``goto`` may end the sequence).  Construction also builds
    the per-label table (see the module docstring), so every query below
    is a lookup, but ``successors`` and ``predecessors`` build a set; a
    label's transition is compiled on its first use.
    """

    def __init__(self, commands: Iterator[tuple[Label, Command]] | list[tuple[Label, Command]]):
        self.commands: tuple[tuple[Label, Command], ...] = tuple(commands)
        if not self.commands:
            raise ProgramStructureError("a program must contain at least one command")
        self.labels: tuple[Label, ...] = tuple([label for label, _ in self.commands])
        # each label's (command, obligations, next label, ordered successors)
        table: dict[Label, tuple] = {}
        shared: dict[tuple, int] = {}  # an obligation key, in first-use order: its record's index
        records: list[StepObligations] = []
        used: list[int] = []  # each label's record index
        for (label, command), nxt in zip(self.commands, self.labels[1:] + (None,)):
            if label in table:
                raise ProgramStructureError(f"duplicate label {label!r}")
            kind = type(command)
            # fall-through first, then the branch target (nxt is None only at the end)
            if kind is Assign:
                key, ordered = _obligation_key(command.expr, command.var), (nxt,)
            elif kind is If:
                key = _obligation_key(command.cond, None)
                ordered = (nxt,) if command.target == nxt else (nxt, command.target)
            elif kind is Goto:
                key, ordered = _NO_KEY, (command.target,)
            elif kind is Done:
                key, ordered = _NO_KEY, ()
            elif kind is Skip or kind is Halt:
                key, ordered = _NO_KEY, (nxt,)
            else:
                raise TypeError(f"not a command: {command!r}")
            if (at := shared.get(key)) is None:
                at = shared[key] = len(records)
                assigned = frozenset() if key[-1] is None else frozenset(key[-1:])
                records.append(StepObligations(frozenset(key[:-1]), assigned))
            used.append(at)
            table[label] = command, records[at], nxt, ordered
        # None stands for the end, where only a final command that falls through goes
        inverse: dict[Label | None, list[Label]] = {label: [] for label in table}
        inverse[None] = []
        for label, (command, _, nxt, ordered) in table.items():
            kind = type(command)
            if kind is Halt and (nxt is None or type(table[nxt][0]) is not Done):
                raise ProgramStructureError(
                    f"halt at {label!r} is not immediately followed by done"
                )
            if (kind is If or kind is Goto) and command.target not in table:
                raise ProgramStructureError(
                    f"command at {label!r} targets unknown label {command.target!r}"
                )
            for successor in ordered:
                inverse[successor].append(label)
        if inverse.pop(None):
            raise ProgramStructureError(
                f"last command at {self.labels[-1]!r} may fall through past the end"
            )
        self._table = table
        self._transitions: dict[Label, Transition | None] = dict.fromkeys(self.labels)
        self._predecessors = inverse  # each label's predecessors, in program order
        # every name in a key, but the None that ends a key with nothing assigned
        self._variables = frozenset(chain.from_iterable(shared)).difference(_NO_KEY)
        self._names = tuple(sorted(self._variables))
        self._slot = {name: at for at, name in enumerate(self._names)}
        # each record's read set and assigned variable as bit masks: bit k is slot k, None is 0
        bit = {None: 0, **{name: 1 << at for name, at in self._slot.items()}}.__getitem__
        masks = [(sum(map(bit, key[:-1])), bit(key[-1])) for key in shared]
        self._masks = dict(zip(self.labels, map(masks.__getitem__, used)))
        self._decoded: dict[int, VarSet] = {}  # each mask ``mask_names`` decoded: its names
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

    def _entry(self, label: Label) -> tuple:
        try:
            return self._table[label]
        except KeyError:
            raise UnknownLabelError(label) from None

    def command_at(self, label: Label) -> Command:
        return self._entry(label)[0]

    def next_label(self, label: Label) -> Label | None:
        """Label of the next command in sequence order, or None at the end."""
        return self._entry(label)[2]

    def successors(self, label: Label) -> frozenset[Label]:
        return frozenset(self._entry(label)[3])

    def ordered_successors(self, label: Label) -> tuple[Label, ...]:
        """Successors in a fixed order: fall-through first, then the branch target."""
        return self._entry(label)[3]

    def predecessors(self, label: Label) -> frozenset[Label]:
        try:
            return frozenset(self._predecessors[label])
        except KeyError:
            raise UnknownLabelError(label) from None

    def variables(self) -> frozenset[str]:
        """All variable names mentioned anywhere in the program."""
        return self._variables

    def sweep_order(self) -> tuple[Label, ...]:
        """Each reachable label once, depth first, fall-through before branch target (kept)."""
        if self._sweep_order is None:
            table, visited = self._table, {}
            stack = [self.first]
            while stack:
                label = stack.pop()
                if label in visited:
                    continue
                visited[label] = None
                stack += reversed(table[label][3])  # a visited label is skipped when popped
            self._sweep_order = tuple(visited)
        return self._sweep_order


def command_obligations(program: Program, label: Label) -> StepObligations:
    """The obligations of the command at ``label``, from the program's table."""
    return program._entry(label)[1]


def obligation_masks(program: Program) -> Mapping[Label, tuple[int, int]]:
    """Each label's obligations as ``(read_mask, def_mask)``, from the program's table.

    Bit k stands for the k-th of the program's variable names in sorted
    order, so ``mask_names`` turns a mask back into its set.  The mapping
    is the program's own: read it, never change it.
    """
    return program._masks


def mask_names(program: Program, mask: int) -> VarSet:
    """The variable names whose bits are set in ``mask``, numbered as ``obligation_masks`` does."""
    if (names := program._decoded.get(mask)) is None:
        # the binary digits, lowest first, as 0 and 1 bytes select the names of their slots
        digits = bin(mask)[:1:-1].encode().translate(_DIGIT_BYTES)
        names = program._decoded[mask] = frozenset(compress(program._names, digits))
    return names


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
# The commonest lines, whole: a label, a command with blanks where tokens would run together
# (``ifx``, ``1then``), and a comment
_WORD = _IDENT_RE.pattern
_LEAF = rf"({_WORD}|[0-9]{{1,19}})"
_COMMAND_RE = re.compile(
    rf"[ \t]*({_WORD})[ \t]*:[ \t]*(?:({_WORD})[ \t]*:=[ \t]*{_LEAF}(?:[ \t]*([-+*])[ \t]*{_LEAF})?"
    rf"|if[ \t]+{_LEAF}[ \t]*(<=|=)[ \t]*{_LEAF}[ \t]+then[ \t]+({_WORD})"
    rf"|goto[ \t]+({_WORD})|(skip|halt|done))[ \t]*(?:#.*)?"
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
        self.i = self.depth = self.operators = 0

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

    def operator(self, token: str) -> bool:
        """Take ``token`` if it is next, as one more binary operator, bounding their count."""
        if self.tokens[self.i] != token:
            return False
        if self.operators >= _MAX_OPERATORS:
            raise self.error(f"expression holds more than {_MAX_OPERATORS} binary operators")
        self.operators += 1
        self.i += 1
        return True

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
        while self.operator("+") or self.operator("-"):
            node = ABin(self.tokens[self.i - 1], node, self.aterm())
        return node

    def aterm(self) -> AExp:
        node = self.afactor()
        while self.operator("*"):
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
        while self.operator("or"):
            node = BBin("or", node, self.band())
        return node

    def band(self) -> BExp:
        node = self.bnot()
        while self.operator("and"):
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
        failed = None  # the boolean reading's error
        if self.tokens[self.i] == "(":
            # Could be a parenthesized boolean or the left side of a
            # comparison; try boolean first, fall back to comparison.
            saved = self.i, self.operators
            self.i += 1
            try:
                inner = self.nested(self.bexp)
                if self.take(")") and self.tokens[self.i][:1] not in _ARITH_FOLLOW:
                    return inner
            except ParseError as exc:
                failed = exc
            self.i, self.operators = saved
        try:
            left = self.aexp()
            if self.operator("<=") or self.operator("="):
                return Cmp(self.tokens[self.i - 1], left, self.aexp())
            raise self.error("expected '=' or '<=' in comparison")
        except ParseError as exc:
            # both readings failed: report the one that got further, the comparison on a tie
            if failed is not None and failed.column > exc.column:
                raise failed from None
            raise


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


def _match_command(leaves: dict[str, Num | Var], line: str) -> tuple[Label, Command] | None:
    """The label and command of a line ``_COMMAND_RE`` matches, its leaves interned in ``leaves``;
    None for any other line, or a keyword or a literal of 2**63 or more, left to the descent."""
    if (m := _COMMAND_RE.fullmatch(line)) is None:
        return None
    label, var, a, op, b, c, cmp, d, then, goto, bare = m.groups()
    if var in _KEYWORDS:  # refused before any leaf is interned
        return None
    try:
        if var is not None:
            left = _leaf(leaves, a)
            return label, Assign(var, left if op is None else ABin(op, left, _leaf(leaves, b)))
        if c is not None:
            return label, If(Cmp(cmp, _leaf(leaves, c), _leaf(leaves, d)), then)
    except ValueError:
        return None
    return label, Goto(goto) if goto is not None else _BARE_COMMANDS[bare]()


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
    leaves = parser.leaves
    for line_no, raw in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), 1):
        if (pair := _match_command(leaves, raw)) is None:
            line = raw.split("#", 1)[0]
            if not line.strip():
                continue
            colon = line.find(":")
            if colon < 0:
                raise ParseError("expected 'label: command'", line_no, 1)
            label = line[:colon].strip()
            if not _IDENT_RE.fullmatch(label):
                raise ParseError(f"invalid label {label!r}", line_no, 1)
            pair = label, _parse_command(parser, line[colon + 1 :], line_no, colon + 2)
        pairs.append(pair)
    if not pairs:
        raise ParseError("empty program", 1, 1)
    return Program(pairs)


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
    kind = type(expr)
    if kind is Var:
        at, name = slot[expr.name], expr.name

        def read(slots):
            if (value := slots[at]) is None:
                raise UndefinedVariableError(name)
            return value

        return read
    if kind is Num or kind is BoolLit:
        constant = expr.value
        return lambda slots: constant
    if kind is Not:
        inner = _expr(expr.operand, slot)
        return lambda slots: not inner(slots)
    apply, lhs, rhs = _APPLY[expr.op], _expr(expr.left, slot), _expr(expr.right, slot)
    if kind is ABin:

        def arith(slots, low=-_INT64_SIGN, high=_INT64_SIGN):
            value = apply(lhs(slots), rhs(slots))
            return value if low <= value < high else _wrap64(value)

        return arith
    # a comparison, or and/or as & and | over bools, which evaluate both operands
    return lambda slots: apply(lhs(slots), rhs(slots))


def _flat(command: Assign | If, nxt: Label | None, slot: dict[str, int]) -> Transition | None:
    """The one closure of an assignment of an ``ABin``, or a branch on a ``Cmp``, of two
    leaves (each its slot and name, or None and its literal); None for any other command."""
    assigns = type(command) is Assign
    expr = command.expr if assigns else command.cond
    if type(expr) is not (ABin if assigns else Cmp):
        return None
    left, right = expr.left, expr.right
    if type(left) is Var:
        left_at, left = slot[left.name], left.name
    elif type(left) is Num:
        left_at, left = None, left.value
    else:
        return None
    if type(right) is Var:
        right_at, right = slot[right.name], right.name
    elif type(right) is Num:
        right_at, right = None, right.value
    else:
        return None
    if assigns:

        def assign_flat(slots, apply=_APPLY[expr.op], left_at=left_at, left=left, right_at=right_at,
                        right=right, at=slot[command.var], nxt=nxt, low=-_INT64_SIGN,
                        high=_INT64_SIGN):
            a = left if left_at is None else slots[left_at]
            b = right if right_at is None else slots[right_at]
            if a is None or b is None:  # an empty slot: ``left`` or ``right`` is its name
                return Stuck(str(UndefinedVariableError(left if a is None else right)))
            value = apply(a, b)
            slots[at] = value if low <= value < high else _wrap64(value)
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
    kind = type(command)
    if kind is Done:
        return lambda slots: AT_DONE
    if kind is not Assign and kind is not If:  # a skip, halt or goto
        target = command.target if kind is Goto else nxt
        return lambda slots: target
    if flat := _flat(command, nxt, slot):
        return flat
    if kind is Assign:
        at, evaluate = slot[command.var], _expr(command.expr, slot)

        def assign(slots):
            try:
                slots[at] = evaluate(slots)
            except UndefinedVariableError as exc:
                return Stuck(str(exc))
            return nxt

        return assign
    holds, target = _expr(command.cond, slot), command.target

    def branch(slots):
        try:
            return target if holds(slots) else nxt
        except UndefinedVariableError as exc:
            return Stuck(str(exc))

    return branch


def _transition(program: Program, label: Label) -> Transition:
    """The compiled rule at ``label``; the first call at a label compiles and keeps it."""
    if (transition := program._transitions.get(label)) is None:
        command, _, nxt, _ = program._entry(label)
        transition = program._transitions[label] = _compile_label(command, nxt, program._slot)
    return transition


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
    run ends.  A dict keeps each label's first outcome: a position whose
    transition returns that object again is an old step after one lookup, and
    only a label that reaches something else (a branch's other arm, the end of
    the run) has its ``(label, reached)`` pair compared by equality and kept in
    a set.  The ``Program`` keeps these entries of its latest walk if it reached
    the end, keyed by the sorted initial state and ``max_steps``, and replays
    them for the same key without a transition; a walk stopped early records
    nothing.
    """
    state, slots = _start(program, initial_state, max_steps)
    key = state, max_steps
    recorded = program._path
    if recorded is not None and recorded[0] == key:
        yield from recorded[1]
        return
    program._path = None
    first: dict[Label, Reached] = {}  # each label's first outcome
    others: set[tuple[Label, Reached]] = set()  # the steps unlike their label's first outcome
    entries: list[tuple[int, Label, Reached]] = []
    transitions, reached = program._transitions, program.first
    for position in range(max_steps + 1):
        label = reached
        reached = (transitions[label] or _transition(program, label))(slots)
        if (was := first.get(label)) is not reached and (
                was is None or was != reached and (label, reached) not in others):
            if was is None:
                first[label] = reached
            else:
                others.add((label, reached))
            entries.append((position, label, reached))
            yield entries[-1]
        if not isinstance(reached, str):
            break
    if entries[-1][0] != position:
        entries.append((position, label, reached))  # the whole budget ran: ``reached`` is past it
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
    transitions, label = program._transitions, program.first
    for position in range(max_steps + 1):
        reached = (transitions[label] or _transition(program, label))(slots)
        if not isinstance(reached, str):
            break
        label = reached
    if isinstance(reached, AtDone):
        return Trace(position + 1, TraceKind.COMPLETE)
    if isinstance(reached, Stuck):
        return Trace(position + 1, TraceKind.STUCK, reached.reason)
    return Trace(position + 1, TraceKind.TRUNCATED, f"no done within {max_steps} steps")
