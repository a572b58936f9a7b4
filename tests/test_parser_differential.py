"""The token parser against the character-level parser it replaced.

``reference_parse_program`` is the parser ``core_lang`` used before its
tokenizer: a recursive descent that skips blanks and matches literals one
character position at a time.  Both must accept the same texts, build the
same ``Program``, and reject the rest with the same error class, line,
column and message.  Inputs are fragments of the grammar glued together and
printed random programs with tokens inserted or deleted.  ``_match_command``,
which builds the commonest lines whole from one regular expression, is
checked against the path it stands in for: each line cut at its ``#`` and its
colon, its command read by the descent (``descent_parse``), over a seeded
sweep of lines in and beside the shapes it reads.
"""

from __future__ import annotations

import random
import re
from functools import partial
from typing import Callable

from hypothesis import example, given, settings
from hypothesis import strategies as st

from prophecy import core_lang
from prophecy.core_lang import (
    ABin,
    AExp,
    Assign,
    BBin,
    BExp,
    BoolLit,
    Cmp,
    Command,
    CoreLangError,
    Done,
    Goto,
    Halt,
    If,
    Label,
    Not,
    Num,
    ParseError,
    Program,
    Skip,
    Var,
    _match_command,
    _parse_command,
    _Parser,
    parse_program,
)
from randprog import random_program
from test_core_lang import _FRAGMENTS
from test_differential import print_program

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT_RE = re.compile(r"[0-9]+")
_MAX_NESTING, _MAX_OPERATORS = 50, 100
_KEYWORDS = frozenset(
    {"skip", "if", "then", "goto", "halt", "done", "true", "false", "not", "and", "or"}
)


class _ExprParser:
    """Recursive-descent parser for one line's expression suffix."""

    def __init__(self, text: str, line_no: int, offset: int):
        self.text = text
        self.line_no = line_no
        self.offset = offset  # column of text[0] within the original line
        self.pos = 0
        self.depth = 0
        self.operators = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.line_no, self.offset + self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, literal: str) -> bool:
        self.skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def take_word(self) -> str | None:
        self.skip_ws()
        m = _IDENT_RE.match(self.text, self.pos)
        if m is None:
            return None
        self.pos = m.end()
        return m.group()

    def peek_word(self) -> str | None:
        self.skip_ws()
        m = _IDENT_RE.match(self.text, self.pos)
        return m.group() if m else None

    def operator(self, literal: str) -> None:
        """Take the binary operator ``literal``, which is next, bounding how many are taken."""
        if self.operators >= _MAX_OPERATORS:
            raise self.error(f"expression holds more than {_MAX_OPERATORS} binary operators")
        self.operators += 1
        self.take(literal)

    def nested(self, parse: Callable[[], "AExp | BExp"]) -> "AExp | BExp":
        """Parse one level of parentheses or ``not`` with ``parse``, bounding the depth."""
        if self.depth >= _MAX_NESTING:
            raise self.error(f"expression nested more than {_MAX_NESTING} deep")
        self.depth += 1
        try:
            return parse()
        finally:
            self.depth -= 1

    def expect_end(self) -> None:
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error(f"unexpected trailing input {self.text[self.pos:]!r}")

    # arithmetic: term ((+|-) term)*, term: factor (* factor)*
    def aexp(self) -> AExp:
        node = self.aterm()
        while (op := self.peek()) in ("+", "-"):
            self.operator(op)
            node = ABin(op, node, self.aterm())
        return node

    def aterm(self) -> AExp:
        node = self.afactor()
        while self.peek() == "*":
            self.operator("*")
            node = ABin("*", node, self.afactor())
        return node

    def afactor(self) -> AExp:
        self.skip_ws()
        if self.take("("):
            node = self.nested(self.aexp)
            if not self.take(")"):
                raise self.error("expected ')'")
            return node
        m = _INT_RE.match(self.text, self.pos)
        if m is not None:
            try:
                value = int(m.group())
            except ValueError:  # longer than int() accepts
                raise self.error("integer literal too long") from None
            if value > 2**63 - 1:
                raise self.error("integer literal outside the 64-bit range")
            self.pos = m.end()
            return Num(value)
        word = self.peek_word()
        if word is not None and word not in _KEYWORDS:
            self.take_word()
            return Var(word)
        raise self.error("expected integer, identifier, or '('")

    # boolean: bor := band ("or" band)*, band := bnot ("and" bnot)*
    def bexp(self) -> BExp:
        node = self.band()
        while self.peek_word() == "or":
            self.operator("or")
            node = BBin("or", node, self.band())
        return node

    def band(self) -> BExp:
        node = self.bnot()
        while self.peek_word() == "and":
            self.operator("and")
            node = BBin("and", node, self.bnot())
        return node

    def bnot(self) -> BExp:
        if self.peek_word() == "not":
            self.take_word()
            return Not(self.nested(self.bnot))
        return self.batom()

    def batom(self) -> BExp:
        word = self.peek_word()
        if word == "true":
            self.take_word()
            return BoolLit(True)
        if word == "false":
            self.take_word()
            return BoolLit(False)
        if self.peek() == "(":
            # Could be a parenthesized boolean or the left side of a
            # comparison; try boolean first, fall back to comparison.
            saved = self.pos, self.operators
            self.take("(")
            try:
                inner = self.nested(self.bexp)
                if self.take(")"):
                    self.skip_ws()
                    if self.peek() not in {"=", "<", "+", "-", "*"}:
                        return inner
            except ParseError:
                pass
            self.pos, self.operators = saved
        left = self.aexp()
        self.skip_ws()
        for op in ("<=", "="):
            if self.text.startswith(op, self.pos):
                self.operator(op)
                return Cmp(op, left, self.aexp())
        raise self.error("expected '=' or '<=' in comparison")


def reference_parse_command(rest: str, line_no: int, offset: int) -> Command:
    parser = _ExprParser(rest, line_no, offset)
    word = parser.peek_word()
    if word == "skip":
        parser.take_word()
        parser.expect_end()
        return Skip()
    if word == "halt":
        parser.take_word()
        parser.expect_end()
        return Halt()
    if word == "done":
        parser.take_word()
        parser.expect_end()
        return Done()
    if word == "goto":
        parser.take_word()
        target = parser.take_word()
        if target is None:
            raise parser.error("expected target label after 'goto'")
        parser.expect_end()
        return Goto(target)
    if word == "if":
        parser.take_word()
        cond = parser.bexp()
        if parser.take_word() != "then":
            raise parser.error("expected 'then'")
        target = parser.take_word()
        if target is None:
            raise parser.error("expected target label after 'then'")
        parser.expect_end()
        return If(cond, target)
    if word is not None and word not in _KEYWORDS:
        parser.take_word()
        if not parser.take(":="):
            raise parser.error("expected ':=' after variable name")
        expr = parser.aexp()
        parser.expect_end()
        return Assign(word, expr)
    raise parser.error("expected a command")


def reference_parse_program(text: str, parse_command=reference_parse_command, build=Program):
    """``parse_program`` over the character-level parser, or over ``parse_command``, every line
    cut at its ``#`` and its colon; ``build`` makes the result of the pairs."""
    pairs: list[tuple[Label, Command]] = []
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        colon = line.find(":")
        if colon < 0:
            raise ParseError("expected 'label: command'", line_no, 1)
        label = line[:colon].strip()
        if not _IDENT_RE.fullmatch(label):
            raise ParseError(f"invalid label {label!r}", line_no, 1)
        command = parse_command(line[colon + 1 :], line_no, colon + 2)
        pairs.append((label, command))
    if not pairs:
        raise ParseError("empty program", 1, 1)
    return build(pairs)


def _outcome(parse: Callable[[str], Program], text: str):
    """The program parsed, or the error's class, line, column and message."""
    try:
        return parse(text)
    except CoreLangError as exc:
        return type(exc), getattr(exc, "line", None), getattr(exc, "column", None), str(exc)


def assert_same_outcome(text: str):
    got, want = _outcome(parse_program, text), _outcome(reference_parse_program, text)
    assert got == want, text
    return want


# the printed program's tokens, blanks kept, so edits land on token boundaries
_EDIT_TOKEN_RE = re.compile(r"[ \t\n]+|[A-Za-z_0-9]+|:=|<=|.", re.DOTALL)


def edited_program_text(rng: random.Random) -> str:
    """A printed random program with a few tokens deleted or fragments inserted."""
    tokens = _EDIT_TOKEN_RE.findall(print_program(random_program(rng, max_body=8)))
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(tokens) + 1)
        if rng.random() < 0.5 and at < len(tokens):
            del tokens[at]
        else:
            tokens.insert(at, rng.choice(_FRAGMENTS))
    return "".join(tokens)


_fragment_texts = st.lists(st.sampled_from(_FRAGMENTS), max_size=40).map("".join)


@given(st.one_of(st.text(), _fragment_texts))
@example("l0: x := \u00b2\nl1: halt\nl2: done")
@example("l0: x := " + "1" * 5000 + "\nl1: halt\nl2: done")
@example("l0: x := 9223372036854775807 + 9223372036854775808\nl1: halt\nl2: done")
@example("l0: x := " + "(" * 400 + "1" + ")" * 400 + "\nl1: goto l0")
@example("l0: if " + "not " * 400 + "true then l0\nl1: goto l0")
@example("l0: if " + "(" * 60 + "x" + ")" * 60 + " <= 1 then l0\nl1: goto l0")
@example("l0: x := y" + " + 1" * _MAX_OPERATORS + "\nl1: halt\nl2: done")
@example("l0: x := y" + " * 1" * (_MAX_OPERATORS + 1) + "\nl1: halt\nl2: done")
@example("l0: if x = x" + " and true" * _MAX_OPERATORS + " then l0\nl1: goto l0")
# the operators read while the parentheses were tried as a boolean are not counted twice
@example("l0: if (x" + " + 1" * (_MAX_OPERATORS - 1) + ") <= 1 or true then l0\nl1: goto l0")
@example("l0: if x <= 1 thn l0\nl1: goto l0")
@example("l0: if x <= 1 ( then l0\nl1: goto l0")
@example("l0: if (x <= 1) + 1 <= 2 then l0\nl1: goto l0")
@example("l0: goto l0 5 \t\nl1: goto l0")
@example("l0: x := 9223372036854775808\nl1: halt\nl2: done")
@example("l0: x := 00009223372036854775807\nl1: halt\nl2: done")
@example("l0: x := y + true\nl1: halt\nl2: done")
@example("l0: if not = 1 then l0\nl1: goto l0")
@example("l0: not := 1\nl1: halt\nl2: done")
@example("goto: skip\nl1: goto goto")
@example("l0:x:=y*2\t\nl1: halt\nl2: done")
@example("l0: skip\f\nl1: goto l0")
@settings(max_examples=2000, deadline=None)
def test_fragment_texts_parse_as_the_reference_does(text):
    assert_same_outcome(text)


@given(st.integers(0, 2**32))
@settings(max_examples=1000, deadline=None)
def test_edited_programs_parse_as_the_reference_does(seed):
    assert_same_outcome(edited_program_text(random.Random(seed)))


# Lines in the shapes ``_match_command`` reads (W a word, L a leaf, O an operator, C a
# comparison, B a bare command), with about one token in ten drawn from any kind, and
# none, a blank, a tab or a form feed before each token and at the end.
_words = st.sampled_from(["x", "y1", "_t", "l0", "ifx", "then1"] * 2 + sorted(_KEYWORDS))
_leaves = st.one_of(
    _words,
    st.integers(10**17, 10**21 - 1).map(str),  # 18-21 digits, around 2**63
    st.sampled_from(["0", "7", "007", "9223372036854775807", "9223372036854775808"]),
)
_SLOTS = {
    "W": _words,
    "L": _leaves,
    "O": st.sampled_from("+-*"),
    "C": st.sampled_from(["=", "<="]),
    "B": st.sampled_from(["skip", "halt", "done"]),
}
_any_token = st.one_of(_leaves, st.sampled_from([":=", "+", "-", "*", "=", "<=", "<", "(", ")"]))
_blank = st.sampled_from(["", " ", " ", " ", "\t", "\f"])


def _shape(shape: str) -> st.SearchStrategy[str]:
    slots = [_SLOTS.get(slot, st.just(slot)) for slot in shape.split()]
    tokens = [st.tuples(st.integers(0, 9), slot, _any_token).map(lambda t: t[1] if t[0] else t[2])
              for slot in slots]
    return st.tuples(*(st.tuples(_blank, token) for token in tokens), _blank).map(
        lambda drawn: "".join(blank + token for blank, token in drawn[:-1]) + drawn[-1]
    )


_lines = st.one_of(*map(_shape, ["W := L", "W := L O L", "if L C L then W", "goto W", "B"]))


@given(_lines)
@example("x := y + 9223372036854775807")
@example("if 007 <= y1 then goto")
@example(" goto\tl0 ")
@example("done")
@example("x := 9223372036854775808")
@example("x := y * true")
@example("if not = 1 then l0")
@example("not := 1")
@settings(max_examples=400, deadline=None)
def test_one_expression_path_builds_what_the_descent_builds(line):
    """Where ``_match_command`` builds a command, the descent builds an equal one; where
    the descent raises, ``_match_command`` returns None and leaves the error to it."""
    try:
        want = "l0", _parse_command(_Parser(), line, 1, 4)
    except ParseError:
        want = None
    got = _match_command({}, "l0:" + line)
    assert got is None or got == want, (line, got, want)


def descent_parse(text: str) -> tuple[tuple[Label, Command], ...]:
    """The pairs ``parse_program`` builds, by the path its whole-line match stands in for:
    each line cut at its ``#`` and its colon, its command read by the descent."""
    return reference_parse_program(text, partial(_parse_command, _Parser()), tuple)


# Lines that the whole-line match reads, and lines just beside them
_LABELS = ["l0", "L_1", "_x", "x"] * 4 + ["goto", "if", "done", "then", "1l", "l-1", "l 0", ""]
_WORDS = ["x", "y1", "_t", "ifx", "then1", "l9"] * 3 + ["goto", "if", "not", "true", "done"]
_LITERALS = ["0", "7", "007", "42"] * 2 + [
    "9223372036854775807", "9223372036854775808", "9999999999999999999",  # 19 digits
    "10000000000000000000", "12345678901234567890",  # 20 digits
]
_BLANKS = ["", " ", "\t", " \t ", "\f", "\v", "\xa0"]
_COMMENTS = ["# note", "#", "#x := 1", "# l1: goto l0 #"]
_ENDINGS = ["", "\n", "\r", "\r\n", "\nl1: done\r\n"]


def _sweep_line(rng: random.Random) -> str:
    """One line: blanks around the label and the colon, a command of any shape the whole-line
    match reads (or one token off it), perhaps a comment after the command or after blanks, and
    an ending of none, LF, CR or CRLF, or a second line."""

    def blank() -> str:
        return rng.choice(_BLANKS) if rng.random() < 0.1 else rng.choice(["", " "])

    def leaf() -> str:
        return rng.choice(_WORDS if rng.random() < 0.5 else _LITERALS)

    shape = rng.randrange(8)
    if shape == 0:
        tokens = [rng.choice(["skip", "halt", "done"])]
    elif shape == 1:
        tokens = ["goto", rng.choice(_WORDS)]
    elif shape in (2, 3):
        tokens = [rng.choice(_WORDS), ":=", leaf()]
        if shape == 3:
            tokens += [rng.choice("+-*"), leaf()]
    elif shape in (4, 5):
        tokens = ["if", leaf(), rng.choice(["=", "<="]), leaf(), "then", rng.choice(_WORDS)]
    elif shape == 6:  # descent-only syntax
        tokens = rng.choice([
            ["x", ":=", "(", "1", ")"], ["if", "not", "x", "<=", "1", "then", "l0"],
            ["if", "true", "then", "l0"], ["x", ":=", "1", "+", "2", "*", "y"],
        ])
    else:  # a token dropped, doubled or replaced
        tokens = ["if", leaf(), "<=", leaf(), "then", "l0"]
        at = rng.randrange(len(tokens))
        other = rng.choice(_WORDS + ["(", ":", "#"])
        tokens[at:at + 1] = rng.choice([[], [tokens[at]] * 2, [other]])
    # a token runs into the next one where the blank between them is empty: ``ifx``, ``1then``
    command = "".join(token + (rng.choice(["", " "]) if rng.random() < 0.1 else blank() or " ")
                      for token in tokens).rstrip(" ") + blank()
    comment = rng.choice(_COMMENTS) if rng.random() < 0.3 else ""
    return (blank() + rng.choice(_LABELS) + blank() + ":" + blank() + command + comment
            + rng.choice(_ENDINGS))


def test_whole_line_path_parses_as_the_split_path(monkeypatch):
    """A seeded sweep of lines, each parsed alone: the same pairs, or the same ParseError
    (class, line, column and message), as every line cut and read by the descent."""
    monkeypatch.setattr(core_lang, "Program", tuple)  # the pairs, with no structure check
    whole = []
    match_command = core_lang._match_command

    def counting(leaves, line):
        pair = match_command(leaves, line)
        if line:  # not the empty text after a text's last line ending
            whole.append(pair is not None)
        return pair

    monkeypatch.setattr(core_lang, "_match_command", counting)
    rng = random.Random(0)
    for _ in range(20_000):
        text = _sweep_line(rng)
        got, want = _outcome(parse_program, text), _outcome(descent_parse, text)
        assert got == want, text
    assert 0.25 < sum(whole) / len(whole) < 0.75  # each path takes a good share of the lines


_PARSE_ERRORS = (
    "expected ')'",
    "integer literal too long",
    "integer literal outside the 64-bit range",
    "expected integer, identifier, or '('",
    "expected '=' or '<=' in comparison",
    "unexpected trailing input",
    "expected target label after 'goto'",
    "expected 'then'",
    "expected target label after 'then'",
    "expected ':=' after variable name",
    "expected a command",
    "expected 'label: command'",
    "invalid label",
    "expression nested more than",
    "expression holds more than",
    "empty program",
)


def _outcome_kind(outcome) -> str:
    if isinstance(outcome, Program):
        return "parsed"
    cls, _, _, message = outcome
    if cls is not ParseError:
        return cls.__name__
    return next(kind for kind in _PARSE_ERRORS if message.split(": ", 1)[1].startswith(kind))


def test_edited_programs_reach_every_error():
    """A seeded sweep of edited programs, in which nearly every outcome occurs."""
    rng = random.Random(0)
    kinds = {_outcome_kind(assert_same_outcome(edited_program_text(rng))) for _ in range(3000)}
    rare = {
        "integer literal too long",
        "integer literal outside the 64-bit range",
        "expression nested more than",
        "expression holds more than",
        "empty program",
    }
    assert kinds >= {"parsed", "ProgramStructureError", *_PARSE_ERRORS} - rare, kinds
