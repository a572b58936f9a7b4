"""The token parser against the character-level parser it replaced.

``reference_parse_program`` is the parser ``core_lang`` used before its
tokenizer: a recursive descent that skips blanks and matches literals one
character position at a time.  Both must accept the same texts, build the
same ``Program``, and reject the rest with the same error class, line,
column and message.  Inputs are fragments of the grammar glued together and
printed random programs with tokens inserted or deleted.
"""

from __future__ import annotations

import random
import re
from typing import Callable

from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    parse_program,
    print_program,
)
from randprog import random_program
from test_core_lang import _FRAGMENTS

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT_RE = re.compile(r"[0-9]+")
_MAX_NESTING = 50
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
        while True:
            self.skip_ws()
            if self.take("+"):
                node = ABin("+", node, self.aterm())
            elif self.take("-"):
                node = ABin("-", node, self.aterm())
            else:
                return node

    def aterm(self) -> AExp:
        node = self.afactor()
        while self.take("*"):
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
            self.take_word()
            node = BBin("or", node, self.band())
        return node

    def band(self) -> BExp:
        node = self.bnot()
        while self.peek_word() == "and":
            self.take_word()
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
            saved = self.pos
            self.take("(")
            try:
                inner = self.nested(self.bexp)
                if self.take(")"):
                    self.skip_ws()
                    if self.peek() not in {"=", "<", "+", "-", "*"}:
                        return inner
            except ParseError:
                pass
            self.pos = saved
        left = self.aexp()
        self.skip_ws()
        if self.take("<="):
            return Cmp("<=", left, self.aexp())
        if self.take("="):
            return Cmp("=", left, self.aexp())
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


def reference_parse_program(text: str) -> Program:
    """``parse_program`` over the character-level parser."""
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
        command = reference_parse_command(line[colon + 1 :], line_no, colon + 2)
        pairs.append((label, command))
    if not pairs:
        raise ParseError("empty program", 1, 1)
    return Program(pairs)


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
@example("l0: if x <= 1 thn l0\nl1: goto l0")
@example("l0: if x <= 1 ( then l0\nl1: goto l0")
@example("l0: if (x <= 1) + 1 <= 2 then l0\nl1: goto l0")
@example("l0: goto l0 5 \t\nl1: goto l0")
@settings(max_examples=2000, deadline=None)
def test_fragment_texts_parse_as_the_reference_does(text):
    assert_same_outcome(text)


@given(st.integers(0, 2**32))
@settings(max_examples=1000, deadline=None)
def test_edited_programs_parse_as_the_reference_does(seed):
    assert_same_outcome(edited_program_text(random.Random(seed)))


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
        "empty program",
    }
    assert kinds >= {"parsed", "ProgramStructureError", *_PARSE_ERRORS} - rare, kinds
