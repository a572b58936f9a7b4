import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from prophecy import core_lang, engine, extended  # noqa: E402


@pytest.fixture
def transitions(monkeypatch):
    """Count compiled transitions and their calls, by wrapping ``core_lang._compile_label``.

    ``compiled`` lists each command whose transition compiled, in order, and
    ``calls`` the command of each call to a transition compiled meanwhile.
    Only labels compiled after the hook is on are counted: build the
    programs inside the test.
    """
    seen = SimpleNamespace(compiled=[], calls=[])
    compile_label = core_lang._compile_label

    def counting(command, nxt, slot):
        transition = compile_label(command, nxt, slot)
        seen.compiled.append(command)

        def counted(slots):
            seen.calls.append(command)
            return transition(slots)

        return counted

    monkeypatch.setattr(core_lang, "_compile_label", counting)
    return seen


class _CountedReads(dict):
    """A copy of a program's ``obligation_masks`` that lists the label of each read in ``read``."""

    def __init__(self, masks, read):
        super().__init__(masks)
        self.read = read

    def __getitem__(self, label):
        self.read.append(label)
        return super().__getitem__(label)


@pytest.fixture
def lookups(monkeypatch):
    """Count obligation lookups where each module makes them.

    ``engine`` lists the label of each mask read the engine makes: one per
    edge check of its reruns and one per oracle visit, read from the
    counting copy of ``obligation_masks`` it is handed.  ``extended`` lists
    the label of each ``command_obligations`` call the checkers make.
    """
    seen = SimpleNamespace(engine=[], extended=[])

    def counted_masks(program):
        return _CountedReads(core_lang.obligation_masks(program), seen.engine)

    def counting(program, label):
        seen.extended.append(label)
        return core_lang.command_obligations(program, label)

    monkeypatch.setattr(engine, "obligation_masks", counted_masks)
    monkeypatch.setattr(extended, "command_obligations", counting)
    return seen
