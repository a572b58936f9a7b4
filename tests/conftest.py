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


@pytest.fixture
def lookups(monkeypatch):
    """Count obligation lookups, by wrapping ``command_obligations`` where each module calls it.

    ``engine`` lists the label of each lookup the engine makes (its reruns
    and the oracle), and ``extended`` each one the checkers make.
    """
    seen = SimpleNamespace(engine=[], extended=[])
    for module, looked_up in ((engine, seen.engine), (extended, seen.extended)):

        def counting(program, label, looked_up=looked_up):
            looked_up.append(label)
            return core_lang.command_obligations(program, label)

        monkeypatch.setattr(module, "command_obligations", counting)
    return seen
