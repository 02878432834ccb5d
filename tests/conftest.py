"""Every automaton a package builder makes in a test passes the public
constructor's full check."""

import pytest

from epicdemo.automata import Nfa
from epicdemo.errors import AutomatonSizeError


@pytest.fixture(autouse=True)
def builder_faults(monkeypatch):
    """Wrap ``Nfa._built``, which checks only the state cap and the
    alphabet, so that each automaton it returns is checked again by
    ``Nfa(...)``, down to each transition.

    A refusal, whatever ``Nfa(...)`` raised, raises AssertionError, which
    no ``pytest.raises(ValueError)`` takes for a builder's own error, and
    is listed in the value of this fixture, which must be empty at
    teardown: a test fails even when the code under test catches the
    error.  A test that makes faults on purpose clears the list.
    """
    faults = []
    built = Nfa._built

    def checked(*parts):
        nfa = built(*parts)
        try:
            Nfa(nfa.alphabet, nfa.states, nfa.transitions, nfa.initials, nfa.accepting)
        except (ValueError, TypeError, AutomatonSizeError) as exc:
            faults.append(str(exc))
            raise AssertionError(f"Nfa(...) refuses a built automaton: {exc}") from exc
        return nfa

    monkeypatch.setattr(Nfa, "_built", staticmethod(checked))
    yield faults
    assert not faults, f"Nfa(...) refuses built automata: {faults}"
