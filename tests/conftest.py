"""Every automaton a package builder makes in a test, and every one the
workspace reader reads, passes the public constructor's full check."""

import pytest

from epicdemo.automata import _INDEXED_FIELDS, Nfa, _check_labels
from epicdemo.errors import AutomatonSizeError


def check_index(nfa):
    """Raise ValueError unless the built automaton's integer index is whole:
    distinct states, one out-edge map per state, each label None or a
    Letter of the alphabet, each target id in range and listed once per
    label, and the initial and accepting ids in range."""
    index = nfa._index
    size = len(index.states)
    if len(set(index.states)) != size:
        raise ValueError("a state appears twice in the index")
    if len(index.edges) != size:
        raise ValueError(f"{len(index.edges)} out-edge maps for {size} states")
    for p, out in enumerate(index.edges):
        _check_labels([x for x in out if x is not None], nfa.alphabet)
        for label, targets in out.items():
            for q in targets:
                if type(q) is not int or not 0 <= q < size:
                    raise ValueError(f"target id {q!r} of {(index.states[p], label)!r} "
                                     f"out of range")
            if len(set(targets)) != len(targets):
                raise ValueError(f"repeated target of {(index.states[p], label)!r}")
    for i in (*index.initials, *index.accepting):
        if type(i) is not int or not 0 <= i < size:
            raise ValueError(f"initial or accepting id {i!r} out of range")


@pytest.fixture(autouse=True)
def builder_faults(monkeypatch):
    """Wrap ``Nfa._built``, which checks only the state cap and the
    alphabet, so that the index of each automaton it returns is checked by
    ``check_index``, and the fields written out from that index by
    ``Nfa(...)``, down to each transition.  The fields are written out
    apart from the automaton, which keeps only its index.  The workspace
    reader hands ``Nfa._built`` the index it reads from a block, so every
    automaton a test reads from a file or text is checked here too; the
    ``Nfa(...)``-based reader in ``tests/oracles.py`` stays the reference
    the reader differential tests compare against.

    A refusal, whatever was raised, raises AssertionError, which no
    ``pytest.raises(ValueError)`` takes for a builder's own error, and is
    listed in the value of this fixture, which must be empty at teardown:
    a test fails even when the code under test catches the error.  A test
    that makes faults on purpose clears the list.
    """
    faults = []
    built = Nfa._built

    def checked(*parts):
        nfa = built(*parts)
        try:
            check_index(nfa)
            Nfa(nfa.alphabet, *map(nfa._index.written, _INDEXED_FIELDS))
        except (ValueError, TypeError, AutomatonSizeError) as exc:
            faults.append(str(exc))
            raise AssertionError(f"a built automaton is refused: {exc}") from exc
        return nfa

    monkeypatch.setattr(Nfa, "_built", staticmethod(checked))
    yield faults
    assert not faults, f"built automata are refused: {faults}"
