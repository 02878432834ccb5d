"""Regular languages that demonstrate every non-identity group element.

The core object is the demonstration: a regular language over letters
that evaluate into a group, accepting no identity word while hitting
every non-identity element.  Submodules add exact group oracles,
closure constructions, word problem semi-decision, and a block file
workspace with a command line front end.
"""

from .automata import (
    EPSILON,
    Letter,
    Nfa,
    Word,
    concat,
    finite_language,
    format_word,
    image_hom,
    intersect,
    inverse_letter_hom,
    make_word,
    parse_word,
    subtract_word,
    union,
)
from .constructions import (
    CosetTable,
    SyncTripleAutomaton,
    admissible_automaton,
    autostackable_projection,
    change_generators,
    cross_section_to_demo,
    extension,
    fi_overgroup,
    fi_subgroup,
    graph_product,
)
from .demonstrations import (
    CoverageReport,
    Demonstration,
    builtin_demo,
    finite_demo,
    free_demo,
    z_demo,
    zk_demo,
)
from .errors import (
    AutomatonSizeError,
    EpicError,
    InputContradictionError,
    LoadError,
)
from .graphproduct import GraphProductOracle, VertexGraph
from .groups import (
    ElementKey,
    FreeAbelianOracle,
    FreeGroupOracle,
    GroupOracle,
    IntegerMatrixOracle,
    PermutationOracle,
)
from .wordproblem import (
    Enumerator,
    Frontier,
    Presentation,
    WpVerdict,
    coword_demo_from_wp,
    decide_word,
    demonstration_enumerator,
    free_reduce,
    language_enumerator,
    normal_closure_enumerator,
    replay,
)
from .workspace import Workspace, load, render
