"""Sequencing partial Steiner triple systems.

Decide and construct orderings of all points such that no proper
segment is a disjoint union of blocks, plus the supporting machinery:
system validation, named generators, disjoint-block packings, bad-set
enumeration, and the order-13 non-sequenceability certificate.
"""

from .core import (
    Block,
    PartitionWitness,
    Segment,
    Sequence,
    TripleSystem,
    inadmissible_segments,
    is_admissible,
    partition_into_blocks,
    validate_system,
)
from .generators import (
    CyclicBase,
    cyclic_system,
    friendship,
    friendship_chain,
    johnson_schonheim,
    random_system,
)
from .kernels import backend_name
from .packing import (
    BadSetReport,
    PackingResult,
    bad_sets,
    is_good_set,
    max_disjoint_blocks,
)
from .sequencer import (
    DEFAULT_BUDGET,
    Decision,
    Labeling,
    Outcome,
    Sts13Certificate,
    construct,
    decide,
    interleave_large,
    pi_template_instantiate,
    verify_sts13_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "Block",
    "PartitionWitness",
    "Segment",
    "Sequence",
    "TripleSystem",
    "inadmissible_segments",
    "is_admissible",
    "partition_into_blocks",
    "validate_system",
    "CyclicBase",
    "cyclic_system",
    "friendship",
    "friendship_chain",
    "johnson_schonheim",
    "random_system",
    "backend_name",
    "BadSetReport",
    "PackingResult",
    "bad_sets",
    "is_good_set",
    "max_disjoint_blocks",
    "DEFAULT_BUDGET",
    "Decision",
    "Labeling",
    "Outcome",
    "Sts13Certificate",
    "construct",
    "decide",
    "interleave_large",
    "pi_template_instantiate",
    "verify_sts13_certificate",
    "__version__",
]
