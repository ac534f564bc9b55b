"""Exact Clebsch-Gordan machinery for Spin(5) coupling with the 14-dimensional representation.

Importing the package loads the table layer (errors, exact numbers, labels,
reduced tables). The matrix layer (`su2_cg` and the `fullcg` names) loads on
first access of one of its names, so a process that only exports tables
never compiles it; `so5cg.verify` and `so5cg.oracle` are imported only by
their users. Records are `typing.NamedTuple` classes and labels slotted
classes, so no module but `so5cg.oracle` loads `dataclasses` (and with it
`inspect`).
"""

ENGINE_VERSION = "1.0.0"

import importlib  # noqa: E402

from .errors import (  # noqa: E402
    ChannelAbsent,
    DegenerateBasis,
    DimensionCap,
    EigenFailure,
    FormulaDomainError,
    MalformedKey,
    NegativeRadicand,
    So5Error,
)
from .exactnum import ONE, ZERO, SqrtSum, sqrt_product, sqrt_rational  # noqa: E402
from .labels import (  # noqa: E402
    ALL_CHANNELS,
    FOURTEEN,
    Channel,
    DecompEntry,
    EntryShift,
    HalfInt,
    IrrepLabel,
    So4Label,
    branching,
    channel_present,
    channels_present,
    decompose_with_14,
    dim,
    in_branching,
    iter_labels,
    m_values,
    multiplicity_of,
    target_of,
)
from .reduced import (  # noqa: E402
    MixingData,
    ReducedKey,
    ReducedRow,
    aux_table_rows,
    channel_present_by_normalization,
    mixing,
    normalization,
    reduced,
    reduced_aux,
    reduced_vector,
    symmetry_extend,
    table_rows,
)

# The matrix-layer names, by the submodule that defines them.
_LAZY = {
    "su2_cg": "su2",
    "CouplingMatrix": "fullcg",
    "coupling_matrix": "fullcg",
    "column_gram_deviation": "fullcg",
    "row_gram_deviation": "fullcg",
    "full": "fullcg",
}


def __getattr__(name: str):
    """Import a matrix-layer name's submodule on first access (PEP 562)."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})

__all__ = [
    "ENGINE_VERSION",
    "So5Error", "MalformedKey", "ChannelAbsent", "FormulaDomainError",
    "NegativeRadicand", "DimensionCap", "DegenerateBasis", "EigenFailure",
    "SqrtSum", "ZERO", "ONE", "sqrt_rational", "sqrt_product",
    "HalfInt", "So4Label", "IrrepLabel", "Channel", "EntryShift",
    "DecompEntry", "FOURTEEN", "ALL_CHANNELS",
    "dim", "branching", "in_branching", "decompose_with_14", "target_of",
    "multiplicity_of", "channel_present", "channels_present", "m_values",
    "iter_labels",
    "su2_cg",
    "ReducedKey", "ReducedRow", "MixingData", "reduced", "reduced_aux",
    "reduced_vector", "normalization", "mixing", "symmetry_extend",
    "channel_present_by_normalization", "table_rows", "aux_table_rows",
    "CouplingMatrix", "full", "coupling_matrix",
    "column_gram_deviation", "row_gram_deviation",
]
