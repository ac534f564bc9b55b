"""Exact Clebsch-Gordan machinery for Spin(5) coupling with the 14-dimensional representation."""

ENGINE_VERSION = "1.0.0"

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
from .su2 import su2_cg  # noqa: E402
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
from .fullcg import (  # noqa: E402
    CouplingMatrix,
    column_gram_deviation,
    coupling_matrix,
    full,
    row_gram_deviation,
)

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
